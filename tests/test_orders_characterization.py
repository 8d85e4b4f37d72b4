"""Characterization of the arrival orders and stream builders: pinned digests.

Two grids, every seed fixed:

* every order class (locally-shuffled at four randomness levels) × three
  seeds × two instances × three inputs: the canonical enumeration, a
  shuffled enumeration with duplicated edges, and no edges.  Each cell
  pins a digest of the output edges in order and of the order's
  ``random.Random`` state after the run, through both
  :meth:`~repro.streaming.orders.ArrivalOrder.apply` and
  :meth:`~repro.streaming.orders.ArrivalOrder.apply_columns`;
* :func:`~repro.streaming.stream.stream_of`,
  :meth:`ReplayableStream.edges <repro.streaming.stream.ReplayableStream.edges>`
  and :func:`~repro.streaming.stream.concat_streams` under the same
  orders, seeds and instances.

The literals were recorded from the per-edge implementations, before
the orders and builders moved onto edge columns; every cell must stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro.generators.planted import planted_partition_instance
from repro.generators.zipf import zipf_instance
from repro.streaming.orders import (
    CanonicalOrder,
    ExplicitOrder,
    LargeSetsLastOrder,
    LocallyShuffledOrder,
    RandomOrder,
    RoundRobinInterleaveOrder,
    SetGroupedOrder,
)
from repro.streaming.stream import ReplayableStream, concat_streams, stream_of

SEEDS = (0, 1, 12345)

#: Order constructors from the generator they draw from and the input
#: length (an explicit order draws its permutation from the generator).
ORDERS = {
    "canonical": lambda rng, k: CanonicalOrder(),
    "random": lambda rng, k: RandomOrder(seed=rng),
    "set-grouped": lambda rng, k: SetGroupedOrder(seed=rng),
    "round-robin": lambda rng, k: RoundRobinInterleaveOrder(seed=rng),
    "large-sets-last": lambda rng, k: LargeSetsLastOrder(seed=rng),
    "locally-shuffled-0": lambda rng, k: LocallyShuffledOrder(0.0, seed=rng),
    "locally-shuffled-0.01": lambda rng, k: LocallyShuffledOrder(0.01, seed=rng),
    "locally-shuffled-0.3": lambda rng, k: LocallyShuffledOrder(0.3, seed=rng),
    "locally-shuffled-1": lambda rng, k: LocallyShuffledOrder(1.0, seed=rng),
    "explicit": lambda rng, k: ExplicitOrder(rng.sample(range(k), k)),
}

INSTANCES = {
    "zipf": lambda: zipf_instance(60, 25, seed=3),
    "planted": lambda: planted_partition_instance(80, 30, opt_size=6, seed=11).instance,
}


def _canonical(instance):
    return list(instance.edges())


def _shuffled_with_duplicates(instance):
    edges = list(instance.edges())
    edges += edges[::7]
    random.Random(99).shuffle(edges)
    return edges


INPUTS = {
    "canonical": _canonical,
    "shuffled-dup": _shuffled_with_duplicates,
    "empty": lambda instance: [],
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _pairs(set_ids, elements):
    return [[int(s), int(u)] for s, u in zip(set_ids, elements)]


def apply_digest(order_name, edges, seed) -> str:
    rng = random.Random(seed)
    out = ORDERS[order_name](rng, len(edges)).apply(edges)
    return _digest({"edges": [[int(s), int(u)] for s, u in out], "rng": rng.getstate()})


def columns_digest(order_name, edges, seed) -> str:
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    rng = random.Random(seed)
    out = ORDERS[order_name](rng, len(edges)).apply_columns(
        np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])
    )
    return _digest({"edges": _pairs(*out), "rng": rng.getstate()})


def _stream_digest(stream, rng) -> str:
    return _digest(
        {
            "edges": _pairs(*stream.peek_all().columns()),
            "name": stream.order_name,
            "length": stream.length,
            "rng": rng.getstate(),
        }
    )


def _build_stream_of(instance, order_name, seed):
    rng = random.Random(seed)
    order = ORDERS[order_name](rng, instance.num_edges)
    return _stream_digest(stream_of(instance, order), rng)


def _build_replayable(instance, order_name, seed):
    rng = random.Random(seed)
    replay = ReplayableStream(instance, ORDERS[order_name](rng, instance.num_edges))
    view = replay.fresh()
    assert view.peek_all() is replay.edges()
    return _stream_digest(view, rng)


def _build_concat(instance, order_name, seed):
    rng = random.Random(seed)
    tail = INSTANCES["zipf"]()
    first = stream_of(instance, ORDERS[order_name](rng, instance.num_edges))
    second = stream_of(tail, ORDERS[order_name](rng, tail.num_edges))
    return _stream_digest(concat_streams(first, second), rng)


BUILDERS = {
    "stream_of": _build_stream_of,
    "replayable": _build_replayable,
    "concat": _build_concat,
}


#: (order, instance, input) -> digests for SEEDS, in order.
EXPECTED_ORDERS = {
    ("canonical", "zipf", "canonical"): (
        "a369e60cacb5b80f",
        "c710a4bbfb000313",
        "c042c644ed2f9775",
    ),
    ("canonical", "zipf", "shuffled-dup"): (
        "ce6abaa78511ed26",
        "433a2ac312303195",
        "10389f9f6f2be4cc",
    ),
    ("canonical", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("canonical", "planted", "canonical"): (
        "a2ef57af7358de2e",
        "660065590d2bb0f1",
        "db5e4a57ce5f48ea",
    ),
    ("canonical", "planted", "shuffled-dup"): (
        "5673926ac9277813",
        "3f3ca633c09acf11",
        "d777a46e51d8f4d5",
    ),
    ("canonical", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("random", "zipf", "canonical"): (
        "ea89279290b1388a",
        "92bdaaab9f0078cf",
        "b592f68abf2761b2",
    ),
    ("random", "zipf", "shuffled-dup"): (
        "d52d11e28611ab85",
        "16e877f23f5d5736",
        "821740a67919a0a9",
    ),
    ("random", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("random", "planted", "canonical"): (
        "ab8ed2d8002c727e",
        "10b04c8971786dcc",
        "9fb5ee587df5326a",
    ),
    ("random", "planted", "shuffled-dup"): (
        "83fbe078c0b55e7e",
        "b4daf99b9f98450a",
        "d1199b61ba679729",
    ),
    ("random", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("set-grouped", "zipf", "canonical"): (
        "5cfab55ba4030d52",
        "f909d72d5a8277f9",
        "b8c698a6784d9974",
    ),
    ("set-grouped", "zipf", "shuffled-dup"): (
        "c5de58645a7524e4",
        "ffe3c63741d7dcba",
        "b872cb0edee26fd0",
    ),
    ("set-grouped", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("set-grouped", "planted", "canonical"): (
        "8e66bb28270b0d73",
        "e7f9b07cdcf3b56f",
        "13d386e69d83708f",
    ),
    ("set-grouped", "planted", "shuffled-dup"): (
        "16ba628d3e8b7737",
        "0459c702ed8a45cf",
        "e17fe8ac5c6d224a",
    ),
    ("set-grouped", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("round-robin", "zipf", "canonical"): (
        "c29863dbabd9f65b",
        "19f1893dd9345c58",
        "34a011b6227e8600",
    ),
    ("round-robin", "zipf", "shuffled-dup"): (
        "d9a760bcee11eabc",
        "06ce9620f7500b70",
        "49d320418fbc3c41",
    ),
    ("round-robin", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("round-robin", "planted", "canonical"): (
        "f5b186d929d5f303",
        "76050e4872a49951",
        "fd0ff48891905608",
    ),
    ("round-robin", "planted", "shuffled-dup"): (
        "e93c539cbaecc322",
        "c4f224b77e2f5341",
        "2e738600053b6a92",
    ),
    ("round-robin", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("large-sets-last", "zipf", "canonical"): (
        "54eaad420e9807f5",
        "5c054b52312b2dac",
        "2f55abc5f17bd018",
    ),
    ("large-sets-last", "zipf", "shuffled-dup"): (
        "f172e788a14b98d2",
        "a12ead07c3767999",
        "4be3ddad3ab5bed4",
    ),
    ("large-sets-last", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("large-sets-last", "planted", "canonical"): (
        "6ac3f5ca911e7323",
        "a22917504fdcd420",
        "557b4c7a6a2d2c7d",
    ),
    ("large-sets-last", "planted", "shuffled-dup"): (
        "b50221c930caac24",
        "3d0785a009ecb07e",
        "87f2de85e1c71705",
    ),
    ("large-sets-last", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("locally-shuffled-0", "zipf", "canonical"): (
        "c3d4dd6050611ee8",
        "39240901cdcad410",
        "30f42878812632d8",
    ),
    ("locally-shuffled-0", "zipf", "shuffled-dup"): (
        "a822a8ff18c3f5fa",
        "2dc15890bbc2cb96",
        "a4c948c380a9fc6a",
    ),
    ("locally-shuffled-0", "zipf", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-0", "planted", "canonical"): (
        "d3009e221b545815",
        "c26c3338a6922274",
        "c5fbdfc1380ad5a3",
    ),
    ("locally-shuffled-0", "planted", "shuffled-dup"): (
        "960578cf649dd365",
        "0a3eb91af560f2e3",
        "cb0becfc468b9b77",
    ),
    ("locally-shuffled-0", "planted", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-0.01", "zipf", "canonical"): (
        "c3d4dd6050611ee8",
        "39240901cdcad410",
        "30f42878812632d8",
    ),
    ("locally-shuffled-0.01", "zipf", "shuffled-dup"): (
        "a822a8ff18c3f5fa",
        "2dc15890bbc2cb96",
        "a4c948c380a9fc6a",
    ),
    ("locally-shuffled-0.01", "zipf", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-0.01", "planted", "canonical"): (
        "a39ec63d2b61dd4f",
        "78c4a61d94330445",
        "23710f42f330f4b2",
    ),
    ("locally-shuffled-0.01", "planted", "shuffled-dup"): (
        "e985972147f3298e",
        "5cf378a467e46009",
        "0cee0985d80fc373",
    ),
    ("locally-shuffled-0.01", "planted", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-0.3", "zipf", "canonical"): (
        "c63ef23401e65a7f",
        "d4fcc41940381d9e",
        "f0793c4f4b597137",
    ),
    ("locally-shuffled-0.3", "zipf", "shuffled-dup"): (
        "f2b70fb0ed7dddf9",
        "b1034c89593e41a6",
        "ab24c39475654668",
    ),
    ("locally-shuffled-0.3", "zipf", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-0.3", "planted", "canonical"): (
        "6c2892dcb1d47c7e",
        "017c2b8466ca25d4",
        "599a3f28a764a801",
    ),
    ("locally-shuffled-0.3", "planted", "shuffled-dup"): (
        "ff5bea3411c67d79",
        "6bd21125241db338",
        "a0b35974252d64cf",
    ),
    ("locally-shuffled-0.3", "planted", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-1", "zipf", "canonical"): (
        "6ffa080702bacd9a",
        "b7b7b9da591b14f6",
        "82775a2144f1f271",
    ),
    ("locally-shuffled-1", "zipf", "shuffled-dup"): (
        "5f84271c669294a0",
        "02e55a4baff23c3c",
        "b545740eabf6a584",
    ),
    ("locally-shuffled-1", "zipf", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("locally-shuffled-1", "planted", "canonical"): (
        "44e52004fe828fdf",
        "0b2de63da3716c76",
        "69c852542962f1b5",
    ),
    ("locally-shuffled-1", "planted", "shuffled-dup"): (
        "29d68072fca91ef7",
        "c3e96729f2100c50",
        "6c3ad7779450ccd2",
    ),
    ("locally-shuffled-1", "planted", "empty"): (
        "71f7282bf3c1c2e4",
        "6c3914e90e5a4390",
        "478238e2d242530e",
    ),
    ("explicit", "zipf", "canonical"): (
        "a9bccda210d03383",
        "2572c42134cc4646",
        "a6296626500e38af",
    ),
    ("explicit", "zipf", "shuffled-dup"): (
        "958bf144900c4357",
        "697237ed935c614a",
        "e5d0707983cd9be0",
    ),
    ("explicit", "zipf", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
    ("explicit", "planted", "canonical"): (
        "cc29dc0643ae709f",
        "bbe5f267aad368aa",
        "f9d118e2601c14aa",
    ),
    ("explicit", "planted", "shuffled-dup"): (
        "dc6337732ced6220",
        "8f0f6e679021a0a6",
        "e8a42052ba1bdefc",
    ),
    ("explicit", "planted", "empty"): (
        "7de7cc82c7ae06bc",
        "f8d2734829a68713",
        "811c40bd3bbd634f",
    ),
}

#: (builder, order, instance) -> digests for SEEDS, in order.
EXPECTED_BUILDERS = {
    ("stream_of", "canonical", "zipf"): (
        "9e673ca321a77988",
        "3bfcd638275c11f0",
        "0660b042ab99967c",
    ),
    ("stream_of", "canonical", "planted"): (
        "41e617b4cb5517fc",
        "0b2361efac1058dd",
        "23d6e9b3e1012025",
    ),
    ("stream_of", "random", "zipf"): (
        "b01537c89c4b2d89",
        "6d3d4c18db7b8b71",
        "925a9d0d9fbf67ec",
    ),
    ("stream_of", "random", "planted"): (
        "6ae6cc79908c84d3",
        "f3932f2333bc80bb",
        "3dab395c1754d49d",
    ),
    ("stream_of", "set-grouped", "zipf"): (
        "55a4b19463d69e1a",
        "f053204395e8df2c",
        "af0937b4aaee9f84",
    ),
    ("stream_of", "set-grouped", "planted"): (
        "23c020dcd30a5597",
        "c008e85c6d49efde",
        "d4e8f23f4f062ed0",
    ),
    ("stream_of", "round-robin", "zipf"): (
        "41705a1b7abcec15",
        "cfb86332a4067bfa",
        "076b90dbff91c17a",
    ),
    ("stream_of", "round-robin", "planted"): (
        "32b21897416e4a0a",
        "840e1d293f86da47",
        "e6a9772b95408e13",
    ),
    ("stream_of", "large-sets-last", "zipf"): (
        "fc418807fc967aad",
        "18a3d36e557753dc",
        "e1a1e16cf8943d91",
    ),
    ("stream_of", "large-sets-last", "planted"): (
        "c4192c5056d3409e",
        "6d214a9a146d96ce",
        "b159d582a6908ba9",
    ),
    ("stream_of", "locally-shuffled-0", "zipf"): (
        "7e908cb282988899",
        "05241f8f8c9967e4",
        "375c4f13bfc4bcff",
    ),
    ("stream_of", "locally-shuffled-0", "planted"): (
        "7dfe01028d0a5775",
        "5684478b41932863",
        "aebc521d5deafae1",
    ),
    ("stream_of", "locally-shuffled-0.01", "zipf"): (
        "7e908cb282988899",
        "05241f8f8c9967e4",
        "375c4f13bfc4bcff",
    ),
    ("stream_of", "locally-shuffled-0.01", "planted"): (
        "fac2dedf0388f131",
        "bb7c3676095172d9",
        "a63cbc27ab19f196",
    ),
    ("stream_of", "locally-shuffled-0.3", "zipf"): (
        "761f48c8d5245786",
        "2264a330ff6a36ec",
        "fcff03ece4fcbfe6",
    ),
    ("stream_of", "locally-shuffled-0.3", "planted"): (
        "af52eda8c81b3b54",
        "fec898afd16ad767",
        "1ecc2e8efb1e565e",
    ),
    ("stream_of", "locally-shuffled-1", "zipf"): (
        "549023a123bac997",
        "16eb9ade82e497ab",
        "09b9fc73c17321de",
    ),
    ("stream_of", "locally-shuffled-1", "planted"): (
        "0c79f49f13f69521",
        "1d50b473fc640d9d",
        "a137ecf12b875f63",
    ),
    ("stream_of", "explicit", "zipf"): (
        "c6e6dc74e2a3941b",
        "5d9a31c73e34f2f1",
        "4b4df5f0f5c9780d",
    ),
    ("stream_of", "explicit", "planted"): (
        "b8b5f3abf7cd142d",
        "b0558224d29cb2ae",
        "f62aea66c31be1e8",
    ),
    ("replayable", "canonical", "zipf"): (
        "9e673ca321a77988",
        "3bfcd638275c11f0",
        "0660b042ab99967c",
    ),
    ("replayable", "canonical", "planted"): (
        "41e617b4cb5517fc",
        "0b2361efac1058dd",
        "23d6e9b3e1012025",
    ),
    ("replayable", "random", "zipf"): (
        "b01537c89c4b2d89",
        "6d3d4c18db7b8b71",
        "925a9d0d9fbf67ec",
    ),
    ("replayable", "random", "planted"): (
        "6ae6cc79908c84d3",
        "f3932f2333bc80bb",
        "3dab395c1754d49d",
    ),
    ("replayable", "set-grouped", "zipf"): (
        "55a4b19463d69e1a",
        "f053204395e8df2c",
        "af0937b4aaee9f84",
    ),
    ("replayable", "set-grouped", "planted"): (
        "23c020dcd30a5597",
        "c008e85c6d49efde",
        "d4e8f23f4f062ed0",
    ),
    ("replayable", "round-robin", "zipf"): (
        "41705a1b7abcec15",
        "cfb86332a4067bfa",
        "076b90dbff91c17a",
    ),
    ("replayable", "round-robin", "planted"): (
        "32b21897416e4a0a",
        "840e1d293f86da47",
        "e6a9772b95408e13",
    ),
    ("replayable", "large-sets-last", "zipf"): (
        "fc418807fc967aad",
        "18a3d36e557753dc",
        "e1a1e16cf8943d91",
    ),
    ("replayable", "large-sets-last", "planted"): (
        "c4192c5056d3409e",
        "6d214a9a146d96ce",
        "b159d582a6908ba9",
    ),
    ("replayable", "locally-shuffled-0", "zipf"): (
        "7e908cb282988899",
        "05241f8f8c9967e4",
        "375c4f13bfc4bcff",
    ),
    ("replayable", "locally-shuffled-0", "planted"): (
        "7dfe01028d0a5775",
        "5684478b41932863",
        "aebc521d5deafae1",
    ),
    ("replayable", "locally-shuffled-0.01", "zipf"): (
        "7e908cb282988899",
        "05241f8f8c9967e4",
        "375c4f13bfc4bcff",
    ),
    ("replayable", "locally-shuffled-0.01", "planted"): (
        "fac2dedf0388f131",
        "bb7c3676095172d9",
        "a63cbc27ab19f196",
    ),
    ("replayable", "locally-shuffled-0.3", "zipf"): (
        "761f48c8d5245786",
        "2264a330ff6a36ec",
        "fcff03ece4fcbfe6",
    ),
    ("replayable", "locally-shuffled-0.3", "planted"): (
        "af52eda8c81b3b54",
        "fec898afd16ad767",
        "1ecc2e8efb1e565e",
    ),
    ("replayable", "locally-shuffled-1", "zipf"): (
        "549023a123bac997",
        "16eb9ade82e497ab",
        "09b9fc73c17321de",
    ),
    ("replayable", "locally-shuffled-1", "planted"): (
        "0c79f49f13f69521",
        "1d50b473fc640d9d",
        "a137ecf12b875f63",
    ),
    ("replayable", "explicit", "zipf"): (
        "c6e6dc74e2a3941b",
        "5d9a31c73e34f2f1",
        "4b4df5f0f5c9780d",
    ),
    ("replayable", "explicit", "planted"): (
        "b8b5f3abf7cd142d",
        "b0558224d29cb2ae",
        "f62aea66c31be1e8",
    ),
    ("concat", "canonical", "zipf"): (
        "de7170dd22889e62",
        "842f5c539b77e1a9",
        "55f87c22cd70b7cf",
    ),
    ("concat", "canonical", "planted"): (
        "a89d8f5e36c88c65",
        "cb412c459c679494",
        "5fce06c080c269c6",
    ),
    ("concat", "random", "zipf"): (
        "c0a98bf9b4a40dfd",
        "dec4c27d8f624e51",
        "d9be64ff965441da",
    ),
    ("concat", "random", "planted"): (
        "2164ab025b4a6458",
        "73137e1d0a57adbc",
        "08e09442d2e39725",
    ),
    ("concat", "set-grouped", "zipf"): (
        "e16327392822b73f",
        "4953ec54306363e9",
        "0123dd677efe3a7c",
    ),
    ("concat", "set-grouped", "planted"): (
        "68699de255ab9bd2",
        "9b1a023df44c987c",
        "9d50451c781c63d5",
    ),
    ("concat", "round-robin", "zipf"): (
        "3114c499eab289d1",
        "ecd8fe5c07e2d231",
        "78cfc83a76f2ec17",
    ),
    ("concat", "round-robin", "planted"): (
        "1c01fff58be9bc01",
        "e6187ed50d864925",
        "d206cc5a49c65aae",
    ),
    ("concat", "large-sets-last", "zipf"): (
        "e84e67994710cd48",
        "f487b3e498ebef01",
        "4f49f9bc26f18750",
    ),
    ("concat", "large-sets-last", "planted"): (
        "212f68248dd03990",
        "315e1a9a3d5c674a",
        "3d83aad6859a2bde",
    ),
    ("concat", "locally-shuffled-0", "zipf"): (
        "9ed4619faffc102e",
        "83ba6147b6e71971",
        "86bf8073789497b7",
    ),
    ("concat", "locally-shuffled-0", "planted"): (
        "5d48d71ce19abc64",
        "0e39a78deb2a4b1f",
        "61c492b17c5114dc",
    ),
    ("concat", "locally-shuffled-0.01", "zipf"): (
        "9ed4619faffc102e",
        "83ba6147b6e71971",
        "86bf8073789497b7",
    ),
    ("concat", "locally-shuffled-0.01", "planted"): (
        "51cb14e37379a5a4",
        "8696c4db111fb16a",
        "4c0062b6f72e468f",
    ),
    ("concat", "locally-shuffled-0.3", "zipf"): (
        "cfa41249956c8d05",
        "226f7ff54857ffc5",
        "c45d02a22de5daad",
    ),
    ("concat", "locally-shuffled-0.3", "planted"): (
        "ecca14cbea34aaf5",
        "5b64b373f045070b",
        "6443f22ee4b21602",
    ),
    ("concat", "locally-shuffled-1", "zipf"): (
        "d1df7b4a86f9079a",
        "d6629cf95ed221c7",
        "f15a15169fda5967",
    ),
    ("concat", "locally-shuffled-1", "planted"): (
        "88786986f31808cd",
        "89da20fb6366d17a",
        "562788e2fec9d4b2",
    ),
    ("concat", "explicit", "zipf"): (
        "ec58d9428ce6235c",
        "cdf378690476ad21",
        "95a71c91aa7788f5",
    ),
    ("concat", "explicit", "planted"): (
        "fc642f61c9e97cad",
        "a726c1c4c5b57c87",
        "17a23e9805e981b6",
    ),
}


def test_grids_cover_every_cell():
    assert set(EXPECTED_ORDERS) == {
        (order, instance, source)
        for order in ORDERS
        for instance in INSTANCES
        for source in INPUTS
    }
    assert set(EXPECTED_BUILDERS) == {
        (builder, order, instance)
        for builder in BUILDERS
        for order in ORDERS
        for instance in INSTANCES
    }


@pytest.mark.parametrize("order_name", list(ORDERS))
@pytest.mark.parametrize("instance_name", list(INSTANCES))
@pytest.mark.parametrize("source", list(INPUTS))
def test_order_pinned(order_name, instance_name, source):
    edges = INPUTS[source](INSTANCES[instance_name]())
    expected = EXPECTED_ORDERS[(order_name, instance_name, source)]
    assert tuple(apply_digest(order_name, edges, seed) for seed in SEEDS) == expected
    assert (
        tuple(columns_digest(order_name, edges, seed) for seed in SEEDS) == expected
    )


@pytest.mark.parametrize("builder", list(BUILDERS))
@pytest.mark.parametrize("order_name", list(ORDERS))
@pytest.mark.parametrize("instance_name", list(INSTANCES))
def test_builder_pinned(builder, order_name, instance_name):
    instance = INSTANCES[instance_name]()
    got = tuple(BUILDERS[builder](instance, order_name, seed) for seed in SEEDS)
    assert got == EXPECTED_BUILDERS[(builder, order_name, instance_name)]
