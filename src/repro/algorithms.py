"""Central registry of one-pass streaming set-cover algorithms.

One place mapping public names to constructors, shared by the CLI's
``solve`` subcommand, the chaos harness, and the property-test suite
("every registered algorithm survives every fault type").  Builders
receive the instance so shape-dependent defaults (``α = √n`` and
friends) match what the experiments use.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.baselines.emek_rosen import SetArrivalThresholdGreedy
from repro.baselines.store_all import StoreAllAlgorithm
from repro.baselines.trivial import FirstFitAlgorithm
from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import StreamingSetCoverAlgorithm, Tracer
from repro.core.element_sampling import ElementSamplingAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.random_order import RandomOrderAlgorithm
from repro.errors import ConfigurationError
from repro.streaming.instance import SetCoverInstance
from repro.types import SeedLike

AlgorithmBuilder = Callable[
    [SetCoverInstance, SeedLike, Optional[float]], StreamingSetCoverAlgorithm
]
"""Build an algorithm for ``(instance, seed, alpha_override)``."""


def _build_kk(instance, seed, alpha):
    return KKAlgorithm(seed=seed)


def _build_adversarial(instance, seed, alpha):
    alpha = alpha if alpha else 2 * math.sqrt(instance.n)
    return LowSpaceAdversarialAlgorithm(alpha=alpha, seed=seed)


def _build_random_order(instance, seed, alpha):
    return RandomOrderAlgorithm(seed=seed)


def _build_element_sampling(instance, seed, alpha):
    alpha = alpha if alpha else math.sqrt(instance.n)
    return ElementSamplingAlgorithm(alpha=alpha, seed=seed)


def _build_set_arrival(instance, seed, alpha):
    return SetArrivalThresholdGreedy(seed=seed)


def _build_first_fit(instance, seed, alpha):
    return FirstFitAlgorithm(seed=seed)


def _build_store_all(instance, seed, alpha):
    return StoreAllAlgorithm(seed=seed)


#: Public name -> builder.  Names match the historical CLI choices.
ALGORITHM_REGISTRY: Dict[str, AlgorithmBuilder] = {
    "kk": _build_kk,
    "adversarial": _build_adversarial,
    "random-order": _build_random_order,
    "element-sampling": _build_element_sampling,
    "set-arrival": _build_set_arrival,
    "first-fit": _build_first_fit,
    "store-all": _build_store_all,
}


def registered_algorithms() -> List[str]:
    """Registry names in deterministic (sorted) order."""
    return sorted(ALGORITHM_REGISTRY)


def make_algorithm(
    name: str,
    instance: SetCoverInstance,
    seed: SeedLike = 0,
    alpha: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> StreamingSetCoverAlgorithm:
    """Construct a registered algorithm sized for ``instance``.

    ``tracer`` attaches an observability tracer (see :mod:`repro.obs`)
    to the built instance; the default leaves the no-op tracer in place.
    """
    try:
        builder = ALGORITHM_REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_algorithms())
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known algorithms: {known}"
        ) from None
    algorithm = builder(instance, seed, alpha)
    if tracer is not None:
        algorithm.set_tracer(tracer)
    return algorithm
