"""Shared plumbing for the per-experiment analysis modules.

Paper-scale traces are deterministic functions of (use case, seed,
options), and building one costs a few seconds of RSA key generation, so
they are memoized here. The cost-model evaluation itself is cheap, so
sweeps re-price one memoized trace many times.
"""

from functools import lru_cache

from ..core.costs import CostOptions
from ..core.trace import OperationTrace
from ..usecases.catalog import music_player, ringtone
from ..usecases.workload import run_modeled

#: Seed every published experiment uses, for bit-reproducible artifacts.
DEFAULT_SEED = "repro-oma-drm-2005"


@lru_cache(maxsize=32)
def _cached_trace(use_case_name: str, seed: str,
                  count_mgf1: bool) -> OperationTrace:
    factories = {"music": music_player, "ringtone": ringtone}
    use_case = factories[use_case_name]()
    options = CostOptions(count_mgf1=count_mgf1)
    return run_modeled(use_case, seed=seed, options=options).trace


def music_trace(seed: str = DEFAULT_SEED,
                count_mgf1: bool = False) -> OperationTrace:
    """Paper-scale Music Player trace (memoized)."""
    return _cached_trace("music", seed, count_mgf1)


def ringtone_trace(seed: str = DEFAULT_SEED,
                   count_mgf1: bool = False) -> OperationTrace:
    """Paper-scale Ringtone trace (memoized)."""
    return _cached_trace("ringtone", seed, count_mgf1)
