"""Incremental planning cache.

:mod:`repro.exec.cache` -- :class:`PlanCache` memoizes per-core test
plans under a dependency footprint of the ``(core, version)`` pairs
each plan consulted, keyed by a stable SOC fingerprint.  Cached and
uncached plans are bit-identical; ``REPRO_PLAN_CACHE=0`` turns the
cache off.
"""

from repro.exec.cache import (
    CACHE_ENV,
    PlanCache,
    cache_enabled,
    invalidate_plan_cache,
    plan_cache_for,
    soc_fingerprint,
    soc_signature,
)

__all__ = [
    "CACHE_ENV",
    "PlanCache",
    "cache_enabled",
    "invalidate_plan_cache",
    "plan_cache_for",
    "soc_fingerprint",
    "soc_signature",
]
