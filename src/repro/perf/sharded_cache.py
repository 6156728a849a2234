"""Former name of the sweep engine's surface store.

Sweeps now read and write the one flat store,
:class:`~repro.perf.surface_cache.SurfaceCache`, through its
``get_or_build_many``.  ``ShardedSurfaceCache`` remains only as an alias
of that class for external tooling that still imports it; new code
imports :class:`~repro.perf.surface_cache.SurfaceCache`.
"""

from repro.perf.surface_cache import SurfaceCache

__all__ = ["ShardedSurfaceCache"]

ShardedSurfaceCache = SurfaceCache
