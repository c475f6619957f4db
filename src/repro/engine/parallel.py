"""The multi-core BFS engine: each depth level sharded across processes.

The same level-synchronous BFS driver as :mod:`repro.engine.fingerprint`
(:func:`~repro.engine.fingerprint.run_levels`), with a different level
expander: each wide depth's frontier is split into contiguous shards, one
per worker; workers expand states through their own per-process kernel,
and the driver merges the per-shard results -- *in frontier order*, so
every statistic, the visited set, and any counterexample it finds coincide
exactly with the serial ``fingerprint`` engine's.  Because a spec is a bundle of closures, workers
rebuild it from its :attr:`~repro.tla.spec.Specification.registry_ref` (see
:mod:`repro.tla.registry`), the way every TLC worker re-parses the ``.tla``
module.

Shards are dispatched through a :class:`~repro.resilience.SupervisedPool`
rather than a bare ``ProcessPoolExecutor``: a crashed, hung or corrupted
worker costs one bounded retry on a fresh worker instead of the whole run,
and any shard that exhausts its retries is expanded *inline* by the
coordinator -- the merge consumes results in shard order either way, so the
bit-identical guarantee holds no matter which attempt (or fallback)
produced each shard.  If the pool degrades entirely (too many consecutive
failures), the remaining levels run serially in the coordinator with a
logged warning rather than dying.  Since the engine is level-synchronous,
it also honors checkpoint/resume through the shared
:meth:`~repro.engine.base.CheckContext.start_frontier` /
:meth:`~repro.engine.base.CheckContext.maybe_checkpoint` seam.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..resilience import SupervisedPool, TaskError
from .base import CheckContext, Engine, InterpretedKernel, SuccessorInfo, register_engine
from .fingerprint import run_levels

__all__ = ["ParallelEngine", "default_worker_count"]


def default_worker_count() -> int:
    """Worker count used when ``workers`` is not given: one per CPU core."""
    return os.cpu_count() or 1


#: Below ``workers * _INLINE_FRONTIER`` states, a BFS level is expanded in the
#: coordinator: pickling a handful of states to the pool costs more than
#: expanding them.  The shallow first levels of every run stay inline, so the
#: pool is only ever started for state spaces wide enough to amortize it.
_INLINE_FRONTIER = 8


# ---------------------------------------------------------------------------
# Worker side.  Each pool process builds its own copy of the spec (by
# registry name) and its own kernel once, in the initializer, and keeps both
# for the whole run.
# ---------------------------------------------------------------------------

_WORKER_KERNEL: Optional[Any] = None


def _parallel_worker_init(
    registry_name: str,
    params: Dict[str, Any],
    provider_modules: List[str],
    compile_on: bool = False,
) -> None:
    global _WORKER_KERNEL
    from ..tla import registry

    # Under the 'spawn' start method a worker starts with a fresh registry;
    # adopting the coordinator's provider list lets it rebuild specs whose
    # factories live outside the default providers.  (Under 'fork' the
    # registrations are inherited and this is a no-op.)
    registry.adopt_providers(provider_modules)
    spec = registry.build_spec(registry_name, **params)
    if compile_on:
        # Each worker specializes its own spec copy, the way it rebuilds the
        # spec itself: compiled kernels are closures and cannot be pickled.
        from ..compile import compile_spec

        _WORKER_KERNEL = compile_spec(spec)
    else:
        _WORKER_KERNEL = InterpretedKernel(spec)


def _parallel_expand_shard(
    shard: List[Tuple[Tuple[Any, ...], int]],
) -> List[Tuple[int, List[SuccessorInfo]]]:
    """Expand one frontier shard: successors + fingerprints + invariant verdicts.

    Input and output are value tuples rather than ``State`` objects to keep
    the pickled payloads minimal; the coordinator rebuilds ``State`` only for
    successors that actually enter the next frontier.
    """
    kernel = _WORKER_KERNEL
    assert kernel is not None
    return [(fp, kernel.expand(values)) for values, fp in shard]


@register_engine
class ParallelEngine(Engine):
    """Level-synchronous BFS with the frontier sharded across processes."""

    name = "parallel"
    supports_graph = False
    needs_registry = True
    supported_stores = ("fingerprint", "lru", "disk")
    supports_checkpoint = True

    def run(self, ctx: CheckContext) -> None:
        assert ctx.spec.registry_ref is not None  # enforced by the coordinator
        registry_name, params = ctx.spec.registry_ref
        workers = ctx.workers or default_worker_count()
        ctx.result.workers = workers
        expand = ctx.kernel.expand
        pool: Optional[SupervisedPool] = None
        pooling = True  # cleared for good once the pool degrades

        def expand_level(frontier: Any) -> Iterator[Tuple[int, List[SuccessorInfo]]]:
            """Expand one BFS level, in frontier order.

            Narrow levels (and every level once the pool has degraded) are
            expanded inline: shipping a handful of states through pickle
            costs more than computing their successors.  A shard whose task
            exhausts its retries is expanded inline too -- expansion is
            deterministic and the driver consumes shards in order, so the
            run's results do not depend on which attempt produced a shard.
            """
            nonlocal pool, pooling
            if pool is not None and pool.degraded:
                # Too many consecutive pool failures: finish serially in
                # the coordinator rather than feeding a dead pool.
                ctx.result.supervision = pool.stats
                pool.shutdown()
                pool = None
                pooling = False
            if not pooling or len(frontier) < workers * _INLINE_FRONTIER:
                for state, fp in frontier:
                    yield fp, expand(state.values)
                return
            if pool is None:
                from ..tla.registry import PROVIDER_MODULES

                pool = SupervisedPool(
                    workers,
                    initializer=_parallel_worker_init,
                    initargs=(
                        registry_name,
                        params,
                        list(PROVIDER_MODULES),
                        ctx.result.compiled,
                    ),
                    config=ctx.supervision,
                    chaos=ctx.chaos,
                    name="parallel",
                )
            shard_size = -(-len(frontier) // workers)  # ceil division
            # Build shards by streaming the frontier rather than slicing it:
            # a spilled frontier (SpillFrontier) is iterable, not indexable.
            pairs = iter(frontier)
            shards = []
            while True:
                shard = [
                    (state.values, fp)
                    for state, fp in itertools.islice(pairs, shard_size)
                ]
                if not shard:
                    break
                shards.append((shard, pool.submit(_parallel_expand_shard, (shard,))))
            for shard, task_index in shards:
                try:
                    yield from pool.result(task_index)
                except TaskError:
                    for values, fp in shard:
                        yield fp, expand(values)

        try:
            run_levels(ctx, expand_level)
        finally:
            if pool is not None:
                ctx.result.supervision = pool.stats
                pool.shutdown()
