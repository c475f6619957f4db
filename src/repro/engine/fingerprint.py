"""The serial fingerprint-interned BFS engine (the default).

The visited set holds only stable 64-bit state fingerprints (as TLC's own
fingerprint set does), plus a fingerprint-keyed parent map used to rebuild
counterexample behaviours by forward replay.  Full ``State`` objects live
only on the current and next BFS frontier, so peak memory is bounded by the
widest level rather than the whole reachable space.

The visited set itself is pluggable: the default ``fingerprint`` store is an
exact in-memory set, the bounded ``lru`` store caps memory at a fixed
capacity (accepting possible re-expansion of evicted states), and the exact
``disk`` store pushes the set into a SQLite file behind a write-back cache
(see :mod:`repro.engine.store` and :mod:`repro.engine.diskstore`).  Frontier
levels, the other per-scale memory consumer, can spill to compressed disk
chunks past a threshold (:mod:`repro.engine.frontier`) -- together that
keeps peak RSS flat into the millions of distinct states.

The BFS loop itself is :func:`run_levels`, shared with the parallel engine:
the two engines differ only in how a level is expanded.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from ..obs import COUNT_BUCKETS, current as obs_current, span
from ..tla.state import State
from .base import CheckContext, Engine, SuccessorInfo, register_engine

__all__ = ["FingerprintEngine", "run_levels"]

#: A level expander: maps one BFS level (an iterable of ``(state, fp)``
#: pairs) to ``(fp, expansion)`` pairs *in frontier order*.
LevelExpander = Callable[
    [Iterable[Tuple[State, int]]], Iterable[Tuple[int, List[SuccessorInfo]]]
]


def run_levels(ctx: CheckContext, expand_level: LevelExpander) -> None:
    """The level-synchronous fingerprint BFS driver.

    One loop serves both fingerprint engines: ``fingerprint`` expands each
    level inline through the context's kernel, ``parallel`` shards wide
    levels across a worker pool.  Either way the driver merges the
    expansions in frontier order, so statistics, the visited set and any
    counterexample are the same whichever expander (or kernel) ran.
    Real ``State`` objects are rebuilt only for successors that enter the
    next frontier, where checkpoints and spill files consume them.
    """
    result, store = ctx.result, ctx.store
    schema = ctx.spec.schema
    frontier, stop, depth, action_counts = ctx.start_frontier()
    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None

    # Breadth-first exploration, one depth level per batch ------------------
    while frontier and not stop:
        if ctx.max_depth is not None and depth >= ctx.max_depth:
            result.truncated = True
            break
        level_size = len(frontier)
        level_span = span("engine.level", emit=False)
        level_span.__enter__()
        expansions = expand_level(frontier)
        next_frontier = ctx.new_frontier()
        for fp, entries in expansions:
            if ticker is not None and ticker.due():
                ticker.emit(
                    depth=depth,
                    frontier=level_size,
                    distinct=store.distinct_count,
                    generated=result.generated_states,
                )
            if ctx.max_states is not None and store.distinct_count >= ctx.max_states:
                result.truncated = True
                stop = True
                break
            if not entries and ctx.check_deadlock:
                result.deadlock = ctx.deadlock_at(fp)
                if ctx.stop_on_violation:
                    stop = True
                    break
            for action_name, nvalues, nfp, violated_name, within in entries:
                result.generated_states += 1
                action_counts[action_name] += 1
                if not store.add(nfp):
                    continue
                # setdefault, not assignment: a bounded store can hand an
                # *evicted* fingerprint back as "new" while a descendant
                # chain already runs through it; overwriting its parent
                # would put a cycle in the replay chain.  The
                # first-discovery entry is always acyclic (parents are
                # recorded before their children and never pruned), and
                # with an exact store add() returns True exactly once, so
                # this is the plain assignment it always was.
                ctx.parents.setdefault(nfp, (fp, action_name))
                result.max_depth = max(result.max_depth, depth + 1)
                if violated_name is not None:
                    result.invariant_violation = ctx.fp_violation(nfp, violated_name)
                    if ctx.stop_on_violation:
                        stop = True
                        break
                if within:
                    next_frontier.append((State.from_values(schema, nvalues), nfp))
            if stop:
                break
        if hasattr(frontier, "close"):
            frontier.close()  # drop the consumed level's spill file early
        frontier = next_frontier
        ctx.note_frontier(frontier)
        result.peak_frontier = max(result.peak_frontier, len(frontier))
        depth += 1
        level_span.__exit__(None, None, None)
        if obs_run is not None:
            reg = obs_run.registry
            reg.inc("engine.levels")
            reg.observe("engine.level_states", level_size, edges=COUNT_BUCKETS)
            reg.set_gauge("engine.frontier_depth", depth)
        if not stop:
            ctx.maybe_checkpoint(depth, frontier, action_counts)

    result.distinct_states = store.distinct_count
    result.action_counts = action_counts


@register_engine
class FingerprintEngine(Engine):
    """Level-batched BFS over interned 64-bit state fingerprints."""

    name = "fingerprint"
    supports_graph = False
    needs_registry = False
    supported_stores = ("fingerprint", "lru", "disk")
    supports_checkpoint = True

    def run(self, ctx: CheckContext) -> None:
        expand = ctx.kernel.expand
        run_levels(
            ctx, lambda frontier: ((fp, expand(state.values)) for state, fp in frontier)
        )
