"""CompiledSpec: the specialized executable form of a specification.

A :class:`CompiledSpec` is a *kernel*, the one seam every engine expands
states through, and an alternative to the reference
:class:`~repro.engine.base.InterpretedKernel`.  Its surface is the
reference kernel's: two functions over *value tuples* (the fixed-slot,
schema-indexed state representation -- no dict lookups, no ``State``
allocation on the hot path):

``expand(values)``
    The fused guard+update successor kernel: one call yields the complete
    expansion of a state as :data:`~repro.engine.base.SuccessorInfo`
    entries -- ``(action, values, fingerprint, violated invariant,
    constraint verdict)`` -- in the reference kernel's order, so every
    engine loop consumes either interchangeably.

``verdict_for(values, fp)``
    The invariant/constraint evaluator, memoized per fingerprint with the
    reference kernel's cap and eviction policy.

Two kernel generators exist: a *native* backend (currently
:mod:`repro.compile.native_locking`) that compiles the spec's transition
relation down to exec-generated straight-line code, and the *generic*
backend in this module, which still calls the spec's action closures but
replaces everything around them -- freeze walks and state fingerprints --
with one interning pass and incremental per-slot fingerprint splicing
(unchanged slots are never re-walked).  The generic backend evaluates
verdicts with the reference kernel's own ``verdict_for``.

Everything at the boundaries -- seeding, counterexample replay, StateGraph
retention, checkpoints and store snapshots -- uses the spec itself, so
those stay bit-identical whichever kernel ran.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..engine.base import InterpretedKernel, SuccessorInfo
from ..tla.errors import EvaluationError
from ..tla.spec import Specification
from ..tla.state import State
from .interner import ValueInterner, state_fingerprint

__all__ = ["CompiledSpec", "build_generic_kernels"]


def build_generic_kernels(
    spec: Specification, interner: ValueInterner
) -> Tuple[Callable, Callable, Dict[str, Any]]:
    """``(expand, verdict_for, info)`` driving the spec's own action closures.

    Works for any specification.  Parity with :class:`~repro.tla.spec.Action`
    is structural: the effect call alone is wrapped in
    :class:`EvaluationError` (generator-body exceptions escape raw, exactly
    as in ``Action.successors``), items are classified State-before-Mapping,
    and unknown update variables raise the schema's own ``SpecError``.
    """
    schema = spec.schema
    index_of = schema.index_of
    actions = spec.actions
    intern = interner.intern
    slot_fingerprints = interner.slot_fingerprints
    # Verdicts come from the reference kernel, memo and all: the compiled
    # and interpreted paths cannot disagree on them.
    reference = InterpretedKernel(spec)
    verdicts = reference.verdicts
    verdict_for = reference.verdict_for

    def expand(values: Tuple[Any, ...]) -> List[SuccessorInfo]:
        state = State.from_values(schema, values)
        slot_fps: Optional[List[int]] = None
        entries: List[SuccessorInfo] = []
        append = entries.append
        for act in actions:
            name = act.name
            try:
                produced = act.effect(state)
            except Exception as exc:  # noqa: BLE001 - mirror Action.successors
                raise EvaluationError(
                    f"action {name!r} raised {type(exc).__name__}: {exc}",
                    action=name,
                ) from exc
            if produced is None:
                continue
            for item in produced:
                tp = type(item)
                if tp is dict or (
                    not isinstance(item, State) and isinstance(item, Mapping)
                ):
                    if slot_fps is None:
                        slot_fps = slot_fingerprints(values)
                    new_values = list(values)
                    new_fps = list(slot_fps)
                    for var, val in item.items():
                        canonical, vfp = intern(val)
                        slot = index_of(var)
                        new_values[slot] = canonical
                        new_fps[slot] = vfp
                    nvals = tuple(new_values)
                    nfp = state_fingerprint(new_fps)
                elif isinstance(item, State):
                    pairs = [intern(val) for val in item.values]
                    nvals = tuple(pair[0] for pair in pairs)
                    nfp = state_fingerprint(pair[1] for pair in pairs)
                else:
                    raise EvaluationError(
                        f"action {name!r} produced {tp.__name__}; "
                        "expected State or mapping of variable updates",
                        action=name,
                    )
                verdict = verdicts.get(nfp)
                if verdict is None:
                    verdict = verdict_for(nvals, nfp)
                append((name, nvals, nfp, verdict[0], verdict[1]))
        return entries

    info = {"native": False, "kernel": "generic"}
    return expand, verdict_for, info


class CompiledSpec:
    """A specification specialized into flat compiled form: a kernel.

    Engines use :attr:`expand` / :attr:`verdict_for` on value tuples, the
    surface of the reference :class:`~repro.engine.base.InterpretedKernel`.
    """

    def __init__(
        self,
        spec: Specification,
        expand: Callable[[Tuple[Any, ...]], List[SuccessorInfo]],
        verdict_for: Callable[[Tuple[Any, ...], int], Tuple[Optional[str], bool]],
        info: Dict[str, Any],
        interner: Optional[ValueInterner] = None,
    ) -> None:
        self.spec = spec
        self.schema = spec.schema
        self.expand = expand
        self.verdict_for = verdict_for
        self.compile_info = dict(info)
        self.interner = interner

    def __repr__(self) -> str:
        kernel = self.compile_info.get("kernel", "?")
        return f"CompiledSpec({self.spec.name!r}, kernel={kernel!r})"

    @property
    def native(self) -> bool:
        """True when the spec compiled to exec-generated native kernels."""
        return bool(self.compile_info.get("native"))
