"""Order pin for RaftMongo's successor generation and predicate verdicts.

The compiled-vs-interpreted parity suite runs the same spec closures on
both sides, so a change inside a closure that reorders its ``yield``s (or
flips a guard) passes parity while silently changing what the checker
explores first.  These tests pin the closures themselves:

* a BFS over each configuration digests, state by state in BFS order, the
  ordered ``(action, successor fingerprint)`` list -- any reordering,
  dropped or extra successor changes the digest;
* a seeded set of *unreachable* states, spliced together from slots of
  reachable ones, digests every invariant and temporal-property verdict
  and the successor list, so guards and predicates are pinned where they
  actually fail (every reachable state satisfies every invariant).

Neither configuration has a counterexample: the BFS asserts that no
reachable state violates an invariant.  The golden digests were recorded
from the closures before their slot-hoisting fast paths; fingerprints are
CRC-based and stable across processes, so the digests are too.
"""

import hashlib
import random

import pytest

from repro.compile import compile_spec
from repro.tla.registry import build_spec
from repro.tla.state import State

#: (params, distinct, generated, BFS digest, perturbed-state digest).
PINS = [
    (
        {"variant": "original", "max_term": 2},
        3423,
        16084,
        "6379b74a2c67971a038403d9ab10c2c6140f11cd5f8aacc0a0306c7a4bdbf972",
        "6a047b37026952f9d713b553a50c034b3c686bfbd9d8f31bd4bcd79310159b81",
    ),
    (
        {"variant": "mbtc", "n_nodes": 3, "max_term": 2, "max_log_len": 2},
        23790,
        144490,
        "70bb604e910c27167b5554db6d4bb77b0bae787ee7ca9b3b799e8dbc58254819",
        "60b5b971f8b9ce75413f9591678b53609ec182d6c7be81faf29a21887ca5c4da",
    ),
]

PERTURBED_STATES = 400


def _record(successors):
    return ";".join(f"{name}:{nxt.fingerprint():016x}" for name, nxt in successors)


def _bfs(spec):
    """BFS in checker order; returns (reachable states, digest, generated)."""
    (init,) = spec.initial_states()
    seen = {init.fingerprint()}
    order = [init]
    digest = hashlib.sha256()
    generated = 1
    position = 0
    while position < len(order):
        state = order[position]
        position += 1
        assert spec.violated_invariant(state) is None
        successors = spec.successors(state)
        generated += len(successors)
        digest.update(f"{_record(successors)}|".encode())
        for _name, nxt in successors:
            fp = nxt.fingerprint()
            if fp not in seen:
                seen.add(fp)
                order.append(nxt)
    return order, digest.hexdigest(), generated


def _perturbed_states(spec, reachable, count, seed=12):
    """Unreachable states: each slot drawn from a different reachable state."""
    rng = random.Random(seed)
    width = len(spec.schema.names)
    return [
        State.from_values(
            spec.schema,
            tuple(rng.choice(reachable).values[slot] for slot in range(width)),
        )
        for _ in range(count)
    ]


def _verdict_digest(spec, states):
    digest = hashlib.sha256()
    for state in states:
        verdicts = "".join("1" if inv.holds(state) else "0" for inv in spec.invariants)
        props = "".join("1" if prop.predicate(state) else "0" for prop in spec.properties)
        digest.update(f"{verdicts}/{props}/{_record(spec.successors(state))}|".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=PINS, ids=lambda pin: pin[0]["variant"])
def explored(request):
    spec = build_spec("raftmongo", **request.param[0])
    order, digest, generated = _bfs(spec)
    return spec, order, digest, generated, request.param


def test_bfs_successor_order_is_pinned(explored):
    _spec, order, digest, generated, pin = explored
    _params, golden_distinct, golden_generated, golden_digest, _ = pin
    assert len(order) == golden_distinct
    assert generated == golden_generated
    assert digest == golden_digest


def test_predicates_and_guards_pinned_off_the_reachable_set(explored):
    spec, order, _digest, _generated, pin = explored
    states = _perturbed_states(spec, order, PERTURBED_STATES)
    # The splice must actually reach the failing side of the invariants.
    assert any(spec.violated_invariant(state) is not None for state in states)
    assert _verdict_digest(spec, states) == pin[4]


def test_compiled_expansion_keeps_the_pinned_order(explored):
    spec, order, _digest, _generated, pin = explored
    compiled = compile_spec(build_spec("raftmongo", **pin[0]))
    for state in order[:: max(1, len(order) // 300)]:
        assert [
            (name, fp) for name, _values, fp, _violated, _within in compiled.expand(state.values)
        ] == [(name, nxt.fingerprint()) for name, nxt in spec.successors(state)]
