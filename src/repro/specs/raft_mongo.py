"""RaftMongo: the MongoDB Server replication-protocol specification.

This module is the Python analogue of the 345-line ``RaftMongo.tla`` the
paper trace-checks in Section 4.  The specification's primary concern, as in
the paper, is how the *commit point* (the newest majority-committed oplog
entry) is gossiped among the nodes of a replica set.  Elections are abstracted
away ("BecomePrimaryByMagic"), there is at most one leader at a time, and
replication is modelled as nodes copying entries from each other (the pull
protocol).

Two variants are provided, mirroring the paper's narrative:

* ``variant="original"`` -- the documentation/model-checking spec as first
  written: the election term is a **single global value** known by every node
  and commit-point learning has no term check.  (Paper Section 4.2.2, "Term":
  "RaftMongo.tla originally modelled the election term as a single global
  number known by all nodes.")
* ``variant="mbtc"`` -- the spec after the three weeks of revisions needed for
  trace-checking: terms are **per node** and gossiped through heartbeats, and
  the commit-point learning actions carry term checks.  This variant has the
  larger state space the paper reports (42,034 states grew to 371,368).

Per-node state is exactly the four variables the paper lists: ``role``,
``term``, ``commitPoint`` and ``oplog``.

Oplog entries are records ``{"term": t, "index": i}``; the commit point is
either :data:`~repro.tla.values.NULL` or such a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tla import (
    NULL,
    Action,
    Invariant,
    Record,
    Specification,
    State,
    TemporalProperty,
    registry,
)

__all__ = [
    "LEADER",
    "FOLLOWER",
    "RaftMongoConfig",
    "build_spec",
    "entry",
    "entry_order_key",
    "initial_state_dict",
    "node_count",
    "per_node_variables",
    "spec_factory",
]

LEADER = "Leader"
FOLLOWER = "Follower"

VARIABLES = ("role", "term", "commitPoint", "oplog")


def entry(term: int, index: int) -> Record:
    """An oplog entry: the pair of election term and oplog index."""
    return Record(term=term, index=index)


def entry_order_key(item: Any) -> Tuple[int, int]:
    """Total order on commit points / oplog entries: (term, index), NULL lowest."""
    if item is NULL or item is None:
        return (-1, -1)
    if type(item) is Record:
        lookup = item._lookup
        return (lookup["term"], lookup["index"])
    return (item["term"], item["index"])


@dataclass(frozen=True)
class RaftMongoConfig:
    """Model-checking configuration: the TLC ``.cfg`` analogue.

    The paper's configuration is 3 nodes, at most 3 election terms and oplogs
    of at most 3 entries (Section 4.1); that is :meth:`paper_scale`.  The
    default here is a smaller configuration suitable for unit tests.
    """

    n_nodes: int = 3
    max_term: int = 2
    max_log_len: int = 2
    variant: str = "mbtc"
    advance_requires_current_term: bool = True

    def __post_init__(self) -> None:
        if self.variant not in ("original", "mbtc"):
            raise ValueError(f"unknown RaftMongo variant {self.variant!r}")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")

    @classmethod
    def paper_scale(cls, variant: str = "mbtc") -> "RaftMongoConfig":
        """The configuration the paper model-checks: 3 nodes, 3 terms, 3 entries."""
        return cls(n_nodes=3, max_term=3, max_log_len=3, variant=variant)

    # Cached: every action and invariant reads these per state.
    @cached_property
    def nodes(self) -> range:
        return range(self.n_nodes)

    @cached_property
    def majority(self) -> int:
        return self.n_nodes // 2 + 1


def initial_state_dict(config: RaftMongoConfig) -> Dict[str, Any]:
    """The single initial state: all followers, term 0, empty oplogs."""
    n = config.n_nodes
    initial_term: Any
    if config.variant == "original":
        initial_term = 0
    else:
        initial_term = tuple(0 for _ in range(n))
    return {
        "role": tuple(FOLLOWER for _ in range(n)),
        "term": initial_term,
        "commitPoint": tuple(NULL for _ in range(n)),
        "oplog": tuple(() for _ in range(n)),
    }


# ---------------------------------------------------------------------------
# Helpers shared by the actions
#
# Actions and invariants read each state slot once, up front, and hand the
# slot values (not the state) to these helpers.  ``term`` is the ``term``
# slot: one global number in the original variant, a per-node tuple in mbtc.
# ---------------------------------------------------------------------------


def _term_of(term: Any, node: int, config: RaftMongoConfig) -> int:
    if config.variant == "original":
        return term
    return term[node]


def _set_term(term: Any, node: int, value: int, config: RaftMongoConfig) -> Any:
    if config.variant == "original":
        return value
    return _replace(term, node, value)


def _max_known_term(term: Any, config: RaftMongoConfig) -> int:
    if config.variant == "original":
        return term
    return max(term)


def _replace(seq: Sequence[Any], index: int, value: Any) -> Tuple[Any, ...]:
    items = list(seq)
    items[index] = value
    return tuple(items)


def _is_prefix(shorter: Sequence[Any], longer: Sequence[Any]) -> bool:
    return len(shorter) <= len(longer) and tuple(longer[: len(shorter)]) == tuple(shorter)


def _last_entry(oplog: Sequence[Any]) -> Any:
    return oplog[-1] if oplog else NULL


def _last_key(oplog: Sequence[Any]) -> Tuple[int, int]:
    """Raft's "up to date" measure of a log: the order key of its last entry."""
    return entry_order_key(oplog[-1]) if oplog else (-1, -1)


def _majority_committed_index(
    oplog: Sequence[Any], leader: int, config: RaftMongoConfig
) -> int:
    """Largest oplog index replicated (as a prefix of the leader's log) by a majority."""
    leader_log = oplog[leader]
    nodes = config.nodes
    majority = config.majority
    best = 0
    for idx in range(1, len(leader_log) + 1):
        prefix = leader_log[:idx]
        holders = sum(1 for node in nodes if _is_prefix(prefix, oplog[node]))
        if holders >= majority:
            best = idx
    return best


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _client_write(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """ClientWrite: a leader executes a write, appending an entry to its oplog."""
    roles, term, oplog = state["role"], state["term"], state["oplog"]
    for node in config.nodes:
        if roles[node] != LEADER:
            continue
        log = oplog[node]
        if len(log) >= config.max_log_len:
            continue
        new_entry = entry(_term_of(term, node, config), len(log) + 1)
        yield {"oplog": _replace(oplog, node, log + (new_entry,))}


def _append_oplog(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """AppendOplog: a node pulls the next missing entry from any other node."""
    oplog = state["oplog"]
    nodes = config.nodes
    for receiver in nodes:
        receiver_log = oplog[receiver]
        for sender in nodes:
            if sender == receiver:
                continue
            sender_log = oplog[sender]
            if len(sender_log) > len(receiver_log) and _is_prefix(receiver_log, sender_log):
                appended = receiver_log + (sender_log[len(receiver_log)],)
                yield {"oplog": _replace(oplog, receiver, appended)}


def _rollback_oplog(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """RollbackOplog: a node with a divergent oplog removes its last entry."""
    oplog = state["oplog"]
    nodes = config.nodes
    for receiver in nodes:
        receiver_log = oplog[receiver]
        if not receiver_log:
            continue
        receiver_key = _last_key(receiver_log)
        for sender in nodes:
            if sender == receiver:
                continue
            sender_log = oplog[sender]
            diverged = not _is_prefix(receiver_log, sender_log)
            if diverged and _last_key(sender_log) > receiver_key:
                yield {"oplog": _replace(oplog, receiver, receiver_log[:-1])}


def _become_primary_by_magic(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """BecomePrimaryByMagic: a node is elected leader instantaneously.

    The election protocol is abstracted away: the winner must merely have an
    oplog at least as up to date as a majority of nodes, and the new term is
    one greater than any term in the system.  All other nodes become
    followers, preserving the spec's at-most-one-leader assumption.
    """
    term = state["term"]
    new_term = _max_known_term(term, config) + 1
    if new_term > config.max_term:
        return
    nodes = config.nodes
    last_keys = [_last_key(log) for log in state["oplog"]]
    for candidate in nodes:
        candidate_key = last_keys[candidate]
        up_to_date_count = sum(1 for node in nodes if candidate_key >= last_keys[node])
        if up_to_date_count < config.majority:
            continue
        roles = tuple(LEADER if node == candidate else FOLLOWER for node in nodes)
        yield {
            "role": roles,
            "term": _set_term(term, candidate, new_term, config),
        }


def _stepdown(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """Stepdown: a leader voluntarily becomes a follower."""
    roles = state["role"]
    for node in config.nodes:
        if roles[node] == LEADER:
            yield {"role": _replace(roles, node, FOLLOWER)}


def _advance_commit_point(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """AdvanceCommitPoint: the leader advances the commit point.

    The commit point becomes the newest entry of the leader's oplog that a
    majority of nodes have replicated; optionally (the real protocol's rule)
    the entry must be from the leader's current term.
    """
    roles, term = state["role"], state["term"]
    commit_points, oplog = state["commitPoint"], state["oplog"]
    for leader in config.nodes:
        if roles[leader] != LEADER:
            continue
        index = _majority_committed_index(oplog, leader, config)
        if index == 0:
            continue
        candidate = oplog[leader][index - 1]
        if (
            config.advance_requires_current_term
            and candidate["term"] != _term_of(term, leader, config)
        ):
            continue
        if entry_order_key(candidate) <= entry_order_key(commit_points[leader]):
            continue
        yield {"commitPoint": _replace(commit_points, leader, candidate)}


def _update_term_through_heartbeat(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """UpdateTermThroughHeartbeat: a node learns a newer election term (mbtc variant)."""
    terms, roles = state["term"], state["role"]
    nodes = config.nodes
    for receiver in nodes:
        for sender in nodes:
            if sender == receiver:
                continue
            sender_term = terms[sender]
            if sender_term > terms[receiver]:
                updates: Dict[str, Any] = {"term": _replace(terms, receiver, sender_term)}
                if roles[receiver] == LEADER:
                    # Learning a newer term forces a leader to step down.
                    updates["role"] = _replace(roles, receiver, FOLLOWER)
                yield updates


def _learn_commit_point(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """LearnCommitPoint (original variant): a node copies any newer commit point."""
    commit_points = state["commitPoint"]
    keys = [entry_order_key(point) for point in commit_points]
    nodes = config.nodes
    for receiver in nodes:
        for sender in nodes:
            if sender == receiver:
                continue
            if keys[sender] > keys[receiver]:
                yield {
                    "commitPoint": _replace(commit_points, receiver, commit_points[sender])
                }


def _learn_commit_point_with_term_check(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """LearnCommitPointWithTermCheck: learn a newer commit point in the same term."""
    term, commit_points = state["term"], state["commitPoint"]
    keys = [entry_order_key(point) for point in commit_points]
    nodes = config.nodes
    for receiver in nodes:
        for sender in nodes:
            if sender == receiver:
                continue
            sender_cp = commit_points[sender]
            if sender_cp is NULL:
                continue
            if keys[sender] <= keys[receiver]:
                continue
            if sender_cp["term"] != _term_of(term, receiver, config):
                continue
            yield {"commitPoint": _replace(commit_points, receiver, sender_cp)}


def _learn_commit_point_from_sync_source(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """LearnCommitPointFromSyncSourceNeverBeyondLastApplied.

    A node learns the commit point from its sync source -- a node whose oplog
    extends the learner's own -- clamped to the newest entry the learner has
    itself applied, with no term check.  Requiring the learner's oplog to be a
    prefix of the sync source's keeps the learned commit point on the
    committed line of history.
    """
    commit_points, oplog = state["commitPoint"], state["oplog"]
    nodes = config.nodes
    for receiver in nodes:
        receiver_log = oplog[receiver]
        last_applied = _last_entry(receiver_log)
        if last_applied is NULL:
            continue
        receiver_key = entry_order_key(commit_points[receiver])
        for sender in nodes:
            if sender == receiver:
                continue
            if not _is_prefix(receiver_log, oplog[sender]):
                continue
            sender_cp = commit_points[sender]
            if sender_cp is NULL:
                continue
            learned = min((sender_cp, last_applied), key=entry_order_key)
            if entry_order_key(learned) <= receiver_key:
                continue
            yield {"commitPoint": _replace(commit_points, receiver, learned)}


# ---------------------------------------------------------------------------
# Invariants and temporal properties
# ---------------------------------------------------------------------------


def _committed_entries_in_majority(state: State, config: RaftMongoConfig) -> bool:
    """Committed writes are not rolled back.

    Every entry at or below some node's commit point must still be present, at
    its original index, in a majority of oplogs.  If a committed entry were
    rolled back anywhere it could drop below majority, violating this.
    """
    commit_points, oplog = state["commitPoint"], state["oplog"]
    nodes = config.nodes
    for node in nodes:
        commit_point = commit_points[node]
        if commit_point is NULL:
            continue
        cp_index = commit_point["index"]
        cp_key = entry_order_key(commit_point)
        # Logs holding the committed entry at its index; each is at least
        # cp_index long, so every index below reads in bounds.
        holding = [
            log
            for log in (oplog[other] for other in nodes)
            if len(log) >= cp_index and entry_order_key(log[cp_index - 1]) == cp_key
        ]
        for index in range(1, cp_index + 1):
            holders = 0
            witness = None
            for log in holding:
                if witness is None:
                    witness = log[index - 1]
                if log[index - 1] == witness:
                    holders += 1
            if holders < config.majority:
                return False
    return True


def _committed_prefixes_consistent(state: State, config: RaftMongoConfig) -> bool:
    """Any two nodes' committed prefixes lie on a single line of history.

    A node may learn a commit point for data it has not replicated yet (it
    will catch up later), so only nodes whose own oplog actually contains the
    committed entry contribute a committed prefix to the comparison.
    """
    commit_points, oplog = state["commitPoint"], state["oplog"]
    prefixes: List[Tuple[Any, ...]] = []
    for node in config.nodes:
        commit_point = commit_points[node]
        if commit_point is NULL:
            continue
        log = oplog[node]
        index = commit_point["index"]
        if len(log) < index or log[index - 1] != commit_point:
            continue
        prefixes.append(tuple(log[:index]))
    for i, first in enumerate(prefixes):
        for second in prefixes[i + 1 :]:
            if not (_is_prefix(first, second) or _is_prefix(second, first)):
                return False
    return True


def _log_matching(state: State, config: RaftMongoConfig) -> bool:
    """If two oplogs contain the same entry, their prefixes up to it are equal."""
    oplog = state["oplog"]
    nodes = config.nodes
    for a in nodes:
        log_a = oplog[a]
        for b in nodes:
            if b <= a:
                continue
            log_b = oplog[b]
            for index in range(min(len(log_a), len(log_b)), 0, -1):
                if log_a[index - 1] == log_b[index - 1]:
                    if log_a[:index] != log_b[:index]:
                        return False
                    break
    return True


def _at_most_one_leader(state: State, config: RaftMongoConfig) -> bool:
    """The spec's simplifying assumption called out in paper Section 4.2.2."""
    roles = state["role"]
    return sum(1 for node in config.nodes if roles[node] == LEADER) <= 1


def _commit_point_propagated(state: State, config: RaftMongoConfig) -> bool:
    """All nodes know the same, newest, commit point."""
    commit_points = state["commitPoint"]
    points = {entry_order_key(commit_points[node]) for node in config.nodes}
    return len(points) == 1


# ---------------------------------------------------------------------------
# Spec assembly
# ---------------------------------------------------------------------------


def build_spec(config: Optional[RaftMongoConfig] = None) -> Specification:
    """Assemble the RaftMongo specification for the given configuration."""
    cfg = config or RaftMongoConfig()

    def bind(effect):
        return lambda state: effect(state, cfg)

    actions: List[Action] = [
        Action("ClientWrite", bind(_client_write)),
        Action("AppendOplog", bind(_append_oplog)),
        Action("RollbackOplog", bind(_rollback_oplog)),
        Action("BecomePrimaryByMagic", bind(_become_primary_by_magic)),
        Action("Stepdown", bind(_stepdown)),
        Action("AdvanceCommitPoint", bind(_advance_commit_point)),
    ]
    if cfg.variant == "original":
        actions.append(Action("LearnCommitPoint", bind(_learn_commit_point)))
    else:
        actions.extend(
            [
                Action("UpdateTermThroughHeartbeat", bind(_update_term_through_heartbeat)),
                Action(
                    "LearnCommitPointWithTermCheck",
                    bind(_learn_commit_point_with_term_check),
                ),
                Action(
                    "LearnCommitPointFromSyncSourceNeverBeyondLastApplied",
                    bind(_learn_commit_point_from_sync_source),
                ),
            ]
        )

    invariants = [
        Invariant("NeverRollBackCommittedWrites", bind(_committed_entries_in_majority)),
        Invariant("CommittedPrefixesConsistent", bind(_committed_prefixes_consistent)),
        Invariant("LogMatching", bind(_log_matching)),
        Invariant("AtMostOneLeader", bind(_at_most_one_leader)),
    ]

    properties = [
        TemporalProperty(
            "CommitPointEventuallyPropagated", bind(_commit_point_propagated), "eventually"
        )
    ]

    def init() -> Iterable[Dict[str, Any]]:
        yield initial_state_dict(cfg)

    name = f"RaftMongo[{cfg.variant}]"
    return Specification(
        name,
        variables=VARIABLES,
        init=init,
        actions=actions,
        invariants=invariants,
        properties=properties,
        constants={
            "n_nodes": cfg.n_nodes,
            "max_term": cfg.max_term,
            "max_log_len": cfg.max_log_len,
            "variant": cfg.variant,
        },
    )


# ---------------------------------------------------------------------------
# Pipeline hooks (see repro.pipeline.registry)
# ---------------------------------------------------------------------------


def spec_factory(**params: Any) -> Specification:
    """Build a RaftMongo spec from flat keyword parameters (CLI entry point)."""
    return build_spec(RaftMongoConfig(**params))


def per_node_variables(spec: Specification) -> Tuple[str, ...]:
    """Variables indexed by node id.

    In the ``original`` variant the election term is a single global value
    (the very modelling gap MBTC exposed, paper Section 4.2.2), so only the
    other three variables are per-node there.
    """
    if spec.constants.get("variant") == "original":
        return ("role", "commitPoint", "oplog")
    return VARIABLES


def node_count(spec: Specification) -> int:
    """How many replica-set members the configuration models."""
    return int(spec.constants["n_nodes"])


registry.register_spec(
    "raftmongo",
    spec_factory,
    description="RaftMongo replication protocol (paper Section 4); "
    "params: n_nodes, max_term, max_log_len, variant=original|mbtc",
    per_node_variables=per_node_variables,
    node_count=node_count,
)
