"""Unit tests for states and variable schemas (repro.tla.state)."""

import pytest

from repro.tla import State, VariableSchema
from repro.tla.errors import SpecError
from repro.tla.values import FingerprintCache


@pytest.fixture()
def schema():
    return VariableSchema(("role", "term"))


class TestVariableSchema:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(SpecError):
            VariableSchema(("x", "x"))
        with pytest.raises(SpecError):
            VariableSchema(())

    def test_membership_and_indexing(self, schema):
        assert "role" in schema and "oplog" not in schema
        assert schema.index_of("term") == 1
        with pytest.raises(SpecError):
            schema.index_of("oplog")


class TestState:
    def test_requires_exactly_the_declared_variables(self, schema):
        with pytest.raises(SpecError):
            State(schema, {"role": "Leader"})
        with pytest.raises(SpecError):
            State(schema, {"role": "Leader", "term": 1, "extra": 0})

    def test_values_are_frozen_on_construction(self, schema):
        state = State(schema, {"role": ["Leader", "Follower"], "term": 1})
        assert state["role"] == ("Leader", "Follower")

    def test_equality_and_hash_by_value(self, schema):
        a = State(schema, {"role": "Leader", "term": 1})
        b = State(schema, {"role": "Leader", "term": 1})
        assert a == b and hash(a) == hash(b)
        assert a != State(schema, {"role": "Leader", "term": 2})

    def test_states_are_immutable(self, schema):
        state = State(schema, {"role": "Leader", "term": 1})
        with pytest.raises(AttributeError):
            state.term = 2

    def test_with_updates_substitutes_only_named_variables(self, schema):
        state = State(schema, {"role": "Leader", "term": 1})
        updated = state.with_updates(term=2)
        assert updated["term"] == 2 and updated["role"] == "Leader"
        assert state["term"] == 1
        assert state.with_updates() is state

    def test_reading_an_undeclared_variable_is_a_spec_error(self, schema):
        state = State(schema, {"role": "Leader", "term": 1})
        with pytest.raises(SpecError, match="unknown variable 'oplog'"):
            state["oplog"]

    def test_mapping_interface(self, schema):
        state = State(schema, {"role": "Leader", "term": 1})
        assert dict(state) == {"role": "Leader", "term": 1}
        assert state.to_dict() == {"role": "Leader", "term": 1}
        assert len(state) == 2

    def test_restrict_and_matches(self, schema):
        state = State(schema, {"role": "Leader", "term": 1})
        assert state.restrict(["role"]) == {"role": "Leader"}
        assert state.matches({"term": 1})
        assert not state.matches({"term": 2})

    def test_fingerprint_is_memoized_and_cache_consistent(self, schema):
        state = State(schema, {"role": ("Leader",), "term": 1})
        twin = State(schema, {"role": ("Leader",), "term": 1})
        first = state.fingerprint()
        assert state.fingerprint() == first  # memoized path
        assert twin.fingerprint(FingerprintCache()) == first
