"""Unit tests for the TLA+ value universe (repro.tla.values)."""

import copy
import pickle
import subprocess
import sys
import types

import pytest

from repro.tla import NULL, Record, append, fingerprint, freeze, last, sub_seq, thaw
from repro.tla.values import FingerprintCache, seq_index


class TestNull:
    def test_null_is_a_singleton(self):
        assert type(NULL)() is NULL

    def test_null_equality_and_hash(self):
        assert NULL == type(NULL)()
        assert hash(NULL) == hash(type(NULL)())
        assert NULL != "NULL" and NULL != 0 and NULL is not None

    def test_pickle_and_deepcopy_return_the_singleton(self):
        # Specs test ``value is NULL``; a copied NULL must still pass it.
        assert pickle.loads(pickle.dumps(NULL)) is NULL
        assert copy.deepcopy(NULL) is NULL
        assert copy.deepcopy((NULL, Record(cp=NULL)))[1]["cp"] is NULL


class TestRecord:
    def test_records_compare_and_hash_by_value(self):
        a = Record(term=1, index=2)
        b = Record(index=2, term=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Record(term=1, index=3)

    def test_record_equals_plain_mapping(self):
        assert Record(x=1) == {"x": 1}
        assert {"x": 1} == Record(x=1)
        assert Record(x=1) != {"x": 2} and {"x": 2} != Record(x=1)
        assert Record(x=1) == types.MappingProxyType({"x": 1})

    def test_record_never_equals_null(self):
        assert Record(x=1) != NULL and NULL != Record(x=1)
        assert not (Record(x=1) == NULL)

    def test_attribute_and_item_access(self):
        rec = Record(term=3, index=7)
        assert rec.term == 3 and rec["index"] == 7
        with pytest.raises(KeyError):
            rec["missing"]
        with pytest.raises(AttributeError):
            rec.missing

    def test_records_are_immutable(self):
        rec = Record(x=1)
        with pytest.raises(AttributeError):
            rec.x = 2

    def test_except_updates_existing_fields_only(self):
        rec = Record(ndx=3, op="set")
        updated = rec.except_(ndx=2)
        assert updated == Record(ndx=2, op="set")
        assert rec.ndx == 3  # original untouched
        with pytest.raises(KeyError):
            rec.except_(unknown=1)


class TestFreezeThaw:
    def test_freeze_canonicalizes_nested_data(self):
        frozen = freeze({"a": [1, {2, 3}], "b": {"c": [4]}})
        assert frozen == Record(a=(1, frozenset({2, 3})), b=Record(c=(4,)))

    def test_thaw_round_trips_to_plain_data(self):
        frozen = freeze({"a": [1, 2], "b": {"c": "x"}})
        assert thaw(frozen) == {"a": [1, 2], "b": {"c": "x"}}

    def test_freeze_converts_lists_nested_in_tuples(self):
        frozen = freeze((1, [2, [3]], Record(x=1)))
        assert frozen == (1, (2, (3,)), Record(x=1))
        assert type(frozen[1]) is tuple and type(frozen[1][1]) is tuple

    def test_freeze_converts_non_dict_mappings(self):
        proxy = types.MappingProxyType({"a": [1], "b": {"c": 2}})
        frozen = freeze(proxy)
        assert type(frozen) is Record
        assert frozen == Record(a=(1,), b=Record(c=2))
        assert freeze(types.MappingProxyType({1: "x"})) == ((1, "x"),)

    def test_freeze_keeps_identity_of_frozen_values(self):
        flat = (1, "a", None, NULL, True, 1.5, b"x", Record(x=1))
        nested = (flat, ((), (Record(y=(2,)),)))
        record = Record(x=(1, 2))
        for value in (flat, nested, record, frozenset({1, (2,)}), ()):
            assert freeze(value) is value

    def test_freeze_rejects_unhashable_leaves(self):
        class Unhashable:
            __hash__ = None

        with pytest.raises(TypeError):
            freeze(Unhashable())


class TestSequences:
    def test_sequence_helpers_use_tla_indexing(self):
        seq = append((1, 2), 3)
        assert seq == (1, 2, 3)
        assert sub_seq(seq, 1, 2) == (1, 2)
        assert seq_index(seq, 1) == 1
        assert last(seq) == 3
        with pytest.raises(ValueError):
            sub_seq(seq, 0, 1)
        with pytest.raises(IndexError):
            seq_index(seq, 4)
        with pytest.raises(IndexError):
            last(())


class TestFingerprint:
    def test_distinguishes_types_and_values(self):
        samples = [1, 1.5, True, "1", NULL, None, (1,), frozenset({1}), Record(x=1)]
        prints = [fingerprint(value) for value in samples]
        assert len(set(prints)) == len(prints)
        for value in samples:
            assert 0 <= fingerprint(value) < 2**96

    def test_equal_primitives_of_different_type_stay_distinct(self):
        # True == 1 == 1.0 in Python; their fingerprints must not alias.
        prints = {fingerprint(True), fingerprint(1), fingerprint(1.0)}
        assert len(prints) == 3
        nested = {fingerprint((True,)), fingerprint((1,)), fingerprint((1.0,))}
        assert len(nested) == 3

    def test_equal_values_share_a_fingerprint(self):
        assert fingerprint({"a": [1, 2]}) == fingerprint(Record(a=(1, 2)))

    def test_stable_across_processes_and_hash_seeds(self):
        value_expr = "{'role': ('Leader', 'Follower'), 'n': 3}"
        expected = fingerprint(
            {"role": ("Leader", "Follower"), "n": 3}
        )
        code = (
            "from repro.tla import fingerprint; "
            f"print(fingerprint({value_expr}))"
        )
        for seed in ("0", "12345"):
            output = subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                capture_output=True,
                text=True,
                check=True,
                cwd=__file__.rsplit("/tests/", 1)[0],
            ).stdout.strip()
            assert int(output) == expected

    def test_cache_matches_uncached_fingerprints(self):
        cache = FingerprintCache()
        values = (("a", "b"), Record(term=1, index=1), frozenset({1, 2}), NULL)
        assert cache.state_values_fingerprint(values) == fingerprint(
            values, frozen=True
        )
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)
        assert len(cache) > 0

    def test_cache_rejects_degenerate_capacity(self):
        # max_entries=1 would make _evict_oldest_half a no-op (1 // 2 == 0
        # entries dropped) and the memo would never shrink below the cap.
        with pytest.raises(ValueError):
            FingerprintCache(max_entries=1)

    def test_eviction_at_minimal_capacity_keeps_fingerprints_correct(self):
        # ISSUE 7 satellite: _evict_oldest_half at the smallest legal capacity
        # must still evict (not loop or no-op) and never corrupt results.
        cache = FingerprintCache(max_entries=2)
        values = [(i, i + 1) for i in range(10)]
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)
            assert len(cache) <= cache.max_entries
        assert cache.evictions >= 1
        # Re-fingerprinting after heavy eviction still agrees with the
        # uncached path, including for values that were evicted.
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)
