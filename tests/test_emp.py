"""Pattern book-keeping: minimality, enumeration, mirrors, direct modules."""

import pytest

from emprank import (
    Emp,
    direct_modules,
    enumerate_minimal,
    pattern_label,
)
from emprank.emp import mirror_pattern
from conftest import is_minimal


def make(excited, measured, sigma2=1.0, lam=1.0):
    return Emp.uniform(frozenset(excited), frozenset(measured), sigma2, lam)


class TestEmpValidation:
    def test_variance_keys_must_match_sets(self):
        with pytest.raises(ValueError):
            Emp(frozenset({1}), frozenset({2}), {1: 1.0, 2: 1.0}, {2: 1.0})

    def test_positive_excitation_variance(self):
        with pytest.raises(ValueError):
            Emp(frozenset({1}), frozenset({2}), {1: 0.0}, {2: 1.0})

    def test_zero_noise_allowed(self):
        # noiseless sensors are meaningful in simulation
        emp = Emp(frozenset({1}), frozenset({2}), {1: 1.0}, {2: 0.0})
        assert emp.lam[2] == 0.0

    def test_nodes_start_at_one(self):
        with pytest.raises(ValueError):
            make({0}, {1})

    def test_label(self):
        emp = make({1, 2}, {3, 4})
        assert emp.label == "B=1,2;C=3,4"
        assert pattern_label(emp.pattern) == "B=1,2;C=3,4"


class TestMinimality:
    def test_canonical_examples(self):
        assert is_minimal(make({1}, {2, 3}), 3)
        assert is_minimal(make({1, 2}, {3}), 3)
        assert is_minimal(make({1, 3}, {2, 4}), 4)

    def test_source_must_be_excited(self):
        assert not is_minimal(make({2}, {1, 3}), 3)

    def test_sink_must_be_measured(self):
        assert not is_minimal(make({1, 3}, {2}), 3)

    def test_full_coverage_required(self):
        assert not is_minimal(make({1}, {4}), 4)

    def test_no_overlap_beyond_minimal_count(self):
        assert not is_minimal(make({1, 2}, {2, 3}), 3)

    def test_b_equal_c_excluded(self):
        assert not is_minimal(make({1, 2}, {1, 2}), 2)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 2), (4, 4), (5, 8), (6, 16), (7, 32), (8, 64)])
    def test_counts(self, n, count):
        pats = enumerate_minimal(n)
        assert len(pats) == count
        assert len(set(pats)) == count
        for b, c in pats:
            assert is_minimal(Emp.uniform(b, c), n)

    def test_three_node_order(self):
        assert enumerate_minimal(3) == [
            (frozenset({1}), frozenset({2, 3})),
            (frozenset({1, 2}), frozenset({3})),
        ]

    def test_four_node_set(self):
        got = set(enumerate_minimal(4))
        want = {
            (frozenset({1}), frozenset({2, 3, 4})),
            (frozenset({1, 2, 3}), frozenset({4})),
            (frozenset({1, 2}), frozenset({3, 4})),
            (frozenset({1, 3}), frozenset({2, 4})),
        }
        assert got == want

    def test_counter_order_node2_least_significant(self):
        # index 1 flips node 2 to excited, index 2 flips node 3
        pats = enumerate_minimal(4)
        assert pats[0] == (frozenset({1}), frozenset({2, 3, 4}))
        assert pats[1] == (frozenset({1, 2}), frozenset({3, 4}))
        assert pats[2] == (frozenset({1, 3}), frozenset({2, 4}))
        assert pats[3] == (frozenset({1, 2, 3}), frozenset({4}))

    def test_two_nodes(self):
        assert enumerate_minimal(2) == [(frozenset({1}), frozenset({2}))]

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            enumerate_minimal(1)


class TestMirror:
    def test_four_node_end_patterns_swap(self):
        assert mirror_pattern(({1}, {2, 3, 4}), 4) == (frozenset({1, 2, 3}), frozenset({4}))

    def test_balanced_is_self_mirrored(self):
        pattern = (frozenset({1, 2}), frozenset({3, 4}))
        assert mirror_pattern(pattern, 4) == pattern

    @pytest.mark.parametrize("n", range(3, 9))
    def test_involution(self, n):
        for pattern in enumerate_minimal(n):
            assert mirror_pattern(mirror_pattern(pattern, n), n) == pattern

    def test_odd_networks_have_no_fixed_points(self):
        for pattern in enumerate_minimal(5):
            assert mirror_pattern(pattern, 5) != pattern


class TestDirectModules:
    def test_examples(self):
        assert direct_modules(({1}, {2, 3, 4})) == {1}
        assert direct_modules(({1, 2}, {3, 4})) == {2}
        assert direct_modules(({1, 3}, {2, 4})) == {1, 3}
        assert direct_modules(({1, 2, 3}, {4})) == {3}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_every_minimal_pattern_has_one(self, n):
        for pattern in enumerate_minimal(n):
            assert direct_modules(pattern)
