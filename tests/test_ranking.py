"""Ranking, SNR decision rules, mirror symmetry, closed-form block checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from emprank import (
    CascadeNetwork,
    Emp,
    NonInformativeError,
    ParamModule,
    UnstableFilterError,
    VarianceProfile,
    covariance_block_identities,
    criterion,
    enumerate_minimal,
    information_matrix,
    mirror_permutation,
    module_accuracy_report,
    rank_emps,
    snr_rule_3node,
    snr_rule_4node,
    verify_mirror,
)
from emprank import ranking
from emprank.emp import mirror_pattern
from emprank.fisher import CRITERIA, RCOND_THRESHOLD, information_batch
from emprank.lti import FIRST_ORDER
from emprank.montecarlo import MODULE_FAMILIES
from emprank.ranking import TIE_REL, RankEntry, _break_ties
from conftest import drawn_chain, drawn_chains, identical_network, random_first_order, random_network

END_EXCITED = (frozenset({1}), frozenset({2, 3, 4}))
END_MEASURED = (frozenset({1, 2, 3}), frozenset({4}))
# one drawn first-order module repeated along a 4-node chain
FIRST_ORDER_CHAIN = identical_network(np.random.default_rng(20260815), 4)
BALANCED = (frozenset({1, 2}), frozenset({3, 4}))
ALTERNATING = (frozenset({1, 3}), frozenset({2, 4}))


def trace_of(net, pattern, profile):
    res = information_matrix(net, profile.emp_for(pattern))
    return criterion(res, "trace")


def accuracy(rcond):
    """Relative accuracy of a pattern's trace(P), and absolute accuracy of its
    logdet(P): rounding in M grows by up to the condition number, about
    1/rcond (the benchmark's oracle bound)."""
    return 1e-9 + 1e-13 / rcond


first_order_modules = st.builds(
    lambda a, b: ParamModule("first_order", (a, b)),
    st.floats(-0.9, 0.9).filter(lambda a: abs(a) > 0.05),
    st.floats(0.5, 2.0),
)
variances = st.floats(1e-3, 1e3)


@st.composite
def identical_chains(draw, nodes=st.integers(3, 6)):
    """A chain of one repeated module whose pair Grams exist: a drawn
    first-order module, or a second-order or FIR-Butterworth module of the
    Monte Carlo sampling law."""
    n, family = draw(nodes), draw(st.sampled_from(MODULE_FAMILIES))
    if family == FIRST_ORDER:
        return CascadeNetwork([draw(first_order_modules)] * (n - 1))
    net, _ = drawn_chain(n, family, "equal", draw(st.integers(0, 10_000)), identical=True)
    try:
        net.pair_grams
    except UnstableFilterError:
        reject()
    return net


def ranked(net, profile, kind="trace"):
    """``rank_emps``, with the draws that leave no pattern informative rejected."""
    try:
        return rank_emps(net, profile, kind)
    except NonInformativeError:
        reject()


def assert_twins_tie(ranking, pattern, twin, kind="trace"):
    """Mirror twins on an identical chain with uniform variances have the same
    P: their values agree to their accuracy (relative for trace, absolute for
    logdet), and one of them is set aside without the other only at the rcond
    cut."""
    by_pattern = {e.pattern: e for e in ranking.entries}
    a, b = by_pattern.get(pattern), by_pattern.get(twin)
    if a is None or b is None:
        assert all(e.info.rcond < 1e3 * RCOND_THRESHOLD for e in (a, b) if e is not None)
    else:
        tol = accuracy(a.info.rcond)
        assert b.value == pytest.approx(a.value, rel=tol, abs=tol if kind == "logdet" else 0)


class TestRankEmps:
    def test_identical_equal_balanced_wins(self, rng):
        net = identical_network(rng, 4)
        ranking = rank_emps(net, VarianceProfile(1.0, 1.0))
        assert ranking.best.pattern == BALANCED
        vals = [e.value for e in ranking.entries]
        # ascending up to the tie tolerance used for canonical reordering
        assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))

    @settings(max_examples=25, deadline=None)
    @given(identical_chains(st.just(4)), variances, variances, st.sampled_from(CRITERIA))
    @example(FIRST_ORDER_CHAIN, 1.0, 1.0, "trace")
    @example(FIRST_ORDER_CHAIN, 1.0, 1.0, "logdet")
    def test_end_patterns_tie_and_canonical_tiebreak(self, net, sigma2, lam, kind):
        """The end patterns tie; where their values agree to TIE_REL (in both
        examples, whose values agree to rounding) they keep enumeration order."""
        ranking = ranked(net, VarianceProfile(sigma2, lam), kind)
        assert_twins_tie(ranking, END_EXCITED, END_MEASURED, kind)
        pos = {e.pattern: k for k, e in enumerate(ranking.entries)}
        if END_EXCITED in pos and END_MEASURED in pos:
            a, b = (ranking.entries[pos[p]].value for p in (END_EXCITED, END_MEASURED))
            if abs(a - b) <= 0.5 * TIE_REL * abs(a):
                event("end patterns tie to TIE_REL")
                assert pos[END_EXCITED] < pos[END_MEASURED]

    def test_negative_near_tie_keeps_enumeration_order(self):
        # logdet(P) < 0 here, and the mirrored end patterns 0 and 3 tie up to
        # rounding, with pattern 3 the smaller by a few ulps
        net = CascadeNetwork([ParamModule("first_order", (0.5, 1.0))] * 3)
        ranking = rank_emps(net, VarianceProfile(1.0, 0.01), kind="logdet")
        order = [e.canonical_index for e in ranking.entries]
        by_index = {e.canonical_index: e.value for e in ranking.entries}
        assert by_index[0] < 0
        assert by_index[3] == pytest.approx(by_index[0], rel=1e-12)
        assert order.index(0) < order.index(3)

    def test_three_node_tie_keeps_enumeration_order(self, rng):
        net = identical_network(rng, 3)
        ranking = rank_emps(net, VarianceProfile(2.0, 2.0))
        assert [e.pattern for e in ranking.entries] == [
            (frozenset({1}), frozenset({2, 3})),
            (frozenset({1, 2}), frozenset({3})),
        ]
        assert ranking.runner_up_ratio() == pytest.approx(1.0, rel=1e-12)

    def test_variance_rescaling_scales_traces(self, rng):
        net = random_network(rng, 4)
        base = rank_emps(net, VarianceProfile(1.0, 1.0))
        scaled = rank_emps(net, VarianceProfile(4.0, 0.5))
        bv = {e.pattern: e.value for e in base.entries}
        sv = {e.pattern: e.value for e in scaled.entries}
        for pat, v in bv.items():
            # information scales with sigma2/lam, covariance the other way
            assert sv[pat] == pytest.approx(v * 0.5 / 4.0, rel=1e-10)
        assert [e.pattern for e in base.entries] == [
            e.pattern for e in scaled.entries
        ]

    def test_logdet_ranking(self, rng):
        net = random_network(rng, 4)
        ranking = rank_emps(net, VarianceProfile(), kind="logdet")
        assert ranking.kind == "logdet"
        vals = [e.value for e in ranking.entries]
        assert vals == sorted(vals)
        for e in ranking.entries:
            sign, logdet = np.linalg.slogdet(e.info.P)
            assert sign > 0
            assert e.value == pytest.approx(logdet, rel=1e-9)

    def test_worst_ratio_at_least_runner_up(self, rng):
        net = random_network(rng, 5)
        ranking = rank_emps(net, VarianceProfile(1.0, 0.01))
        assert ranking.worst_ratio() >= ranking.runner_up_ratio() >= 1.0

    def test_dead_pattern_set_aside(self):
        net = CascadeNetwork([ParamModule("fir", (0.0,)), ParamModule("fir", (0.9,))])
        ranking = rank_emps(net, VarianceProfile())
        assert len(ranking.entries) == 1
        assert ranking.best.pattern == (frozenset({1, 2}), frozenset({3}))
        assert len(ranking.non_informative) == 1
        assert ranking.non_informative[0][0] == (
            frozenset({1}),
            frozenset({2, 3}),
        )

    def test_all_dead_raises(self):
        # zero gain makes the pole derivative filter vanish, so the single
        # 2-node pattern is singular
        net = CascadeNetwork([ParamModule("first_order", (0.3, 0.0))])
        with pytest.raises(NonInformativeError):
            rank_emps(net, VarianceProfile())

    @pytest.mark.parametrize(
        "modules",
        [
            [ParamModule("first_order", (0.5, 0.0)), ParamModule("first_order", (0.3, 0.0))],  # every pattern dead
            [ParamModule("first_order", (0.5, 1.0)), ParamModule("first_order", (0.3, 2.0))],
        ],
    )
    def test_unknown_criterion_rejected_before_evaluation(self, modules, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the batch was evaluated")

        monkeypatch.setattr(ranking, "information_batch", unreachable)
        with pytest.raises(ValueError, match="criterion must be 'trace' or 'logdet', got 'bogus'"):
            rank_emps(CascadeNetwork(modules), VarianceProfile(), "bogus")

    def test_entries_carry_their_enumerated_pattern(self, rng):
        net = CascadeNetwork([ParamModule("fir", (0.0,))] + [random_first_order(rng) for _ in range(3)])
        result = rank_emps(net, VarianceProfile(1.0, 0.01))
        patterns = enumerate_minimal(net.n)
        assert result.non_informative  # a zero first module leaves some patterns dead
        for e in result.entries:
            assert e.pattern == patterns[e.canonical_index]
        for pattern, idx, _ in result.non_informative:
            assert pattern == patterns[idx]
        assert len(result.entries) + len(result.non_informative) == len(patterns)


class TestBreakTies:
    """The near-tie rule on synthetic values already sorted by (value, index)."""

    @staticmethod
    def order(pairs):
        return [e.canonical_index for e in _break_ties([RankEntry(None, i, v, None) for v, i in pairs])]

    def test_groups_do_not_chain(self):
        # b is within TIE_REL of a, c within it of b but not of a, so c
        # starts the next group, which d joins
        a = 1.0
        b = a * (1 + 0.6 * TIE_REL)
        c = b * (1 + 0.6 * TIE_REL)
        d = c * (1 + 0.5 * TIE_REL)
        assert c > a * (1 + TIE_REL)
        assert self.order([(a, 5), (b, 2), (c, 1), (d, 0)]) == [2, 5, 0, 1]

    def test_group_reordered_by_index(self):
        # the group takes values up to its head's bound, that bound included
        h = 3.0
        values = [h, h * (1 + 0.5 * TIE_REL), h * (1 + TIE_REL), 4.0]
        assert self.order(zip(values, [3, 1, 2, 0])) == [1, 2, 3, 0]

    def test_negative_values(self):
        # a negative head h takes values up to h * (1 - TIE_REL), which lies above h
        h = -2.0
        values = [h, h * (1 - 0.5 * TIE_REL), h * (1 - 2 * TIE_REL), -1.0]
        assert self.order(zip(values, [7, 4, 1, 0])) == [4, 7, 1, 0]

    def test_singletons_keep_their_order(self):
        assert self.order([(1.0, 2), (2.0, 0), (3.0, 1)]) == [2, 0, 1]
        assert self.order([]) == []


class TestBatchedEvaluation:
    """rank_emps evaluates all patterns in one batch; information_matrix
    evaluates one.  Both must give the same answers."""

    @pytest.mark.parametrize(
        "net, profile",
        [
            (random_network(np.random.default_rng(1), 6), VarianceProfile(1.0, 0.01)),
            (
                random_network(np.random.default_rng(2), 5, family="second_order"),
                VarianceProfile({i: 0.5 * i for i in range(1, 6)}, {j: 2.0 / j for j in range(1, 6)}),
            ),
            (random_network(np.random.default_rng(3), 4, family="fir"), VarianceProfile(2.0, 0.1)),
            (
                CascadeNetwork([ParamModule("fir", (1.0,)), ParamModule("fir", (0.0,)), ParamModule("fir", (0.7,))]),
                VarianceProfile(),
            ),
        ],
    )
    def test_matches_per_pattern_evaluation(self, net, profile):
        ranking = rank_emps(net, profile)
        single = [information_matrix(net, profile.emp_for(p)) for p in enumerate_minimal(net.n)]
        assert ranking.non_informative == [
            (p, i, res.rcond)
            for i, (p, res) in enumerate(zip(enumerate_minimal(net.n), single))
            if not res.informative
        ]
        informative = [i for i, res in enumerate(single) if res.informative]
        trace = {i: single[i].criteria["trace"] for i in informative}
        assert [e.canonical_index for e in ranking.entries] == sorted(
            informative, key=lambda i: (trace[i], i)
        )
        for e in ranking.entries:
            one = single[e.canonical_index]
            assert e.pattern == enumerate_minimal(net.n)[e.canonical_index]
            np.testing.assert_array_equal(e.info.M, one.M)
            assert e.info.rcond == one.rcond
            assert e.info.criteria == one.criteria
            assert e.value == trace[e.canonical_index]
            assert e.info.traces == one.traces


class TestVarianceProfile:
    @pytest.mark.parametrize(
        "sigma2, lam",
        [
            (0.0, 1.0),
            ({1: 1.0, 2: -2.0}, 1.0),
            (np.inf, 1.0),
            (1.0, -0.1),
            (1.0, {2: 1.0, 3: np.nan}),
        ],
        ids=["zero-sigma2", "negative-sigma2-at-node", "infinite-sigma2", "negative-lam", "nan-lam-at-node"],
    )
    def test_rejects_bad_variances_at_construction(self, sigma2, lam):
        with pytest.raises(ValueError, match="variances must be"):
            VarianceProfile(sigma2, lam)

    def test_zero_noise_allowed(self):
        assert VarianceProfile(1.0, 0.0).lam_at(2) == 0.0


class TestBatchedProperties:
    @settings(max_examples=25, deadline=None)
    @given(identical_chains(), variances, variances)
    def test_mirrored_patterns_tie(self, net, sigma2, lam):
        ranking = ranked(net, VarianceProfile(sigma2, lam))
        for pattern in enumerate_minimal(net.n):
            assert_twins_tie(ranking, pattern, mirror_pattern(pattern, net.n))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(first_order_modules, min_size=2, max_size=5),
        variances,
        variances,
        st.floats(1e-3, 1e3),
    )
    def test_uniform_variance_scaling_keeps_order(self, modules, sigma2, lam, factor):
        net = CascadeNetwork(modules)
        base = rank_emps(net, VarianceProfile(sigma2, lam))
        scaled = rank_emps(net, VarianceProfile(sigma2 * factor, lam))
        position = {e.canonical_index: k for k, e in enumerate(scaled.entries)}
        assert sorted(position) == sorted(e.canonical_index for e in base.entries)
        for k, a in enumerate(base.entries):
            got = scaled.entries[position[a.canonical_index]]
            assert got.value == pytest.approx(a.value / factor, rel=accuracy(a.info.rcond))
            # patterns whose traces differ by more than their accuracy keep their order
            for b in base.entries[k + 1:]:
                if b.value > a.value * (1 + accuracy(a.info.rcond) + accuracy(b.info.rcond)):
                    assert position[a.canonical_index] < position[b.canonical_index]


class TestVarianceProperties:
    @settings(max_examples=25, deadline=None)
    @given(drawn_chains(), st.integers(-8, 8), st.sampled_from(["sigma2", "lam"]))
    def test_power_of_four_scaling_is_exact(self, chain, k, role):
        # 4^k scales every weight sigma2_i / lambda_j, and so M, exactly: the
        # Jacobi-scaled S stays bitwise the same and P scales by 4^-k
        net, profile = chain
        v = getattr(profile, role)
        v = {i: x * 4.0**k for i, x in v.items()} if isinstance(v, dict) else v * 4.0**k
        scaled = dataclasses.replace(profile, **{role: v})
        factor = 4.0 ** (-k if role == "sigma2" else k)
        base = information_batch(net, *profile.minimal_variances(net.n))
        for a, b in zip(base, information_batch(net, *scaled.minimal_variances(net.n))):
            assert (b.informative, b.rcond) == (a.informative, a.rcond)
            assert not a.informative or b.criteria["trace"] == a.criteria["trace"] * factor
        if any(a.informative for a in base):  # else rank_emps raises
            ranked = [rank_emps(net, p).entries for p in (profile, scaled)]
            assert [e.pattern for e in ranked[1]] == [e.pattern for e in ranked[0]]

    @settings(max_examples=25, deadline=None)
    @given(drawn_chains(), st.integers(1, 4), st.floats(1.0, 1e3))
    def test_more_excitation_never_raises_a_trace(self, chain, node, factor):
        # M grows by a positive semidefinite term, so P can only shrink; the
        # rounding of either trace is bounded by about 1e-13/rcond
        net, profile = chain
        sigma2 = {i: profile.sigma2_at(i) for i in range(1, net.n)}
        sigma2[min(node, net.n - 1)] *= factor
        before = information_batch(net, *profile.minimal_variances(net.n))
        after = information_batch(net, *VarianceProfile(sigma2, profile.lam).minimal_variances(net.n))
        for a, b in zip(before, after):
            if a.informative and b.informative:
                assert b.criteria["trace"] <= a.criteria["trace"] * (1 + 1e-13 / min(a.rcond, b.rcond))


class TestThreeNodeRule:
    UPSTREAM = (frozenset({1}), frozenset({2, 3}))
    DOWNSTREAM = (frozenset({1, 2}), frozenset({3}))

    def traces(self, net, sigma2, lam):
        """trace(P) of the upstream and downstream pattern and their accuracy;
        draws that leave either pattern non-informative are rejected."""
        profile = VarianceProfile(sigma2, lam)
        res = [information_matrix(net, profile.emp_for(p)) for p in (self.UPSTREAM, self.DOWNSTREAM)]
        if not all(r.informative for r in res):
            reject()
        return res[0].criteria["trace"], res[1].criteria["trace"], accuracy(min(r.rcond for r in res))

    @settings(max_examples=25, deadline=None)
    @given(identical_chains(st.just(3)), st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4))
    def test_matches_computed_traces(self, net, v):
        s1, s2, l2, l3 = v
        tu, td, tol = self.traces(net, {1: s1, 2: s2}, {2: l2, 3: l3})
        snr21, snr32 = s1 / l2, s2 / l3
        winner = snr_rule_3node(snr21, snr32)
        if winner is None:
            assert tu == pytest.approx(td, rel=tol)
            return
        smaller, larger = (td, tu) if winner == self.DOWNSTREAM else (tu, td)
        if abs(snr21 - snr32) <= 4 * np.spacing(max(snr21, snr32)):  # SNRs apart by rounding: traces tie to it
            assert smaller < larger * (1 + tol)
        else:  # the named pattern has the smaller trace
            assert smaller < larger

    @settings(max_examples=25, deadline=None)
    @given(identical_chains(st.just(3)), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.integers(-8, 8))
    def test_equal_snr_is_exact_tie(self, net, s1, l2, k):
        # scaling sigma2 and lambda by the same power of two keeps s2 / l3 == s1 / l2 exactly
        s2, l3 = s1 * 2.0**k, l2 * 2.0**k
        assert snr_rule_3node(s1 / l2, s2 / l3) is None
        tu, td, tol = self.traces(net, {1: s1, 2: s2}, {2: l2, 3: l3})
        assert tu == pytest.approx(td, rel=tol)


class TestFourNodeRule:
    def test_sound_on_random_profiles(self, rng):
        """Whenever a pairwise rule reports "holds", the trace ordering agrees."""
        checked = 0
        for _ in range(150):
            net = identical_network(rng, 4)
            sigma2 = {i: rng.uniform(0.05, 20.0) for i in range(1, 5)}
            lam = {j: rng.uniform(0.05, 20.0) for j in range(1, 5)}
            profile = VarianceProfile(sigma2, lam)
            traces = {
                pat: trace_of(net, pat, profile)
                for pat in (END_EXCITED, END_MEASURED, BALANCED)
            }
            for pref in snr_rule_4node(sigma2, lam):
                if pref.status == "holds":
                    checked += 1
                    assert traces[pref.better] < traces[pref.worse], pref.label
        assert checked > 100

    def test_all_three_hold(self):
        sigma2 = {1: 1.0, 2: 8.0, 3: 4.0, 4: 1.0}
        lam = {j: 1.0 for j in range(1, 5)}
        prefs = snr_rule_4node(sigma2, lam)
        assert [p.status for p in prefs] == ["holds"] * 3
        assert {p.better for p in prefs} == {END_MEASURED, BALANCED}

    def test_uniform_profile_inconclusive(self):
        ones = {j: 1.0 for j in range(1, 5)}
        assert all(p.status == "inconclusive" for p in snr_rule_4node(ones, ones))

    def test_reversed_margins_do_not_hold(self):
        sigma2 = {1: 10.0, 2: 0.1, 3: 0.2, 4: 1.0}
        lam = {j: 1.0 for j in range(1, 5)}
        assert all(p.status == "does not hold" for p in snr_rule_4node(sigma2, lam))


class TestMirrorPermutation:
    def test_mixed_block_sizes(self):
        np.testing.assert_array_equal(
            mirror_permutation([1, 2, 3]), [3, 4, 5, 1, 2, 0]
        )

    def test_involution(self, rng):
        dims = [2, 2, 2, 2]
        perm = mirror_permutation(dims)
        np.testing.assert_array_equal(perm[perm], np.arange(8))


class TestVerifyMirror:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identical_uniform(self, rng, n):
        net = identical_network(rng, n)
        report = verify_mirror(net, VarianceProfile(1.0, 0.1))
        assert report.hypotheses_met
        assert report.max_trace_deviation < 1e-9
        assert report.max_m_deviation < 1e-9
        assert not report.excluded

    def test_unequal_scalar_variances_still_pass(self, rng):
        # uniform means per-node constant; sigma2 != lam is fine
        net = identical_network(rng, 4)
        report = verify_mirror(net, VarianceProfile(1.0, 0.01))
        assert report.hypotheses_met
        assert report.max_trace_deviation < 1e-9

    def test_pair_bookkeeping(self, rng):
        net = identical_network(rng, 4)
        report = verify_mirror(net, VarianceProfile())
        assert len(report.pairs) == 3  # one swap pair + two self-mirrored
        flags = {p.pattern: p.self_mirrored for p in report.pairs}
        assert flags[BALANCED] and flags[ALTERNATING]
        swap = [p for p in report.pairs if not p.self_mirrored]
        assert len(swap) == 1
        assert {swap[0].pattern, swap[0].mirror_pattern} == {
            END_EXCITED,
            END_MEASURED,
        }

    def test_hypothesis_flags(self, rng):
        mixed = random_network(rng, 4)
        assert not verify_mirror(mixed, VarianceProfile()).hypotheses_met
        net = identical_network(rng, 4)
        lopsided = VarianceProfile({1: 1.0, 2: 3.0, 3: 1.0, 4: 1.0}, 1.0)
        assert not verify_mirror(net, lopsided).hypotheses_met


class TestModuleAccuracy:
    def test_direct_module_most_accurate(self, rng):
        net = identical_network(rng, 3)
        report = module_accuracy_report(
            net, Emp.uniform({1}, {2, 3}, 1.0, 1.0)
        )
        assert report.hypotheses_met and report.informative
        assert report.rows[0][2] and not report.rows[1][2]
        assert report.directs_most_accurate
        assert report.block_trace(1) < report.block_trace(2)

    def test_all_direct_pattern_has_no_verdict(self, rng):
        net = identical_network(rng, 4)
        report = module_accuracy_report(
            net, Emp.uniform({1, 3}, {2, 4}, 1.0, 1.0)
        )
        assert report.directs_most_accurate is None or report.directs_most_accurate

    def test_non_informative(self):
        net = CascadeNetwork([ParamModule("fir", (0.0,)), ParamModule("fir", (1.0,))])
        report = module_accuracy_report(net, Emp.uniform({1}, {2, 3}, 1.0, 1.0))
        assert not report.informative
        assert report.rows == []


class TestBlockIdentities:
    def test_identical_first_order(self, rng):
        net = identical_network(rng, 4)
        report = covariance_block_identities(net, VarianceProfile(1.0, 0.01))
        assert list(report) == enumerate_minimal(4)
        for devs in report.values():
            assert devs["m_deviation"] < 1e-8
            assert devs["block_deviation"] < 1e-8

    def test_requires_four_nodes(self, rng):
        with pytest.raises(ValueError, match="4-node"):
            covariance_block_identities(identical_network(rng, 5), VarianceProfile())

    def test_requires_identical_modules(self, rng):
        with pytest.raises(ValueError, match="identical"):
            covariance_block_identities(random_network(rng, 4), VarianceProfile())

    def test_requires_uniform_profile(self, rng):
        net = identical_network(rng, 4)
        prof = VarianceProfile({1: 1.0, 2: 2.0, 3: 1.0, 4: 1.0}, 1.0)
        with pytest.raises(ValueError, match="uniform"):
            covariance_block_identities(net, prof)
