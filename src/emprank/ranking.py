"""Rank minimal patterns by estimation accuracy and check the structural
identities that accuracy obeys on a cascade.

The scalar criteria are trace(P) (A-optimality) and logdet(P) (D-optimality)
of the per-sample asymptotic covariance.  Besides plain ranking this module
carries the quick signal-to-noise decision rules for 3- and 4-node cascades,
the mirror-symmetry verifier, and the closed-form block identities that the
4-node covariances satisfy under identical modules and uniform variances.
SNR(j, i) denotes sigma_i^2 / lambda_j, the strength of the excitation at
node i against the sensor noise at node j.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .emp import Emp, VarianceProfile, direct_modules, enumerate_minimal, mirror_pattern, pattern_label
from .fisher import NonInformativeError, _check_kind, information_batch, information_matrix

__all__ = [
    "EmpRanking",
    "MirrorPair",
    "MirrorReport",
    "ModuleAccuracyReport",
    "PairwisePreference",
    "RankEntry",
    "covariance_block_identities",
    "mirror_permutation",
    "module_accuracy_report",
    "rank_emps",
    "snr_rule_3node",
    "snr_rule_4node",
    "verify_mirror",
]

TIE_REL = 1e-12


@dataclass
class RankEntry:
    pattern: tuple  # (B, C)
    canonical_index: int
    value: float
    info: object


@dataclass
class EmpRanking:
    """Informative patterns sorted ascending by the chosen criterion.

    Near-ties (relative gap below 1e-12) are ordered by canonical enumeration
    index so the ranking is deterministic.  Patterns whose information matrix
    could not be inverted are kept aside in ``non_informative`` as
    (pattern, canonical index, rcond).  The ratios to the best pattern divide
    trace(P), or under logdet the geometric mean variance (det P)^(1/p).
    """

    kind: str
    entries: list
    non_informative: list

    @property
    def best(self):
        return self.entries[0]

    def _ratio(self, entry):
        best = self.entries[0]
        if self.kind == "logdet":
            return float(np.exp((entry.value - best.value) / len(best.info.M)))
        return entry.value / best.value

    def runner_up_ratio(self):
        return self._ratio(self.entries[1]) if len(self.entries) > 1 else None

    def worst_ratio(self):
        return self._ratio(self.entries[-1]) if len(self.entries) > 1 else None


def _break_ties(entries):
    """Entries sorted by (value, index), each near-tie group reordered by index: a group starts
    at its head h and takes the next values up to h * (1 +/- TIE_REL), whichever lies above h."""
    values = [e.value for e in entries]
    ordered = []
    i = 0
    while i < len(entries):
        head = values[i]
        j = bisect_right(values, head * (1.0 + TIE_REL if head >= 0 else 1.0 - TIE_REL), i + 1)
        ordered.extend(sorted(entries[i:j], key=attrgetter("canonical_index")) if j - i > 1 else entries[i:j])
        i = j
    return ordered


def rank_emps(net, profile, kind="trace"):
    """Evaluate every minimal pattern of the network and sort by criterion."""
    _check_kind(kind)
    results = information_batch(net, *profile.minimal_variances(net.n))
    patterns = enumerate_minimal(net.n)
    dead = [(patterns[e], e, res.rcond) for e, res in enumerate(results) if res.P is None]
    entries = [
        RankEntry(patterns[e], e, res.criteria[kind], res) for e, res in enumerate(results) if res.P is not None
    ]
    if not entries:
        raise NonInformativeError("every minimal pattern is non-informative for this network")
    entries.sort(key=attrgetter("value"))  # stable: equal values keep canonical order
    return EmpRanking(kind=kind, entries=_break_ties(entries), non_informative=dead)


def snr_rule_3node(snr21, snr32):
    """Choose between the two minimal 3-node patterns from their direct-module SNRs.

    Exciting the middle node (pattern B={1,2}, C={3}) is strictly better when
    snr32 > snr21, strictly worse when snr32 < snr21, and an exact trace tie
    at equality.  Returns the winning (B, C) pair, or None for the tie.
    """
    if snr32 > snr21:
        return (frozenset({1, 2}), frozenset({3}))
    if snr32 < snr21:
        return (frozenset({1}), frozenset({2, 3}))
    return None


@dataclass(frozen=True)
class PairwisePreference:
    better: tuple
    worse: tuple
    status: str  # "holds" | "does not hold" | "inconclusive"
    margins: tuple  # (lhs, rhs) SNR pairs the rule compares

    @property
    def label(self):
        return f"{pattern_label(self.better)} beats {pattern_label(self.worse)}"


def snr_rule_4node(sigma2, lam):
    """Sufficient pairwise orderings of the 4-node minimal patterns from SNRs alone.

    Each record states that one pattern beats another whenever every listed
    SNR comparison holds strictly; equality anywhere makes the rule
    inconclusive.  The comparisons pit the direct-module SNR of the preferred
    pattern against that of the other, plus the cross pair for the two
    end-loaded patterns.  These are one-way tests: "does not hold" does not
    assert the reverse ordering.
    """
    end_excited = (frozenset({1}), frozenset({2, 3, 4}))
    end_measured = (frozenset({1, 2, 3}), frozenset({4}))
    balanced = (frozenset({1, 2}), frozenset({3, 4}))

    def snr(j, i):
        return sigma2[i] / lam[j]

    rules = [
        (end_measured, end_excited, ((snr(4, 3), snr(2, 1)), (snr(4, 2), snr(3, 1)))),
        (balanced, end_excited, ((snr(3, 2), snr(2, 1)),)),
        (balanced, end_measured, ((snr(3, 2), snr(4, 3)),)),
    ]
    out = []
    for better, worse, margins in rules:
        if any(lhs < rhs for lhs, rhs in margins):
            status = "does not hold"
        elif any(lhs == rhs for lhs, rhs in margins):
            status = "inconclusive"
        else:
            status = "holds"
        out.append(PairwisePreference(better, worse, status, margins))
    return out


def mirror_permutation(dims):
    """Index permutation that reverses module blocks while keeping each
    block's internal parameter order."""
    offsets = np.concatenate([[0], np.cumsum(dims)])
    return np.concatenate(
        [np.arange(offsets[k], offsets[k + 1]) for k in reversed(range(len(dims)))]
    ).astype(int)


@dataclass
class MirrorPair:
    pattern: tuple
    mirror_pattern: tuple
    trace_deviation: float
    m_deviation: float
    self_mirrored: bool


@dataclass
class MirrorReport:
    hypotheses_met: bool
    pairs: list
    excluded: list

    @property
    def max_trace_deviation(self):
        return max((p.trace_deviation for p in self.pairs), default=0.0)

    @property
    def max_m_deviation(self):
        return max((p.m_deviation for p in self.pairs), default=0.0)


def verify_mirror(net, profile=VarianceProfile()):
    """Check that mirrored patterns carry identical information.

    Under identical modules and uniform variances the information matrix of a
    mirrored pattern equals the original with its module blocks reversed, so
    criterion values coincide.  The report says whether those hypotheses hold
    for the given network/profile and lists the measured deviations either
    way (relative trace gap and relative block-reversed M gap per pair).

    Both members of a pair are evaluated under the same variance profile;
    only the node sets are reflected.
    """
    hypotheses = net.identical_modules and profile.uniform
    perm = mirror_permutation([m.n_params for m in net.modules])
    n = net.n
    results = dict(zip(enumerate_minimal(n), information_batch(net, *profile.minimal_variances(n))))
    seen = set()
    pairs = []
    excluded = []
    for pattern in results:
        if pattern in seen:
            continue
        mpattern = mirror_pattern(pattern, n)
        seen.add(pattern)
        seen.add(mpattern)
        res, mres = results[pattern], results[mpattern]
        scale = max(np.linalg.norm(res.M), 1e-300)
        m_dev = float(np.linalg.norm(mres.M - res.M[np.ix_(perm, perm)]) / scale)
        if not (res.informative and mres.informative):
            excluded.append((pattern, mpattern, "non-informative"))
            continue
        t, mt = res.criteria["trace"], mres.criteria["trace"]
        pairs.append(
            MirrorPair(
                pattern=pattern,
                mirror_pattern=mpattern,
                trace_deviation=abs(t - mt) / t,
                m_deviation=m_dev,
                self_mirrored=pattern == mpattern,
            )
        )
    return MirrorReport(hypotheses_met=hypotheses, pairs=pairs, excluded=excluded)


@dataclass
class ModuleAccuracyReport:
    """Per-module accuracy of one pattern: covariance block trace and whether
    the module is direct (excited input node, measured output node)."""

    emp: Emp
    rows: list  # (module index, block trace, is_direct)
    informative: bool
    hypotheses_met: bool  # identical modules and uniform variances
    directs_most_accurate: object  # bool under hypotheses, else None

    def block_trace(self, k):
        return self.rows[k - 1][1]


def module_accuracy_report(net, emp):
    res = information_matrix(net, emp)
    directs = direct_modules(emp.pattern)
    hypotheses = net.identical_modules and VarianceProfile(emp.sigma2, emp.lam).uniform
    if not res.informative:
        return ModuleAccuracyReport(emp, [], False, hypotheses, None)
    traces = res.traces
    rows = [(k, traces[k - 1], k in directs) for k in range(1, net.n)]
    verdict = None
    if hypotheses and directs and len(directs) < net.n - 1:
        best_direct = min(traces[k - 1] for k in directs)
        rest = min(t for k, t, d in rows if not d)
        verdict = bool(best_direct <= rest * (1 + 1e-9))
    return ModuleAccuracyReport(emp, rows, True, hypotheses, verdict)


def covariance_block_identities(net, profile):
    """Closed-form check of the 4-node covariance blocks.

    With identical modules and uniform variances, the per-module covariance
    blocks of all four minimal patterns are explicit functions of the three
    elementary grams

        A = (s/l) E[d r x d r],  B = (s/l) E[dG r x dG r],
        C = (s/l) E[dGG r x dGG r]

    where d is the module derivative filter bank and G the module itself.
    They are read off the network's own pair Grams: the first module's block
    of the pairs (1, 2), (1, 3) and (1, 4).  Returns a report with, per pattern, the worst relative deviation of the
    assembled information matrix from its A/B/C block pattern and of the
    covariance diagonal blocks from their closed forms.
    """
    if net.n != 4:
        raise ValueError("closed-form block identities are specific to 4-node cascades")
    if not net.identical_modules:
        raise ValueError("closed forms require identical modules")
    if not profile.uniform:
        raise ValueError("closed forms require uniform variances")
    first = net.param_slices[0]
    snr = profile.sigma2_at(1) / profile.lam_at(net.n)
    a, b, c = snr * net.pair_grams.grams[:3, first, first]  # pairs (1, 2), (1, 3), (1, 4)
    inv = np.linalg.inv
    f_abc = inv(inv(inv(a) + inv(b)) + inv(inv(b) + inv(c)))
    blk = np.block
    expected = [  # enumerate_minimal(4): B = {1}, {1, 2}, {1, 3}, {1, 2, 3}
        (
            blk([[a + b + c, b + c, c], [b + c, b + c, c], [c, c, c]]),
            [inv(a), inv(a) + inv(b), inv(b) + inv(c)],
        ),
        (
            blk([[b + c, b + c, c], [b + c, a + 2 * b + c, b + c], [c, b + c, b + c]]),
            [f_abc, inv(a + inv(2 * inv(b) + inv(c))), f_abc],
        ),
        (
            blk([[a + c, c, c], [c, c, c], [c, c, a + c]]),
            [inv(a), 2 * inv(a) + inv(c), inv(a)],
        ),
        (
            blk([[c, c, c], [c, c + b, c + b], [c, c + b, a + b + c]]),
            [inv(b) + inv(c), inv(a) + inv(b), inv(a)],
        ),
    ]
    results = information_batch(net, *profile.minimal_variances(4))
    report = {}
    for pattern, (m_expect, p_blocks), res in zip(enumerate_minimal(4), expected, results):
        m_dev = np.linalg.norm(res.M - m_expect) / np.linalg.norm(m_expect)
        p_dev = max(
            np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            for got, want in zip((res.P[s, s] for s in net.param_slices), p_blocks)
        )
        report[pattern] = {"m_deviation": float(m_dev), "block_deviation": float(p_dev)}
    return report
