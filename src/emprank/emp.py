"""Excitation and measurement patterns (EMPs) on a cascade of n nodes.

A pattern is a pair of node sets: excited nodes carry a white excitation of
known variance, measured nodes carry a sensor with white measurement noise.
The identifiable patterns of least total cardinality partition the interior
nodes: node 1 is always excited, node n always measured, and every node in
between is either excited or measured but not both, giving 2^(n-2) minimal
patterns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "MAX_NODES",
    "Emp",
    "VarianceProfile",
    "direct_modules",
    "enumerate_minimal",
    "mirror_pattern",
    "pattern_label",
]

MAX_NODES = 16  # ranking time and memory double per node: n=15 took 2 s and 220 MB


@dataclass(frozen=True)
class Emp:
    """An excitation/measurement pattern with per-node variances.

    sigma2 maps every excited node to its excitation variance (finite, > 0);
    lam maps every measured node to its noise variance (finite, >= 0, zero
    meaning a noiseless sensor, usable in simulation but not in information
    assembly).
    """

    excited: frozenset
    measured: frozenset
    sigma2: dict = field(default_factory=dict)
    lam: dict = field(default_factory=dict)

    def __post_init__(self):
        excited = frozenset(int(i) for i in self.excited)
        measured = frozenset(int(j) for j in self.measured)
        if not excited or not measured:
            raise ValueError("a pattern needs at least one excited and one measured node")
        if min(excited | measured) < 1:
            raise ValueError("nodes are 1-indexed")
        sigma2 = {int(k): float(v) for k, v in self.sigma2.items()}
        lam = {int(k): float(v) for k, v in self.lam.items()}
        if set(sigma2) != set(excited):
            raise ValueError("sigma2 must be keyed exactly by the excited nodes")
        if set(lam) != set(measured):
            raise ValueError("lam must be keyed exactly by the measured nodes")
        VarianceProfile(sigma2, lam)  # rejects invalid variance values
        object.__setattr__(self, "excited", excited)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "lam", lam)

    @classmethod
    def uniform(cls, excited, measured, sigma2=1.0, lam=1.0):
        """Pattern with one shared excitation variance and one shared noise variance."""
        return VarianceProfile(sigma2, lam).emp_for((excited, measured))

    @property
    def pattern(self):
        return (self.excited, self.measured)

    @property
    def label(self):
        return pattern_label(self.pattern)


def _values(v):
    return [float(x) for x in (v.values() if isinstance(v, Mapping) else [v])]


@dataclass(frozen=True)
class VarianceProfile:
    """Excitation/noise variances to apply to any pattern.

    Each field is either a scalar shared by all nodes or a node-keyed map;
    a map must cover every node the pattern assigns to that role.  Excitation
    variances must be positive and noise variances non-negative, both finite.
    """

    sigma2: object = 1.0
    lam: object = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in _values(self.sigma2)):
            raise ValueError("excitation variances must be positive and finite")
        if not all(0 <= v < math.inf for v in _values(self.lam)):
            raise ValueError("noise variances must be non-negative and finite")

    def sigma2_at(self, node):
        return float(self.sigma2[node] if isinstance(self.sigma2, Mapping) else self.sigma2)

    def lam_at(self, node):
        return float(self.lam[node] if isinstance(self.lam, Mapping) else self.lam)

    @property
    def uniform(self):
        return len(set(_values(self.sigma2))) <= 1 and len(set(_values(self.lam))) <= 1

    def emp_for(self, pattern):
        b, c = pattern
        return Emp(
            frozenset(b),
            frozenset(c),
            {i: self.sigma2_at(i) for i in b},
            {j: self.lam_at(j) for j in c},
        )

    def minimal_variances(self, n):
        """Per-node variance arrays (sigma2, lam) of shape (2^(n-2), n+1) of the
        minimal patterns of an n-node cascade in ``enumerate_minimal`` order."""
        nodes, excited = np.arange(n + 1), _excited(n)
        sigma2 = [self.sigma2_at(i) if 0 < i < n else 0.0 for i in nodes]
        lam = [self.lam_at(j) if j > 1 else np.inf for j in nodes]
        return np.where(excited, sigma2, 0.0), np.where(~excited & (nodes > 1), lam, np.inf)


def pattern_label(pattern):
    b, c = pattern
    return "B={};C={}".format(
        ",".join(str(i) for i in sorted(b)),
        ",".join(str(j) for j in sorted(c)),
    )


def enumerate_minimal(n):
    """All minimal patterns of an n-node cascade in a fixed canonical order.

    Interior nodes 2..n-1 are assigned by a binary counter with node 2 as the
    least significant bit; a set bit excites the node, a clear bit measures
    it.  Node 1 is always excited and node n always measured: 2^(n-2) patterns
    (one for n = 2), built once per n and returned as a fresh list each call.
    """
    if n < 2:
        raise ValueError("a cascade has at least 2 nodes")
    return list(_minimal(n))


def _excited(n):
    """Excitation mask of the minimal patterns, (2^(n-2), n+1): row c excites node k when bit k of 4c + 2 is set."""
    return (np.arange(1 << (n - 2))[:, None] << 2 | 2) >> np.arange(n + 1) & 1 == 1


@cache
def _minimal(n):
    return tuple(
        (frozenset({1, *[k for k in range(2, n) if e[k]]}), frozenset({n, *[k for k in range(2, n) if not e[k]]}))
        for e in _excited(n).tolist()
    )


def mirror_pattern(pattern, n):
    """Reflect a (B, C) pair end-for-end: node j maps to n - j + 1 and the
    roles swap, so excited nodes become measured ones and vice versa."""
    _check_nodes(pattern, n)
    b, c = pattern
    return frozenset(n - j + 1 for j in c), frozenset(n - i + 1 for i in b)


def _check_nodes(pattern, n):
    if (node := max(pattern[0] | pattern[1])) > n:
        raise ValueError(f"pattern references node {node} beyond the {n}-node cascade")


def direct_modules(pattern):
    """Modules whose input node is excited and whose output node is measured."""
    b, c = pattern
    return {i for i in b if i + 1 in c}
