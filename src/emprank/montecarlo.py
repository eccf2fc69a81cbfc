"""Monte Carlo selection-frequency experiments over random cascades.

Each run draws a fresh network from one of three random module families,
applies an optional parameter perturbation, assigns variances, ranks every
minimal pattern, and records the winner.  Aggregated over many runs this
reproduces the selection-frequency tables and the accuracy-ratio statistics
used to judge how much choosing the right pattern matters.

Runs are reproducible independent of worker count: run r of a scenario with
master seed s uses the dedicated stream seeded by (s, r).  Each worker gets
one contiguous chunk of runs, the serial path one chunk of all of them.  A
chunk draws each run and assembles its information matrices on their own,
then inverts consecutive runs of one parameter layout as one stack of at
most STACK_ENTRIES matrix entries, and ranks each run from its slice
through the ranking tail of ``rank_emps``.  A matrix's result does not
depend on its stack, so every run's outcome is the one ``rank_emps`` gives
it alone.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .cascade import CascadeNetwork
from .emp import MAX_NODES, VarianceProfile, enumerate_minimal, pattern_label
from .fisher import NonInformativeError, _assemble, _check_kind, _invert_stack
from .lti import FAMILY_SIZES, FIR, FIRST_ORDER, SECOND_ORDER, ParamModule, UnstableFilterError
from .ranking import _rank_results

__all__ = [
    "FIR_BUTTERWORTH",
    "MODULE_FAMILIES",
    "Perturbation",
    "ScenarioConfig",
    "ScenarioReport",
    "run_scenario",
    "sample_fir_butterworth",
    "sample_first_order",
    "sample_second_order",
]

log = logging.getLogger(__name__)

FIR_BUTTERWORTH = "fir_butterworth"
MODULE_FAMILIES = (FIR_BUTTERWORTH, FIRST_ORDER, SECOND_ORDER)

FIR_TAP_CUTOFF = 1e-4
FIR_MIN_TAPS = 11  # fewest taps sample_fir_butterworth keeps at any cutoff (cutoffs 0.2007-0.2834)
EQUAL_SIGMA2 = 1.0
EQUAL_LAMBDA = 0.01
RANDOM_LOW = 0.001
RANDOM_HIGH = 50.0
# matrix entries (patterns x p^2, summed over the runs) that a chunk holds
# assembled and inverts at once: enough to share one inversion among tens
# of small runs (227 first-order n=4 runs, 14 at n=6), little enough to
# keep a chunk's memory flat (a few float64 arrays of 256 KiB)
STACK_ENTRIES = 1 << 15


def sample_fir_butterworth(rng):
    """FIR module: truncated impulse response of a random lowpass Butterworth.

    A second-order lowpass Butterworth is designed by bilinear transform
    (cutoff prewarped) at 1 Hz sampling with cutoff drawn uniformly from
    [0.1, 0.4] cycles/sample, and its impulse response is kept up to the last
    tap of magnitude at least 1e-4.  In closed form, with K = tan(pi cutoff)
    and c = 1 + sqrt(2) K + K^2, the filter is K^2/c (1, 2, 1) over
    (1, 2(K^2 - 1)/c, (1 - sqrt(2) K + K^2)/c), and the all-pole response
    r^n sin((n+1) phi)/sin phi of its poles r e^{+-i phi} is convolved with
    that numerator over 512 samples.
    """
    cutoff = rng.uniform(0.1, 0.4)
    k = math.tan(math.pi * cutoff)
    c = 1.0 + math.sqrt(2.0) * k + k * k
    b0 = k * k / c
    r = math.sqrt((1.0 - math.sqrt(2.0) * k + k * k) / c)  # sqrt(a2)
    phi = math.acos((1.0 - k * k) / (c * r))  # cos phi = -a1 / (2r)
    n = np.arange(512)
    h = np.convolve(r**n * np.sin((n + 1) * phi) / math.sin(phi), [b0, 2 * b0, b0])[:512]
    above = np.flatnonzero(np.abs(h) >= FIR_TAP_CUTOFF)
    taps = h[: int(above[-1]) + 1] if above.size else h[:1]
    return ParamModule(FIR, tuple(taps))


def sample_first_order(rng):
    """First-order module b/(q+a) with a ~ U(0.1, 0.9), b ~ U(0.5, 2)."""
    a = rng.uniform(0.1, 0.9)
    b = rng.uniform(0.5, 2.0)
    return ParamModule(FIRST_ORDER, (a, b))


def sample_second_order(rng):
    """Second-order module with poles from the right half of the unit disk.

    With probability 1/2 the poles are a complex-conjugate pair drawn
    area-uniformly from the upper-right quarter disk, otherwise two
    independent real poles uniform on [0, 1).  The single zero is real,
    uniform on [-3, 3], with the numerator left monic in q.
    """
    if rng.random() < 0.5:
        radius = np.sqrt(rng.uniform(0.0, 1.0))
        phase = rng.uniform(0.0, np.pi / 2)
        t3 = -2.0 * radius * np.cos(phase)
        t4 = radius * radius
    else:
        p1 = rng.uniform(0.0, 1.0)
        p2 = rng.uniform(0.0, 1.0)
        t3 = -(p1 + p2)
        t4 = p1 * p2
    zero = rng.uniform(-3.0, 3.0)
    return ParamModule(SECOND_ORDER, (1.0, -zero, t3, t4))


_SAMPLERS = {
    FIR_BUTTERWORTH: sample_fir_butterworth,
    FIRST_ORDER: sample_first_order,
    SECOND_ORDER: sample_second_order,
}


def _is_int(value):  # JSON true/false arrive as bool, an Integral
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Perturbation:
    """Scale parameter ``param`` (0-indexed) of module ``module`` (1-indexed)."""

    module: int
    param: int = 0
    factor: float = 10.0

    def __post_init__(self):
        for name in ("module", "param"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"perturbation {name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.factor, bool) or not isinstance(self.factor, Real):
            raise ValueError(f"perturbation factor must be a number, got {self.factor!r}")
        if not math.isfinite(self.factor):
            raise ValueError(f"perturbation factor must be finite, got {self.factor!r}")
        object.__setattr__(self, "factor", float(self.factor))


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    family: str
    runs: int
    variance_mode: str = "equal"  # "equal": sigma2=1, lambda=0.01; "random": U(0.001, 50)
    identical: bool = False  # draw one module and repeat it along the chain
    perturbation: Perturbation = None
    master_seed: int = 0
    criterion: str = "trace"

    def __post_init__(self):
        for name in ("n", "runs", "master_seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 3 <= self.n <= MAX_NODES:
            raise ValueError(f"selection experiments need at least 3 nodes and at most {MAX_NODES}, got {self.n}")
        if self.family not in MODULE_FAMILIES:
            raise ValueError(f"family must be one of {MODULE_FAMILIES}, got {self.family!r}")
        if not isinstance(self.identical, bool):
            raise ValueError(f"identical must be true or false, got {self.identical!r}")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.variance_mode not in ("equal", "random"):
            raise ValueError(f"variance_mode must be 'equal' or 'random', got {self.variance_mode!r}")
        _check_kind(self.criterion)
        if self.perturbation is not None:
            p = self.perturbation
            if not 1 <= p.module <= self.n - 1:
                raise ValueError(f"perturbation module {p.module} outside 1..{self.n - 1}")
            if p.param < 0:
                raise ValueError("perturbation parameter index must be >= 0")
            # fir_butterworth tap counts vary per draw; every draw has FIR_MIN_TAPS
            n_params = FAMILY_SIZES.get(self.family, FIR_MIN_TAPS)
            if p.param >= n_params:
                size = f"{n_params} parameters" if self.family in FAMILY_SIZES else f"at least {n_params} taps"
                raise ValueError(f"perturbation parameter {p.param} outside {self.family} modules with {size}")

    def to_dict(self):
        d = asdict(self)
        if self.perturbation is None:
            del d["perturbation"]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        pert = d.pop("perturbation", None)
        if pert is not None:
            pert = Perturbation(**pert)
        return cls(perturbation=pert, **d)


@dataclass
class RunOutcome:
    winner: int = None  # canonical pattern index
    runner_up_ratio: float = None
    worst_ratio: float = None
    non_informative: int = 0
    rejected: bool = False
    reason: str = None


def _draw_modules(cfg, rng):
    sampler = _SAMPLERS[cfg.family]
    if cfg.identical:
        module = sampler(rng)
        modules = [module] * (cfg.n - 1)
    else:
        modules = [sampler(rng) for _ in range(cfg.n - 1)]
    if cfg.perturbation is not None:
        p = cfg.perturbation
        target = modules[p.module - 1]
        theta = list(target.theta)
        theta[p.param] *= p.factor
        modules[p.module - 1] = ParamModule(target.family, tuple(theta))
    return modules


def _draw_profile(cfg, rng):
    if cfg.variance_mode == "equal":
        return VarianceProfile(EQUAL_SIGMA2, EQUAL_LAMBDA)
    nodes = range(1, cfg.n + 1)
    sigma2 = {i: rng.uniform(RANDOM_LOW, RANDOM_HIGH) for i in nodes}
    lam = {j: rng.uniform(RANDOM_LOW, RANDOM_HIGH) for j in nodes}
    return VarianceProfile(sigma2, lam)


def _one_blas_thread():
    """Worker initializer: one thread for numpy's bundled OpenBLAS (a run
    factors only small matrices); a no-op without scipy-openblas."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


def _run_chunk(args):
    """Outcomes of the runs ``indices`` of a scenario, in order (see the
    module docstring); a run larger than STACK_ENTRIES is inverted alone."""
    cfg, indices = args
    patterns = enumerate_minimal(cfg.n)
    outcomes = [None] * len(indices)
    stack, layout = [], None  # (slot, M) of the runs assembled but not yet ranked, and their parameter slices
    for slot, r in enumerate(indices):
        rng = np.random.default_rng([cfg.master_seed, r])
        modules = _draw_modules(cfg, rng)
        profile = _draw_profile(cfg, rng)
        try:
            net = CascadeNetwork(modules)
            M = _assemble(net, *profile.minimal_variances(cfg.n))
        except UnstableFilterError as exc:  # an unstable draw, or one too slow to decay
            outcomes[slot] = RunOutcome(rejected=True, reason=str(exc))
            continue
        if stack and (net.param_slices != layout or (len(stack) + 1) * M.size > STACK_ENTRIES):
            _rank_stack(stack, layout, patterns, cfg.criterion, outcomes)
            stack = []
        stack.append((slot, M))
        layout = net.param_slices
    if stack:
        _rank_stack(stack, layout, patterns, cfg.criterion, outcomes)
    return outcomes


def _rank_stack(stack, layout, patterns, kind, outcomes):
    """Invert the runs of ``stack``, which share the parameter slices ``layout``,
    in one call and store each run's outcome in its slot of ``outcomes``."""
    results = _invert_stack(np.concatenate([M for _, M in stack]), layout)
    for k, (slot, _) in enumerate(stack):
        try:
            ranking = _rank_results(results[k * len(patterns): (k + 1) * len(patterns)], patterns, kind)
        except NonInformativeError:
            outcomes[slot] = RunOutcome(rejected=True, reason="no informative pattern")
            continue
        outcomes[slot] = RunOutcome(
            winner=ranking.best.canonical_index,
            runner_up_ratio=ranking.runner_up_ratio(),
            worst_ratio=ranking.worst_ratio(),
            non_informative=len(ranking.non_informative),
        )


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    patterns: list
    counts: np.ndarray
    n_informative_runs: int
    n_rejected_runs: int
    n_noninformative_emps: int
    runner_up_ratios: np.ndarray
    worst_ratios: np.ndarray

    @property
    def percentages(self):
        total = max(self.n_informative_runs, 1)
        return 100.0 * self.counts / total

    @property
    def best_index(self):
        """Index of the most frequent winner; None when no run was informative."""
        return int(np.argmax(self.counts)) if self.n_informative_runs else None

    @property
    def median_runner_up(self):
        """Median accuracy loss of the runner-up relative to the per-run best
        (ratios >= 1, see ``EmpRanking``); None when no run ranked two patterns."""
        return float(np.median(self.runner_up_ratios)) if self.runner_up_ratios.size else None

    @property
    def median_worst(self):
        """Median accuracy loss of the worst pattern, as ``median_runner_up``."""
        return float(np.median(self.worst_ratios)) if self.worst_ratios.size else None

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "patterns": [pattern_label(p) for p in self.patterns],
            "counts": self.counts.tolist(),
            "percentages": self.percentages.tolist(),
            "n_informative_runs": self.n_informative_runs,
            "n_rejected_runs": self.n_rejected_runs,
            "n_noninformative_emps": self.n_noninformative_emps,
            "median_runner_up_ratio": self.median_runner_up,
            "median_worst_ratio": self.median_worst,
        }


_pool = None  # (workers, executor): the process's worker pool, see _worker_pool
_pool_lock = threading.Lock()


def _worker_pool(workers):
    """The pool of ``workers`` processes shared by every ``run_scenario``
    call in this process: started on first use, replaced when the worker
    count changes or a worker has died."""
    global _pool
    with _pool_lock:
        if _pool is not None and (_pool[0] != workers or _pool[1]._broken):
            _pool[1].shutdown(wait=True)
            _pool = None
        if _pool is None:
            _pool = (workers, ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread))
        return _pool[1]


def run_scenario(cfg, workers=1):
    """Execute every run of a scenario and aggregate selection frequencies.

    The runs are split into one contiguous chunk per worker, run in this
    process for one worker and fanned out over ``workers`` processes
    otherwise; results are the same either way because every run owns its
    seed stream.  The worker processes persist between calls with the same
    worker count and run the package state as of the pool's creation:
    changes made in this process afterwards (a patched sampler, say) do not
    reach them.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    patterns = enumerate_minimal(cfg.n)
    indices = np.array_split(np.arange(cfg.runs), workers)
    chunks = [(cfg, idx.tolist()) for idx in indices if idx.size]
    pool = _worker_pool(workers) if workers > 1 else None
    outcomes = []
    t0 = time.perf_counter()
    for done, part in enumerate((pool.map if pool else map)(_run_chunk, chunks), start=1):
        outcomes.extend(part)
        log.info(
            "scenario progress: %d/%d chunks, %d/%d runs, %.1f runs/s",
            done, len(chunks), len(outcomes), cfg.runs, len(outcomes) / (time.perf_counter() - t0),
        )
    counts = np.zeros(len(patterns), dtype=int)
    runner, worst = [], []
    rejected = 0
    dead_emps = 0
    for out in outcomes:
        if out.rejected:
            rejected += 1
            continue
        counts[out.winner] += 1
        dead_emps += out.non_informative
        if out.runner_up_ratio is not None:
            runner.append(out.runner_up_ratio)
            worst.append(out.worst_ratio)
    return ScenarioReport(
        config=cfg,
        patterns=patterns,
        counts=counts,
        n_informative_runs=int(counts.sum()),
        n_rejected_runs=rejected,
        n_noninformative_emps=dead_emps,
        runner_up_ratios=np.asarray(runner),
        worst_ratios=np.asarray(worst),
    )
