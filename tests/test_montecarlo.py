"""Random-network selection experiments: samplers, config, aggregation."""

import glob
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.signal import butter, lfilter

from emprank import (
    CascadeNetwork,
    ParamModule,
    Perturbation,
    ScenarioConfig,
    enumerate_minimal,
    information_matrix,
    pattern_label,
    rank_emps,
    realize,
    run_scenario,
)
from emprank import montecarlo
from emprank.lti import STABILITY_MARGIN, pole_radius
from emprank.montecarlo import (
    FIR_BUTTERWORTH,
    FIR_MIN_TAPS,
    sample_fir_butterworth,
    sample_first_order,
    sample_second_order,
)


class FixedCutoff:
    """Minimal rng stand-in handing the Butterworth sampler one cutoff."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        assert lo == 0.1 and hi == 0.4
        return self.value


class TestButterworthSampler:
    def test_frozen_taps_at_quarter_cutoff(self):
        m = sample_fir_butterworth(FixedCutoff(0.25))
        assert m.family == "fir"
        assert len(m.theta) == 11
        np.testing.assert_allclose(
            m.theta[:4],
            [0.2928932188134524, 0.5857864376269049, 0.2426406871192852, -0.1005050633883346],
            rtol=1e-10,
        )

    def test_truncation_keeps_last_significant_tap(self):
        m = sample_fir_butterworth(FixedCutoff(0.25))
        assert abs(m.theta[-1]) >= 1e-4

    @pytest.mark.parametrize("source", ["grid", "criterion-7"])
    def test_taps_match_scipy_design(self, source):
        """The closed-form design against scipy's butter + lfilter, on a grid of
        cutoffs and on the first draw of runs 0..999 of criterion 7 (which
        shares criterion 9's master seed): same tap count, and every tap
        within a few ulps of the largest."""
        if source == "grid":
            cutoffs = np.linspace(0.1, 0.4, 1001)
        else:
            cutoffs = [np.random.default_rng([CRITERION_9_SEED, r]).uniform(0.1, 0.4) for r in range(1000)]
        for cutoff in cutoffs:
            taps = np.array(sample_fir_butterworth(FixedCutoff(cutoff)).theta)
            b, a = butter(2, cutoff, btype="low", fs=1.0)
            h = lfilter(b, a, np.eye(1, 512)[0])
            ref = h[: np.flatnonzero(np.abs(h) >= 1e-4)[-1] + 1]
            assert taps.size == ref.size, cutoff
            assert np.max(np.abs(taps - ref)) <= 4e-15 * np.max(np.abs(ref)), cutoff

    def test_fewest_taps_pinned(self):
        """FIR_MIN_TAPS is the fewest taps the closed form keeps over the
        cutoff range: no cutoff of a fine grid keeps fewer, some keep exactly
        that many."""
        taps = [len(sample_fir_butterworth(FixedCutoff(c)).theta) for c in np.linspace(0.1, 0.4, 30001)]
        assert min(taps) == FIR_MIN_TAPS

    def test_random_draws_stable_with_leading_weight(self, rng):
        for _ in range(50):
            m = sample_fir_butterworth(rng)
            assert pole_radius(realize(m)) < STABILITY_MARGIN
            assert len(m.theta) >= 3
            assert abs(m.theta[0]) > 1e-2


class TestParametricSamplers:
    def test_first_order_ranges_and_mean(self, rng):
        a = np.empty(20000)
        b = np.empty(20000)
        for i in range(a.size):
            a[i], b[i] = sample_first_order(rng).theta
        assert a.min() >= 0.1 and a.max() <= 0.9
        assert b.min() >= 0.5 and b.max() <= 2.0
        assert np.mean(a) == pytest.approx(0.5, abs=0.01)

    def test_second_order_draws(self, rng):
        for _ in range(400):
            m = sample_second_order(rng)
            t = m.theta
            assert t[0] == 1.0
            assert -3.0 <= -t[1] <= 3.0
            assert 0.0 <= t[3] < 1.0
            assert -2.0 < t[2] <= 0.0
            assert pole_radius(realize(m)) < STABILITY_MARGIN


class TestScenarioConfig:
    def good(self, **kw):
        base = dict(n=4, family="first_order", runs=10)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_validation(self):
        with pytest.raises(ValueError, match="3 nodes"):
            self.good(n=2)
        with pytest.raises(ValueError, match="at most 16, got 40"):
            self.good(n=40)
        with pytest.raises(ValueError, match="family"):
            self.good(family="arma")
        with pytest.raises(ValueError, match="runs"):
            self.good(runs=0)
        with pytest.raises(ValueError, match="variance_mode"):
            self.good(variance_mode="mixed")
        with pytest.raises(ValueError, match="criterion must be 'trace' or 'logdet', got 'bogus'"):
            self.good(criterion="bogus")
        with pytest.raises(ValueError, match="module"):
            self.good(perturbation=Perturbation(module=4))
        for name, value in (
            ("n", 3.5), ("runs", 2.0), ("master_seed", "1"), ("n", True), ("runs", True), ("master_seed", False)
        ):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                self.good(**{name: value})
        with pytest.raises(ValueError, match="master_seed"):
            self.good(master_seed=-1)
        with pytest.raises(ValueError, match="identical must be true or false, got 'yes'"):
            self.good(identical="yes")
        base = self.good().to_dict()
        for pert, message in (
            ({"module": 1.9, "param": 1.7}, "perturbation module must be an integer, got 1.9"),
            ({"module": 1, "param": 1.7}, "perturbation param must be an integer, got 1.7"),
            ({"module": "1"}, "perturbation module must be an integer, got '1'"),
            ({"module": 1, "factor": "10"}, "perturbation factor must be a number, got '10'"),
            ({"module": 1, "factor": float("inf")}, "perturbation factor must be finite, got inf"),
            ({"module": True}, "perturbation module must be an integer, got True"),
            ({"module": 1, "param": False}, "perturbation param must be an integer, got False"),
            ({"module": 1, "factor": True}, "perturbation factor must be a number, got True"),
        ):
            with pytest.raises(ValueError, match=message):
                ScenarioConfig.from_dict(dict(base, perturbation=pert))

    def test_round_trip(self):
        cfg = self.good(
            identical=True,
            variance_mode="random",
            master_seed=7,
            perturbation=Perturbation(module=2, param=1, factor=10.0),
        )
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_without_perturbation(self):
        cfg = self.good()
        d = cfg.to_dict()
        assert "perturbation" not in d
        assert ScenarioConfig.from_dict(d) == cfg

    def test_unknown_field_rejected(self):
        d = self.good().to_dict()
        d["scale"] = 2
        with pytest.raises(ValueError, match="unknown"):
            ScenarioConfig.from_dict(d)


class TestModuleDraws:
    def test_identical_flag_repeats_one_draw(self):
        cfg = ScenarioConfig(n=5, family="first_order", runs=1, identical=True)
        mods = montecarlo._draw_modules(cfg, np.random.default_rng(3))
        assert len(set(mods)) == 1

    def test_perturbation_scales_target(self):
        cfg = ScenarioConfig(
            n=4,
            family="first_order",
            runs=1,
            identical=True,
            perturbation=Perturbation(module=2, param=1, factor=10.0),
        )
        mods = montecarlo._draw_modules(cfg, np.random.default_rng(3))
        assert mods[0] == mods[2]
        assert mods[1].theta[0] == mods[0].theta[0]
        assert mods[1].theta[1] == pytest.approx(10.0 * mods[0].theta[1])

    def test_perturbation_param_out_of_range(self):
        # checked with the config, FIR taps against the fewest any draw keeps
        with pytest.raises(ValueError, match="parameter 5 outside first_order"):
            ScenarioConfig(n=3, family="first_order", runs=2, perturbation=Perturbation(module=1, param=5))
        with pytest.raises(ValueError, match="parameter 4 outside second_order"):
            ScenarioConfig(n=3, family="second_order", runs=2, perturbation=Perturbation(module=2, param=4))
        for param in (FIR_MIN_TAPS, 15, 40):
            with pytest.raises(ValueError, match=f"parameter {param} outside {FIR_BUTTERWORTH} .* at least 11 taps"):
                ScenarioConfig(n=3, family=FIR_BUTTERWORTH, runs=2, perturbation=Perturbation(1, param))
        last = FIR_MIN_TAPS - 1
        cfg = ScenarioConfig(n=4, family=FIR_BUTTERWORTH, runs=100, perturbation=Perturbation(1, last))
        for r in range(cfg.runs):  # every draw has the tap, so every run scales it
            scaled = montecarlo._draw_modules(cfg, np.random.default_rng([0, r]))[0].theta[last]
            assert scaled == 10.0 * sample_fir_butterworth(np.random.default_rng([0, r])).theta[last]


class TestRunScenario:
    def test_identical_equal_picks_balanced_always(self):
        cfg = ScenarioConfig(
            n=4, family="first_order", runs=40, identical=True, master_seed=11
        )
        report = run_scenario(cfg)
        assert report.best_index == 1
        assert pattern_label(report.patterns[1]) == "B=1,2;C=3,4"
        assert report.counts[1] == 40
        assert report.percentages.sum() == pytest.approx(100.0)
        assert report.n_rejected_runs == 0

    def test_ratio_ordering(self):
        cfg = ScenarioConfig(
            n=4, family="first_order", runs=30, variance_mode="random", master_seed=5
        )
        report = run_scenario(cfg)
        assert np.all(report.runner_up_ratios >= 1.0 - 1e-12)
        assert np.all(report.worst_ratios >= report.runner_up_ratios - 1e-12)
        assert report.median_worst >= report.median_runner_up >= 1.0

    @pytest.mark.parametrize("mode", ["equal", "random"])
    def test_logdet_ratios(self, mode):
        """Under logdet a ratio is the geometric-mean variance ratio
        exp((logdet P - logdet P_best) / p) of the run's own ranking, at
        least 1 like a trace ratio."""
        cfg = ScenarioConfig(
            n=4, family="first_order", runs=40, variance_mode=mode, criterion="logdet", master_seed=3
        )
        runner_up, worst = [], []
        for r in range(cfg.runs):
            rng = np.random.default_rng([cfg.master_seed, r])
            modules = montecarlo._draw_modules(cfg, rng)
            ranking = rank_emps(CascadeNetwork(modules), montecarlo._draw_profile(cfg, rng), "logdet")
            values = [e.value for e in ranking.entries]
            p = sum(m.n_params for m in modules)
            runner_up.append(np.exp((values[1] - values[0]) / p))
            worst.append(np.exp((values[-1] - values[0]) / p))
        report = run_scenario(cfg)
        assert report.n_rejected_runs == 0
        np.testing.assert_array_equal(report.runner_up_ratios, runner_up)
        np.testing.assert_array_equal(report.worst_ratios, worst)
        assert np.all(report.runner_up_ratios >= 1.0 - 1e-12)
        assert np.all(report.worst_ratios >= report.runner_up_ratios)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_deterministic_and_worker_invariant(self, workers):
        """Fewer runs than chunks: the report equals one built run by run,
        also on a second call served by warm workers and caches."""
        cfg = ScenarioConfig(
            n=4, family="first_order", runs=5, variance_mode="random", master_seed=9
        )
        outcomes = [montecarlo._run_one(cfg, r) for r in range(cfg.runs)]
        kept = [o for o in outcomes if not o.rejected]
        counts = np.bincount([o.winner for o in kept], minlength=len(enumerate_minimal(cfg.n)))
        for _ in range(2):
            report = run_scenario(cfg, workers=workers)
            np.testing.assert_array_equal(report.counts, counts)
            np.testing.assert_array_equal(report.runner_up_ratios, [o.runner_up_ratio for o in kept])
            np.testing.assert_array_equal(report.worst_ratios, [o.worst_ratio for o in kept])
            assert report.n_rejected_runs == len(outcomes) - len(kept)

    def test_master_seed_changes_draws(self):
        mk = lambda seed: ScenarioConfig(
            n=4, family="first_order", runs=20, variance_mode="random", master_seed=seed
        )
        r1 = run_scenario(mk(1))
        r2 = run_scenario(mk(2))
        assert not np.array_equal(r1.runner_up_ratios, r2.runner_up_ratios)

    def test_rejected_runs_accounted(self, monkeypatch):
        monkeypatch.setitem(
            montecarlo._SAMPLERS,
            "first_order",
            lambda rng: ParamModule("first_order", (1.5, 1.0)),
        )
        cfg = ScenarioConfig(n=3, family="first_order", runs=6, master_seed=0)
        report = run_scenario(cfg)
        assert report.n_rejected_runs == 6
        assert report.n_informative_runs == 0
        assert report.counts.sum() == 0
        assert report.best_index is None
        assert report.median_runner_up is None
        assert report.median_worst is None

    def test_slow_decaying_run_rejected_with_reason(self, monkeypatch):
        monkeypatch.setitem(
            montecarlo._SAMPLERS,
            "first_order",
            lambda rng: ParamModule("first_order", (-0.99999, 1.0)),
        )
        cfg = ScenarioConfig(n=3, family="first_order", runs=2, master_seed=0)
        outcome = montecarlo._run_one(cfg, 0)
        assert outcome.rejected
        assert outcome.reason.startswith("module 1 decays too slowly (pole radius 0.99999)")
        assert run_scenario(cfg).n_rejected_runs == 2

    def test_report_dict(self):
        cfg = ScenarioConfig(n=3, family="first_order", runs=8, master_seed=2)
        d = run_scenario(cfg).to_dict()
        assert d["patterns"] == ["B=1;C=2,3", "B=1,2;C=3"]
        assert sum(d["counts"]) == d["n_informative_runs"] == 8
        assert sum(d["percentages"]) == pytest.approx(100.0)
        assert d["config"]["family"] == "first_order"
        assert d["median_worst_ratio"] >= d["median_runner_up_ratio"]


def test_worker_blas_runs_one_thread():
    """The worker initializer leaves numpy's bundled OpenBLAS on one thread."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so*")
    )
    if not libs:
        pytest.skip("numpy carries no bundled scipy-openblas")
    probe = (
        "import ctypes, sys; from emprank import montecarlo; montecarlo._one_blas_thread(); "
        "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_; print(get())"
    )
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", probe, libs[0]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_monte_carlo_path_leaves_out_scipy_signal():
    """Module sampling and ranking run on numpy alone: serial FIR-Butterworth
    and second-order scenarios import no scipy.signal, so neither do the
    worker processes of ``emprank montecarlo``, which run the same code."""
    probe = (
        "import sys; from emprank import ScenarioConfig, run_scenario; "
        "run_scenario(ScenarioConfig(n=4, family='fir_butterworth', runs=4, identical=True)); "
        "run_scenario(ScenarioConfig(n=4, family='second_order', runs=4)); "
        "print('scipy.signal' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def worker_processes():
    """The live worker processes of this process's pool, by pid."""
    return dict(montecarlo._pool[1]._processes)


def assert_same_report(report, expected):
    np.testing.assert_array_equal(report.counts, expected.counts)
    np.testing.assert_array_equal(report.runner_up_ratios, expected.runner_up_ratios)
    np.testing.assert_array_equal(report.worst_ratios, expected.worst_ratios)
    assert report.n_rejected_runs == expected.n_rejected_runs
    assert report.n_noninformative_emps == expected.n_noninformative_emps


class TestWorkerPool:
    """Worker processes start once per process and worker count."""

    CFG = ScenarioConfig(n=4, family="first_order", runs=12, variance_mode="random", master_seed=3)

    def test_calls_share_workers(self):
        run_scenario(self.CFG, workers=2)
        first = worker_processes()
        run_scenario(self.CFG, workers=2)
        assert worker_processes() == first
        assert len(first) == 2
        assert all(p.is_alive() for p in first.values())

    def test_new_worker_count_replaces_pool(self):
        run_scenario(self.CFG, workers=2)
        old = worker_processes()
        run_scenario(self.CFG, workers=3)
        new = worker_processes()
        assert len(new) == 3
        assert not set(old) & set(new)
        assert all(p.exitcode is not None for p in old.values())

    def test_killed_worker_replaced(self):
        expected = run_scenario(self.CFG, workers=1)
        run_scenario(self.CFG, workers=2)
        victim = next(iter(worker_processes().values()))
        os.kill(victim.pid, signal.SIGKILL)
        try:
            assert_same_report(run_scenario(self.CFG, workers=2), expected)
        except BrokenProcessPool:
            pass
        assert_same_report(run_scenario(self.CFG, workers=2), expected)
        assert victim.pid not in worker_processes()
        # the broken pool's shutdown has reaped the victim
        assert victim.exitcode == -signal.SIGKILL

    def test_workers_exit_with_interpreter(self):
        probe = (
            "from emprank import ScenarioConfig, run_scenario, montecarlo; "
            "run_scenario(ScenarioConfig(n=3, family='first_order', runs=4), workers=2); "
            "print(*montecarlo._pool[1]._processes)"
        )
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2

        def alive(pid):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            return True

        deadline = time.monotonic() + 5
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive, pids))


class TestButterworthScenario:
    def test_small_identical_equal_run(self):
        cfg = ScenarioConfig(
            n=4, family=FIR_BUTTERWORTH, runs=10, identical=True, master_seed=4
        )
        report = run_scenario(cfg)
        assert report.counts[1] == 10


# Independent oracle for the pair Grams and the information matrices (first
# used for the first-order population of acceptance criterion 9, same master
# seed).  It rebuilds every pair's Gram from directly simulated pair impulse
# responses, differentiated numerically, with numpy and lfilter only: no Gram,
# gradient stack or transfer-function code of the package is involved.  The
# derivative is a complex-step finite difference (shift one parameter by
# i*step, read the imaginary part), which has no subtractive cancellation, so
# the oracle is accurate to rounding.  1000 samples cover the slowest
# criterion-9 response (a fourth-order pole at -0.9) to below double precision.
CRITERION_9_SEED = 20260815
ORACLE_LEN = 1000
ORACLE_STEP = 1e-30


def oracle_coefficients(family, theta):
    """(b, a) in powers of q^-1, read from a module family and its parameters."""
    if family == "fir":
        return theta, [1.0]
    if family == "first_order":
        return [0.0, theta[1]], [1.0, theta[0]]  # b/(q + a)
    return [0.0, theta[0], theta[1]], [1.0, theta[2], theta[3]]


def oracle_pair_responses(modules, thetas, length):
    """Impulse responses from node i to every node j > i, one lfilter per module."""
    impulse = np.zeros(length, dtype=complex)
    impulse[0] = 1.0
    responses = {}
    n = len(modules) + 1
    for i in range(1, n):
        x = impulse
        for k in range(i, n):
            x = lfilter(*oracle_coefficients(modules[k - 1].family, thetas[k - 1]), x)
            responses[i, k + 1] = x
    return responses


def oracle_grams(modules, length=ORACLE_LEN):
    """Unit-variance Gram of every pair (i, j), over all parameters."""
    p = sum(m.n_params for m in modules)
    psi = {}
    row = 0
    for k, module in enumerate(modules):
        for m in range(module.n_params):
            thetas = [np.array(mod.theta, dtype=complex) for mod in modules]
            thetas[k][m] += 1j * ORACLE_STEP
            for pair, h in oracle_pair_responses(modules, thetas, length).items():
                psi.setdefault(pair, np.zeros((p, length)))[row] = h.imag / ORACLE_STEP
            row += 1
    return {pair: g @ g.T for pair, g in psi.items()}


def oracle_information(modules, profile, patterns):
    """Per-sample information matrix of each pattern from the oracle's Grams."""
    grams = oracle_grams(modules)
    return [
        sum(
            profile.sigma2_at(i) / profile.lam_at(j) * grams[i, j]
            for i in b
            for j in c
            if i < j
        )
        for b, c in patterns
    ]


class TestEngineGrams:
    """The network's Parseval pair Grams against the oracle's."""

    @staticmethod
    def worst_deviation(modules, length):
        table = CascadeNetwork(modules).pair_grams
        oracle = oracle_grams(modules, length)
        return max(
            np.linalg.norm(g - oracle[i, j]) / np.linalg.norm(oracle[i, j])
            for i, j, g in zip(table.src, table.dst, table.grams)
        )

    def test_first_order_n10(self):
        rng = np.random.default_rng([CRITERION_9_SEED, 0])
        modules = [sample_first_order(rng) for _ in range(9)]
        assert self.worst_deviation(modules, ORACLE_LEN) <= 1e-12

    def test_second_order_n4_slow_pole(self):
        # a complex pole pair of radius 0.97 next to a real double pole
        slow = ParamModule("second_order", (1.0, 0.5, -2 * 0.97 * np.cos(0.4), 0.97**2))
        modules = [
            ParamModule("second_order", (1.0, -0.3, -1.2, 0.36)),
            slow,
            ParamModule("second_order", (1.0, 2.0, -0.5, 0.2)),
        ]
        assert max(pole_radius(realize(m)) for m in modules) == pytest.approx(0.97)
        assert self.worst_deviation(modules, 4000) <= 1e-12

    def test_fir_butterworth_n4(self):
        rng = np.random.default_rng([CRITERION_9_SEED, 1])
        modules = [sample_fir_butterworth(rng) for _ in range(3)]
        assert self.worst_deviation(modules, 256) <= 1e-12


class TestCriterion9Oracle:
    """The ratio engine against the oracle on runs 0..199 of criterion 9."""

    RUNS = 200

    @pytest.mark.parametrize("mode", ["equal", "random"])
    def test_engine_matches_finite_difference_oracle(self, mode):
        cfg = ScenarioConfig(
            n=4,
            family="first_order",
            runs=self.RUNS,
            variance_mode=mode,
            master_seed=CRITERION_9_SEED,
        )
        patterns = enumerate_minimal(cfg.n)
        worst_m = 0.0
        runner_up, worst = [], []
        for r in range(cfg.runs):
            rng = np.random.default_rng([cfg.master_seed, r])
            modules = montecarlo._draw_modules(cfg, rng)
            profile = montecarlo._draw_profile(cfg, rng)
            oracle = oracle_information(modules, profile, patterns)
            net = CascadeNetwork(modules)
            for pattern, m_oracle in zip(patterns, oracle):
                m_engine = information_matrix(net, profile.emp_for(pattern)).M
                dev = np.linalg.norm(m_oracle - m_engine) / np.linalg.norm(m_engine)
                worst_m = max(worst_m, dev)
            traces = sorted(np.trace(np.linalg.inv(m)) for m in oracle)
            runner_up.append(traces[1] / traces[0])
            worst.append(traces[-1] / traces[0])
        assert worst_m <= 1e-8
        # the scenario runner ranks these same streams with rank_emps
        report = run_scenario(cfg)
        assert report.n_rejected_runs == 0
        np.testing.assert_allclose(report.runner_up_ratios, runner_up, rtol=1e-8, atol=0)
        np.testing.assert_allclose(report.worst_ratios, worst, rtol=1e-8, atol=0)
