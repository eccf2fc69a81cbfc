"""End-to-end command-line checks through main(argv)."""

import csv
import json
import os
import subprocess
import sys
import time

import pytest

import emprank
from emprank import enumerate_minimal, pattern_label
from emprank.emp import mirror_pattern
from emprank.cli import main

SRC = os.path.dirname(os.path.dirname(emprank.__file__))


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.fixture
def net3(tmp_path):
    path = tmp_path / "net3.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "modules": [
                    {"family": "first_order", "theta": [-0.4, 1.2]},
                    {"family": "first_order", "theta": [-0.4, 1.2]},
                ],
                "defaults": {"sigma2": 1.0, "lambda": 0.01},
            }
        )
    )
    return path


@pytest.fixture
def net4(tmp_path):
    path = tmp_path / "net4.json"
    path.write_text(
        json.dumps(
            {
                "modules": [{"family": "first_order", "theta": [-0.5, 1.0]}] * 3,
                "defaults": {"sigma2": 1.0, "lambda": 0.01},
            }
        )
    )
    return path


@pytest.fixture
def fir2(tmp_path):
    path = tmp_path / "fir2.json"
    path.write_text(
        json.dumps(
            {
                "modules": [{"family": "fir", "theta": [0.8, -0.25]}],
                "defaults": {"sigma2": 1.0, "lambda": 0.1},
            }
        )
    )
    return path


class TestEnumerate:
    def test_table(self, capsys):
        assert main(["enumerate", "-n", "4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["index", "pattern"]
        assert len(lines) == 5
        assert "B=1,2;C=3,4" in out

    def test_json(self, capsys):
        assert main(["enumerate", "-n", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["pattern"] for r in rows] == ["B=1;C=2,3", "B=1,2;C=3"]
        assert rows[0]["mirror"] == "B=1,2;C=3"

    def test_csv(self, capsys):
        assert main(["enumerate", "-n", "5", "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["index", "pattern", "direct_modules", "mirror"]
        assert len(rows) == 9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_mirror_column_matches_emp_mirror(self, capsys, n):
        assert main(["enumerate", "-n", str(n), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["mirror"] for r in rows] == [
            pattern_label(mirror_pattern(p, n)) for p in enumerate_minimal(n)
        ]


class TestRank:
    def test_single_pattern_payload(self, capsys, net3):
        code = main(["rank", "--network", str(net3), "--emp", "B=1;C=2,3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pattern"] == "B=1;C=2,3"
        assert payload["criterion"]["trace"] > 0
        assert payload["direct_modules"] == [1]
        assert len(payload["block_traces"]) == 2

    def test_pattern_variance_override(self, capsys, net3):
        base = ["rank", "--network", str(net3), "--emp"]
        main(base + ["B=1;C=2,3"])
        t0 = json.loads(capsys.readouterr().out)["criterion"]["trace"]
        main(base + ["B=1;C=2,3;sigma2=4.0"])
        t1 = json.loads(capsys.readouterr().out)["criterion"]["trace"]
        assert t1 == pytest.approx(t0 / 4.0, rel=1e-9)

    def test_full_ranking_table(self, capsys, net4):
        assert main(["rank", "--network", str(net4)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if not l.startswith("note:")]
        assert len(lines) == 5
        # balanced pattern ranks first for an identical chain at one profile
        assert lines[1].startswith("B=1,2;C=3,4")

    def test_out_files_and_manifest(self, tmp_path, capsys, net4):
        for criterion in ("trace", "logdet"):
            outdir = tmp_path / criterion
            base = ["rank", "--network", str(net4), "--criterion", criterion]
            assert main(base + ["--out", str(outdir)]) == 0
            capsys.readouterr()
            manifest_line, rows = (outdir / "ranking.csv").read_text().split("\n", 1)
            assert manifest_line == "# manifest: ranking.json"
            doc = json.loads((outdir / "ranking.json").read_text())
            assert doc["manifest"]["tool"] == "emprank"
            assert doc["manifest"]["subcommand"] == "rank"
            assert doc["manifest"]["config"] == {"network": str(net4), "criterion": criterion}
            assert len(doc["ranking"]) == 4
            # the files hold what --format csv / json print
            assert main(base + ["--format", "csv"]) == 0
            assert capsys.readouterr().out == rows
            assert main(base + ["--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == doc["ranking"]

    def test_check_theorems_passes(self, capsys, net4):
        assert main(["rank", "--network", str(net4), "--check-theorems"]) == 0
        out = capsys.readouterr().out
        assert "hypotheses (identical modules, uniform variances): met" in out
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    def test_non_informative_pattern_fails(self, tmp_path, capsys):
        path = tmp_path / "dead.json"
        path.write_text(
            json.dumps(
                {"modules": [{"family": "first_order", "theta": [0.3, 0.0]}]}
            )
        )
        code = main(["rank", "--network", str(path), "--emp", "B=1;C=2"])
        assert code == 3
        assert "non-informative" in capsys.readouterr().err


class TestMonteCarlo:
    def scenario(self, tmp_path, **kw):
        cfg = {"n": 3, "family": "first_order", "runs": 12, "identical": True}
        cfg.update(kw)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_and_outputs(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, master_seed=3)
        outdir = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(cfg), "--out", str(outdir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "12 informative runs" in out
        rows = list(
            csv.reader(
                l
                for l in (outdir / "scenario_report.csv").read_text().splitlines()
                if not l.startswith("#")
            )
        )
        assert rows[0] == ["pattern", "count", "percent"]
        assert sum(int(r[1]) for r in rows[1:]) == 12
        doc = json.loads((outdir / "scenario_report.json").read_text())
        assert doc["manifest"]["master_seed"] == 3
        assert doc["manifest"]["outputs"] == [str(outdir / "scenario_report.csv"), str(outdir / "scenario_report.json")]
        assert doc["report"]["n_informative_runs"] == 12
        report = doc["report"]
        assert rows[1:] == [
            [p, str(c), repr(q)] for p, c, q in zip(report["patterns"], report["counts"], report["percentages"])
        ]

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, master_seed=8)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["montecarlo", "--config", str(cfg), "--out", str(d1)])
        main(["montecarlo", "--config", str(cfg), "--out", str(d2)])
        capsys.readouterr()
        assert (d1 / "scenario_report.csv").read_bytes() == (
            d2 / "scenario_report.csv"
        ).read_bytes()

    def test_runs_and_seed_overrides(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path)
        outdir = tmp_path / "mc"
        code = main(
            [
                "montecarlo",
                "--config",
                str(cfg),
                "--runs",
                "5",
                "--seed",
                "42",
                "--out",
                str(outdir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads((outdir / "scenario_report.json").read_text())
        assert doc["report"]["config"]["runs"] == 5
        assert doc["report"]["config"]["master_seed"] == 42

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = self.scenario(tmp_path, family="arma")
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_every_run_rejected(self, tmp_path, capsys):
        # a x 10 puts the pole of module 1 outside the unit circle in every draw
        cfg = self.scenario(tmp_path, runs=4, perturbation={"module": 1, "factor": 10})
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 informative runs; all 4 runs rejected" in out
        assert "best" not in out


class TestValidate:
    def test_reliable_check(self, capsys, fir2):
        code = main(
            [
                "validate",
                "--network",
                str(fir2),
                "--emp",
                "B=1;C=2",
                "-N",
                "600",
                "--replications",
                "40",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reliable"] is True
        assert payload["failed_fits"] == 0
        assert payload["rel_deviation"] < 0.6

    def test_seed_defaults_to_zero(self, capsys, fir2):
        code = main(
            [
                "validate",
                "--network",
                str(fir2),
                "--emp",
                "B=1;C=2",
                "-N",
                "600",
                "--replications",
                "40",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0

    def test_replication_floor_rejected(self, fir2):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "validate",
                    "--network",
                    str(fir2),
                    "--emp",
                    "B=1;C=2",
                    "--replications",
                    "10",
                ]
            )
        assert exc.value.code == 2

    def test_sample_floor_rejected(self, fir2, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "validate",
                    "--network",
                    str(fir2),
                    "--emp",
                    "B=1;C=2",
                    "-N",
                    "50",
                ]
            )
        assert exc.value.code == 2
        assert "--samples must exceed the transient cut of 50" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_network_file(self, tmp_path, capsys):
        code = main(["rank", "--network", str(tmp_path / "nope.json")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["rank", "--network", str(path)]) == 2

    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100000], ids=["not-utf8", "too-deep"])
    def test_unparsable_network_file(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["rank", "--network", str(path)]) == 2
        assert f"configuration error: network file {path} is not valid JSON" in capsys.readouterr().err

    def test_node_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad_n.json"
        path.write_text(
            json.dumps({"n": 5, "modules": [{"family": "fir", "theta": [1.0]}]})
        )
        assert main(["rank", "--network", str(path)]) == 2
        assert "n=5" in capsys.readouterr().err

    def test_unstable_network(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(
            json.dumps({"modules": [{"family": "first_order", "theta": [1.5, 1.0]}]})
        )
        assert main(["rank", "--network", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_pattern_literal(self, capsys, net3):
        assert main(["rank", "--network", str(net3), "--emp", "B=1"]) == 2
        assert main(["rank", "--network", str(net3), "--emp", "B=1;C=9"]) == 2
        assert main(["rank", "--network", str(net3), "--emp", "B=1;C=2,3;sigma2=1,2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "literal, message",
        [("B=1,1,2;C=3;sigma2=1,5,7", "B lists node 1 twice"), ("B=1,2;C=3,3", "C lists node 3 twice")],
        ids=["excited", "measured"],
    )
    def test_node_listed_twice_in_pattern_literal(self, capsys, net3, literal, message):
        assert main(["rank", "--network", str(net3), "--emp", literal]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_unknown_criterion(self, capsys, net3):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--network", str(net3), "--criterion", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_zero_lambda_in_pattern_literal(self, capsys, net3):
        assert main(["rank", "--network", str(net3), "--emp", "B=1;C=2,3;lambda=0"]) == 2
        assert "lambda at measured node 2 must be positive" in capsys.readouterr().err

    def test_zero_lambda_at_later_measured_node(self, capsys, net3):
        code = main(
            ["validate", "--network", str(net3), "--emp", "B=1;C=2,3;lambda=0.1,0", "--replications", "30"]
        )
        assert code == 2
        assert "lambda at measured node 3 must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "literal", ["B=1;C=3;lambda=nan", "B=1;C=3;sigma2=inf"], ids=["nan-lambda", "infinite-sigma2"]
    )
    def test_non_finite_variance_in_pattern_literal(self, capsys, net3, literal):
        assert main(["rank", "--network", str(net3), "--emp", literal]) == 2
        assert "configuration error: " in capsys.readouterr().err

    def test_overflowing_default(self, tmp_path, capsys):
        # JSON reads 1e400 as inf
        path = tmp_path / "defaults.json"
        path.write_text('{"modules": [{"family": "fir", "theta": [1.0]}], "defaults": {"sigma2": 1e400}}')
        assert main(["rank", "--network", str(path)]) == 2
        assert "configuration error: defaults" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defaults, message",
        [({"lambda": 0}, "must be positive"), ({"sigma2": "abc"}, "bad defaults"), ({"sigma2": True}, "bad defaults")],
        ids=["zero-lambda", "non-numeric-sigma2", "boolean-sigma2"],
    )
    def test_bad_defaults(self, tmp_path, capsys, defaults, message):
        path = tmp_path / "defaults.json"
        path.write_text(
            json.dumps({"modules": [{"family": "fir", "theta": [1.0]}] * 2, "defaults": defaults})
        )
        assert main(["rank", "--network", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "validate"])
    def test_empty_module_list(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"modules": []}))
        argv = [command, "--network", str(path)] + (["--emp", "B=1;C=2"] if command == "validate" else [])
        assert main(argv) == 2
        assert "configuration error: network file" in capsys.readouterr().err

    def scenario_error(self, tmp_path, capsys, config):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path)]) == 2
        return capsys.readouterr().err

    def test_scenario_not_an_object(self, tmp_path, capsys):
        err = self.scenario_error(tmp_path, capsys, [1, 2])
        assert "configuration error: scenario config must be a JSON object" in err

    def test_non_integer_node_count(self, tmp_path, capsys):
        err = self.scenario_error(tmp_path, capsys, {"n": 3.5, "family": "first_order", "runs": 2})
        assert "configuration error: bad scenario config: n must be an integer" in err

    def test_negative_master_seed(self, tmp_path, capsys):
        cfg = {"n": 3, "family": "first_order", "runs": 2, "master_seed": -1}
        err = self.scenario_error(tmp_path, capsys, cfg)
        assert "configuration error: bad scenario config: master_seed must be >= 0" in err

    @pytest.mark.parametrize(
        "family, param",
        [("first_order", 7), ("second_order", 7), ("fir_butterworth", 11)],
        ids=["first_order", "second_order", "fir_butterworth"],
    )
    def test_perturbation_param_beyond_module(self, tmp_path, capsys, family, param):
        cfg = {"n": 3, "family": family, "runs": 2, "perturbation": {"module": 1, "param": param}}
        err = self.scenario_error(tmp_path, capsys, cfg)
        assert f"configuration error: bad scenario config: perturbation parameter {param} outside {family}" in err

    @pytest.mark.parametrize(
        "perturbation, message",
        [
            ({"module": 1.9, "param": 1.7}, "perturbation module must be an integer, got 1.9"),
            ({"module": 1, "param": 1.7}, "perturbation param must be an integer, got 1.7"),
            ({"module": 1, "factor": "ten"}, "perturbation factor must be a number, got 'ten'"),
            ({"module": 1, "factor": float("inf")}, "perturbation factor must be finite, got inf"),
            ({"module": True}, "perturbation module must be an integer, got True"),
            ({"module": 1, "param": False}, "perturbation param must be an integer, got False"),
            ({"module": 1, "factor": True}, "perturbation factor must be a number, got True"),
        ],
        ids=["module", "param", "factor", "infinite-factor", "boolean-module", "boolean-param", "boolean-factor"],
    )
    def test_malformed_perturbation(self, tmp_path, capsys, perturbation, message):
        cfg = {"n": 3, "family": "first_order", "runs": 2, "perturbation": perturbation}
        err = self.scenario_error(tmp_path, capsys, cfg)
        assert f"configuration error: bad scenario config: {message}" in err

    @pytest.mark.parametrize("field, value", [("runs", True), ("master_seed", False)])
    def test_boolean_count(self, tmp_path, capsys, field, value):
        cfg = {"n": 3, "family": "first_order", "runs": 2, field: value}
        err = self.scenario_error(tmp_path, capsys, cfg)
        assert f"configuration error: bad scenario config: {field} must be an integer, got {value}" in err
        assert not (tmp_path / "scenario_report.json").exists()

    def test_boolean_theta(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"modules": [{"family": "first_order", "theta": [True, 0.5]}]}))
        assert main(["rank", "--network", str(path)]) == 2
        assert "configuration error: bad module list" in capsys.readouterr().err

    def test_non_boolean_identical(self, tmp_path, capsys):
        cfg = {"n": 3, "family": "first_order", "runs": 2, "identical": "yes"}
        err = self.scenario_error(tmp_path, capsys, cfg)
        assert "configuration error: bad scenario config: identical must be true or false, got 'yes'" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_floor(self, tmp_path, capsys, threads):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n": 3, "family": "first_order", "runs": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--config", str(path), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_enumerate_too_few_nodes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-n", "1"])
        assert exc.value.code == 2
        assert "-n must be at least 2" in capsys.readouterr().err

    def test_enumerate_too_many_nodes(self, capsys):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-n", "40"])
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.code == 2
        assert "-n must be at least 2 and at most 16" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "validate"])
    def test_network_beyond_node_limit(self, tmp_path, capsys, command):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"modules": [{"family": "first_order", "theta": [0.5, 1.0]}] * 16}))
        argv = [command, "--network", str(path)] + (["--emp", "B=1;C=17"] if command == "validate" else [])
        assert main(argv) == 2
        assert "has 17 nodes; at most 16 are supported" in capsys.readouterr().err

    def test_scenario_beyond_node_limit(self, tmp_path, capsys):
        err = self.scenario_error(tmp_path, capsys, {"n": 40, "family": "first_order", "runs": 2})
        assert "bad scenario config: selection experiments need at least 3 nodes and at most 16, got 40" in err

    def test_slow_decaying_module(self, tmp_path):
        # pole radius 1 - 1e-5: the Grams would need a grid past 2^20 points
        path = tmp_path / "slow.json"
        path.write_text(
            json.dumps({"modules": [{"family": "first_order", "theta": [-0.99999, 1.0]}] * 2})
        )
        proc = run_python("-m", "emprank.cli", "rank", "--network", str(path))
        assert proc.returncode == 3
        assert "numerical failure: module 1 decays too slowly (pole radius 0.99999)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "emprank" in capsys.readouterr().out


def test_cli_import_leaves_out_scipy_signal():
    proc = run_python("-c", "import sys, emprank.cli; print('scipy.signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
