"""Command-line interface tests: flows and exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import aerowrench.cli as cli
import aerowrench.config as cfgm
import aerowrench.estimation as est


def run_main(args):
    return cli.main(args)


class TestRun:
    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_main(["run", "--duration", "1.0", "--seed", "5",
                         "--out", str(out)])
        assert code == 0
        assert (out / "telemetry.csv").exists()
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["seed"] == 5
        assert "qukf" in doc["rmse"] and "ekf" in doc["rmse"]

    def test_jsonl_format_flag(self, tmp_path, capsys):
        out = tmp_path / "o2"
        code = run_main(["run", "--duration", "0.05", "--out", str(out),
                         "--format", "jsonl"])
        assert code == 0
        assert (out / "telemetry.jsonl").exists()
        # The duration prints as given, not rounded to "0.0 s".
        assert "scenario: 0.05 s at dt=0.01" in capsys.readouterr().out

    def test_estimator_subset_flag(self, tmp_path):
        out = tmp_path / "o3"
        code = run_main(["run", "--duration", "0.5", "--out", str(out),
                         "--estimators", "ekf"])
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert list(doc["rmse"].keys()) == ["ekf"]

    def test_same_seed_identical_metrics(self, tmp_path):
        texts = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert run_main(["run", "--duration", "1.0", "--seed", "42",
                             "--out", str(out)]) == 0
            texts.append((out / "metrics.json").read_text())
        assert texts[0] == texts[1]


class TestCompare:
    def test_compare_prints_table(self, capsys):
        code = run_main(["compare", "--duration", "1.0", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "channel" in out and "qukf" in out and "ekf" in out
        assert "M_hz_Nm" in out


class TestBench:
    def test_bench_reports_latency_and_fit(self, capsys):
        code = run_main(["bench", "--iterations", "10000",
                         "--pads", "0,6,12,18", "--sweep-steps", "40"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # The latency line, one line per dimension, the fit line.
        assert len(lines) == 6
        assert lines[0].startswith("filter step over 10000 iterations: mean ")
        assert " ms, p99 " in lines[0]
        assert [line.split(":")[0] for line in lines[1:5]] == [
            "  error dim %2d" % d for d in (19, 25, 31, 37)]
        assert lines[5].startswith("cubic fit over state dimension: R^2 = ")

    def test_bench_without_fit_prints_the_skip_line(self, capsys):
        assert run_main(["bench", "--pads", "0,6", "--sweep-steps", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[3] == "cubic fit skipped: need at least 4 sweep dimensions"

    @pytest.mark.parametrize("flag, value", [
        ("--pads", "0,a"), ("--pads", "0,-5"), ("--pads", "0,0,0,0"),
        ("--sweep-steps", "0"), ("--iterations", "9999"), ("--iterations", "0")])
    def test_bad_sweep_argument_is_a_usage_error(self, capsys, flag, value):
        # These raised a traceback, printed NaN for an empty sweep, fit a
        # cubic to repeated dimensions (a RankWarning and R^2 = 0), or
        # silently timed 10000 iterations in place of fewer.
        with pytest.raises(SystemExit) as exc:
            run_main(["bench", flag, value])
        assert exc.value.code == 2
        assert "argument %s" % flag in capsys.readouterr().err

    def test_sweep_reverses_the_pad_order_every_other_round(self, monkeypatch):
        # Each turn follows its own pad's or a neighbour's, never the
        # widest pad's turn followed by the narrowest's.
        calls = []

        class Recorder:
            params = cli.dyn.SystemParams()

            def __init__(self, pad):
                self.pad = pad

            def step(self, u, meas):
                calls.append(self.pad)

        monkeypatch.setattr(cli, "_bench_ukf", lambda pad, cfg: Recorder(pad))
        cli._step_times([0, 20, 40], 3 * cli.SWEEP_TURN, None)
        turns = [0, 20, 40, 40, 20, 0, 0, 20, 40]
        assert calls == [pad for pad in turns for _ in range(cli.SWEEP_TURN)]

    def test_bench_ukf_takes_config_scaling(self, tmp_path):
        path = tmp_path / "scaled.yaml"
        path.write_text("filter:\n  phi: 1.5\n  gamma: 1.0\n  sigma: 2.0\n")
        f = cli._bench_ukf(0, cfgm.parse_config(path))
        eta, w_mean, w_cov = est.ut_weights(f.n, 1.5, 1.0, 2.0)
        assert f.eta == eta
        assert np.array_equal(f.w_mean, w_mean) and np.array_equal(f.w_cov, w_cov)


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run:\n  seed: [unclosed\n")
        assert run_main(["run", "--config", str(bad),
                         "--out", str(tmp_path)]) == cli.EXIT_PARSE

    def test_unknown_key_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad2.yaml"
        bad.write_text("filter:\n  delt: 3\n")
        assert run_main(["run", "--config", str(bad),
                         "--out", str(tmp_path)]) == cli.EXIT_PARSE

    def test_falsy_section_is_2(self, tmp_path, capsys):
        bad = tmp_path / "zero.yaml"
        bad.write_text("system: 0\n")
        assert run_main(["run", "--config", str(bad),
                         "--out", str(tmp_path)]) == cli.EXIT_PARSE
        assert "section 'system' must be a mapping" in capsys.readouterr().err

    def test_validation_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad3.yaml"
        bad.write_text("system:\n  mass: -2.0\n")
        assert run_main(["run", "--config", str(bad),
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION

    def test_negative_seed_is_3(self, tmp_path, capsys):
        # From the flag or from the file, a seed numpy cannot take is a
        # validation error naming run.seed, not a traceback.
        assert run_main(["run", "--seed", "-1", "--duration", "0.5",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "run.seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        cfg = tmp_path / "neg.yaml"
        cfg.write_text("run:\n  seed: -2\n")
        assert run_main(["run", "--config", str(cfg), "--duration", "0.5",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "run.seed must be a nonnegative integer, got -2" in capsys.readouterr().err

    def test_empty_estimators_is_3(self, tmp_path, capsys):
        # An empty flag names no filter; it is not an absent flag.
        assert run_main(["run", "--estimators", "", "--duration", "0.5",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "run.estimators must be a nonempty subset" in capsys.readouterr().err

    @pytest.mark.parametrize("text, shown", [
        (".inf", "inf"), (".nan", "nan"), ("0", "0.0"), ("-0.01", "-0.01")])
    def test_bad_step_is_3(self, tmp_path, capsys, text, shown):
        cfg = tmp_path / "step.yaml"
        cfg.write_text("run:\n  t_step: %s\n" % text)
        assert run_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "invalid configuration:\n"
            "  - run.t_step must be positive and finite, got %s\n" % shown)

    @pytest.mark.parametrize("text, code, shown", [
        ("system:\n  alloc_weights: [.nan, 1, 1, 1, 1, 1, 1, 1]\n",
         cli.EXIT_VALIDATION, "system.alloc_weights"),
        ("filter:\n  delta: .inf\n", cli.EXIT_VALIDATION, "filter.delta"),
        ("filter:\n  r_diag: [.inf, 1, 1, 1, 1, 1, 1, 1, 1]\n",
         cli.EXIT_VALIDATION, "filter.r_diag"),
        ("profile:\n  segments:\n    - {start: 0.5, end: 2.0, ramp: .nan}\n",
         cli.EXIT_VALIDATION, "profile.segments[0].ramp"),
        ("run:\n  t_step: 1.0e-300\n", cli.EXIT_VALIDATION,
         "run.duration / run.t_step must be at most"),
        ("run:\n  seed: true\n", cli.EXIT_PARSE, "run.seed"),
        ("filter:\n  phi: yes\n", cli.EXIT_PARSE, "filter.phi"),
        ("filter:\n  phi: 1.0e-200\n", cli.EXIT_VALIDATION, "filter.phi"),
        ("filter:\n  phi: 1.0e+200\n", cli.EXIT_VALIDATION, "filter.phi"),
        ("system:\n  alloc_weights: [1.0e-200, 1, 1, 1, 1, 1, 1, 1]\n",
         cli.EXIT_VALIDATION, "system.alloc_weights"),
        ("admittance:\n  m_v: [[1.0e-300, 0, 0], [0, 1, 0], [0, 0, 1]]\n",
         cli.EXIT_VALIDATION, "admittance.m_v"),
        ("profile:\n  segmnts: []\n", cli.EXIT_PARSE,
         "unknown key 'profile.segmnts'"),
        ("profile:\n  segments: 3\n", cli.EXIT_PARSE,
         "profile.segments must be a list"),
        ("filter:\n  delta: 1.0e+300\n", cli.EXIT_VALIDATION, "filter.delta"),
        ("filter:\n  gamma: 1.0e+300\n", cli.EXIT_VALIDATION, "filter.gamma"),
        ("filter:\n  q_diag: [%s]\n  r_diag: [%s]\n  p0_diag: [%s]\n"
         % (", ".join("0" * 19), ", ".join("0" * 9), ", ".join("0" * 19)),
         cli.EXIT_VALIDATION, "filter.sigma, filter.delta: ekf fails its first"
         " step from hover: innovation covariance is not positive definite")])
    def test_bad_number_is_named(self, tmp_path, capsys, text, code, shown):
        # Each ran before: into a traceback (among them phi, whose square
        # underflows or overflows in the sigma-point weights, a weight whose
        # square underflows in the allocation, and an m_v whose inverse
        # overflows the admittance map's expm), a filter failure at step 0
        # (delta and gamma, with numpy's warnings on stderr, and all-zero
        # noise and initial covariance), a filter divergence, or (the NaN
        # ramp and the booleans) silently with another value. The two
        # profile parse errors name the key or the list.
        cfg = tmp_path / "num.yaml"
        cfg.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_main(["run", "--config", str(cfg), "--duration", "1.0",
                             "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert shown in err and "Traceback" not in err
        assert not caught, [str(w.message) for w in caught]

    def test_collapsed_sigma_spread_is_3(self, tmp_path, capsys):
        # 19 + sigma <= 0 collapses the sigma-point spread; validation
        # names the field instead of failing inside the filter.
        bad = tmp_path / "bad4.yaml"
        bad.write_text("filter:\n  sigma: -19\n")
        assert run_main(["run", "--config", str(bad), "--duration", "0.5",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "filter.sigma" in capsys.readouterr().err

    def test_estimators_override_is_validated(self, tmp_path, capsys):
        # The config's EKF never reads phi; --estimators adds the QUKF,
        # whose weights phi = 1e-200 collapses, and validation names it.
        cfg = tmp_path / "ekf.yaml"
        cfg.write_text("filter:\n  phi: 1.0e-200\nrun:\n  estimators: [ekf]\n")
        assert run_main(["run", "--config", str(cfg), "--duration", "0.5",
                         "--estimators", "qukf,ekf",
                         "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert "filter.phi" in capsys.readouterr().err

    def test_divergence_is_4(self, tmp_path, capsys):
        cfg = tmp_path / "boom.yaml"
        cfg.write_text(
            "profile:\n  segments:\n"
            "    - {start: 0.0, end: 5.0, force: [1.0e9, 0.0, 0.0]}\n"
            "run:\n  duration: 3.0\n")
        assert run_main(["run", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_DIVERGENCE

    def test_singular_innovation_is_4(self, tmp_path, capsys):
        # Zero process and measurement noise pass validation (the QUKF's
        # first step from hover works), but an exact measurement leaves
        # the observed block of P at zero (to rounding), so the next
        # update has a singular innovation covariance: one line on stderr
        # naming the filter and the step, no traceback.
        cfg = tmp_path / "zero.yaml"
        cfg.write_text("filter:\n  q_diag: [%s]\n  r_diag: [%s]\n"
                       "run:\n  estimators: [qukf]\n"
                       % (", ".join(["0.0"] * 19), ", ".join(["0.0"] * 9)))
        assert run_main(["run", "--config", str(cfg), "--duration", "0.5",
                         "--out", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "estimator failure: qukf failed at step 1: "
            "innovation covariance is not positive definite\n")

    def test_overflowing_spread_is_4_without_warnings(self, tmp_path, capsys):
        # sigma = 1e300 passes validation's first step, then overflows the
        # sigma-point covariance. The divergence check names the filter,
        # the step and the component; numpy's overflow and invalid-value
        # warnings no longer precede that line.
        cfg = tmp_path / "spread.yaml"
        cfg.write_text("filter:\n  sigma: 1.0e+300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_main(["run", "--config", str(cfg), "--duration", "0.05",
                             "--out", str(tmp_path)]) == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("divergence: qukf diverged at step 2: ")
        assert err.count("\n") == 1
        assert not caught, [str(w.message) for w in caught]

    def test_io_error_is_5(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # --out points at an existing regular file: directory creation fails
        assert run_main(["run", "--duration", "0.5",
                         "--out", str(blocker)]) == cli.EXIT_IO


class TestImportGraph:
    def test_run_path_loads_no_scipy(self):
        # The package's start-up time is mostly its import graph; scipy is a
        # test-only dependency and must not come back onto the run path.
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        code = ("import sys\n"
                "import aerowrench.cli\n"
                "from aerowrench import simulation as sim\n"
                "run = sim.run_scenario(duration=0.05, seed=0)\n"
                "assert len(run.t) == 5, len(run.t)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
