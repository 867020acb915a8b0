"""Tests of the benchmark itself: tracer patching, self times, checks."""

import math
import pathlib
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aerowrench import dynamics as dyn  # noqa: E402
from aerowrench import estimation as est  # noqa: E402
from aerowrench import simulation as sim  # noqa: E402
from aerowrench import telemetry as tlm  # noqa: E402


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.TARGETS]


def test_install_patches_and_uninstall_restores_every_target():
    before = _originals()
    tracer = tracing.Tracer().install()
    try:
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_restores_after_a_raising_call_and_counts_the_failure():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError):
        with tracer:
            dyn.propagate_batch(np.zeros((2, 3)), np.zeros(4), None)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    sp = tracer.arrays()
    assert sp["failed"].tolist() == [True]
    metrics = tracing.layer_metrics(tracer, [0], [1.0])
    assert metrics["dynamics.failed"][0] == 1.0


def test_spans_nest_under_the_filter_step():
    f = est.QuaternionUkf()
    u = dyn.ControlInput.hover(f.params)
    meas = est.Measurement.from_state(dyn.BodyState.hover())
    tracer = tracing.Tracer()
    with tracer:
        f.step(u, meas)
    names = [tracer.names[i] for i in tracer.name]
    layer_spans = [(n, tracer.parent[i]) for i, n in enumerate(names)
                   if n != "quat.helper"]
    predict, update = names.index("estimation.qukf_predict"), names.index(
        "estimation.qukf_update")
    assert layer_spans == [("estimation.qukf_predict", -1),
                           ("estimation.cov_sqrt", predict),
                           ("dynamics.propagate", predict),
                           ("quat.avg", predict),
                           ("estimation.qukf_update", -1)]
    # The quat helpers the update calls through the quat module are spans
    # of their own, so quat.self_s covers them.
    assert any(n == "quat.helper" and tracer.parent[i] == update
               for i, n in enumerate(names))
    assert tracer.counts[0]["rows"] == 39
    assert tracer.counts[0]["sampled_distinct"] == 37


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    start = [0.0, 1.0, 4.0, 5.0, 20.0]
    end = [10.0, 3.0, 8.0, 6.0, 21.5]
    parent = [-1, 0, 0, 2, -1]
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == [4.0, 2.0, 3.0, 1.0, 1.5]
    # Self times of a tree add up to the duration of its roots.
    assert got.sum() == pytest.approx(10.0 + 1.5)


def test_layer_metrics_account_for_a_traced_scenario():
    tracer = tracing.Tracer()
    tracer.run_id = 1
    with tracer:
        t0 = time.perf_counter()
        run_ = sim.run_scenario(duration=0.05, seed=0)
        sim.compute_metrics(run_)
        wall = time.perf_counter() - t0
    m = tracing.layer_metrics(tracer, [1], [wall])
    assert m["dynamics.rk4_calls"][0] == 5
    assert m["quat.avg_calls"][0] == 5
    assert m["dynamics.propagate_calls"][0] == 10
    assert m["dynamics.propagate_rows"][0] == 5 * (39 + 39)
    assert m["quat.self_s"][0] > m["quat.avg_s"][0] > 0.0
    assert 0.95 < m["trace.accounted_share"][0] <= 1.0
    layers = sum(m["%s.self_s" % layer][0] for layer in tracing.LAYERS)
    assert layers == pytest.approx(m["trace.accounted_share"][0] * wall)


def test_quiet_pools_the_fastest_blocks():
    x = np.full(2000, 2.0)
    x[600:850] = 1.0           # five whole 50-step blocks
    x[900] = 0.5               # one fast step inside a slow block
    got = workloads.quiet(x)
    assert got.shape == (workloads.QUIET_STEPS,)
    assert np.all(got == 1.0)
    short = np.arange(100.0)
    assert np.array_equal(workloads.quiet(short), short)


def test_quiet_wall_scales_the_mean_wall_to_the_quiet_steps():
    steps = np.full(1000, 2.0)
    steps[100:350] = 1.0       # the run's five fastest blocks step twice as fast
    # Mean step 1.75, quiet median 1.0: every wall is scaled by 1/1.75.
    got = workloads.quiet_wall([3.0, 4.0], steps)
    assert got == pytest.approx(3.5 / 1.75)
    # A run that never slows reports its mean wall.
    assert workloads.quiet_wall([3.0, 4.0], np.ones(1000)) == pytest.approx(3.5)


def _table():
    return {"qukf": {"F_hx_N": 0.5, "p_radps": 0.007},
            "ekf": {"F_hx_N": 0.6, "p_radps": 0.008}}


def test_perturbed_rmse_is_flagged():
    ref = _table()
    assert checks.compare_rmse(_table(), ref, "t") == []
    nudged = _table()
    nudged["ekf"]["p_radps"] *= 1.0 + 1e-12
    assert checks.compare_rmse(nudged, ref, "t") == []
    bad = _table()
    bad["qukf"]["F_hx_N"] *= 1.0 + 1e-4
    msgs = checks.compare_rmse(bad, ref, "t")
    assert len(msgs) == 1 and "qukf F_hx_N" in msgs[0]
    del bad["ekf"]
    assert any("filter ekf missing" in m for m in checks.compare_rmse(bad, ref, "t"))


def test_combined_rmse():
    rmse = {"F_hx_N": 3.0, "F_hy_N": 0.0, "F_hz_N": 4.0}
    assert checks.combined(rmse, checks.FORCE_CHANNELS) == pytest.approx(
        math.sqrt(25.0 / 3.0))


def test_invariant_and_roundtrip_checks(tmp_path):
    run_ = sim.run_scenario(duration=0.05, seed=3)
    path = str(tmp_path / "t.csv")
    tlm.write_telemetry(run_, path)
    cols, data = tlm.read_telemetry(path)
    assert checks.check_run(run_, "t") == []
    assert checks.check_roundtrip(run_, cols, data, "t") == []

    data[2, 5] = np.nextafter(data[2, 5], np.inf)
    assert checks.check_roundtrip(run_, cols, data, "t") != []

    run_.tracks["qukf"].states[1, 0:4] *= 1.001
    run_.truth[0, 6] = np.nan
    msgs = checks.check_run(run_, "t")
    assert any("qukf quaternion norm" in m for m in msgs)
    assert any("non-finite values in truth" in m for m in msgs)


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    with pytest.raises(SystemExit) as exc:
        run.load_program()
    assert exc.value.code == 2
