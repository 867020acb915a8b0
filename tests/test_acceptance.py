"""Release gate: ten end-to-end checks, one summary line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
table as it streams; without ``-s`` the lines still appear in the report
of any failing check. Each check states its bound and the measured value.
"""

import math
import time

import numpy as np
import scipy.linalg

import aerowrench.cli as cli
import aerowrench.config as cfgmod
import aerowrench.dynamics as dyn
import aerowrench.estimation as est
import aerowrench.quat as qt
import aerowrench.simulation as sim

N_CASES = 10_000


def report(num, name, ok, detail=""):
    line = "[%2d] %-36s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def random_unit_quat(rng):
    return qt.quat_normalize(rng.normal(size=4))


def test_01_quaternion_algebra():
    # Homomorphism, double cover, perturbation round trips and SO(3)
    # membership, each over fresh random inputs. One shared loop keeps the
    # runtime measurement honest about the full case count.
    rng = np.random.default_rng(101)
    worst = {"hom": 0.0, "cover": 0.0, "round": 0.0, "so3": 0.0}
    tic = time.perf_counter()
    for _ in range(N_CASES):
        q1 = random_unit_quat(rng)
        q2 = random_unit_quat(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        p = axis * rng.uniform(1e-6, 3.1)

        r1 = qt.quat_to_rot(q1)
        worst["hom"] = max(worst["hom"], np.abs(
            qt.quat_to_rot(qt.quat_mul(q1, q2)) - r1 @ qt.quat_to_rot(q2)).max())
        worst["cover"] = max(worst["cover"], np.abs(qt.quat_to_rot(-q1) - r1).max())
        worst["round"] = max(
            worst["round"],
            np.abs(qt.quat_diff(qt.oplus(q1, p), q1) - p).max(),
            np.abs(qt.ominus_vec(qt.oplus(q1, p), p) - q1).max(),
            np.abs(qt.rot_to_quat(r1) - qt.quat_canonical(q1)).max())
        worst["so3"] = max(worst["so3"],
                           np.abs(r1.T @ r1 - np.eye(3)).max(),
                           abs(np.linalg.det(r1) - 1.0))
    elapsed = time.perf_counter() - tic
    bad = max(worst.values())
    report(1, "quaternion algebra suite",
           bad < 1e-9 and elapsed < 10.0,
           "worst residual %.2e, %d cases in %.2f s" % (bad, N_CASES, elapsed))


def test_02_compact_model_consistency():
    # The applied wrench must be recoverable from the compact matrices and
    # the accelerations the full derivative produces, for arbitrary states.
    rng = np.random.default_rng(202)
    p = dyn.SystemParams()
    worst = 0.0
    for _ in range(N_CASES):
        s = dyn.BodyState(q=random_unit_quat(rng), r=rng.normal(size=3),
                          v=rng.normal(size=3), omega=rng.normal(size=3))
        u = dyn.ControlInput(thrust=rng.uniform(0.0, 40.0),
                             moments=rng.normal(size=3))
        tau = rng.normal(size=6)
        d = dyn.system_derivative(s, u, tau, p)
        m, g, w = dyn.compact_matrices(s.q, s.omega, p)
        rec = m @ d[7:13] + g + w @ u.as_vector()
        worst = max(worst, np.abs(rec - tau).max())
    report(2, "compact-model wrench recovery", worst < 1e-9,
           "worst residual %.2e over %d states" % (worst, N_CASES))


def test_03_allocation_optimality():
    p = dyn.SystemParams()
    c = dyn.build_config_matrix(p)
    basis = scipy.linalg.null_space(c)
    lam = p.alloc_weights
    rng = np.random.default_rng(303)
    worst_res = 0.0
    margin = np.inf
    trials = 0
    for _ in range(100):
        demand = rng.normal(size=4) * np.array([10.0, 1.0, 1.0, 1.0])
        u_star = dyn.allocate(demand, p)
        worst_res = max(worst_res, np.linalg.norm(c @ u_star - demand))
        cost = np.linalg.norm(lam * u_star)
        for _ in range(100):
            alt = u_star + basis @ rng.normal(size=basis.shape[1])
            margin = min(margin, np.linalg.norm(lam * alt) - cost)
            trials += 1
    report(3, "allocation optimality", trials == N_CASES
           and worst_res < 1e-9 and margin > 0.0,
           "constraint residual %.2e, smallest cost margin %.2e over %d"
           % (worst_res, margin, trials))


def test_04_observer_decay_rates():
    # Observer error about its fixed point decays channel-wise at
    # delta / M_ii. The state is held (counteracted flight), so the fixed
    # point is constant and each channel is exactly exponential; the rates
    # come from log-linear fits.
    p = dyn.SystemParams()
    s = dyn.BodyState(q=qt.rotvec_to_quat(np.array([0.2, -0.1, 0.3])),
                      r=np.zeros(3), v=np.array([0.3, -0.2, 0.1]),
                      omega=np.array([0.1, 0.2, -0.1]))
    u = dyn.ControlInput(thrust=20.0, moments=np.array([0.1, -0.05, 0.02]))
    _, g, w = dyn.compact_matrices(s.q, s.omega, p)
    ups_star = g + w @ u.as_vector() - p.delta * np.concatenate([s.v, s.omega])

    h = 1e-4
    steps = 2500
    ups = ups_star + np.ones(6)
    errs = np.empty((steps + 1, 6))
    errs[0] = 1.0
    for k in range(steps):
        k1 = dyn.observer_derivative(ups, s, u, p)
        k2 = dyn.observer_derivative(ups + 0.5 * h * k1, s, u, p)
        k3 = dyn.observer_derivative(ups + 0.5 * h * k2, s, u, p)
        k4 = dyn.observer_derivative(ups + h * k3, s, u, p)
        ups = ups + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        errs[k + 1] = ups - ups_star

    t = np.arange(steps + 1) * h
    target = np.diag(p.observer_gain_matrix())
    rel = np.empty(6)
    for i in range(6):
        keep = np.abs(errs[:, i]) > 1e-10
        slope = np.polyfit(t[keep], np.log(np.abs(errs[keep, i])), 1)[0]
        rel[i] = abs(-slope / target[i] - 1.0)
    report(4, "observer decay rates", np.max(rel) < 0.01,
           "rates %s 1/s, worst mismatch %.3f%%"
           % (np.array2string(target, precision=2), 100 * np.max(rel)))


def _linear_reference(steps, z_seq, dt=0.01):
    # Textbook linear Kalman recursion for the position/velocity block with
    # process noise off; with zero Q both filters must land on it exactly.
    f6 = np.block([[np.eye(3), dt * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
    h6 = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
    r6 = np.diag([1e-4] * 3)
    x = np.zeros(6)
    p = np.diag([1e-2] * 3 + [3e-2] * 3)
    xs, ps = [], []
    for k in range(steps):
        x = f6 @ x
        p = f6 @ p @ f6.T
        s = h6 @ p @ h6.T + r6
        k_g = p @ h6.T @ np.linalg.inv(s)
        x = x + k_g @ (z_seq[k] - h6 @ x)
        p = p - k_g @ s @ k_g.T
        xs.append(x.copy())
        ps.append(p.copy())
    return xs, ps


def test_05_linear_filter_equivalence():
    steps = 100
    z_seq = [np.array([0.05 * math.sin(0.3 * k), 0.02 * k * 0.01, -0.03])
             for k in range(steps)]
    ref_x, ref_p = _linear_reference(steps, z_seq)

    diag = np.zeros(19)
    diag[3:6] = 1e-2
    diag[6:9] = 3e-2
    nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=est.DEFAULT_R_DIAG.copy())
    ukf = est.QuaternionUkf(noise=nc, p0_diag=diag)
    ekf = est.ExtendedKalman(noise=nc, p0_diag=diag)
    u = dyn.ControlInput.hover(ukf.params)
    dev_u = dev_e = 0.0
    for k in range(steps):
        m = est.Measurement(q=qt.quat_identity(), r=z_seq[k].copy(),
                            omega=np.zeros(3))
        ukf.step(u, m)
        ekf.step(u, m)
        dev_u = max(dev_u, np.abs(ukf.x[4:10] - ref_x[k]).max(),
                    np.abs(ukf.P[3:9, 3:9] - ref_p[k]).max())
        dev_e = max(dev_e, np.abs(ekf.x[4:10] - ref_x[k]).max(),
                    np.abs(ekf.P[4:10, 4:10] - ref_p[k]).max())
    report(5, "linear filter equivalence", max(dev_u, dev_e) < 1e-9,
           "max deviation qukf %.2e, ekf %.2e over %d steps"
           % (dev_u, dev_e, steps))


def test_06_stiff_channel_discretization():
    p = dyn.SystemParams()
    a = float(np.max(np.diag(p.observer_gain_matrix())))
    assert abs(a - 1180.33) < 0.01

    dt = 0.01
    ctx = dyn.TransitionContext(p, dt)
    x0 = np.concatenate([dyn.BodyState.hover().as_vector(), np.zeros(6), [1.0]])
    x1 = x0.copy()
    x1[17] += 1.0  # pitch-torque observer channel, the fast one
    xs = np.stack([x0, x1])
    u = np.array([p.mass * p.gravity, 0.0, 0.0, 0.0])
    peak = 0.0
    first_ratio = None
    d_prev = 1.0
    for _ in range(100):
        xs = dyn.propagate_batch(xs, u, ctx)
        d = abs(xs[1, 17] - xs[0, 17])
        if first_ratio is None:
            first_ratio = d / d_prev
        peak = max(peak, d)

    e = 1.0
    for _ in range(100):
        e = (1.0 - a * dt) * e
    euler = abs(e)

    exact_ok = peak <= 1.0 and abs(first_ratio - math.exp(-a * dt)) < 1e-9
    report(6, "stiff channel discretization", exact_ok and euler > 1e6,
           "closed form contracts x%.2e per step, forward Euler reaches %.1e"
           % (first_ratio, euler))


def test_07_comparative_rmse_ordering():
    # Twenty seeded closed-loop runs; the manifold filter should be at
    # least as accurate as the additive baseline on the body-rate channels
    # and the yaw-moment channel at the median. The runs are stepped
    # together, as one stack, by run_study, which reproduces run_scenario
    # seed by seed (tests/test_simulation.py::TestRunStudy).
    channels = ("p_radps", "q_radps", "r_radps", "M_hz_Nm")
    seeds = range(20)
    acc = {name: {ch: [] for ch in channels} for name in ("qukf", "ekf")}
    tic = time.perf_counter()
    for run in sim.run_study(seeds, duration=70.0):
        rep = sim.compute_metrics(run)
        for name in acc:
            for ch in channels:
                acc[name][ch].append(rep.rmse[name][ch])
    elapsed = time.perf_counter() - tic

    gains = []
    ordered = True
    for ch in channels:
        med_q = float(np.median(acc["qukf"][ch]))
        med_e = float(np.median(acc["ekf"][ch]))
        ordered = ordered and med_q <= med_e
        gains.append("%s %+.2f%%" % (ch, 100.0 * (med_e - med_q) / med_e))
    report(7, "comparative accuracy ordering", ordered and elapsed < 120.0,
           "median gain " + ", ".join(gains) + "; %.1f s wall" % elapsed)


def test_08_step_force_convergence_time():
    # A single sharp 2 N force step; the estimate must enter and hold the
    # 5% settling band within 0.675 s.
    profile = sim.ForceProfile(segments=(
        sim.ForceSegment(start=2.0, end=10.0, force=np.array([2.0, 0.0, 0.0])),))
    run = sim.run_scenario(profile, duration=12.0, seed=0)
    t_c = sim.compute_metrics(run).convergence_time_s["qukf"]["F_hx_N"]
    report(8, "step force convergence time",
           t_c is not None and t_c <= 0.675,
           "t_c = %s against bound 0.675 s"
           % ("never settles" if t_c is None else "%.3f s" % t_c))


def test_09_step_latency_and_scaling():
    cfg = cfgmod.ScenarioConfig()
    times = cli._step_times([0], N_CASES, cfg)[0]
    mean_ms = float(times.mean()) * 1e3

    # The pads are timed in interleaved turns (see cli._bench_sweep).
    _, _, r2 = cli._bench_sweep((0, 20, 40, 60, 80), 200, cfg)
    report(9, "step latency and cubic scaling", mean_ms < 10.0 and r2 > 0.95,
           "mean %.3f ms over %d steps, sweep R^2 %.4f" % (mean_ms, N_CASES, r2))


def test_10_long_run_filter_health():
    # 70 s of tracking a drifting target under measurement noise, with the
    # internals probed every step: quaternion stays unit, covariance stays
    # symmetric PSD, and the innovation statistic stays inside the central
    # 95% interval of chi-square with 9 degrees of freedom.
    p = dyn.SystemParams()
    truth = dyn.BodyState(q=qt.quat_identity(), r=np.zeros(3),
                          v=np.array([0.1, -0.1, 0.05]), omega=np.zeros(3))
    u = dyn.ControlInput.hover(p)
    f = est.QuaternionUkf(initial=truth)
    streams = sim.NoiseStreams(seed=11)
    r_diag = est.DEFAULT_R_DIAG

    steps = 7000
    worst_norm = worst_asym = 0.0
    worst_eig = np.inf
    nis = np.empty(steps)
    x, j_inv = truth.as_vector(), np.linalg.inv(p.inertia)
    for k in range(steps):
        x = dyn.rk4_step(x, u.as_vector(), np.zeros(6), p, 0.01, j_inv)
        f.step(u, sim.inject_noise(dyn.BodyState.from_vector(x), r_diag, streams))
        worst_norm = max(worst_norm, abs(np.linalg.norm(f.x[0:4]) - 1.0))
        worst_asym = max(worst_asym, np.abs(f.P - f.P.T).max())
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(f.P)[0]))
        nis[k] = f.last_nis
    mean_nis = float(nis.mean())

    ok = (worst_norm < 1e-9 and worst_asym < 1e-9 and worst_eig > -1e-9
          and 2.700 <= mean_nis <= 19.023)
    report(10, "long-run filter health", ok,
           "norm drift %.1e, asymmetry %.1e, min eig %.1e, mean NIS %.2f"
           % (worst_norm, worst_asym, worst_eig, mean_nis))
