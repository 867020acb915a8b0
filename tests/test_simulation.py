"""Scenario harness tests: profile, admittance, controller, noise, loop, metrics."""

import numpy as np
import pytest

import aerowrench.dynamics as dyn
import aerowrench.estimation as est
import aerowrench.quat as qt
import aerowrench.simulation as sim
from aerowrench.errors import (DegenerateSpectrum, DivergenceDetected,
                               FactorizationFailure, SingularInnovation,
                               ValidationError)


class TestForceProfile:
    def test_eval_inside_outside_and_ramp_midpoint(self):
        p = sim.ForceProfile()
        assert np.array_equal(sim.force_profile_eval(p, 2.0)[:3], np.zeros(3))
        assert np.array_equal(sim.force_profile_eval(p, 10.0)[:3],
                              np.array([2.0, 0.0, 0.0]))
        # halfway up a 1 s ramp toward 2 N
        mid = sim.force_profile_eval(p, 5.5)[:3]
        assert np.allclose(mid, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.array_equal(sim.force_profile_eval(p, 69.0)[3:], np.zeros(3))

    def test_smoothstep_shape(self):
        assert sim.smoothstep(0.0) == 0.0
        assert sim.smoothstep(1.0) == 1.0
        assert sim.smoothstep(0.5) == 0.5
        assert sim.smoothstep(-3.0) == 0.0
        assert sim.smoothstep(7.0) == 1.0

    def test_table_matches_scalar_eval(self):
        p = sim.ForceProfile()
        times = np.arange(0.0, 70.0, 0.37)
        tab = sim._profile_table(p, times)
        for i, t in enumerate(times):
            assert np.array_equal(tab[i], sim.force_profile_eval(p, t))

    def test_validation_aggregates(self):
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(5.0, 3.0),
            sim.ForceSegment(2.0, 6.0, ramp=-1.0),
        ])
        with pytest.raises(ValidationError) as exc:
            prof.validate()
        msg = str(exc.value)
        assert "end must exceed start" in msg
        assert "ramp must be nonnegative" in msg

    def test_touching_hard_steps_do_not_add_up(self):
        # Segments cover [start, end): at the shared instant only the
        # second one acts.
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(0.0, 5.0, force=np.array([1.0, 0.0, 0.0])),
            sim.ForceSegment(5.0, 10.0, force=np.array([2.0, 0.0, 0.0])),
        ]).validate()
        for t, fx in ((4.99, 1.0), (5.0, 2.0), (9.99, 2.0), (10.0, 0.0)):
            assert sim.force_profile_eval(prof, t)[0] == fx, t

    def test_overlap_rejected(self):
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(0.0, 5.0),
            sim.ForceSegment(4.0, 8.0),
        ])
        with pytest.raises(ValidationError, match="overlap"):
            prof.validate()

    def test_default_profile_is_valid(self):
        sim.ForceProfile().validate()


class TestAdmittance:
    def test_terminal_velocity(self):
        # K = 0 with constant force: v -> C^-1 F
        phi = sim.admittance_map(sim.AdmittanceParams(), 0.01)
        z = np.zeros(6)
        tau = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(4000):
            z = sim.admittance_reference(tau, z, phi)
        assert abs(z[3] - 2.0 / 1.59) < 1e-9
        assert abs(z[4]) < 1e-15 and abs(z[5]) < 1e-15

    def test_first_order_velocity_profile_is_exact(self):
        # With K = 0 and M = I each axis is vdot = F - c v, whose exact
        # sampled solution the discretization must reproduce, not approximate.
        phi = sim.admittance_map(sim.AdmittanceParams(), 0.01)
        z = np.zeros(6)
        tau = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        c = 1.59
        for k in range(1, 120):
            z = sim.admittance_reference(tau, z, phi)
            expected = (2.0 / c) * (1.0 - np.exp(-c * k * 0.01))
            assert abs(z[3] - expected) < 1e-12

    def test_damped_oscillator_oracle(self):
        # m zdd + c zd + k z = F has a closed-form underdamped solution;
        # the discrete map must land on it at every sample.
        m, c, k, force = 2.0, 3.0, 4.0, 1.0
        ap = sim.AdmittanceParams(m_v=m * np.eye(3), c_v=c * np.eye(3),
                                  k_v=k * np.eye(3))
        phi = sim.admittance_map(ap, 0.01)
        sigma = -c / (2.0 * m)
        omega = np.sqrt(4.0 * m * k - c * c) / (2.0 * m)
        zp = force / k
        c1 = -zp
        c2 = sigma * zp / omega
        ref = np.zeros(6)
        tau = np.array([force, 0.0, 0.0, 0.0, 0.0, 0.0])
        for step in range(1, 200):
            ref = sim.admittance_reference(tau, ref, phi)
            t = step * 0.01
            env = np.exp(sigma * t)
            z = zp + env * (c1 * np.cos(omega * t) + c2 * np.sin(omega * t))
            zd = (sigma * env * (c1 * np.cos(omega * t) + c2 * np.sin(omega * t))
                  + env * omega * (-c1 * np.sin(omega * t) + c2 * np.cos(omega * t)))
            assert abs(ref[0] - z) < 1e-10
            assert abs(ref[3] - zd) < 1e-10

    def test_stacked_rows_match_lone_bit_for_bit_when_stiff(self):
        # The closed loop's stacks step at k_v = 0 only, where the map's
        # position-to-velocity block is zero. Here every entry of the map's
        # state block is nonzero: with isotropic matrices each row would
        # sum two nonzero terms, which no order of summation can change.
        ap = sim.AdmittanceParams(
            m_v=[[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.8]],
            c_v=[[3.0, 0.5, -0.4], [0.5, 2.5, 0.3], [-0.4, 0.3, 2.0]],
            k_v=[[4.0, -0.7, 0.6], [-0.7, 3.0, 0.2], [0.6, 0.2, 5.0]]).validate()
        phi = sim.admittance_map(ap, 0.01)
        assert np.all(phi[:6, :6] != 0.0)
        rng = np.random.default_rng(5)
        s = 6
        rows = rng.normal(size=(s, 6))
        lone = [row.copy() for row in rows]
        for _ in range(50):
            tau = rng.normal(size=(s, 6)) * 2.0
            rows = sim.admittance_reference(tau, rows, phi)
            lone = [sim.admittance_reference(tau[i], lone[i], phi) for i in range(s)]
            assert rows.shape == (s, 6)
            for i in range(s):
                assert rows[i].tobytes() == lone[i].tobytes()

    def test_validation(self):
        bad = sim.AdmittanceParams(m_v=np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="positive definite"):
            bad.validate()
        asym = sim.AdmittanceParams(c_v=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
        with pytest.raises(ValidationError, match="symmetric"):
            asym.validate()
        sim.AdmittanceParams().validate()


class TestTrackingController:
    def test_hover_equilibrium_is_exact(self):
        p = dyn.SystemParams()
        cmd = sim.tracking_controller(dyn.BodyState.hover().as_vector(),
                                      np.zeros(6), p)
        assert cmd[0] == p.mass * p.gravity
        assert np.array_equal(cmd[1:4], np.zeros(3))

    def test_thrust_clamped_to_limits(self):
        p = dyn.SystemParams()
        far = np.array([1e3, 0.0, 0.0, 0.0, 0.0, 0.0])
        hover = dyn.BodyState.hover().as_vector()
        cmd = sim.tracking_controller(hover, far, p)
        assert cmd[0] <= p.u_max
        rng = np.random.default_rng(4)
        for _ in range(50):
            ref = np.concatenate([rng.normal(size=3) * 10,
                                  rng.normal(size=3) * 5])
            cmd = sim.tracking_controller(hover, ref, p)
            assert 0.0 <= cmd[0] <= p.u_max

    def test_desired_attitude_aligns_thrust_axis(self):
        # The attitude target must rotate the body thrust axis onto the
        # demanded force direction; recover it from the commanded moments
        # at zero rates: moments = J kp_att e  =>  e = (J kp_att)^-1 moments.
        # A wide accel_max tilts the thrust to within 0.01 degree of the
        # horizon.
        p = dyn.SystemParams()
        state = dyn.BodyState.hover()
        wide = sim.ControllerGains(accel_max=np.array([50.0, 50.0, 9.8]))
        cases = [(sim.ControllerGains(), [0.5, -0.3, 0.1]),
                 (sim.ControllerGains(), [-2.0, 3.0, -1.0]),
                 (wide, [1.0, 0.0, 0.0]), (wide, [0.0, -4.0, -1.0]),
                 (wide, [20.0, -20.0, -0.5]), (wide, [-30.0, 5.0, -9.0]),
                 (wide, [0.0, 40.0, -50.0]), (wide, [25.0, 25.0, -50.0])]
        for g, r in cases:
            ref = np.concatenate([r, np.zeros(3)])
            cmd = sim.tracking_controller(state.as_vector(), ref, p, g)
            e = np.linalg.solve(p.inertia * g.kp_att, cmd[1:4])
            q_des = qt.quat_mul(qt.rotvec_to_quat(e), state.q)
            zb = qt.quat_to_rot(q_des) @ np.array([0.0, 0.0, 1.0])
            a = np.clip(g.kp * (ref[0:3] - state.r), -g.accel_max, g.accel_max)
            f = p.mass * (a + p.gravity * np.array([0.0, 0.0, 1.0]))
            assert np.allclose(zb, f / np.linalg.norm(f), atol=1e-12)
            # zero yaw: the target turns about a horizontal axis
            assert abs(q_des[3]) < 1e-15

    def test_stacked_rows_match_lone_bit_for_bit(self):
        # Each row of a stacked call gives the lone call's bytes, on fuzzed
        # states and references and on the edge targets: exact hover, zero
        # thrust and thrust straight down (both keep the identity), and a
        # NaN state.
        p = dyn.SystemParams()
        rng = np.random.default_rng(11)
        s = 40
        x = np.concatenate([qt.quat_normalize(rng.normal(size=(s, 4))),
                            rng.normal(size=(s, 9)) * 2.0,
                            rng.normal(size=(s, 6))], axis=1)
        ref = np.concatenate([rng.normal(size=(s, 3)) * 3.0,
                              rng.normal(size=(s, 3))], axis=1)
        hover = dyn.BodyState.hover().as_vector()
        x[0:4, 0:13] = hover
        ref[0:4] = 0.0
        ref[1:3, 2] = -1e3        # a_z clipped to -accel_max[2]
        x[4, 8] = np.nan
        x[5, 1] = np.nan
        down = [sim.ControllerGains(accel_max=np.array([1.5, 1.5, az]))
                for az in (p.gravity, 2.0 * p.gravity)]
        for g in [sim.ControllerGains()] + down:
            rows = sim.tracking_controller(x, ref, p, g)
            for i in range(s):
                lone = sim.tracking_controller(x[i], ref[i], p, g)
                assert rows[i].tobytes() == lone.tobytes()
        hover_cmd = sim.tracking_controller(x[0], np.zeros(6), p)
        assert hover_cmd.tolist() == [p.mass * p.gravity, 0.0, 0.0, 0.0]
        for g, thrust in zip(down, (0.0, p.mass * p.gravity)):
            cmd = sim.tracking_controller(x[1], ref[1], p, g)
            assert cmd.tolist() == [thrust, 0.0, 0.0, 0.0]
        # A NaN velocity gives f no direction: the thrust clamps and the
        # target is the identity. A NaN attitude spoils the moments.
        assert rows[4, 0] == p.u_max and np.isfinite(rows[4]).all()
        assert np.isnan(rows[5, 1:4]).all()

    def test_closed_loop_holds_hover(self):
        # Noise-free loop must keep the hover within 1 cm past 5 s.
        nc = est.NoiseConfig(r_diag=np.zeros(9))
        run = sim.run_scenario(sim.ForceProfile(segments=[]), noise=nc,
                               duration=10.0, seed=0)
        late = run.truth[run.t > 5.0]
        assert np.max(np.linalg.norm(late[:, 4:7], axis=1)) < 1e-2


class TestInjectNoise:
    def test_zero_noise_is_identity(self):
        s = dyn.BodyState.hover(position=(1.0, 2.0, 3.0))
        streams = sim.NoiseStreams(0)
        m = sim.inject_noise(s, np.zeros(9), streams)
        assert np.array_equal(m.q, s.q)
        assert np.array_equal(m.r, s.r)
        assert np.array_equal(m.omega, s.omega)

    def test_measured_quaternion_stays_unit(self):
        s = dyn.BodyState.hover()
        streams = sim.NoiseStreams(1)
        r_diag = est.DEFAULT_R_DIAG
        for _ in range(200):
            m = sim.inject_noise(s, r_diag, streams)
            assert abs(m.q @ m.q - 1.0) < 1e-12

    def test_monte_carlo_variance(self):
        # Sample variance of each injected channel within 3% of the request.
        n = 100_000
        r_diag = est.DEFAULT_R_DIAG
        streams = sim.NoiseStreams(7)
        s = dyn.BodyState.hover()
        errs = np.empty((n, 9))
        for i in range(n):
            m = sim.inject_noise(s, r_diag, streams)
            errs[i, 0:3] = qt.quat_diff(m.q, s.q)
            errs[i, 3:6] = m.r - s.r
            errs[i, 6:9] = m.omega - s.omega
        var = errs.var(axis=0)
        assert np.all(np.abs(var - r_diag) < 0.03 * r_diag)

    def test_streams_reproducible_and_seed_sensitive(self):
        s = dyn.BodyState.hover()
        r_diag = est.DEFAULT_R_DIAG
        a = sim.inject_noise(s, r_diag, sim.NoiseStreams(3))
        b = sim.inject_noise(s, r_diag, sim.NoiseStreams(3))
        c = sim.inject_noise(s, r_diag, sim.NoiseStreams(4))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r)
        assert not np.array_equal(a.r, c.r)


class TestRunScenario:
    def test_deterministic_per_seed(self):
        a = sim.run_scenario(duration=2.0, seed=5)
        b = sim.run_scenario(duration=2.0, seed=5)
        c = sim.run_scenario(duration=2.0, seed=6)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.measurements, b.measurements)
        for name in a.tracks:
            assert np.array_equal(a.tracks[name].states, b.tracks[name].states)
            assert np.array_equal(a.tracks[name].wrench, b.tracks[name].wrench)
        assert not np.array_equal(a.measurements, c.measurements)

    @pytest.mark.parametrize("seed", [3, [3, 4], 9])
    def test_measurement_is_inject_noise(self, seed):
        # The loop measures with inject_noise's rule, lone or stacked, bit
        # for bit.
        run = sim.run_scenario(duration=0.5, seed=seed)
        seeds = np.ravel(seed).tolist()
        truth = run.truth.reshape(-1, len(seeds), 13)
        meas = run.measurements.reshape(-1, len(seeds), 10)
        r_diag = est.NoiseConfig().r_diag
        for i, s in enumerate(seeds):
            streams = sim.NoiseStreams(s)
            for k in range(run.t.shape[0]):
                m = sim.inject_noise(dyn.BodyState.from_vector(truth[k, i]),
                                     r_diag, streams)
                want = np.concatenate([m.q, m.r, m.omega])
                assert want.tobytes() == meas[k, i].tobytes(), (s, k)

    def test_recorded_wrench_matches_profile(self):
        run = sim.run_scenario(duration=7.0, seed=0)
        p = sim.ForceProfile()
        for k in (0, 450, 520, 699):
            w = sim.force_profile_eval(p, float(run.t[k]))
            assert np.array_equal(run.wrench_true[k, 0:3], w[:3])

    def test_null_scenario_drift_below_1mm(self):
        nc = est.NoiseConfig(r_diag=np.zeros(9))
        run = sim.run_scenario(sim.ForceProfile(segments=[]), noise=nc,
                               duration=60.0, seed=0)
        assert np.linalg.norm(run.truth[-1][4:7]) < 1e-3
        # Estimators lock to the exact measurements; navigation error sits
        # at rounding level, the unobserved wrench keeps a small UT bias.
        for name, tr in run.tracks.items():
            nav_err = np.abs(tr.states[-1][4:13] - run.truth[-1][4:13]).max()
            assert nav_err < 1e-6
            assert np.abs(tr.wrench[-1]).max() < 1e-4

    def test_noisy_hover_stays_bounded(self):
        run = sim.run_scenario(sim.ForceProfile(segments=[]), duration=15.0, seed=2)
        assert np.max(np.abs(run.truth[:, 4:7])) < 0.5

    def test_divergence_detected(self):
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(0.0, 5.0, force=np.array([1e9, 0.0, 0.0]))])
        with pytest.raises(DivergenceDetected):
            sim.run_scenario(prof, duration=5.0, seed=0)

    def test_divergence_names_component_value_and_step(self):
        x = np.zeros(19)
        x[7] = -2.5e6
        with pytest.raises(DivergenceDetected,
                           match=r"^ekf diverged at step 41: component 7 = -2\.5e\+06$"):
            sim._check_finite("ekf", x, 41)
        rows = np.zeros((3, 13))
        rows[2, 11] = np.nan
        rows[2, 12] = 1e9
        with pytest.raises(DivergenceDetected,
                           match=r"^run c: truth diverged at step 5: component 11 = nan$"):
            sim._check_finite("truth", rows, 5, ["run a", "run b", "run c"])
        sim._check_finite("ekf", np.full(19, sim.DIVERGENCE_LIMIT), 0)

    def test_estimator_subset_and_bad_names(self):
        run = sim.run_scenario(duration=0.5, seed=0, estimators=("ekf",))
        assert set(run.tracks) == {"ekf"} and run.feed == "ekf"
        with pytest.raises(ValidationError):
            sim.run_scenario(duration=0.5, seed=0, estimators=("ekf", "foo"))
        with pytest.raises(ValidationError):
            sim.run_scenario(duration=0.5, seed=0, estimators=())
        # A repeated name ran one filter under another config digest.
        with pytest.raises(ValidationError, match="run.estimators"):
            sim.run_scenario(duration=0.5, seed=0, estimators=("qukf", "qukf"))

    def test_yaw_pulse_saturates_rotors(self):
        # Drag-to-thrust leverage is weak, so a large yaw moment demands
        # rotor forces beyond the caps; the flag must record that.
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(0.5, 2.0, torque=np.array([0.0, 0.0, 0.5]), ramp=0.2)])
        nc = est.NoiseConfig(r_diag=np.zeros(9))
        run = sim.run_scenario(prof, noise=nc, duration=2.0, seed=0)
        assert run.saturated.any()
        assert np.all(run.rotors >= 0.0)
        assert np.all(run.rotors <= dyn.SystemParams().u_max / 4.0 + 1e-12)

    def test_timing_collection(self):
        run = sim.run_scenario(duration=0.3, seed=0, collect_timing=True)
        for tr in run.tracks.values():
            assert tr.step_seconds is not None
            assert np.all(tr.step_seconds > 0.0)


# The gate-8 profile: one held 2 N step from t = 2 s.
STEP_PROFILE = sim.ForceProfile(segments=[
    sim.ForceSegment(2.0, 10.0, force=np.array([2.0, 0.0, 0.0]))])
# The yaw pulse of test_yaw_pulse_saturates_rotors: it drives the rotors into
# saturation and the truth through its torque term.
YAW_PULSE_PROFILE = sim.ForceProfile(segments=[
    sim.ForceSegment(0.5, 2.0, torque=np.array([0.0, 0.0, 0.5]), ramp=0.2)])


def _assert_close(got, want, what):
    # 1e-9 relative to the array's largest magnitude. Every run of a stack
    # repeats the lone run's arithmetic operation for operation, so on one
    # BLAS build the arrays agree bit for bit; the tolerance leaves room
    # for a BLAS whose batched calls round differently.
    assert got.shape == want.shape, what
    if want.dtype == bool:
        assert np.array_equal(got, want), what
        return
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    err = float(np.abs(got - want).max())
    assert err <= 1e-9 * scale, "%s differs by %.3e (scale %.3e)" % (what, err, scale)


class TestRunStudy:
    @pytest.mark.parametrize("profile, kw, saturates", [
        (None, dict(duration=2.0), False),
        (STEP_PROFILE, dict(duration=3.0), False),
        (None, dict(duration=2.0, estimators=("ekf",)), False),
        (YAW_PULSE_PROFILE, dict(duration=2.0), True),
    ], ids=["default", "step", "ekf_only", "yaw_pulse"])
    def test_matches_run_scenario_seed_by_seed(self, profile, kw, saturates):
        seeds = [0, 1, 2]
        runs = sim.run_study(seeds, profile, **kw)
        assert [r.seed for r in runs] == seeds
        for seed, got in zip(seeds, runs):
            want = sim.run_scenario(profile, seed=seed, **kw)
            if saturates:
                # The stacked clip and torque paths are compared only if
                # the scalar run takes them.
                assert want.saturated.any(), "seed %d never saturates" % seed
                assert np.abs(want.wrench_true[:, 3:]).max() > 0.0
            assert got.dt == want.dt and got.feed == want.feed
            for f in ("t", "truth", "wrench_true", "measurements", "controls",
                      "rotors", "saturated"):
                _assert_close(getattr(got, f), getattr(want, f),
                              "seed %d %s" % (seed, f))
            assert set(got.tracks) == set(want.tracks)
            for name, tr in want.tracks.items():
                assert got.tracks[name].step_seconds is None
                for f in ("states", "wrench", "nis"):
                    _assert_close(getattr(got.tracks[name], f), getattr(tr, f),
                                  "seed %d %s %s" % (seed, name, f))

    def test_divergence_names_seed_and_step(self):
        prof = sim.ForceProfile(segments=[
            sim.ForceSegment(0.0, 5.0, force=np.array([1e9, 0.0, 0.0]))])
        with pytest.raises(DivergenceDetected) as scalar:
            sim.run_scenario(prof, duration=5.0, seed=0)
        with pytest.raises(DivergenceDetected) as study:
            sim.run_study([0, 1], prof, duration=5.0)
        assert str(study.value) == "seed 0: %s" % scalar.value

    def test_stacked_fallbacks_match_scalar_and_name_the_run(self):
        # Run 1 starts from an indefinite covariance, so cov_sqrt leaves
        # its Cholesky path for the clamped eigendecomposition; run 0 stays
        # on the fast stacked path. Each must match its scalar filter.
        u = dyn.ControlInput.hover(dyn.SystemParams())
        meas = est.Measurement(q=qt.rotvec_to_quat(np.array([1e-3, 0.0, -2e-3])),
                               r=np.array([0.01, -0.02, 0.0]), omega=np.zeros(3))
        scalar = [est.QuaternionUkf(), est.QuaternionUkf()]
        scalar[1].P[0, 1] = scalar[1].P[1, 0] = 2e-4
        stack = _stack(est.QuaternionUkf(), 2)
        stack.P = np.stack([f.P for f in scalar])
        stack.step(_rows(u, 2), _rows(meas, 2))
        for i, f in enumerate(scalar):
            f.step(u, meas)
            _assert_close(stack.x[i], f.x, "run %d x" % i)
            _assert_close(stack.P[i], f.P, "run %d P" % i)
            _assert_close(stack.last_nis[i:i + 1], np.array([f.last_nis]), "run %d nis" % i)

        with pytest.raises(SingularInnovation) as err:
            est._whiten(np.stack([np.eye(9), -np.eye(9)]), np.zeros((2, 19, 9)),
                        np.zeros((2, 9)))
        assert err.value.run == 1

    def test_filter_error_names_seed_filter_and_step(self, monkeypatch):
        # A non-finite covariance in the second run only: the stacked
        # cov_sqrt takes the runs one by one and the study names the seed.
        cov_sqrt = est.cov_sqrt

        def poisoned(p):
            p = p.copy()
            p[1, 0, 0] = np.nan
            return cov_sqrt(p)

        monkeypatch.setattr(est, "cov_sqrt", poisoned)
        with pytest.raises(FactorizationFailure,
                           match=r"^seed 7: qukf failed at step 0: "
                                 r"covariance contains non-finite entries$"):
            sim.run_study([3, 7], duration=0.5)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValidationError):
            sim.run_study([], duration=0.5)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise its own ValueError first.
        with pytest.raises(ValidationError,
                           match=r"^run\.seed must be a nonnegative integer, got -1$"):
            sim.run_study([0, -1], duration=0.5)
        with pytest.raises(ValidationError, match=r"run\.seed .* got -2$"):
            sim.run_scenario(duration=0.5, seed=-2)

    def test_boolean_seed_rejected(self):
        # bool is an int, so seed=True ran seed 1.
        with pytest.raises(ValidationError,
                           match=r"^run\.seed must be a nonnegative integer, got True$"):
            sim.run_study([0, True], duration=0.5)
        with pytest.raises(ValidationError, match=r"run\.seed .* got True$"):
            sim.run_scenario(duration=0.5, seed=True)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_bad_step_rejected(self, dt):
        # A zero step divided the duration by zero, and a negative one
        # was reported as too short a duration.
        with pytest.raises(ValidationError,
                           match=r"^run\.t_step must be positive and finite"):
            sim.run_scenario(duration=0.5, seed=0, dt=dt)


    def test_step_count_bounded(self):
        # 7e301 steps reached the noise draws, which failed with a bare
        # ValueError; nothing is allocated before this check.
        with pytest.raises(ValidationError,
                           match=r"^run\.duration / run\.t_step must be at most "
                                 r"1000000 steps, got 7e\+301$"):
            sim.validate_run(1e-300, 70.0, 0, ("qukf", "ekf"))
        assert sim.validate_run(1e-4, 100.0, 0, ("qukf",)) == (sim.MAX_STEPS, ["qukf"])
        # A ratio that overflows to +-inf was reported as too short a run.
        too_many = "run.duration / run.t_step must be at most 1000000 steps, got inf"
        for dt, duration, message in [
                (5e-324, 70.0, too_many), (0.01, 1e308, too_many),
                (5e-324, -1.0, "run.duration must cover at least one step")]:
            with pytest.raises(ValidationError) as exc:
                sim.validate_run(dt, duration, 0, ("qukf",))
            assert exc.value.violations == [message], (dt, duration)


def _stack(f, runs):
    """The filter f as a stack of ``runs`` copies of its state."""
    f.x = np.tile(f.x, (runs, 1))
    f.P = np.tile(f.P, (runs, 1, 1))
    return f


def _rows(obj, runs):
    """A control or measurement repeated for each run of a stack."""
    return type(obj)(*(np.tile(v, (runs,) + (1,) * np.ndim(v))
                       for v in vars(obj).values()))


class TestStackParityAwayFromHover:
    """Stacked filters reproduce the lone filters bit for bit on a tumble
    through a half turn, with measurements on either side of the
    quaternion double cover and innovations small enough for the
    small-angle branches."""

    def test_two_run_stacks_match_scalar_filters(self):
        rng = np.random.default_rng(170)
        params = dyn.SystemParams()
        axis = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        truth = np.concatenate([qt.rotvec_to_quat(np.deg2rad(170.0) * axis),
                                np.zeros(6), 2.0 * axis])
        start = dyn.BodyState.from_vector(truth)
        u = dyn.ControlInput.hover(params)
        j_inv = np.linalg.inv(params.inertia)
        labels = ["run 0", "run 1"]
        scalar = {"qukf": [est.QuaternionUkf(initial=start) for _ in labels],
                  "ekf": [est.ExtendedKalman(initial=start) for _ in labels]}
        stacks = {"qukf": _stack(est.QuaternionUkf(initial=start), 2),
                  "ekf": _stack(est.ExtendedKalman(initial=start), 2)}
        angles, far, flipped, tiny = [], 0, 0, 0
        for k in range(60):
            truth = dyn.rk4_step(truth, u.as_vector(), np.zeros(6), params,
                                 0.01, j_inv)
            angles.append(2.0 * np.arccos(np.clip(truth[0], -1.0, 1.0)))
            for name, st in stacks.items():
                # One control shared by the stack's runs.
                st.predict(u)
                meas = []
                for i, f in enumerate(scalar[name]):
                    f.predict(u)
                    # Every seventh step measures within 1e-7 of the
                    # prediction, so the innovation and correction are tiny.
                    near = k % 7 == 3
                    tiny += near
                    scale = 1e-7 if near else 1e-2
                    base = dyn.BodyState.from_vector(f.x[:13] if near else truth)
                    q = qt.quat_mul(qt.rotvec_to_quat(rng.normal(scale=scale, size=3)),
                                    base.q)
                    if (k + i) % 2:
                        q = -q
                        far += 1
                    if name == "ekf" and q @ f.x[0:4] < 0.0:
                        flipped += 1
                    meas.append(est.Measurement(
                        q=q, r=base.r + rng.normal(scale=scale, size=3),
                        omega=base.omega + rng.normal(scale=scale, size=3)))
                st.update(est.Measurement(*(np.stack([getattr(m, a) for m in meas])
                                            for a in ("q", "r", "omega"))))
                for i, (f, m) in enumerate(zip(scalar[name], meas)):
                    f.update(m)
                    assert np.array_equal(st.x[i], f.x), (name, k, i)
                    assert np.array_equal(st.P[i], f.P), (name, k, i)
                    assert st.last_nis[i] == f.last_nis, (name, k, i)
        # The attitude passes through a half turn, and the branches fired.
        assert min(angles) < np.pi < max(angles)
        assert far > 0 and flipped > 0 and tiny > 0


class TestFlatSpectrumHold:
    def test_flat_run_holds_its_mean_and_the_other_matches_lone(self):
        # phi = 2/sqrt(19) gives a spread n + eta = 4: the centre point
        # weighs -15/4 and every other point 1/8. A covariance that spreads
        # only the attitude, by (pi/2)^2 per axis, puts six points a half
        # turn about each axis from the mean and leaves 32 on it, so the
        # quaternion second moment is I/4: a flat top eigenvalue. That run
        # holds its previous mean; the run beside it, on the default
        # covariance, must not notice.
        q0 = qt.rotvec_to_quat(np.array([0.3, -0.2, 0.1]))
        start = dyn.BodyState(q=q0, r=np.zeros(3), v=np.zeros(3), omega=np.zeros(3))
        flat_p0 = np.zeros(19)
        flat_p0[0:3] = (np.pi / 2.0) ** 2
        phi = 2.0 / np.sqrt(19.0)
        lone = [est.QuaternionUkf(initial=start, p0_diag=flat_p0, phi=phi),
                est.QuaternionUkf(initial=start, phi=phi)]
        stack = _stack(est.QuaternionUkf(initial=start, phi=phi), 2)
        stack.P = np.stack([f.P for f in lone])
        u = dyn.ControlInput.hover(dyn.SystemParams())
        meas = est.Measurement(q=qt.rotvec_to_quat(np.array([0.31, -0.2, 0.09])),
                               r=np.array([0.01, -0.02, 0.0]), omega=np.zeros(3))

        stack.predict(_rows(u, 2))
        for f in lone:
            f.predict(u)
        with pytest.raises(DegenerateSpectrum):
            qt.weighted_quat_average(lone[0]._pts[:, 0:4], lone[0].w_mean)
        qt.weighted_quat_average(lone[1]._pts[:, 0:4], lone[1].w_mean)
        assert np.array_equal(stack.x[0, 0:4], qt.quat_normalize(q0))
        assert np.array_equal(lone[0].x[0:4], qt.quat_normalize(q0))
        assert not np.array_equal(stack.x[1, 0:4], qt.quat_normalize(q0))

        stack.update(_rows(meas, 2))
        for i, f in enumerate(lone):
            f.update(meas)
            assert stack.x[i].tobytes() == f.x.tobytes(), i
            assert stack.P[i].tobytes() == f.P.tobytes(), i
            assert stack.last_nis[i] == f.last_nis, i


def _mk_run(n=300, dt=0.01, names=("qukf", "ekf")):
    truth = np.zeros((n, 13))
    truth[:, 0] = 1.0
    tracks = {}
    for name in names:
        states = np.zeros((n, 19))
        states[:, 0] = 1.0
        tracks[name] = sim.EstimatorTrack(states=states,
                                          wrench=np.zeros((n, 6)),
                                          nis=np.ones(n))
    return sim.ScenarioRun(dt=dt, seed=0, feed=names[0],
                           t=np.arange(1, n + 1) * dt, truth=truth,
                           wrench_true=np.zeros((n, 6)),
                           measurements=np.zeros((n, 10)),
                           controls=np.zeros((n, 4)), rotors=np.zeros((n, 8)),
                           saturated=np.zeros(n, dtype=bool), tracks=tracks)


class TestMetrics:
    def test_constant_offset_gives_rmse_equal_offset(self):
        run = _mk_run()
        run.tracks["qukf"].states[:, 6] = 0.25        # z position channel
        run.tracks["qukf"].wrench[:, 5] = -0.125      # yaw moment channel
        m = sim.compute_metrics(run)
        assert np.isclose(m.rmse["qukf"]["z_m"], 0.25, rtol=1e-12)
        assert np.isclose(m.rmse["qukf"]["M_hz_Nm"], 0.125, rtol=1e-12)
        assert m.rmse["qukf"]["x_m"] == 0.0

    def test_attitude_rmse_is_rotation_angle(self):
        run = _mk_run(names=("qukf",))
        ang = 0.02
        q = qt.rotvec_to_quat(np.array([ang, 0.0, 0.0]))
        run.tracks["qukf"].states[:, 0:4] = q
        m = sim.compute_metrics(run)
        assert np.isclose(m.rmse["qukf"]["att_rad"], ang, rtol=1e-9)

    def test_improvement_formula(self):
        run = _mk_run()
        run.tracks["qukf"].states[:, 10] = 0.0077
        run.tracks["ekf"].states[:, 10] = 0.0374
        m = sim.compute_metrics(run)
        expected = (0.0374 - 0.0077) / 0.0374 * 100.0
        assert np.isclose(m.improvement_pct["p_radps"], expected, rtol=1e-12)
        assert m.improvement_pct["q_radps"] is None  # both zero

    def test_window_excludes_transient(self):
        run = _mk_run(n=400)
        run.tracks["qukf"].states[:99, 5] = 50.0  # garbage inside first second
        m = sim.compute_metrics(run, window=1.0)
        assert m.rmse["qukf"]["y_m"] == 0.0

    def test_window_reports_what_was_applied(self):
        # A run shorter than its window keeps its last step, and says so:
        # five steps of 0.01 s under a 1 s window apply 0.04 s.
        run = _mk_run(n=5)
        run.tracks["qukf"].states[:4, 5] = 50.0
        m = sim.compute_metrics(run, window=1.0)
        assert m.rmse["qukf"]["y_m"] == 0.0
        assert m.window_s == 4 * 0.01
        assert sim.compute_metrics(_mk_run(n=400), window=1.0).window_s == 1.0

    @pytest.mark.parametrize("window", [-1.0, np.nan, np.inf])
    def test_bad_window_rejected(self, window):
        # A negative skip would index from the end: the RMSE of the last
        # steps only.
        with pytest.raises(ValidationError,
                           match=r"^window must be nonnegative and finite, got"):
            sim.compute_metrics(_mk_run(), window=window)

    def test_convergence_time_closed_form(self):
        dt = 0.01
        t = np.arange(1, 1001) * dt
        tau_c = 0.2
        err = np.exp(-(t - t[0]) / tau_c)
        # peak is at the first sample; the trace crosses 5% at tau_c ln 20
        expected = tau_c * np.log(20.0)
        got = sim.convergence_time(t, err)
        assert abs(got - expected) < dt + 1e-9

    def test_convergence_degenerate_cases(self):
        t = np.arange(1, 101) * 0.01
        assert sim.convergence_time(t, np.zeros(100)) == 0.0
        assert sim.convergence_time(t, np.ones(100)) is None

    def test_convergence_window_follows_first_pulse(self):
        run = _mk_run(n=1000, names=("qukf",))
        run.wrench_true[300:600, 2] = 2.0
        wr = run.tracks["qukf"].wrench
        wr[:, 2] = run.wrench_true[:, 2]
        # estimator lags the step then locks on
        wr[300:330, 2] = 0.0
        m = sim.compute_metrics(run)
        tc = m.convergence_time_s["qukf"]["F_hz_N"]
        assert tc is not None
        assert abs(tc - 0.30) < 0.02
        assert m.convergence_time_s["qukf"]["M_hx_Nm"] is None

    def test_mean_update_time_reported(self):
        run = sim.run_scenario(duration=0.3, seed=0, collect_timing=True)
        m = sim.compute_metrics(run, window=0.1)
        assert m.mean_update_s["qukf"] > 0.0
        run2 = sim.run_scenario(duration=0.3, seed=0)
        m2 = sim.compute_metrics(run2, window=0.1)
        assert m2.mean_update_s["qukf"] is None
