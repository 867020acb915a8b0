import numpy as np
import pytest

from aerowrench import dynamics as dyn
from aerowrench import estimation as est
from aerowrench import quat as qt
from aerowrench import simulation as sim
from aerowrench.errors import (DegenerateScaling, FactorizationFailure,
                               SingularInnovation)

from conftest import assert_quat_close, random_quat


def hover_control():
    return dyn.ControlInput.hover(dyn.SystemParams())


def exact_measurement(state):
    return est.Measurement.from_state(state)


class TestUtWeights:
    def test_reference_configuration(self):
        eta, wm, wc = est.ut_weights(19, phi=1.0, gamma=2.0, sigma=0.0)
        assert eta == 0.0
        assert wm[0] == 0.0
        assert wc[0] == 2.0
        assert np.allclose(wm[1:], 1.0 / 38.0)
        assert np.allclose(wc[1:], 1.0 / 38.0)
        assert abs(wm.sum() - 1.0) < 1e-15

    def test_hand_example(self):
        eta, wm, wc = est.ut_weights(3, phi=0.5, gamma=2.0, sigma=1.0)
        assert abs(eta - (-2.0)) < 1e-15
        assert abs(wm[0] - (-2.0)) < 1e-15
        assert abs(wc[0] - 0.75) < 1e-15
        assert np.allclose(wm[1:], 0.5)

    def test_mean_weights_always_normalized(self):
        for n, phi, sigma in [(5, 0.3, 0.0), (19, 1.0, 2.0), (2, 2.0, 1.0)]:
            _, wm, _ = est.ut_weights(n, phi=phi, sigma=sigma)
            assert abs(wm.sum() - 1.0) < 1e-12

    def test_collapsed_spread_raises(self):
        with pytest.raises(DegenerateScaling):
            est.ut_weights(19, phi=0.0)
        with pytest.raises(DegenerateScaling):
            est.ut_weights(4, phi=1.0, sigma=-4.0)


class TestCovSqrt:
    def test_spd_uses_cholesky(self, rng):
        a = rng.normal(size=(6, 6))
        p = a @ a.T + 6 * np.eye(6)
        s = est.cov_sqrt(p)
        assert np.allclose(s, np.tril(s))
        assert np.allclose(s @ s.T, p, atol=1e-12)

    def test_singular_psd_reconstructs(self, rng):
        a = rng.normal(size=(6, 3))
        p = a @ a.T  # rank 3
        s = est.cov_sqrt(p)
        assert np.allclose(s @ s.T, p, atol=1e-10)

    def test_zero_row_handled(self, rng):
        p = np.diag([1.0, 2.0, 0.0, 3.0])
        s = est.cov_sqrt(p)
        assert np.allclose(s @ s.T, p, atol=1e-14)
        # A zero tail of one or several rows, as a QUKF's pin and pads
        # would give if factored with the live block.
        a = rng.normal(size=(5, 5))
        for tail in (1, 3):
            p = np.zeros((5 + tail, 5 + tail))
            p[:5, :5] = a @ a.T + np.eye(5)
            s = est.cov_sqrt(p)
            assert np.allclose(s @ s.T, p, atol=1e-12)

    def test_negative_eigenvalue_clamped(self):
        p = np.diag([1.0, -1e-12, 2.0])
        s = est.cov_sqrt(p)
        rec = s @ s.T
        assert rec[1, 1] >= 0.0
        assert np.allclose(rec[np.ix_([0, 2], [0, 2])], np.diag([1.0, 2.0]), atol=1e-14)
        # An indefinite leading block with a positive diagonal ahead of a
        # zero tail fails the Cholesky factor and reaches the clamp, which
        # keeps its eigenvalue 3 (eigenvector [1, 1] / sqrt 2) and drops -1.
        p = np.zeros((3, 3))
        p[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        s = est.cov_sqrt(p)
        expected = np.zeros((3, 3))
        expected[:2, :2] = 1.5
        assert np.allclose(s @ s.T, expected, atol=1e-14)

    def test_non_finite_rejected(self):
        p = np.eye(3)
        p[0, 0] = np.nan
        with pytest.raises(FactorizationFailure):
            est.cov_sqrt(p)
        # A pinned tail whose zero row leaves a NaN in its column.
        p = np.diag([1.0, 2.0, 0.0])
        p[0, 2] = np.nan
        with pytest.raises(FactorizationFailure) as exc:
            est.cov_sqrt(p)
        assert exc.value.run is None

    def test_stack_matches_each_run_alone(self, rng):
        # A run for the full Cholesky, an indefinite leading block for the
        # clamp, then a NaN run: the stack leaves the shared Cholesky case
        # and takes the rule run by run.
        a = rng.normal(size=(3, 3))
        p = np.zeros((3, 3, 3))
        p[0] = a @ a.T + np.eye(3)
        p[1, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        p[2] = np.eye(3)
        p[2, 1, 1] = np.nan
        before = p.copy()
        s = est.cov_sqrt(p[:2])
        for i in range(2):
            assert s[i].tobytes() == est.cov_sqrt(p[i]).tobytes(), i
        with pytest.raises(FactorizationFailure) as exc:
            est.cov_sqrt(p)
        assert exc.value.run == 2
        assert p.tobytes() == before.tobytes()


class TestNoiseConfig:
    def test_discrete_scaling(self):
        qd = est.QuaternionUkf(dt=0.01).q_disc
        assert qd.shape == (19, 19)
        assert abs(qd[0, 0] - 1e-6) < 1e-18
        assert abs(qd[6, 6] - 1e-3) < 1e-15
        assert qd[18, 18] == 0.0

    def test_pad_insertion(self):
        qd = est.QuaternionUkf(dt=0.01, pad_dims=3).q_disc
        assert qd.shape == (22, 22)
        # The pads come after the pinned component.
        assert np.array_equal(qd[:19, :19], est.QuaternionUkf(dt=0.01).q_disc)
        assert not qd[19:].any() and not qd[:, 19:].any()


class TestSigmaGeometry:
    def test_delta_round_trip(self, rng):
        f = est.QuaternionUkf()
        f.x[0:4] = random_quat(rng)
        deltas = rng.normal(scale=0.1, size=(7, f.n))
        deltas[:, -1] = 0.0
        pts = est._apply_deltas(f.x, deltas)
        back = est._residuals(pts, f.x)
        assert np.allclose(back, deltas, atol=1e-12)
        norms = np.linalg.norm(pts[:, 0:4], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zero_delta_identity(self):
        f = est.QuaternionUkf()
        pts = est._apply_deltas(f.x, np.zeros((1, f.n)))
        assert np.allclose(pts[0], f.x, atol=0.0)

    def test_spread_matches_covariance(self):
        # The filter's own construction: displacements from a factor of the
        # live block, in a zero-filled buffer. Their weighted moments at
        # Q = 0 give back the live block, and zeros in the pin's row and
        # column.
        f = est.QuaternionUkf()
        f.predict(hover_control())  # a full live block, zero pin row
        deltas = np.zeros((2 * f.n + 1, f.n))
        est._sigma_points(f.x, est.cov_sqrt(f.P[:est.PIN, :est.PIN]), f.scale,
                          deltas, np.empty((2 * f.n + 1, f.x.size)))
        rec = est._sigma_cov(deltas, f._w_root, f._neg, np.zeros((f.n, f.n)))
        assert np.allclose(rec, f.P, atol=1e-12)
        assert not rec[est.PIN].any() and not rec[:, est.PIN].any()


class TestPredict:
    def test_zero_spread_hover_is_exact_fixed_point(self):
        # With no spread every sigma point sits on the equilibrium, so the
        # predicted mean must reproduce it to machine precision.
        nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=est.DEFAULT_R_DIAG.copy())
        f = est.QuaternionUkf(noise=nc, p0_diag=np.zeros(19))
        f.predict(hover_control())
        assert_quat_close(f.x[0:4], np.array([1.0, 0.0, 0.0, 0.0]), tol=1e-12)
        assert np.allclose(f.x[4:19], 0.0, atol=1e-12)
        assert f.x[-1] == 1.0

    def test_default_spread_thrust_curvature_sag(self):
        # Attitude sigma points tilt the thrust vector; cos(s) < 1 on both
        # sides of the spread, so the transformed mean picks up a small
        # downward velocity. Four of the 2n points tilt (roll and pitch,
        # both signs), each weighted 1/(2n), and the tilt angle is the
        # scaled spread sqrt(n * p_rotvec). The sign-symmetric lateral
        # terms cancel exactly.
        f = est.QuaternionUkf()
        f.predict(hover_control())
        n = 19.0
        s = np.sqrt(n * 1e-4)
        g = 9.81
        dt = 0.01
        sag_v = (4.0 / (2.0 * n)) * g * (np.cos(s) - 1.0) * dt
        sag_r = (4.0 / (2.0 * n)) * g * (np.cos(s) - 1.0) * dt * dt / 2.0
        assert_quat_close(f.x[0:4], np.array([1.0, 0.0, 0.0, 0.0]), tol=1e-12)
        assert abs(f.x[9] - sag_v) < 1e-10
        assert abs(f.x[6] - sag_r) < 1e-12
        assert np.abs(f.x[4:6]).max() < 1e-14
        assert np.abs(f.x[7:9]).max() < 1e-14
        assert np.abs(f.x[10:13]).max() < 1e-14
        # The same curvature leaks into the vertical wrench channel through
        # the tilted thrust feed, an order of magnitude above the rest.
        assert np.abs(f.x[13:19]).max() < 2e-3

    def test_covariance_health(self):
        f = est.QuaternionUkf()
        for _ in range(5):
            f.predict(hover_control())
        p = f.P
        assert np.allclose(p, p.T, atol=0.0)
        assert np.linalg.eigvalsh(p).min() > -1e-9
        assert np.allclose(p[-1, :], 0.0, atol=0.0)

    def test_translation_block_exact(self):
        # With spread confined to position and velocity the propagation is
        # affine, so the transform must reproduce the linear prediction to
        # machine precision.
        diag = np.zeros(19)
        diag[3:6] = 1e-2
        diag[6:9] = 3e-2
        nc = est.NoiseConfig(q_diag=np.concatenate([np.zeros(3), [1e-4] * 3,
                                                    [1e-1] * 3, np.zeros(10)]),
                             r_diag=est.DEFAULT_R_DIAG.copy())
        f = est.QuaternionUkf(noise=nc, p0_diag=diag)
        f.predict(hover_control())
        dt = 0.01
        f6 = np.block([[np.eye(3), dt * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
        p6 = np.diag([1e-2] * 3 + [3e-2] * 3)
        q6 = np.diag([1e-4 * dt] * 3 + [1e-1 * dt] * 3)
        assert np.allclose(f.P[3:9, 3:9], f6 @ p6 @ f6.T + q6, atol=1e-12)

    def test_stiff_observer_block_stays_bounded(self):
        f = est.QuaternionUkf()
        for _ in range(25):
            f.predict(hover_control())
        p25 = f.P[16, 16]
        for _ in range(25):
            f.predict(hover_control())
        p50 = f.P[16, 16]
        assert np.isfinite(f.P).all()
        # The fast pitch-moment channel forgets its own past within a step
        # and tracks delta^2 times the pitch-rate variance, so the variance
        # saturates instead of compounding with the step count.
        assert p50 < 1e3
        assert p50 < 1.1 * p25


    def test_ekf_difference_rows_keep_signed_zeros(self, rng):
        h = est.FD_STEP
        x = rng.normal(size=(2, 19))
        x[:, [2, 7, 13]] = -0.0
        x[:, [5, 16]] = 0.0
        rows = est._difference_rows(x)
        for s in range(2):
            want = np.empty((39, 20))
            want[:, :19] = x[s]
            want[:, 19] = 1.0
            for i in range(19):
                want[1 + i, i] = x[s, i] + h
                want[20 + i, i] = x[s, i] - h
            assert rows[s].tobytes() == want.tobytes()
            assert est._difference_rows(x[s]).tobytes() == want.tobytes()


class TestUpdate:
    def test_requires_prior_predict(self):
        f = est.QuaternionUkf()
        with pytest.raises(SingularInnovation):
            f.update(exact_measurement(dyn.BodyState.hover()))

    def test_exact_measurement_keeps_hover(self):
        f = est.QuaternionUkf()
        f.predict(hover_control())
        trace_before = np.trace(f.P)
        f.update(exact_measurement(dyn.BodyState.hover()))
        assert_quat_close(f.x[0:4], np.array([1.0, 0.0, 0.0, 0.0]), tol=1e-9)
        # The state stays at hover up to the thrust-curvature sag of the
        # transform (about 1e-5 in vertical velocity); an exact measurement
        # cannot remove what the prediction itself injected.
        assert np.allclose(f.x[4:13], 0.0, atol=2e-5)
        assert np.trace(f.P) < trace_before
        assert f.last_nis is not None and f.last_nis < 1e-9

    def test_nis_matches_direct_formula(self, rng):
        # The moments of the propagated sigma points about their mean
        # predict the whole update: the NIS, and with the cross moment Pxy
        # the posterior x and P. For a lone filter, a padded one, and each
        # run of a stack of two.
        meas = est.Measurement(q=qt.rotvec_to_quat(np.array([0.02, -0.01, 0.03])),
                               r=np.array([0.05, -0.02, 0.01]),
                               omega=np.array([0.01, 0.02, -0.03]))
        for pad_dims, runs in ((0, None), (5, None), (0, 2)):
            f = est.QuaternionUkf(pad_dims=pad_dims)
            u, ms, z = hover_control(), [meas], meas
            if runs:
                f.x = np.tile(f.x, (runs, 1))
                f.P = np.tile(f.P, (runs, 1, 1))
                f.x[1, 0:4] = qt.rotvec_to_quat(np.array([0.1, 0.0, -0.05]))
                ms = [meas, est.Measurement(q=meas.q, r=-meas.r, omega=2.0 * meas.omega)]
                z = est.Measurement(*(np.stack([getattr(m, a) for m in ms])
                                      for a in ("q", "r", "omega")))
                u = dyn.ControlInput(thrust=np.full(runs, u.thrust),
                                     moments=np.tile(u.moments, (runs, 1)))
            f.predict(u)
            expected = []
            for i, m in enumerate(ms):
                at = (i,) if runs else ()
                pts, x, p = f._pts[at], f.x[at], f.P[at]
                wc = f.w_cov[:, None]
                ry = np.empty((pts.shape[0], 9))
                ry[:, 0:3] = qt.quat_diff(pts[:, 0:4], x[0:4])
                ry[:, 3:6] = pts[:, 4:7] - f.w_mean @ pts[:, 4:7]
                ry[:, 6:9] = pts[:, 10:13] - f.w_mean @ pts[:, 10:13]
                pyy = (ry * wc).T @ ry + f.r_mat
                innov = np.concatenate([qt.quat_diff(m.q, x[0:4]),
                                        m.r - f.w_mean @ pts[:, 4:7],
                                        m.omega - f.w_mean @ pts[:, 10:13]])
                rx = np.empty((pts.shape[0], f.n))
                rx[:, 0:3] = ry[:, 0:3]
                rx[:, 3:] = pts[:, 4:] - x[4:]
                # The update reads these moments from P- less Q.
                pxy = (rx * wc).T @ ry
                d = np.sqrt(np.diagonal(p))
                assert (np.abs(pxy - (p - f.q_disc)[:, f.OBS_IDX])
                        <= 1e-12 * np.outer(d, d[f.OBS_IDX])).all()
                gain = np.linalg.solve(pyy, pxy.T).T
                dx = gain @ innov
                post = x.copy()
                post[0:4] = qt.oplus(x[0:4], dx[0:3])
                post[4:] += dx[3:]
                expected.append((innov @ np.linalg.solve(pyy, innov), post,
                                 p - gain @ pyy @ gain.T))
            f.update(z)
            for i, (nis, post, cov) in enumerate(expected):
                at = (i,) if runs else ()
                assert abs(np.reshape(f.last_nis, -1)[i] - nis) < 1e-10
                np.testing.assert_allclose(f.x[at], post, rtol=1e-12)
                # Relative to sqrt(P_ii P_jj): entries that are zero in
                # exact arithmetic come out near 1e-40 on either side.
                d = np.sqrt(np.diagonal(cov))
                assert (np.abs(f.P[at] - cov) <= 1e-12 * np.outer(d, d)).all()

    def test_second_update_needs_a_predict(self):
        # A second update on one prediction left P indefinite.
        f = est.QuaternionUkf()
        m = exact_measurement(dyn.BodyState.hover())
        m.r = np.array([0.05, 0.0, 0.0])
        f.predict(hover_control())
        f.update(m)
        with pytest.raises(SingularInnovation):
            f.update(m)
        f.predict(hover_control())
        f.update(m)

    def test_degenerate_innovation_raises(self):
        nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=np.zeros(9))
        f = est.QuaternionUkf(noise=nc, p0_diag=np.zeros(19))
        f.predict(hover_control())
        with pytest.raises(SingularInnovation):
            f.update(exact_measurement(dyn.BodyState.hover()))

    def test_position_step_pulls_velocity(self):
        f = est.QuaternionUkf()
        for _ in range(10):
            f.predict(hover_control())
            m = exact_measurement(dyn.BodyState.hover())
            m.r = np.array([0.5, 0.0, 0.0])
            f.update(m)
        assert f.x[4] > 0.2          # position moved toward the measurement
        assert f.x[7] > 0.0          # velocity inferred from the offset


def run_linear_reference(steps, z_seq, dt=0.01, q_pos=1e-4, q_vel=1e-1,
                         reuse=False):
    """Closed-form filter for the position/velocity subsystem.

    With reuse=True the innovation and cross covariances are built from the
    propagated spread before process noise is added, mirroring a transform
    that passes one set of sigma points through both the transition and the
    observation. The predicted covariance still includes the process noise.
    """
    f6 = np.block([[np.eye(3), dt * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
    q6 = np.diag([q_pos * dt] * 3 + [q_vel * dt] * 3)
    h6 = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
    r6 = np.diag([1e-4] * 3)
    x = np.zeros(6)
    p = np.diag([1e-2] * 3 + [3e-2] * 3)
    xs, ps = [], []
    for k in range(steps):
        x = f6 @ x
        bar = f6 @ p @ f6.T
        p = bar + q6
        inn_base = bar if reuse else p
        s = h6 @ inn_base @ h6.T + r6
        k_g = inn_base @ h6.T @ np.linalg.inv(s)
        x = x + k_g @ (z_seq[k] - h6 @ x)
        p = p - k_g @ s @ k_g.T
        xs.append(x.copy())
        ps.append(p.copy())
    return xs, ps


class TestLinearSubsystemEquivalence:
    """With uncertainty confined to position and velocity the problem is
    exactly linear-Gaussian, so both filters must match a closed-form
    recursion to numerical precision."""

    @staticmethod
    def make_filters(q_diag):
        diag = np.zeros(19)
        diag[3:6] = 1e-2
        diag[6:9] = 3e-2
        nc = est.NoiseConfig(q_diag=q_diag, r_diag=est.DEFAULT_R_DIAG.copy())
        return (est.QuaternionUkf(noise=nc, p0_diag=diag),
                est.ExtendedKalman(noise=nc, p0_diag=diag))

    @staticmethod
    def z_sequence(steps):
        return [np.array([0.05 * np.sin(0.3 * k), 0.02 * k * 0.01, -0.03])
                for k in range(steps)]

    def test_zero_process_noise_matches_textbook(self):
        # Without process noise there is no question of where it enters the
        # innovation, so both filters must agree with the textbook linear
        # recursion over a long horizon.
        ukf, ekf = self.make_filters(np.zeros(19))
        steps = 100
        z_seq = self.z_sequence(steps)
        ref_x, ref_p = run_linear_reference(steps, z_seq, q_pos=0.0, q_vel=0.0)
        u = hover_control()
        for k in range(steps):
            m = est.Measurement(q=qt.quat_identity(), r=z_seq[k].copy(),
                                omega=np.zeros(3))
            ukf.step(u, m)
            ekf.step(u, m)
            assert np.allclose(ukf.x[4:10], ref_x[k], atol=1e-9)
            assert np.allclose(ukf.P[3:9, 3:9], ref_p[k], atol=1e-9)
            assert np.allclose(ekf.x[4:10], ref_x[k], atol=1e-9)
            assert np.allclose(ekf.P[4:10, 4:10], ref_p[k], atol=1e-9)

    def test_process_noise_placement(self):
        # The transform feeds the same propagated sigma points to the
        # observation, so their spread lacks the additive process noise and
        # the innovation covariance is smaller by H Q H^T than the textbook
        # value. The finite-difference filter linearizes around the noise-
        # inflated covariance and keeps the textbook placement. Both are
        # checked against their own exact recursion.
        q_diag = np.concatenate([np.zeros(3), [1e-4] * 3, [1e-1] * 3,
                                 np.zeros(10)])
        ukf, ekf = self.make_filters(q_diag)
        steps = 100
        z_seq = self.z_sequence(steps)
        ref_rx, ref_rp = run_linear_reference(steps, z_seq, reuse=True)
        ref_tx, ref_tp = run_linear_reference(steps, z_seq, reuse=False)
        u = hover_control()
        for k in range(steps):
            m = est.Measurement(q=qt.quat_identity(), r=z_seq[k].copy(),
                                omega=np.zeros(3))
            ukf.step(u, m)
            ekf.step(u, m)
            assert np.allclose(ukf.x[4:10], ref_rx[k], atol=1e-9)
            assert np.allclose(ukf.P[3:9, 3:9], ref_rp[k], atol=1e-9)
            assert np.allclose(ekf.x[4:10], ref_tx[k], atol=1e-9)
            assert np.allclose(ekf.P[4:10, 4:10], ref_tp[k], atol=1e-9)


class TestStaticConvergence:
    @staticmethod
    def offset_initial():
        body = dyn.BodyState(q=qt.rotvec_to_quat(np.array([0.08, -0.05, 0.1])),
                             r=np.array([0.3, -0.2, 0.1]),
                             v=np.array([0.05, 0.0, -0.05]),
                             omega=np.zeros(3))
        return body

    @pytest.mark.parametrize("make", [
        lambda init: est.QuaternionUkf(initial=init),
        lambda init: est.ExtendedKalman(initial=init),
    ], ids=["manifold", "additive"])
    def test_estimate_settles_on_truth(self, make):
        f = make(self.offset_initial())
        u = hover_control()
        truth = dyn.BodyState.hover()
        for _ in range(50):
            f.step(u, exact_measurement(truth))
        s = dyn.BodyState.from_vector(f.x[:13])
        # The angular-rate error transiently grows from the attitude offset
        # and is the slowest channel to drain; 50 updates bring every
        # component three orders of magnitude below its starting offset.
        assert np.linalg.norm(qt.quat_diff(s.q, truth.q)) < 1e-3
        assert np.linalg.norm(s.r) < 1e-3
        assert np.linalg.norm(s.v) < 1e-3
        assert np.linalg.norm(s.omega) < 1e-3

    def test_truth_initialized_floor(self):
        # Started on the truth, the additive filter stays there exactly;
        # the manifold transform holds a small steady bias from thrust
        # curvature (see the sag test above) that exact measurements of
        # attitude, position and rate cannot remove from velocity.
        u = hover_control()
        truth = dyn.BodyState.hover()
        ukf = est.QuaternionUkf()
        ekf = est.ExtendedKalman()
        for _ in range(50):
            ukf.step(u, exact_measurement(truth))
            ekf.step(u, exact_measurement(truth))
        for f, floor in ((ukf, 2e-5), (ekf, 1e-12)):
            s = dyn.BodyState.from_vector(f.x[:13])
            e = np.concatenate([qt.quat_diff(s.q, truth.q), s.r, s.v, s.omega])
            assert np.linalg.norm(e) < floor


def pin_navigation(f, state):
    f.x[0:4] = state.q
    f.x[4:7] = state.r
    f.x[7:10] = state.v
    f.x[10:13] = state.omega


class TestWrenchEstimation:
    def test_pinned_static_recovery_is_exact(self):
        # Nominal propagation only (no spread, no updates), navigation
        # states clamped to a truth held at rest by a reduced thrust while
        # an external 2 N force pushes up. The momentum-balance channel has
        # a unique fixed point at the injected force.
        p = dyn.SystemParams()
        nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=est.DEFAULT_R_DIAG.copy())
        f = est.QuaternionUkf(noise=nc, p0_diag=np.zeros(19))
        u = dyn.ControlInput(thrust=p.mass * p.gravity - 2.0, moments=np.zeros(3))
        rest = dyn.BodyState.hover()
        for _ in range(300):
            pin_navigation(f, rest)
            f.predict(u)
        pin_navigation(f, rest)
        assert np.allclose(f.wrench, [0.0, 0.0, 2.0, 0.0, 0.0, 0.0], atol=1e-9)

    def test_pinned_ramp_bias_matches_closed_form(self):
        # An uncompensated force accelerates the truth, so the momentum
        # feed ramps linearly. The discrete step holds that feed constant
        # over each interval, which biases the tracked estimate of a ramp
        # by a*T / (1 - exp(-a*T)); the continuous observer would converge
        # to the force exactly. Freezing the factor here pins the
        # discretization so a change in it cannot pass unnoticed.
        p = dyn.SystemParams()
        nc = est.NoiseConfig(q_diag=np.zeros(19), r_diag=est.DEFAULT_R_DIAG.copy())
        f = est.QuaternionUkf(noise=nc, p0_diag=np.zeros(19))
        u = hover_control()
        tau = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        x, j_inv = dyn.BodyState.hover().as_vector(), np.linalg.inv(p.inertia)
        last = None
        for _ in range(300):
            pin_navigation(f, dyn.BodyState.from_vector(x))
            last = f.wrench.copy()
            f.predict(u)
            x = dyn.rk4_step(x, u.as_vector(), tau, p, 0.01, j_inv)
        at = p.delta / p.mass * 0.01
        expected = 2.0 * at / (1.0 - np.exp(-at))
        assert abs(last[0] - expected) < 1e-9
        assert np.abs(last[1:]).max() < 1e-9

    def test_full_filter_counteracted_plateau(self):
        # Full predict/update with exact measurements of a truth held at
        # rest against a constant 2 N force. The measured states carry no
        # trace of the force, so every correction pulls the wrench channel
        # back toward zero through its cross covariance and the estimate
        # settles well short of the injected value. The plateau being
        # strictly inside (0, tau) and flat is the invariant; its level is
        # a tuning property, about 16% here.
        p = dyn.SystemParams()
        f = est.QuaternionUkf()
        u = dyn.ControlInput(thrust=p.mass * p.gravity - 2.0, moments=np.zeros(3))
        rest = dyn.BodyState.hover()
        hist = []
        for _ in range(1500):
            f.step(u, exact_measurement(rest))
            hist.append(f.wrench[2])
        assert 0.05 * 2.0 < hist[-1] < 1.05 * 2.0
        assert abs(hist[-1] - hist[-300]) < 0.02


class NaiveUkf:
    """Flat-coordinate transform over the same model: sigma points spread
    each quaternion component additively and get renormalized afterward.
    Exists only as a comparison subject for the manifold treatment."""

    def __init__(self, initial):
        self.params = dyn.SystemParams()
        self.dt = 0.01
        self.n = 20
        self.eta, self.wm, self.wc = est.ut_weights(self.n)
        self.scale = np.sqrt(self.n + self.eta)
        self.x = np.concatenate([initial.as_vector(), np.zeros(6), [1.0]])
        diag = est.DEFAULT_P0_DIAG
        self.P = np.diag(np.concatenate([est._q_block_diag(diag[0:3]),
                                         diag[3:18], [0.0]]))
        qd = est.DEFAULT_Q_DIAG * self.dt
        self.q_disc = np.diag(np.concatenate([est._q_block_diag(qd[0:3]),
                                              qd[3:18], [0.0]]))
        rd = est.DEFAULT_R_DIAG
        self.r_mat = np.diag(np.concatenate([est._q_block_diag(rd[0:3]),
                                             rd[3:6], rd[6:9]]))
        self.idx = np.array([0, 1, 2, 3, 4, 5, 6, 10, 11, 12])
        self.ctx = dyn.TransitionContext(self.params, self.dt)

    def step(self, control, meas):
        # The trailing 1 carries no variance: factor the live block.
        s = np.zeros_like(self.P)
        s[:19, :19] = est.cov_sqrt(self.P[:19, :19])
        cols = self.scale * s.T
        pts = np.concatenate([self.x[None, :], self.x + cols, self.x - cols])
        pts[:, -1] = 1.0
        pts[:, 0:4] /= np.linalg.norm(pts[:, 0:4], axis=1)[:, None]
        pts = dyn.propagate_batch(pts, control.as_vector(), self.ctx)
        mean = self.wm @ pts
        mean[0:4] = qt.quat_normalize(mean[0:4])
        mean[-1] = 1.0
        res = pts - mean
        p = (res * self.wc[:, None]).T @ res + self.q_disc
        zq = qt.quat_normalize(meas.q)
        if zq @ mean[0:4] < 0.0:
            zq = -zq
        z = np.concatenate([zq, meas.r, meas.omega])
        pyy = p[np.ix_(self.idx, self.idx)] + self.r_mat
        gain = np.linalg.solve(pyy, p[:, self.idx].T).T
        self.x = mean + gain @ (z - mean[self.idx])
        self.x[0:4] = qt.quat_normalize(self.x[0:4])
        self.x[-1] = 1.0
        p = p - gain @ pyy @ gain.T
        self.P = 0.5 * (p + p.T)
        self.P[-1, :] = 0.0
        self.P[:, -1] = 0.0


class TestManifoldAgainstFlat:
    def test_tumbling_attitude_not_worse_flat(self, rng):
        # Fast tumble plus coarse attitude measurements: the manifold
        # treatment must not lose to additive quaternion coordinates.
        p = dyn.SystemParams()
        x = np.concatenate([qt.quat_identity(), np.zeros(6), [1.5, -1.0, 2.0]])
        j_inv = np.linalg.inv(p.inertia)
        u = dyn.ControlInput(thrust=0.0, moments=np.zeros(3))
        init = dyn.BodyState(q=qt.rotvec_to_quat(np.array([0.3, 0.0, 0.0])),
                             r=np.zeros(3), v=np.zeros(3),
                             omega=np.array([1.5, -1.0, 2.0]))
        manifold = est.QuaternionUkf(initial=init)
        flat = NaiveUkf(init)
        errs_m, errs_f = [], []
        for _ in range(500):
            x = dyn.rk4_step(x, u.as_vector(), np.zeros(6), p, 0.01, j_inv)
            m = est.Measurement(
                q=qt.quat_mul(qt.rotvec_to_quat(rng.normal(scale=0.2, size=3)), x[0:4]),
                r=x[4:7] + rng.normal(scale=0.01, size=3),
                omega=x[10:13] + rng.normal(scale=0.01, size=3))
            manifold.step(u, m)
            flat.step(u, m)
            errs_m.append(np.linalg.norm(qt.quat_diff(manifold.x[0:4], x[0:4])))
            errs_f.append(np.linalg.norm(qt.quat_diff(qt.quat_normalize(flat.x[0:4]), x[0:4])))
        rmse_m = float(np.sqrt(np.mean(np.square(errs_m[100:]))))
        rmse_f = float(np.sqrt(np.mean(np.square(errs_f[100:]))))
        assert rmse_m < 0.2
        assert rmse_f >= 0.95 * rmse_m


class TestFilterHealthUnderNoise:
    def test_long_noisy_run(self, rng):
        p = dyn.SystemParams()
        u = hover_control()
        x, j_inv = dyn.BodyState.hover().as_vector(), np.linalg.inv(p.inertia)
        f = est.QuaternionUkf()
        for _ in range(200):
            x = dyn.rk4_step(x, u.as_vector(), np.zeros(6), p, 0.01, j_inv)
            m = est.Measurement(
                q=qt.quat_mul(qt.rotvec_to_quat(rng.normal(scale=0.01, size=3)), x[0:4]),
                r=x[4:7] + rng.normal(scale=0.01, size=3),
                omega=x[10:13] + rng.normal(scale=0.0316, size=3))
            f.step(u, m)
            assert abs(np.linalg.norm(f.x[0:4]) - 1.0) < 1e-12
            assert np.allclose(f.P, f.P.T, atol=0.0)
            assert np.isfinite(f.last_nis)
        assert np.linalg.eigvalsh(f.P).min() > -1e-9


def noisy_measurements(rng, steps):
    return [est.Measurement(q=qt.rotvec_to_quat(rng.normal(scale=0.01, size=3)),
                            r=rng.normal(scale=0.01, size=3),
                            omega=rng.normal(scale=0.03, size=3))
            for _ in range(steps)]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestBufferOwnership:
    """The QUKF reuses its sigma-point buffers across steps; the states it
    hands out must not alias them, nor be shared between filters."""

    @pytest.mark.parametrize("pad_dims", [0, 80])
    def test_kept_states_survive_later_steps(self, rng, pad_dims):
        f = est.QuaternionUkf(pad_dims=pad_dims)
        u = hover_control()
        kept = []
        for m in noisy_measurements(rng, 6):
            f.predict(u)
            kept.append((f.x, f.P, f.x.copy(), f.P.copy()))
            f.update(m)
            kept.append((f.x, f.P, f.x.copy(), f.P.copy()))
        for x, p, x0, p0 in kept:
            assert same_bits(x, x0) and same_bits(p, p0)

    def test_alternate_stepping_matches_stepping_alone(self, rng):
        u = hover_control()
        seqs = [noisy_measurements(rng, 10), noisy_measurements(rng, 10)]
        alone = []
        for seq in seqs:
            f = est.QuaternionUkf(pad_dims=5)
            for m in seq:
                f.step(u, m)
            alone.append(f)
        pair = [est.QuaternionUkf(pad_dims=5), est.QuaternionUkf(pad_dims=5)]
        for ms in zip(*seqs):
            for f, m in zip(pair, ms):
                f.step(u, m)
        for f, g in zip(pair, alone):
            assert same_bits(f.x, g.x) and same_bits(f.P, g.P)
            assert f.last_nis == g.last_nis

    def test_steady_steps_reuse_sigma_buffers(self, rng):
        f = est.QuaternionUkf(pad_dims=80)
        u = hover_control()
        seq = noisy_measurements(rng, 8)
        f.step(u, seq[0])
        # Holding the first arrays keeps their memory alive, so an array
        # allocated afresh by a later step cannot land at the same address.
        first = (f._pts, f._res_buf)
        for m in seq[1:]:
            f.step(u, m)
            assert f._pts.ctypes.data == first[0].ctypes.data
            assert f._res_buf.ctypes.data == first[1].ctypes.data


class TestPinnedComponent:
    @pytest.mark.parametrize("pad_dims, runs", [(0, None), (5, None), (0, 2)],
                             ids=["lone", "padded", "stack"])
    def test_pin_variance_reaches_no_output(self, rng, pad_dims, runs):
        # NoiseConfig and p0_diag taken directly skip FilterConfig's check
        # that the pin carries no variance. The sigma points never spread
        # along it, so x, the NIS and the live block of P stay the default
        # filter's, bit for bit.
        q_diag, p0_diag = est.DEFAULT_Q_DIAG.copy(), est.DEFAULT_P0_DIAG.copy()
        q_diag[18], p0_diag[18] = 1e-2, 1.0
        nc = est.NoiseConfig(q_diag=q_diag)
        filters = [est.QuaternionUkf(pad_dims=pad_dims),
                   est.QuaternionUkf(noise=nc, p0_diag=p0_diag, pad_dims=pad_dims)]
        u = hover_control()
        seqs = [noisy_measurements(rng, 200) for _ in range(runs or 1)]
        if runs:
            for f in filters:
                f.x, f.P = np.tile(f.x, (runs, 1)), np.tile(f.P, (runs, 1, 1))
            u = dyn.ControlInput(thrust=np.full(runs, u.thrust),
                                 moments=np.tile(u.moments, (runs, 1)))
        for ms in zip(*seqs):
            z = est.Measurement(*(np.stack([getattr(m, a) for m in ms])
                                  for a in ("q", "r", "omega"))) if runs else ms[0]
            base, pinned = (f.step(u, z) for f in filters)
            assert same_bits(pinned.x, base.x)
            assert same_bits(np.asarray(pinned.last_nis), np.asarray(base.last_nis))
            assert same_bits(pinned.P[..., :18, :18], base.P[..., :18, :18])


class TestPaddedDimensions:
    """Pad dimensions exist to scale the n x n covariance work for cost
    measurements; they take no sigma points. They carry no variance and no
    dynamics, so on a problem where the transform is exact they must not
    change the estimate even though the centre's weight moves with n."""

    @staticmethod
    def make(pad_dims):
        diag = np.zeros(19)
        diag[3:6] = 1e-2
        diag[6:9] = 3e-2
        q_diag = np.concatenate([np.zeros(3), [1e-4] * 3, [1e-1] * 3,
                                 np.zeros(10)])
        nc = est.NoiseConfig(q_diag=q_diag, r_diag=est.DEFAULT_R_DIAG.copy())
        return est.QuaternionUkf(noise=nc, p0_diag=diag, pad_dims=pad_dims)

    def test_single_step_is_exact(self):
        base = self.make(0)
        padded = self.make(5)
        assert padded.n == base.n + 5
        u = hover_control()
        m = est.Measurement(q=qt.quat_identity(),
                            r=np.array([0.05, 0.0, -0.03]), omega=np.zeros(3))
        base.step(u, m)
        padded.step(u, m)
        core = np.ix_(range(19), range(19))
        assert np.abs(padded.x[:19] - base.x[:19]).max() < 1e-14
        assert np.abs(padded.P[core] - base.P[core]).max() < 1e-12

    def test_many_steps_and_pad_rows_stay_clean(self):
        base = self.make(0)
        padded = self.make(5)
        u = hover_control()
        core = np.ix_(range(19), range(19))
        for k in range(20):
            m = est.Measurement(q=qt.quat_identity(),
                                r=np.array([0.05 * np.sin(0.3 * k), 0.0, -0.03]),
                                omega=np.zeros(3))
            base.step(u, m)
            padded.step(u, m)
            # The trailing 1, then the pads; the pin's and the pads' rows
            # and columns of P.
            assert padded.x[19] == 1.0 and not padded.x[20:].any()
            assert not padded.P[18:, :].any() and not padded.P[:, 18:].any()
        # The two runs factor the covariance in different bases; rounding
        # in the factor feeds the stiff momentum coupling, which is why the
        # long-horizon tolerance is looser than the single-step one.
        assert np.abs(padded.x[:19] - base.x[:19]).max() < 1e-6
        assert np.abs(padded.P[core] - base.P[core]).max() < 1e-6

    def test_padded_stack_matches_lone_filters(self, rng):
        # A padded stack propagates a strided view of its sigma buffer;
        # each run must still be the lone padded filter, bit for bit.
        u = hover_control()
        seqs = [noisy_measurements(rng, 50) for _ in range(3)]
        lone = [est.QuaternionUkf(pad_dims=20) for _ in seqs]
        stack = est.QuaternionUkf(pad_dims=20)
        stack.x = np.tile(stack.x, (3, 1))
        stack.P = np.tile(stack.P, (3, 1, 1))
        for ms in zip(*seqs):
            stack.step(u, est.Measurement(*(np.stack([getattr(m, a) for m in ms])
                                            for a in ("q", "r", "omega"))))
            for i, (f, m) in enumerate(zip(lone, ms)):
                f.step(u, m)
                assert same_bits(stack.x[i], f.x) and same_bits(stack.P[i], f.P)
                assert stack.last_nis[i] == f.last_nis

    def test_rows_without_a_flat_view_raise(self, rng):
        # Rows whose flat form would be a copy would be propagated and
        # dropped; the filters' rows are never such, and none is accepted.
        ctx = dyn.TransitionContext(dyn.SystemParams(), 0.01)
        u = hover_control().as_vector()
        buf = np.tile(est.QuaternionUkf(pad_dims=5).x, (4, 3, 1))
        buf[..., 7:13] = rng.normal(size=(4, 3, 6))
        rows = buf[..., :20].reshape(-1, 20).copy()
        est._propagate_rows(buf[..., :20], u, ctx)
        assert same_bits(buf[..., :20].reshape(-1, 20), dyn.propagate_batch(rows, u, ctx))
        assert not buf[..., 20:].any()
        with pytest.raises(ValueError):
            est._propagate_rows(buf.transpose(1, 0, 2)[..., :20], u, ctx)


def replayed_inputs(seeds, steps=200):
    """Controls and measurements of simulated runs, as the closed loop hands
    them to its filters: one seed's as lone inputs, several as a stack."""
    runs = [sim.run_scenario(seed=s, duration=steps * 0.01) for s in seeds]
    hover = dyn.ControlInput.hover(dyn.SystemParams()).as_vector()
    u = np.stack([np.vstack([hover, r.controls[:steps - 1]]) for r in runs], axis=1)
    z = np.stack([r.measurements[:steps] for r in runs], axis=1)
    if len(seeds) == 1:
        u, z = u[:, 0], z[:, 0]
    return [(dyn.ControlInput(thrust=c[..., 0], moments=c[..., 1:4]),
             est.Measurement(q=m[..., 0:4], r=m[..., 4:7], omega=m[..., 7:10]))
            for c, m in zip(u, z)]


def gram_reference(res, w_cov, q_disc):
    """Sum of w_i r_i r_i^T over a filter's residual rows, plus Q."""
    return sum(w * np.outer(r, r) for w, r in zip(w_cov, res)) + q_disc


def assert_cov_close(got, want):
    """Every entry within 1e-12 of sqrt(P_ii P_jj); entries that are zero
    in exact arithmetic carry rounding only."""
    d = np.sqrt(np.abs(np.diagonal(want, axis1=-2, axis2=-1)))
    bound = 1e-12 * d[..., :, None] * d[..., None, :]
    assert (np.abs(got - want) <= bound).all()


class TestCovarianceKernels:
    """Both filters build P from Gram products and update it in whitened
    form: P is exactly symmetric after every predict and update, and the
    kernels match the weighted-outer-product and gain forms."""

    @pytest.mark.parametrize("make, seeds", [
        (lambda: est.QuaternionUkf(), (0,)),
        (lambda: est.QuaternionUkf(pad_dims=80), (0,)),
        (lambda: est.QuaternionUkf(), (0, 1)),
        (lambda: est.ExtendedKalman(), (0,)),
        (lambda: est.ExtendedKalman(), (0, 1)),
    ], ids=["qukf", "qukf-pad80", "qukf-stack", "ekf", "ekf-stack"])
    def test_exactly_symmetric_after_every_step(self, make, seeds):
        f = make()
        if len(seeds) > 1:
            f.x = np.tile(f.x, (len(seeds), 1))
            f.P = np.tile(f.P, (len(seeds), 1, 1))
        for u, z in replayed_inputs(seeds):
            f.predict(u)
            assert same_bits(f.P, f.P.swapaxes(-1, -2))
            f.update(z)
            assert same_bits(f.P, f.P.swapaxes(-1, -2))

    @pytest.mark.parametrize("gamma", [2.0, -1.0])
    @pytest.mark.parametrize("pad_dims, runs", [(0, None), (5, None), (0, 2)],
                             ids=["lone", "padded", "stack"])
    def test_prediction_matches_weighted_outer_products(self, rng, gamma,
                                                        pad_dims, runs):
        # gamma = -1 gives the centre the weight -1: the signed rank-1 term.
        f = est.QuaternionUkf(gamma=gamma, pad_dims=pad_dims)
        assert (f.w_cov[0] < 0.0) == (gamma < 0.0)
        u = hover_control()
        seqs = [noisy_measurements(rng, 5) for _ in range(runs or 1)]
        if runs:
            f.x, f.P = np.tile(f.x, (runs, 1)), np.tile(f.P, (runs, 1, 1))
            u = dyn.ControlInput(thrust=np.full(runs, u.thrust),
                                 moments=np.tile(u.moments, (runs, 1)))
        for ms in zip(*seqs):
            f.predict(u)
            assert same_bits(f.P, f.P.swapaxes(-1, -2))
            for at in (np.ndindex(runs) if runs else [()]):
                assert_cov_close(f.P[at], gram_reference(f._res_buf[at], f.w_cov,
                                                         f.q_disc))
            f.update(est.Measurement(*(np.stack([getattr(m, a) for m in ms])
                                       for a in ("q", "r", "omega")))
                     if runs else ms[0])

    @pytest.mark.parametrize("gamma", [2.0, -1.0])
    def test_sigma_cov_stack_matches_each_run_alone(self, rng, gamma):
        # The centre's place (inside the Gram product, or subtracted when
        # its weight is negative) is the filter's; each run of a stack
        # gets a lone call's bits, exactly symmetric.
        f = est.QuaternionUkf(gamma=gamma, pad_dims=5)
        res = rng.normal(size=(3, 2 * est.E_DIM + 1, f.n))
        stack = est._sigma_cov(res, f._w_root, f._neg, f.q_disc)
        for i, r in enumerate(res):
            lone = est._sigma_cov(r, f._w_root, f._neg, f.q_disc)
            assert same_bits(stack[i], lone), i
            assert same_bits(lone, lone.T)
            assert_cov_close(lone, gram_reference(r, f.w_cov, f.q_disc))

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    def test_whiten_matches_direct_gain(self, rng, cond):
        # Against K = Pxy Pyy^-1 by a general solve: K innov, K Pyy K^T and
        # innov^T Pyy^-1 innov, on fuzzed Pyy of the given condition number
        # with a consistent Pxy and innovation. Both forms lose about
        # cond * eps; the bound is 16 cond * eps of each output's largest
        # magnitude (200 draws per cond reached at most 3.2 at cond 1 and
        # 0.16 above).
        eps = np.finfo(float).eps
        for _ in range(20):
            basis = np.linalg.qr(rng.normal(size=(9, 9)))[0]
            pyy = (basis * np.logspace(0.0, -np.log10(cond), 9)) @ basis.T
            pyy = 0.5 * (pyy + pyy.T)
            root = np.linalg.cholesky(pyy)
            pxy = rng.normal(size=(19, 9)) @ root.T
            innov = root @ rng.normal(size=9)
            dx, drop, nis = est._whiten(pyy, pxy, innov)
            gain = np.linalg.solve(pyy, pxy.T).T
            for got, want in ((dx, gain @ innov), (drop, gain @ pyy @ gain.T),
                              (nis, innov @ np.linalg.solve(pyy, innov))):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 16.0 * cond * eps * scale
            assert same_bits(drop, drop.T)

    @pytest.mark.parametrize("make, runs", [
        (lambda: est.QuaternionUkf(), None),
        (lambda: est.QuaternionUkf(gamma=-1.0), 2),
        (lambda: est.ExtendedKalman(), None),
        (lambda: est.ExtendedKalman(), 2),
    ], ids=["qukf", "qukf-stack", "ekf", "ekf-stack"])
    def test_update_matches_gain_form(self, make, runs):
        # From the predicted x and P (less Q in the QUKF's case, see ROADMAP
        # item 2): x+ from K innov, P+ = P - K Pyy K^T and the NIS, with
        # K = Pxy Pyy^-1.
        f = make()
        qukf = isinstance(f, est.QuaternionUkf)
        if runs:
            f.x, f.P = np.tile(f.x, (runs, 1)), np.tile(f.P, (runs, 1, 1))
        for u, z in replayed_inputs((0, 1) if runs else (0,), steps=21)[:-1]:
            f.step(u, z)
        f.predict(u)
        x, p = f.x.copy(), f.P.copy()
        f.update(z)
        for at in (np.ndindex(runs) if runs else [()]):
            zq, idx = qt.quat_normalize(z.q[at]), f.OBS_IDX
            pxy = (p[at] - f.q_disc)[:, idx] if qukf else p[at][:, idx]
            pyy = pxy[idx] + f.r_mat
            if qukf:
                innov = np.concatenate([qt.quat_diff(zq, x[at][0:4]),
                                        z.r[at] - x[at][4:7],
                                        z.omega[at] - x[at][10:13]])
            else:
                zq = -zq if zq @ x[at][0:4] < 0.0 else zq
                innov = np.concatenate([zq, z.r[at], z.omega[at]]) - x[at][idx]
            gain = np.linalg.solve(pyy, pxy.T).T
            dx, post = gain @ innov, x[at].copy()
            if qukf:
                post[0:4] = qt.oplus(post[0:4], dx[0:3])
                post[4:] += dx[3:]
            else:
                post += dx
                post[0:4] = qt.quat_normalize(post[0:4])
            np.testing.assert_allclose(f.x[at], post, rtol=1e-12, atol=1e-15)
            assert_cov_close(f.P[at], p[at] - gain @ pyy @ gain.T)
            nis = innov @ np.linalg.solve(pyy, innov)
            assert abs(np.asarray(f.last_nis)[at] - nis) <= 1e-12 * nis


def full_sigma_predict(f, u, phi, gamma, sigma):
    """The QUKF f's predict with the full (2n+1)-point set of ut_weights(n):
    every pad gets its two points, copies of the centre. Returns (x-, P-)."""
    n = f.n
    eta, wm, wc = est.ut_weights(n, phi, gamma, sigma)
    cols = np.sqrt(n + eta) * est.cov_sqrt(f.P[:est.PIN, :est.PIN]).T
    deltas = np.zeros((2 * n + 1, n))
    deltas[1:est.PIN + 1, :est.PIN] = cols
    deltas[n + 1:n + est.PIN + 1, :est.PIN] = -cols
    pts = est._apply_deltas(f.x, deltas)
    pts[:, :20] = dyn.propagate_batch(pts[:, :20], u.as_vector(), f.ctx)
    mean = np.concatenate([qt.weighted_quat_average(pts[:, 0:4], wm),
                           wm @ pts[:, 4:]])
    mean[dyn.IDUMMY] = 1.0
    res = est._residuals(pts, mean)
    return mean, (res * wc[:, None]).T @ res + f.q_disc


class TestPadsTakeNoSigmaPoints:
    """A pad's two sigma points would be copies of the centre, so the filter
    leaves them out and gives their weight to the centre: 39 points at any
    n, and the same filter as the full (2n+1)-point set to rounding."""

    @pytest.mark.parametrize("pad_dims", [0, 5, 80])
    @pytest.mark.parametrize("phi, gamma, sigma", [(1.0, 2.0, 0.0),
                                                   (1.3, -1.0, 0.5)],
                             ids=["default", "negative-centre"])
    def test_matches_full_sigma_set(self, pad_dims, phi, gamma, sigma):
        f = est.QuaternionUkf(phi=phi, gamma=gamma, sigma=sigma, pad_dims=pad_dims)
        ref = est.QuaternionUkf(phi=phi, gamma=gamma, sigma=sigma, pad_dims=pad_dims)
        # gamma = -1: the centre's folded covariance weight stays negative.
        assert (f.w_cov[0] < 0.0) == (gamma < 0.0)
        live = np.ix_(range(est.PIN), range(est.PIN))
        for u, z in replayed_inputs((0,), steps=12):
            f.predict(u)
            assert f._pts.shape[-2] == 2 * est.E_DIM + 1
            ref.x, ref.P = full_sigma_predict(ref, u, phi, gamma, sigma)
            ref._predicted = True
            np.testing.assert_allclose(f.x, ref.x, rtol=1e-12, atol=1e-15)
            assert_cov_close(f.P[live], ref.P[live])
            f.update(z)
            ref.update(z)
            np.testing.assert_allclose(f.x, ref.x, rtol=1e-12, atol=1e-15)
            assert_cov_close(f.P[live], ref.P[live])
            assert abs(f.last_nis - ref.last_nis) <= 1e-12 * ref.last_nis
            # The pin and the pads stay inert.
            assert f.x[dyn.IDUMMY] == 1.0 and not f.x[20:].any()
            assert not f.P[est.PIN:].any() and not f.P[:, est.PIN:].any()
