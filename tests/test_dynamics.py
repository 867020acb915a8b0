from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from aerowrench import dynamics as dyn
from aerowrench import quat as qt
from aerowrench.errors import SingularAllocation, ValidationError

from conftest import assert_quat_close, random_quat, random_rotvec


HOVER_THRUST = 3.49 * 9.81  # 34.2369 N


def hover_control(p):
    return dyn.ControlInput(thrust=p.mass * p.gravity, moments=np.zeros(3))


class TestParams:
    def test_defaults_validate(self):
        dyn.SystemParams().validate()

    def test_negative_mass_reported(self):
        p = dyn.SystemParams(mass=-1.0)
        with pytest.raises(ValidationError) as err:
            p.validate()
        assert any("mass" in v for v in err.value.violations)

    def test_all_violations_listed(self):
        p = dyn.SystemParams(mass=-1.0, delta=0.0, u_max=-5.0)
        with pytest.raises(ValidationError) as err:
            p.validate()
        assert len(err.value.violations) == 3

    def test_observer_gain_diagonal(self):
        a = dyn.SystemParams().observer_gain_matrix()
        assert np.allclose(np.diag(a), [20.6304, 20.6304, 20.6304,
                                        22.3117, 1180.3279, 21.9713], atol=5e-4)
        assert np.allclose(a, np.diag(np.diag(a)), atol=0.0)

    def test_mass_matrix(self):
        m = dyn.SystemParams().mass_matrix()
        assert np.allclose(np.diag(m), [3.49, 3.49, 3.49, 3.227, 0.061, 3.277])


class TestSystemDerivative:
    def test_hover_equilibrium(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        d = dyn.system_derivative(s, hover_control(p), np.zeros(6), p)
        assert np.allclose(d, np.zeros(13), atol=1e-12)
        assert abs(hover_control(p).thrust - HOVER_THRUST) < 1e-10

    def test_free_fall(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        u = dyn.ControlInput(thrust=0.0, moments=np.zeros(3))
        d = dyn.system_derivative(s, u, np.zeros(6), p)
        assert np.allclose(d[7:10], [0.0, 0.0, -9.81], atol=1e-12)

    def test_yaw_torque(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        u = dyn.ControlInput(thrust=HOVER_THRUST, moments=np.array([0.0, 0.0, 1.0]))
        d = dyn.system_derivative(s, u, np.zeros(6), p)
        assert np.allclose(d[10:13], [0.0, 0.0, 1.0 / 3.277], atol=1e-12)

    def test_external_force_accelerates(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        tau = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        d = dyn.system_derivative(s, hover_control(p), tau, p)
        assert np.allclose(d[7:10], [2.0 / 3.49, 0.0, 0.0], atol=1e-12)

    def test_tilted_thrust_direction(self, rng):
        p = dyn.SystemParams()
        q = random_quat(rng)
        s = dyn.BodyState(q=q, r=np.zeros(3), v=np.zeros(3), omega=np.zeros(3))
        u = dyn.ControlInput(thrust=10.0, moments=np.zeros(3))
        d = dyn.system_derivative(s, u, np.zeros(6), p)
        expected = qt.quat_to_rot(q) @ np.array([0.0, 0.0, 10.0 / 3.49])
        expected[2] -= 9.81
        assert np.allclose(d[7:10], expected, atol=1e-12)


class TestComponentConsistency:
    """Summing the component models with the constraint wrenches eliminated
    must reproduce the combined rigid-body equations."""

    @staticmethod
    def synthetic_decomposition():
        m_quad = 1.2
        m_payload = 1.09
        arms = [np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])]
        j_quad = np.diag([0.02, 0.02, 0.03])
        j_payload = np.diag([0.5, 0.8, 0.9])
        j_offsets = sum(-m_quad * (qt.skew(l) @ qt.skew(l)) for l in arms)
        j_total = j_payload + 2 * j_quad + j_offsets
        p_sys = dyn.SystemParams(mass=2 * m_quad + m_payload, inertia=j_total,
                                 attach_1=arms[0], attach_2=arms[1])
        return m_quad, m_payload, arms, j_quad, j_payload, p_sys

    def test_constraint_elimination(self, rng):
        m_quad, m_payload, arms, j_quad, j_payload, p = self.synthetic_decomposition()
        rot_total = dyn.build_config_matrix(p)
        for _ in range(50):
            q = random_quat(rng)
            omega = rng.normal(scale=0.8, size=3)
            v = rng.normal(size=3)
            u_c = rng.normal(scale=3.0, size=8)
            tau_h = rng.normal(size=6)
            demand = rot_total @ u_c
            s = dyn.BodyState(q=q, r=rng.normal(size=3), v=v, omega=omega)
            u = dyn.ControlInput.from_vector(demand)
            d = dyn.system_derivative(s, u, tau_h, p)
            vdot, wdot = d[7:10], d[10:13]

            rot = qt.quat_to_rot(q)
            f_links, t_links = [], []
            for k, l in enumerate(arms):
                u_i = u_c[4 * k:4 * k + 4]
                # Rigid-assembly kinematics give each quadrotor's CoM
                # acceleration; its translational equation then yields the
                # link force, the rotational one the link torque.
                a_i = vdot + rot @ (np.cross(wdot, l) + np.cross(omega, np.cross(omega, l)))
                f_i = rot @ (u_i[0] * dyn.E_Z) - m_quad * p.gravity * dyn.E_Z - m_quad * a_i
                t_i = u_i[1:4] - np.cross(omega, j_quad @ omega) - j_quad @ wdot
                f_links.append(f_i)
                t_links.append(t_i)

                v_i = v + rot @ np.cross(omega, l)
                d_i = dyn.quadrotor_derivative(q, v_i, omega, u_i, f_i, t_i,
                                               m_quad, j_quad, p.gravity)
                assert np.allclose(d_i[7:10], a_i, atol=1e-10)
                assert np.allclose(d_i[10:13], wdot, atol=1e-10)

            d_l = dyn.payload_derivative(q, v, omega, f_links, t_links, arms,
                                         tau_h, m_payload, j_payload, p.gravity)
            assert np.allclose(d_l[7:10], vdot, atol=1e-9)
            assert np.allclose(d_l[10:13], wdot, atol=1e-9)


class TestRotorMixing:
    def test_equal_thrusts_pure_lift(self):
        p = dyn.SystemParams()
        u = dyn.mixing_matrix(p) @ np.full(4, 2.5)
        assert np.allclose(u, [10.0, 0.0, 0.0, 0.0], atol=1e-13)

    def test_roll_sign(self):
        p = dyn.SystemParams()
        u = dyn.mixing_matrix(p) @ np.array([2.0, 3.0, 2.0, 1.0])
        assert u[1] > 0.0

    def test_matrix_matches_componentwise(self, rng):
        p = dyn.SystemParams()
        f = rng.uniform(0.0, 5.0, size=4)
        arm, nu = p.rotor_arm, p.rotor_drag_coeff / p.rotor_thrust_coeff
        expected = np.array([f.sum(),
                             arm * (f[1] - f[3]),
                             arm * (f[2] - f[0]),
                             nu * (f[0] - f[1] + f[2] - f[3])])
        assert np.allclose(dyn.mixing_matrix(p) @ f, expected, atol=1e-13)

    def test_unmix_round_trip(self, rng):
        p = dyn.SystemParams()
        f = rng.uniform(0.5, 6.0, size=4)
        mix = dyn.mixing_matrix(p)
        assert np.allclose(np.linalg.solve(mix, mix @ f), f, atol=1e-10)


class TestConfigMatrix:
    def test_row3_for_bar_ends(self):
        c = dyn.build_config_matrix(dyn.SystemParams())
        assert np.allclose(c[2], [-1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def test_thrust_row(self):
        c = dyn.build_config_matrix(dyn.SystemParams())
        assert np.allclose(c[0], [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    def test_zero_offsets(self):
        p = dyn.SystemParams(attach_1=np.zeros(3), attach_2=np.zeros(3))
        c = dyn.build_config_matrix(p)
        assert np.allclose(c[1:, 0], 0.0)
        assert np.allclose(c[1:, 4], 0.0)

    def test_full_rank(self, rng):
        p = dyn.SystemParams(attach_1=rng.normal(size=3), attach_2=rng.normal(size=3))
        assert np.linalg.matrix_rank(dyn.build_config_matrix(p)) == 4


class TestAllocation:
    def test_hover_split(self):
        p = dyn.SystemParams()
        u = dyn.allocate(np.array([HOVER_THRUST, 0.0, 0.0, 0.0]), p)
        expected = np.zeros(8)
        expected[0] = expected[4] = HOVER_THRUST / 2.0
        assert np.allclose(u, expected, atol=1e-10)
        assert abs(u[0] - 17.11845) < 1e-5

    def test_matches_pseudoinverse(self, rng):
        p = dyn.SystemParams()
        c = dyn.build_config_matrix(p)
        for _ in range(100):
            d = rng.normal(scale=5.0, size=4)
            assert np.allclose(dyn.allocate(d, p), np.linalg.pinv(c) @ d, atol=1e-9)

    def test_exact_realization(self, rng):
        p = dyn.SystemParams()
        c = dyn.build_config_matrix(p)
        for _ in range(100):
            d = rng.normal(scale=5.0, size=4)
            w = rng.uniform(0.5, 2.0, size=8)
            u = dyn.allocate(d, replace(p, alloc_weights=w))
            assert np.max(np.abs(c @ u - d)) < 1e-9

    def test_weighted_optimality(self, rng):
        p = dyn.SystemParams()
        c = dyn.build_config_matrix(p)
        from scipy.linalg import null_space
        ns = null_space(c)
        for _ in range(20):
            d = rng.normal(scale=5.0, size=4)
            w = rng.uniform(0.5, 2.0, size=8)
            u = dyn.allocate(d, replace(p, alloc_weights=w))
            base = np.linalg.norm(w * u)
            for _ in range(200):
                alt = u + ns @ rng.normal(scale=1.0, size=ns.shape[1])
                assert np.linalg.norm(w * alt) >= base - 1e-9

    def test_zero_demand(self):
        p = dyn.SystemParams()
        assert np.allclose(dyn.allocate(np.zeros(4), p), np.zeros(8), atol=0.0)

    def test_singular_weights_raise(self):
        p = dyn.SystemParams()
        w = np.array([1.0, 1e9, 1e9, 1e9, 1.0, 1e9, 1e9, 1e9])
        with pytest.raises(SingularAllocation):
            dyn.allocate(np.array([1.0, 0.0, 0.0, 0.0]), replace(p, alloc_weights=w))


class TestSaturation:
    """RotorAllocation's pipeline: demand, rotor thrusts, clip, wrench."""

    def test_within_limits_passthrough(self):
        p = dyn.SystemParams()
        demand = np.array([HOVER_THRUST, 0.0, 0.0, 0.0])
        out, thrusts, hit = dyn.RotorAllocation(p)(demand)
        assert not hit
        assert np.allclose(out, demand, atol=1e-10)
        assert np.all(thrusts >= 0.0) and np.all(thrusts <= p.u_max / 4.0)

    def test_over_demand_clips(self):
        p = dyn.SystemParams()
        out, thrusts, hit = dyn.RotorAllocation(p)(np.array([100.0, 0.0, 0.0, 0.0]))
        assert hit
        assert np.all(thrusts <= p.u_max / 4.0 + 1e-12)
        assert out[0] <= 2.0 * p.u_max + 1e-9

    def test_negative_rotor_clip(self):
        p = dyn.SystemParams()
        # A huge yaw demand needs counter-rotating pairs beyond the floor.
        u_c = np.array([1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 2.0])
        out, thrusts, hit = dyn.RotorAllocation(p)(dyn.build_config_matrix(p) @ u_c)
        assert hit
        assert np.all(thrusts >= 0.0)

    def test_stack_flags_exactly_the_clipping_runs(self, rng):
        # Each run of a stack gets the lone pipeline's bits, and only the
        # runs with a rotor outside [0, u_max / 4] are flagged and clipped.
        p = dyn.SystemParams()
        alloc = dyn.RotorAllocation(p)
        demands = np.array([[HOVER_THRUST, 0.0, 0.0, 0.0],
                            [100.0, 0.0, 0.0, 0.0],
                            [2.0, 0.0, 0.0, 4.0],
                            [HOVER_THRUST, 0.3, -0.2, 0.01]])
        demands = np.concatenate([demands, rng.normal([HOVER_THRUST, 0, 0, 0],
                                                      [5.0, 1.0, 1.0, 0.2],
                                                      size=(60, 4))])
        out, thrusts, hit = alloc(demands)
        raw = dyn.matvec(alloc.to_rotors, demands)
        clips = (raw < 0.0).any(axis=1) | (raw > alloc.cap).any(axis=1)
        assert hit.dtype == bool and hit.shape == (64,)
        assert np.array_equal(hit, clips)
        assert list(hit[:4]) == [False, True, True, False]
        assert 0 < clips[4:].sum() < 60
        for i, d in enumerate(demands):
            lone = alloc(d)
            assert bool(lone[2]) == hit[i]
            assert lone[0].tobytes() == out[i].tobytes()
            assert lone[1].tobytes() == thrusts[i].tobytes()
        assert np.array_equal(thrusts[~hit], raw[~hit])
        assert np.all((thrusts >= 0.0) & (thrusts <= alloc.cap))


class TestCompactModel:
    def test_mass_matrix_block(self):
        p = dyn.SystemParams()
        m, g, w = dyn.compact_matrices(qt.quat_identity(), np.zeros(3), p)
        assert np.allclose(m, p.mass_matrix())
        assert np.allclose(g, [0.0, 0.0, HOVER_THRUST, 0.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(w[:3, 0], [0.0, 0.0, -1.0])
        assert np.allclose(w[3:, 1:], -np.eye(3))

    def test_wrench_recovery(self, rng):
        # tau_h = M chidot + G + W u identically, for any state and input.
        p = dyn.SystemParams()
        for _ in range(200):
            s = dyn.BodyState(q=random_quat(rng), r=rng.normal(size=3),
                              v=rng.normal(size=3), omega=rng.normal(size=3))
            u = dyn.ControlInput(thrust=rng.uniform(0.0, 40.0),
                                 moments=rng.normal(size=3))
            tau = rng.normal(size=6)
            d = dyn.system_derivative(s, u, tau, p)
            m, g, w = dyn.compact_matrices(s.q, s.omega, p)
            chidot = d[7:13]
            rec = m @ chidot + g + w @ u.as_vector()
            assert np.max(np.abs(rec - tau)) < 1e-10


def integrate_observer_truth(p, tau, u, state0, upsilon0, h, steps):
    """RK4 on the joint body + observer ODE with exact state feedback."""
    x = np.concatenate([state0.as_vector(), upsilon0])
    uv = u.as_vector()

    def f(z):
        s = dyn.BodyState.from_vector(z[:13])
        ds = dyn.system_derivative(s, u, tau, p)
        dob = dyn.observer_derivative(z[13:], s, dyn.ControlInput.from_vector(uv), p)
        return np.concatenate([ds, dob])

    out = [x.copy()]
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x[0:4] = qt.quat_normalize(x[0:4])
        out.append(x.copy())
    return np.array(out)


class TestObserver:
    def test_fixed_point(self, rng):
        p = dyn.SystemParams()
        s = dyn.BodyState(q=random_quat(rng), r=np.zeros(3),
                          v=rng.normal(size=3), omega=rng.normal(size=3))
        u = dyn.ControlInput(thrust=12.0, moments=rng.normal(size=3))
        _, g, w = dyn.compact_matrices(s.q, s.omega, p)
        gamma = p.delta * np.concatenate([s.v, s.omega])
        ups_star = g + w @ u.as_vector() - gamma
        assert np.allclose(dyn.observer_derivative(ups_star, s, u, p), 0.0, atol=1e-9)

    def test_estimate_formula(self):
        p = dyn.SystemParams()
        v = np.array([0.1, 0.0, -0.2])
        om = np.array([0.0, 0.3, 0.0])
        ups = np.arange(6.0)
        est = dyn.wrench_estimate(ups, v, om, p)
        assert np.allclose(est, ups + 72.0 * np.concatenate([v, om]), atol=0.0)

    @pytest.mark.parametrize("channel,rate,horizon,h", [
        (0, 20.6304, 0.15, 1e-4),    # force x
        (3, 22.3117, 0.14, 1e-4),    # moment x (roll)
        (4, 1180.3279, 0.0026, 1e-6),  # moment y (stiff pitch channel)
        (5, 21.9713, 0.14, 1e-4),    # moment z (yaw)
    ])
    def test_decay_rate(self, channel, rate, horizon, h):
        # With exact state feedback and a constant wrench the estimate error
        # obeys edot = -A e exactly, so each channel decays at its own pole.
        p = dyn.SystemParams()
        tau = np.zeros(6)
        tau[channel] = 2.0
        steps = int(round(horizon / h))
        hist = integrate_observer_truth(p, tau, hover_control(p),
                                        dyn.BodyState.hover(), np.zeros(6), h, steps)
        t = np.arange(steps + 1) * h
        errs = np.empty(steps + 1)
        for i, row in enumerate(hist):
            s = dyn.BodyState.from_vector(row[:13])
            est = dyn.wrench_estimate(row[13:], s.v, s.omega, p)
            errs[i] = tau[channel] - est[channel]
        assert np.all(errs > 0.0)
        slope = np.polyfit(t, np.log(errs), 1)[0]
        assert abs(-slope - rate) / rate < 0.01

    def test_converges_to_constant_wrench(self):
        p = dyn.SystemParams()
        tau = np.array([1.5, -0.5, 0.8, 0.05, 0.02, -0.04])
        hist = integrate_observer_truth(p, tau, hover_control(p),
                                        dyn.BodyState.hover(), np.zeros(6), 1e-4, 8000)
        s = dyn.BodyState.from_vector(hist[-1][:13])
        est = dyn.wrench_estimate(hist[-1][13:], s.v, s.omega, p)
        assert np.max(np.abs(est - tau)) < 1e-6


class TestGenerator:
    def test_blocks(self, rng):
        p = dyn.SystemParams()
        x = np.concatenate([random_quat(rng), rng.normal(size=3), rng.normal(size=3),
                            rng.normal(size=3), rng.normal(size=6), [1.0]])
        u = np.array([10.0, 0.1, -0.2, 0.05])
        fc = dyn.build_fc(x, u, p)
        om = x[10:13]
        assert np.allclose(fc[0, 1:4], -0.5 * om)
        assert np.allclose(fc[1:4, 0], 0.5 * om)
        assert np.allclose(fc[1:4, 1:4], -0.5 * qt.skew(om))
        assert np.allclose(fc[4:7, 7:10], np.eye(3))
        assert np.allclose(fc[13:19, 13:19], -p.observer_gain_matrix())
        assert np.allclose(fc[19], np.zeros(20), atol=0.0)
        # Only the affine column couples translation to the rest.
        assert np.allclose(fc[7:10, :19], 0.0)

    def test_quaternion_block_integrates_body_rates(self, rng):
        # exp(0.5 Xi(omega) T) q equals q * q(omega T) exactly.
        p = dyn.SystemParams()
        for _ in range(50):
            q = random_quat(rng)
            om = rng.normal(scale=2.0, size=3)
            x = np.concatenate([q, np.zeros(9), np.zeros(6), [1.0]])
            x[10:13] = om
            fc = dyn.build_fc(x, np.zeros(4), p)
            phi = expm(fc[0:4, 0:4] * 0.01)
            expected = qt.quat_mul(q, qt.rotvec_to_quat(om * 0.01))
            assert np.allclose(phi @ q, expected, atol=1e-13)

    def test_hover_balance_nilpotent(self):
        p = dyn.SystemParams()
        v = np.array([0.3, -0.1, 0.2])
        x = np.concatenate([qt.quat_identity(), [1.0, 2.0, 3.0], v,
                            np.zeros(3), np.zeros(6), [1.0]])
        u = np.array([p.mass * p.gravity, 0.0, 0.0, 0.0])
        fc = dyn.build_fc(x, u, p)
        out = expm(fc * 0.01) @ x
        assert np.allclose(out[0:4], x[0:4], atol=1e-14)
        assert np.allclose(out[4:7], x[4:7] + 0.01 * v, atol=1e-12)
        assert np.allclose(out[7:10], v, atol=1e-12)


def random_spd(rng, lo, hi):
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return basis @ np.diag(rng.uniform(lo, hi, 3)) @ basis.T


def rel_err(got, want):
    return np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()


class TestExpm:
    """dyn.expm against scipy.linalg.expm on what the package exponentiates."""

    def test_generator_at_random_states(self, rng):
        p = dyn.SystemParams()
        assert p.observer_gain_matrix()[4, 4] == pytest.approx(72.0 / 0.061)
        for _ in range(100):
            x = np.concatenate([random_quat(rng), rng.normal(size=6),
                                rng.normal(scale=2.0, size=3), rng.normal(size=6), [1.0]])
            u = np.array([rng.uniform(0.0, 40.0), *rng.normal(size=3)])
            a = dyn.build_fc(x, u, p) * 0.01
            assert rel_err(dyn.expm(a), expm(a)) < 1e-13

    def test_admittance_generator(self, rng):
        # [r, v, F] under M_v rddot + C_v rdot + K_v r = F, F held.
        for i in range(100):
            m_v = random_spd(rng, 0.2, 5.0)
            c_v = random_spd(rng, 0.0, 20.0)
            k_v = random_spd(rng, 0.0, 50.0) if i % 3 else np.zeros((3, 3))
            m_inv = np.linalg.inv(m_v)
            a = np.zeros((9, 9))
            a[0:3, 3:6] = np.eye(3)
            a[3:6, 0:3] = -m_inv @ k_v
            a[3:6, 3:6] = -m_inv @ c_v
            a[3:6, 6:9] = m_inv
            assert rel_err(dyn.expm(a * 0.01), expm(a * 0.01)) < 1e-13

    def test_observer_decay_for_random_inertias(self, rng):
        for _ in range(100):
            p = dyn.SystemParams(inertia=random_spd(rng, 0.05, 4.0))
            a = -p.observer_gain_matrix() * 0.01
            assert rel_err(dyn.expm(a), expm(a)) < 1e-13
            assert np.array_equal(dyn.TransitionContext(p, 0.01).decay, dyn.expm(a))

    def test_random_matrices_over_scales(self, rng):
        # From norms far below theta_13 = 4.25, where no squaring is
        # needed, to norms that need squarings.
        for scale in (0.002, 0.05, 0.2, 0.5, 1.0, 3.0):
            for _ in range(20):
                a = rng.normal(scale=scale / np.sqrt(6.0), size=(6, 6))
                assert rel_err(dyn.expm(a), expm(a)) < 1e-12

    @pytest.mark.parametrize("a", [[[-1.0, 1e4], [0.0, -2.0]],
                                   [[-1e-3, 1e5], [0.0, -1e-3]]])
    def test_non_normal_jordan_blocks(self, a):
        # Squarings chosen from ||A||_1 (Higham 2005) overscale these and
        # lose 3-4 digits; the eta of ||A^6||, ||A^8||, ||A^10|| does not.
        a = np.array(a)
        assert rel_err(dyn.expm(a), expm(a)) < 1e-14

    def test_diagonal_is_exact(self, rng):
        d = rng.normal(scale=5.0, size=7)
        assert np.array_equal(dyn.expm(np.diag(d)), np.diag(np.exp(d)))
        a = dyn.SystemParams().observer_gain_matrix()
        assert np.array_equal(dyn.TransitionContext(dyn.SystemParams(), 0.01).decay,
                              np.diag(np.exp(np.diag(-a * 0.01))))

    def test_nilpotent_is_exact(self):
        a = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.allclose(dyn.expm(a), np.eye(3) + a + a @ a / 2.0, rtol=0.0, atol=1e-15)

    def test_non_finite_raises(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                dyn.expm(np.array([[bad, 1.0], [0.0, 0.0]]))


class TestDiscreteTransition:
    def test_equilibrium_fixed_point(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover(position=(0.0, 0.0, 5.0))
        for method in ("closed", "expm"):
            s2, ups = dyn.discrete_transition(s, np.zeros(6), hover_control(p), p,
                                              0.01, method=method)
            assert np.max(np.abs(s2.as_vector() - s.as_vector())) < 1e-10
            assert np.max(np.abs(ups)) < 1e-10

    def test_pure_rotation_advance(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        s.omega = np.array([0.0, 0.0, 1.0])
        s2, _ = dyn.discrete_transition(s, np.zeros(6), hover_control(p), p, 0.01)
        assert np.allclose(qt.quat_diff(s2.q, s.q), [0.0, 0.0, 0.01], atol=1e-8)

    def test_closed_matches_expm(self, rng):
        p = dyn.SystemParams()
        for _ in range(200):
            s = dyn.BodyState(q=random_quat(rng), r=rng.normal(size=3),
                              v=rng.normal(size=3), omega=rng.normal(scale=2.0, size=3))
            ups = rng.normal(size=6)
            u = dyn.ControlInput(thrust=rng.uniform(0.0, 40.0), moments=rng.normal(size=3))
            s_c, ups_c = dyn.discrete_transition(s, ups, u, p, 0.01, method="closed")
            s_e, ups_e = dyn.discrete_transition(s, ups, u, p, 0.01, method="expm")
            assert np.max(np.abs(s_c.as_vector() - s_e.as_vector())) < 1e-12
            assert np.max(np.abs(ups_c - ups_e)) < 1e-11

    def test_affine_scaling_matches_expm(self, rng):
        # The fast path must agree with the dense exponential even when the
        # trailing component is not 1 (exactness of the blockwise form).
        p = dyn.SystemParams()
        ctx = dyn.TransitionContext(p, 0.01)
        for _ in range(20):
            x = np.concatenate([random_quat(rng), rng.normal(size=15), [rng.uniform(0.3, 2.0)]])
            u = np.array([15.0, 0.2, -0.1, 0.3])
            dense = expm(dyn.build_fc(x, u, p) * 0.01) @ x
            dense[0:4] = qt.quat_normalize(dense[0:4])
            fast = dyn.propagate_batch(x[None, :], u, ctx)[0]
            assert np.max(np.abs(fast - dense)) < 1e-12

    def test_stiff_channel_decays(self):
        p = dyn.SystemParams()
        s = dyn.BodyState.hover()
        ups = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        rate = 72.0 / 0.061  # 1180.33: eleven decades per decisecond
        _, ups2 = dyn.discrete_transition(s, ups, hover_control(p), p, 0.01)
        assert abs(ups2[4] - np.exp(-rate * 0.01)) < 1e-9
        assert np.isfinite(ups2).all()

    def test_explicit_euler_reference_diverges(self):
        # The same generator stepped with x + fc x T blows up at T = 0.01
        # because the stiff observer pole times the step is ~11.8.
        p = dyn.SystemParams()
        x = np.concatenate([qt.quat_identity(), np.zeros(9), [0.0, 0.0, 0.0, 0.0, 1.0, 0.0], [1.0]])
        u = np.array([p.mass * p.gravity, 0.0, 0.0, 0.0])
        y = x.copy()
        for _ in range(10):
            fc = dyn.build_fc(y, u, p)
            y = y + fc @ y * 0.01
            y[0:4] = qt.quat_normalize(y[0:4])
        assert abs(y[17]) > 1e9

        z = dyn.BodyState.hover()
        ups = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        for _ in range(10):
            z, ups = dyn.discrete_transition(z, ups, hover_control(p), p, 0.01)
        assert np.max(np.abs(ups)) < 1.0

    @staticmethod
    def _fuzzed_rows(rng, k):
        """k augmented rows with an arbitrary dummy scale and every kind of
        rate: zero, rotating less than quat._SMALL_ANGLE over a step, NaN
        and ordinary."""
        xs = np.stack([np.concatenate([random_quat(rng), rng.normal(size=15),
                                       [rng.uniform(-2.0, 2.0)]])
                       for _ in range(k)])
        xs[0::5, 19] = 1.0
        xs[1::5, 19] = 0.0
        xs[2::5, 19] = 0.5
        xs[0::3, 10:13] = 0.0
        xs[1::3, 10:13] *= 1e-7
        xs[4, 11] = np.nan
        return xs

    def test_batched_rows_match_individual(self, rng):
        # A row's bytes do not depend on the batch around it, on whether
        # its control is shared or per row, nor on whether the batch is
        # propagated in place. The small-angle branch runs only on a batch
        # that holds a small rotation, as the whole batch does and its
        # rows 2::3 do not.
        p = dyn.SystemParams()
        ctx = dyn.TransitionContext(p, 0.01)
        xs = self._fuzzed_rows(rng, 17)
        shared = np.array([20.0, 0.1, 0.0, -0.2])
        per_row = shared + rng.normal(size=(17, 4)) * np.array([5.0, 0.1, 0.1, 0.1])
        with np.errstate(invalid="ignore"):
            for rows in (xs, xs[2::3]):
                for u in (shared, per_row[:len(rows)]):
                    batch = dyn.propagate_batch(rows, u, ctx)
                    inplace = rows.copy()
                    assert dyn.propagate_batch(inplace, u, ctx, out=inplace) is inplace
                    assert inplace.tobytes() == batch.tobytes()
                    for i in range(len(rows)):
                        u_i = u if u.ndim == 1 else u[i]
                        single = dyn.propagate_batch(rows[i][None, :], u_i, ctx)[0]
                        assert single.tobytes() == batch[i].tobytes()
            # The NaN rate spoils its own row only.
            batch = dyn.propagate_batch(xs, shared, ctx)
        assert np.isnan(batch[4]).any() and np.isfinite(np.delete(batch, 4, 0)).all()

    def test_workspace_resizes_without_changing_bytes(self, rng):
        # One context stepped with 39, then 780, then 39 rows gives the
        # bytes of a fresh context at each size.
        p = dyn.SystemParams()
        ctx = dyn.TransitionContext(p, 0.01)
        u = np.array([20.0, 0.1, 0.0, -0.2])
        with np.errstate(invalid="ignore"):
            for k in (39, 780, 39):
                xs = self._fuzzed_rows(rng, k)
                fresh = dyn.propagate_batch(xs, u, dyn.TransitionContext(p, 0.01))
                assert dyn.propagate_batch(xs, u, ctx).tobytes() == fresh.tobytes()

    def test_attitude_step_is_quat_rule(self, rng):
        # The quaternion columns are quat.py's right-multiplied step, byte
        # for byte: rates zero, below the small-angle cut (also between
        # 1e-8 and it), just above it, ordinary, large and NaN, under a
        # shared control and per-row controls, one row at a time and in
        # batches of 39 and 780.
        p = dyn.SystemParams()
        dt = 0.01
        ctx = dyn.TransitionContext(p, dt)
        angles = np.array([1e-9, 5e-8, 5e-7, 0.999e-6, 1.001e-6, 3e-6, 1e-3,
                           0.05, 1.0, 40.0, 400.0])
        xs = self._fuzzed_rows(rng, 780)  # rows 0::3 at rest, row 4 NaN
        om = xs[:, 10:13]
        size = np.sqrt(np.sum(om * om, axis=1, keepdims=True)) * dt
        with np.errstate(invalid="ignore", divide="ignore"):
            # |omega| dt cycles through the angles; 33 rows meet each
            xs[:, 10:13] = np.where(size > 0.0, om / size, om) * np.resize(
                angles, (780, 1))
            expect = qt.quat_normalize(qt.quat_mul(
                xs[:, 0:4], qt.rotvec_to_quat(xs[:, 10:13] * dt)))
            shared = np.array([20.0, 0.1, 0.0, -0.2])
            per_row = shared + rng.normal(size=(780, 4))
            batches = [slice(i, i + 1) for i in range(33)]
            for sl in batches + [slice(0, 39), slice(0, 780)]:
                for u in (shared, per_row[sl]):
                    out = dyn.propagate_batch(xs[sl], u, ctx)
                    assert out[:, 0:4].tobytes() == expect[sl].tobytes()

    def test_pair_products_match_written_out_helpers(self, rng):
        # The gathered pair products give _body_z_inertial's and
        # _gyroscopic's bits, signed zeros included.
        w = rng.normal(size=(23, 300)) * rng.uniform(0.1, 10.0, size=(1, 300))
        w[rng.random(w.shape) < 0.1] = 0.0
        w[rng.random(w.shape) < 0.1] = -0.0
        pp = qt._mul_terms(w, w, dyn._PAIR_TERMS)
        for i in (0, 3):
            bz = np.stack([2.0 * pp[i], 2.0 * pp[i + 1], 1.0 - 2.0 * pp[i + 2]])
            assert bz.tobytes() == dyn._body_z_inertial(w[0:4]).tobytes()
        gyro = dyn._gyroscopic(w[10:13], w[20:23])
        assert pp[6:9].tobytes() == gyro.tobytes()
        work = (np.empty((2, 9, 300)), np.empty((2, 9, 300)))
        out = np.empty((9, 300))
        assert qt._mul_terms(w, w, dyn._PAIR_TERMS, out=out, work=work) is out
        assert out.tobytes() == pp.tobytes()


class TestTruthIntegration:
    def test_energy_drift_free_tumble(self):
        p = dyn.SystemParams()
        s = dyn.BodyState(q=qt.quat_identity(), r=np.array([0.0, 0.0, 50.0]),
                          v=np.array([1.0, -0.5, 0.3]),
                          omega=np.array([1.2, 0.4, -0.9]))
        u = np.zeros(4)
        e0 = dyn.mechanical_energy(s, p)
        x, j_inv = s.as_vector(), np.linalg.inv(p.inertia)
        for _ in range(100):
            x = dyn.rk4_step(x, u, np.zeros(6), p, 0.01, j_inv)
        drift = abs(dyn.mechanical_energy(dyn.BodyState.from_vector(x), p) - e0)
        assert drift < 1e-3 * abs(e0)

    def test_rk4_against_fine_reference(self):
        p = dyn.SystemParams()
        s0 = dyn.BodyState(q=qt.rotvec_to_quat(np.array([0.1, -0.2, 0.3])),
                           r=np.zeros(3), v=np.array([0.5, 0.0, -0.2]),
                           omega=np.array([0.8, -0.3, 0.5]))
        u = np.array([30.0, 0.05, -0.02, 0.04])
        tau = np.array([1.0, 0.5, -0.5, 0.02, 0.0, -0.01])
        j_inv = np.linalg.inv(p.inertia)
        coarse = dyn.rk4_step(s0.as_vector(), u, tau, p, 0.01, j_inv)
        fine = s0.as_vector()
        for _ in range(100):
            fine = dyn.rk4_step(fine, u, tau, p, 1e-4, j_inv)
        assert np.max(np.abs(coarse - fine)) < 1e-9

    def test_lone_state_matches_one_column_stack(self, rng):
        # A lone state unpacks to Python floats, a stack stays in arrays;
        # both must do the same IEEE operations.
        p = dyn.SystemParams()
        j_inv = np.linalg.inv(p.inertia)
        x = np.concatenate([random_quat(rng), rng.normal(size=6),
                            rng.normal(scale=2.0, size=3)])
        x[5] = -0.0
        u = np.array([30.0, 0.05, -0.02, 0.04])
        tau = np.array([1.0, 0.5, -0.5, 0.02, 0.0, -0.01])
        for _ in range(20):
            lone = dyn.rk4_step(x, u, tau, p, 0.01, j_inv)
            col = dyn.rk4_step(x[:, None].copy(), u[:, None], tau[:, None],
                               p, 0.01, j_inv)
            assert col.shape == (13, 1)
            assert lone.tobytes() == col[:, 0].tobytes()
            x = lone

    def test_quaternion_stays_unit(self, rng):
        p = dyn.SystemParams()
        x = np.concatenate([random_quat(rng), np.zeros(6), [2.0, -1.0, 1.5]])
        u = np.array([10.0, 0.0, 0.0, 0.0])
        j_inv = np.linalg.inv(p.inertia)
        for _ in range(50):
            x = dyn.rk4_step(x, u, np.zeros(6), p, 0.01, j_inv)
            assert abs(np.linalg.norm(x[0:4]) - 1.0) < 1e-12
