import numpy as np
import pytest

from aerowrench import quat as qt
from aerowrench.errors import DegenerateSpectrum, NotRotation

from conftest import assert_quat_close, random_quat, random_rotvec


class TestSkewVex:
    def test_skew_zero(self):
        assert np.array_equal(qt.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_skew_layout(self):
        m = qt.skew(np.array([1.0, 2.0, 3.0]))
        expected = np.array([[0.0, -3.0, 2.0],
                             [3.0, 0.0, -1.0],
                             [-2.0, 1.0, 0.0]])
        assert np.array_equal(m, expected)

    def test_skew_reproduces_cross_product(self, rng):
        for _ in range(1000):
            p = rng.normal(size=3)
            v = rng.normal(size=3)
            assert np.allclose(qt.skew(p) @ v, np.cross(p, v), atol=1e-13)

    def test_skew_is_antisymmetric(self, rng):
        p = rng.normal(size=3)
        m = qt.skew(p)
        assert np.array_equal(m.T, -m)


class TestHamiltonProduct:
    def test_identity_neutral(self, rng):
        q = random_quat(rng)
        assert_quat_close(qt.quat_mul(qt.quat_identity(), q), q)
        assert_quat_close(qt.quat_mul(q, qt.quat_identity()), q)

    def test_basis_identity_ij_equals_k(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        k = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(qt.quat_mul(i, j), k, atol=0.0)

    def test_norm_preserved(self, rng):
        for _ in range(500):
            q1, q2 = random_quat(rng), random_quat(rng)
            assert abs(np.linalg.norm(qt.quat_mul(q1, q2)) - 1.0) < 1e-14

    def test_associative(self, rng):
        for _ in range(200):
            a, b, c = (random_quat(rng) for _ in range(3))
            left = qt.quat_mul(qt.quat_mul(a, b), c)
            right = qt.quat_mul(a, qt.quat_mul(b, c))
            assert np.allclose(left, right, atol=1e-14)

    def test_inverse(self, rng):
        # The conjugate inverts a unit quaternion, as quat_diff assumes.
        q = random_quat(rng)
        assert_quat_close(qt.quat_mul(q, qt.quat_conj(q)), qt.quat_identity(), 1e-14)

    def test_term_kernel_matches_written_out_products(self, rng):
        # The term table reproduces quat_mul's products written out term by
        # term, bit for bit and signed zeros included, on non-unit rows,
        # both row against row and rows against one quaternion.
        def quat_order(p, q):
            w1, x1, y1, z1 = p
            w2, x2, y2, z2 = q
            return [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                    w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
                    w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
                    w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2]

        a = rng.normal(size=(400, 4)) * rng.uniform(0.1, 10.0, size=(400, 1))
        b = rng.normal(size=(400, 4))
        a[rng.random(a.shape) < 0.15] = -0.0
        b[rng.random(b.shape) < 0.15] = 0.0
        b[rng.random(b.shape) < 0.1] = -0.0
        rows = qt._mul_terms(a.T, b.T, qt._QUAT_MUL_TERMS).T
        fixed = qt._mul_terms(a.T, b[0][:, None], qt._QUAT_MUL_TERMS).T
        for i in range(len(a)):
            want = np.array(quat_order(a[i].tolist(), b[i].tolist()))
            assert rows[i].tobytes() == want.tobytes()
            want = np.array(quat_order(a[i].tolist(), b[0].tolist()))
            assert fixed[i].tobytes() == want.tobytes()


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(qt.quat_to_rot(qt.quat_identity()), np.eye(3), atol=0.0)

    def test_quarter_turn_about_z(self):
        # Active convention: +90 deg yaw maps x to y.
        q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
        expected = np.array([[0.0, -1.0, 0.0],
                            [1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0]])
        assert np.allclose(qt.quat_to_rot(q), expected, atol=1e-15)

    def test_dual_formula_agreement(self, rng):
        # (w^2-|v|^2) I + 2 v v^T + 2 w [v]x  must equal  I + 2 w [v]x + 2 [v]x^2
        for _ in range(1000):
            q = random_quat(rng)
            w, v = q[0], q[1:]
            sk = qt.skew(v)
            r1 = (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * sk
            r2 = np.eye(3) + 2.0 * w * sk + 2.0 * sk @ sk
            assert np.allclose(r1, r2, atol=1e-12)
            assert np.allclose(qt.quat_to_rot(q), r1, atol=1e-12)

    def test_homomorphism(self, rng):
        for _ in range(1000):
            q1, q2 = random_quat(rng), random_quat(rng)
            lhs = qt.quat_to_rot(qt.quat_mul(q1, q2))
            rhs = qt.quat_to_rot(q1) @ qt.quat_to_rot(q2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_so3_membership(self, rng):
        for _ in range(1000):
            r = qt.quat_to_rot(random_quat(rng))
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-13
            assert abs(np.linalg.det(r) - 1.0) < 1e-13

    def test_double_cover(self, rng):
        q = random_quat(rng)
        assert np.allclose(qt.quat_to_rot(q), qt.quat_to_rot(-q), atol=0.0)

    def test_rotates_vectors(self, rng):
        # R(q) v equals the conjugation q (0,v) q^-1.
        for _ in range(200):
            q = random_quat(rng)
            v = rng.normal(size=3)
            pure = np.array([0.0, *v])
            conj = qt.quat_mul(qt.quat_mul(q, pure), qt.quat_conj(q))
            assert abs(conj[0]) < 1e-13
            assert np.allclose(qt.quat_to_rot(q) @ v, conj[1:], atol=1e-12)


class TestRotToQuat:
    def test_identity(self):
        assert_quat_close(qt.rot_to_quat(np.eye(3)), qt.quat_identity())

    def test_half_turn_about_x(self):
        r = np.diag([1.0, -1.0, -1.0])
        assert_quat_close(qt.rot_to_quat(r), np.array([0.0, 1.0, 0.0, 0.0]), 1e-14)

    def test_round_trip(self, rng):
        for _ in range(1000):
            q = qt.quat_canonical(random_quat(rng))
            assert_quat_close(qt.rot_to_quat(qt.quat_to_rot(q)), q, 1e-9)

    def test_round_trip_near_half_turn(self, rng):
        for axis_seed in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            p = axis * (np.pi - 1e-7)
            q = qt.rotvec_to_quat(p)
            assert_quat_close(qt.rot_to_quat(qt.quat_to_rot(q)), q, 1e-7)

    def test_rejects_scaled_identity(self):
        with pytest.raises(NotRotation):
            qt.rot_to_quat(2.0 * np.eye(3))

    def test_rejects_reflection(self):
        with pytest.raises(NotRotation):
            qt.rot_to_quat(np.diag([1.0, 1.0, -1.0]))

    def test_canonical_sign(self, rng):
        q = qt.rot_to_quat(qt.quat_to_rot(random_quat(rng)))
        nz = q[np.nonzero(np.abs(q) > 1e-12)[0][0]]
        assert nz > 0.0


class TestRotationVector:
    def test_zero_gives_identity(self):
        assert_quat_close(qt.rotvec_to_quat(np.zeros(3)), qt.quat_identity())
        assert np.allclose(qt.quat_to_rotvec(qt.quat_identity()), np.zeros(3), atol=0.0)

    def test_quarter_turn_z(self):
        p = np.array([0.0, 0.0, np.pi / 2])
        q = qt.rotvec_to_quat(p)
        assert_quat_close(q, np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)]), 1e-15)
        assert np.allclose(qt.quat_to_rotvec(q), p, atol=1e-14)

    def test_round_trip_vec(self, rng):
        for _ in range(1000):
            p = random_rotvec(rng)
            assert np.allclose(qt.quat_to_rotvec(qt.rotvec_to_quat(p)), p, atol=1e-12)

    def test_round_trip_quat(self, rng):
        for _ in range(1000):
            q = qt.quat_canonical(random_quat(rng))
            assert_quat_close(qt.rotvec_to_quat(qt.quat_to_rotvec(q)), q, 1e-12)

    def test_small_angle_series(self):
        for a in (1e-9, 1e-7, 9.9e-7, 1.1e-6, 1e-5):
            p = np.array([a, 0.0, 0.0])
            q = qt.rotvec_to_quat(p)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-15
            assert np.allclose(qt.quat_to_rotvec(q), p, rtol=1e-10, atol=1e-20)

    def test_canonical_magnitude_bound(self, rng):
        for _ in range(500):
            q = random_quat(rng)
            assert np.linalg.norm(qt.quat_to_rotvec(q)) <= np.pi + 1e-12

    def test_rot_route_matches_quat_route(self, rng):
        # A matrix reaches its rotation vector through rot_to_quat.
        for _ in range(300):
            p = random_rotvec(rng, max_angle=3.0)
            r = qt.quat_to_rot(qt.rotvec_to_quat(p))
            assert np.allclose(qt.quat_to_rotvec(qt.rot_to_quat(r)), p, atol=1e-9)


class TestManifoldOps:
    def test_oplus_zero(self, rng):
        q = random_quat(rng)
        assert_quat_close(qt.oplus(q, np.zeros(3)), q, 1e-15)

    def test_oplus_identity_base(self, rng):
        p = random_rotvec(rng)
        assert_quat_close(qt.oplus(qt.quat_identity(), p), qt.rotvec_to_quat(p), 1e-15)

    def test_oplus_is_left_multiplication(self, rng):
        q, p = random_quat(rng), random_rotvec(rng)
        assert_quat_close(qt.oplus(q, p), qt.quat_mul(qt.rotvec_to_quat(p), q), 1e-15)

    def test_ominus_vec_inverts_oplus(self, rng):
        for _ in range(1000):
            q, p = random_quat(rng), random_rotvec(rng)
            assert_quat_close(qt.ominus_vec(qt.oplus(q, p), p), q, 1e-13)

    def test_quat_diff_inverts_oplus(self, rng):
        for _ in range(1000):
            q, p = random_quat(rng), random_rotvec(rng)
            assert np.allclose(qt.quat_diff(qt.oplus(q, p), q), p, atol=1e-12)

    def test_quat_diff_self_is_zero(self, rng):
        q = random_quat(rng)
        assert np.allclose(qt.quat_diff(q, q), np.zeros(3), atol=1e-14)

    def test_quat_diff_double_cover(self, rng):
        q = random_quat(rng)
        assert np.linalg.norm(qt.quat_diff(q, -q)) < 1e-7

    def test_quat_diff_half_turn_pair(self):
        d = qt.quat_diff(qt.quat_identity(), np.array([0.0, 1.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(d) - np.pi) < 1e-12

    def test_norm_preserved(self, rng):
        q, p = random_quat(rng), random_rotvec(rng)
        assert abs(np.linalg.norm(qt.oplus(q, p)) - 1.0) < 1e-15


class TestWeightedAverage:
    def test_singleton(self, rng):
        q = qt.quat_canonical(random_quat(rng))
        assert_quat_close(qt.weighted_quat_average([q], [3.0]), q, 1e-14)

    def test_symmetric_pair_averages_to_center(self, rng):
        q = qt.quat_canonical(random_quat(rng))
        p = random_rotvec(rng, max_angle=0.8)
        pair = [qt.oplus(q, p), qt.oplus(q, -p)]
        avg = qt.weighted_quat_average(pair, [0.5, 0.5])
        # The eigen-mean of a symmetric geodesic pair lies on the midpoint.
        assert np.linalg.norm(qt.quat_diff(avg, q)) < 1e-10

    def test_double_cover_collapse(self, rng):
        q = qt.quat_canonical(random_quat(rng))
        avg = qt.weighted_quat_average([q, -q], [0.5, 0.5])
        assert_quat_close(avg, q, 1e-12)

    def test_half_turn_pair_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            qt.weighted_quat_average(
                [qt.quat_identity(), np.array([0.0, 1.0, 0.0, 0.0])], [0.5, 0.5])

    def test_negative_weights(self, rng):
        # Spread weights with a strongly negative center weight, as produced
        # by small spread scalings, still recover the center of a symmetric
        # cloud.
        q = qt.quat_canonical(random_quat(rng))
        eps = 1e-3
        pts = [q]
        for i in range(3):
            step = np.zeros(3)
            step[i] = eps
            pts.append(qt.oplus(q, step))
            pts.append(qt.oplus(q, -step))
        w0 = -9999.0
        wi = (1.0 - w0) / 6.0
        weights = [w0] + [wi] * 6
        avg = qt.weighted_quat_average(pts, weights)
        assert np.linalg.norm(qt.quat_diff(avg, q)) < 1e-6

    def test_beats_dense_grid(self, rng):
        # The dominant eigenvector maximizes sum_i w_i (q^T q_i)^2; no point
        # of a dense random sample of S^3 may do better.
        for _ in range(5):
            qs = np.array([random_quat(rng) for _ in range(3)])
            ws = rng.uniform(0.2, 2.0, size=3)
            a = (qs.T * ws) @ qs
            avg = qt.weighted_quat_average(qs, ws)
            grid = rng.normal(size=(200000, 4))
            grid /= np.linalg.norm(grid, axis=1)[:, None]
            best_grid = np.max(np.einsum("ij,jk,ik->i", grid, a, grid))
            assert avg @ a @ avg >= best_grid - 1e-9

    def test_weight_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            qt.weighted_quat_average([random_quat(rng)], [0.5, 0.5])

    def test_canonical_output(self, rng):
        qs = [random_quat(rng) for _ in range(4)]
        avg = qt.weighted_quat_average(qs, np.full(4, 0.25))
        nz = avg[np.nonzero(np.abs(avg) > 1e-12)[0][0]]
        assert nz > 0.0


class TestCanonicalization:
    def test_flips_negative_w(self, rng):
        q = random_quat(rng)
        q[0] = -abs(q[0])
        c = qt.quat_canonical(q)
        assert c[0] >= 0.0

    def test_boundary_tie_break(self):
        q = np.array([0.0, -0.6, 0.0, 0.8])
        c = qt.quat_canonical(q)
        assert c[1] > 0.0

    def test_idempotent(self, rng):
        q = random_quat(rng)
        once = qt.quat_canonical(q)
        assert np.array_equal(once, qt.quat_canonical(once))


def _fuzzed_quats(rng, n=600):
    # Unit and non-unit rows, w < 0, half turns (w == 0), rotations below
    # and around the small-angle cut, and entries of +0.0 and -0.0.
    q = rng.normal(size=(n, 4)) * rng.uniform(0.2, 3.0, size=(n, 1))
    q[: n // 2] /= np.linalg.norm(q[: n // 2], axis=1, keepdims=True)
    q[0:60, 0] = 0.0
    q[60:90, 0] = -0.0
    for i, a in enumerate(np.geomspace(1e-12, 1e-5, 120)):
        v = rng.normal(size=3)
        v *= 0.5 * a / np.linalg.norm(v)
        q[90 + i] = np.concatenate([[np.cos(0.5 * a) * (-1.0) ** i], v])
    q[rng.random(q.shape) < 0.1] = 0.0
    q[rng.random(q.shape) < 0.1] = -0.0
    q[(q == 0.0).all(axis=1), 0] = 1.0  # normalize rejects a zero quaternion
    return q


def _fuzzed_rotvecs(rng, n=600):
    # Angles from 1e-12 to 3 rad, the small-angle cut on either side, and
    # signed zeros.
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    a = np.geomspace(1e-12, 3.0, n)
    a[::7] = qt._SMALL_ANGLE * rng.uniform(0.99, 1.01, size=a[::7].shape)
    p = axis * a[:, None]
    p[rng.random(p.shape) < 0.1] = 0.0
    p[rng.random(p.shape) < 0.1] = -0.0
    p[0] = 0.0
    p[1] = -0.0
    return p


def _same_bytes(rows, lone):
    for i, want in enumerate(lone):
        want = np.asarray(want, dtype=float)
        got = np.asarray(rows[i], dtype=float)
        assert got.tobytes() == want.tobytes(), (i, got, want)


class TestRowFormsMatchLoneForms:
    """Each quat helper's row form (..., 4)/(..., 3) equals its lone form,
    applied quaternion by quaternion, byte for byte."""

    @pytest.mark.parametrize("shape", [(600,), (20, 30)], ids=["rows", "stack"])
    def test_unary_helpers(self, rng, shape):
        q = _fuzzed_quats(rng)
        p = _fuzzed_rotvecs(rng)
        for fn, arg in ((qt.quat_normalize, q), (qt.quat_canonical, q),
                        (qt.quat_conj, q), (qt.quat_to_rotvec, q),
                        (qt.rotvec_to_quat, p)):
            rows = fn(arg.reshape(shape + arg.shape[1:]))
            rows = rows.reshape((len(arg),) + rows.shape[len(shape):])
            _same_bytes(rows, [fn(a) for a in arg])

    @pytest.mark.parametrize("shape", [(600,), (20, 30)], ids=["rows", "stack"])
    def test_binary_helpers(self, rng, shape):
        a = _fuzzed_quats(rng)
        b = _fuzzed_quats(rng)[rng.permutation(600)]
        for fn in (qt.quat_dot, qt.quat_mul, qt.quat_diff):
            rows = fn(a.reshape(shape + (4,)), b.reshape(shape + (4,)))
            rows = np.asarray(rows).reshape((600,) + np.shape(rows)[len(shape):])
            _same_bytes(rows, [fn(x, y) for x, y in zip(a, b)])
            # One quaternion against rows broadcasts.
            _same_bytes(fn(a, b[7]), [fn(x, b[7]) for x in a])

    def test_inputs_reach_every_branch(self, rng):
        q = _fuzzed_quats(rng)
        p = _fuzzed_rotvecs(rng)
        v = np.where(q[:, :1] < 0.0, -q, q)[:, 1:]
        s = np.sqrt((v * v).sum(axis=1))
        a = np.sqrt((p * p).sum(axis=1))
        for small in (s < qt._SMALL_ANGLE, a < qt._SMALL_ANGLE):
            assert small.sum() > 10 and (~small).sum() > 10
        assert (q[:, 0] < 0.0).sum() > 10 and (q[:, 0] == 0.0).sum() > 10
        assert np.signbit(q[q == 0.0]).any() and np.signbit(p[p == 0.0]).any()
