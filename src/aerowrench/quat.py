"""Unit-quaternion and SO(3) primitives.

Conventions used throughout the package:

* Quaternions are numpy arrays of shape (4,), scalar first: ``q = [w, x, y, z]``.
* ``quat_mul`` is the Hamilton product, so the basis identity ``i*j = k`` holds.
* ``quat_to_rot`` returns the active rotation matrix (rotates vectors, maps
  body coordinates into the inertial frame), which makes the homomorphism
  ``R(q1*q2) = R(q1) R(q2)`` hold and keeps it consistent with the
  antisymmetric-part extraction used by ``rot_to_quat``.
* Rotation vectors are ``P = alpha * b`` (radians times unit axis) with
  ``q(P) = [cos(alpha/2), b sin(alpha/2)]``.
* The manifold perturbation is applied on the left: ``oplus(q, P) = q(P) * q``,
  and differences ``quat_diff(q1, q2) = P(q1 * q2^-1)`` are its inverse.
* Sign canonicalization picks the representative with ``w >= 0`` (first
  nonzero component positive on the ``w == 0`` boundary).

The scalar helpers do their + - * / and square roots on Python floats:
these are correctly rounded IEEE operations, bit for bit the same as on
numpy scalars, at a fraction of the call cost. Transcendental functions
and dot products stay in numpy, whose last bits may differ from ``math``
and from a plain sum.
"""

import math

import numpy as np

from .errors import DegenerateSpectrum, NotRotation, NotSkewSymmetric

_SMALL_ANGLE = 1e-6


def skew(p):
    """Map a 3-vector to the matrix [p]x such that [p]x v = p x v."""
    p0, p1, p2 = p
    return np.array([[0.0, -p2, p1],
                     [p2, 0.0, -p0],
                     [-p1, p0, 0.0]])


def vex(m, tol=1e-9):
    """Inverse of skew(). Raises NotSkewSymmetric if m + m.T is not ~0."""
    m = np.asarray(m, dtype=float)
    if np.max(np.abs(m + m.T)) > tol:
        raise NotSkewSymmetric("matrix deviates from skew symmetry by more than %g" % tol)
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def antisym_project(m):
    """Antisymmetric part (m - m.T) / 2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m - m.T)


def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q @ q)
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def quat_canonical(q):
    """Pick the double-cover representative with w >= 0.

    On the w == 0 boundary the first nonzero component is made positive so
    that canonicalization is deterministic.
    """
    q = np.asarray(q, dtype=float)
    for c in q:
        if c > 0.0:
            return q.copy()
        if c < 0.0:
            return -q
    return q.copy()


def quat_mul(q1, q2):
    """Hamilton product q1 * q2 (i*j = k)."""
    w1, x1, y1, z1 = np.asarray(q1, dtype=float).tolist()
    w2, x2, y2, z2 = np.asarray(q2, dtype=float).tolist()
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
        w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
        w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
    ])


def _term_table(ia, ib, sign):
    # (component, term) tables to the term-major rows _mul_terms gathers.
    return (np.array(ia).T.ravel(), np.array(ib).T.ravel(),
            np.array(sign, dtype=float).T.ravel())


# Term tables of the Hamilton product for _mul_terms. Output component i
# sums the terms sign[i][j] * a[ia[i][j]] * b[ib[i][j]], j = 0..3, left to
# right. Float addition does not associate, so a table fixes the bits of
# its products: _QUAT_MUL_TERMS is quat_mul's order above; _UKF_MUL_TERMS
# is the order in which the QUKF has always formed its sigma points and
# residuals, which differs from quat_mul in the last bits of components 2
# and 3 on some rows.
_QUAT_MUL_TERMS = _term_table(
    [[0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 1, 3], [3, 0, 2, 1]],
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, 1, 1, -1], [1, 1, 1, -1]])
_UKF_MUL_TERMS = _term_table(
    [[0, 1, 2, 3]] * 4,
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])


def _mul_terms(a, b, terms):
    """Hamilton products a * b of component-first quaternion stacks.

    a and b are (4, ...) and broadcast against each other after the first
    axis; the result is a contiguous (4, ...) whose components sum their
    terms in the order of ``terms``. Each term's sign is folded into its b
    factor. A sign flip is exact and x - y is x + (-y) bit for bit, so the
    result equals the products written out in that order, from two
    gathers, two multiplications and three additions.
    """
    ia, ib, sign = terms
    t = a[ia] * (b[ib] * sign.reshape(sign.shape + (1,) * (b.ndim - 1)))
    return t[0:4] + t[4:8] + t[8:12] + t[12:16]


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_inverse(q):
    q = np.asarray(q, dtype=float)
    return quat_conj(q) / (q @ q)


def quat_to_rot(q):
    """Active rotation matrix of a unit quaternion.

    R(q) = (w^2 - |v|^2) I + 2 v v^T + 2 w [v]x, equivalently
    I + 2 w [v]x + 2 [v]x^2 for unit norm. Rotates body coordinates into the
    inertial frame; R(q1*q2) = R(q1) R(q2).
    """
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


def rot_to_quat(r, tol=1e-6):
    """Quaternion of a rotation matrix via Shepperd's method.

    The branch keyed on the largest of {trace, diagonal entries} keeps the
    divisor away from zero for every attitude. Result is sign-canonical.
    Raises NotRotation if r is not orthogonal with det +1 within tol.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotRotation("expected a 3x3 matrix, got shape %s" % (r.shape,))
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol or abs(np.linalg.det(r) - 1.0) > tol:
        raise NotRotation("matrix is not in SO(3) within tolerance %g" % tol)

    t = np.trace(r)
    candidates = [t, r[0, 0], r[1, 1], r[2, 2]]
    i = int(np.argmax(candidates))
    if i == 0:
        s = np.sqrt(1.0 + t) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    elif i == 1:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s,
                      0.25 * s,
                      (r[0, 1] + r[1, 0]) / s,
                      (r[0, 2] + r[2, 0]) / s])
    elif i == 2:
        s = np.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
        q = np.array([(r[0, 2] - r[2, 0]) / s,
                      (r[0, 1] + r[1, 0]) / s,
                      0.25 * s,
                      (r[1, 2] + r[2, 1]) / s])
    else:
        s = np.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        q = np.array([(r[1, 0] - r[0, 1]) / s,
                      (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s,
                      0.25 * s])
    return quat_canonical(quat_normalize(q))


def rot_to_rotvec(r, tol=1e-6):
    """Rotation vector alpha * b from a rotation matrix.

    Uses the angle alpha = arccos((trace - 1) / 2) and the axis from the
    antisymmetric part. Degrades near alpha = pi where the antisymmetric part
    vanishes; the quaternion route (rot_to_quat + quat_to_rotvec) is exact
    there and is what the rest of the package uses.
    """
    r = np.asarray(r, dtype=float)
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol or abs(np.linalg.det(r) - 1.0) > tol:
        raise NotRotation("matrix is not in SO(3) within tolerance %g" % tol)
    c = 0.5 * (np.trace(r) - 1.0)
    alpha = np.arccos(min(1.0, max(-1.0, c)))
    w = vex(antisym_project(r), tol=np.inf)
    s = np.sin(alpha)
    if s < _SMALL_ANGLE:
        # sin(alpha)/alpha ~ 1 near zero; near pi the caller should use the
        # quaternion route instead.
        return w if alpha < 0.5 else w * (alpha / max(s, np.finfo(float).tiny))
    return w * (alpha / s)


def rotvec_to_quat(p):
    """q(P) = [cos(|P|/2), (P/|P|) sin(|P|/2)]; series-stable near zero."""
    p = np.asarray(p, dtype=float)
    a = math.sqrt(p @ p)
    half = 0.5 * a
    px, py, pz = p.tolist()
    if a < _SMALL_ANGLE:
        # sin(a/2)/a = 1/2 - a^2/48 + O(a^4)
        factor = 0.5 - a * a / 48.0
        return quat_normalize(np.array([np.cos(half), factor * px, factor * py,
                                        factor * pz]))
    factor = float(np.sin(half)) / a
    return np.array([np.cos(half), factor * px, factor * py, factor * pz])


def quat_to_rotvec(q):
    """Rotation vector of a unit quaternion, canonicalized so |P| <= pi."""
    q = quat_canonical(q)
    w = q[0]
    v = q[1:]
    s = math.sqrt(v @ v)
    if s < _SMALL_ANGLE:
        # alpha/sin(alpha/2) ~ 2/w for small alpha at unit norm
        return v * (2.0 / w) if w > 0.0 else v * 2.0
    alpha = 2.0 * np.arctan2(s, w)
    return v * (alpha / s)


def oplus(q, p):
    """Left manifold perturbation q(P) * q."""
    return quat_normalize(quat_mul(rotvec_to_quat(p), q))


def ominus_vec(q, p):
    """Inverse perturbation q(P)^-1 * q; ominus_vec(oplus(q, p), p) == q."""
    return quat_normalize(quat_mul(quat_conj(rotvec_to_quat(p)), q))


def quat_diff(q1, q2):
    """Rotation vector P(q1 * q2^-1); inverse of oplus in its first slot."""
    return quat_to_rotvec(quat_mul(q1, quat_inverse(q2)))


def weighted_quat_average(quats, weights, gap_tol=1e-12):
    """Weighted mean of unit quaternions.

    Returns the dominant eigenvector of A = sum_i w_i q_i q_i^T, which
    maximizes sum_i w_i (q^T q_i)^2 over the unit sphere and is insensitive
    to the sign ambiguity of each input. Weights may be negative (sigma-point
    covariance weights are when the spread parameters call for it); only the
    spectrum of A matters.

    Raises DegenerateSpectrum when the top eigenvalue is not isolated by more
    than gap_tol, e.g. for an equal-weight pair of rotations a geodesic
    half-turn apart.
    """
    qs = np.asarray(quats, dtype=float)
    ws = np.asarray(weights, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 4:
        raise ValueError("expected quaternions with shape (k, 4)")
    if ws.shape != (qs.shape[0],):
        raise ValueError("weights length must match quaternion count")
    a = (qs.T * ws) @ qs
    vals, vecs = np.linalg.eigh(a)
    if vals[-1] - vals[-2] < gap_tol:
        raise DegenerateSpectrum(
            "top eigenvalue gap %.3e below %g" % (vals[-1] - vals[-2], gap_tol))
    return quat_canonical(quat_normalize(vecs[:, -1]))
