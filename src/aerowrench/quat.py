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
* ``quat_canonical`` picks the representative with ``w >= 0`` (first
  nonzero component positive on the ``w == 0`` boundary); the quaternion
  mean uses it. ``quat_to_rotvec`` only flips a quaternion with ``w < 0``.

This module is the package's one quaternion arithmetic. Each of
``quat_dot``, ``quat_normalize``, ``quat_conj``, ``quat_mul``,
``rotvec_to_quat``, ``quat_to_rotvec``, ``quat_diff`` and
``quat_canonical`` takes one quaternion (4,) or rotation vector (3,), or
rows (..., 4) or (..., 3), and writes out one rule for both forms:

* dot products are written out: one product per component, summed left to
  right (no BLAS dot, no numpy reduction); the Hamilton product sums its
  terms in the order of ``_QUAT_MUL_TERMS``;
* one small-angle rule: below ``_SMALL_ANGLE`` the rotation-vector maps
  take their series factors, 1/2 - a^2/48 and 2, with no renormalization;
* one sign rule: ``quat_to_rotvec`` flips ``w < 0``, and only
  ``quat_canonical``, for the quaternion mean, applies the full rule.

The lone form does its + - * / and square roots on Python floats, the row
form on numpy arrays; both are correctly rounded IEEE operations in the
same order, and the transcendental functions come from numpy in both.
The two forms therefore agree bit for bit, which tests/test_quat.py checks
on fuzzed inputs.

``oplus``, ``ominus_vec`` and ``weighted_quat_average`` build on these.
The transition's attitude step, ``dynamics.propagate_batch``, writes the
same rule out on its own workspace, so that it allocates nothing: its
quaternions are ``quat_normalize(quat_mul(q, rotvec_to_quat(omega dt)))``
bit for bit, which tests/test_dynamics.py checks on fuzzed rows.
``quat_to_rot`` and ``rot_to_quat`` convert one quaternion to and from its
rotation matrix; a matrix reaches a rotation vector through
``quat_to_rotvec(rot_to_quat(r))``, the one route, exact near a half turn.
"""

import math

import numpy as np

from .errors import DegenerateSpectrum, NotRotation

_SMALL_ANGLE = 1e-6
# rot_to_quat's tolerance on |R^T R - I| and |det R - 1|.
SO3_TOL = 1e-6
# The least gap between the top two eigenvalues of the quaternion mean's
# matrix that isolates its dominant eigenvector.
MEAN_GAP_TOL = 1e-12


def skew(p):
    """Map a 3-vector to the matrix [p]x such that [p]x v = p x v."""
    p0, p1, p2 = p
    return np.array([[0.0, -p2, p1],
                     [p2, 0.0, -p0],
                     [-p1, p0, 0.0]])


def quat_identity():
    return np.array([1.0, 0.0, 0.0, 0.0])


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _dot_rows(a, b):
    """Sum over the last axis of a * b, component by component."""
    t = a * b
    s = t[..., 0] + t[..., 1]
    for i in range(2, t.shape[-1]):
        s += t[..., i]
    return s


def quat_dot(a, b):
    """a . b of two quaternions (a float), or of rows (...)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1 and b.ndim == 1:
        a0, a1, a2, a3 = a.tolist()
        b0, b1, b2, b3 = b.tolist()
        return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    return _dot_rows(a, b)


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        w, x, y, z = q.tolist()
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize zero quaternion")
        return np.array([w / n, x / n, y / n, z / n])
    n = np.sqrt(_dot_rows(q, q))
    if not np.all(n != 0.0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n[..., None]


def quat_canonical(q):
    """Pick the double-cover representative with w >= 0.

    On the w == 0 boundary the first nonzero component is made positive so
    that canonicalization is deterministic; NaN decides nothing.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        for c in q.tolist():
            if c > 0.0:
                return q.copy()
            if c < 0.0:
                return -q
        return q.copy()
    first = np.argmax((q > 0.0) | (q < 0.0), axis=-1)[..., None]
    return np.where(np.take_along_axis(q, first, axis=-1) < 0.0, -q, q)


def quat_mul(q1, q2):
    """Hamilton product q1 * q2 (i*j = k); rows broadcast."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.ndim == 1 and q2.ndim == 1:
        w1, x1, y1, z1 = q1.tolist()
        w2, x2, y2, z2 = q2.tolist()
        return np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
            w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
            w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
        ])
    # _mul_terms broadcasts component-first stacks, so both get all axes.
    nd = max(q1.ndim, q2.ndim)
    q1 = q1.reshape((1,) * (nd - q1.ndim) + q1.shape)
    q2 = q2.reshape((1,) * (nd - q2.ndim) + q2.shape)
    return _mul_terms(q1.T, q2.T, _QUAT_MUL_TERMS).T


def _term_table(ia, ib, sign):
    # (output, term) tables to the term-first (T, m) tables _mul_terms
    # gathers; the signs as (T, m, 1), for stacks (c, k).
    return (np.array(ia).T.copy(), np.array(ib).T.copy(),
            np.array(sign, dtype=float).T[:, :, None].copy())


# The term table of the Hamilton product for _mul_terms: output component
# i sums the terms sign[i][j] * a[ia[i][j]] * b[ib[i][j]], j = 0..3, left
# to right, in quat_mul's written-out order above. Float addition does not
# associate, so the table fixes the bits of the products.
_QUAT_MUL_TERMS = _term_table(
    [[0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 1, 3], [3, 0, 2, 1]],
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, 1, 1, -1], [1, 1, 1, -1]])


def _mul_terms(a, b, terms, out=None, work=None):
    """Sums of signed products of the rows of component-first stacks.

    a and b are (c, ...) and broadcast against each other after the first
    axis. A term table (ia, ib, sign) of shape (T, m) gives m outputs;
    output i sums sign[j, i] * a[ia[j, i]] * b[ib[j, i]] over the terms j
    left to right, into a contiguous (m, ...) array, or into ``out``. Each
    term's sign is folded into its b factor. A sign flip is exact and
    x - y is x + (-y) bit for bit, so the result equals the products
    written out in that order, from two gathers, two multiplications and
    T - 1 additions. ``work`` is a pair of (T, m, ...) arrays of the
    result's trailing shape that receive the gathered factors, so that
    nothing is allocated; without it, a and b may broadcast.
    """
    ia, ib, sign = terms
    if b.ndim != 2:
        sign = sign.reshape(ia.shape + (1,) * (b.ndim - 1))
    if work is None:
        t = a.take(ia, axis=0) * (b.take(ib, axis=0) * sign)
    else:
        # take buffers an out= array in its default "raise" mode; the
        # tables' indices are in range, so "clip" changes nothing else.
        t, tb = work
        a.take(ia, axis=0, out=t, mode="clip")
        b.take(ib, axis=0, out=tb, mode="clip")
        np.multiply(tb, sign, out=tb)
        np.multiply(t, tb, out=t)
    out = np.add(t[0], t[1], out=out)
    for tj in t[2:]:
        np.add(out, tj, out=out)
    return out


def quat_conj(q):
    return np.asarray(q, dtype=float) * _CONJ


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


def rot_to_quat(r):
    """Quaternion of a rotation matrix via Shepperd's method.

    The branch keyed on the largest of {trace, diagonal entries} keeps the
    divisor away from zero for every attitude. Result is sign-canonical.
    Raises NotRotation if r is not orthogonal with det +1 within SO3_TOL.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise NotRotation("expected a 3x3 matrix, got shape %s" % (r.shape,))
    if (np.max(np.abs(r.T @ r - np.eye(3))) > SO3_TOL
            or abs(np.linalg.det(r) - 1.0) > SO3_TOL):
        raise NotRotation("matrix is not in SO(3) within tolerance %g" % SO3_TOL)

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


def rotvec_to_quat(p):
    """q(P) = [cos(|P|/2), (P/|P|) sin(|P|/2)]; series-stable near zero."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        px, py, pz = p.tolist()
        a = math.sqrt(px * px + py * py + pz * pz)
        half = 0.5 * a
        # sin(a/2)/a = 1/2 - a^2/48 + O(a^4)
        f = 0.5 - a * a / 48.0 if a < _SMALL_ANGLE else float(np.sin(half)) / a
        return np.array([np.cos(half), f * px, f * py, f * pz])
    a = np.sqrt(_dot_rows(p, p))
    half = 0.5 * a
    small = a < _SMALL_ANGLE
    f = np.where(small, 0.5 - a * a / 48.0,
                 np.sin(half) / np.where(small, 1.0, a))
    out = np.empty(p.shape[:-1] + (4,))
    out[..., 0] = np.cos(half)
    np.multiply(f[..., None], p, out=out[..., 1:])
    return out


def quat_to_rotvec(q):
    """Rotation vector of a unit quaternion, with |P| <= pi: a quaternion
    with w < 0 is flipped first."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        w, x, y, z = q.tolist()
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        s = math.sqrt(x * x + y * y + z * z)
        # alpha / sin(alpha/2) -> 2 as alpha -> 0 at unit norm
        f = 2.0 if s < _SMALL_ANGLE else float(2.0 * np.arctan2(s, w)) / s
        return np.array([f * x, f * y, f * z])
    q = np.where(q[..., :1] < 0.0, -q, q)
    v = q[..., 1:]
    s = np.sqrt(_dot_rows(v, v))
    small = s < _SMALL_ANGLE
    f = np.where(small, 2.0,
                 2.0 * np.arctan2(s, q[..., 0]) / np.where(small, 1.0, s))
    return v * f[..., None]


def oplus(q, p):
    """Left manifold perturbation q(P) * q."""
    return quat_normalize(quat_mul(rotvec_to_quat(p), q))


def ominus_vec(q, p):
    """Inverse perturbation q(P)^-1 * q; ominus_vec(oplus(q, p), p) == q."""
    return quat_normalize(quat_mul(quat_conj(rotvec_to_quat(p)), q))


def quat_diff(q1, q2):
    """Rotation vector P(q1 * q2^-1) of unit quaternions; inverse of oplus
    in its first slot. The conjugate stands in for q2^-1: outside the
    small-angle rule P does not depend on the norm of its argument."""
    return quat_to_rotvec(quat_mul(q1, quat_conj(q2)))


def weighted_quat_average(quats, weights):
    """Weighted mean of unit quaternions (k, 4), or of each stack of a
    stack (..., k, 4).

    Returns the dominant eigenvector of A = sum_i w_i q_i q_i^T, which
    maximizes sum_i w_i (q^T q_i)^2 over the unit sphere and is insensitive
    to the sign ambiguity of each input. Weights may be negative (sigma-point
    covariance weights are when the spread parameters call for it); only the
    spectrum of A matters.

    Raises DegenerateSpectrum when a top eigenvalue is not isolated by more
    than MEAN_GAP_TOL, e.g. for an equal-weight pair of rotations a geodesic
    half-turn apart.
    """
    qs = np.asarray(quats, dtype=float)
    ws = np.asarray(weights, dtype=float)
    if qs.ndim < 2 or qs.shape[-1] != 4:
        raise ValueError("expected quaternions with shape (..., k, 4)")
    if ws.shape != qs.shape[-2:-1]:
        raise ValueError("weights length must match quaternion count")
    a = (qs.swapaxes(-1, -2) * ws) @ qs
    vals, vecs = np.linalg.eigh(a)
    gap = vals.T[-1] - vals.T[-2]
    if (gap < MEAN_GAP_TOL) if qs.ndim == 2 else (gap < MEAN_GAP_TOL).any():
        raise DegenerateSpectrum(
            "top eigenvalue gap %.3e below %g" % (np.min(gap), MEAN_GAP_TOL))
    return quat_canonical(quat_normalize(vecs[..., -1]))
