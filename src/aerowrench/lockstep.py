"""Seed-stacked kernels for the lockstep study engine.

:func:`aerowrench.simulation.run_study` advances S closed loops at once:
every array here carries a leading axis over the S runs. The kernels here
mirror the scalar code that has no stacked form of its own: ``quat``,
``QuaternionUkf``, ``ExtendedKalman`` and ``tracking_controller``. Each
performs, run by run, the same floating-point operations in the same order
as its scalar counterpart, so a stacked run reproduces the scalar one. The
rest is shared rather than mirrored: the truth goes through
``dynamics.rigid_body_rk4`` on a component-first stack, the controller's
gyroscopic term through ``dynamics._gyroscopic``, quaternion products
through ``quat._mul_terms`` (in ``quat_mul``'s term order here, in the
QUKF's for the sigma points), and both filters' rows through one
``dynamics.propagate_batch`` call. That rules out a few shortcuts:

* A 1-D ``a @ b`` and a matrix-vector ``m @ x`` reach BLAS dot and gemv,
  which may fuse and reorder differently from an elementwise product and
  sum. :func:`rowdot` and :func:`matvec` make the same calls through stacked
  ``matmul``, which hands each run's operands to BLAS as a separate call.
* BLAS also gets the scalar code's memory layouts: a fancy-indexed stack is
  made row-major first, because a transposed operand changes the rounding.
* ``math.hypot`` and ``math.atan2`` may differ from their numpy versions in
  the last bit, so the controller evaluates them per run in Python.
* Branches of the scalar code become masks, with the scalar's treatment of
  NaN kept (a failed comparison takes the ``else`` branch).

Rare paths (a covariance that needs ``cov_sqrt``'s fallbacks, a failed
factorization) run through the scalar code one run at a time. Errors name
the run by its label, so a study reports which seed failed.
"""

import math

import numpy as np

from . import dynamics as dyn
from . import estimation as est
from . import quat as qt
from .errors import AerowrenchError, SingularInnovation


def rowdot(a, b):
    """Row-wise a @ b of two (S, m) stacks, as S separate BLAS dot calls."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def matvec(m, x):
    """Row-wise m @ x for a (r, c) or (S, r, c) matrix and an (S, c) stack."""
    return (m @ x[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# Quaternion rows, in the operation order of quat.py
# ---------------------------------------------------------------------------

def quat_mul(q1, q2):
    return np.ascontiguousarray(
        qt._mul_terms(q1.T, q2.T, qt._QUAT_MUL_TERMS).T)


def quat_normalize(q):
    n = np.sqrt(rowdot(q, q))
    if not np.all(n != 0.0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n[:, None]


def quat_canonical(q):
    # The first component that compares nonzero decides; NaN never does.
    decided = (q > 0.0) | (q < 0.0)
    first = q[np.arange(q.shape[0]), np.argmax(decided, axis=1)]
    return np.where((first < 0.0)[:, None], -q, q)


def rotvec_to_quat(p):
    a = np.sqrt(rowdot(p, p))
    half = 0.5 * a
    small = a < qt._SMALL_ANGLE
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(small, 0.5 - a * a / 48.0, np.sin(half) / a)
    out = np.empty((p.shape[0], 4))
    out[:, 0] = np.cos(half)
    out[:, 1:] = factor[:, None] * p
    if small.any():
        out[small] = quat_normalize(out[small])
    return out


def quat_to_rotvec(q):
    q = quat_canonical(q)
    w = q[:, 0]
    v = q[:, 1:]
    s = np.sqrt(rowdot(v, v))
    small = s < qt._SMALL_ANGLE
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.where(w > 0.0, 2.0 / w, 2.0)
        far = 2.0 * np.arctan2(s, w) / s
    return v * np.where(small, near, far)[:, None]


def quat_diff(q1, q2):
    conj = q2 * np.array([1.0, -1.0, -1.0, -1.0])
    return quat_to_rotvec(quat_mul(q1, conj / rowdot(q2, q2)[:, None]))


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def _check_innovation(pyy, labels):
    try:
        np.linalg.cholesky(pyy)
    except np.linalg.LinAlgError:
        for label, m in zip(labels, pyy):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise SingularInnovation(
                    "%s: innovation covariance is not positive definite"
                    % label) from None
        raise


def _wrench(x, p):
    """dynamics.wrench_estimate for each row of an (S, >=19) state stack."""
    return x[:, 13:19] + p.delta * x[:, 7:13]


class UkfStack:
    """S copies of one configured QuaternionUkf without padded dimensions,
    stepped together. ``template`` supplies the initial state, covariance,
    noise and weights; it is not modified.

    A predict is split around the propagation so that the caller can
    advance several filters' rows in one ``propagate_batch`` call:
    ``predict_rows()``, propagate, ``finish_predict(rows)``.
    """

    def __init__(self, template, labels):
        self.f = template
        self.labels = labels
        self.x = np.tile(template.x, (len(labels), 1))
        self.P = np.tile(template.P, (len(labels), 1, 1))
        self.mean_q = self.x[:, 0:4].copy()
        self.res = None
        self.nis = None

    @property
    def wrench(self):
        return _wrench(self.x, self.f.params)

    def _cov_sqrt(self):
        # est.cov_sqrt takes its block-Cholesky path for a pinned trailing
        # row, which is the healthy state here; anything else goes through
        # est.cov_sqrt run by run for its checks and fallbacks.
        p = self.P
        k = p.shape[1] - 1
        d = np.diagonal(p, axis1=1, axis2=2)
        if (np.isfinite(p).all() and np.all(d[:, :k] > 0.0)
                and not p[:, k:, :].any()):
            try:
                c = np.linalg.cholesky(p[:, :k, :k])
            except np.linalg.LinAlgError:
                c = None
            if c is not None:
                s = np.zeros_like(p)
                s[:, :k, :k] = c
                return s
        out = np.empty_like(p)
        for i, label in enumerate(self.labels):
            try:
                out[i] = est.cov_sqrt(p[i])
            except AerowrenchError as err:
                raise type(err)("%s: %s" % (label, err)) from None
        return out

    def predict_rows(self):
        """Sigma points (S, 2n+1, 20) about the current means."""
        f = self.f
        n = f.n
        cols = f.scale * self._cov_sqrt().transpose(0, 2, 1)
        deltas = np.zeros((self.x.shape[0], 2 * n + 1, n))
        deltas[:, 1:n + 1] = cols
        deltas[:, n + 1:] = -cols
        deltas[:, :, -1] = 0.0
        x = self.x[:, None, :]
        pts = np.empty((x.shape[0], 2 * n + 1, x.shape[2]))
        dq = est._batch_rotvec_to_quat(deltas[:, :, 0:3].reshape(-1, 3))
        pts[:, :, 0:4] = qt._mul_terms(dq.reshape(pts.shape[0], -1, 4).T,
                                       x[:, :, 0:4].T, qt._UKF_MUL_TERMS).T
        pts[:, :, 4:-1] = x[:, :, 4:-1] + deltas[:, :, 3:-1]
        pts[:, :, -1] = 1.0
        return pts

    def finish_predict(self, pts):
        """Mean and covariance from the propagated sigma points."""
        f = self.f
        qs = pts[:, :, 0:4]
        a = (qs.transpose(0, 2, 1) * f.w_mean) @ qs
        vals, vecs = np.linalg.eigh(a)
        top = quat_canonical(quat_normalize(vecs[:, :, -1]))
        # weighted_quat_average raises DegenerateSpectrum on a flat top
        # eigenvalue; the filter then holds its previous mean.
        flat = vals[:, -1] - vals[:, -2] < 1e-12
        mean = np.empty(self.x.shape)
        mean[:, 0:4] = np.where(flat[:, None], self.mean_q, top)
        mean[:, 4:] = f.w_mean @ pts[:, :, 4:]
        mean[:, 0:4] = quat_normalize(mean[:, 0:4])
        mean[:, -1] = 1.0
        self.mean_q = mean[:, 0:4].copy()

        res = np.empty(pts.shape[:2] + (f.n,))
        res[:, :, 0:3] = est._quats_to_deltas(pts[:, :, 0:4], mean[:, 0:4])
        res[:, :, 3:] = pts[:, :, 4:] - mean[:, None, 4:]
        p = (res * f.w_cov[:, None]).transpose(0, 2, 1) @ res + f.q_disc
        p = 0.5 * (p + p.transpose(0, 2, 1))
        p[:, -1, :] = 0.0
        p[:, :, -1] = 0.0
        self.x, self.P, self.res = mean, p, res

    def update(self, mq, mr, mw):
        f = self.f
        n = f.n
        rx = self.res
        ry = np.ascontiguousarray(rx[:, :, f.OBS_IDX])
        wc = f.w_cov[:, None]
        pyy = (ry * wc).transpose(0, 2, 1) @ ry + f.r_mat
        pxy = (rx * wc).transpose(0, 2, 1) @ ry

        innov = np.empty((rx.shape[0], 9))
        innov[:, 0:3] = quat_diff(quat_normalize(mq), self.mean_q)
        innov[:, 3:6] = mr - self.x[:, 4:7]
        innov[:, 6:9] = mw - self.x[:, 10:13]
        _check_innovation(pyy, self.labels)
        rhs = np.empty((rx.shape[0], 9, n + 1))
        rhs[:, :, :n] = pxy.transpose(0, 2, 1)
        rhs[:, :, n] = innov
        sol = np.linalg.solve(pyy, rhs)
        gain = sol[:, :, :n].transpose(0, 2, 1)
        self.nis = rowdot(innov, sol[:, :, n])

        dx = matvec(gain, innov)
        dx[:, -1] = 0.0
        x = self.x.copy()
        x[:, 0:4] = quat_mul(rotvec_to_quat(dx[:, 0:3]), x[:, 0:4])
        x[:, 4:-1] += dx[:, 3:-1]
        x[:, -1] = 1.0
        x[:, 0:4] = quat_normalize(x[:, 0:4])
        self.x = x
        self.mean_q = x[:, 0:4].copy()
        p = self.P - gain @ pyy @ gain.transpose(0, 2, 1)
        p = 0.5 * (p + p.transpose(0, 2, 1))
        p[:, -1, :] = 0.0
        p[:, :, -1] = 0.0
        self.P = p


class EkfStack:
    """S copies of one configured ExtendedKalman stepped together, with
    the predict split as in UkfStack."""

    def __init__(self, template, labels):
        self.f = template
        self.labels = labels
        self.x = np.tile(template.x, (len(labels), 1))
        self.P = np.tile(template.P, (len(labels), 1, 1))
        self.nis = None
        self._plus = (slice(None),) + est.ExtendedKalman._PLUS
        self._minus = (slice(None),) + est.ExtendedKalman._MINUS

    @property
    def wrench(self):
        return _wrench(self.x, self.f.params)

    def predict_rows(self):
        """The centre and the central-difference rows (S, 39, 20)."""
        h = self.f.fd_step
        self.x[:, 0:4] = quat_normalize(self.x[:, 0:4])
        batch = np.empty((self.x.shape[0], 39, 20))
        batch[:, :, :19] = self.x[:, None, :]
        batch[:, :, 19] = 1.0
        batch[self._plus] += h
        batch[self._minus] -= h
        return batch

    def finish_predict(self, prop):
        h = self.f.fd_step
        jac = (prop[:, 1:20, :19] - prop[:, 20:39, :19]).transpose(0, 2, 1) / (2.0 * h)
        self.x = prop[:, 0, :19].copy()
        p = jac @ self.P @ jac.transpose(0, 2, 1) + self.f.q_disc
        self.P = 0.5 * (p + p.transpose(0, 2, 1))

    def update(self, mq, mr, mw):
        idx = self.f.OBS_IDX
        zq = quat_normalize(mq)
        zq = np.where((rowdot(zq, self.x[:, 0:4]) < 0.0)[:, None], -zq, zq)
        z = np.concatenate([zq, mr, mw], axis=1)
        pyy = np.ascontiguousarray(self.P[:, idx[:, None], idx]) + self.f.r_mat
        _check_innovation(pyy, self.labels)
        resid = z - np.ascontiguousarray(self.x[:, idx])
        rhs = np.empty((z.shape[0], 10, 20))
        rhs[:, :, :19] = self.P[:, :, idx].transpose(0, 2, 1)
        rhs[:, :, 19] = resid
        sol = np.linalg.solve(pyy, rhs)
        gain = sol[:, :, :19].transpose(0, 2, 1)
        self.x = self.x + matvec(gain, resid)
        self.x[:, 0:4] = quat_normalize(self.x[:, 0:4])
        self.nis = rowdot(resid, sol[:, :, 19])
        p = self.P - gain @ pyy @ gain.transpose(0, 2, 1)
        self.P = 0.5 * (p + p.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# Controller, in the operation order of simulation.tracking_controller
# ---------------------------------------------------------------------------

def tracking_controller(x, ref_r, ref_v, params, g):
    """Thrust and moments (S, 4) from estimated states x (S, >=13)."""
    r, v, w = x[:, 4:7], x[:, 7:10], x[:, 10:13]
    a = g.kp * (ref_r - r) + g.kd * (ref_v - v)
    lim = g.accel_max
    a = np.where(a > lim, lim, np.where(a < -lim, -lim, a))
    m = params.mass
    f0 = m * a[:, 0]
    f1 = m * a[:, 1]
    f2 = m * (a[:, 2] + params.gravity)
    fmag = np.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    out = np.empty((x.shape[0], 4))
    out[:, 0] = np.where(fmag < params.u_max, fmag, params.u_max)

    q_des = np.tile(qt.quat_identity(), (x.shape[0], 1))
    tilt = np.zeros((x.shape[0], 3))
    tilted = np.zeros(x.shape[0], dtype=bool)
    lift = fmag > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        zb0, zb1, zb2 = f0 / fmag, f1 / fmag, f2 / fmag
    for i in np.flatnonzero(lift):
        b0, b1, b2 = float(zb0[i]), float(zb1[i]), float(zb2[i])
        s_ax = math.hypot(b0, b1)
        if s_ax > 1e-12:
            k = math.atan2(s_ax, b2) / s_ax
            tilt[i] = (-b1 * k, b0 * k, 0.0)
            tilted[i] = True
    if tilted.any():
        q_des[tilted] = rotvec_to_quat(tilt[tilted])

    e_rot = quat_diff(q_des, x[:, 0:4])
    gyro = dyn._gyroscopic(w.T, matvec(params.inertia, w).T).T
    out[:, 1:4] = matvec(params.inertia, g.kp_att * e_rot - g.kd_att * w) + gyro
    return out
