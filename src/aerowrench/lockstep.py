"""Seed-stacked kernels for the lockstep study engine.

:func:`aerowrench.simulation.run_study` advances S closed loops at once:
every array here carries a leading axis over the S runs. ``UkfStack`` and
``EkfStack`` run the same shape-generic kernels of :mod:`.estimation` and
the same row forms of the :mod:`.quat` helpers as the scalar filters; the
truth goes through ``dynamics.rigid_body_rk4`` and both filters' rows
through one ``dynamics.propagate_batch`` call. This module keeps what has
no shared form: the stacked quaternion mean, ``tracking_controller``, and
the per-run labels and fallbacks. Each repeats, run by run, the
floating-point operations of its scalar counterpart in the same order, so
a stacked run reproduces the scalar one. That rules out a few shortcuts:

* A matrix-vector ``m @ x`` reaches BLAS gemv, which may fuse and reorder
  differently from an elementwise product and sum. ``dynamics.matvec``
  makes the same call through stacked ``matmul``, which hands each run's
  operands to BLAS as a separate call.
* BLAS also gets the scalar code's memory layouts: a fancy-indexed stack is
  made row-major first, because a transposed operand changes the rounding.
* ``math.hypot`` and ``math.atan2`` may differ from their numpy versions in
  the last bit, so the controller evaluates them per run in Python.
* Branches of the scalar code become masks, with the scalar's treatment of
  NaN kept (a failed comparison takes the ``else`` branch).

Rare paths (a covariance outside ``cov_sqrt``'s Cholesky case, a failed
factorization) run through the scalar code one run at a time. Errors name
the run by its label, so a study reports which seed failed.
"""

import math

import numpy as np

from . import dynamics as dyn
from . import estimation as est
from . import quat as qt
from .errors import AerowrenchError, SingularInnovation


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def _check_innovation(pyy, labels):
    """Raise SingularInnovation naming the first run whose innovation
    covariance is not positive definite."""
    for label, m in zip(labels, pyy):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise SingularInnovation(
                "%s: innovation covariance is not positive definite"
                % label) from None


def _gain(pyy, pxy, innov, labels):
    """est._gain on a stack; a singular innovation names its run."""
    try:
        return est._gain(pyy, pxy, innov)
    except SingularInnovation:
        _check_innovation(pyy, labels)
        raise


class UkfStack:
    """S copies of one configured QuaternionUkf without padded dimensions,
    stepped together. ``template`` supplies the initial state, covariance,
    noise and weights; it is not modified.

    A predict is split around the propagation so that the caller can
    advance several filters' rows in one ``propagate_batch`` call:
    ``predict_rows()``, propagate, ``finish_predict(rows)``. Like the
    scalar filter, the stack owns its (S, 2n+1)-row buffers; the rows
    ``predict_rows`` returns are valid until its next call.
    """

    def __init__(self, template, labels):
        self.f = template
        self.labels = labels
        self.x = np.tile(template.x, (len(labels), 1))
        self.P = np.tile(template.P, (len(labels), 1, 1))
        self.mean_q = self.x[:, 0:4].copy()
        rows = (len(labels), 2 * template.n + 1)
        self._deltas = np.zeros(rows + (template.n,))  # row 0 stays 0
        self._pts = np.empty(rows + self.x.shape[1:])
        self._res = np.empty(rows + (template.n,))
        self._wres = np.empty(rows + (template.n,))
        self.nis = None

    @property
    def wrench(self):
        x = self.x
        return dyn.wrench_estimate(x[:, 13:19], x[:, 7:10], x[:, 10:13], self.f.params)

    def _cov_sqrt(self):
        # cov_sqrt's Cholesky case, stacked; a run outside it (a different
        # live block, a failed factor) sends every run through est.cov_sqrt
        # for its checks and fallbacks.
        p = self.P
        if np.isfinite(p).all():
            s = est._block_cholesky(p)
            if s is not None:
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
        return est._sigma_points(self.x, self._cov_sqrt(), self.f.scale,
                                 self._deltas, self._pts)

    def finish_predict(self, pts):
        """Mean and covariance from the propagated sigma points."""
        f = self.f
        qs = pts[:, :, 0:4]
        a = (qs.transpose(0, 2, 1) * f.w_mean) @ qs
        vals, vecs = np.linalg.eigh(a)
        top = qt.quat_canonical(qt.quat_normalize(vecs[:, :, -1]))
        # weighted_quat_average raises DegenerateSpectrum on a flat top
        # eigenvalue; the filter then holds its previous mean.
        flat = vals[:, -1] - vals[:, -2] < 1e-12
        mean = np.empty(self.x.shape)
        mean[:, 0:4] = np.where(flat[:, None], self.mean_q, top)
        mean[:, 4:] = f.w_mean @ pts[:, :, 4:]
        mean[:, 0:4] = qt.quat_normalize(mean[:, 0:4])
        mean[:, -1] = 1.0
        self.mean_q = mean[:, 0:4].copy()
        res = est._residuals(pts, mean, self._res)
        self.x, self.P = mean, est._sigma_cov(res, f.w_cov, f.q_disc, self._wres)

    def update(self, mq, mr, mw):
        f = self.f
        pyy, pxy = est._observed_cov(self._res, self._wres, f.w_cov, f.r_mat)
        innov = np.empty((mq.shape[0], 9))
        innov[:, 0:3] = qt.quat_diff(qt.quat_normalize(mq), self.mean_q)
        innov[:, 3:6] = mr - self.x[:, 4:7]
        innov[:, 6:9] = mw - self.x[:, 10:13]
        gain, self.nis = _gain(pyy, pxy, innov, self.labels)

        dx = dyn.matvec(gain, innov)
        dx[:, -1] = 0.0
        x = self.x.copy()
        x[:, 0:4] = qt.quat_mul(qt.rotvec_to_quat(dx[:, 0:3]), x[:, 0:4])
        x[:, 4:-1] += dx[:, 3:-1]
        x[:, -1] = 1.0
        x[:, 0:4] = qt.quat_normalize(x[:, 0:4])
        self.x = x
        self.mean_q = x[:, 0:4].copy()
        self.P = est._pin(est._posterior(self.P, gain, pyy))


class EkfStack:
    """S copies of one configured ExtendedKalman stepped together, with
    the predict split as in UkfStack."""

    def __init__(self, template, labels):
        self.f = template
        self.labels = labels
        self.x = np.tile(template.x, (len(labels), 1))
        self.P = np.tile(template.P, (len(labels), 1, 1))
        self.nis = None

    @property
    def wrench(self):
        x = self.x
        return dyn.wrench_estimate(x[:, 13:19], x[:, 7:10], x[:, 10:13], self.f.params)

    def predict_rows(self):
        """The centre and the central-difference rows (S, 39, 20)."""
        self.x[:, 0:4] = qt.quat_normalize(self.x[:, 0:4])
        return est._difference_rows(self.x, self.f._fd_offsets)

    def finish_predict(self, prop):
        f = self.f
        self.x, self.P = est._jacobian_cov(prop, self.P, f.q_disc, f.fd_step)

    def update(self, mq, mr, mw):
        idx = self.f.OBS_IDX
        zq = qt.quat_normalize(mq)
        zq = np.where((qt.quat_dot(zq, self.x[:, 0:4]) < 0.0)[:, None], -zq, zq)
        resid = (np.concatenate([zq, mr, mw], axis=1)
                 - np.ascontiguousarray(self.x[:, idx]))
        pyy = (np.ascontiguousarray(self.P[(Ellipsis,) + self.f._OBS_BLOCK])
               + self.f.r_mat)
        gain, self.nis = _gain(pyy, self.P[:, :, idx], resid, self.labels)
        self.x = self.x + dyn.matvec(gain, resid)
        self.x[:, 0:4] = qt.quat_normalize(self.x[:, 0:4])
        self.P = est._posterior(self.P, gain, pyy)


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

    # An untilted run keeps a zero rotation vector, whose quaternion is
    # the scalar controller's identity to the bit.
    tilt = np.zeros((x.shape[0], 3))
    lift = fmag > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        zb0, zb1, zb2 = f0 / fmag, f1 / fmag, f2 / fmag
    for i in np.flatnonzero(lift):
        b0, b1, b2 = float(zb0[i]), float(zb1[i]), float(zb2[i])
        s_ax = math.hypot(b0, b1)
        if s_ax > 1e-12:
            k = math.atan2(s_ax, b2) / s_ax
            tilt[i] = (-b1 * k, b0 * k, 0.0)

    e_rot = qt.quat_diff(qt.rotvec_to_quat(tilt), x[:, 0:4])
    gyro = dyn._gyroscopic(w.T, dyn.matvec(params.inertia, w).T).T
    out[:, 1:4] = dyn.matvec(params.inertia, g.kp_att * e_rot - g.kd_att * w) + gyro
    return out
