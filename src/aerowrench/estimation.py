"""Joint state and wrench estimators.

Two filters share the same discrete process model from :mod:`.dynamics`:

* :class:`QuaternionUkf` keeps the attitude on the unit-quaternion manifold.
  Sigma points and residuals live in a reduced error space (rotation vector
  for attitude, plain differences elsewhere) and are mapped through the
  group operations from :mod:`.quat`, so no step ever leaves the manifold.
* :class:`ExtendedKalman` is the flat baseline: the quaternion is treated as
  four ordinary coordinates, Jacobians come from central differences, and
  the norm is restored by renormalizing after each step.

Both estimate a 6-component external wrench through the momentum-observer
states carried inside the process model.  The filters' velocity rows
deliberately omit the wrench feed-through, and the process noise on
velocity does not absorb that mismatch: under a held 2 N step force the
F_hx estimate averages 0.48 / 0.29 / 0.32 N over 2-3 / 3-6 / 6-10 s with a
standard deviation of 0.55-0.71 N, because each update pulls the estimate
back toward zero (both filters alike).
"""

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import quat as qt
from .errors import (DegenerateScaling, DegenerateSpectrum,
                     FactorizationFailure, SingularInnovation)

# Error-state layout: attitude deviation enters as a rotation vector, so the
# error space has one dimension fewer than the state vector.
EQ = slice(0, 3)
ER = slice(3, 6)
EV = slice(6, 9)
EW = slice(9, 12)
EU = slice(12, 18)
E_DIM = 19  # includes the pinned trailing component

DEFAULT_Q_DIAG = np.array([1e-4] * 3 + [1e-4] * 3 + [1e-1] * 3
                          + [1e-3] * 3 + [1e-2] * 6 + [0.0])
DEFAULT_R_DIAG = np.array([1e-4] * 3 + [1e-4] * 3 + [1e-3] * 3)
DEFAULT_P0_DIAG = np.array([1e-4] * 3 + [1e-2] * 3 + [1e-2] * 3
                           + [1e-2] * 3 + [1e0] * 6 + [0.0])


def ut_weights(n, phi=1.0, gamma=2.0, sigma=0.0):
    """Scaled unscented-transform weights for an n-dimensional error state.

    Returns ``(eta, w_mean, w_cov)`` where ``eta`` is the composite scaling
    term and the weight arrays cover the 2n+1 sigma points.  Raises
    :class:`DegenerateScaling` when the scaling collapses the point spread.
    """
    eta = phi * phi * (n + sigma) - n
    if n + eta <= 0.0:
        raise DegenerateScaling(
            f"sigma point spread n + eta = {n + eta:g} must be positive")
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + eta)))
    w_cov = w_mean.copy()
    w_mean[0] = eta / (n + eta)
    w_cov[0] = eta / (n + eta) + (1.0 - phi * phi + gamma)
    return eta, w_mean, w_cov


@dataclass
class NoiseConfig:
    """Continuous process noise and discrete measurement noise diagonals.

    ``q_diag`` is a density on the error state; multiplying by the step
    length gives the discrete covariance.  ``r_diag`` covers the pose and
    rate measurement in error coordinates (rotation vector, position,
    angular velocity).
    """
    q_diag: np.ndarray = field(default_factory=lambda: DEFAULT_Q_DIAG.copy())
    r_diag: np.ndarray = field(default_factory=lambda: DEFAULT_R_DIAG.copy())

    def q_discrete(self, dt, pad_dims=0):
        d = self.q_diag * dt
        if pad_dims:
            d = np.concatenate([d[:-1], np.zeros(pad_dims), d[-1:]])
        return np.diag(d)

    def r_matrix(self):
        return np.diag(self.r_diag)


@dataclass
class Measurement:
    """Pose and body-rate measurement: attitude, position, angular velocity."""
    q: np.ndarray
    r: np.ndarray
    omega: np.ndarray

    @classmethod
    def from_state(cls, state):
        return cls(q=state.q.copy(), r=state.r.copy(), omega=state.omega.copy())


@dataclass
class AugmentedState:
    body: dyn.BodyState
    observer: dyn.ObserverState

    @classmethod
    def hover(cls, position=(0.0, 0.0, 0.0)):
        return cls(body=dyn.BodyState.hover(position), observer=dyn.ObserverState.zero())

    @classmethod
    def from_vector(cls, x):
        return cls(body=dyn.BodyState.from_vector(x[:13]),
                   observer=dyn.ObserverState(upsilon=np.asarray(x[13:19], dtype=float).copy()))

    def as_vector(self):
        return np.concatenate([self.body.as_vector(), self.observer.upsilon, [1.0]])


def _leading_cholesky(p, k):
    # Cholesky factor of the leading k x k block, zero-padded to p's shape;
    # None when that block is not positive definite.
    try:
        c = np.linalg.cholesky(p[:k, :k])
    except np.linalg.LinAlgError:
        return None
    s = np.zeros_like(p)
    s[:k, :k] = c
    return s


def cov_sqrt(p, clamp_tol=0.0):
    """Matrix square root factor S with S @ S.T == p for symmetric PSD p.

    Cholesky when the matrix allows it; otherwise an eigendecomposition
    with negative eigenvalues clamped to ``clamp_tol``.  A diagonal zero
    (a pinned dimension) rules Cholesky out up front.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise FactorizationFailure("covariance contains non-finite entries")
    d = np.diagonal(p)
    k = len(d) - 1
    s = None
    if k >= 0 and not p[k].any() and (d[:k] > 0.0).all():
        # The filters' healthy state, tested first: only the trailing scale
        # anchor is pinned, so the live block is everything before it.
        s = _leading_cholesky(p, k)
    elif np.all(d > 0.0):
        try:
            return np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            pass
    else:
        # Pinned dimensions carry a zero diagonal and, when healthy, a zero
        # row. They sit in a contiguous tail here (pads then the scale
        # anchor), so factoring the live leading block keeps the cheap path.
        k = int(np.argmin(d > 0.0))
        if np.all(d[:k] > 0.0) and not d[k:].any() and not p[k:, :].any():
            s = _leading_cholesky(p, k)
    if s is not None:
        return s
    try:
        vals, vecs = np.linalg.eigh(p)
    except np.linalg.LinAlgError as err:
        raise FactorizationFailure(f"eigendecomposition failed: {err}") from None
    return vecs * np.sqrt(np.maximum(vals, clamp_tol))


# Batched quaternion helpers for the sigma-point set and the metrics. They
# are not the scalar functions of quat.py applied row by row, and differ
# from them in the last bits on a share of random rows. Each keeps the
# arithmetic the QUKF has always used, because the filter's output, and
# UkfStack's bit-for-bit copy of it, depend on those bits:
# _batch_rotvec_to_quat takes the norm by einsum and does not renormalise
# on its small-angle branch; _batch_quat_to_rotvec takes the norm by
# einsum, with its own small-angle cut; and products go through
# qt._mul_terms with _UKF_MUL_TERMS, whose components 2 and 3 sum their
# terms in another order than qt.quat_mul.

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _batch_rotvec_to_quat(p):
    ang = np.sqrt(np.einsum("ij,ij->i", p, p))
    half = 0.5 * ang
    small = ang < 1e-6
    s = np.where(small, 0.5 - ang * ang / 48.0,
                 np.sin(half) / np.where(ang == 0.0, 1.0, ang))
    out = np.empty((p.shape[0], 4))
    out[:, 0] = np.cos(half)
    out[:, 1:] = p * s[:, None]
    return out


def _batch_quat_to_rotvec(q):
    q = np.where(q[:, :1] < 0.0, -q, q)
    v = q[:, 1:]
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    ang = 2.0 * np.arctan2(nv, q[:, 0])
    factor = np.where(nv < 1e-9, 2.0, ang / np.where(nv == 0.0, 1.0, nv))
    return q[:, 1:] * factor[:, None]


def _quats_to_deltas(quats, center):
    """Rotation-vector residuals of quaternion rows (..., m, 4) about
    centres (..., 4), one per leading index; returns (..., m, 3)."""
    inv = center * _CONJ
    prod = qt._mul_terms(quats.T, inv[..., None, :].T, qt._UKF_MUL_TERMS)
    rows = np.ascontiguousarray(prod.T)
    return _batch_quat_to_rotvec(rows.reshape(-1, 4)).reshape(
        quats.shape[:-1] + (3,))


class QuaternionUkf:
    """Unscented filter on the quaternion manifold with wrench observer states.

    ``pad_dims`` appends inert error dimensions (identity dynamics, zero
    noise) between the observer block and the pinned trailing component;
    they exist so the cost scaling of the linear algebra can be measured.

    Buffer ownership: the filter owns its four (2n+1)-row arrays (the
    error-space displacements, the sigma points, the residuals and the
    weighted residuals). ``__init__`` allocates them and every ``predict``
    overwrites them. At n=99 each is about 155 KiB, above glibc's 128 KiB
    mmap threshold; allocated afresh at each step, they would go back to
    the OS when freed and be faulted in again on the next step. ``x`` and
    ``P`` are new arrays after every ``predict`` and ``update``, so a
    caller may keep them. ``_sigma`` and ``_res`` are views of the
    buffers, valid until the next ``predict``.
    """

    # Error-state rows that the pose and rate measurement observes.
    OBS_IDX = np.array([0, 1, 2, 3, 4, 5, 9, 10, 11])

    def __init__(self, params=None, noise=None, dt=0.01, initial=None,
                 p0_diag=None, phi=1.0, gamma=2.0, sigma=0.0, pad_dims=0):
        self.params = params if params is not None else dyn.SystemParams()
        self.noise = noise if noise is not None else NoiseConfig()
        self.dt = float(dt)
        self.pad_dims = int(pad_dims)
        self.n = E_DIM + self.pad_dims
        self.eta, self.w_mean, self.w_cov = ut_weights(self.n, phi, gamma, sigma)
        self.scale = np.sqrt(self.n + self.eta)

        if initial is None:
            initial = AugmentedState.hover()
        base = initial.as_vector()
        # State rows carry pads between the observer block and the trailing 1.
        self.x = np.concatenate([base[:19], np.zeros(self.pad_dims), base[19:]])
        diag = p0_diag if p0_diag is not None else DEFAULT_P0_DIAG
        diag = np.asarray(diag, dtype=float)
        if self.pad_dims:
            diag = np.concatenate([diag[:-1], np.zeros(self.pad_dims), diag[-1:]])
        self.P = np.diag(diag)
        self.q_disc = self.noise.q_discrete(self.dt, self.pad_dims)
        self.r_mat = self.noise.r_matrix()
        self.ctx = dyn.TransitionContext(self.params, self.dt)
        self.last_nis = None
        rows = 2 * self.n + 1
        self._deltas = np.zeros((rows, self.n))  # row 0 and column -1 stay 0
        self._pts = np.empty((rows, self.x.shape[0]))
        self._res_buf = np.empty((rows, self.n))
        self._wres = np.empty((rows, self.n))    # _res_buf * w_cov[:, None]
        self._sigma = None
        self._res = None
        self._mean_q = self.x[0:4].copy()

    # -- state views -------------------------------------------------------

    @property
    def augmented_state(self):
        return AugmentedState.from_vector(np.concatenate([self.x[:19], [1.0]]))

    @property
    def wrench(self):
        return dyn.wrench_estimate(self.x[13:19], self.x[7:10], self.x[10:13],
                                   self.params)

    # -- sigma point machinery --------------------------------------------

    def _apply_deltas(self, deltas, out=None):
        """Map error-space displacements onto the state manifold, into
        ``out`` (a new array when None)."""
        pts = np.empty((deltas.shape[0], self.x.shape[0])) if out is None else out
        dq = _batch_rotvec_to_quat(deltas[:, EQ])
        pts[:, 0:4] = qt._mul_terms(dq.T, self.x[0:4, None],
                                    qt._UKF_MUL_TERMS).T
        # State components 4:-1 (pads included) take error components 3:-1.
        np.add(self.x[4:-1], deltas[:, 3:-1], out=pts[:, 4:-1])
        pts[:, -1] = 1.0
        return pts

    def _residuals(self, pts, mean, out=None):
        res = np.empty((pts.shape[0], self.n)) if out is None else out
        res[:, EQ] = _quats_to_deltas(pts[:, 0:4], mean[0:4])
        np.subtract(pts[:, 4:], mean[4:], out=res[:, 3:])
        return res

    def _propagate(self, pts, u_vec):
        """Advance the sigma points in place; pad components keep their
        values (identity dynamics)."""
        core = pts
        if self.pad_dims:
            core = np.concatenate([pts[:, :19], pts[:, -1:]], axis=1)
        prop = dyn.propagate_batch(core, u_vec, self.ctx)
        pts[:, :19] = prop[:, :19]
        pts[:, -1] = prop[:, -1]
        return pts

    def _mean_state(self, pts):
        try:
            mean_q = qt.weighted_quat_average(pts[:, 0:4], self.w_mean)
        except DegenerateSpectrum:
            # A flat spectrum leaves the average undefined; holding the
            # previous mean keeps the filter running through the ambiguity.
            mean_q = self._mean_q
        rest = self.w_mean @ pts[:, 4:]
        self._mean_q = mean_q
        return np.concatenate([mean_q, rest])

    # -- filter steps ------------------------------------------------------

    def predict(self, control):
        u_vec = control.as_vector()
        s = cov_sqrt(self.P)
        n, deltas = self.n, self._deltas
        np.multiply(self.scale, s.T, out=deltas[1:n + 1])
        np.negative(deltas[1:n + 1], out=deltas[n + 1:])
        deltas[:, -1] = 0.0
        pts = self._propagate(self._apply_deltas(deltas, self._pts), u_vec)

        mean = self._mean_state(pts)
        mean[0:4] = qt.quat_normalize(mean[0:4])
        mean[-1] = 1.0
        self._mean_q = mean[0:4].copy()
        res = self._residuals(pts, mean, self._res_buf)
        np.multiply(res, self.w_cov[:, None], out=self._wres)
        p = self._wres.T @ res + self.q_disc
        p = 0.5 * (p + p.T)
        p[-1, :] = 0.0
        p[:, -1] = 0.0
        self.x, self.P, self._sigma, self._res = mean, p, pts, res
        return self

    def update(self, meas):
        if self._sigma is None:
            raise SingularInnovation("update called before any prediction")
        obs_mean_q = self._mean_q
        obs_mean_r = self.x[4:7]
        obs_mean_w = self.x[10:13]

        # The propagated points are observed directly, so the observation
        # residuals are a column subset of the state residuals the predict
        # step already formed about the same mean.
        rx = self._res
        # The fancy index comes back column-major; BLAS gets a row-major
        # copy, since a transposed operand may round differently.
        ry = np.ascontiguousarray(rx[:, self.OBS_IDX])

        wc = self.w_cov[:, None]
        pyy = (ry * wc).T @ ry + self.r_mat
        pxy = self._wres.T @ ry  # _wres is rx * wc, formed in predict

        innov = np.concatenate([
            qt.quat_diff(qt.quat_normalize(meas.q), obs_mean_q),
            meas.r - obs_mean_r,
            meas.omega - obs_mean_w,
        ])
        try:
            np.linalg.cholesky(pyy)
        except np.linalg.LinAlgError:
            raise SingularInnovation("innovation covariance is not positive definite") from None
        rhs = np.empty((9, self.n + 1))
        rhs[:, :self.n] = pxy.T
        rhs[:, self.n] = innov
        sol = np.linalg.solve(pyy, rhs)
        gain = sol[:, :self.n].T
        self.last_nis = float(innov @ sol[:, self.n])

        dx = gain @ innov
        dx[-1] = 0.0
        x = self.x.copy()
        x[0:4] = qt.quat_mul(qt.rotvec_to_quat(dx[0:3]), x[0:4])
        x[4:-1] += dx[3:-1]
        x[-1] = 1.0
        self.x = x
        self.x[0:4] = qt.quat_normalize(self.x[0:4])
        self._mean_q = self.x[0:4].copy()
        p = self.P - gain @ pyy @ gain.T
        p = 0.5 * (p + p.T)
        p[-1, :] = 0.0
        p[:, -1] = 0.0
        self.P = p
        return self

    def step(self, control, meas):
        self.predict(control)
        self.update(meas)
        return self


def _q_block_diag(rot_diag):
    """Additive-coordinate variance for the quaternion block.

    A rotation-vector perturbation d maps to a quaternion increment of
    roughly 0.5 * q x (0, d), so variances shrink by a factor of four; the
    scalar component gets the mean of the axis variances.
    """
    rot_diag = np.asarray(rot_diag, dtype=float)
    return np.concatenate([[rot_diag.mean() / 4.0], rot_diag / 4.0])


class ExtendedKalman:
    """Additive-coordinate baseline filter over the same process model.

    State is the raw 19-vector (quaternion, position, velocity, body rates,
    observer states); the transition Jacobian comes from central
    differences through the exact discrete propagation.

    The differences divide the rounding of the propagated rows by fd_step,
    so the filter magnifies a change in the last bits upstream of it by
    about 1/fd_step. With the default 1e-6, a one-ulp change in three
    entries of the admittance map moves the truth of a 10 s run (seed 0)
    by 1.9e-15, the QUKF states by 4.8e-13 and the EKF states by 1.5e-8.
    A change that reorders float arithmetic ahead of this filter should
    expect EKF differences near 1e-8.
    """

    OBS_IDX = np.array([0, 1, 2, 3, 4, 5, 6, 10, 11, 12])
    # Rows of the central-difference batch that step coordinate i up (1 + i)
    # and down (20 + i).
    _PLUS = (np.arange(1, 20), np.arange(19))
    _MINUS = (np.arange(20, 39), np.arange(19))

    def __init__(self, params=None, noise=None, dt=0.01, initial=None,
                 p0_diag=None, fd_step=1e-6):
        self.params = params if params is not None else dyn.SystemParams()
        self.noise = noise if noise is not None else NoiseConfig()
        self.dt = float(dt)
        self.fd_step = float(fd_step)
        if initial is None:
            initial = AugmentedState.hover()
        self.x = initial.as_vector()[:19]

        diag = np.asarray(p0_diag if p0_diag is not None else DEFAULT_P0_DIAG,
                          dtype=float)
        self.P = np.diag(np.concatenate([_q_block_diag(diag[0:3]), diag[3:18]]))
        qd = self.noise.q_diag * self.dt
        self.q_disc = np.diag(np.concatenate([_q_block_diag(qd[0:3]), qd[3:18]]))
        rd = self.noise.r_diag
        self.r_mat = np.diag(np.concatenate([_q_block_diag(rd[0:3]), rd[3:6], rd[6:9]]))
        self.ctx = dyn.TransitionContext(self.params, self.dt)
        self.last_nis = None

    @property
    def augmented_state(self):
        x = self.x.copy()
        x[0:4] = qt.quat_normalize(x[0:4])
        return AugmentedState.from_vector(np.concatenate([x, [1.0]]))

    @property
    def wrench(self):
        return dyn.wrench_estimate(self.x[13:19], self.x[7:10], self.x[10:13],
                                   self.params)

    def predict(self, control):
        u_vec = control.as_vector()
        h = self.fd_step
        self.x[0:4] = qt.quat_normalize(self.x[0:4])
        batch = np.tile(np.concatenate([self.x, [1.0]]), (39, 1))
        batch[self._PLUS] += h
        batch[self._MINUS] -= h
        prop = dyn.propagate_batch(batch, u_vec, self.ctx)
        f = (prop[1:20, :19] - prop[20:39, :19]).T / (2.0 * h)
        self.x = prop[0, :19].copy()
        p = f @ self.P @ f.T + self.q_disc
        self.P = 0.5 * (p + p.T)
        return self

    def update(self, meas):
        idx = self.OBS_IDX
        zq = qt.quat_normalize(meas.q)
        if zq @ self.x[0:4] < 0.0:
            zq = -zq  # keep the residual on the near side of the double cover
        z = np.concatenate([zq, meas.r, meas.omega])
        pyy = self.P[np.ix_(idx, idx)] + self.r_mat
        try:
            np.linalg.cholesky(pyy)
        except np.linalg.LinAlgError:
            raise SingularInnovation("innovation covariance is not positive definite") from None
        resid = z - self.x[idx]
        rhs = np.empty((10, 20))
        rhs[:, :19] = self.P[:, idx].T
        rhs[:, 19] = resid
        sol = np.linalg.solve(pyy, rhs)
        gain = sol[:, :19].T
        self.x = self.x + gain @ resid
        self.x[0:4] = qt.quat_normalize(self.x[0:4])
        self.last_nis = float(resid @ sol[:, 19])
        p = self.P - gain @ pyy @ gain.T
        self.P = 0.5 * (p + p.T)
        return self

    def step(self, control, meas):
        self.predict(control)
        self.update(meas)
        return self
