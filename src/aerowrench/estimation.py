"""Joint state and wrench estimators.

Two filters share one skeleton, ``_Filter``: the process model of
:mod:`.dynamics`, the wrench estimate, the step and the whitened
correction, fed Pxy, the observed columns of the QUKF's P- less Q (the
spread of its propagated sigma points) or of the EKF's P-, and Pyy = Pxy's
observed rows + R. Each filter writes only its prediction, its innovation
and how it applies the correction. The QUKF's prediction and both updates'
reductions of P are Gram products (of the sigma residuals, of the whitened
gain), so exactly symmetric; only the EKF's J P J^T is symmetrized.

* :class:`QuaternionUkf` keeps the attitude on the unit-quaternion manifold.
  Sigma points and residuals live in a reduced error space (rotation vector
  for attitude, plain differences elsewhere) and are mapped through the
  group operations from :mod:`.quat`, so no step ever leaves the manifold.
  The points spread over the live block alone; the inert components (the
  pin and any pads) keep the centre's values, and their residuals are 0.
  The set has 2 E_DIM + 1 = 39 points at any padding: a pad's two points
  would be copies of the centre, so the centre takes their weight, and
  pads add only n x n covariance work.
* :class:`ExtendedKalman` is the flat baseline: the quaternion is treated as
  four ordinary coordinates, Jacobians come from central differences, and
  the norm is restored by renormalizing after each step.

A filter's state ``x`` is one vector in the layout of :mod:`.dynamics`:
the QUKF's is the augmented 20-state and then its pads, the EKF's the
first 19 components. Both start from a ``BodyState`` with the observer
states at zero.

Each filter steps one run, ``x`` of shape (m,), or a stack of runs: a
configured filter whose ``x`` and ``P`` are tiled to (S, m) and
(S, n, n), stepped with controls and measurements whose fields carry the
run axis. The methods are written with ``...``, and each run of a stack
reproduces the lone filter bit for bit: BLAS gets a lone run's operands
and layouts (numpy's matmul makes one BLAS call per matrix of a stack, a
vector enters as an (..., m, 1) column through ``dynamics.matvec``, a
block taken out of a stack is row-major); every quaternion operation
is a :mod:`.quat` helper, whose lone and row forms agree bit for bit; and
the rare paths (a covariance outside ``cov_sqrt``'s Cholesky case, a flat
top eigenvalue in the QUKF's mean) take the runs one at a time through
the lone form. An error raised for one run of a stack names it in ``run``.

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
from .errors import (AerowrenchError, DegenerateScaling, DegenerateSpectrum,
                     FactorizationFailure, SingularInnovation)

# Error-state layout: attitude deviation enters as a rotation vector (0:3),
# so the error space has one dimension fewer than the state vector; then
# position, velocity, body rates, observer states, the trailing 1's pinned
# component (PIN) and any pads, each component at its state index less one.
# Only the live block 0:PIN carries variance.
E_DIM = 19  # includes the pinned component, not the pads
PIN = 18

DEFAULT_Q_DIAG = np.array([1e-4] * 3 + [1e-4] * 3 + [1e-1] * 3
                          + [1e-3] * 3 + [1e-2] * 6 + [0.0])
DEFAULT_R_DIAG = np.array([1e-4] * 3 + [1e-4] * 3 + [1e-3] * 3)
DEFAULT_P0_DIAG = np.array([1e-4] * 3 + [1e-2] * 3 + [1e-2] * 3
                           + [1e-2] * 3 + [1e0] * 6 + [0.0])


def ut_weights(n, phi=1.0, gamma=2.0, sigma=0.0):
    """Scaled unscented-transform weights for a set spanning n dimensions.

    Returns ``(eta, w_mean, w_cov)`` where ``eta`` is the composite scaling
    term and the weight arrays cover the 2n+1 sigma points.  Each further
    dimension that the set does not span adds 1 to ``sigma``: the spread
    phi^2 (n + sigma) is the full set's, and the centre takes the weight of
    the two points that would sit on it.  Raises
    :class:`DegenerateScaling` when the point spread collapses or overflows.
    """
    eta = phi * phi * (n + sigma) - n
    if n + eta <= 0.0:
        raise DegenerateScaling(
            f"sigma point spread n + eta = {n + eta:g} must be positive")
    w_mean = np.full(2 * n + 1, 1.0 / (2.0 * (n + eta)))
    w_cov = w_mean.copy()
    w_mean[0] = eta / (n + eta)
    w_cov[0] = eta / (n + eta) + (1.0 - phi * phi + gamma)
    if not np.isfinite(w_cov).all():  # phi^2 overflows
        raise DegenerateScaling(f"the weights are not finite (n + eta = {n + eta:g})")
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


@dataclass
class Measurement:
    """Pose and body-rate measurement: attitude, position, angular velocity;
    fields (4,), (3,), (3,), or with a leading run axis for a stack."""
    q: np.ndarray
    r: np.ndarray
    omega: np.ndarray

    @classmethod
    def from_state(cls, state):
        return cls(q=state.q.copy(), r=state.r.copy(), omega=state.omega.copy())


def cov_sqrt(p):
    """Matrix square root factor S with S @ S.T == p for symmetric PSD p,
    one matrix (n, n) or a stack (..., n, n): the Cholesky factor, or else
    an eigendecomposition with negative eigenvalues clamped to zero. A
    stack takes the Cholesky factor for all runs at once or this rule run
    by run; an error names the run of a stack in ``run``.
    """
    p = np.asarray(p, dtype=float)
    if np.isfinite(p).all():
        try:
            return np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            pass
    out = np.empty(p.shape)
    runs = out.reshape((-1,) + p.shape[-2:])
    for i, m in enumerate(p.reshape(runs.shape)):
        try:
            if not np.isfinite(m).all():
                raise FactorizationFailure("covariance contains non-finite entries")
            try:
                runs[i] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                try:
                    vals, vecs = np.linalg.eigh(m)
                except np.linalg.LinAlgError as err:
                    raise FactorizationFailure(
                        f"eigendecomposition failed: {err}") from None
                runs[i] = vecs * np.sqrt(np.maximum(vals, 0.0))
        except AerowrenchError as err:
            if p.ndim > 2:
                err.run = i
            raise
    return out


# Filter kernels. Each takes one run's arrays or a stack of runs' (written
# with ... and swapaxes); the module docstring says how a stack keeps a
# lone run's bits.

def _apply_deltas(x, deltas, out=None):
    """Map error-space displacements (..., r, n) onto the state manifold
    about states x (..., m): rows (..., r, m), into ``out`` when given."""
    if out is None:
        out = np.empty(deltas.shape[:-1] + x.shape[-1:])
    out[..., 0:4] = qt.quat_mul(qt.rotvec_to_quat(deltas[..., 0:3]),
                                x[..., None, 0:4])
    # The trailing 1 takes its pinned component, and the pads theirs.
    np.add(x[..., None, 4:], deltas[..., 3:], out=out[..., 4:])
    return out


def _propagate_rows(rows, u, ctx):
    """propagate_batch on rows (..., r, 20), in place, under one control
    (4,) or one per run (..., 4). rows may be a column slice of a buffer,
    as a padded QUKF's first 20 components are, but their flat (-1, 20)
    form must be a view of them: ValueError otherwise."""
    if u.ndim > 1:
        u = np.repeat(u.reshape(-1, 4), rows.shape[-2], axis=0)
    flat = rows.reshape(-1, rows.shape[-1], copy=False)
    dyn.propagate_batch(flat, u, ctx, out=flat)
    return rows


def _sigma_points(x, s, scale, deltas, out):
    """The 2h+1 sigma points about x from a factor s (..., k, k) of the
    live block, written into out (..., 2h+1, m). deltas (..., 2h+1, n)
    receives the displacements scale * s.T in rows 1..k and their
    negatives in rows h+1..h+k, in its leading k columns; everything else
    in it must be zero. h = E_DIM covers the live block and the pin, whose
    points are copies of x; pads get no points."""
    h, k = deltas.shape[-2] // 2, s.shape[-1]
    np.multiply(scale, s.swapaxes(-1, -2), out=deltas[..., 1:k + 1, :k])
    np.negative(deltas[..., 1:k + 1, :k], out=deltas[..., h + 1:h + k + 1, :k])
    return _apply_deltas(x, deltas, out)


def _residuals(pts, mean, out=None):
    """Error-space residuals (..., r, n) of sigma points (..., r, m) about
    means (..., m), into ``out`` when given."""
    if out is None:
        out = np.empty(pts.shape[:-1] + (pts.shape[-1] - 1,))
    out[..., 0:3] = qt.quat_diff(pts[..., 0:4], mean[..., None, 0:4])
    np.subtract(pts[..., 4:], mean[..., None, 4:], out=out[..., 3:])
    return out


def _sigma_cov(res, w_cov, q_disc):
    """Predicted covariance c R1^T R1 + w0 r0 r0^T + Q, (..., n, n), from
    residuals (..., 2h+1, n): r0 is the centre's row and R1 the 2h rows after it,
    which share the weight c = w_cov[1]. R1^T R1 reaches BLAS as syrk (both
    operands view one array); every term is exactly symmetric, as
    w0 (r0_i r0_j) is and (w0 r0_i) r0_j need not be."""
    r0, r1 = res[..., 0, :], res[..., 1:, :]
    p = r1.swapaxes(-1, -2) @ r1
    p *= w_cov[1]
    p += w_cov[0] * (r0[..., :, None] * r0[..., None, :])
    p += q_disc
    return p


# The EKF's central-difference step, and the offsets subtracted from the
# centre state to form its difference rows: row 1 + i steps coordinate i
# up (x - (-h) is x + h to the bit) and row 20 + i down. The zeros keep
# every other entry's bits, -0.0 included, which adding 0.0 would not.
FD_STEP = 1e-6
_FD_OFFSETS = np.zeros((39, 19))
np.fill_diagonal(_FD_OFFSETS[1:20], -FD_STEP)
np.fill_diagonal(_FD_OFFSETS[20:39], FD_STEP)


def _difference_rows(x, rows=None):
    """The EKF's centre and central-difference rows (..., 39, 20) about
    states x (..., 19): x minus each row of _FD_OFFSETS, written into
    ``rows`` when given."""
    if rows is None:
        rows = np.empty(x.shape[:-1] + (39, 20))
    np.subtract(x[..., None, :], _FD_OFFSETS, out=rows[..., :19])
    rows[..., 19] = 1.0
    return rows


def _jacobian_cov(prop, p, q_disc):
    """The EKF's propagated centre and covariance from its propagated
    difference rows (..., 39, 20)."""
    jac = ((prop[..., 1:20, :19] - prop[..., 20:39, :19]).swapaxes(-1, -2)
           / (2.0 * FD_STEP))
    p = jac @ p @ jac.swapaxes(-1, -2) + q_disc
    return prop[..., 0, :19].copy(), 0.5 * (p + p.swapaxes(-1, -2))


def _whiten(pyy, pxy, innov):
    """The correction K innov (..., n), the covariance reduction K Pyy K^T
    (..., n, n) and the NIS (...), with K = Pxy Pyy^-1, from the innovation
    covariance (..., m, m), the cross covariance (..., n, m) and the
    innovation (..., m). One solve against the Cholesky factor L of Pyy
    gives W = K L = Pxy L^-T and y = L^-1 innov: the correction is W y, the
    reduction W W^T (syrk, exactly symmetric) and the NIS y^T y. The filters
    take Pxy and Pyy from P with ``take``, which gives row-major blocks, of
    a stack too."""
    try:
        chol = np.linalg.cholesky(pyy)
    except np.linalg.LinAlgError:
        err = SingularInnovation("innovation covariance is not positive definite")
        # A stack names its first run without a Cholesky factor.
        runs = pyy.reshape((-1,) + pyy.shape[-2:]) if pyy.ndim > 2 else ()
        for i, m in enumerate(runs):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                err.run = i
                break
        raise err from None
    n = pxy.shape[-2]
    rhs = np.empty(pyy.shape[:-1] + (n + 1,))
    rhs[..., :n] = pxy.swapaxes(-1, -2)
    rhs[..., n] = innov
    sol = np.linalg.solve(chol, rhs)  # [W^T | y]
    wt, y = sol[..., :n], np.ascontiguousarray(sol[..., n])
    nis = (y[..., None, :] @ y[..., :, None])[..., 0, 0]
    return dyn.matvec(wt.swapaxes(-1, -2), y), wt.swapaxes(-1, -2) @ wt, nis[()]


class _Filter:
    """What both filters share. A filter defines ``predict`` and ``update``
    (perfbench's tracer patches them in each class's own namespace) and
    sets ``x``, ``P``, ``q_disc``, ``r_mat`` and ``OBS_IDX``, the rows of P
    that the measurement observes."""

    def __init__(self, params, noise, dt):
        self.params = params if params is not None else dyn.SystemParams()
        self.noise = noise if noise is not None else NoiseConfig()
        self.dt = float(dt)
        self.ctx = dyn.TransitionContext(self.params, self.dt)
        self.last_nis = None

    @property
    def wrench(self):
        return dyn.wrench_estimate(self.x[..., 13:19], self.x[..., 7:10],
                                   self.x[..., 10:13], self.params)

    def step(self, control, meas):
        self.predict(control)
        self.update(meas)
        return self

    def _correct(self, pxy, innov):
        """The correction for innovation innov, given the cross covariance
        pxy (P's observed columns); takes the reduction off P, stores the NIS."""
        dx, drop, self.last_nis = _whiten(pxy.take(self.OBS_IDX, -2) + self.r_mat,
                                          pxy, innov)
        self.P = self.P - drop
        return dx


class QuaternionUkf(_Filter):
    """Unscented filter on the quaternion manifold with wrench observer states.

    ``pad_dims`` appends inert dimensions (identity dynamics, zero noise)
    after the trailing 1 and its pinned error component; they exist so the
    cost scaling of the linear algebra can be measured.

    Buffer ownership: the filter owns its three 39-row arrays (the
    error-space displacements, the sigma points and the residuals; pads
    take no rows), with the leading shape of ``x``. ``predict`` allocates
    them when that shape changes (a stack is made by tiling ``x`` and
    ``P``) and otherwise overwrites them; the displacements stay zero
    outside the live block's rows and columns. At n=99 each is about
    30 KiB. The sigma points' first 20 components are propagated in place,
    through ``propagate_batch(..., out=)``, in the workspace of the
    filter's ``ctx``. ``x`` and ``P`` are new arrays after every
    ``predict`` and ``update``, so a caller may keep them.
    ``update`` reads none of the buffers, only ``x`` and ``P``.
    """

    # Error-state rows that the pose and rate measurement observes.
    OBS_IDX = np.array([0, 1, 2, 3, 4, 5, 9, 10, 11])

    def __init__(self, params=None, noise=None, dt=0.01, initial=None,
                 p0_diag=None, phi=1.0, gamma=2.0, sigma=0.0, pad_dims=0):
        super().__init__(params, noise, dt)
        self.pad_dims = int(pad_dims)
        self.n = E_DIM + self.pad_dims
        # The pads' points would be copies of the centre (see ut_weights).
        self.eta, self.w_mean, self.w_cov = ut_weights(E_DIM, phi, gamma,
                                                       sigma + self.pad_dims)
        self.scale = np.sqrt(E_DIM + self.eta)

        body = initial if initial is not None else dyn.BodyState.hover()
        self.x = np.concatenate([body.as_vector(), np.zeros(6), [1.0],
                                 np.zeros(self.pad_dims)])
        diag = p0_diag if p0_diag is not None else DEFAULT_P0_DIAG
        self.P = np.diag(np.concatenate([diag, np.zeros(self.pad_dims)]))
        self.q_disc = np.diag(np.concatenate([self.noise.q_diag * self.dt,
                                              np.zeros(self.pad_dims)]))
        self.r_mat = np.diag(self.noise.r_diag)
        self._pts = None
        self._predicted = False  # set by predict, cleared by update

    def predict(self, control):
        lead = self.x.shape[:-1]
        if self._pts is None or self._pts.shape[:-2] != lead:
            rows = lead + (2 * E_DIM + 1,)
            self._deltas = np.zeros(rows + (self.n,))  # zero off the live block
            self._pts = np.empty(rows + self.x.shape[-1:])
            self._res_buf = np.empty(rows + (self.n,))
        pts = _sigma_points(self.x, cov_sqrt(self.P[..., :PIN, :PIN]),
                            self.scale, self._deltas, self._pts)
        # Pads keep their values (identity dynamics).
        _propagate_rows(pts[..., :20], control.as_vector(), self.ctx)

        try:
            mean_q = qt.weighted_quat_average(pts[..., 0:4], self.w_mean)
        except DegenerateSpectrum:
            # A flat spectrum leaves the average undefined; holding the
            # previous mean keeps the filter running through the ambiguity.
            # A stack averages run by run, so only its flat runs hold.
            mean_q = self.x[..., 0:4].copy()
            for i in (np.ndindex(lead) if lead else ()):
                try:
                    mean_q[i] = qt.weighted_quat_average(pts[i][:, 0:4], self.w_mean)
                except DegenerateSpectrum:
                    pass
        # Unit already: the average, or the held mean, which update left unit.
        mean = np.concatenate([mean_q, self.w_mean @ pts[..., 4:]], axis=-1)
        mean[..., dyn.IDUMMY] = 1.0
        res = _residuals(pts, mean, self._res_buf)
        self.P = _sigma_cov(res, self.w_cov, self.q_disc)
        self.x, self._predicted = mean, True
        return self

    def update(self, meas):
        if not self._predicted:
            raise SingularInnovation("update needs a predict since the last update")
        idx = self.OBS_IDX
        innov = np.concatenate([
            qt.quat_diff(qt.quat_normalize(meas.q), self.x[..., 0:4]),
            meas.r - self.x[..., 4:7], meas.omega - self.x[..., 10:13]], axis=-1)
        # P- less Q, the propagated points' own spread (see ROADMAP item 2),
        # in the observed columns.
        dx = self._correct(self.P.take(idx, -1) - self.q_disc.take(idx, -1), innov)
        x = self.x.copy()
        x[..., 0:4] = qt.oplus(x[..., 0:4], dx[..., 0:3])
        x[..., 4:] += dx[..., 3:]  # the pinned component adds 0.0 to the 1
        self.x, self._predicted = x, False
        return self


def _q_block_diag(rot_diag):
    """Additive-coordinate variance for the quaternion block.

    A rotation-vector perturbation d maps to a quaternion increment of
    roughly 0.5 * q x (0, d), so variances shrink by a factor of four; the
    scalar component gets the mean of the axis variances.
    """
    rot_diag = np.asarray(rot_diag, dtype=float)
    return np.concatenate([[rot_diag.mean() / 4.0], rot_diag / 4.0])


class ExtendedKalman(_Filter):
    """Additive-coordinate baseline filter over the same process model.

    State is the raw 19-vector (quaternion, position, velocity, body rates,
    observer states); the transition Jacobian comes from central
    differences through the exact discrete propagation. The filter owns
    its (..., 39, 20) difference rows, sized like the QUKF's buffers, and
    propagates them in place.

    The differences divide the rounding of the propagated rows by FD_STEP,
    so the filter magnifies a change in the last bits upstream of it by
    about 1/FD_STEP. With FD_STEP = 1e-6, a one-ulp change in three
    entries of the admittance map moves the truth of a 10 s run (seed 0)
    by 1.9e-15, the QUKF states by 4.8e-13 and the EKF states by 1.5e-8.
    A change that reorders float arithmetic ahead of this filter should
    expect EKF differences near 1e-8.
    """

    OBS_IDX = np.array([0, 1, 2, 3, 4, 5, 6, 10, 11, 12])

    def __init__(self, params=None, noise=None, dt=0.01, initial=None,
                 p0_diag=None):
        super().__init__(params, noise, dt)
        body = initial if initial is not None else dyn.BodyState.hover()
        self.x = np.concatenate([body.as_vector(), np.zeros(6)])

        diag = np.asarray(p0_diag if p0_diag is not None else DEFAULT_P0_DIAG,
                          dtype=float)
        self.P = np.diag(np.concatenate([_q_block_diag(diag[0:3]), diag[3:18]]))
        qd = self.noise.q_diag * self.dt
        self.q_disc = np.diag(np.concatenate([_q_block_diag(qd[0:3]), qd[3:18]]))
        rd = self.noise.r_diag
        self.r_mat = np.diag(np.concatenate([_q_block_diag(rd[0:3]), rd[3:6], rd[6:9]]))
        self._rows = None  # the difference rows, propagated in place

    def predict(self, control):
        # x's quaternion is unit: update and propagate_batch normalize it.
        shape = self.x.shape[:-1] + (39, 20)
        if self._rows is None or self._rows.shape != shape:
            self._rows = np.empty(shape)
        rows = _propagate_rows(_difference_rows(self.x, self._rows),
                               control.as_vector(), self.ctx)
        self.x, self.P = _jacobian_cov(rows, self.P, self.q_disc)
        return self

    def update(self, meas):
        idx = self.OBS_IDX
        zq = qt.quat_normalize(meas.q)
        # Keep the residual on the near side of the double cover.
        dot = qt.quat_dot(zq, self.x[..., 0:4])
        if zq.ndim == 1:
            zq = -zq if dot < 0.0 else zq
        else:
            zq = np.where((dot < 0.0)[..., None], -zq, zq)
        resid = np.concatenate([zq, meas.r, meas.omega], axis=-1) - self.x.take(idx, -1)
        self.x = self.x + self._correct(self.P.take(idx, -1), resid)
        self.x[..., 0:4] = qt.quat_normalize(self.x[..., 0:4])
        return self
