"""Closed-loop scenario engine.

Wires the pieces into the loop the package exists to exercise: integrate the
truth, corrupt what the sensors would see, run both estimators on the same
measurements, steer a virtual reference with the estimated interaction
force, track it, and allocate the demanded wrench to rotors. Everything is
deterministic given a seed; telemetry is recorded as flat arrays, which
the telemetry module writes as they are.

One loop steps one run (``run_scenario``) or a stack of seeds
(``run_study``): the truth RK4, the filters, the admittance layer, the
controller and the allocation each take one run's arrays or the same
arrays with a run axis, and every run of a stack reproduces the lone run
bit for bit (:mod:`.estimation` says how).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import estimation as est
from . import quat as qt
from .errors import AerowrenchError, DivergenceDetected, ValidationError

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])

__all__ = [
    "ForceSegment", "ForceProfile", "force_profile_eval",
    "smoothstep", "AdmittanceParams", "admittance_map",
    "admittance_reference", "ControllerGains", "tracking_controller",
    "NoiseStreams", "inject_noise", "EstimatorTrack", "ScenarioRun",
    "validate_run", "make_filter", "run_scenario", "run_study",
    "convergence_time", "MetricsReport", "compute_metrics",
]

DIVERGENCE_LIMIT = 1e6


def smoothstep(x):
    """3x^2 - 2x^3, clamped to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


@dataclass
class ForceSegment:
    """One pulse of the interaction profile.

    force is inertial, torque is body-frame, matching where the external
    wrench enters the dynamics. ramp is the rise/fall length in seconds;
    zero gives a hard step.
    """

    start: float = 0.0
    end: float = 0.0
    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ramp: float = 0.0

    def __post_init__(self):
        self.force = np.asarray(self.force, dtype=float)
        self.torque = np.asarray(self.torque, dtype=float)


@dataclass
class ForceProfile:
    """The interaction profile. The default's pulses exercise each force
    axis and the yaw moment in turn."""

    segments: list[ForceSegment] = field(default_factory=lambda: [
        ForceSegment(5.0, 15.0, force=np.array([2.0, 0.0, 0.0]), ramp=1.0),
        ForceSegment(20.0, 30.0, force=np.array([0.0, 2.0, 0.0]), ramp=1.0),
        ForceSegment(35.0, 45.0, force=np.array([0.0, 0.0, 2.0]), ramp=1.0),
        ForceSegment(50.0, 58.0, torque=np.array([0.0, 0.0, 0.5]), ramp=1.0),
    ])

    def validate(self):
        """Raise ValidationError listing every violated constraint."""
        bad = []
        for i, seg in enumerate(self.segments):
            tag = "profile.segments[%d]" % i
            if not seg.start < seg.end < math.inf:
                bad.append("%s.end must exceed start and be finite, got [%r, %r]"
                           % (tag, seg.start, seg.end))
            if seg.start < 0.0:
                bad.append("%s.start must be nonnegative" % tag)
            if not 0.0 <= seg.ramp < math.inf:
                bad.append("%s.ramp must be nonnegative and finite" % tag)
            if (seg.force.shape != (3,) or seg.torque.shape != (3,)
                    or not np.isfinite([seg.force, seg.torque]).all()):
                bad.append("%s force and torque must be finite 3-vectors" % tag)
        order = sorted(range(len(self.segments)),
                       key=lambda i: self.segments[i].start)
        for a, b in zip(order, order[1:]):
            if self.segments[a].end > self.segments[b].start:
                bad.append("profile.segments[%d] and [%d] overlap" % (a, b))
        if bad:
            raise ValidationError(bad)
        return self


def force_profile_eval(profile, t):
    """Wrench [force, torque] (6,) applied at time t: ramped inside
    segments, zero elsewhere.

    A segment covers [start, end), so segments that touch never add up.
    """
    return _profile_table(profile, np.array([t], dtype=float))[0]


def _profile_table(profile, times):
    # force_profile_eval for each time of a grid, as rows [force, torque].
    out = np.zeros((times.shape[0], 6))
    for seg in profile.segments:
        m = (times >= seg.start) & (times < seg.end)
        if not m.any():
            continue
        t = times[m]
        w = np.ones(t.shape[0])
        if seg.ramp > 0.0:
            w = (smoothstep((t - seg.start) / seg.ramp)
                 * smoothstep((seg.end - t) / seg.ramp))
        out[m, 0:3] += w[:, None] * seg.force
        out[m, 3:6] += w[:, None] * seg.torque
    return out


# ---------------------------------------------------------------------------
# Admittance layer
# ---------------------------------------------------------------------------

@dataclass
class AdmittanceParams:
    """Virtual dynamics M_v rddot + C_v rdot + K_v r = F."""

    m_v: np.ndarray = field(default_factory=lambda: np.eye(3))
    c_v: np.ndarray = field(default_factory=lambda: 1.59 * np.eye(3))
    k_v: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        self.m_v = np.asarray(self.m_v, dtype=float)
        self.c_v = np.asarray(self.c_v, dtype=float)
        self.k_v = np.asarray(self.k_v, dtype=float)

    def validate(self):
        bad = []
        for name, mat in (("m_v", self.m_v), ("c_v", self.c_v), ("k_v", self.k_v)):
            if mat.shape != (3, 3):
                bad.append("admittance.%s must be 3x3" % name)
            elif not np.isfinite(mat).all() or np.max(np.abs(mat - mat.T)) > 1e-9:
                bad.append("admittance.%s must be finite and symmetric" % name)
        if not bad:
            if np.any(np.linalg.eigvalsh(self.m_v) <= 0.0):
                bad.append("admittance.m_v must be positive definite")
            if np.any(np.linalg.eigvalsh(self.c_v) < 0.0):
                bad.append("admittance.c_v must be positive semidefinite")
            if np.any(np.linalg.eigvalsh(self.k_v) < 0.0):
                bad.append("admittance.k_v must be positive semidefinite")
        if bad:
            raise ValidationError(bad)
        return self


def admittance_map(params, dt):
    """The exact one-step map (9, 9) of [r, v, F] with F held over dt."""
    m_inv = np.linalg.inv(params.m_v)
    a = np.zeros((9, 9))
    a[0:3, 3:6] = np.eye(3)
    a[3:6, 0:3] = -m_inv @ params.k_v
    a[3:6, 3:6] = -m_inv @ params.c_v
    a[3:6, 6:9] = m_inv
    return dyn.expm(a * dt)


def admittance_reference(tau_hat, z, phi):
    """Advance the reference z = [r, v], the admittance system's state (6,)
    or rows (S, 6), one step under the estimated force.

    tau_hat is the estimated wrench [force, torque] (6,), or one row per
    row of z; only the force part drives the virtual dynamics. phi is
    admittance_map's exact step of the linear system with the force held
    over dt, so stiff virtual parameters cost nothing.
    """
    return dyn.matvec(phi[:6, :6], z) + dyn.matvec(phi[:6, 6:9], tau_hat[..., :3])


# ---------------------------------------------------------------------------
# Tracking controller
# ---------------------------------------------------------------------------

@dataclass
class ControllerGains:
    """PD gains for the position and attitude loops.

    accel_max clips the commanded acceleration per axis; the tight vertical
    limit keeps the thrust near hover so attitude stays well conditioned.
    """

    kp: float = 2.0
    kd: float = 3.0
    kp_att: float = 16.0
    kd_att: float = 8.0
    accel_max: np.ndarray = field(default_factory=lambda: np.array([1.5, 1.5, 0.2]))

    def __post_init__(self):
        self.accel_max = np.asarray(self.accel_max, dtype=float)


def tracking_controller(x, z, params, gains=None):
    """Thrust and body moments [thrust, moments] (4,) steering an estimated
    state x [q, r, v, omega, ...] toward the reference z = [r, v] (6,);
    rows (S, 4) for rows x and z.

    Position PD gives a desired force f; the desired attitude turns e_z
    onto f along the shortest arc, with zero yaw:
    quat_normalize([|f| + f_z, -f_y, f_x, 0]). It is the identity where f
    gives no direction (|f| <= 1e-9, NaN) and where the arc is undefined
    (f straight down). The default gains keep f_z >= m (g - 0.2) > 0;
    below the horizon |f| + f_z cancels, and near straight down q_des is
    accurate to about sqrt(eps) only. The attitude loop is a PD on the
    left rotation error with gyroscopic feed-forward. Thrust is clamped to
    [0, u_max]. As in :mod:`.quat`, one state runs on Python floats and
    rows on arrays, with the same + - * / and square roots in the same
    order, and a branch becomes a mask that keeps the lone form's
    treatment of NaN, so a row's result is the lone one bit for bit.
    """
    g = gains if gains is not None else ControllerGains()
    m = params.mass
    if x.ndim == 1:
        r, v = x[4:7].tolist(), x[7:10].tolist()
        ref, am = z.tolist(), g.accel_max.tolist()
        a = [0.0, 0.0, 0.0]
        for i in range(3):
            ai = g.kp * (ref[i] - r[i]) + g.kd * (ref[3 + i] - v[i])
            lim = am[i]
            a[i] = lim if ai > lim else (-lim if ai < -lim else ai)
        f0 = m * a[0]
        f1 = m * a[1]
        f2 = m * (a[2] + params.gravity)
        fmag = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
        arc_w = fmag + f2
        q_des = IDENTITY_Q
        # quat_dot(arc, arc) > 0 for arc = [arc_w, -f1, f0, 0], as in the rows
        if fmag > 1e-9 and arc_w * arc_w + f1 * f1 + f0 * f0 > 0.0:
            q_des = qt.quat_normalize(np.array([arc_w, -f1, f0, 0.0]))
        w = x[10:13]
        out = np.empty(4)
        out[0] = fmag if fmag < params.u_max else params.u_max
        out[1:4] = (params.inertia @ (g.kp_att * qt.quat_diff(q_des, x[0:4])
                                      - g.kd_att * w)
                    + dyn._gyroscopic(w, params.inertia @ w))
        return out

    r, v, w = x[:, 4:7], x[:, 7:10], x[:, 10:13]
    a = g.kp * (z[:, 0:3] - r) + g.kd * (z[:, 3:6] - v)
    lim = g.accel_max
    a = np.where(a > lim, lim, np.where(a < -lim, -lim, a))
    f0 = m * a[:, 0]
    f1 = m * a[:, 1]
    f2 = m * (a[:, 2] + params.gravity)
    fmag = np.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    arc = np.stack([fmag + f2, -f1, f0, np.zeros_like(f0)], axis=-1)
    arc[~((fmag > 1e-9) & (qt.quat_dot(arc, arc) > 0.0))] = IDENTITY_Q
    out = np.empty((x.shape[0], 4))
    out[:, 0] = np.where(fmag < params.u_max, fmag, params.u_max)
    e_rot = qt.quat_diff(qt.quat_normalize(arc), x[:, 0:4])
    gyro = dyn._gyroscopic(w.T, dyn.matvec(params.inertia, w).T).T
    out[:, 1:4] = dyn.matvec(params.inertia, g.kp_att * e_rot - g.kd_att * w) + gyro
    return out


# ---------------------------------------------------------------------------
# Measurement noise
# ---------------------------------------------------------------------------

class NoiseStreams:
    """One generator per measured signal.

    Spawned from a single seed so a scenario is reproducible, but kept
    separate so changing how one channel draws does not shift the others.
    """

    def __init__(self, seed):
        att, pos, rate = np.random.SeedSequence(seed).spawn(3)
        self.attitude = np.random.Generator(np.random.PCG64(att))
        self.position = np.random.Generator(np.random.PCG64(pos))
        self.rate = np.random.Generator(np.random.PCG64(rate))


def _draw_noise(streams, shape, r_diag):
    """Noise for measurements of shape ``shape``, () or (n_steps,): unit
    quaternions (*shape, 4), position and rate offsets (*shape, 3). A bulk
    draw consumes each stream as the same number of lone draws do."""
    sig = np.sqrt(np.asarray(r_diag, dtype=float))
    return (qt.rotvec_to_quat(streams.attitude.normal(size=shape + (3,)) * sig[0:3]),
            streams.position.normal(size=shape + (3,)) * sig[3:6],
            streams.rate.normal(size=shape + (3,)) * sig[6:9])


def _measure(x, noise_q, noise_r, noise_w):
    """The measurement of true states x (..., 13): attitude noise is a left
    rotation, so the quaternion stays unit; position and rate noise add."""
    return est.Measurement(q=qt.quat_mul(noise_q, x[..., 0:4]),
                           r=x[..., 4:7] + noise_r, omega=x[..., 10:13] + noise_w)


def inject_noise(truth, r_diag, streams):
    """Corrupt a true state into a measurement, as the closed loop does."""
    return _measure(truth.as_vector(), *_draw_noise(streams, (), r_diag))


# ---------------------------------------------------------------------------
# Scenario loop
# ---------------------------------------------------------------------------

@dataclass
class EstimatorTrack:
    """Per-estimator telemetry: state rows [q(4), r, v, omega, upsilon(6)]."""

    states: np.ndarray
    wrench: np.ndarray
    nis: np.ndarray
    step_seconds: np.ndarray = None


@dataclass
class ScenarioRun:
    """Array-backed result of one closed-loop run."""

    dt: float
    seed: int
    feed: str
    t: np.ndarray
    truth: np.ndarray
    wrench_true: np.ndarray
    measurements: np.ndarray
    controls: np.ndarray
    rotors: np.ndarray
    saturated: np.ndarray
    tracks: dict


def _name_run(msg, labels, run):
    """msg, prefixed with the label of a stack's failing run."""
    return msg if labels is None or run is None else "%s: %s" % (labels[run], msg)


def _check_finite(name, x, k, labels=None):
    """Raise DivergenceDetected when a state, or a row of a stack whose
    runs ``labels`` names, leaves the envelope."""
    # NaN fails the comparison, so a single reduction covers both cases;
    # the message is formatted only after the check has failed.
    if not np.abs(x).max() <= DIVERGENCE_LIMIT:
        rows = x.reshape(-1, x.shape[-1])
        run = int(np.argmin(np.abs(rows).max(axis=1) <= DIVERGENCE_LIMIT))
        i = int(np.argmin(np.abs(rows[run]) <= DIVERGENCE_LIMIT))
        raise DivergenceDetected(_name_run(
            "%s diverged at step %d: component %d = %.6g" % (name, k, i, rows[run, i]),
            labels, run))


# run_scenario allocates about 0.9 kB per step and run up front (112 float64s
# of records, noise draws and profile, read from the code), so a million
# steps, 10^4 s at the default step, hold about 0.9 GB per run.
MAX_STEPS = 1_000_000


def validate_run(dt, duration, seed, estimators):
    """The run settings' one rule, for RunConfig and the loop: the step
    count and the filter names, or ValidationError listing every
    violation. seed is one seed or a list of them."""
    bad = []
    if not (dt > 0.0 and math.isfinite(dt)):
        bad.append("run.t_step must be positive and finite, got %r" % (dt,))
    elif not math.isfinite(duration):
        bad.append("run.duration must be finite, got %r" % (duration,))
    # round(duration / dt) must lie in [1, MAX_STEPS]. The checks bound the
    # ratio itself, so a ratio that overflows to +-inf (a subnormal step)
    # fails the bound it is beyond.
    elif not duration / dt > 0.5:
        bad.append("run.duration must cover at least one step")
    elif duration / dt > MAX_STEPS + 0.5:
        bad.append("run.duration / run.t_step must be at most %d steps, got %.3g"
                   % (MAX_STEPS, duration / dt))
    for s in (seed if np.ndim(seed) else [seed]):
        # bool is an int, and np.bool_ is not an np.integer.
        if not (isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                and s >= 0):
            bad.append("run.seed must be a nonnegative integer, got %r" % (s,))
    names = [n for n in ("qukf", "ekf") if n in estimators]
    if len(names) != len(estimators) or not names:
        bad.append("run.estimators must be a nonempty subset of "
                   "{'qukf', 'ekf'}, got %r" % (estimators,))
    if bad:
        raise ValidationError(bad)
    return int(round(duration / dt)), names


def make_filter(name, params, noise, dt, scaling=None, p0_diag=None):
    """The estimator run_scenario steps under ``name``, 'qukf' or 'ekf';
    scaling is the QUKF's (phi, gamma, sigma), its defaults when None."""
    if name == "qukf":
        kw = dict(zip(("phi", "gamma", "sigma"), scaling)) if scaling else {}
        return est.QuaternionUkf(params=params, noise=noise, dt=dt,
                                 p0_diag=p0_diag, **kw)
    return est.ExtendedKalman(params=params, noise=noise, dt=dt, p0_diag=p0_diag)


def run_scenario(profile=None, *, params=None, noise=None, admittance=None,
                 dt=0.01, duration=70.0, seed=0, estimators=("qukf", "ekf"),
                 scaling=None, p0_diag=None, collect_timing=False):
    """Run the closed loop and return a ScenarioRun.

    Per step: integrate the truth over [t, t+dt] under the previous control
    and the profile wrench, measure, step every estimator on the identical
    measurement, then derive the next control from the feed estimator (the
    transform filter when enabled): its force estimate moves the admittance
    reference, the tracking controller turns reference and state estimate
    into a wrench demand, and allocation plus rotor saturation yield what
    the plant actually receives. The estimators never see the truth.
    A filter error or a divergence names the filter and the step.

    seed is one seed, or a list of seeds stepped as one stack of runs: the
    seeds' shape, () or (S,), leads every array of the loop, and follows
    the step axis in every array of the ScenarioRun.
    """
    params = params if params is not None else dyn.SystemParams()
    noise = noise if noise is not None else est.NoiseConfig()
    admittance = admittance if admittance is not None else AdmittanceParams()
    profile = profile if profile is not None else ForceProfile()
    params.validate()
    admittance.validate()
    profile.validate()

    n_steps, names = validate_run(dt, duration, seed, estimators)
    lead = np.shape(seed)

    filters = {name: make_filter(name, params, noise, dt, scaling, p0_diag)
               for name in names}
    labels = ["seed %r" % (s,) for s in seed] if lead else None
    for f in filters.values():
        f.x = np.tile(f.x, lead + (1,))
        f.P = np.tile(f.P, lead + (1, 1))
    feed = "qukf" if "qukf" in filters else "ekf"
    fd = filters[feed]
    gains = ControllerGains()
    # Noise is independent of the loop, so every draw happens up front.
    noise_q, noise_r, noise_w = (
        np.stack(d, axis=1).reshape((n_steps,) + lead + (-1,))
        for d in zip(*(_draw_noise(NoiseStreams(s), (n_steps,), noise.r_diag)
                       for s in np.ravel(seed))))
    grid = np.arange(1, n_steps + 1) * dt
    tau_arr = _profile_table(profile, grid)
    # The truth steps a stack component-first: runs are columns of x.T.
    tau_mid = _profile_table(profile, grid - 0.5 * dt).reshape(
        (n_steps, 6) + (1,) * len(lead))

    x = np.tile(dyn.BodyState.hover().as_vector(), lead + (1,))
    u = np.tile(dyn.ControlInput.hover(params).as_vector(), lead + (1,))
    ref = np.zeros(lead + (6,))
    j_inv = np.linalg.inv(params.inertia)
    alloc = dyn.RotorAllocation(params)
    phi = admittance_map(admittance, dt)

    shape = (n_steps,) + lead
    truth_arr = np.empty(shape + (13,))
    meas_arr = np.empty(shape + (10,))
    ctrl_arr = np.empty(shape + (4,))
    rotor_arr = np.empty(shape + (8,))
    sat_arr = np.empty(shape, dtype=bool)
    tracks = {name: EstimatorTrack(
        states=np.empty(shape + (19,)),
        wrench=np.empty(shape + (6,)),
        nis=np.empty(shape),
        step_seconds=np.empty(n_steps) if collect_timing else None)
        for name in names}

    # A state past the envelope overflows before _check_finite names it;
    # numpy's warnings would only precede that message.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            x = dyn.rk4_step(x.T, u.T, tau_mid[k], params, dt, j_inv).T
            _check_finite("truth", x, k, labels)
            truth_arr[k] = x

            meas = _measure(x, noise_q[k], noise_r[k], noise_w[k])
            control = dyn.ControlInput(thrust=u[..., 0], moments=u[..., 1:4])
            for name in names:
                f = filters[name]
                try:
                    if collect_timing:
                        tic = time.perf_counter()
                        f.step(control, meas)
                        tracks[name].step_seconds[k] = time.perf_counter() - tic
                    else:
                        f.step(control, meas)
                except AerowrenchError as err:
                    msg = "%s failed at step %d: %s" % (name, k, err)
                    raise type(err)(_name_run(msg, labels, err.run)) from None
                xs = f.x[..., :19]
                _check_finite(name, xs, k, labels)
                tr = tracks[name]
                tr.states[k] = xs
                tr.wrench[k] = f.wrench
                tr.nis[k] = f.last_nis

            ref = admittance_reference(tracks[feed].wrench[k], ref, phi)
            demand = tracking_controller(fd.x, ref, params, gains)
            u, rotor_arr[k], sat_arr[k] = alloc(demand)

            meas_arr[k, ..., 0:4] = meas.q
            meas_arr[k, ..., 4:7] = meas.r
            meas_arr[k, ..., 7:10] = meas.omega
            ctrl_arr[k] = u

    return ScenarioRun(dt=dt, seed=seed, feed=feed, t=grid, truth=truth_arr,
                       wrench_true=tau_arr, measurements=meas_arr,
                       controls=ctrl_arr, rotors=rotor_arr, saturated=sat_arr,
                       tracks=tracks)


def run_study(seeds, profile=None, *, duration=70.0, estimators=("qukf", "ekf")):
    """One closed-loop run per seed, all stepped together.

    Returns, in the order of ``seeds``, the ScenarioRun that
    ``run_scenario(profile, seed=seed, duration=duration,
    estimators=estimators)`` gives for each (without step timing); every
    other scenario setting is run_scenario's default. The seeds go through
    run_scenario's loop as one stack of runs, each with its own
    NoiseStreams. A failure stops the whole study at the first step where
    any seed fails, and the error names that seed.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValidationError(["study.seeds must name at least one seed"])
    run = run_scenario(profile, duration=duration, seed=seeds,
                       estimators=estimators)
    return [ScenarioRun(dt=run.dt, seed=seed, feed=run.feed, t=run.t.copy(),
                        truth=run.truth[:, i], wrench_true=run.wrench_true.copy(),
                        measurements=run.measurements[:, i],
                        controls=run.controls[:, i], rotors=run.rotors[:, i],
                        saturated=run.saturated[:, i],
                        tracks={name: EstimatorTrack(states=tr.states[:, i],
                                                     wrench=tr.wrench[:, i],
                                                     nis=tr.nis[:, i])
                                for name, tr in run.tracks.items()})
            for i, seed in enumerate(seeds)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def convergence_time(t, err):
    """Settling time of an error trace, as an offset from t[0].

    The error is normalized by its peak over the window; the result is the
    first instant from which the trace stays inside 5% of that peak until
    the window ends. None when the trace never settles, 0.0 for an
    identically zero trace.
    """
    a = np.abs(np.asarray(err, dtype=float))
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    ok = a <= 0.05 * peak
    stay = np.flip(np.logical_and.accumulate(np.flip(ok)))
    idx = np.flatnonzero(stay)
    if idx.size == 0:
        return None
    return float(t[idx[0]] - t[0])


RMSE_CHANNELS = (
    "att_rad", "x_m", "y_m", "z_m", "vx_mps", "vy_mps", "vz_mps",
    "p_radps", "q_radps", "r_radps",
    "F_hx_N", "F_hy_N", "F_hz_N", "M_hx_Nm", "M_hy_Nm", "M_hz_Nm",
)
WRENCH_CHANNELS = RMSE_CHANNELS[10:]


@dataclass
class MetricsReport:
    window_s: float
    duration_s: float
    rmse: dict
    improvement_pct: dict
    convergence_time_s: dict
    mean_update_s: dict


def _attitude_errors(est_q, truth_q):
    # Rowwise |quat_diff|: rotation angle between estimate and truth.
    rv = qt.quat_diff(est_q, truth_q)
    return np.sqrt(rv[:, 0] * rv[:, 0] + rv[:, 1] * rv[:, 1] + rv[:, 2] * rv[:, 2])


def _channel_errors(run, track, sl):
    e = np.empty((run.t.shape[0], 16))
    e[:, 0] = _attitude_errors(track.states[:, 0:4], run.truth[:, 0:4])
    e[:, 1:10] = track.states[:, 4:13] - run.truth[:, 4:13]
    e[:, 10:16] = track.wrench - run.wrench_true
    return e[sl]


def compute_metrics(run, window=1.0):
    """Per-channel RMSE, improvement, convergence times, mean step cost.

    The window, in seconds, drops the leading transient from the RMSE; a
    negative or non-finite one raises ValidationError. Convergence times
    are computed per wrench channel over its first applied pulse, from
    onset until the pulse leaves; channels never exercised report None.
    Improvement percentages appear only when both estimators ran.
    """
    if not (window >= 0.0 and math.isfinite(window)):
        raise ValidationError("window must be nonnegative and finite, got %r"
                              % (window,))
    n = run.t.shape[0]
    skip = min(int(round(window / run.dt)), n - 1)
    sl = slice(skip, n)

    rmse = {}
    conv = {}
    mean_update = {}
    for name, tr in run.tracks.items():
        e = _channel_errors(run, tr, sl)
        rmse[name] = {ch: float(np.sqrt(np.mean(e[:, i] ** 2)))
                      for i, ch in enumerate(RMSE_CHANNELS)}
        ctimes = {}
        for i, ch in enumerate(WRENCH_CHANNELS):
            col = 10 + i
            nz = np.abs(run.wrench_true[:, i]) > 0.0
            on = np.flatnonzero(nz)
            if on.size == 0:
                ctimes[ch] = None
                continue
            start = on[0]
            after = np.flatnonzero(~nz[start:])
            stop = start + after[0] if after.size else n
            err = (tr.wrench[start:stop, i] - run.wrench_true[start:stop, i])
            ctimes[ch] = convergence_time(run.t[start:stop], err)
        conv[name] = ctimes
        mean_update[name] = (float(tr.step_seconds.mean())
                             if tr.step_seconds is not None else None)

    improvement = {}
    if "qukf" in rmse and "ekf" in rmse:
        for ch in RMSE_CHANNELS:
            base = rmse["ekf"][ch]
            improvement[ch] = (100.0 * (base - rmse["qukf"][ch]) / base
                               if base > 0.0 else None)

    return MetricsReport(window_s=window, duration_s=float(run.t[-1]),
                         rmse=rmse, improvement_pct=improvement,
                         convergence_time_s=conv, mean_update_s=mean_update)
