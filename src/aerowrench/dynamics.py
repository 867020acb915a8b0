"""Rigid-body model of the dual-quadrotor slung-payload assembly.

The two quadrotors and the payload move as one rigid body (rigid links, no
relative rotation), so the plant is a single 6-DoF body driven by the summed
rotor wrench plus an unknown external (human) wrench applied at the payload.

State vector layouts used by this module and the estimators:

    body state (13,):       [q(4), r(3), v(3), omega(3)]
    augmented state (20,):  [q(4), r(3), v(3), omega(3), upsilon(6), 1]
    EKF state (19,):        the augmented state less its trailing 1
    QUKF state (20 + d,):   the augmented state, then d pads
    QUKF error (19 + d,):   [dtheta(3), r, v, omega, upsilon, pin, pads]
    transition input (31,): [r, v, omega, upsilon, 1, forcing(15)]

q is a scalar-first unit quaternion, r and v are inertial position and
velocity, omega is the body angular rate, and upsilon is the internal state
of the momentum-style wrench observer. The trailing 1 carries the affine
terms of the continuous-time generator so that one matrix exponential
advances the whole augmented state, and one constant 15 x 31 map its
linear block [r, v, omega, upsilon] from the transition input, the forcing
being [bz(q) F_th, omega x J omega, U_tau, v, omega] (TransitionContext).
Inert components come last (the 1, its pinned error component, then the
QUKF's pads), so a filter's first 20 components are the augmented state.
A wrench is a 6-vector [force (inertial), torque (body)].

Control u = [F_th, U_tau] stacks total thrust (N) along body z and the body
torque (N m) produced by the eight rotors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularAllocation, ValidationError
from .quat import (_QUAT_MUL_TERMS, _SMALL_ANGLE, _mul_terms, _term_table,
                   quat_mul, quat_normalize, quat_to_rot, skew)

# Augmented-state slices (20-vector).
IQ = slice(0, 4)
IR = slice(4, 7)
IV = slice(7, 10)
IW = slice(10, 13)
IU = slice(13, 19)
IDUMMY = 19

E_Z = np.array([0.0, 0.0, 1.0])


def _default_inertia():
    return np.diag([3.227, 0.061, 3.277])


@dataclass
class SystemParams:
    """Physical constants of the combined body and its actuation.

    Defaults describe a 3.49 kg assembly: two quadrotors on the ends of a
    2 m payload bar (attach_1, attach_2), per-quadrotor thrust capped at
    u_max, with a diagonal combined inertia that is much smaller about
    pitch (y) than about roll and yaw. delta is the wrench-observer gain;
    the observer pole on each channel sits at delta divided by the
    corresponding mass-matrix entry.
    """

    mass: float = 3.49
    inertia: np.ndarray = field(default_factory=_default_inertia)
    gravity: float = 9.81
    attach_1: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    attach_2: np.ndarray = field(default_factory=lambda: np.array([-1.0, 0.0, 0.0]))
    u_max: float = 35.0
    delta: float = 72.0
    rotor_arm: float = 0.25
    rotor_thrust_coeff: float = 1.0e-5
    rotor_drag_coeff: float = 1.6e-7
    alloc_weights: np.ndarray = field(default_factory=lambda: np.ones(8))

    def __post_init__(self):
        self.inertia = np.asarray(self.inertia, dtype=float)
        self.attach_1 = np.asarray(self.attach_1, dtype=float)
        self.attach_2 = np.asarray(self.attach_2, dtype=float)
        self.alloc_weights = np.asarray(self.alloc_weights, dtype=float)

    def validate(self):
        """Raise ValidationError listing every violated constraint."""
        bad = []
        for name in ("mass", "gravity", "u_max", "delta", "rotor_arm",
                     "rotor_thrust_coeff", "rotor_drag_coeff"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                bad.append("system.%s must be positive and finite, got %r" % (name, value))
        j = self.inertia
        if j.shape != (3, 3):
            bad.append("system.inertia must be 3x3, got shape %s" % (j.shape,))
        elif not np.isfinite(j).all() or np.max(np.abs(j - j.T)) > 1e-9:
            bad.append("system.inertia must be finite and symmetric")
        elif np.any(np.linalg.eigvalsh(j) <= 0.0):
            bad.append("system.inertia must be positive definite")
        for name in ("attach_1", "attach_2"):
            a = getattr(self, name)
            if a.shape != (3,) or not np.isfinite(a).all():
                bad.append("system.%s must be a finite 3-vector" % name)
        w = self.alloc_weights
        if w.shape != (8,) or not np.all((w > 0.0) & (w < math.inf)):
            bad.append("system.alloc_weights must be 8 positive finite entries")
        if not bad:
            try:
                RotorAllocation(self)
            except SingularAllocation as err:
                bad.append("system.alloc_weights, attach_1 and attach_2: %s" % err)
        if bad:
            raise ValidationError(bad)
        return self

    def mass_matrix(self):
        """blkdiag(m I3, inertia), the 6x6 generalized mass."""
        m = np.zeros((6, 6))
        m[:3, :3] = np.eye(3) * self.mass
        m[3:, 3:] = self.inertia
        return m

    def observer_gain_matrix(self):
        """A = delta * M^-1; diagonal entries are the observer decay rates."""
        return self.delta * np.linalg.inv(self.mass_matrix())


@dataclass
class BodyState:
    q: np.ndarray
    r: np.ndarray
    v: np.ndarray
    omega: np.ndarray

    @classmethod
    def hover(cls, position=(0.0, 0.0, 0.0)):
        return cls(q=np.array([1.0, 0.0, 0.0, 0.0]), r=np.asarray(position, dtype=float),
                   v=np.zeros(3), omega=np.zeros(3))

    @classmethod
    def from_vector(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(q=x[0:4].copy(), r=x[4:7].copy(), v=x[7:10].copy(), omega=x[10:13].copy())

    def as_vector(self):
        return np.concatenate([self.q, self.r, self.v, self.omega])


@dataclass
class ControlInput:
    thrust: float
    moments: np.ndarray

    @classmethod
    def hover(cls, params):
        return cls(thrust=params.mass * params.gravity, moments=np.zeros(3))

    @classmethod
    def from_vector(cls, u):
        u = np.asarray(u, dtype=float)
        return cls(thrust=float(u[0]), moments=u[1:4].copy())

    def as_vector(self):
        """[thrust, moments] (4,), or (..., 4) for fields with a leading
        run axis: thrust (...,) and moments (..., 3)."""
        u = np.empty(np.shape(self.moments)[:-1] + (4,))
        u[..., 0] = self.thrust
        u[..., 1:4] = self.moments
        return u


# ---------------------------------------------------------------------------
# Continuous-time dynamics
# ---------------------------------------------------------------------------

def _body_z_inertial(q):
    """Third column of R(q): the inertial direction of total thrust.

    q is one quaternion (4,), a component-first stack (4, S), or the tuple
    of its components.
    """
    qw, qx, qy, qz = q
    return np.array([2.0 * (qx * qz + qw * qy),
                     2.0 * (qy * qz - qw * qx),
                     1.0 - 2.0 * (qx * qx + qy * qy)])


def _gyroscopic(w, jw):
    """omega x (J omega) for component-first w and jw, (3,) or (3, S).

    w may also be the tuple of its components (cheaper to unpack than an
    array, for a caller that has them already).
    """
    wx, wy, wz = w
    return np.array([wy * jw[2] - wz * jw[1],
                     wz * jw[0] - wx * jw[2],
                     wx * jw[1] - wy * jw[0]])


def matvec(m, x):
    """m @ x for one vector x (c,) or each row of a stack (..., c).

    m is (r, c), or one matrix per row. Each run's product reaches BLAS as
    its own matrix-vector call on a contiguous vector, as a lone vector's
    does; an elementwise product and sum, or a strided operand, may round
    differently.
    """
    return (m @ np.ascontiguousarray(x)[..., None])[..., 0]


def _rigid_body_derivative(x, u, tau, p, j_inv):
    """Time derivative of the 13-vector body state.

    x is one state (13,) or a component-first stack (13, S) of S runs with
    controls u (4,) or (4, S); tau = [F_h(3) inertial, M_h(3) body] is
    (6,), or (6, 1) for a stack. The external force acts through the system
    mass; the external moment through the inertia. Quaternion kinematics
    use the body-rate convention qdot = q * (0, omega) / 2.
    """
    if x.ndim == 1:
        # Python floats round as numpy scalars do, and unpack faster.
        mv = np.matmul
        q = x[0:4].tolist()
        w = x[10:13].tolist()
        jw = (p.inertia @ x[10:13]).tolist()
    else:
        # A component-first stack reaches matvec as its (S, c) transpose.
        mv = lambda m, v: matvec(m, v.T).T
        q = x[0:4]
        w = x[10:13]
        jw = mv(p.inertia, w)
    qw, qx, qy, qz = q
    wx, wy, wz = w
    out = np.empty(x.shape)
    out[0] = 0.5 * (-qx * wx - qy * wy - qz * wz)
    out[1] = 0.5 * (qw * wx + qy * wz - qz * wy)
    out[2] = 0.5 * (qw * wy + qz * wx - qx * wz)
    out[3] = 0.5 * (qw * wz + qx * wy - qy * wx)
    out[4:7] = x[7:10]
    out[7:10] = _body_z_inertial(q) * (u[0] / p.mass) + tau[:3] / p.mass
    out[9] -= p.gravity
    rhs = u[1:4] - _gyroscopic((wx, wy, wz), jw) + tau[3:]
    out[10:13] = mv(j_inv, rhs)
    return out


def system_derivative(state, u, tau_h, p):
    """Combined-body derivative under the wrench tau_h (6,); see
    _rigid_body_derivative for layout."""
    return _rigid_body_derivative(state.as_vector(), u.as_vector(),
                                  np.asarray(tau_h, float), p, np.linalg.inv(p.inertia))


def quadrotor_derivative(q, v_i, omega, u_i, f_link, t_link, m_i, j_i, gravity):
    """Single-quadrotor rigid-body derivative (component model).

    f_link is the inertial-frame force and t_link the body-frame torque the
    quadrotor exerts on the payload through its link; the reactions enter
    here with a minus sign. u_i = [thrust, moments(3)]. Attitude and rate
    are shared with the assembly. Returns [qdot(4), rdot(3)=v_i, vdot(3),
    omegadot(3)].

    Used only as a consistency oracle against the combined model; the
    simulator always integrates the combined body.
    """
    qdot = 0.5 * quat_mul(q, np.array([0.0, *omega]))
    vdot = _body_z_inertial(q) * (u_i[0] / m_i) - gravity * E_Z - f_link / m_i
    wdot = np.linalg.solve(j_i, u_i[1:4] - np.cross(omega, j_i @ omega) - t_link)
    return np.concatenate([qdot, v_i, vdot, wdot])


def payload_derivative(q, v_l, omega, f_links, t_links, arms, tau_h, m_l, j_l, gravity):
    """Payload rigid-body derivative (component model).

    f_links / t_links are sequences of link forces (inertial) and torques
    (body) from each quadrotor, arms the body-frame attachment offsets from
    the payload center of mass. The human wrench tau_h = [F_h inertial,
    M_h body] acts on the payload. Lever-arm moments use body-frame force
    components. Oracle-only, like quadrotor_derivative.
    """
    rot_t = quat_to_rot(q).T
    force = np.sum(f_links, axis=0) + tau_h[:3] - m_l * gravity * E_Z
    moment = np.sum(t_links, axis=0) + tau_h[3:] - np.cross(omega, j_l @ omega)
    for f_i, l_i in zip(f_links, arms):
        moment = moment + np.cross(l_i, rot_t @ f_i)
    qdot = 0.5 * quat_mul(q, np.array([0.0, *omega]))
    vdot = force / m_l
    wdot = np.linalg.solve(j_l, moment)
    return np.concatenate([qdot, v_l, vdot, wdot])


def rk4_step(x, u, tau, p, dt, j_inv):
    """Classic fixed-step RK4 on body-state vectors, quaternion renormalized.

    Shapes as in _rigid_body_derivative: one state or a component-first
    stack, whose runs each get the arithmetic of a lone state. j_inv is
    the inverse inertia.
    """
    k1 = _rigid_body_derivative(x, u, tau, p, j_inv)
    k2 = _rigid_body_derivative(x + 0.5 * dt * k1, u, tau, p, j_inv)
    k3 = _rigid_body_derivative(x + 0.5 * dt * k2, u, tau, p, j_inv)
    k4 = _rigid_body_derivative(x + dt * k3, u, tau, p, j_inv)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # A stack's quaternions are columns; .T does nothing to a lone state's.
    out[0:4] = quat_normalize(out[0:4].T).T
    return out


def mechanical_energy(state, p):
    """Kinetic plus gravitational potential energy of the rigid body."""
    ke = 0.5 * p.mass * float(state.v @ state.v)
    ke += 0.5 * float(state.omega @ (p.inertia @ state.omega))
    return ke + p.mass * p.gravity * float(state.r[2])


# ---------------------------------------------------------------------------
# Rotor mixing and allocation
# ---------------------------------------------------------------------------

def mixing_matrix(p):
    """Per-quadrotor map from 4 rotor thrusts to [thrust, mx, my, mz].

    Plus-configuration arms of length rotor_arm; yaw moment from rotor drag
    with drag-to-thrust ratio nu = k_m / k_t.
    """
    arm = p.rotor_arm
    nu = p.rotor_drag_coeff / p.rotor_thrust_coeff
    return np.array([
        [1.0, 1.0, 1.0, 1.0],
        [0.0, arm, 0.0, -arm],
        [-arm, 0.0, arm, 0.0],
        [nu, -nu, nu, -nu],
    ])


def build_config_matrix(p):
    """4x8 map from stacked per-quadrotor wrenches to the system wrench.

    Columns group as [u_11, u_12, u_13, u_14, u_21, ...]: thrust then body
    moments for quadrotor 1, then quadrotor 2. Thrust at a lateral offset l
    adds (l_y, -l_x, 0) per newton to the body moment, so only the in-plane
    offset components appear.
    """
    c = np.zeros((4, 8))
    for k, l in enumerate((p.attach_1, p.attach_2)):
        base = 4 * k
        c[0, base] = 1.0
        c[1, base] = l[1]
        c[2, base] = -l[0]
        c[1:4, base + 1:base + 4] = np.eye(3)
    return c


# Largest condition number of the allocation's 4x4 Gram matrix C W^-2 C^T.
ALLOC_COND_LIMIT = 1e12


class RotorAllocation:
    """The allocation pipeline of one parameter set, factored once.

    Calling it takes a system wrench demand d = [thrust, moments] (4,), or
    one per run (..., 4), through the whole pipeline: the stacked
    per-quadrotor demands u minimizing ||diag(w) u|| subject to C u = d
    (the weighted pseudoinverse W^-2 C^T (C W^-2 C^T)^-1, held in
    ``alloc``, with w = p.alloc_weights), the 8 rotor thrusts realizing u
    through each quadrotor's mixing_matrix, each rotor clipped to
    [0, u_max / 4], and the system wrench the clipped rotors deliver.
    Raises SingularAllocation when the Gram matrix is not finite or its
    condition number exceeds ALLOC_COND_LIMIT.
    """

    def __init__(self, p):
        w = p.alloc_weights
        c = build_config_matrix(p)
        cw = c / (w * w)
        gram = cw @ c.T
        if not np.isfinite(gram).all():
            raise SingularAllocation("allocation Gram matrix is not finite")
        if np.linalg.cond(gram) > ALLOC_COND_LIMIT:
            raise SingularAllocation("allocation Gram matrix condition exceeds %g"
                                     % ALLOC_COND_LIMIT)
        self.alloc = cw.T @ np.linalg.inv(gram)
        mix = np.zeros((8, 8))
        mix[0:4, 0:4] = mix[4:8, 4:8] = mixing_matrix(p)
        self.to_rotors = np.linalg.inv(mix) @ self.alloc
        self.to_wrench = c @ mix
        self.cap = p.u_max / 4.0

    def __call__(self, demand):
        """(wrench delivered, rotor thrusts clipped, saturated) for a
        demand (4,) or (..., 4): shapes (..., 4), (..., 8) and (...),
        saturated being True where a rotor was clipped. An unsaturated
        run's thrusts are left as they are, bit for bit."""
        thrusts = matvec(self.to_rotors, demand)
        saturated = (thrusts.min(axis=-1) < 0.0) | (thrusts.max(axis=-1) > self.cap)
        if saturated.any():
            np.clip(thrusts, 0.0, self.cap, out=thrusts)
        return matvec(self.to_wrench, thrusts), thrusts, saturated


def allocate(demand, p):
    """Cost-weighted minimum-norm allocation of a system wrench demand to
    the stacked per-quadrotor demands; see RotorAllocation."""
    return RotorAllocation(p).alloc @ np.asarray(demand, dtype=float)


# ---------------------------------------------------------------------------
# Compact wrench model and observer
# ---------------------------------------------------------------------------

def compact_matrices(q, omega, p):
    """(M, G, W) of the compact model tau_h = M chidot + G + W u.

    chi = [v, omega]; G collects gravity and the gyroscopic term, W removes
    the commanded wrench so that the residual is exactly the external one.
    """
    m = p.mass_matrix()
    g = np.concatenate([p.mass * p.gravity * E_Z,
                        np.cross(omega, p.inertia @ omega)])
    w = np.zeros((6, 4))
    w[:3, 0] = -_body_z_inertial(q)
    w[3:, 1:] = -np.eye(3)
    return m, g, w


def observer_derivative(upsilon, state, u, p):
    """Acceleration-free wrench observer: dY/dt = A (G + W u - Gamma - Y).

    A = delta M^-1. The observer integrates only measurable signals; its
    output wrench_estimate() converges to the true external wrench with
    per-channel rate A_ii when fed exact states.
    """
    _, g, w = compact_matrices(state.q, state.omega, p)
    gamma = p.delta * np.concatenate([state.v, state.omega])
    a = p.observer_gain_matrix()
    return a @ (g + w @ u.as_vector() - gamma - upsilon)


def wrench_estimate(upsilon, v, omega, p):
    """External-wrench estimate tau_hat = upsilon + delta [v, omega], for
    one state or for rows of a stack."""
    return upsilon + p.delta * np.concatenate([v, omega], axis=-1)


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

# Numerator coefficients b_0 ... b_13 of the [13/13] Pade approximant to e^x.
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)
# theta_13, the largest eta at which the approximant is accurate to unit
# roundoff, and 1/|c_27| of its error series.
_THETA_13 = 4.25
_C27_INV = 113250775606021113483283660800000000.0


def _norm1(a):
    return np.abs(a).sum(axis=0).max()


def expm(a):
    """Matrix exponential e^A of a square real matrix.

    The [13/13] Pade approximant with scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005), the number of squarings chosen
    from the 1-norms of A^6, A^8 and A^10 and corrected for non-normal
    |A| as in Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 31(3), 2009).
    Diagonal input returns diag(exp(d)) exactly; a non-finite entry, or
    powers of A whose norms overflow, raise ValueError.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("expm needs a finite matrix")
    d = np.diagonal(a)
    if not (a - np.diag(d)).any():
        return np.diag(np.exp(d))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6, d8 = _norm1(a6) ** (0.5 / 3), _norm1(a4 @ a4) ** (0.5 / 4)
    if not math.isfinite(d6 + d8):  # then A^2, A^4 and A^6 are finite too
        raise ValueError("expm overflows: the norms of A^6 and A^8 are not finite")
    eta = min(max(d6, d8), max(d8, _norm1(a4 @ a6) ** 0.1))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta else 0
    # ell_13(A): squarings still needed where |A| is far from normal.
    abs_a = np.abs(a * 2.0 ** -s)
    col = np.ones(len(a))
    for _ in range(27):
        col = col @ abs_a
    if col.max():                         # ||abs(A)^27||_1
        alpha = col.max() / (_norm1(abs_a) * _C27_INV)
        s += max(math.ceil(math.log2(alpha / 2.0 ** -53) / 26), 0)
    a, a2, a4, a6 = (m * 2.0 ** (-k * s) for k, m in ((1, a), (2, a2), (4, a4), (6, a6)))
    b, eye = _PADE_13, np.eye(len(a))
    odd = (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
           + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    even = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # r_13(A) = (V - U)^-1 (V + U), written as I + 2 (V - U)^-1 U so that
    # the entries near 1 are not formed by cancellation.
    u = a @ odd
    x = np.linalg.solve(even - u, 2.0 * u)
    x[np.diag_indices_from(x)] += 1.0
    for _ in range(s):
        x = x @ x
    return x


# ---------------------------------------------------------------------------
# Augmented generator and discrete transition
# ---------------------------------------------------------------------------

def build_fc(x, u, p):
    """Continuous-time generator of the augmented 20-state.

    Frozen-coefficient form: every state-dependent coefficient is evaluated
    at x and held, which makes exp(fc * T) an exact one-step integrator of
    the frozen system. The observer state enters through its own stable
    diagonal block (eigenvalues -A_ii) rather than through the affine
    column, so the stiff fast channels decay instead of exploding at any
    step size.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    q = x[IQ]
    v = x[IV]
    w = x[IW]
    fc = np.zeros((20, 20))

    # Quaternion kinematics: qdot = 0.5 Xi(omega) q.
    fc[0, 1:4] = -0.5 * w
    fc[1:4, 0] = 0.5 * w
    fc[1:4, 1:4] = -0.5 * skew(w)

    fc[IR, IV] = np.eye(3)

    a_v = _body_z_inertial(q) * (u[0] / p.mass) - p.gravity * E_Z
    fc[IV, IDUMMY] = a_v

    jw = p.inertia @ w
    fc[IW, IDUMMY] = np.linalg.solve(p.inertia, u[1:4] - np.cross(w, jw))

    a = p.observer_gain_matrix()
    _, g, wmat = compact_matrices(q, w, p)
    gamma = p.delta * np.concatenate([v, w])
    fc[IU, IU] = -a
    fc[IU, IDUMMY] = a @ (g + wmat @ u - gamma)
    return fc


# The pair products of propagate_batch, gathered by quat._mul_terms from
# its workspace (see _Workspace): qx qz + qw qy, qy qz - qw qx and
# qx^2 + qy^2 (bz is 2 times the first two, 1 minus twice the third) and
# omega x (J omega). Each output sums its two terms left to right in the
# order _body_z_inertial and _gyroscopic write them, so the bits are theirs.
_PAIR_TERMS = _term_table(
    [[1, 0], [2, 0], [1, 2], [11, 12], [12, 10], [10, 11]],
    [[3, 2], [3, 1], [1, 2], [37, 36], [35, 37], [36, 35]],
    [[1, 1], [1, -1], [1, 1], [1, -1], [1, -1], [1, -1]])


# bz from the first three pair products, [2 p0, 2 p1, 1 - 2 s], as one
# scaling and one shift: -0.0 is the exact additive identity, signed zeros
# included, and 1 + (-2 s) is 1 - 2 s bit for bit.
_BZ_SCALE = np.array([2.0, 2.0, -2.0])[:, None]
_BZ_SHIFT = np.array([-0.0, -0.0, 1.0])[:, None]


class _Workspace:
    """propagate_batch's arrays for k rows, component first, and views.

    ``w`` holds per row the state [q, r, v, omega, upsilon, s] (entries
    0-19), the forcing s [bz F_th, omega x J omega, U_tau, v, omega] (20-34)
    and J omega (35-37); entries 4-34 are the linear block's input ``y``,
    and ``nxt`` takes the next state. BLAS must not make a row depend on its
    batch: gemm rounds a C-ordered map's column tail by k, and numpy hands
    one column to gemv. So the map is Fortran-ordered, and a lone row has
    an inert zero column beside it that only the products see (``y``,
    ``z``, ``om2``, ``jw2``); every other view holds the first k columns.
    """

    def __init__(self, k):
        self.k = k
        full, nxt = np.zeros((38, max(k, 2))), np.zeros((20, max(k, 2)))
        self.y, self.z, self.om2, self.jw2 = full[4:35], nxt[4:19], full[IW], full[35:38]
        self.w = w = full[:, :k]
        self.nxt = nxt[:, :k]
        self.rows, self.q, self.om, self.scale = w[:20], w[IQ], w[IW], w[IDUMMY]
        self.rates = w[IV.start:IW.stop]    # chi = [v; omega]
        self.force, self.pp, self.bz = w[20:35], w[20:26], w[20:23]
        self.torque, self.chi = w[26:29], w[29:35]
        self.pair = (np.empty((2, 6, k)), np.empty((2, 6, k)))
        self.quat = (np.empty((4, 4, k)), np.empty((4, 4, k)))
        self.t3, self.dq = np.empty((3, k)), np.empty((4, k))
        self.ang = np.empty((4, k))         # angle, half, factor, norm


class TransitionContext:
    """Precomputed constants for the closed-form discrete transition, and
    propagate_batch's workspace.

    ``lin`` is the linear block's constant map, 15 x 31 and Fortran-ordered
    (see _Workspace), from [r, v, omega, upsilon, s, s bz F_th,
    s (omega x J omega), s U_tau, s v, s omega] to [r', v', omega',
    upsilon']. By output: r' = r + dt v + (dt^2 / 2m) s bz F_th - (g dt^2 /
    2) s e_z and v' = v + (dt / m) s bz F_th - g dt s e_z, the position
    chain; omega' = omega + J^-1 dt (s U_tau - s omega x J omega); upsilon'
    = ``decay`` upsilon + forced s (G + W u - Gamma), with ``decay`` =
    e^{-A T}, forced = I - e^{-A T} and the observer's forcing G + W u -
    Gamma = [m g e_z - bz F_th - delta v; omega x J omega - U_tau - delta
    omega].

    The workspace is sized at the first call for each row count and
    overwritten by every later call with as many rows, as the QUKF sizes
    its sigma buffers; propagate_batch never returns it. A context is
    therefore not safe to share between threads that propagate at once.
    """

    def __init__(self, p, dt):
        self.dt = dt
        self.inertia = p.inertia.copy()
        self.decay = expm(-p.observer_gain_matrix() * dt)  # e^{-A T}
        forced = np.eye(6) - self.decay       # (I - e^{-A T})
        eye, j_dt = np.eye(3), np.linalg.inv(p.inertia) * dt
        f_v, f_w = forced[:, :3], forced[:, 3:]
        lin = np.zeros((15, 31))
        lin[0:9, 0:9], lin[0:3, 3:6], lin[9:15, 9:15] = np.eye(9), eye * dt, self.decay
        lin[0:3, 16:19], lin[3:6, 16:19] = eye * (0.5 * dt * dt / p.mass), eye * (dt / p.mass)
        lin[6:9, 19:22], lin[6:9, 22:25] = -j_dt, j_dt
        lin[9:15, 16:31] = np.hstack([-f_v, f_w, -f_w, -p.delta * forced])
        lin[[2, 5], 15] = -0.5 * dt * dt * p.gravity, -dt * p.gravity
        lin[9:15, 15] = f_v[:, 2] * (p.mass * p.gravity)
        self.lin = np.asfortranarray(lin)
        self._work = None

    def workspace(self, k):
        """The workspace for k rows, allocated when k changes."""
        if self._work is None or self._work.k != k:
            self._work = _Workspace(k)
        return self._work


def propagate_batch(xs, u, ctx, out=None):
    """Advance a batch of augmented states one step, closed form.

    xs has shape (k, 20); u = [F_th, U_tau] is either one (4,) control
    shared by the batch or a (k, 4) array of per-row controls. The update
    is the exact matrix exponential of build_fc evaluated at each row,
    computed blockwise: the quaternion block is a planar rotation, and
    z = [r, v, omega, upsilon] takes the zero-order-hold form Phi z + Gamma
    f (Van Loan, IEEE TAC 23(3), 1978) with the frozen forcing f of (q,
    omega, u). Affine terms scale with the trailing dummy component s so
    the map agrees with the dense exponential for any input.

    The result goes into ``out``, a float (k, 20) array, or a new one, and
    is returned. Every read of xs and u happens before the first write to
    out, so out may be xs itself (a filter propagates its own rows in
    place) or overlap it.

    The work runs in ctx's workspace (see _Workspace): a contiguous
    component-first copy of the rows, so each elementwise operation is one
    call on contiguous vectors. One gathered pair product (_PAIR_TERMS)
    writes bz(q) and omega x (J omega) into the forcing rows, with the bits
    of _body_z_inertial and _gyroscopic; the forcing is scaled by s, and
    one product with ctx.lin (see TransitionContext) gives Phi z + Gamma f.
    Every row gets the same operations whatever else is in the batch, and
    the BLAS order rule of _Workspace holds for the products, so a row's
    result does not depend on the batch around it, nor on whether its
    control is shared or per row, nor on out.
    """
    ws = ctx.workspace(np.shape(xs)[0])
    xs = np.asarray(xs, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        thrust, moments = u[0], u[1:4, None]
    else:
        thrust, moments = u[:, 0], u[:, 1:4].T
    ws.rows[...] = xs.T
    np.matmul(ctx.inertia, ws.om2, out=ws.jw2)

    # The forcing s [bz F_th, omega x J omega, U_tau, v, omega], then z'.
    _mul_terms(ws.w, ws.w, _PAIR_TERMS, out=ws.pp, work=ws.pair)
    np.multiply(ws.bz, _BZ_SCALE, out=ws.bz)
    ws.bz += _BZ_SHIFT
    ws.bz *= thrust
    ws.torque[...] = moments
    ws.chi[...] = ws.rates
    ws.force *= ws.scale
    np.matmul(ctx.lin, ws.y, out=ws.z)

    # q <- q * q(omega dt), then normalized: right multiplication
    # integrates body rates. The step is quat.py's rule, written out on the
    # workspace: quat_normalize(quat_mul(q, rotvec_to_quat(omega dt))), with
    # the same operations in the same order, so the bits are theirs.
    ang, half, factor, norm = ws.ang
    dq, t3, q = ws.dq, ws.t3, ws.nxt[IQ]
    rv = dq[1:]
    np.multiply(ws.om, ctx.dt, out=rv)
    np.multiply(rv, rv, out=t3)
    np.add(t3[0], t3[1], out=ang)
    ang += t3[2]
    np.sqrt(ang, out=ang)
    np.multiply(ang, 0.5, out=half)
    # fmin skips NaN, whose rows are not small.
    if np.fmin.reduce(ang, initial=np.inf) < _SMALL_ANGLE:
        small = ang < _SMALL_ANGLE
        factor[small] = 0.5 - ang[small] * ang[small] / 48.0
        ns = ~small
        factor[ns] = np.sin(half[ns]) / ang[ns]
    else:
        np.sin(half, out=factor)
        factor /= ang
    np.cos(half, out=dq[0])
    rv *= factor
    _mul_terms(ws.q, dq, _QUAT_MUL_TERMS, out=q, work=ws.quat)
    np.multiply(q, q, out=dq)
    np.add(dq[0], dq[1], out=norm)
    norm += dq[2]
    norm += dq[3]
    q /= np.sqrt(norm, out=norm)

    ws.nxt[IDUMMY] = ws.scale
    if out is None:
        out = np.empty_like(xs)
    out[...] = ws.nxt.T
    return out


def discrete_transition(state, upsilon, u, p, dt, method="closed"):
    """One discrete step of the augmented dynamics: the next BodyState and
    observer states upsilon (6,).

    method "closed" uses the blockwise exact exponential (fast path);
    "expm" assembles build_fc and calls this module's general
    scaling-and-squaring routine, :func:`expm`. Both agree to floating-point
    precision; the dense path exists to validate the fast one and for
    experiments with modified generators.
    """
    x = np.concatenate([state.as_vector(), upsilon, [1.0]])
    uv = u.as_vector()
    if method == "closed":
        out = propagate_batch(x[None, :], uv, TransitionContext(p, dt))[0]
    elif method == "expm":
        out = expm(build_fc(x, uv, p) * dt) @ x
        out[IQ] = quat_normalize(out[IQ])
    else:
        raise ValueError("unknown method %r" % method)
    return BodyState.from_vector(out[:13]), out[IU].copy()
