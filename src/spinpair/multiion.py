"""Numerical verification of the two-ion scaling protocols.

Covers the gradient-field spin-motion entangling gate in truncated Fock
space (drive near one normal mode, evolution time tau = 2 k1 pi / delta),
the composite sequence that isolates the electron-electron ZZ coupling,
the large-field qubit-2 selectivity estimate, and the laser-based
composite that builds a nuclear-nuclear XX gate from clock-transition
Molmer-Sorensen interactions.

Two-ion operators put ion p before ion w (slow index first).  The
spin-motion evolution is kept as one motional (Fock) propagator per spin
basis state, indexed by the 16-dim spin index.

S = sum_n Omega^n (I^n_1z + I^n_2z), U_zz and the ZZ target are diagonal
in the tensor z-basis, so they are computed from their 16 diagonal values
with elementwise exponentials, and the composite ZZ echo applies each
U_zz factor as a row scaling.  The pi rotations of that echo and the four
sandwich rotations of the MS composite depend on no parameter; they are
module constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ion import (I1X, I1Y, I1Z, I2Z, IonParams, YB171, change_basis,
                  mapping_operator, mixing_angle)
from .linalg import (expm_unitary, expm_unitary_batch, kron,
                     phase_min_distance)

TWO_PI = 2.0 * np.pi
I4 = np.eye(4, dtype=complex)
I16 = np.eye(16, dtype=complex)


@dataclass(frozen=True)
class NormalMode:
    """One motional normal mode shared by the two ions."""

    omega: float                  # rad/s
    b: tuple = (1 / np.sqrt(2), 1 / np.sqrt(2))  # per-ion coefficients
    epsilon: float = 1e-9         # ground-state extent, meters

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("mode frequency must be positive")
        if abs(sum(x**2 for x in self.b) - 1.0) > 1e-9:
            raise ValueError("mode coefficients must be normalized")


@dataclass(frozen=True)
class GradientDrive:
    """Oscillating magnetic-field-gradient drive near a mode frequency."""

    b_grad: float                 # tesla / meter
    delta: float                  # detuning from the mode, rad/s
    phi: float = 0.0
    k1: int = 1

    def __post_init__(self):
        if self.delta == 0:
            raise ValueError("detuning must be nonzero")
        if self.k1 < 1:
            raise ValueError("k1 must be a positive integer")

    @property
    def tau(self) -> float:
        return 2 * self.k1 * np.pi / self.delta


@dataclass(frozen=True)
class TwoIonSystem:
    ions: tuple = (YB171, YB171)
    mode: NormalMode = NormalMode(omega=TWO_PI * 2e6)
    fock_cutoff: int = 16
    drive: GradientDrive = GradientDrive(b_grad=10.0, delta=TWO_PI * 2e3)

    def __post_init__(self):
        if self.fock_cutoff < 4:
            raise ValueError("fock_cutoff must be >= 4")


def two_ion_op(op: np.ndarray, which: int) -> np.ndarray:
    """Embed a 4-dim single-ion operator: ion index 0 = p (slow), 1 = w."""
    return kron(op, I4) if which == 0 else kron(I4, op)


# diagonals of the single-ion I_1z, I_2z and I_1z + I_2z
_I1Z, _I2Z = np.diag(I1Z).real, np.diag(I2Z).real
_IZ_SUM = _I1Z + _I2Z


def _spin_z_diagonal(sys: TwoIonSystem) -> np.ndarray:
    """The 16 real diagonal values of S = sum_{n,l} Omega^n I^n_{l,z}."""
    om = [coupling_strength(sys, n) for n in range(2)]
    return (om[0] * _IZ_SUM[:, None] + om[1] * _IZ_SUM[None, :]).ravel()


def coupling_strength(sys: TwoIonSystem, n: int) -> float:
    """Omega^n = b^n B'_z (gamma_n + gamma_e)/4 epsilon for ion n."""
    ion = sys.ions[n]
    return (sys.mode.b[n] * sys.drive.b_grad
            * (ion.gamma_n + ion.gamma_e) / 4.0 * sys.mode.epsilon)


def integrate_spin_motion(sys: TwoIonSystem, duration: float,
                          steps_per_period: int = 200) -> np.ndarray:
    """Midpoint piecewise-constant integration of the spin-motion drive.

    H(t) = -S [e^{-i(delta t - phi)} a + e^{i(delta t - phi)} a^dag] with S
    diagonal, so each spin basis state s evolves its own Fock block.  With
    P(t) = diag(e^{i(delta t - phi) k}) the bracket is P (a + a^dag) P^dag
    exactly in the truncated space, so step j is P_j M P_j^dag with
    M = exp(i s dt (a + a^dag)), and the n-step product is
    P_{n-1} (M Q)^{n-1} M P_0^dag with Q = P_{j+1}^dag P_j.

    Returns the motional propagators, shape (16, fock_cutoff, fock_cutoff),
    one per spin basis state.
    """
    period = TWO_PI / abs(sys.drive.delta)
    n = max(2, int(np.ceil(duration / period * steps_per_period)))
    dt = duration / n
    k = np.arange(sys.fock_cutoff)
    a = np.diag(np.sqrt(k[1:]), k=1)
    s = _spin_z_diagonal(sys)
    m = expm_unitary_batch(-s[:, None, None] * (a + a.T), dt)
    q = np.exp(-1j * sys.drive.delta * dt * k)
    u = np.linalg.matrix_power(m * q, n - 1) @ m

    def p(j):
        return np.exp(1j * (sys.drive.delta * (j + 0.5) * dt
                            - sys.drive.phi) * k)
    return p(n - 1)[:, None] * u * p(0).conj()


def _kf(sys: TwoIonSystem) -> float:
    """The U_zz phase factor 2 k1 pi / delta^2."""
    return 2 * sys.drive.k1 * np.pi / sys.drive.delta**2


def _uzz_diagonal(sys: TwoIonSystem) -> np.ndarray:
    """The 16 diagonal entries exp(i k_f s^2) of U_zz."""
    s = _spin_z_diagonal(sys)
    return np.exp(1j * _kf(sys) * (s * s))


def uzz_spin_unitary(sys: TwoIonSystem) -> np.ndarray:
    """Closed-form spin unitary at tau = 2 k1 pi / delta.

    U_zz = exp[(2 k1 pi i / delta^2) S^2], diagonal in the tensor z-basis.
    """
    return np.diag(_uzz_diagonal(sys))


@dataclass(frozen=True)
class DisentanglementReport:
    """Criterion 4: the spin ends pure, its conditional map is U_zz, and a
    Fock cutoff raised by 4 does not move the purity."""

    spin_purity: float
    residual: float
    cutoff_change: float

    @property
    def converged(self) -> bool:
        return (self.spin_purity >= 1 - 1e-6 and self.residual <= 1e-6
                and self.cutoff_change <= 1e-8)


def motion_disentanglement_check(sys: TwoIonSystem,
                                 steps_per_period: int = 300,
                                 check_cutoff: bool = True
                                 ) -> DisentanglementReport:
    """Evolve a separable spin (x) motion state to tau and verify closure.

    Returns the reduced-spin purity at tau, the phase-minimized distance of
    the conditional spin map from the closed-form U_zz, and the change of
    the purity when the Fock cutoff is raised by 4.
    """
    def run(cutoff: int):
        s = TwoIonSystem(ions=sys.ions, mode=sys.mode, fock_cutoff=cutoff,
                         drive=sys.drive)
        u = integrate_spin_motion(s, sys.drive.tau, steps_per_period)
        # spin in the uniform superposition, motion in its ground state |0>
        out = u[:, :, 0] / 4.0
        rho_spin = out @ out.conj().T
        purity = float(np.trace(rho_spin @ rho_spin).real)
        # <0| U |0>: the conditional spin map, diagonal
        cond = np.diag(u[:, 0, 0])
        residual = phase_min_distance(cond, uzz_spin_unitary(s))
        return purity, residual

    purity, residual = run(sys.fock_cutoff)
    change = 0.0
    if check_cutoff:
        purity_hi, _ = run(sys.fock_cutoff + 4)
        change = abs(purity_hi - purity)
    return DisentanglementReport(spin_purity=purity, residual=residual,
                                 cutoff_change=change)


# --- composite ZZ sequence ---------------------------------------------------

# criterion 3: the largest distance of the echo from its closed-form target
COMPOSITE_ZZ_TOL = 1e-9
# criterion 10: the relative tolerance of the selectivity on gamma_n/gamma_e
SELECTIVITY_TOL = 1e-6


def _r1y(ion_index: int, theta: float) -> np.ndarray:
    return two_ion_op(expm_unitary(I1Y, theta), ion_index)


# draw-independent pi rotations of the echo: qubit 1 of ion w, and of both
_ECHO_W = _r1y(1, -np.pi)
_ECHO_PW = _r1y(0, np.pi) @ _r1y(1, np.pi)


def composite_zz_target(sys: TwoIonSystem) -> np.ndarray:
    """Electron-electron ZZ exponential with the numerically fixed phase.

    exp[(2 k1 pi i / delta^2) 8 Om_p Om_w I^p_2z I^w_2z] e^{i(2 theta1 + pi)}
    with theta1 = (2 k1 pi / delta^2) sum_n Om_n^2.  Each of the four U_zz
    factors contributes a constant (I_1z + I_2z)^2 -> 1/2 term per ion
    (total 2 theta1) and the paired pi rotations contribute a spinor -1;
    both checked against the explicit product.
    """
    kf = _kf(sys)
    om = [coupling_strength(sys, n) for n in range(2)]
    theta1 = kf * (om[0]**2 + om[1]**2)
    g = kf * 8 * om[0] * om[1]
    phase = np.exp(1j * (2 * theta1 + np.pi))
    return np.diag(np.exp(1j * g * np.outer(_I2Z, _I2Z).ravel()) * phase)


def composite_zz(sys: TwoIonSystem) -> tuple[np.ndarray, float]:
    """Eight-factor echo sequence isolating the electron-electron ZZ term.

    Factors are applied right to left:
    U_zz R_pw U_zz R_w U_zz R_pw U_zz R_w, each U_zz as a row scaling by
    its diagonal.  Returns (composite, distance to the closed-form
    target); the identity is exact, so the distance is at floating-point
    level for any drive parameters.
    """
    uzz = _uzz_diagonal(sys)[:, None]
    u = I16
    for rot in (_ECHO_W, _ECHO_PW, _ECHO_W, _ECHO_PW):
        u = uzz * (rot @ u)
    return u, float(np.linalg.norm(u - composite_zz_target(sys))
                    / np.sqrt(16))


# --- large-field selectivity -------------------------------------------------

def large_field_selectivity(sys: TwoIonSystem) -> dict:
    """Error of the qubit-2-only approximation in the large-field frame.

    The full drive couples both spins with Omega~ proportional to their
    gyromagnetic ratios; dropping the nuclear term is accurate to
    |gamma_n / gamma_e|.  Both Hamiltonians are diagonal, so each spectral
    norm is the largest absolute value of their 16 diagonal values.
    """
    full, approx = [], []
    for n, ion in enumerate(sys.ions):
        pref = sys.mode.b[n] * sys.drive.b_grad * sys.mode.epsilon
        full.append(pref * (ion.gamma_n * _I1Z + ion.gamma_e * _I2Z))
        approx.append(pref * ion.gamma_e * _I2Z)
    # the (4, 4) grids of diagonal values, ion p the row
    h_full, h_approx = np.add.outer(*full), np.add.outer(*approx)
    num = np.max(np.abs(h_full - h_approx))
    den = np.max(np.abs(h_approx))
    rel = float(num / den) if den > 0 else 0.0
    gamma_ratio = abs(sys.ions[0].gamma_n / sys.ions[0].gamma_e)
    return {"relative_error": rel, "gamma_ratio": gamma_ratio}


# --- laser-based MS composite ------------------------------------------------

def transition_op_x(j: int, l: int) -> np.ndarray:
    """I_{j<->l,x} = (|j><l| + |l><j|)/2 on the 4-level number basis."""
    op = np.zeros((4, 4), dtype=complex)
    op[j, l] = op[l, j] = 0.5
    return op


def transition_op_y(j: int, l: int) -> np.ndarray:
    """I_{j<->l,y} = (-i|j><l| + i|l><j|)/2 on the 4-level number basis."""
    op = np.zeros((4, 4), dtype=complex)
    op[j, l] = -0.5j
    op[l, j] = 0.5j
    return op


def transition_rotation(j: int, l: int, theta: float,
                        ion_index: int) -> np.ndarray:
    """R^n_{j<->l,y}(theta) = exp(-i theta I_{j<->l,y}), 16-dim."""
    return two_ion_op(expm_unitary(transition_op_y(j, l), theta), ion_index)


def _rot(j: int, l: int, theta: float, ion_index: int) -> np.ndarray:
    """exp(+i theta I_{j<->l,y}): the rotation sense of ms_composite_xx."""
    return transition_rotation(j, l, -theta, ion_index)


# the sandwich rotations r1..r4 of ms_composite_xx: per ion a pi/2 pulse
# on 1<->4 after a pi pulse on 1<->2 or 3<->4; number-basis level indices
# are zero-based: levels |1..4> -> 0..3
_MS_SANDWICHES = tuple(
    _rot(0, 3, np.pi / 2, 0) @ _rot(*p, np.pi, 0)
    @ _rot(0, 3, np.pi / 2, 1) @ _rot(*w, np.pi, 1)
    for p, w in (((0, 1), (2, 3)), ((2, 3), (0, 1)),
                 ((0, 1), (0, 1)), ((2, 3), (2, 3))))


def theta_prime(theta0: float) -> float:
    """Residual clock-transition rotation angle of the composite.

    2 arctan[(cos(theta0/2) + sin(theta0/2)) / (cos(theta0/2) - sin(theta0/2))];
    evaluates to 0 at theta0 = -pi/2.
    """
    c = np.cos(theta0 / 2)
    s = np.sin(theta0 / 2)
    return float(2 * np.arctan((c + s) / (c - s)))


def ms_interaction(tau: float) -> np.ndarray:
    """Clock-qubit MS unitary exp(-i I^p_{23,x} I^w_{23,x} tau), 16-dim."""
    op = two_ion_op(transition_op_x(1, 2), 0) @ two_ion_op(
        transition_op_x(1, 2), 1)
    return expm_unitary(op, tau)


def ms_composite_xx(tau: float, ion: IonParams = YB171,
                    theta0: float | None = None
                    ) -> tuple[np.ndarray, float]:
    """Compose the five-rotation MS sequence and compare to the target.

    Builds the composite in the two-ion number basis and compares it to
    the spin-basis nuclear-nuclear XX gate exp[-4i I^p_1x I^w_1x tau]
    mapped through kron(R, R).  Returns (composite, phase-minimized
    distance).

    Convention notes.  Each sandwich R_i Uxx R_i^dag conjugates the clock
    MS generator I^p_{23,x} I^w_{23,x} onto one of the four cross terms of
    the target generator: per ion, the pi pulse moves the 2<->3 coupling
    onto 1<->3 (or 2<->4) and the pi/2 pulse on 1<->4 splits it into the
    two-transition combination ((X12 + X24) or (X13 - X34))/(2 sqrt 2),
    and the sum of those two single-ion pieces is exactly the number-basis
    I_1x at theta0 = -pi/2.  Getting the relative sign inside each piece
    right requires the rotation sense exp(+i theta I_y), i.e. negated
    angles in the exp(-i theta I_y) convention used by
    ``transition_rotation``.  The four conjugated generators commute, so
    the product of sandwiches exponentiates their sum; since each sandwich
    contributes one cross term with unit weight, every MS block must run
    for angle 4*tau to match the explicit factor 4 in the target exponent.
    """
    if theta0 is None:
        _, theta0 = mixing_angle(ion)
    thp = theta_prime(theta0)
    r5 = _rot(1, 2, thp, 0) @ _rot(1, 2, thp, 1)

    ums = ms_interaction(4 * tau)
    u = r5.conj().T
    for r in reversed(_MS_SANDWICHES):
        u = u @ r @ ums @ r.conj().T
    u = u @ r5

    r = mapping_operator(theta0)
    xx = two_ion_op(I1X, 0) @ two_ion_op(I1X, 1)
    target_number = change_basis(expm_unitary(4 * xx, tau), kron(r, r))
    return u, phase_min_distance(u, target_number)
