"""GRAPE pulse synthesis for the two-qubit gate set.

The optimizer works on piecewise-constant rotating-frame controls.  The
objective is the gate fidelity |Tr(U_target^dag U)|^2 / d^2 averaged over a
set of amplitude scalings (ensemble robustness against pulse amplitude
errors).  Gradients are exact, so the analytic gradient matches finite
differences to solver precision (Khaneja et al., J. Magn. Reson. 172, 296
(2005)).

The optimizer is a projected L-BFGS ascent (Nocedal & Wright, Numerical
Optimization, Alg. 7.4; for GRAPE, de Fouquieres et al., J. Magn. Reson.
212, 412 (2011)) on y = x / omega_max with memory ``_MEMORY``.  The first
step, and the first after each history reset, goes along the projected
gradient with norm ``_FIRST_STEP``; later directions come from the
two-loop recursion with H_0 = s^T y / y^T y.  An Armijo line search
(c1 = ``_ARMIJO``, t = 1 halved at most ``_HALVINGS`` times) clips each
trial to |c| <= omega_max.  A curvature pair is kept only when s^T y > 0,
and the history resets when its direction does not ascend or its line
search fails.  At a coupling on the bound the outward radial part of the
gradient and of the direction is dropped, since the clip would undo it.

The optimizer's flat parameter vector stores each coupling as an
[Re, Im] pair, which ``_pulse`` views as a pulse without copying.
``_Point`` evaluates a pulse over all S robustness scalings at once with
real products only: X enters as RB(X) = [[Re X, -Im X], [Im X, Re X]].
The gradient, taken only at points the line search accepts, comes from
d|tr|^2 = Tr(G_k dRB(U_k)), tr = Tr(target^dag U) = Tr(P_k U_k) and
G_k = RB(conj(tr) P_k): two batched products of the prefixes.

Two kernels give the segment blocks RB(U_k) and their partials:

* Closed form, for a sequence whose detunings are all zero when no
  detuning partial is wanted (``optimize_detunings`` off, the default).
  Each segment Hamiltonian is then H = |3><w| + |w><3|, with
  w = s conj(c31, c32, c34) on levels 1, 2, 4.  H has rank 2 and
  eigenvalues +-|w|, 0, 0 (the Morris-Shore reduction: Morris & Shore,
  Phys. Rev. A 27, 906 (1983)), so exp(-iHt) = I + a|3><3| + b|w><w|
  - i c (|3><w| + |w><3|), a, b, c functions of |w|^2.  RB(U_k) is one
  product of 43 features of the couplings with a fixed basis; Tr(G_k M)
  over the basis, one more, gives the partials.
* Eigendecomposition, for any other point: one batched ``eigh`` of all
  S x n segment Hamiltonians, differentiated through the Loewner
  (divided-difference) formula.  With the Loewner matrix Gamma_k of
  segment k and A_k = V_k^dag conj(tr) P_k V_k, the array
  D_k = conj(V_k) (A_k^T o Gamma_k) V_k^T holds conj(tr) dTr/dH_k[i, j]
  for every matrix element, and every coupling and detuning partial is
  read off D by indexing.

The branch is chosen from the data and the partials asked for; it has no
option.  ``control.propagate`` has its own exponentials for every pulse.

Gate targets are defined in the spin basis; propagation lives in the
number basis, so targets are conjugated with the mapping operator before
comparison.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .control import L1, L2, L3, L4, PulseSequence, control_hamiltonian
from .ion import (I2, SIGMA_X, IonParams, YB171, change_basis,
                  mapping_operator, mixing_angle)
from .linalg import kron, real_block

TWO_PI = 2.0 * np.pi

# Part of the pulse-cache key: raise it whenever a change to this module can
# change the pulse ``synthesize`` returns for a given configuration.
SYNTHESIS_VERSION = 5

# The optimizer: curvature pairs kept, the norm (y units) of a step along
# the gradient, the Armijo constant and the line search's halvings.
_MEMORY = 10
_FIRST_STEP = 0.05
_ARMIJO = 1e-4
_HALVINGS = 30

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PHASE = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)

# Computational ordering: |uu>, |ud>, |du>, |dd>; qubit-1 (nuclear) is the
# slow index and |down> is the control-active level.
_GATES = {
    "hadamard1": kron(_H, I2),
    "hadamard2": kron(I2, _H),
    "phase1": kron(_PHASE, I2),
    "phase2": kron(I2, _PHASE),
    "t1": kron(_T, I2),
    "t2": kron(I2, _T),
    "cnot12": np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA_X]]),
    "cnot21": np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                        [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "cphase": np.diag([1, -1, 1, 1]).astype(complex),
    "c00": np.diag([1, -1, -1, -1]).astype(complex),
    "identity": np.eye(4, dtype=complex),
    # Grover's phase oracles: -1 on the marked state, 1-based in the order
    # (uu, ud, du, dd); oracle2 is cphase
    **{f"oracle{m}": np.diag(1 - 2 * np.eye(4, dtype=complex)[m - 1])
       for m in (1, 2, 3, 4)},
}
GATE_NAMES = tuple(sorted(_GATES))

TABLE_GATES = ("cnot12", "cnot21", "phase1", "phase2", "t1", "t2",
               "hadamard1", "hadamard2", "swap")
ALL_GATES = TABLE_GATES + ("c00",)


@dataclass(frozen=True)
class GateTarget:
    name: str
    matrix: np.ndarray  # 4x4 unitary, spin basis

    def __post_init__(self):
        m = self.matrix
        if np.max(np.abs(m @ m.conj().T - np.eye(4))) > 1e-12:
            raise ValueError(f"target {self.name!r} is not unitary")


def standard_gate(name: str) -> GateTarget:
    key = name.lower()
    if key not in _GATES:
        raise KeyError(f"unknown gate {name!r}; known: {sorted(_GATES)}")
    return GateTarget(name=key, matrix=_GATES[key].copy())


@dataclass
class GrapeConfig:
    n_segments: int = 20
    omega_max: float = TWO_PI * 20e3       # rad/s
    # 10 Rabi periods: long enough for every two-qubit target, short enough
    # that fidelity stays smooth across the robustness-scaling ensemble
    total_time: float = 10 * TWO_PI / (TWO_PI * 20e3)
    max_iters: int = 4000
    target_fidelity: float = 0.999
    robustness_scalings: tuple = (0.95, 1.0, 1.05)
    rng_seed: int = 1
    n_restarts: int = 5
    optimize_detunings: bool = False

    def __post_init__(self):
        numbers = [(name, getattr(self, name)) for name in
                   ("omega_max", "total_time", "target_fidelity")]
        numbers += [("robustness_scalings", x)
                    for x in self.robustness_scalings]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.n_segments < 2:
            raise ValueError("need at least 2 segments")
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")
        if not self.omega_max > 0:
            raise ValueError("omega_max must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        if len(self.robustness_scalings) == 0:
            raise ValueError("robustness_scalings must not be empty")
        if not all(x > 0 for x in self.robustness_scalings):
            raise ValueError("robustness_scalings must be positive")
        if not (0 < self.target_fidelity <= 1):
            raise ValueError("target_fidelity must be in (0, 1]")


@dataclass(frozen=True)
class Attempt:
    """One seeded optimization inside ``synthesize``.

    ``midpoint_fidelity`` is the fidelity the generalization check read;
    None when the check needed none: the attempt missed the target, or
    there is one robustness scaling.
    """
    rng_seed: int
    iterations: int
    fidelity: float
    line_search_rejections: int
    history_resets: int
    midpoint_fidelity: float | None


@dataclass
class SynthesisResult:
    sequence: PulseSequence
    fidelity: float
    iterations: int          # over all attempts
    converged: bool
    attempts: tuple          # one Attempt per restart run


# --- parameter vector layout -------------------------------------------------
# Amplitude block: (n_segments, 6) = [Re c31, Im c31, Re c32, Im c32,
# Re c34, Im c34], i.e. (n_segments, 3) complex; optional detuning block
# (n_segments, 3) = [d1, d2, d4].  Trial points are unchecked ``_Segments``.
_Segments = namedtuple("_Segments", "durations amps dets")


def _pulse(x: np.ndarray, cfg: GrapeConfig, kind=PulseSequence):
    """The parameter vector as a pulse of type ``kind``; its amps (and
    dets, when optimized) are views of ``x``, not copies."""
    n = cfg.n_segments
    dets = (x[6 * n:].reshape(n, 3) if cfg.optimize_detunings
            else np.zeros((n, 3)))
    return kind(np.full(n, cfg.total_time / n),
                x[:6 * n].view(complex).reshape(n, 3), dets)


def _clip_amplitudes(x: np.ndarray, cfg: GrapeConfig) -> np.ndarray:
    out = x.copy()
    c = out[:6 * cfg.n_segments].view(complex)
    mag = np.abs(c)
    over = mag > cfg.omega_max
    c[over] *= cfg.omega_max / mag[over]
    return out


# Levels that couple to |3> and carry the detunings d1, d2, d4.
_L = [L1, L2, L4]
# below this r t the closed form's coefficients come from their series
_SERIES_RT = 1e-4


def _closed_form_basis() -> np.ndarray:
    """[D, K_1..K_6, Q_11, Q_12, ..., Q_66] with RB(exp(-iHt)) = I + a D +
    c s K(x) + b s^2 Q(x) at scaling s for couplings x = [Re c31, ...,
    Im c34], z = conj(c) = sum x_i z_i: D = RB(|3><3|), K_i = RB(-i(|3><z_i|
    + |z_i><3|)), Q_ij = Q_ji the Hermitian part of RB(|z_i><z_j|)."""
    z = np.zeros((6, 4), dtype=complex)
    z[0::2, _L], z[1::2, _L] = np.eye(3), -1j * np.eye(3)
    e3 = np.eye(4)[L3]
    k = [-1j * (np.outer(e3, zi.conj()) + np.outer(zi, e3)) for zi in z]
    zz = [np.outer(zi, zj.conj()) for zi in z for zj in z]
    return real_block(np.array([np.outer(e3, e3)] + k
                               + [(m + m.conj().T) / 2 for m in zz]))


# blocks are features @ _BASIS; Tr(G M_r) = G_flat @ _BASIS_T
_BASIS = _closed_form_basis().reshape(43, 64)
_BASIS_T = _BASIS.reshape(43, 8, 8).swapaxes(1, 2).reshape(43, 64).T.copy()


def _rank2_coefficients(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """[a, c, b] of exp(-iHt) = I + a|3><3| + b|w><w| - i c (|3><w| +
    |w><3|), H = |3><w| + |w><3|, q = <w|w>, then their q derivatives.  With
    r = sqrt(q), h = r t / 2: a = -2 sin^2 h, c = sin(rt) / r, b = a / q,
    all entire in q; below r t = _SERIES_RT their Taylor series in
    y = (r t)^2 is summed, whose next terms are below 1e-16 relative."""
    y = q * t**2
    series = y < _SERIES_RT**2
    any_series = series.any()
    if any_series:
        q = np.where(series, 1.0, q)  # finite below; replaced by the series
    h = np.sqrt(q) * (0.5 * t)
    sh, ch = np.sin(h), np.cos(h)
    a, c, b, da, dc, db = out = np.empty((6,) + q.shape)
    np.multiply(-2.0 * sh, sh, out=a)
    np.divide(sh * ch * t, h, out=c)
    np.divide(a, q, out=b)
    np.multiply(-0.5 * t, c, out=da)
    np.divide(t * (1.0 + a) - c, 2.0 * q, out=dc)
    np.divide(da - b, q, out=db)
    if any_series:
        ys, ts = y[series], np.broadcast_to(t, q.shape)[series]
        cs = ts * (1.0 - ys / 6.0)
        out[:, series] = [ys * (-0.5 + ys / 24.0), cs,
                          ts**2 * (-0.5 + ys / 24.0), -0.5 * ts * cs,
                          ts**3 * (-1.0 / 6.0 + ys / 60.0),
                          ts**4 * (1.0 / 24.0 - ys / 360.0)]
    return out


@lru_cache(maxsize=16)
def _target_blocks(target: bytes) -> np.ndarray:
    """[RB(T), RB(iT)] as (2, 64) for the number-basis target T (its
    bytes): Tr(T^dag U) = (<RB(T), RB(U)> + i <RB(iT), RB(U)>) / 2."""
    t = np.frombuffer(target, dtype=complex).reshape(4, 4)
    tb = real_block(np.stack([t, 1j * t])).reshape(2, 64)
    tb.flags.writeable = False  # shared by every caller
    return tb


class _Point:
    """A pulse over all amplitude scalings in one batch, laid out (segment,
    scaling, ...): ``fidelity`` is their mean, ``gradient`` reuses the
    prefixes.  The closed form takes zero detunings whose partials are not
    wanted, ``eigh`` any other pulse."""

    def __init__(self, seq, target_n: np.ndarray, scalings,
                 detunings: bool = False):
        self.dts = dts = seq.durations
        self.scalings = scalings
        n, n_s = len(dts), len(scalings)
        if detunings or seq.dets.any():
            self.x = None
            ws, vs = self.ws, self.vs = np.linalg.eigh(
                control_hamiltonian(seq, scale=scalings))
            self.ew = np.exp(-1j * ws * dts[:, None])
            us = (vs * self.ew[..., None, :]) @ vs.conj().swapaxes(-1, -2)
            blocks = real_block(us).swapaxes(0, 1)
        else:
            # block (k, s) = I + [a, c s, b s^2] @ [D, K(x_k), Q(x_k)]
            self.x = x = np.reshape(
                np.ascontiguousarray(seq.amps).view(float), (n, 6))
            self.xx = xx = (x[:, :, None] * x[:, None, :]).reshape(n, 36)
            q = np.multiply.outer(xx[:, ::7].sum(axis=1), np.square(scalings))
            # [a, c s, b s^2] and their partials in |x|^2 = q / s^2
            coef = _rank2_coefficients(q, dts[:, None]).transpose(1, 2, 0)
            self.coef = coef * np.power.outer(scalings, (0, 1, 2, 2, 3, 4))
            mats = np.empty((n, 3, 64))
            mats[:, 0] = _BASIS[0]
            np.matmul(x, _BASIS[1:7], out=mats[:, 1])
            np.matmul(xx, _BASIS[7:], out=mats[:, 2])
            blocks = self.coef[..., :3] @ mats
            blocks[..., ::9] += 1.0
            blocks = blocks.reshape(n, n_s, 8, 8)
        # fr[k] = RB(U_k ... U_1): the segments in pairs, the even prefixes
        # in a loop over the pairs, then the odd ones.  Another order moves
        # the pulses in their last bits.
        m = n // 2
        pairs = blocks[1:2 * m:2] @ blocks[:2 * m:2]
        self.fr = fr = np.empty((n + 1, n_s, 8, 8))
        fr[0] = np.eye(8)
        for j in range(m):
            np.matmul(pairs[j], fr[2 * j], out=fr[2 * j + 2])
        np.matmul(blocks[::2], fr[:n:2], out=fr[1::2])
        self.tb = _target_blocks(np.asarray(target_n, complex).tobytes())
        self.tr = 0.5 * (fr[-1].reshape(n_s, 1, 64) @ self.tb.T)[:, 0]
        self.fidelity = float(sum((self.tr**2).sum(axis=1) / 16.0)) / n_s

    def gradient(self):
        """Gradient of the mean fidelity, laid out like the parameter
        vector: the Re and Im partials of c31, c32, c34 per segment, then
        (eigh kernel only) the d1, d2, d4 partials per segment."""
        fr, n, n_s = self.fr, len(self.dts), len(self.scalings)
        # P_k = F_k T^dag U F_{k+1}^dag for the prefixes F_k, and
        # G_k = RB(conj(tr) P_k) = RB(F_k) RB(tr T)^T RB(U) RB(F_{k+1})^T
        ctu = (self.tr @ self.tb).reshape(n_s, 8, 8).swapaxes(-1, -2) @ fr[-1]
        g = (fr[:-1] @ ctu) @ np.ascontiguousarray(fr[1:].swapaxes(-1, -2))
        if self.x is None:
            g_amps, g_dets = self._eigh_gradient(
                (g[..., :4, :4] + 1j * g[..., 4:, :4]).swapaxes(0, 1))
            norm = (2.0 / 16.0) / n_s
            return np.concatenate([(norm * g_amps).view(float).ravel(),
                                   (norm * g_dets).ravel()])
        # |tr|^2 = const + sum_r phi_r Tr(G_k M_r) to first order, with the
        # features phi = [a, c s x, b s^2 x_i x_j] and d|x|^2 / dx = 2 x
        x, xx = self.x, self.xx
        f = (g.reshape(-1, 64) @ _BASIS_T).reshape(n, n_s, 43)
        fw = self.coef.swapaxes(1, 2) @ f  # weighted sums over scalings
        dq = (fw[:, 3, 0] + np.sum(fw[:, 4, 1:7] * x, axis=1)
              + np.sum(fw[:, 5, 7:] * xx, axis=1))
        g_x = (2.0 * dq[:, None] * x + fw[:, 1, 1:7]
               + 2.0 * (fw[:, 2, 7:].reshape(n, 6, 6) @ x[:, :, None])[..., 0])
        return ((1.0 / 16.0) / n_s) * g_x.ravel()

    def _eigh_gradient(self, p):
        """Unnormalized gradient from the eigenpairs; p = conj(tr) P."""
        ws, vs, ew = self.ws, self.vs, self.ew
        # dU_k = V (gamma o V^dag dH V) V^dag, gamma the divided differences
        # of exp(-i w dt) over each segment's eigenvalue pairs
        dw = ws[..., :, None] - ws[..., None, :]
        tol = 1e-12 * np.maximum(1.0, np.max(np.abs(ws), axis=-1))
        close = np.abs(dw) < tol[..., None, None]
        gamma = np.where(close,
                         -1j * self.dts[:, None, None] * ew[..., :, None],
                         (ew[..., :, None] - ew[..., None, :])
                         / np.where(close, 1.0, dw))
        a = vs.conj().swapaxes(-1, -2) @ p @ vs
        # d[s, k, i, j] = conj(tr_s) dtr_s / dH_sk[i, j]
        d = (vs.conj() @ (a.swapaxes(-1, -2) * gamma)
             @ vs.swapaxes(-1, -2))
        g_amps = np.zeros((len(self.dts), 3), dtype=complex)
        g_dets = np.zeros((len(self.dts), 3))
        for s, d_s in zip(self.scalings, d):
            # H[3, j] = s c_j and H[j, 3] = s conj(c_j), so the Re c_j and
            # Im c_j partials are s Re(d[3, j] + d[j, 3]) and
            # s Re(i d[3, j] - i d[j, 3]): the real and imaginary parts of
            # s (conj(d[3, j]) + d[j, 3])
            g_amps += s * (d_s[:, L3, _L].conj() + d_s[:, _L, L3])
            g_dets += d_s[:, _L, _L].real
        return g_amps, g_dets


def target_in_number_basis(target: GateTarget, ion: IonParams) -> np.ndarray:
    return change_basis(target.matrix, mapping_operator(mixing_angle(ion)[1]))


def objective(seq: PulseSequence, target: GateTarget,
              ion: IonParams = YB171,
              scalings=(1.0,)) -> float:
    """Mean gate fidelity of the sequence over amplitude scalings."""
    return _Point(seq, target_in_number_basis(target, ion),
                  scalings).fidelity


def gradient(seq: PulseSequence, target: GateTarget,
             ion: IonParams = YB171, scalings=(1.0,),
             optimize_detunings: bool = False) -> np.ndarray:
    """Exact gradient of the objective w.r.t. the control parameters.

    Shape (n_segments, 6) without detunings, (n_segments, 9) with them
    (detuning partials appended per segment).
    """
    n = len(seq.durations)
    g = _Point(seq, target_in_number_basis(target, ion), scalings,
               optimize_detunings).gradient()
    if optimize_detunings:
        return np.hstack([g[:6 * n].reshape(n, 6), g[6 * n:].reshape(n, 3)])
    return g[:6 * n].reshape(n, 6)


class _History:
    """The last ``_MEMORY`` curvature pairs as (s, y, 1 / s^T y), oldest
    first, in y = x / omega_max units."""

    def __init__(self):
        self.pairs = deque(maxlen=_MEMORY)
        self.gamma = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, sy: float):
        self.pairs.append((s, y, 1.0 / sy))
        self.gamma = sy / float(y @ y)

    def two_loop(self, g: np.ndarray) -> np.ndarray:
        """H g for the inverse-Hessian estimate H of the pairs, with
        H_0 = s^T y / y^T y of the newest pair (Nocedal & Wright, Alg. 7.4);
        for the ascent, y is the change in -gradient, so H g ascends."""
        q = g.copy()
        alpha = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            alpha.append(a)
            q -= a * y
        q *= self.gamma
        for (s, y, rho), a in zip(self.pairs, reversed(alpha)):
            q += (a - rho * float(y @ q)) * s
        return q


def _bound_couplings(x: np.ndarray, cfg: GrapeConfig):
    """Indices and unit phases c / |c| of the couplings on the bound
    |c| = omega_max, into the complex view of the amplitude block."""
    c = x[:6 * cfg.n_segments].view(complex)
    mag = np.abs(c)
    on = np.flatnonzero(mag >= cfg.omega_max * (1.0 - 1e-12))
    return on, c[on] / mag[on]


def _drop_outward(v: np.ndarray, bound, cfg: GrapeConfig) -> np.ndarray:
    """``v`` without its outward radial part at the couplings on the bound,
    where clipping would undo it."""
    on, phase = bound
    if on.size == 0:
        return v
    v = v.copy()
    vc = v[:6 * cfg.n_segments].view(complex)
    vc[on] -= np.maximum((vc[on] * phase.conj()).real, 0.0) * phase
    return v


def _line_search(x: np.ndarray, f: float, d: np.ndarray, slope: float,
                 evaluate, cfg: GrapeConfig):
    """Armijo backtracking along ``d`` (y units) from t = 1, halving t at
    most ``_HALVINGS`` times; each trial is clipped to the bound.  Returns
    the accepted (x, point), or None, and the number of rejected trials."""
    t = 1.0
    for rejected in range(_HALVINGS + 1):
        trial = _clip_amplitudes(x + (t * cfg.omega_max) * d, cfg)
        point = evaluate(trial)
        if point.fidelity >= f + _ARMIJO * t * slope:
            return (trial, point), rejected
        t *= 0.5
    return None, _HALVINGS + 1


def _lbfgs(x0: np.ndarray, target_n: np.ndarray, cfg: GrapeConfig):
    """Projected L-BFGS ascent of the fidelity from ``x0``.

    Works on y = x / omega_max.  The first step, and the first after each
    history reset, goes along the projected gradient with norm
    ``_FIRST_STEP``; the history resets when its direction does not ascend
    or its line search fails.  Every point is evaluated once; the gradient
    is taken only at accepted points, from their evaluation.  Returns
    (x, fidelity, iterations, line-search rejections, history resets).
    """
    def evaluate(x):
        # trial points skip PulseSequence's checks but one
        if not np.isfinite(x).all():
            raise ValueError("non-finite segment value")
        return _Point(_pulse(x, cfg, _Segments), target_n,
                      cfg.robustness_scalings, cfg.optimize_detunings)

    om = cfg.omega_max
    x = _clip_amplitudes(x0, cfg)
    point = evaluate(x)
    g = om * point.gradient()
    history = _History()
    iters = rejections = resets = 0
    while point.fidelity < cfg.target_fidelity and iters < cfg.max_iters:
        iters += 1
        bound = _bound_couplings(x, cfg)
        gp = _drop_outward(g, bound, cfg)
        accepted = None
        if history.pairs:
            d = _drop_outward(history.two_loop(gp), bound, cfg)
            slope = float(gp @ d)
            if slope > 0:
                accepted, rejected = _line_search(x, point.fidelity, d,
                                                  slope, evaluate, cfg)
                rejections += rejected
            if accepted is None:
                history.pairs.clear()
                resets += 1
        if accepted is None:
            norm = float(np.linalg.norm(gp))
            if norm == 0.0:
                break
            d = (_FIRST_STEP / norm) * gp
            accepted, rejected = _line_search(x, point.fidelity, d,
                                              _FIRST_STEP * norm, evaluate,
                                              cfg)
            rejections += rejected
            if accepted is None:
                break
        x_new, point = accepted
        g_new = om * point.gradient()
        s = (x_new - x) / om
        y = g - g_new
        sy = float(s @ y)
        if sy > 0:
            history.push(s, y, sy)
        x, g = x_new, g_new
    return x, point.fidelity, iters, rejections, resets


def _midpoint_fidelity(x: np.ndarray, target_n: np.ndarray,
                       cfg: GrapeConfig) -> float | None:
    """Mean fidelity at the midpoints between consecutive robustness
    scalings; None with a single scaling."""
    sc = sorted(cfg.robustness_scalings)
    if len(sc) < 2:
        return None
    mids = [(a + b) / 2 for a, b in zip(sc, sc[1:])]
    return _Point(_pulse(x, cfg), target_n, mids).fidelity


def _generalizes(f_mid: float | None, cfg: GrapeConfig) -> bool:
    """Reject solutions that peak only at the sampled scalings.

    The ensemble objective can be maximized by pulses whose fidelity
    oscillates in the amplitude scaling and happens to peak at the sample
    points; the fidelity ``f_mid`` at the midpoints between consecutive
    scalings filters those out.
    """
    return f_mid is None or f_mid >= 1.0 - 5.0 * (1.0 - cfg.target_fidelity)


def synthesize(target: GateTarget, cfg: GrapeConfig,
               ion: IonParams = YB171) -> SynthesisResult:
    """Synthesize a pulse sequence implementing a gate target.

    Runs seeded L-BFGS attempts (restart seeds derived from rng_seed)
    until one reaches target_fidelity and generalizes across the scaling
    ensemble; otherwise the best attempt is returned with
    ``converged = False``.  Deterministic for a fixed rng_seed.
    """
    n = cfg.n_segments
    n_par = 6 * n + (3 * n if cfg.optimize_detunings else 0)
    target_n = target_in_number_basis(target, ion)

    best = None
    converged = False
    attempts = []
    for seed in range(cfg.rng_seed, cfg.rng_seed + cfg.n_restarts):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(scale=0.05 * cfg.omega_max, size=n_par)
        if cfg.optimize_detunings:
            x0[6 * n:] = 0.0
        x, f, iters, rejections, resets = _lbfgs(x0, target_n, cfg)
        reached = f >= cfg.target_fidelity
        f_mid = _midpoint_fidelity(x, target_n, cfg) if reached else None
        attempts.append(Attempt(seed, iters, f, rejections, resets, f_mid))
        if best is None or f > best[1]:
            best = (x, f)
        if reached and _generalizes(f_mid, cfg):
            best, converged = (x, f), True
            break
    x, f = best
    return SynthesisResult(sequence=_pulse(x, cfg), fidelity=f,
                           iterations=sum(a.iterations for a in attempts),
                           converged=converged, attempts=tuple(attempts))
