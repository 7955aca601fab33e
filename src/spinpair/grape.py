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
[Re, Im] pair, so ``_pulse`` views it as a ``control.PulseSequence``
without copying.  ``_Point`` evaluates one such sequence over all S
robustness scalings at once: one (S, n, 4, 4) stack of segment
propagators and one (S, n + 1, 4, 4) array of prefixes.  The prefixes are
built in the real block form of ``control.propagate`` ([Re P; Im P] rows
times [[Re U, -Im U], [Im U, Re U]]): the segments are first multiplied in
pairs in one batched product, a loop over the n / 2 pairs fills the even
prefixes, and one more batched product the odd ones.  The gradient is
computed on demand, only for points the line search accepts, from that
evaluation's propagators and prefixes; line-search trials cost one
evaluation each.  With P_k the product for which Tr(target^dag U) =
Tr(P_k U_k), it is one batched complex contraction, returned as one vector
laid out like the parameter vector.

Two kernels give the segment propagators and their derivatives:

* Closed form, for a sequence whose detunings are all zero when no
  detuning partial is wanted (``optimize_detunings`` off, the default).
  Each segment Hamiltonian is then H = |3><w| + |w><3|, with
  w = s conj(c31, c32, c34) on levels 1, 2, 4.  H has rank 2 and
  eigenvalues +-|w|, 0, 0 (the Morris-Shore reduction: Morris & Shore,
  Phys. Rev. A 27, 906 (1983)), so with r = |w| and w^ = w / r,
  exp(-iHt) = I + (cos rt - 1)(|3><3| + |w^><w^|)
  - i sin rt (|3><w^| + |w^><3|), and tr = Tr(P_k U_k) depends on w
  only through P_33, <w|P_k|w> and <w|P_k|3> + <3|P_k|w>.  The Wirtinger
  derivatives of these give the coupling partials.  Below r t = 1e-4
  the coefficients come from their Taylor series, so a zero-amplitude
  segment needs no special case.
* Eigendecomposition, for any other point: one batched ``eigh`` of all
  S x n segment Hamiltonians, differentiated through the Loewner
  (divided-difference) formula.  With the Loewner matrix Gamma_k of
  segment k and A_k = V_k^dag P_k V_k, the array
  D_k = conj(tr) conj(V_k) (A_k^T o Gamma_k) V_k^T holds
  conj(tr) dTr/dH_k[i, j] for every matrix element, and every coupling and
  detuning partial is read off D by indexing.

The branch is chosen from the data and the partials asked for; it has no
option.  ``control.propagate`` takes its own exponentials (real gauge, no
eigendecomposition) for every sequence.

Gate targets are defined in the spin basis; propagation lives in the
number basis, so targets are conjugated with the mapping operator before
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import L1, L2, L3, L4, PulseSequence, control_hamiltonian
from .ion import IonParams, YB171, mapping_operator, mixing_angle
from .linalg import kron, real_block

TWO_PI = 2.0 * np.pi

# Part of the pulse-cache key: raise it whenever a change to this module can
# change the pulse ``synthesize`` returns for a given configuration.
SYNTHESIS_VERSION = 4

# The optimizer: curvature pairs kept, the norm (y units) of a step along
# the gradient, the Armijo constant and the line search's halvings.
_MEMORY = 10
_FIRST_STEP = 0.05
_ARMIJO = 1e-4
_HALVINGS = 30

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_I2 = np.eye(2, dtype=complex)
_PHASE = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

# Computational ordering: |uu>, |ud>, |du>, |dd>; qubit-1 (nuclear) is the
# slow index and |down> is the control-active level.
_GATES = {
    "hadamard1": kron(_H, _I2),
    "hadamard2": kron(_I2, _H),
    "phase1": kron(_PHASE, _I2),
    "phase2": kron(_I2, _PHASE),
    "t1": kron(_T, _I2),
    "t2": kron(_I2, _T),
    "cnot12": np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), _X]]),
    "cnot21": np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                        [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "cphase": np.diag([1, -1, 1, 1]).astype(complex),
    "c00": np.diag([1, -1, -1, -1]).astype(complex),
    "identity": np.eye(4, dtype=complex),
}

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
# (n_segments, 3) = [d1, d2, d4].

def _pulse(x: np.ndarray, cfg: GrapeConfig) -> PulseSequence:
    """The parameter vector as a pulse; its amps (and dets, when optimized)
    are views of ``x``, not copies."""
    n = cfg.n_segments
    dets = (x[6 * n:].reshape(n, 3) if cfg.optimize_detunings
            else np.zeros((n, 3)))
    return PulseSequence(durations=np.full(n, cfg.total_time / n),
                         amps=x[:6 * n].view(complex).reshape(n, 3),
                         dets=dets)


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
# the identity as [Re; Im] rows
_ID_ROWS = np.vstack([np.eye(4), np.zeros((4, 4))])


def _rank2_coefficients(q: np.ndarray, t: np.ndarray):
    """Coefficients of exp(-iHt) = I + a|3><3| + b|w><w| - i c (|3><w| +
    |w><3|) for H = |3><w| + |w><3| with q = <w|w>, and the derivatives
    of a, b, c in q, as ``(a, b, c, da, db, dc)``.

    With r = sqrt(q): a = cos rt - 1, b = a / q and c = sin(rt) / r.  All
    six are entire in q; below r t = _SERIES_RT they are summed from
    their Taylor series in y = (r t)^2, whose next terms are below 1e-16
    relative there.
    """
    t = np.broadcast_to(t, q.shape)
    y = q * t**2
    series = y < _SERIES_RT**2
    any_series = np.any(series)
    if any_series:
        q = np.where(series, 1.0, q)  # finite below; replaced by the series
    r = np.sqrt(q)
    a = -2.0 * np.sin(0.5 * r * t) ** 2
    b = a / q
    c = np.sin(r * t) / r
    db = (-0.5 * t * c - b) / q
    dc = (t * np.cos(r * t) - c) / (2.0 * q)
    if any_series:
        ys, ts = y[series], t[series]
        a[series] = ys * (-0.5 + ys / 24.0)
        b[series] = ts**2 * (-0.5 + ys / 24.0)
        c[series] = ts * (1.0 - ys / 6.0)
        db[series] = ts**4 * (1.0 / 24.0 - ys / 360.0)
        dc[series] = ts**3 * (-1.0 / 6.0 + ys / 60.0)
    return a, b, c, -0.5 * t * c, db, dc


class _Point:
    """One control point evaluated over all amplitude scalings in one batch.

    ``fidelity`` is the mean over the scalings; ``gradient`` reuses this
    evaluation's segment propagators and forward prefixes.  A sequence
    with no non-zero detuning, whose detuning partials are not wanted
    (``detunings`` false), is evaluated in closed form; any other through
    the segments' eigendecompositions.
    """

    def __init__(self, seq: PulseSequence, target_n: np.ndarray, scalings,
                 detunings: bool = False):
        self.dts = seq.durations
        self.scalings = scalings
        if detunings or np.any(seq.dets):
            self.w = None
            self.ws, self.vs = np.linalg.eigh(
                control_hamiltonian(seq, scale=scalings))
            self.ew = np.exp(-1j * self.ws * self.dts[:, None])
            us = ((self.vs * self.ew[..., None, :])
                  @ self.vs.conj().swapaxes(-1, -2))
        else:
            # H_k = |3><w_k| + |w_k><3|, w_k = s conj(c_k) on levels 1, 2, 4
            self.w = np.zeros((len(scalings), len(self.dts), 4),
                              dtype=complex)
            self.w[..., _L] = np.multiply.outer(scalings, seq.amps.conj())
            self.coef = _rank2_coefficients(
                np.sum(np.abs(self.w) ** 2, axis=-1), self.dts)
            a, b, c = (x[..., None] for x in self.coef[:3])
            w = self.w
            us = b[..., None] * w[..., :, None] * w.conj()[..., None, :]
            us += np.eye(4)
            us[..., L3, :] = -1j * c * w.conj()
            us[..., :, L3] = -1j * c * w
            us[..., L3, L3] = 1.0 + a[..., 0]
        # fw[:, k] = U_k ... U_1 for every scaling (fw[:, 0] = I), built as
        # [Re; Im] rows times real blocks, as in control.propagate.  The
        # segments are multiplied in pairs first, so the sequential loop
        # fills only the even prefixes; one batched product fills the odd
        # ones.  Another order moves the pulses in their last bits.
        n = len(self.dts)
        m = n // 2
        blocks = real_block(us)
        pairs = blocks[:, 1:2 * m:2] @ blocks[:, :2 * m:2]
        fr = np.empty((len(scalings), n + 1, 8, 4))
        fr[:, 0] = _ID_ROWS
        for j in range(m):
            np.matmul(pairs[:, j], fr[:, 2 * j], out=fr[:, 2 * j + 2])
        np.matmul(blocks[:, ::2], fr[:, :n:2], out=fr[:, 1::2])
        self.fw = fw = np.empty((len(scalings), n + 1, 4, 4), dtype=complex)
        fw.real = fr[..., :4, :]
        fw.imag = fr[..., 4:, :]
        self.target_h = target_n.conj().T
        self.tr = np.trace(self.target_h @ fw[:, -1], axis1=-2, axis2=-1)
        total_f = 0.0
        for tr in self.tr:
            total_f += float(np.abs(tr) ** 2) / 16.0
        self.fidelity = total_f / len(scalings)

    def gradient(self):
        """Gradient of the mean fidelity, laid out like the parameter
        vector: the Re and Im partials of c31, c32, c34 per segment, then
        (eigh kernel only) the d1, d2, d4 partials per segment."""
        fw = self.fw
        # tr = Tr(P_k U_k) with P_k = fw[k] T^dag U_N ... U_{k+1}, and
        # U_N ... U_{k+1} = U fw[k+1]^dag
        p = (fw[:, :-1] @ (self.target_h @ fw[:, -1:])
             @ fw[:, 1:].conj().swapaxes(-1, -2))
        norm = (2.0 / 16.0) / len(self.scalings)
        if self.w is None:
            g_amps, g_dets = self._eigh_gradient(p)
            return np.concatenate([(norm * g_amps).view(float).ravel(),
                                   (norm * g_dets).ravel()])
        # tr = Tr(P) + a P_33 + b <w|P|w> - i c (<w|P|3> + <3|P|w>) with
        # a, b, c functions of q = <w|w>; Wirtinger partials in w and
        # conj(w) of tr, taking both as independent
        _, b, c, da, db, dc = (x[..., None] for x in self.coef)
        w = self.w
        pw = (p @ w[..., None])[..., 0]                  # P|w>
        wp = (w.conj()[..., None, :] @ p)[..., 0, :]     # <w|P
        wpw = np.sum(w.conj() * pw, axis=-1, keepdims=True)
        e = (da * p[..., L3, L3, None] + db * wpw
             - 1j * dc * (wp[..., L3, None] + pw[..., L3, None]))
        d_wbar = w * e + b * pw - 1j * c * p[..., :, L3]
        d_w = w.conj() * e + b * wp - 1j * c * p[..., L3, :]
        # c_j = conj(w_j) / s, so the Re c_j and Im c_j partials of |tr|^2
        # are the real and imaginary parts of
        # s (conj(tr) dtr/dw_j + tr conj(dtr/dconj(w_j)))
        trc = self.tr.conj()[:, None, None]
        s = np.asarray(self.scalings, dtype=float)[:, None, None]
        g = s * (trc * d_w + (trc * d_wbar).conj())
        return (norm * np.sum(g, axis=0)[:, _L]).ravel().view(float)

    def _eigh_gradient(self, p):
        """The gradient from each segment's eigenpairs, unnormalized."""
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
        d = (self.tr.conj()[:, None, None, None]
             * (vs.conj() @ (a.swapaxes(-1, -2) * gamma)
                @ vs.swapaxes(-1, -2)))
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
    _, theta0 = mixing_angle(ion)
    r = mapping_operator(theta0)
    return r.conj().T @ target.matrix @ r


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
    """The last ``_MEMORY`` curvature pairs (s, y), in y = x / omega_max
    units, in preallocated rows; ``order`` lists the rows oldest first."""

    def __init__(self, n_par: int):
        self.s = list(np.empty((_MEMORY, n_par)))
        self.y = list(np.empty((_MEMORY, n_par)))
        self.rho = [0.0] * _MEMORY
        self.order = []
        self.gamma = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, sy: float):
        row = (self.order.pop(0) if len(self.order) == _MEMORY
               else len(self.order))
        self.s[row][:], self.y[row][:] = s, y
        self.rho[row] = 1.0 / sy
        self.gamma = sy / float(y @ y)
        self.order.append(row)

    def two_loop(self, g: np.ndarray) -> np.ndarray:
        """H g for the inverse-Hessian estimate H of the pairs, with
        H_0 = s^T y / y^T y of the newest pair (Nocedal & Wright, Alg. 7.4);
        for the ascent, y is the change in -gradient, so H g ascends."""
        s, y, rho = self.s, self.y, self.rho
        q = g.copy()
        alpha = []
        for i in reversed(self.order):
            a = rho[i] * float(s[i] @ q)
            alpha.append(a)
            q -= a * y[i]
        q *= self.gamma
        for i, a in zip(self.order, reversed(alpha)):
            q += (a - rho[i] * float(y[i] @ q)) * s[i]
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
        return _Point(_pulse(x, cfg), target_n, cfg.robustness_scalings,
                      cfg.optimize_detunings)

    om = cfg.omega_max
    x = _clip_amplitudes(x0, cfg)
    point = evaluate(x)
    g = om * point.gradient()
    history = _History(x.size)
    iters = rejections = resets = 0
    while point.fidelity < cfg.target_fidelity and iters < cfg.max_iters:
        iters += 1
        bound = _bound_couplings(x, cfg)
        gp = _drop_outward(g, bound, cfg)
        accepted = None
        if history.order:
            d = _drop_outward(history.two_loop(gp), bound, cfg)
            slope = float(gp @ d)
            if slope > 0:
                accepted, rejected = _line_search(x, point.fidelity, d,
                                                  slope, evaluate, cfg)
                rejections += rejected
            if accepted is None:
                history.order.clear()
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
