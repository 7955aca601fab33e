"""Gradient-ascent pulse synthesis for the two-qubit gate set.

The optimizer works on piecewise-constant rotating-frame controls.  The
objective is the gate fidelity |Tr(U_target^dag U)|^2 / d^2 averaged over a
set of amplitude scalings (ensemble robustness against pulse amplitude
errors).  Gradients are exact, so the analytic gradient matches finite
differences to solver precision.

The optimizer's flat parameter vector stores each coupling as an
[Re, Im] pair, so ``_pulse`` views it as a ``control.PulseSequence``
without copying.  ``_Point`` evaluates one such sequence over all S
robustness scalings at once: one (S, n, 4, 4) stack of segment
propagators and one forward loop over the n segments that fills one
(S, n + 1, 4, 4) array of prefixes.  The gradient is computed on demand,
only for points the ascent accepts, from that evaluation's propagators
and prefixes; line-search trials cost one evaluation each.  With P_k the
product for which Tr(target^dag U) = Tr(P_k U_k), it is one batched
contraction, returned as one vector laid out like the parameter vector.

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
from .linalg import kron

TWO_PI = 2.0 * np.pi

# Part of the pulse-cache key: raise it whenever a change to this module can
# change the pulse ``synthesize`` returns for a given configuration.
SYNTHESIS_VERSION = 3

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


@dataclass
class SynthesisResult:
    sequence: PulseSequence
    fidelity: float
    iterations: int
    converged: bool


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
        # fw[:, k] = U_k ... U_1 for every scaling (fw[:, 0] = I), in
        # time order: another order moves the pulses in their last bits
        self.fw = fw = np.empty((len(scalings), len(self.dts) + 1, 4, 4),
                                dtype=complex)
        fw[:, 0] = np.eye(4)
        for k in range(len(self.dts)):
            np.matmul(us[:, k], fw[:, k], out=fw[:, k + 1])
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


def _ascend(x0: np.ndarray, target_n: np.ndarray, cfg: GrapeConfig):
    """Monotone gradient ascent with backtracking line search.

    Every point is evaluated once; the gradient is taken only at accepted
    points, from their evaluation.
    """
    def evaluate(x):
        return _Point(_pulse(x, cfg), target_n, cfg.robustness_scalings,
                      cfg.optimize_detunings)

    x = _clip_amplitudes(x0, cfg)
    point = evaluate(x)
    g = point.gradient()
    # fidelity is dimensionless, parameters are rad/s: scale the first step
    # so it moves amplitudes by O(omega_max) per unit gradient
    step = cfg.omega_max**2
    iters = 0
    while point.fidelity < cfg.target_fidelity and iters < cfg.max_iters:
        iters += 1
        if np.linalg.norm(g) < 1e-12:
            break
        for _ in range(40):
            trial = _clip_amplitudes(x + step * g, cfg)
            trial_point = evaluate(trial)
            if trial_point.fidelity > point.fidelity:
                break
            step *= 0.5
        else:
            break
        x, point = trial, trial_point
        g = point.gradient()
        step *= 1.6
    return x, point.fidelity, iters


def _generalizes(x: np.ndarray, target_n: np.ndarray,
                 cfg: GrapeConfig) -> bool:
    """Reject solutions that peak only at the sampled scalings.

    The ensemble objective can be maximized by pulses whose fidelity
    oscillates in the amplitude scaling and happens to peak at the sample
    points; checking the midpoints between consecutive scalings filters
    those out.
    """
    sc = sorted(cfg.robustness_scalings)
    if len(sc) < 2:
        return True
    mids = [(a + b) / 2 for a, b in zip(sc, sc[1:])]
    f_mid = _Point(_pulse(x, cfg), target_n, mids).fidelity
    return f_mid >= 1.0 - 5.0 * (1.0 - cfg.target_fidelity)


def synthesize(target: GateTarget, cfg: GrapeConfig,
               ion: IonParams = YB171) -> SynthesisResult:
    """Synthesize a pulse sequence implementing a gate target.

    Runs seeded gradient-ascent attempts (restart seeds derived from
    rng_seed) until one reaches target_fidelity and generalizes across
    the scaling ensemble; otherwise the best attempt is returned with
    ``converged = False``.  Deterministic for a fixed rng_seed.
    """
    n = cfg.n_segments
    n_par = 6 * n + (3 * n if cfg.optimize_detunings else 0)
    target_n = target_in_number_basis(target, ion)

    best = None
    converged = False
    total_iters = 0
    for attempt in range(cfg.n_restarts):
        rng = np.random.default_rng(cfg.rng_seed + attempt)
        x0 = rng.normal(scale=0.05 * cfg.omega_max, size=n_par)
        if cfg.optimize_detunings:
            x0[6 * n:] = 0.0
        x, f, iters = _ascend(x0, target_n, cfg)
        total_iters += iters
        if best is None or f > best[1]:
            best = (x, f)
        if f >= cfg.target_fidelity and _generalizes(x, target_n, cfg):
            best, converged = (x, f), True
            break
    x, f = best
    return SynthesisResult(sequence=_pulse(x, cfg), fidelity=f,
                           iterations=total_iters, converged=converged)
