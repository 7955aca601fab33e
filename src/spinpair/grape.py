"""Gradient-ascent pulse synthesis for the two-qubit gate set.

The optimizer works on piecewise-constant rotating-frame controls.  The
objective is the gate fidelity |Tr(U_target^dag U)|^2 / d^2 averaged over a
set of amplitude scalings (ensemble robustness against pulse amplitude
errors).  Gradients are exact: each segment exponential is differentiated
through its eigendecomposition (Loewner / divided-difference formula), so
the analytic gradient matches finite differences to solver precision.

The optimizer's flat parameter vector stores each coupling as an
[Re, Im] pair, so ``_pulse`` views it as a ``control.PulseSequence``
without copying; the fidelity kernel takes only that sequence and runs
one batched eigendecomposition of all segment Hamiltonians per scaling.

Gate targets are defined in the spin basis; propagation lives in the
number basis, so targets are conjugated with the mapping operator before
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import PulseSequence, control_hamiltonian
from .ion import IonParams, YB171, mapping_operator, mixing_angle
from .linalg import kron

TWO_PI = 2.0 * np.pi

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
    step_size: float = 1.0
    max_iters: int = 4000
    target_fidelity: float = 0.999
    robustness_scalings: tuple = (0.95, 1.0, 1.05)
    rng_seed: int = 1
    n_restarts: int = 5
    optimize_detunings: bool = False

    def __post_init__(self):
        if self.n_segments < 2:
            raise ValueError("need at least 2 segments")
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")
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


# Derivative generators dH/dx for the six amplitude parameters and the
# three detunings (number-basis 4x4, level 3 has index 2).
def _derivative_ops():
    ops = []
    for (i, j) in ((2, 0), (2, 1), (2, 3)):
        re = np.zeros((4, 4), dtype=complex)
        re[i, j] = 1.0
        re += re.conj().T
        im = np.zeros((4, 4), dtype=complex)
        im[i, j] = 1j
        im += im.conj().T
        ops.extend([re, im])
    for k in (0, 1, 3):
        d = np.zeros((4, 4), dtype=complex)
        d[k, k] = 1.0
        ops.append(d)
    return ops


_DERIV_OPS = _derivative_ops()


def _loewner(w: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of exp(-i w dt) over eigenvalue pairs."""
    ew = np.exp(-1j * w * dt)
    dw = w[:, None] - w[None, :]
    close = np.abs(dw) < 1e-12 * max(1.0, np.max(np.abs(w)))
    gamma = np.where(close, -1j * dt * ew[:, None],
                     (ew[:, None] - ew[None, :]) / np.where(close, 1.0, dw))
    return gamma


def _fidelity_and_grad(seq: PulseSequence, target_n: np.ndarray, scalings,
                       want_grad: bool, with_detunings: bool):
    """Mean fidelity over amplitude scalings and, if ``want_grad``, its
    gradient: amplitude partials (6 per segment) first, then, if
    ``with_detunings``, detuning partials (3 per segment)."""
    n = len(seq.durations)
    dts = seq.durations
    n_par = 9 if with_detunings else 6
    total_f = 0.0
    grad = np.zeros(n_par * n) if want_grad else None

    for s in scalings:
        ws, vs = np.linalg.eigh(control_hamiltonian(seq, scale=s))
        us = ((vs * np.exp(-1j * ws * dts[:, None])[:, None, :])
              @ vs.conj().transpose(0, 2, 1))
        # forward[k] = U_k ... U_1 (forward[0] = I)
        forward = [np.eye(4, dtype=complex)]
        for u in us:
            forward.append(u @ forward[-1])
        tr = np.trace(target_n.conj().T @ forward[-1])
        total_f += float(np.abs(tr) ** 2) / 16.0
        if not want_grad:
            continue
        # backward[k] = U_N ... U_{k+1}, so U = backward[k] U_k forward[k-1]
        backward = [None] * (n + 1)
        backward[n] = np.eye(4, dtype=complex)
        for k in range(n - 1, -1, -1):
            backward[k] = backward[k + 1] @ us[k]
        for k in range(n):
            gamma = _loewner(ws[k], dts[k])
            vk = vs[k]
            pre = target_n.conj().T @ backward[k + 1]
            post = forward[k]
            for p_idx in range(n_par):
                dh = _DERIV_OPS[p_idx]
                # amplitude params enter scaled by s; detunings do not
                factor = s if p_idx < 6 else 1.0
                m = vk.conj().T @ dh @ vk
                du = vk @ (gamma * m) @ vk.conj().T
                dtr = np.trace(pre @ du @ post)
                g = (2.0 / 16.0) * np.real(np.conj(tr) * dtr) * factor
                if p_idx < 6:
                    grad[k * 6 + p_idx] += g
                else:
                    grad[6 * n + k * 3 + (p_idx - 6)] += g
    m_sc = len(scalings)
    if want_grad:
        return total_f / m_sc, grad / m_sc
    return total_f / m_sc, None


def target_in_number_basis(target: GateTarget, ion: IonParams) -> np.ndarray:
    _, theta0 = mixing_angle(ion)
    r = mapping_operator(theta0)
    return r.conj().T @ target.matrix @ r


def objective(seq: PulseSequence, target: GateTarget,
              ion: IonParams = YB171,
              scalings=(1.0,)) -> float:
    """Mean gate fidelity of the sequence over amplitude scalings."""
    f, _ = _fidelity_and_grad(seq, target_in_number_basis(target, ion),
                              scalings, want_grad=False, with_detunings=False)
    return f


def gradient(seq: PulseSequence, target: GateTarget,
             ion: IonParams = YB171, scalings=(1.0,),
             optimize_detunings: bool = False) -> np.ndarray:
    """Exact gradient of the objective w.r.t. the control parameters.

    Shape (n_segments, 6) without detunings, (n_segments, 9) with them
    (detuning partials appended per segment).
    """
    _, g = _fidelity_and_grad(seq, target_in_number_basis(target, ion),
                              scalings, want_grad=True,
                              with_detunings=optimize_detunings)
    n = len(seq.durations)
    if optimize_detunings:
        return np.concatenate([g[:6 * n].reshape(n, 6),
                               g[6 * n:].reshape(n, 3)], axis=1)
    return g.reshape(n, 6)


def _ascend(x0: np.ndarray, target_n: np.ndarray, cfg: GrapeConfig):
    """Monotone gradient ascent with backtracking line search."""
    def evaluate(x, want_grad):
        return _fidelity_and_grad(_pulse(x, cfg), target_n,
                                  cfg.robustness_scalings, want_grad,
                                  cfg.optimize_detunings)

    x = _clip_amplitudes(x0, cfg)
    f, g = evaluate(x, want_grad=True)
    # fidelity is dimensionless, parameters are rad/s: scale the step so a
    # unit step_size moves amplitudes by O(omega_max) per unit gradient
    step = cfg.step_size * cfg.omega_max**2
    iters = 0
    while f < cfg.target_fidelity and iters < cfg.max_iters:
        iters += 1
        if np.linalg.norm(g) < 1e-12:
            break
        accepted = False
        for _ in range(40):
            trial = _clip_amplitudes(x + step * g, cfg)
            ft, _ = evaluate(trial, want_grad=False)
            if ft > f:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x = trial
        f, g = evaluate(x, want_grad=True)
        step *= 1.6
    return x, f, iters


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
    f_mid, _ = _fidelity_and_grad(_pulse(x, cfg), target_n, mids,
                                  want_grad=False, with_detunings=False)
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
    for attempt in range(max(1, cfg.n_restarts)):
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
