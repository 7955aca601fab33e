"""Rotating-frame control Hamiltonian, lab-frame integration and the RWA map.

The control Hamiltonian couples |3> to |1>, |2>, |4> with complex
amplitudes c31, c32, c34 and carries real detunings d1, d2, d4.  Writing
the Hamiltonian as (sum of couplings) + (d_k/2)|k><k| + H.c., the
Hermitian conjugate doubles the diagonal terms, so the detuning of level
k enters as d_k |k><k|.  This matches the printed form of the rotating
frame Hamiltonian and is implemented verbatim.

A pulse is one ``PulseSequence``: three arrays with one row per
piecewise-constant segment (durations, complex couplings, detunings).
``control_hamiltonian`` builds all segment Hamiltonians at once; GRAPE
views its parameter vector as the same arrays, and the JSON pulse file
is their serialization.

Propagator order convention: rows in time order, latest segment
leftmost, U = U_N ... U_2 U_1.

``propagate`` and ``segment_unitaries`` batch over the leading axes of
``extra_diag``: quasi-static noise passes all its shots at once, one
``expm_unitary_batch`` per segment.

The lab-frame integration steps H(t) = h0 - sum_t cos(omega_t t + phi_t) g_t
at midpoints.  A step propagator is an entire function of the scalars
c_t = cos(...) in [-1, 1], so it is read off a tensor-product Chebyshev
interpolant in the c_t of each active (non-silent) tone: one
``expm_unitary_batch`` over the grid nodes, then per step a weighted sum of
the node propagators.  The degree is the smallest that the Chebyshev
interpolation bound puts below 2^-60 (see ``_chebyshev_nodes``).  A chunk's
step propagators sit step-last, (4, 4, steps), and both the node sum and
the step-by-step 4x4 products are elementwise over the step axis.  The
step propagators are multiplied pairwise within fixed blocks of
``_LAB_BLOCK`` steps, and the block products one after another in time
order.  Blocks are fixed by step index and each step's arithmetic is the
same in any chunk, so the product does not depend on ``_LAB_CHUNK``.

With exactly one active tone and omega != 0, H(t) has period
T = 2 pi / |omega|, and by Floquet's theorem the propagator over q T is
the one-period propagator to the power q (Shirley, Phys. Rev. 138, B979
(1965)).  The integration then steps one period on its own grid of
ceil(T / dt) midpoint steps, raises it to q = floor(duration / T) with
``np.linalg.matrix_power``, and multiplies on the remainder
[q T, duration), stepped from phase phi on a grid of ceil(r / dt) steps.
With no active tone, a static tone, several tones, or duration < T, the
period is the whole duration: one grid of ceil(duration / dt) steps.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ion import (I1X, I1Y, I1Z, I2X, I2Y, I2Z, IonParams, eigensystem,
                  free_hamiltonian, mapping_operator)
from .linalg import expm_unitary_batch

PULSE_SCHEMA_VERSION = 1

# Number-basis indices of levels |1..4|
L1, L2, L3, L4 = 0, 1, 2, 3

# Lab-frame steps per batch: a rwa-check case has ~5e5 steps, whose (4, 4)
# complex propagators alone take 128 MB; a chunk's take 1 MiB.
_LAB_CHUNK = 4096
# Lab-frame steps per pairwise-multiplied block, a power of two.  A chunk
# is a whole number of blocks, so blocks are fixed by step index and the
# product does not depend on _LAB_CHUNK.
_LAB_BLOCK = 256
assert _LAB_CHUNK % _LAB_BLOCK == 0


class RegimeWarning(UserWarning):
    """Control parameters leave the regime where the RWA map is accurate."""


@dataclass
class PulseSequence:
    """Piecewise-constant rotating-frame pulse, one row per segment.

    ``durations`` (n,) in seconds; ``amps`` (n, 3) complex couplings
    c31, c32, c34 and ``dets`` (n, 3) real detunings d1, d2, d4, both in
    rad/s.  Row k is the k-th segment in time.
    """

    durations: np.ndarray
    amps: np.ndarray
    dets: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float)
        self.amps = np.asarray(self.amps, dtype=complex)
        self.dets = np.asarray(self.dets, dtype=float)
        n = self.durations.size
        if (self.durations.shape != (n,) or self.amps.shape != (n, 3)
                or self.dets.shape != (n, 3)):
            raise ValueError("expected durations (n,), amps and dets (n, 3)")
        # pulse files come from disk: reject non-positive durations here
        if np.any(self.durations <= 0):
            raise ValueError("segment duration must be positive")

    def to_json(self) -> str:
        re_im = np.stack([self.amps.real, self.amps.imag], axis=-1)
        payload = {
            "schema_version": PULSE_SCHEMA_VERSION,
            "segments": [
                {"duration_s": t, "c31": c[0], "c32": c[1], "c34": c[2],
                 "d1": d[0], "d2": d[1], "d4": d[2]}
                for t, c, d in zip(self.durations.tolist(), re_im.tolist(),
                                   self.dets.tolist())
            ],
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != PULSE_SCHEMA_VERSION:
            raise ValueError(f"unknown pulse schema version {version}")
        segs = payload["segments"]
        re_im = np.array([[d["c31"], d["c32"], d["c34"]] for d in segs],
                         dtype=float).reshape(len(segs), 3, 2)
        return cls(durations=[d["duration_s"] for d in segs],
                   amps=re_im.view(complex)[..., 0],
                   dets=[[d["d1"], d["d2"], d["d4"]] for d in segs])


@dataclass
class MicrowaveTone:
    """One near-resonant microwave field with a slowly varying envelope."""

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0
    omega: float = 0.0
    phi: float = 0.0


def control_hamiltonian(seq: PulseSequence,
                        scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Rotating-frame Hamiltonians of all segments, shape (n, 4, 4).

    Number basis, rad/s.  ``scale`` multiplies the coupling amplitudes only
    (amplitude-error model); the detunings are unaffected.  A 1-D array of
    S scalings builds all S stacks at once, shape (S, n, 4, 4).
    """
    scale = np.asarray(scale, dtype=float)
    h = np.zeros(scale.shape + (len(seq.durations), 4, 4), dtype=complex)
    h[..., L3, [L1, L2, L4]] = scale[..., None, None] * seq.amps
    h[..., [L1, L2, L4], [L1, L2, L4]] = seq.dets / 2
    return h + h.conj().swapaxes(-1, -2)


def segment_unitaries(seq: PulseSequence,
                      extra_diag: np.ndarray | None = None) -> Iterator:
    """Per-segment propagators in time order, each of shape (..., 4, 4).

    ``extra_diag`` (..., 4) adds a static diagonal shift (rad/s) to every
    segment Hamiltonian (quasi-static noise); its leading axes, one per
    noise shot for instance, become the leading axes of each propagator.
    With a shift the propagators are computed lazily, one segment at a
    time, so that a product over them holds one batch at once.
    """
    hs = control_hamiltonian(seq)
    if extra_diag is None:
        return iter(expm_unitary_batch(hs, seq.durations))
    shift = np.zeros(np.shape(extra_diag) + (4,), dtype=complex)
    shift[..., range(4), range(4)] = extra_diag
    return (expm_unitary_batch(h + shift, t)
            for h, t in zip(hs, seq.durations))


def propagate(seq: PulseSequence,
              extra_diag: np.ndarray | None = None) -> np.ndarray:
    """Total propagator of the sequence in row order, latest segment
    leftmost; batched over the leading axes of ``extra_diag``."""
    u = np.eye(4, dtype=complex)
    for uk in segment_unitaries(seq, extra_diag=extra_diag):
        u = uk @ u
    return u


def rwa_coefficients(tones, p: IonParams, duration: float) -> PulseSequence:
    """Map three microwave tones to a one-segment rotating-frame pulse.

    tones[0] drives |3><->|1| (transverse field), tones[1] drives
    |3><->|2| (field along z), tones[2] drives |3><->|4| (transverse).
    Detunings are read off the tone frequencies relative to the level
    splittings.  Parameter-regime violations raise a RegimeWarning but do
    not reject the input.

    Amplitude convention: bx, by, bz are peak amplitudes of the linearly
    polarized lab field b cos(omega t + phi).  The rotating-wave
    approximation keeps the co-rotating half of the cosine, so the
    transverse couplings carry 1/4 = (1/2 spin-1/2 matrix element) x
    (1/2 RWA), while the longitudinal c32 carries 1/2 x the RWA half
    because its sin(theta0/2)cos(theta0/2) factor already supplies the
    spin-1/2 normalization.  Direct lab-frame integration confirms both.
    """
    if len(tones) != 3:
        raise ValueError("exactly three tones expected")
    es = eigensystem(p)
    e = es.energies
    th = es.theta0
    g1, g2 = p.gamma_n, p.gamma_e
    t1, t2, t3 = tones

    c31 = 0.25 * (t1.bx + 1j * t1.by) * (
        g1 * np.cos(th / 2) + g2 * np.sin(th / 2)) * np.exp(1j * t1.phi)
    c32 = -0.5 * t2.bz * np.sin(th / 2) * np.cos(th / 2) * (
        g2 - g1) * np.exp(1j * t2.phi)
    c34 = 0.25 * (t3.bx - 1j * t3.by) * (
        g1 * np.sin(th / 2) + g2 * np.cos(th / 2)) * np.exp(1j * t3.phi)

    # omega_1 = E1 - E3 - d1, omega_2 = E2 - E3 - d2, omega_3 = E4 - E3 - d4
    d1 = (e[0] - e[2]) - t1.omega if t1.omega else 0.0
    d2 = (e[1] - e[2]) - t2.omega if t2.omega else 0.0
    d4 = (e[3] - e[2]) - t3.omega if t3.omega else 0.0

    min_split = min(abs(e[0] - e[1]), abs(e[1] - e[3]))
    drives = [abs(g * b) for t in tones for g in (g1, g2)
              for b in (t.bx, t.by, t.bz)]
    if min_split > 0 and (max(drives + [abs(d1), abs(d2), abs(d4)])
                          > 0.1 * min_split):
        warnings.warn("drive strength or detuning not small compared to the "
                      "level splittings; RWA coefficients may be inaccurate",
                      RegimeWarning)
    return PulseSequence(durations=[duration], amps=[[c31, c32, c34]],
                         dets=[[d1, d2, d4]])


def propagate_lab_frame(tones, p: IonParams, duration: float,
                        dt: float) -> np.ndarray:
    """Direct lab-frame integration (no RWA); returns U in the number basis.

    Midpoint piecewise-constant stepping.  ``dt`` must resolve the fastest
    frequency, the drive strengths ||g_t|| included:
    dt <= (2 pi / max(omega, splittings, ||g_t||)) / 50.  Step
    propagators come from the Chebyshev-node interpolant of
    ``_chebyshev_nodes``.

    The grid repeats with the drive: for one active tone with omega != 0
    the period P = min(2 pi / |omega|, duration) is stepped once on
    ceil(P / dt) steps and raised to q = floor(duration / P); the
    remainder duration - q P, if positive, is stepped from phase phi on
    ceil(r / dt) steps of its own.  Otherwise P is the whole duration.
    """
    if not (duration > 0 and dt > 0):
        raise ValueError(f"duration {duration:g} and dt {dt:g} must be "
                         f"positive")
    es = eigensystem(p)
    gx = p.gamma_n * I1X + p.gamma_e * I2X
    gy = p.gamma_n * I1Y + p.gamma_e * I2Y
    gz = p.gamma_n * I1Z + p.gamma_e * I2Z
    drives = [t.bx * gx + t.by * gy + t.bz * gz for t in tones]
    # silent tones (g = 0) add no axis to the interpolation grid
    active = [(t, g) for t, g in zip(tones, drives) if np.any(g)]
    gs = np.array([g for _, g in active]).reshape(len(active), 4, 4)
    g_norms = [float(np.linalg.norm(g, 2)) for g in gs]
    freqs = [abs(t.omega) for t in tones] + g_norms
    freqs += [abs(x) for x in np.subtract.outer(es.energies, es.energies).ravel()]
    fmax = max(freqs)
    if fmax > 0 and dt > (2 * np.pi / fmax) / 50:
        raise ValueError(f"dt = {dt:g} too coarse for max frequency "
                         f"{fmax / (2 * np.pi):g} Hz")

    h0 = free_hamiltonian(p)
    period = duration
    if len(active) == 1 and active[0][0].omega:
        period = min(duration, 2 * np.pi / abs(active[0][0].omega))
    q = int(duration // period)
    u = np.linalg.matrix_power(
        _lab_product(h0, gs, g_norms, active, period, dt), q)
    rest = duration - q * period
    if rest > 0:
        u = _lab_product(h0, gs, g_norms, active, rest, dt) @ u
    r = mapping_operator(es.theta0)
    return r.conj().T @ u @ r


def _lab_product(h0: np.ndarray, gs: np.ndarray, g_norms, active,
                 duration: float, dt: float) -> np.ndarray:
    """Spin-basis midpoint product over [0, duration) on ceil(duration / dt)
    equal steps, the drive phases starting at each tone's phi."""
    n = max(1, int(np.ceil(duration / dt)))
    step = duration / n
    k = len(active)
    x = _chebyshev_nodes([step * g for g in g_norms])
    # node a of the tensor grid, first active tone slowest
    grid = np.array(list(itertools.product(x, repeat=k))).reshape(
        len(x) ** k, k)
    hs = h0 - np.tensordot(grid, gs, axes=(1, 0))
    nodes = expm_unitary_batch(hs, step)
    u = np.eye(4, dtype=complex)
    # every chunk reuses one step-last buffer: a fresh 1 MiB per chunk
    # either overlaps the previous one or is unmapped and faulted back in
    buf = np.empty((4, 4, min(n, _LAB_CHUNK)), dtype=complex)
    for start in range(0, n, _LAB_CHUNK):
        tmid = (np.arange(start, min(start + _LAB_CHUNK, n)) + 0.5) * step
        us = _step_propagators(nodes, x, active, tmid, buf[..., :len(tmid)])
        # only the last chunk can end in a partial block
        full = len(tmid) - len(tmid) % _LAB_BLOCK
        blocks = us[..., :full].reshape(4, 4, -1, _LAB_BLOCK)
        for ub in _pairwise_product(blocks.transpose(2, 0, 1, 3)):
            u = ub @ u
        if full < len(tmid):
            u = _pairwise_product(us[..., full:]) @ u
    return u


def _chebyshev_nodes(bounds) -> np.ndarray:
    """Chebyshev points of the first kind on [-1, 1] for interpolating a
    step propagator exp(-i (h0 - sum_t c_t g_t) step) in the scalars c_t.

    ``bounds`` holds B_t = step ||g_t|| per active tone.  The m-th
    derivative in c_t has norm <= B_t^m, so the degree K is the smallest
    K >= 1 with 3^(k-1) sum_t B_t^(K+1) / (2^K (K+1)!) <= 2^-60 on the
    k-dimensional tensor grid; 3 bounds its Lebesgue constant.
    """
    k = len(bounds)
    degree = 1
    while 3.0 ** (k - 1) * sum(b ** (degree + 1) for b in bounds) > (
            2.0 ** (degree - 60) * math.factorial(degree + 1)):
        degree += 1
    j = np.arange(degree + 1)
    return np.cos((2 * j + 1) * np.pi / (2 * degree + 2))


def _step_propagators(nodes: np.ndarray, x: np.ndarray, active,
                       t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Step propagators at the midpoints ``t`` into ``out`` (4, 4, len(t)):
    the node propagators (nodes, 4, 4) summed elementwise with node-major
    weights (nodes, steps), first active tone slowest.  Row by row, so the
    temporaries are a quarter of ``out``."""
    w = np.ones((1, len(t)))
    for tone, _ in active:
        lag = _lagrange_weights(x, np.cos(tone.omega * t + tone.phi))
        w = (w[:, None, :] * lag).reshape(-1, len(t))
    for i in range(4):
        np.multiply(nodes[0, i, :, None], w[0], out=out[i])
        for a in range(1, len(nodes)):
            out[i] += nodes[a, i, :, None] * w[a]
    return out


def _lagrange_weights(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lagrange basis polynomials of the nodes ``x`` at the points ``c``,
    shape (len(x), len(c)), in product form."""
    w = np.ones((len(x), len(c)))
    for j, xj in enumerate(x):
        for i, xi in enumerate(x):
            if i != j:
                w[j] *= (c - xi) / (xj - xi)
    return w


def _pairwise_product(us: np.ndarray) -> np.ndarray:
    """Time-ordered product over the last axis of ``us`` (..., 4, 4, m),
    latest step leftmost, multiplied pairwise in log2(m) rounds of
    elementwise 4x4 products."""
    while us.shape[-1] > 1:
        k = us.shape[-1] // 2
        a, b = us[..., 1:2 * k:2], us[..., 0:2 * k:2]
        paired = a[..., :, 0, None, :] * b[..., None, 0, :, :]
        for j in range(1, 4):
            paired += a[..., :, j, None, :] * b[..., None, j, :, :]
        if us.shape[-1] % 2:
            paired = np.concatenate([paired, us[..., -1:]], axis=-1)
        us = paired
    return us[..., 0]
