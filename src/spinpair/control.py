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
exponential per segment.  Every segment Hamiltonian couples |3> only to
the other three levels (a star graph), so a diagonal phase makes it real:
H = Phi R Phi^dag with Phi = diag(phi), phi_j = conj(c_j) / |c_j| on
levels 1, 2, 4 (1 where c_j = 0) and phi_3 = 1, and R real symmetric:
|c_j| in row and column 3, and the real diagonal of H.  A noise shift is
real and diagonal, so it commutes with Phi and adds to R.  Then
U = Phi exp(-i R t) Phi^dag, and ``linalg.expm_symmetric`` takes
exp(-i R t) in real arithmetic, with no eigendecomposition.  ``propagate``
multiplies the segments in real arithmetic too: the running product P is
the real (..., 8, 4) array [Re P; Im P], and a segment U acts on it as the
real block [[Re U, -Im U], [Im U, Re U]].  The lab frame is not
star-shaped and keeps ``expm_unitary_batch``.

The lab-frame integration steps H(t) = h0 - sum_t cos(omega_t t + phi_t) g_t
at midpoints, one exact exponential per step.  The steps go in chunks of
``_LAB_CHUNK``: one ``expm_unitary_batch`` over a chunk's midpoint
Hamiltonians, then the step propagators multiplied in time order.  Each
step's arithmetic is the same in any chunk, so the product does not depend
on ``_LAB_CHUNK``.

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

import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ion import (I1X, I1Y, I1Z, I2X, I2Y, I2Z, IonParams, change_basis,
                  eigensystem, free_hamiltonian, mapping_operator)
from .linalg import expm_symmetric, expm_unitary_batch, real_block

PULSE_SCHEMA_VERSION = 1

# Number-basis indices of levels |1..4|
L1, L2, L3, L4 = 0, 1, 2, 3

# Lab-frame steps per batch of exponentials.  No period shortens a grid of
# several tones, so a long duration can take millions of steps; a chunk's
# (4, 4) complex Hamiltonians take 1 MiB.
_LAB_CHUNK = 4096


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
        # pulse files come from disk: reject bad values here
        if not (np.isfinite(self.durations).all()
                and np.isfinite(self.amps).all()
                and np.isfinite(self.dets).all()):
            raise ValueError("non-finite segment value")
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

    Each propagator is Phi exp(-i R t) Phi^dag in the real gauge of the
    module docstring.
    """
    hs = control_hamiltonian(seq)
    col = hs[..., L3]  # conj(c_j) on levels 1, 2, 4 and 0 on level 3
    mag = np.abs(col)
    phi = np.divide(col, mag, out=np.ones_like(col), where=mag > 0)
    phases = phi[:, :, None] * phi.conj()[:, None, :]
    diag = np.arange(4)
    r = np.abs(hs)
    r[:, diag, diag] = hs.real[:, diag, diag]
    if extra_diag is None:
        return iter(phases * expm_symmetric(r * seq.durations[:, None, None]))
    shift = np.zeros(np.shape(extra_diag) + (4,))
    shift[..., diag, diag] = extra_diag
    return (p * expm_symmetric((rk + shift) * t)
            for p, rk, t in zip(phases, r, seq.durations))


def propagate(seq: PulseSequence,
              extra_diag: np.ndarray | None = None) -> np.ndarray:
    """Total propagator of the sequence in row order, latest segment
    leftmost; batched over the leading axes of ``extra_diag``.

    The running product is the real block form of the module docstring:
    a real batched product costs a fraction of a complex one of the same
    shape."""
    p = None
    for uk in segment_unitaries(seq, extra_diag=extra_diag):
        block = real_block(uk)
        # the first segment's product is its own first block column
        p = block[..., :4] if p is None else block @ p
    u = np.empty(p.shape[:-2] + (4, 4), dtype=complex)
    u.real = p[..., :4, :]
    u.imag = p[..., 4:, :]
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
    dt <= (2 pi / max(omega, splittings, ||g_t||)) / 50.  Each step
    propagator is the exact exponential of its midpoint Hamiltonian.

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
    # silent tones (g = 0) add nothing to the step Hamiltonians
    active = [(t, g) for t, g in zip(tones, drives) if np.any(g)]
    g_norms = [float(np.linalg.norm(g, 2)) for _, g in active]
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
    u = np.linalg.matrix_power(_lab_product(h0, active, period, dt), q)
    rest = duration - q * period
    if rest > 0:
        u = _lab_product(h0, active, rest, dt) @ u
    return change_basis(u, mapping_operator(es.theta0))


def _lab_product(h0: np.ndarray, active, duration: float,
                 dt: float) -> np.ndarray:
    """Spin-basis midpoint product over [0, duration) on ceil(duration / dt)
    equal steps, the drive phases starting at each tone's phi."""
    n = max(1, int(np.ceil(duration / dt)))
    step = duration / n
    u = np.eye(4, dtype=complex)
    for start in range(0, n, _LAB_CHUNK):
        tmid = (np.arange(start, min(start + _LAB_CHUNK, n)) + 0.5) * step
        hs = np.repeat(h0[None], len(tmid), axis=0)
        for tone, g in active:
            hs -= np.cos(tone.omega * tmid + tone.phi)[:, None, None] * g
        for uk in expm_unitary_batch(hs, step):
            u = uk @ u
    return u
