"""Dense complex linear algebra primitives and fidelity metrics.

All Hamiltonians are carried in angular-frequency units (rad/s) with
hbar = 1.  ``expm_unitary`` and ``expm_unitary_batch`` exponentiate any
Hermitian matrix through its eigendecomposition, so their propagators are
unitary up to eigensolver error; the lab frame and the spin-motion blocks
use them.  ``expm_symmetric`` exponentiates real symmetric matrices by
scaling, a Taylor sum and squaring in real arithmetic only: the rotating-
frame segments, brought to real form by a diagonal gauge, go through it.
``project_psd`` projects a whole stack of matrices at once, as ``qpt``
needs for its 16 reconstructed outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERM_ATOL = 1e-10


class BasisMismatchError(ValueError):
    """Operands carry incompatible basis tags."""


@dataclass
class StateVector:
    """A pure state with a basis tag ("number", "spin" or "composite")."""

    amplitudes: np.ndarray
    basis: str = "spin"

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).ravel()
        if not np.all(np.isfinite(self.amplitudes.view(float))):
            raise ValueError("non-finite amplitude")
        norm2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")


@dataclass
class DensityMatrix:
    """A density matrix with a basis tag; invariants checked on construction."""

    entries: np.ndarray
    basis: str = "spin"

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        self.validate()

    def validate(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not square: shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace {tr} != 1")
        w = np.linalg.eigvalsh(m)
        if w.min() < -1e-10:
            raise ValueError(f"negative eigenvalue {w.min()}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass
class ChiMatrix:
    """Process matrix in the two-qubit Pauli operator basis (spin basis).

    ``entries`` is 16x16 with trace 1, so that ``process_fidelity``
    reduces to Tr(chi_a chi_b) for unitary targets.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (16, 16):
            raise ValueError(f"chi matrix must be 16x16, got {self.entries.shape}")


def real_block(u: np.ndarray) -> np.ndarray:
    """The real form [[Re U, -Im U], [Im U, Re U]] of a (..., n, n) complex
    stack, shape (..., 2n, 2n): it maps [Re v; Im v] to [Re Uv; Im Uv]."""
    n = u.shape[-1]
    block = np.empty(u.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n] = block[..., n:, n:] = u.real
    block[..., n:, :n] = u.imag
    np.negative(u.imag, out=block[..., :n, n:])
    return block


def assert_hermitian(h: np.ndarray):
    """Raise unless ``h`` (or every matrix of a stack ``h``) is Hermitian."""
    dev = np.max(np.abs(h - h.conj().swapaxes(-1, -2)))
    scale = max(1.0, float(np.max(np.abs(h))))
    if dev > HERM_ATOL * scale:
        raise ValueError(f"matrix not Hermitian (deviation {dev:.3e})")


def expm_unitary(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def expm_unitary_batch(hs: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for every h of the stack ``hs`` (..., d, d).

    ``t`` broadcasts against the leading axes of ``hs``.  Each matrix goes
    through the same arithmetic as ``expm_unitary``, so the results are
    bit-identical to calling it one matrix at a time; the Hermiticity check
    runs once over the whole stack.
    """
    hs = np.asarray(hs, dtype=complex)
    assert_hermitian(hs)
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * np.asarray(t)[..., None])
    vp = v * phases[..., None, :]
    # conjugate in place: one stack-sized temporary fewer at the peak
    return vp @ np.conj(v, out=v).swapaxes(-1, -2)


# 1/k! for the Taylor terms of cos and sin through x^19: cos takes the
# even k and sin the odd k, each with the sign (-1)^(k // 2)
_COS_COEFFS = [(-1) ** m / math.factorial(2 * m) for m in range(10)]
_SIN_COEFFS = [(-1) ** m / math.factorial(2 * m + 1) for m in range(10)]


def _series(a, y, y2, y3):
    """sum_m a[m] y^m for m < 10, Paterson-Stockmeyer in y^3.

    Each term b_k = a[k] I + a[k+1] y + a[k+2] y^2 is built in place, a[k]
    added on the diagonal only."""
    def term(k):
        b = a[k + 1] * y
        b.reshape(b.shape[:-2] + (-1,))[..., ::b.shape[-1] + 1] += a[k]
        b += a[k + 2] * y2
        return b
    b2 = term(6)
    b2 += a[9] * y3
    b1 = term(3)
    b1 += b2 @ y3
    b0 = term(0)
    b0 += b1 @ y3
    return b0


def expm_symmetric(x: np.ndarray) -> np.ndarray:
    """exp(-i x) for every real symmetric x of the stack (..., d, d).

    Returned as C - i S with C = cos(x) and S = sin(x), in real
    arithmetic only.  Each matrix is scaled by 2^-e with
    e = max(0, ceil(log2 ||x||_1)), so that ||x 2^-e||_1 <= 1; the Taylor
    series of cos and sin through x^19 (remainder below 1/20!) is summed
    in Paterson-Stockmeyer form in y = x^2 (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)), and U <- U^2, i.e. (C, S) <- (C^2 - S^2, 2CS),
    is applied e times; the double-angle step C <- 2C^2 - I would amplify
    rounding fourfold per step.  The exponent is chosen per matrix, so a
    matrix's result does not depend on the stack it is in.  A non-finite
    stack raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    # ||x||_1 by explicit row adds and maxima: numpy's reductions over axes
    # of length 4 cost more than a whole batched 4 x 4 product
    ax = np.abs(x)
    col = ax[..., 0, :]
    for k in range(1, x.shape[-1]):
        col = col + ax[..., k, :]
    norm = col[..., 0]
    for k in range(1, x.shape[-1]):
        norm = np.maximum(norm, col[..., k])
    if not np.all(np.isfinite(norm)):
        raise ValueError("non-finite matrix in the stack")
    mant, e = np.frexp(norm)
    e = np.maximum(e - (mant == 0.5), 0)  # ceil(log2 norm), and 0 for 0
    x = np.ldexp(x, -e[..., None, None])
    y = x @ x
    y2 = y @ y
    y3 = y2 @ y
    c = _series(_COS_COEFFS, y, y2, y3)
    s = x @ _series(_SIN_COEFFS, y, y2, y3)
    for j in range(int(e.max(initial=0))):
        sel = e > j
        if sel.all():  # no gather and scatter while every matrix squares
            c, s = c @ c - s @ s, 2 * (c @ s)
            continue
        cj, sj = c[sel], s[sel]
        c[sel] = cj @ cj - sj @ sj
        s[sel] = 2 * (cj @ sj)
    u = np.empty(x.shape, dtype=complex)
    u.real = c
    u.imag = -s
    return u


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(u^dag v)|^2 / dim^2; invariant under global phase of either arg."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(np.abs(np.trace(u.conj().T @ v)) ** 2) / d**2


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def state_fidelity(rho: DensityMatrix,
                   sigma: DensityMatrix | StateVector) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    For a pure ``sigma`` given as a StateVector |psi> this is exactly
    <psi|rho|psi>, computed without matrix square roots: those of a
    rank-deficient rho turn rounding into errors of order 1e-8.
    """
    if rho.basis != sigma.basis:
        raise BasisMismatchError(f"basis {rho.basis!r} vs {sigma.basis!r}")
    if isinstance(sigma, StateVector):
        psi = sigma.amplitudes
        if psi.shape[0] != rho.dim:
            raise ValueError("dimension mismatch")
        f = float(np.vdot(psi, rho.entries @ psi).real)
    else:
        if rho.dim != sigma.dim:
            raise ValueError("dimension mismatch")
        sr = _psd_sqrt(rho.entries)
        inner = _psd_sqrt(sr @ sigma.entries @ sr)
        f = float(np.trace(inner).real ** 2)
    return min(max(f, 0.0), 1.0)


def process_fidelity(chi_a: ChiMatrix, chi_b: ChiMatrix) -> float:
    """Tr(chi_a chi_b) for trace-normalized chi of a unitary target."""
    f = float(np.trace(chi_a.entries @ chi_b.entries).real)
    return min(max(f, 0.0), 1.0)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest-PSD projection: Hermitize, clip eigenvalues, renormalize trace.

    Batched over the leading axes of ``m`` (..., d, d)."""
    m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    out = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    tr = np.trace(out, axis1=-2, axis2=-1).real
    if np.any(tr <= 0):
        raise ValueError("projection collapsed to zero trace")
    return out / tr[..., None, None]


def phase_min_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-minimized normalized Frobenius distance between operators.

    min_phi ||a - e^{i phi} b||_F / sqrt(dim); zero iff a = e^{i phi} b.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    overlap = np.trace(b.conj().T @ a)
    phi = np.angle(overlap) if overlap != 0 else 0.0
    d = a.shape[0]
    return float(np.linalg.norm(a - np.exp(1j * phi) * b) / np.sqrt(d))
