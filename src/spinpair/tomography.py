"""Simulated measurement, state/process tomography, and the magnetic-noise model.

The only direct observable is the population of level |3> (measured in
hardware through the fluorescence complement P3 = 1 - (P1+P2+P4)).  State
tomography routes populations and coherences into the measurable level
with pi and pi/2 pulses on the (3,1), (3,2), (3,4) subspaces, then inverts
the linear map; pairs not involving |3> use a composed route (a pi pulse
into |3> followed by a pi/2 analysis pulse).  ``qst`` measures one given
state in all 16 settings; ``qpt`` applies the process once per input,
reconstructs all 16 outputs in one inversion (one least-squares solve with
16 right-hand sides, one batched PSD projection) and reads chi exactly off
its superoperator (Chuang & Nielsen, 1997).

Magnetic noise is modeled as quasi-static: each experimental shot draws
a constant random shift of the |1>, |2>, |4> energies (Gaussian, std
sigma_k), matching slow drift physics and the Ramsey T2* phenomenology.
The shift is held for the whole shot: in a circuit every gate of shot k
sees the same shift, and a Grover report takes both its success rate and
its confidence interval from those same shots.  ``apply_noise`` propagates
all shots at once through ``control.propagate`` (real-gauge exponentials,
no eigendecomposition, and the shot products in real 8 x 8 block form),
and a ``NoisyChannel`` acts on a state through its 16 x 16 superoperator,
the shot mean of U (x) conj(U), built once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .control import PulseSequence, propagate
from .ion import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, IonParams, YB171,
                  change_basis, mapping_operator, mixing_angle)
from .linalg import ChiMatrix, DensityMatrix, expm_unitary, kron, project_psd

SQRT2 = np.sqrt(2.0)

# Two-qubit Pauli operator basis {I,X,Y,Z} x {I,X,Y,Z}, spin basis
_P1 = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI2 = [kron(a, b) for a in _P1 for b in _P1]
_PAULI2_CONJ = np.conj(PAULI2)  # (16, 4, 4)


@dataclass(frozen=True)
class NoiseModel:
    """Quasi-static Gaussian shifts of the |1>, |2>, |4> levels (rad/s)."""

    sigma1: float
    sigma2: float
    sigma4: float
    n_samples: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.sigma1, self.sigma2, self.sigma4) < 0:
            raise ValueError("sigma must be non-negative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def calibrate_sigma(t2star: float) -> float:
    """sigma such that the quasi-static Ramsey envelope exp(-sigma^2 t^2/2)
    reaches 1/e at t = T2*: sigma = sqrt(2)/T2*."""
    if t2star <= 0:
        raise ValueError("T2* must be positive")
    return SQRT2 / t2star


# Ramsey coherence times from the hardware characterization, without
# ("free") and with ("triggered") ac-line triggering (seconds);
# transitions (1-3), (2-3), (4-3).
T2STAR = {"free": {"13": 500e-6, "23": 20e-3, "43": 500e-6},
          "triggered": {"13": 7e-3, "23": 20e-3, "43": 7e-3}}


def noise_model(name: str, n_samples: int = 200,
                rng_seed: int = 0) -> NoiseModel:
    """The noise model of the T2* table ``T2STAR[name]``."""
    t = T2STAR[name]
    return NoiseModel(*(calibrate_sigma(t[k]) for k in ("13", "23", "43")),
                      n_samples, rng_seed)


def _read_p3(p3, shots: int, rng):
    """Measured |3> populations for the exact populations ``p3`` (a float
    or an array, one binomial draw per entry in order); shots = 0 returns
    them clipped to [0, 1]."""
    p3 = np.clip(p3, 0.0, 1.0)
    if shots == 0:
        return p3
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if rng is None:
        rng = np.random.default_rng()
    # hardware counts the bright complement P1+P2+P4
    bright = rng.binomial(shots, 1.0 - p3)
    return 1.0 - bright / shots


def _subspace_pulse(i: int, j: int, theta: float, phase: float) -> np.ndarray:
    """exp(-i theta/2 (cos(phase) X_ij + sin(phase) Y_ij)) on levels i, j."""
    h = np.zeros((4, 4), dtype=complex)
    h[i, j] = np.exp(-1j * phase)
    h = h + h.conj().T
    return expm_unitary(h, theta / 2)


def qst_settings() -> list:
    """Pre-measurement rotations for full 4-level state tomography.

    16 settings: identity, pi pulses routing each level to |3>, pi/2
    analysis pulses (phases 0 and pi/2) on the (3,k) pairs, and composed
    routes for the (1,2), (1,4), (2,4) pairs.
    """
    eye = np.eye(4, dtype=complex)
    settings = [eye]
    for k in (0, 1, 3):
        settings.append(_subspace_pulse(2, k, np.pi, 0.0))
    for k in (0, 1, 3):
        for ph in (0.0, np.pi / 2):
            settings.append(_subspace_pulse(2, k, np.pi / 2, ph))
    for (j, k) in ((0, 1), (0, 3), (1, 3)):
        for ph in (0.0, np.pi / 2):
            settings.append(_subspace_pulse(2, k, np.pi / 2, ph)
                            @ _subspace_pulse(2, j, np.pi, 0.0))
    return settings


def _hermitian_basis(d: int = 4) -> list:
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j
            e[j, i] = 1j
            basis.append(e)
    return basis


_QST_BASIS = _hermitian_basis()
_QST_BASIS_ROWS = np.array(_QST_BASIS).reshape(16, 16)  # row b: vec(B_b)
_QST_SETTINGS = np.array(qst_settings())  # (16, 4, 4)


@functools.cache
def _qst_design() -> np.ndarray:
    rows = []
    for v in _QST_SETTINGS:
        eff = v.conj().T @ np.diag([0, 0, 1, 0]).astype(complex) @ v
        rows.append([np.trace(eff @ b).real for b in _QST_BASIS])
    a = np.array(rows)
    if np.linalg.cond(a) > 1e6:
        raise RuntimeError("tomography schedule is ill-conditioned")
    return a


def _reconstruct(rhos: np.ndarray, shots: int, rng) -> np.ndarray:
    """Linear-inversion estimates of the number-basis states ``rhos``
    (k, 4, 4), projected onto the physical states.

    All 16 settings rotate every state at once, and the binomial draws run
    state by state, setting by setting.  One least-squares solve takes the
    k probability vectors as its right-hand sides.
    """
    vs = _QST_SETTINGS
    rotated = vs @ rhos[:, None] @ vs.conj().transpose(0, 2, 1)
    probs = _read_p3(rotated[..., 2, 2].real, shots, rng)  # (k, 16)
    x, *_ = np.linalg.lstsq(_qst_design(), probs.T, rcond=None)
    return project_psd((x.T @ _QST_BASIS_ROWS).reshape(-1, 4, 4))


def qst(rho: DensityMatrix, shots: int = 0, rng=None) -> DensityMatrix:
    """Reconstruct the number-basis state ``rho`` by linear inversion.

    All 16 settings rotate and measure the same ``rho``; ``shots`` = 0
    gives exact |3> populations.
    """
    if rho.basis != "number":
        raise ValueError("qst expects a number-basis state")
    return DensityMatrix(_reconstruct(rho.entries[None], shots, rng)[0],
                         basis="number")


# --- process tomography ------------------------------------------------------

_SINGLE_QUBIT_INPUTS = [
    np.array([1, 0], dtype=complex),                  # |up>
    np.array([0, 1], dtype=complex),                  # |down>
    np.array([1, 1], dtype=complex) / SQRT2,          # |+>
    np.array([1, 1j], dtype=complex) / SQRT2,         # |+i>
]


def qpt_input_states() -> list:
    """16 spin-basis product input states for process tomography."""
    return [np.kron(a, b) for a in _SINGLE_QUBIT_INPUTS
            for b in _SINGLE_QUBIT_INPUTS]


@functools.cache
def _qpt_inputs_inverse() -> np.ndarray:
    """R^-1, where column j of R is vec(rho_j) of the j-th QPT input."""
    r = np.array([np.outer(psi, psi.conj()).ravel()
                  for psi in qpt_input_states()]).T
    return np.linalg.inv(r)


@functools.cache
def _qpt_inputs(theta0: float) -> tuple:
    """The 16 QPT inputs in the number basis of mixing angle ``theta0``;
    shared by every ``qpt`` call, so their entries are read-only."""
    r = mapping_operator(theta0)
    inputs = []
    for psi in qpt_input_states():
        rho_s = DensityMatrix(np.outer(psi, psi.conj()), basis="spin")
        rho = change_basis(rho_s, r)
        rho.entries.flags.writeable = False
        inputs.append(rho)
    return tuple(inputs)


def qpt(process, ion: IonParams = YB171, shots: int = 0,
        rng=None) -> ChiMatrix:
    """Standard 16-input-state process tomography; chi in the spin basis.

    ``process`` maps a number-basis DensityMatrix to a number-basis
    DensityMatrix and is called once per input state (16 calls).  Inputs
    are prepared in the spin basis and conjugated to the number basis for
    simulation (once per mixing angle); the 16 outputs are reconstructed
    together, in one linear inversion, and mapped back to the spin basis.
    An output whose trace is not 1 triggers a warning.
    With R and O holding the row-major vec of the inputs and outputs as
    columns, S = O R^-1 and, as vec(P_m rho P_n) = (P_m (x) P_n^T) vec(rho),
    chi_mn = sum_abcd conj(P_m[a,c] P_n[d,b]) S[(a,b),(c,d)] / 16.
    """
    if rng is None:
        rng = np.random.default_rng()
    _, theta0 = mixing_angle(ion)
    outputs = []
    for rho in _qpt_inputs(theta0):
        out = process(rho)
        tr = float(np.trace(out.entries).real)
        if abs(tr - 1.0) > 1e-6:
            warnings.warn(f"process is not trace preserving (Tr={tr})")
        outputs.append(out.entries)
    spin = change_basis(_reconstruct(np.array(outputs), shots, rng),
                        mapping_operator(theta0))
    s = spin.reshape(16, 16).T @ _qpt_inputs_inverse()
    chi = np.einsum("mac,ndb,abcd->mn", _PAULI2_CONJ, _PAULI2_CONJ,
                    s.reshape(4, 4, 4, 4)) / 16
    return ChiMatrix(project_psd(chi))


def chi_of_unitary(u: np.ndarray) -> ChiMatrix:
    """Analytic trace-normalized chi matrix of a 4x4 spin-basis unitary."""
    coeffs = np.array([np.trace(p.conj().T @ u) / 4.0 for p in PAULI2])
    coeffs = coeffs / np.linalg.norm(coeffs)
    return ChiMatrix(np.outer(coeffs, coeffs.conj()))


# --- quasi-static noise channel ----------------------------------------------

@dataclass(frozen=True)
class NoisyChannel:
    """Mean of the conjugations by ``unitaries``, an (n_shots, 4, 4) array
    of number-basis shot unitaries from quasi-static level shifts.

    The channel is applied as its superoperator, the mean over shots of
    U (x) conj(U) (16 x 16), built once on first use: row-major
    vec(U rho U^dag) = (U (x) conj(U)) vec(rho).
    """

    unitaries: np.ndarray

    @functools.cached_property
    def superoperator(self) -> np.ndarray:
        us = self.unitaries.reshape(len(self.unitaries), 16)
        s = (us.T @ us.conj()).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
        return s.reshape(16, 16) / len(self.unitaries)

    def __call__(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.basis != "number":
            raise ValueError("channel acts on number-basis states")
        out = self.superoperator @ rho.entries.ravel()
        return DensityMatrix(out.reshape(4, 4), basis="number")


def apply_noise(seq: PulseSequence, noise: NoiseModel) -> NoisyChannel:
    """Sample-averaged channel of the sequence under quasi-static shifts.

    Each sample adds a constant diagonal d1|1><1| + d2|2><2| + d4|4><4| to
    every segment Hamiltonian; the returned channel averages the resulting
    unitary conjugations.  ``unitaries[k]`` is shot k.  The shifts depend
    only on ``noise`` (drawn from its rng_seed), so channels built from
    one NoiseModel share their shots; with all sigmas zero there is one.
    """
    sigmas = (noise.sigma1, noise.sigma2, noise.sigma4)
    if sigmas == (0.0, 0.0, 0.0):
        return NoisyChannel(propagate(seq)[None])
    rng = np.random.default_rng(noise.rng_seed)
    shifts = rng.normal(size=(noise.n_samples, 3)) * np.array(sigmas)
    diags = np.insert(shifts, 2, 0.0, axis=1)  # no shift on |3>
    return NoisyChannel(propagate(seq, extra_diag=diags))
