"""Single-ion 4-level hyperfine + Zeeman model.

The spin basis is ordered |uu>, |ud>, |du>, |dd> (nuclear spin first,
electron spin second).  The number basis |1..4> collects the free-Hamiltonian
eigenstates; the two are related by the mapping operator R, which is real
and R = R^T = R^-1.  So one map, m -> R m R, takes an operator from either
basis to the other: ``change_basis`` is that map and the one place that
applies R.  Angular momentum operators are Pauli matrices times 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix

TWO_PI = 2.0 * np.pi

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# Spin-1/2 operators for the nuclear (1) and electron (2) spin on the
# 4-dim product space, nuclear factor first.
I1X = np.kron(SIGMA_X / 2, I2)
I1Y = np.kron(SIGMA_Y / 2, I2)
I1Z = np.kron(SIGMA_Z / 2, I2)
I2X = np.kron(I2, SIGMA_X / 2)
I2Y = np.kron(I2, SIGMA_Y / 2)
I2Z = np.kron(I2, SIGMA_Z / 2)


@dataclass(frozen=True)
class IonParams:
    """Physical constants of one ion's 4-level system.

    hyperfine_a : hyperfine constant, rad/s
    gamma_n, gamma_e : nuclear / electron gyromagnetic ratios, rad/(s T)
    b_field : quantization field, tesla
    """

    hyperfine_a: float
    gamma_n: float
    gamma_e: float
    b_field: float

    def __post_init__(self):
        if self.hyperfine_a <= 0:
            raise ValueError("hyperfine constant must be positive")
        if self.gamma_e == 0:
            raise ValueError("electron gyromagnetic ratio must be non-zero")
        if self.b_field < 0:
            raise ValueError("b_field must be non-negative")


# 171Yb+ constants: A ~ 2pi x 12.6 GHz, gamma_n/2pi ~ 7.5e6 Hz/T,
# gamma_e/2pi ~ -2.8e10 Hz/T, B0 ~ 6 Gs.
YB171 = IonParams(
    hyperfine_a=TWO_PI * 12.6e9,
    gamma_n=TWO_PI * 7.5e6,
    gamma_e=TWO_PI * (-2.8e10),
    b_field=6e-4,
)


def free_hamiltonian(p: IonParams) -> np.ndarray:
    """H0 = A (I1.I2) - B0 (gamma_n I1z + gamma_e I2z), spin basis, rad/s."""
    a = p.hyperfine_a
    h = a * (I1X @ I2X + I1Y @ I2Y + I1Z @ I2Z)
    h -= p.b_field * (p.gamma_n * I1Z + p.gamma_e * I2Z)
    return h


def mixing_angle(p: IonParams) -> tuple[float, float]:
    """Return (lambda, theta0) with theta0 = 2 arctan(lambda).

    lambda = (B0(gamma_e - gamma_n) - sqrt(A^2 + B0^2 (gamma_n - gamma_e)^2)) / A.
    At B0 = 0 this gives lambda = -1 and theta0 = -pi/2 exactly.
    """
    a = p.hyperfine_a
    g1, g2, b0 = p.gamma_n, p.gamma_e, p.b_field
    lam = (-b0 * g1 + b0 * g2
           - np.sqrt(a**2 + b0**2 * g1**2 + b0**2 * g2**2
                     - 2 * b0**2 * g1 * g2)) / a
    theta0 = 2.0 * np.arctan(lam)
    return float(lam), float(theta0)


def mapping_operator(theta0: float) -> np.ndarray:
    """Real symmetric operator R with R |k>_number = |k>_spin.

    Columns are the free-Hamiltonian eigenstates expressed in the spin
    basis; R is orthogonal and involutory (R^2 = I).
    """
    c = np.cos(theta0 / 2)
    s = np.sin(theta0 / 2)
    return np.array([
        [1, 0, 0, 0],
        [0, c, -s, 0],
        [0, -s, -c, 0],
        [0, 0, 0, 1],
    ], dtype=complex)


@dataclass(frozen=True)
class EigenSystem:
    """Free-Hamiltonian eigensystem labeled by eigenvector structure.

    energies[k] is E_{k+1}, of the eigenvector in column k of
    ``mapping_operator(theta0)`` (spin basis).  Labels follow the analytic
    eigenstate forms, not energy ordering.
    """

    energies: np.ndarray
    theta0: float


def eigensystem(p: IonParams) -> EigenSystem:
    _, theta0 = mixing_angle(p)
    h0 = change_basis(free_hamiltonian(p), mapping_operator(theta0))
    return EigenSystem(energies=np.real(np.diag(h0)).copy(), theta0=theta0)


def change_basis(m, r: np.ndarray):
    """R m R: an operator, a (..., d, d) stack or a DensityMatrix from the
    spin basis to the number basis or back.

    A DensityMatrix comes back with its basis tag swapped.  For two-ion
    operators pass r = np.kron(R, R).
    """
    if not isinstance(m, DensityMatrix):
        return r @ m @ r
    tag = {"spin": "number", "number": "spin"}.get(m.basis)
    if tag is None:
        raise ValueError(f"no basis change from basis {m.basis!r}")
    return DensityMatrix(r @ m.entries @ r, basis=tag)
