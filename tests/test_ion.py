import numpy as np
import pytest

from spinpair.ion import (IonParams, YB171, change_basis, eigensystem,
                          free_hamiltonian, mapping_operator, mixing_angle)
from spinpair.linalg import DensityMatrix

TWO_PI = 2 * np.pi


def test_yb171_constants():
    assert YB171.hyperfine_a == pytest.approx(TWO_PI * 12.6e9)
    assert YB171.gamma_n == pytest.approx(TWO_PI * 7.5e6)
    assert YB171.gamma_e == pytest.approx(-TWO_PI * 2.8e10)
    assert YB171.b_field == pytest.approx(6e-4)


def test_free_hamiltonian_is_hermitian_and_traceless_zeeman():
    h = free_hamiltonian(YB171)
    assert np.max(np.abs(h - h.conj().T)) < 1e-6 * YB171.hyperfine_a
    # at zero field only the exchange term remains: eigenvalues A/4 (x3), -3A/4
    h0 = free_hamiltonian(YB171.replace(b_field=0.0))
    w = np.sort(np.linalg.eigvalsh(h0)) / YB171.hyperfine_a
    assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_mixing_angle_zero_field_limit():
    lam, theta0 = mixing_angle(YB171.replace(b_field=0.0))
    assert lam == pytest.approx(-1.0, abs=1e-12)
    assert theta0 == pytest.approx(-np.pi / 2, abs=1e-12)


def test_mixing_angle_physical_field():
    lam, theta0 = mixing_angle(YB171)
    # frozen from an independent evaluation of the closed-form quadratic root
    assert theta0 == pytest.approx(-1.5721300164803294, abs=1e-12)
    assert -np.pi / 2 - 0.01 < theta0 < -np.pi / 2


def test_mapping_operator_properties():
    _, theta0 = mixing_angle(YB171)
    r = mapping_operator(theta0)
    assert np.allclose(r, r.T, atol=1e-14)          # real symmetric
    assert np.allclose(r @ r, np.eye(4), atol=1e-14)  # involutory
    assert np.allclose(r.imag, 0.0, atol=0.0)


def test_mapping_operator_diagonalizes_h0():
    es = eigensystem(YB171)
    h = free_hamiltonian(YB171)
    r = mapping_operator(es.theta0)
    d = r.conj().T @ h @ r
    off = d - np.diag(np.diag(d))
    assert np.max(np.abs(off)) < 1e-12 * YB171.hyperfine_a
    # energies match an independent dense eigensolve (as multisets)
    w = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(np.sort(es.energies), w, rtol=1e-12)


def test_energy_splitting_near_hyperfine_constant():
    es = eigensystem(YB171)
    e = es.energies
    # the clock transition 2-3 sits within ~ppm of A for the physical field
    assert (e[1] - e[2]) / YB171.hyperfine_a == pytest.approx(1.0, rel=2e-6)
    # Zeeman splits 1 and 4 symmetrically around 2 at this field scale
    assert e[0] > e[2] and e[3] > e[2]


def test_eigensystem_zero_field_labels():
    es = eigensystem(YB171.replace(b_field=0.0))
    e = es.energies / YB171.hyperfine_a
    # |3> is the singlet at -3A/4; the triplet sits at A/4
    assert e[2] == pytest.approx(-0.75, abs=1e-12)
    assert np.allclose(e[[0, 1, 3]], 0.25, atol=1e-12)


def test_change_basis_roundtrip(rng):
    r = mapping_operator(mixing_angle(YB171)[1])
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    back = change_basis(change_basis(m, r), r)
    assert back.shape == m.shape
    assert np.max(np.abs(back - m)) <= 1e-15 * np.max(np.abs(m))


def test_change_basis_density_matrix_tags():
    r = mapping_operator(mixing_angle(YB171)[1])
    entries = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    out = change_basis(DensityMatrix(entries, basis="spin"), r)
    assert isinstance(out, DensityMatrix) and out.basis == "number"
    assert np.allclose(out.entries, r.conj().T @ entries @ r, atol=1e-15)
    back = change_basis(out, r)
    assert back.basis == "spin"
    assert np.allclose(back.entries, entries, atol=1e-15)


def test_change_basis_rejects_a_composite_tag():
    r = mapping_operator(mixing_angle(YB171)[1])
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), basis="composite")
    with pytest.raises(ValueError, match="composite"):
        change_basis(rho, r)


def test_ion_params_validation():
    with pytest.raises(ValueError):
        IonParams(hyperfine_a=-1.0, gamma_n=1.0, gamma_e=1.0, b_field=0.0)
