import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_state, random_unitary
from spinpair import linalg
from spinpair.linalg import (BasisMismatchError, DensityMatrix, StateVector,
                             expm_symmetric, expm_unitary, expm_unitary_batch,
                             gate_fidelity, kron, phase_min_distance,
                             project_psd, state_fidelity)

EPS = np.finfo(float).eps


def test_state_vector_normalization_enforced():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]))
    s = StateVector(np.array([1, 1, 0, 0]) / np.sqrt(2))
    assert s.basis == "spin"


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.5, 0.6, 0.0, 0.0]))   # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.1], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue


def test_expm_unitary_is_unitary_and_matches_scalar_case(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    u = expm_unitary(h, 0.37)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    # diagonal generator: phases directly
    d = np.diag([1.0, -2.0, 0.5, 0.0])
    u = expm_unitary(d, 2.0)
    assert np.allclose(np.diag(u), np.exp(-1j * np.diag(d) * 2.0), atol=1e-14)


def test_expm_unitary_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_unitary_batch_matches_expm_unitary_and_rejects_non_hermitian(
        rng):
    a = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
    hs = a + a.conj().swapaxes(-1, -2)
    ts = np.array([0.1, 0.2])  # broadcasts against the leading axes (3, 2)
    us = expm_unitary_batch(hs, ts)
    assert us.shape == (3, 2, 4, 4)
    for i in range(3):
        for j in range(2):
            assert np.array_equal(us[i, j], expm_unitary(hs[i, j], ts[j]))
    hs[1, 0, 0, 1] += 1.0   # one non-Hermitian matrix in the batch
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_unitary_batch(hs, 0.1)


def _star(rng, n, norm1):
    """n real symmetric star matrices (level 3 coupled to the other three,
    any diagonal), each scaled to the 1-norm ``norm1``."""
    x = np.zeros((n, 4, 4))
    x[:, 2, [0, 1, 3]] = rng.normal(size=(n, 3))
    x = x + x.swapaxes(-1, -2)
    x[:, range(4), range(4)] = rng.normal(size=(n, 4))
    return x * (norm1 / np.abs(x).sum(axis=-2).max(axis=-1))[:, None, None]


def test_expm_symmetric_matches_eigh_and_rejects_double_angle_squaring(rng):
    # at ||x||_1 = 50 the kernel scales by 2^-6 and squares six times
    x = _star(rng, 200, 50.0)
    want = expm_unitary_batch(x, 1.0)
    bound = 20 * EPS * 50.0
    assert np.max(np.abs(expm_symmetric(x) - want)) <= bound
    # the same Taylor sum squared with C <- 2C^2 - I misses the bound
    u = expm_symmetric(x / 64)
    c, s = u.real, -u.imag
    for _ in range(6):
        c, s = 2 * c @ c - np.eye(4), 2 * (c @ s)
    assert np.max(np.abs(c - 1j * s - want)) > bound


def _expm_symmetric_reference(x):
    """expm_symmetric in its first formulation: the 1-norm by numpy
    reductions, the Taylor terms with a[k] * I, and a gather and scatter
    at every squaring step."""
    def series(a, y, y2, y3):
        b0, b1, b2 = (a[k] * np.eye(4) + a[k + 1] * y + a[k + 2] * y2
                      for k in (0, 3, 6))
        return b0 + (b1 + (b2 + a[9] * y3) @ y3) @ y3
    mant, e = np.frexp(np.abs(x).sum(axis=-2).max(axis=-1))
    e = np.maximum(e - (mant == 0.5), 0)
    x = np.ldexp(x, -e[..., None, None])
    y = x @ x
    y2 = y @ y
    y3 = y2 @ y
    c = series(linalg._COS_COEFFS, y, y2, y3)
    s = x @ series(linalg._SIN_COEFFS, y, y2, y3)
    for j in range(int(e.max(initial=0))):
        sel = e > j
        cj, sj = c[sel], s[sel]
        c[sel] = cj @ cj - sj @ sj
        s[sel] = 2 * (cj @ sj)
    return c - 1j * s


@pytest.mark.parametrize("norm1", [1e-3, 0.5, 1.0, 7.0, 1e3])
def test_expm_symmetric_matches_its_first_formulation(rng, norm1):
    # a stack of one 1-norm squares every matrix alike; the mixed stack
    # squares only some of them at the later steps
    mixed = _star(rng, 60, 1.0) * np.geomspace(1e-3, 1e3, 60)[:, None, None]
    for x in (_star(rng, 60, norm1), mixed):
        assert np.array_equal(expm_symmetric(x), _expm_symmetric_reference(x))


def test_expm_symmetric_result_does_not_depend_on_the_stack(rng):
    x = np.concatenate([_star(rng, 3, 0.0), _star(rng, 3, 0.7),
                        _star(rng, 3, 300.0)])
    us = expm_symmetric(x)
    for xk, uk in zip(x, us):
        assert np.array_equal(expm_symmetric(xk), uk)
    assert np.array_equal(us[:3], np.broadcast_to(np.eye(4), (3, 4, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_symmetric_rejects_a_non_finite_stack(rng, bad):
    x = _star(rng, 5, 1.0)
    x[3, 2, 0] = x[3, 0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        expm_symmetric(x)


def test_gate_fidelity_bounds_and_known_values(rng):
    u = random_unitary(rng)
    assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)
    # orthogonal-in-trace pair
    a = np.diag([1, 1, 1, 1]).astype(complex)
    b = np.diag([1, 1, -1, -1]).astype(complex)
    assert gate_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    v = random_unitary(rng)
    f = gate_fidelity(u, v)
    assert 0.0 <= f <= 1.0 + 1e-12


@given(phi=st.floats(0, 2 * np.pi))
@settings(max_examples=25, deadline=None)
def test_gate_fidelity_global_phase_invariant(phi):
    rng = np.random.default_rng(7)
    u = random_unitary(rng)
    v = random_unitary(rng)
    assert gate_fidelity(u, np.exp(1j * phi) * v) == pytest.approx(
        gate_fidelity(u, v), abs=1e-10)


def test_state_fidelity_pure_states(rng):
    a = random_state(rng)
    rho = DensityMatrix(np.outer(a, a.conj()))
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    b = random_state(rng)
    overlap = abs(np.vdot(a, b)) ** 2
    sigma = DensityMatrix(np.outer(b, b.conj()))
    assert state_fidelity(rho, sigma) == pytest.approx(overlap, abs=1e-7)


def test_state_fidelity_against_a_pure_reference_is_exact(rng):
    worst = 0.0
    for _ in range(200):
        a, b = random_state(rng), random_state(rng)
        rho = DensityMatrix(np.outer(a, a.conj()))
        f = state_fidelity(rho, StateVector(b))
        worst = max(worst, abs(f - abs(np.vdot(b, a)) ** 2))
    assert worst <= 1e-15


def test_state_fidelity_pure_reference_checks_basis_and_dimension(rng):
    rho = DensityMatrix(random_density(rng))
    with pytest.raises(BasisMismatchError):
        state_fidelity(rho, StateVector(random_state(rng), basis="number"))
    with pytest.raises(ValueError):
        state_fidelity(rho, StateVector(random_state(rng, dim=2)))


def test_state_fidelity_mixed_monotone(rng):
    rho = DensityMatrix(random_density(rng))
    eye = DensityMatrix(np.eye(4) / 4)
    f = state_fidelity(rho, eye)
    assert 0.0 < f <= 1.0 + 1e-9


def test_project_psd_fixes_negative_eigenvalues():
    m = np.diag([0.7, 0.5, -0.1, -0.1])
    p = project_psd(m)
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-14
    assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
    # already-valid input is unchanged
    good = np.diag([0.4, 0.3, 0.2, 0.1])
    assert np.allclose(project_psd(good), good, atol=1e-12)


def test_phase_min_distance_properties(rng):
    u = random_unitary(rng)
    assert phase_min_distance(u, u) == pytest.approx(0.0, abs=1e-12)
    assert phase_min_distance(u, np.exp(0.3j) * u) == pytest.approx(
        0.0, abs=1e-12)
    v = random_unitary(rng)
    d = phase_min_distance(u, v)
    assert d == pytest.approx(phase_min_distance(v, u), abs=1e-10)
    assert 0.0 <= d <= 2.0


def test_kron_matches_numpy(rng):
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert np.allclose(kron(a, b), np.kron(a, b))
