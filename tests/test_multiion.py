from dataclasses import replace

import numpy as np
import pytest

from spinpair.ion import I1Y, I1Z, I2Z, YB171, mixing_angle
from spinpair.linalg import expm_unitary
from spinpair.multiion import (GradientDrive, NormalMode, TwoIonSystem,
                               composite_zz, composite_zz_check,
                               composite_zz_target, coupling_strength,
                               integrate_spin_motion,
                               large_field_selectivity,
                               motion_disentanglement_check, ms_composite_xx,
                               ms_interaction, theta_prime,
                               transition_rotation, two_ion_op,
                               uzz_spin_unitary)

TWO_PI = 2 * np.pi


def _dense_s(sys):
    """S = sum_n Omega^n (I^n_1z + I^n_2z) as a 16 x 16 matrix."""
    return sum(coupling_strength(sys, n) * two_ion_op(I1Z + I2Z, n)
               for n in range(2))


def _small_system(fock=8, delta=TWO_PI * 2e3, k1=1, b_grad=10.0):
    return TwoIonSystem(
        mode=NormalMode(omega=TWO_PI * 2e6),
        fock_cutoff=fock,
        drive=GradientDrive(b_grad=b_grad, delta=delta, k1=k1))


def test_coupling_strength_formula():
    sys = _small_system()
    want = ((1 / np.sqrt(2)) * 10.0
            * (YB171.gamma_n + YB171.gamma_e) / 4 * 1e-9)
    assert coupling_strength(sys, 0) == pytest.approx(want, rel=1e-12)
    assert coupling_strength(sys, 1) == pytest.approx(want, rel=1e-12)


def test_drive_validation():
    with pytest.raises(ValueError):
        GradientDrive(b_grad=1.0, delta=0.0)
    with pytest.raises(ValueError):
        TwoIonSystem(fock_cutoff=2)
    with pytest.raises(ValueError):
        NormalMode(omega=-1.0)


def test_uzz_spin_unitary_is_diagonal_unitary():
    sys = _small_system()
    u = uzz_spin_unitary(sys)
    assert np.allclose(u, np.diag(np.diag(u)), atol=1e-12)
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


def test_spin_motion_closure_small_cutoff():
    sys = _small_system(fock=8)
    rep = motion_disentanglement_check(sys, steps_per_period=200,
                                      check_cutoff=False)
    assert rep.spin_purity >= 1 - 1e-5
    assert rep.residual < 1e-5


@pytest.mark.parametrize("fock", [4, 5, 6])
def test_spin_motion_blocks_match_dense_midpoint_product(fock):
    # the dense (16 * fock)-dim midpoint product of
    # H(t) = -S (x) [e^{-i(delta t - phi)} a + e^{i(delta t - phi)} a^dag]
    sys = TwoIonSystem(
        mode=NormalMode(omega=TWO_PI * 2e6), fock_cutoff=fock,
        drive=GradientDrive(b_grad=10.0, delta=TWO_PI * 2e3, phi=0.7, k1=2))
    steps_per_period = 20
    n = 2 * steps_per_period
    dt = sys.drive.tau / n
    a = np.diag(np.sqrt(np.arange(1, fock)), k=1).astype(complex)
    s = _dense_s(sys)
    dense = np.eye(16 * fock, dtype=complex)
    for j in range(n):
        ph = np.exp(-1j * (sys.drive.delta * (j + 0.5) * dt - sys.drive.phi))
        h = -np.kron(s, ph * a + np.conj(ph) * a.conj().T)
        dense = expm_unitary(h, dt) @ dense
    dense = dense.reshape(16, fock, 16, fock)

    blocks = integrate_spin_motion(sys, sys.drive.tau, steps_per_period)
    assert blocks.shape == (16, fock, fock)
    for i in range(16):
        assert np.max(np.abs(blocks[i] - dense[i, :, i, :])) <= 1e-12
        for j in range(16):
            if j != i:
                assert not dense[i, :, j, :].any()


def test_composite_zz_exact_for_random_draws():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        sys = _small_system(
            delta=TWO_PI * float(rng.uniform(0.5e3, 5e3)),
            k1=int(rng.integers(1, 4)),
            b_grad=float(rng.uniform(1.0, 30.0)))
        _, dist = composite_zz(sys)
        worst = max(worst, dist)
    assert worst <= 1e-9


def _criterion_3_draws(seed, n):
    """Random systems in the ranges of criterion 3 and composite-zz."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield TwoIonSystem(
            mode=NormalMode(omega=TWO_PI * 2e6,
                            epsilon=float(rng.uniform(0.5e-9, 2e-9))),
            fock_cutoff=8,
            drive=GradientDrive(
                b_grad=float(rng.uniform(1.0, 30.0)),
                delta=TWO_PI * float(rng.uniform(0.5e3, 5e3)),
                k1=int(rng.integers(1, 4))))


def test_composite_zz_check_draws_the_criterion_3_systems():
    report, rows = composite_zz_check(TwoIonSystem(fock_cutoff=8),
                                      np.random.default_rng(5), draws=4)
    want = [(s.drive.b_grad, s.drive.delta, s.drive.k1, composite_zz(s)[1])
            for s in _criterion_3_draws(5, 4)]
    assert rows == want
    assert report == {"draws": 4, "max_distance": max(r[-1] for r in want),
                      "tol": 1e-9, "passed": True}


def _dense_composite_zz(sys):
    """The echo as a product of eight dense factors, each rotation and
    U_zz built by its own exponential."""
    def r1y(ion_index, theta):
        return two_ion_op(expm_unitary(I1Y, theta), ion_index)

    s = _dense_s(sys)
    kf = 2 * sys.drive.k1 * np.pi / sys.drive.delta**2
    uzz = expm_unitary(-kf * (s @ s))
    seq = [r1y(1, -np.pi), uzz, r1y(0, np.pi) @ r1y(1, np.pi), uzz,
           r1y(1, -np.pi), uzz, r1y(0, np.pi) @ r1y(1, np.pi), uzz]
    u = np.eye(16, dtype=complex)
    for factor in seq:
        u = factor @ u
    return u


def test_composite_zz_matches_dense_eight_factor_product():
    for sys in _criterion_3_draws(seed=5, n=20):
        u, dist = composite_zz(sys)
        assert np.max(np.abs(u - _dense_composite_zz(sys))) <= 1e-14
        assert dist <= 1e-14


def test_uzz_spin_unitary_matches_exponential_of_s_squared():
    for sys in _criterion_3_draws(seed=6, n=20):
        s = _dense_s(sys)
        kf = 2 * sys.drive.k1 * np.pi / sys.drive.delta**2
        assert np.max(np.abs(uzz_spin_unitary(sys)
                             - expm_unitary(-kf * (s @ s)))) <= 1e-15


def test_composite_zz_runs_no_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for sys in _criterion_3_draws(seed=7, n=3):
        composite_zz(sys)
        composite_zz_target(sys)
        uzz_spin_unitary(sys)
    assert calls == []


def test_ms_interaction_period():
    # I_x I_x on the clock pair has eigenvalues +-1/4, so the evolution
    # closes at tau = 8 pi and is a pi phase on the active block at 4 pi
    assert np.allclose(ms_interaction(8 * np.pi), np.eye(16), atol=1e-12)
    assert not np.allclose(ms_interaction(4 * np.pi), np.eye(16), atol=1e-3)
    assert np.allclose(ms_interaction(0.0), np.eye(16), atol=1e-14)


def test_transition_rotation_2pi_spinor():
    # two-ion operator: ion 0 in levels {0, 2} picks up the spinor -1,
    # every other level (and all of ion 1) is untouched
    u = transition_rotation(0, 2, 2 * np.pi, 0)
    d = np.diag(u)
    assert np.allclose(d[0:4], -1.0, atol=1e-12)    # ion 0 in level 0
    assert np.allclose(d[8:12], -1.0, atol=1e-12)   # ion 0 in level 2
    assert np.allclose(d[4:8], 1.0, atol=1e-12)     # ion 0 in level 1
    assert np.allclose(d[12:16], 1.0, atol=1e-12)   # ion 0 in level 3


def test_theta_prime_zero_at_minus_half_pi():
    assert theta_prime(-np.pi / 2) == pytest.approx(0.0, abs=1e-12)
    assert abs(theta_prime(-np.pi / 2 + 0.05)) > 0.01


def test_ms_composite_exact_at_symmetric_mixing():
    for tau in (0.3, 0.7, 1.2):
        _, dist = ms_composite_xx(tau, theta0=-np.pi / 2)
        assert dist < 1e-12


def test_ms_composite_residual_grows_with_field():
    taus = []
    for b0_gauss in (0.0, 2.0, 6.0, 20.0):
        ion = replace(YB171, b_field=b0_gauss * 1e-4)
        _, dist = ms_composite_xx(0.7, ion=ion)
        taus.append(dist)
    assert all(taus[i] < taus[i + 1] for i in range(len(taus) - 1))


def _dense_selectivity(sys):
    """The selectivity error from 16 x 16 Hamiltonians and SVD norms."""
    h_full = np.zeros((16, 16), dtype=complex)
    h_approx = np.zeros((16, 16), dtype=complex)
    for n in range(2):
        ion = sys.ions[n]
        pref = sys.mode.b[n] * sys.drive.b_grad * sys.mode.epsilon
        h_full += pref * (ion.gamma_n * two_ion_op(I1Z, n)
                          + ion.gamma_e * two_ion_op(I2Z, n))
        h_approx += pref * ion.gamma_e * two_ion_op(I2Z, n)
    return float(np.linalg.norm(h_full - h_approx, 2)
                 / np.linalg.norm(h_approx, 2))


@pytest.mark.parametrize("factor", [1, 2], ids=["default", "doubled-gamma1"])
def test_large_field_selectivity_matches_dense_svd_form(factor):
    ions = (replace(YB171, gamma_n=factor * YB171.gamma_n),) * 2
    sys = TwoIonSystem(ions=ions)
    sel = large_field_selectivity(sys)
    assert sel["relative_error"] == _dense_selectivity(sys)


def test_large_field_selectivity_value_and_linearity():
    sys = _small_system()
    sel = large_field_selectivity(sys)
    assert sel["relative_error"] == pytest.approx(
        abs(YB171.gamma_n / YB171.gamma_e), rel=1e-9)
    doubled = TwoIonSystem(
        ions=(replace(YB171, gamma_n=2 * YB171.gamma_n),) * 2,
        mode=sys.mode, fock_cutoff=sys.fock_cutoff, drive=sys.drive)
    sel2 = large_field_selectivity(doubled)
    assert sel2["relative_error"] == pytest.approx(
        2 * sel["relative_error"], rel=1e-9)


# a relative miss of 2e-6 fails criterion 10; one of 5e-7 passes it
@pytest.mark.parametrize("miss, passed", [(2e-6, False), (5e-7, True)])
def test_large_field_selectivity_passed_follows_criterion_10(miss, passed):
    # ion w's gamma_n scaled by 1 + 2 miss moves the error off ion p's
    # |gamma_n / gamma_e| by the relative miss
    w = replace(YB171, gamma_n=YB171.gamma_n * (1 + 2 * miss))
    sel = large_field_selectivity(TwoIonSystem(ions=(YB171, w)))
    assert sel["relative_error"] == pytest.approx(
        sel["gamma_ratio"] * (1 + miss), rel=1e-9)
    assert sel["rel_tol"] == 1e-6
    assert sel["passed"] is passed
