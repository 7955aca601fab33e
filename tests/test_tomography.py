import numpy as np
import pytest

from conftest import random_density, random_unitary
from spinpair.control import PulseSequence, propagate
from spinpair.grape import standard_gate, target_in_number_basis
from spinpair.ion import (YB171, change_basis, eigensystem, mapping_operator,
                          mixing_angle)
from spinpair import tomography
from spinpair.linalg import (ChiMatrix, DensityMatrix, process_fidelity,
                             project_psd, state_fidelity)
from spinpair.tomography import (T2STAR, NoiseModel, NoisyChannel, PAULI2,
                                 apply_noise, calibrate_sigma, chi_of_unitary,
                                 noise_model, qpt, qpt_input_states, qst,
                                 qst_settings)

TWO_PI = 2 * np.pi


def test_pauli_basis_orthogonality():
    assert len(PAULI2) == 16
    for i, p in enumerate(PAULI2):
        for j, q in enumerate(PAULI2):
            want = 4.0 if i == j else 0.0
            assert np.trace(p.conj().T @ q).real == pytest.approx(want,
                                                                  abs=1e-12)


def test_calibrate_sigma_gaussian_envelope():
    t2 = 500e-6
    sigma = calibrate_sigma(t2)
    # quasi-static Gaussian dephasing decays as exp(-sigma^2 t^2 / 2);
    # the coherence time is where that envelope reaches 1/e
    assert np.exp(-sigma**2 * t2**2 / 2) == pytest.approx(np.exp(-1),
                                                          rel=1e-12)


def test_noise_model_tables():
    free = noise_model("free")
    trig = noise_model("triggered")
    assert free.sigma1 == pytest.approx(calibrate_sigma(T2STAR["free"]["13"]))
    assert trig.sigma1 == pytest.approx(
        calibrate_sigma(T2STAR["triggered"]["13"]))
    # the clock transition 2-3 is field-insensitive: same in both models
    assert free.sigma2 == pytest.approx(trig.sigma2)
    assert free.sigma1 > trig.sigma1


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma1=-1.0, sigma2=0.0, sigma4=0.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma1=0.0, sigma2=0.0, sigma4=0.0, n_samples=0)


def test_ramsey_decay_reaches_1_over_e_at_t2star():
    """Free evolution of a (1,3) superposition under calibrated noise."""
    t2 = 500e-6
    model = NoiseModel(sigma1=calibrate_sigma(t2), sigma2=0.0, sigma4=0.0,
                       n_samples=4000, rng_seed=3)
    seq = PulseSequence([t2], np.zeros((1, 3)), np.zeros((1, 3)))
    channel = apply_noise(seq, model)
    assert channel.unitaries.shape == (4000, 4, 4)
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix(np.outer(psi, psi.conj()), basis="number")
    out = channel(rho)
    coherence = 2 * abs(out.entries[0, 2])
    assert coherence == pytest.approx(np.exp(-1), abs=0.02)


def test_qst_settings_count_and_unitarity():
    settings = qst_settings()
    assert len(settings) == 16
    for u in settings:
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_qst_exact_reconstruction(rng):
    for _ in range(5):
        rho = DensityMatrix(random_density(rng), basis="number")
        est = qst(rho, shots=0, rng=rng)
        assert np.max(np.abs(est.entries - rho.entries)) < 1e-9
        assert state_fidelity(est, rho) >= 1 - 1e-6


def test_qst_rejects_spin_basis_state():
    with pytest.raises(ValueError):
        qst(DensityMatrix(np.eye(4) / 4, basis="spin"))


@pytest.mark.parametrize("shots", [0, 500])
def test_qst_batched_settings_match_per_setting_measurements(rng, shots):
    # reference: rotate and measure one setting at a time, one draw each
    rho = DensityMatrix(random_density(rng), basis="number")
    ref_rng = np.random.default_rng(11)
    probs = [tomography._read_p3((v @ rho.entries @ v.conj().T)[2, 2].real,
                                 shots, ref_rng)
             for v in qst_settings()]
    x, *_ = np.linalg.lstsq(tomography._qst_design(), np.array(probs),
                            rcond=None)
    m = sum(c * b for c, b in zip(x, tomography._QST_BASIS))
    est = qst(rho, shots=shots, rng=np.random.default_rng(11))
    assert np.array_equal(est.entries, project_psd(m))


def test_qst_sampled_converges(rng):
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), basis="number")
    est = qst(rho, shots=1_000_000, rng=rng)
    exact = qst(rho, shots=0, rng=rng)
    assert np.max(np.abs(est.entries - exact.entries)) < 1e-2


def test_qst_output_is_physical(rng):
    rho = DensityMatrix(random_density(rng), basis="number")
    est = qst(rho, shots=2000, rng=rng)
    w = np.linalg.eigvalsh(est.entries)
    assert w.min() >= -1e-12
    assert np.trace(est.entries).real == pytest.approx(1.0, abs=1e-12)


def test_qpt_input_states_span():
    states = qpt_input_states()
    assert len(states) == 16
    mats = [np.outer(s, s.conj()).ravel() for s in states]
    assert np.linalg.matrix_rank(np.array(mats), tol=1e-9) == 16


def _unitary_process(u):
    def process(rho):
        return DensityMatrix(u @ rho.entries @ u.conj().T, basis="number")
    return process


# phase1 and t2 have imaginary chi entries, so they tell chi from chi^T
@pytest.mark.parametrize("gate", ["cphase", "hadamard1", "cnot12", "phase1",
                                  "t2"])
def test_qpt_exact_on_unitaries(gate):
    target = standard_gate(gate)
    u = target_in_number_basis(target, YB171)
    chi = qpt(_unitary_process(u), shots=0)
    want = chi_of_unitary(target.matrix)
    assert process_fidelity(chi, want) >= 1 - 1e-6
    assert np.max(np.abs(chi.entries - want.entries)) < 1e-12


def test_qpt_calls_process_once_per_input_state():
    calls = []

    def process(rho):
        calls.append(rho)
        return rho
    chi = qpt(process, shots=0)
    assert len(calls) == 16
    ident = chi_of_unitary(np.eye(4, dtype=complex))
    assert process_fidelity(chi, ident) >= 1 - 1e-6


@pytest.mark.parametrize("shots", [0, 500])
def test_qpt_matches_a_per_output_reconstruction(rng, shots):
    # reference: the 16 outputs one at a time through qst and change_basis
    process = NoisyChannel(np.array([random_unitary(rng) for _ in range(3)]))
    _, theta0 = mixing_angle(YB171)
    r = mapping_operator(theta0)
    ref_rng = np.random.default_rng(5)
    outputs = []
    for psi in qpt_input_states():
        rho_s = DensityMatrix(np.outer(psi, psi.conj()), basis="spin")
        out = qst(process(change_basis(rho_s, r)),
                  shots=shots, rng=ref_rng)
        outputs.append(change_basis(out, r).entries)
    s = (np.array(outputs).reshape(16, 16).T
         @ tomography._qpt_inputs_inverse())
    p_conj = np.conj(PAULI2)
    want = project_psd(np.einsum("mac,ndb,abcd->mn", p_conj, p_conj,
                                 s.reshape(4, 4, 4, 4)) / 16)
    got = qpt(process, shots=shots, rng=np.random.default_rng(5)).entries
    assert np.max(np.abs(got - want)) <= 1e-14


def test_qpt_inputs_are_cached_and_read_only():
    _, theta0 = mixing_angle(YB171)
    inputs = tomography._qpt_inputs(theta0)
    assert tomography._qpt_inputs(theta0) is inputs
    assert len(inputs) == 16
    for rho in inputs:
        assert rho.basis == "number"
        with pytest.raises(ValueError, match="read-only"):
            rho.entries[0, 0] = 0.0


def test_chi_of_unitary_structure():
    # identity process: all weight on the II component
    chi = chi_of_unitary(np.eye(4, dtype=complex))
    want = np.zeros((16, 16))
    want[0, 0] = 1.0
    assert np.allclose(chi.entries, want, atol=1e-12)
    # any unitary gives a rank-1, trace-1 chi
    rng = np.random.default_rng(11)
    chi = chi_of_unitary(random_unitary(rng))
    w = np.linalg.eigvalsh(chi.entries)
    assert np.trace(chi.entries).real == pytest.approx(1.0, abs=1e-12)
    assert sum(w > 1e-9) == 1


def test_depolarizing_vs_identity_process_fidelity():
    def depolarize(rho):
        return DensityMatrix(np.eye(4) / 4, basis="number")
    chi = qpt(depolarize, shots=0)
    ident = chi_of_unitary(np.eye(4, dtype=complex))
    assert process_fidelity(chi, ident) == pytest.approx(1 / 16, abs=1e-9)


def test_apply_noise_zero_sigma_is_unitary():
    model = NoiseModel(sigma1=0.0, sigma2=0.0, sigma4=0.0, n_samples=3)
    omega = TWO_PI * 1e3
    seq = PulseSequence([np.pi / (2 * omega)], [[omega, 0, 0]],
                        np.zeros((1, 3)))
    channel = apply_noise(seq, model)
    assert channel.unitaries.shape == (1, 4, 4)
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    out = channel(DensityMatrix(rho, basis="number"))
    assert out.entries[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_apply_noise_and_propagate_need_no_eigh(monkeypatch, rng):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh on the propagation path")
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    seq = PulseSequence(np.full(3, 2e-5),
                        1e5 * (rng.normal(size=(3, 3))
                               + 1j * rng.normal(size=(3, 3))),
                        1e4 * rng.normal(size=(3, 3)))
    channel = apply_noise(seq, noise_model("free", n_samples=5))
    assert channel.unitaries.shape == (5, 4, 4)
    assert propagate(seq).shape == (4, 4)


def test_noisy_channel_matches_the_shot_mean_of_conjugations(rng):
    us = np.array([random_unitary(rng) for _ in range(200)])
    channel = NoisyChannel(us)
    for _ in range(5):
        rho = random_density(rng)
        want = np.mean(us @ rho @ us.conj().swapaxes(-1, -2), axis=0)
        got = channel(DensityMatrix(rho, basis="number")).entries
        assert np.max(np.abs(got - want)) <= 1e-15


def test_apply_noise_reduces_fidelity(hadamard_300us):
    seq = hadamard_300us.sequence
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    rho = DensityMatrix(rho, basis="number")
    from spinpair.control import propagate
    u = propagate(seq)
    ideal = DensityMatrix(u @ rho.entries @ u.conj().T, basis="number")
    f_free = state_fidelity(apply_noise(seq, noise_model("free"))(rho), ideal)
    f_trig = state_fidelity(
        apply_noise(seq, noise_model("triggered"))(rho), ideal)
    assert f_trig > f_free
