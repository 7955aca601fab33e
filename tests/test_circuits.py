"""Circuit composition and the two-qubit Grover search."""

import numpy as np
import pytest

from conftest import final_state
from spinpair.circuits import (Circuit, gate_channel, grover_circuit,
                               oracle_gate, success_rate)
from spinpair.control import PulseSequence, propagate
from spinpair.grape import standard_gate
from spinpair.ion import YB171, change_basis, mapping_operator, mixing_angle
from spinpair.linalg import DensityMatrix, StateVector
from spinpair.tomography import noise_model


def test_empty_circuit_is_identity():
    rho = final_state(Circuit(ops=[]))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho.entries, want, atol=1e-12)
    assert rho.basis == "spin"


def test_double_hadamard_restores_input():
    h1 = standard_gate("hadamard1")
    psi0 = StateVector(np.array([0, 0, 1, 0], dtype=complex), basis="spin")
    rho = final_state(Circuit(ops=[h1, h1], initial_state=psi0))
    assert rho.entries[2, 2].real == pytest.approx(1.0, abs=1e-12)


def test_oracle_gate_matrices():
    assert np.allclose(oracle_gate(2).matrix, standard_gate("cphase").matrix)
    for marked in (1, 2, 3, 4):
        d = np.diag(oracle_gate(marked).matrix)
        assert d[marked - 1] == -1
        assert np.sum(d) == 2
    with pytest.raises(ValueError):
        oracle_gate(0)


def test_ideal_grover_is_exact_for_all_marked_states():
    for marked in (1, 2, 3, 4):
        final = final_state(grover_circuit(marked), "ideal")
        assert success_rate(final, marked) == pytest.approx(1.0, abs=1e-9)


def test_success_rate_trivials():
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4, basis="spin")
    for marked in (1, 2, 3, 4):
        assert success_rate(mixed, marked) == pytest.approx(0.25, abs=1e-12)
    number = DensityMatrix(np.eye(4, dtype=complex) / 4, basis="number")
    with pytest.raises(ValueError):
        success_rate(number, 1)
    with pytest.raises(ValueError):
        success_rate(mixed, 5)


def test_gate_channel_rejects_unknown_mode_and_missing_noise():
    h1 = standard_gate("hadamard1")
    with pytest.raises(ValueError, match="unknown mode"):
        gate_channel(h1, "approximate")
    idle = PulseSequence(np.full(4, 1e-5), np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="requires a NoiseModel"):
        gate_channel(idle, "pulsed+noise")


def test_initial_state_must_be_spin_basis():
    psi = StateVector(np.array([1, 0, 0, 0], dtype=complex), basis="number")
    with pytest.raises(ValueError):
        Circuit(ops=[], initial_state=psi)
    with pytest.raises(TypeError):
        Circuit(ops=[np.eye(4)])


def test_pulsed_matches_ideal_through_change_basis(all_gate_pulses):
    # a single pulsed Hadamard, mapped to the number basis by hand, must
    # agree with the spin-basis output of run_circuit
    h1 = standard_gate("hadamard1")
    c = Circuit(ops=[h1])
    pulses = {k: v.sequence for k, v in all_gate_pulses.items()}
    rho_spin = final_state(c, "pulsed", pulses)
    r = mapping_operator(mixing_angle(YB171)[1])
    rho_number = change_basis(rho_spin, r)
    assert rho_number.basis == "number"
    back = change_basis(rho_number, r)
    assert np.allclose(back.entries, rho_spin.entries, atol=1e-12)
    ideal = final_state(c, "ideal")
    assert np.allclose(rho_spin.entries, ideal.entries, atol=5e-2)


def test_pulsed_grover_beats_99_percent(all_gate_pulses):
    pulses = {k: v.sequence for k, v in all_gate_pulses.items()}
    # oracle2 is exactly the controlled-phase gate, so the marked = 2
    # search can reuse the cphase pulse verbatim
    pulses["oracle2"] = pulses["cphase"]
    final = final_state(grover_circuit(2), "pulsed", pulses)
    assert success_rate(final, 2) >= 0.99


def test_pulsed_noise_mode_runs(all_gate_pulses):
    pulses = {k: v.sequence for k, v in all_gate_pulses.items()}
    pulses["oracle2"] = pulses["cphase"]
    noise = noise_model("triggered", n_samples=8, rng_seed=3)
    final = final_state(grover_circuit(2), "pulsed+noise", pulses, noise)
    assert final.basis == "spin"
    assert np.trace(final.entries).real == pytest.approx(1.0, abs=1e-9)
    assert success_rate(final, 2) >= 0.95
    # quasi-static: each shot draws one level shift (from the noise seed)
    # and holds it across the whole circuit, so the final state is the
    # shot mean of whole-circuit unitaries
    r = mapping_operator(mixing_angle(YB171)[1])
    rho_n = r.conj().T @ np.diag([1, 0, 0, 0]).astype(complex) @ r
    shifts = np.random.default_rng(noise.rng_seed).normal(
        size=(noise.n_samples, 3)) * [noise.sigma1, noise.sigma2, noise.sigma4]
    want = np.zeros((4, 4), dtype=complex)
    for d1, d2, d4 in shifts:
        u = np.eye(4, dtype=complex)
        for op in grover_circuit(2).ops:
            u = propagate(pulses[op.name],
                          extra_diag=np.array([d1, d2, 0.0, d4])) @ u
        want += r @ u @ rho_n @ u.conj().T @ r.conj().T
    want /= noise.n_samples
    assert np.allclose(final.entries, want, atol=1e-12)
