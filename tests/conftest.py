import numpy as np
import pytest

from spinpair.circuits import gate_channel, run_circuit
from spinpair.control import PulseSequence
from spinpair.grape import (ALL_GATES, GrapeConfig, objective, standard_gate,
                            synthesize)
from spinpair.linalg import DensityMatrix


@pytest.fixture(scope="session")
def default_grape_config():
    return GrapeConfig()


@pytest.fixture(scope="session")
def all_gate_pulses(default_grape_config):
    """Synthesized pulses for the full ten-gate set (shared, ~0.3 s)."""
    results = {}
    for name in sorted(ALL_GATES + ("cphase",)):
        results[name] = synthesize(standard_gate(name), default_grape_config)
    return results


@pytest.fixture(scope="session")
def hadamard_300us():
    """A deliberately slow Hadamard pulse for noise-sensitivity studies."""
    cfg = GrapeConfig(total_time=300e-6)
    return synthesize(standard_gate("hadamard1"), cfg)


def final_state(circuit, mode="ideal", pulses=None, noise=None):
    """Shot-mean final spin-basis state of ``circuit``.  Each distinct op
    gets its channel from ``gate_channel``: its GateTarget in mode "ideal",
    ``pulses[op.name]`` in the pulsed modes."""
    ops = {op.name: op for op in circuit.ops}
    channels = {name: gate_channel(op if mode == "ideal" else pulses[name],
                                   mode, noise)
                for name, op in ops.items()}
    return DensityMatrix(run_circuit(circuit, channels).mean(axis=0),
                         basis="spin")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim=4, rank=4):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def fd_gradient(seq, target, scalings, optimize_detunings, eps=1e-3):
    """Central finite differences of the objective in the raw control
    parameters, laid out like ``grape.gradient``."""
    n = len(seq.durations)
    cols = 9 if optimize_detunings else 6
    g = np.zeros((n, cols))

    def objective_at(k, col, delta):
        # column 2a / 2a+1 is Re / Im of coupling a, column 6+b detuning b
        amps, dets = seq.amps.copy(), seq.dets.copy()
        if col < 6:
            amps[k, col // 2] += delta * (1j if col % 2 else 1)
        else:
            dets[k, col - 6] += delta
        return objective(PulseSequence(seq.durations, amps, dets), target,
                         scalings=scalings)

    for k in range(n):
        for col in range(cols):
            g[k, col] = (objective_at(k, col, eps)
                         - objective_at(k, col, -eps)) / (2 * eps)
    return g
