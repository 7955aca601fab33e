import numpy as np
import pytest

from spinpair.control import PulseSegment, PulseSequence
from spinpair.grape import (ALL_GATES, GrapeConfig, objective, standard_gate,
                            synthesize)


@pytest.fixture(scope="session")
def default_grape_config():
    return GrapeConfig()


@pytest.fixture(scope="session")
def all_gate_pulses(default_grape_config):
    """Synthesized pulses for the full ten-gate set (shared, ~2-3 min)."""
    results = {}
    for name in sorted(ALL_GATES + ("cphase",)):
        results[name] = synthesize(standard_gate(name), default_grape_config)
    return results


@pytest.fixture(scope="session")
def hadamard_300us():
    """A deliberately slow Hadamard pulse for noise-sensitivity studies."""
    cfg = GrapeConfig(total_time=300e-6)
    return synthesize(standard_gate("hadamard1"), cfg)


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
    fields = ["c31", "c32", "c34"]
    n = len(seq.segments)
    cols = 9 if optimize_detunings else 6
    g = np.zeros((n, cols))

    def perturbed(k, attr, part, delta):
        segs = []
        for i, s in enumerate(seq.segments):
            kw = dict(duration=s.duration, c31=s.c31, c32=s.c32, c34=s.c34,
                      d1=s.d1, d2=s.d2, d4=s.d4)
            if i == k:
                if part == "im":
                    kw[attr] = kw[attr] + 1j * delta
                else:
                    kw[attr] = kw[attr] + delta
            segs.append(PulseSegment(**kw))
        return PulseSequence(segments=segs)

    for k in range(n):
        for a, attr in enumerate(fields):
            for b, part in enumerate(("re", "im")):
                fp = objective(perturbed(k, attr, part, eps), target,
                               scalings=scalings)
                fm = objective(perturbed(k, attr, part, -eps), target,
                               scalings=scalings)
                g[k, 2 * a + b] = (fp - fm) / (2 * eps)
        if optimize_detunings:
            for b, attr in enumerate(("d1", "d2", "d4")):
                fp = objective(perturbed(k, attr, "d", eps), target,
                               scalings=scalings)
                fm = objective(perturbed(k, attr, "d", -eps), target,
                               scalings=scalings)
                g[k, 6 + b] = (fp - fm) / (2 * eps)
    return g
