"""Circuit-level composition and the two-qubit Grover search.

Circuits are lists of gates acting on the two spin qubits.  They can be
evaluated with ideal matrices, with synthesized pulse sequences simulated
in the number basis, or with pulses plus quasi-static dephasing noise.
``gate_channel`` is the one place that maps a gate and a mode to its
number-basis channel; the circuit runner and the CLI both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import PulseSequence, propagate
from .grape import GateTarget, standard_gate, target_in_number_basis
from .ion import IonParams, YB171, eigensystem
from .linalg import DensityMatrix, StateVector
from .tomography import NoiseModel, NoisyChannel, apply_noise

_MODES = ("ideal", "pulsed", "pulsed+noise")


class MissingPulseError(KeyError):
    """A pulsed-mode run lacks a pulse sequence for some circuit op."""


@dataclass
class Circuit:
    """Ordered gate list applied to an initial spin-basis state.

    ``ops`` entries are GateTargets: ideal 4x4 spin-basis unitaries,
    resolved to pulse sequences by name in the pulsed modes.
    """

    ops: list
    initial_state: StateVector = field(
        default_factory=lambda: StateVector(
            np.array([1, 0, 0, 0], dtype=complex), basis="spin"))

    def __post_init__(self):
        for op in self.ops:
            if not isinstance(op, GateTarget):
                raise TypeError(f"circuit op {op!r} is not a GateTarget")
        if self.initial_state.basis != "spin":
            raise ValueError("initial_state must be in the spin basis")


def gate_channel(gate: GateTarget | PulseSequence, mode: str,
                 noise: NoiseModel | None = None,
                 ion: IonParams = YB171) -> NoisyChannel:
    """Number-basis channel of one gate in the given mode.

    ``gate`` is a GateTarget in mode "ideal" (its matrix conjugated into
    the number basis) and a PulseSequence in the pulsed modes: "pulsed"
    gives the pulse's propagator, "pulsed+noise" the shot unitaries of
    ``apply_noise``.  ``unitaries`` is (n_shots, 4, 4), one shot if noiseless.
    """
    if mode == "ideal":
        return NoisyChannel(target_in_number_basis(gate, ion)[None])
    if mode == "pulsed":
        return NoisyChannel(propagate(gate)[None])
    return apply_noise(gate, noise)


def circuit_shots(c: Circuit, mode: str = "ideal", pulses: dict | None = None,
                  noise: NoiseModel | None = None,
                  ion: IonParams = YB171) -> np.ndarray:
    """Final spin-basis density matrices of the circuit, one per shot.

    Shape (n_shots, 4, 4).  Modes "ideal" and "pulsed" have one shot.  In
    "pulsed+noise" shot k applies the k-th level shift of ``noise`` to the
    whole circuit: every op's channel draws its shifts from the same
    ``noise.rng_seed``, so shot k of each op carries the same shift, and
    the shot's circuit unitary is the product of those op unitaries.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    psi0 = c.initial_state.amplitudes

    if mode == "ideal":
        u = np.eye(4, dtype=complex)
        for op in c.ops:
            u = op.matrix @ u
        psi = u @ psi0
        return np.outer(psi, psi.conj())[None]

    if mode == "pulsed+noise" and noise is None:
        raise ValueError("pulsed+noise mode requires a NoiseModel")
    r = eigensystem(ion).eigenvectors
    rho_n = r.conj().T @ np.outer(psi0, psi0.conj()) @ r
    us = np.eye(4, dtype=complex)[None]
    for op in c.ops:
        if op.name not in (pulses or {}):
            raise MissingPulseError(f"no pulse sequence for gate {op.name!r}")
        channel = gate_channel(pulses[op.name], mode, noise, ion)
        us = channel.unitaries @ us
    rho = us @ rho_n @ us.conj().transpose(0, 2, 1)
    return r @ rho @ r.conj().T


def run_circuit(c: Circuit, mode: str = "ideal", pulses: dict | None = None,
                noise: NoiseModel | None = None,
                ion: IonParams = YB171) -> DensityMatrix:
    """Apply the circuit and return the final spin-basis density matrix.

    mode "ideal" multiplies the GateTarget matrices; "pulsed" simulates
    each op's pulse sequence in the number basis and maps the result back
    to the spin basis through R; "pulsed+noise" draws one quasi-static
    level shift per shot from ``noise``, holds it across the whole
    circuit, and averages the final state over the shots (see
    ``circuit_shots``).
    """
    shots = circuit_shots(c, mode, pulses, noise, ion)
    return DensityMatrix(shots.mean(axis=0), basis="spin")


def oracle_gate(marked: int) -> GateTarget:
    """Phase oracle: -1 on the marked spin-basis state, +1 elsewhere.

    ``marked`` is 1-based in the order (uu, ud, du, dd); marked = 2
    reproduces the two-qubit controlled-phase diag(1, -1, 1, 1).
    """
    if marked not in (1, 2, 3, 4):
        raise ValueError("marked must be in 1..4")
    d = np.ones(4, dtype=complex)
    d[marked - 1] = -1
    return GateTarget(name=f"oracle{marked}", matrix=np.diag(d))


def grover_circuit(marked: int) -> Circuit:
    """One-iteration two-qubit Grover search for the marked spin state.

    Layout: H on both qubits, phase oracle, H on both, reflection about
    |uu> (C-00 = diag(1, -1, -1, -1)), H on both.  A two-qubit search is
    exact after a single iteration.
    """
    h1 = standard_gate("hadamard1")
    h2 = standard_gate("hadamard2")
    return Circuit(ops=[h1, h2, oracle_gate(marked), h1, h2,
                        standard_gate("c00"), h1, h2])


def success_rate(final: DensityMatrix, marked: int) -> float:
    """Population of the marked spin-basis state (1-based index)."""
    if final.basis != "spin":
        raise ValueError("success_rate expects a spin-basis state")
    if marked not in (1, 2, 3, 4):
        raise ValueError("marked must be in 1..4")
    return float(final.entries[marked - 1, marked - 1].real)
