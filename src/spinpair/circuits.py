"""Circuit-level composition and the two-qubit Grover search.

Circuits are lists of gates acting on the two spin qubits.  Each gate
runs in one of ``MODES``: its ideal matrix, its synthesized pulse
sequence simulated in the number basis, or the pulse under quasi-static
dephasing noise.  ``gate_channel`` is the one place that maps a gate and
a mode to its number-basis channel; ``run_circuit`` composes the channels
it is given, one per gate name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import PulseSequence, propagate
from .grape import GateTarget, standard_gate, target_in_number_basis
from .ion import (IonParams, YB171, change_basis, mapping_operator,
                  mixing_angle)
from .linalg import DensityMatrix, StateVector
from .tomography import NoiseModel, NoisyChannel, apply_noise

MODES = ("ideal", "pulsed", "pulsed+noise")


@dataclass
class Circuit:
    """Ordered gate list applied to an initial spin-basis state.

    ``ops`` entries are GateTargets: ideal 4x4 spin-basis unitaries,
    resolved to channels by name when the circuit runs.
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
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "ideal":
        return NoisyChannel(target_in_number_basis(gate, ion)[None])
    if mode == "pulsed":
        return NoisyChannel(propagate(gate)[None])
    if noise is None:
        raise ValueError("pulsed+noise mode requires a NoiseModel")
    return apply_noise(gate, noise)


def run_circuit(c: Circuit, channels: dict,
                ion: IonParams = YB171) -> np.ndarray:
    """Final spin-basis density matrices of the circuit, one per shot.

    ``channels`` maps each op's name to its number-basis NoisyChannel
    (``gate_channel``).  Shape (n_shots, 4, 4), one shot if the channels
    are noiseless.  Shot k applies shot k of every op's channel: in
    "pulsed+noise" every channel draws its shifts from the same
    ``noise.rng_seed``, so shot k holds one level shift across the whole
    circuit.
    """
    psi0 = c.initial_state.amplitudes
    r = mapping_operator(mixing_angle(ion)[1])
    rho_n = change_basis(np.outer(psi0, psi0.conj()), r)
    us = np.eye(4, dtype=complex)[None]
    for op in c.ops:
        us = channels[op.name].unitaries @ us
    rho = us @ rho_n @ us.conj().transpose(0, 2, 1)
    return change_basis(rho, r)


def oracle_gate(marked: int) -> GateTarget:
    """Phase oracle: -1 on the marked spin-basis state, +1 elsewhere; the
    gate table's ``oracle<marked>``.

    ``marked`` is 1-based in the order (uu, ud, du, dd); marked = 2
    reproduces the two-qubit controlled-phase diag(1, -1, 1, 1).
    """
    if marked not in (1, 2, 3, 4):
        raise ValueError("marked must be in 1..4")
    return standard_gate(f"oracle{marked}")


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
