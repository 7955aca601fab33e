import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair import cli, control
from spinpair.control import (MicrowaveTone, PulseSequence, RegimeWarning,
                              control_hamiltonian, propagate,
                              propagate_lab_frame, rwa_coefficients,
                              segment_unitaries)
from spinpair.ion import (I1X, I1Y, I1Z, I2X, I2Y, I2Z, YB171, eigensystem,
                          free_hamiltonian, mapping_operator)
from spinpair.linalg import expm_unitary, expm_unitary_batch

TWO_PI = 2 * np.pi
SILENT = MicrowaveTone(0.0, 0.0, 0.0, 0.0, 0.0)


def _segment(duration, c31=0.0, c32=0.0, c34=0.0, d1=0.0, d2=0.0, d4=0.0):
    """A one-segment pulse."""
    return PulseSequence([duration], [[c31, c32, c34]], [[d1, d2, d4]])


def test_control_hamiltonian_structure():
    (h,) = control_hamiltonian(_segment(1e-5, c31=100.0))
    expect = np.zeros((4, 4), dtype=complex)
    expect[2, 0] = expect[0, 2] = 100.0
    assert np.allclose(h, expect)
    # diagonal detunings appear undoubled on the diagonal
    (h,) = control_hamiltonian(_segment(1e-5, d1=50.0, d2=-30.0, d4=10.0))
    assert np.allclose(np.diag(h), [50.0, -30.0, 0.0, 10.0])


def test_control_hamiltonian_hermitian(rng):
    seq = PulseSequence(np.full(3, 1e-5),
                        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
                        rng.normal(size=(3, 3)))
    h = control_hamiltonian(seq)
    assert h.shape == (3, 4, 4)
    assert np.max(np.abs(h - h.conj().transpose(0, 2, 1))) < 1e-14


def test_pi_pulse_transfers_level_3_to_1():
    omega = TWO_PI * 1e3
    u = propagate(_segment(np.pi / (2 * omega), c31=omega))
    psi = u @ np.array([0, 0, 1, 0], dtype=complex)
    assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_propagate_order_convention():
    # a pi pulse on (3,1) followed by one on (3,2) must move |3> -> |1>
    # only if the (3,1) pulse acts first (latest segment leftmost)
    omega = TWO_PI * 1e3
    u = propagate(PulseSequence(np.full(2, np.pi / (2 * omega)),
                                [[omega, 0, 0], [0, omega, 0]],
                                np.zeros((2, 3))))
    psi = u @ np.array([0, 0, 1, 0], dtype=complex)
    assert abs(psi[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(split=st.floats(0.1, 0.9))
@settings(max_examples=20, deadline=None)
def test_segment_split_associativity(split):
    amps = [700 + 300j, -200j, 150.0]
    dets = [90.0, -40.0, 25.0]
    whole = propagate(PulseSequence([2e-4], [amps], [dets]))
    parts = propagate(PulseSequence([2e-4 * split, 2e-4 * (1 - split)],
                                    [amps, amps], [dets, dets]))
    assert np.max(np.abs(whole - parts)) < 1e-12


def test_json_roundtrip_bit_exact(rng):
    seq = PulseSequence(rng.uniform(1e-6, 1e-4, size=5),
                        rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)),
                        rng.normal(size=(5, 3)))
    text = seq.to_json()
    back = PulseSequence.from_json(text)
    for name in ("durations", "amps", "dets"):
        assert getattr(back, name).tobytes() == getattr(seq, name).tobytes()
    assert back.to_json() == text


def test_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        PulseSequence.from_json('{"schema_version": 99, "segments": []}')


def test_from_json_rejects_non_positive_duration():
    seg = {"duration_s": 0.0, "c31": [1.0, 0.0], "c32": [0.0, 0.0],
           "c34": [0.0, 0.0], "d1": 0.0, "d2": 0.0, "d4": 0.0}
    text = json.dumps({"schema_version": 1, "segments": [seg]})
    with pytest.raises(ValueError, match="duration"):
        PulseSequence.from_json(text)


@pytest.mark.parametrize("key, value", [("c31", [float("nan"), 0.0]),
                                        ("duration_s", float("inf")),
                                        ("d2", float("nan"))])
def test_from_json_rejects_non_finite_values(key, value):
    seg = {"duration_s": 1e-5, "c31": [1.0, 0.0], "c32": [0.0, 0.0],
           "c34": [0.0, 0.0], "d1": 0.0, "d2": 0.0, "d4": 0.0, key: value}
    text = json.dumps({"schema_version": 1, "segments": [seg]})
    with pytest.raises(ValueError, match="non-finite"):
        PulseSequence.from_json(text)


def test_segment_unitaries_match_eigh_exponentials(rng):
    """Star Hamiltonians with ||H t||_1 from 0 to 1e3 against eigh, within
    20 eps max(1, ||H t||_1) per matrix."""
    n = 12
    amps = 1e4 * (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
    dets = 1e4 * rng.normal(size=(n, 3))
    amps[0] = dets[0] = 0.0         # with the zero shot: the zero matrix
    amps[1, 1] = 0.0                # one zero coupling
    amps[2] = 0.0                   # detunings and shifts only
    diags = 1e4 * rng.normal(size=(6, 4))   # level 3 shifted too
    diags[0] = 0.0
    hs = control_hamiltonian(PulseSequence(np.ones(n), amps, dets))
    norm1 = np.abs(hs).sum(axis=-2).max(axis=-1)
    norm1[:3] = np.abs(dets[:3]).max(axis=-1) + 1.0
    durations = np.geomspace(1e-3, 1e3, n) / norm1
    seq = PulseSequence(durations, amps, dets)
    shift = np.zeros((6, 4, 4))
    shift[:, range(4), range(4)] = diags
    for h, t, uk in zip(hs, durations,
                        segment_unitaries(seq, extra_diag=diags)):
        ht = (h + shift) * t
        want = expm_unitary_batch(ht, 1.0)
        bound = 20 * np.finfo(float).eps * np.maximum(
            1.0, np.abs(ht).sum(axis=-2).max(axis=-1))
        assert np.all(np.abs(uk - want).max(axis=(-2, -1)) <= bound)
    (u0,) = segment_unitaries(PulseSequence([1e-5], amps[:1], dets[:1]),
                              extra_diag=diags[:1])
    assert np.array_equal(u0, np.eye(4)[None])


def test_segment_unitaries_extra_diag_shifts_phases():
    (u,) = segment_unitaries(_segment(1e-4),
                             extra_diag=np.array([100.0, 0.0, 0.0, 0.0]))
    assert np.angle(u[0, 0]) == pytest.approx(-100.0 * 1e-4)
    assert u[1, 1] == pytest.approx(1.0)


def test_propagate_batches_over_noise_shots(rng):
    seq = PulseSequence(rng.uniform(1e-6, 5e-5, size=5),
                        1e4 * (rng.normal(size=(5, 3))
                               + 1j * rng.normal(size=(5, 3))),
                        1e3 * rng.normal(size=(5, 3)))
    diags = 1e3 * rng.normal(size=(7, 4))
    segments = list(segment_unitaries(seq, extra_diag=diags))
    assert len(segments) == 5
    assert all(uk.shape == (7, 4, 4) for uk in segments)
    batched = propagate(seq, extra_diag=diags)
    assert np.array_equal(batched, np.array(
        [propagate(seq, extra_diag=d) for d in diags]))


def test_propagate_real_block_product_matches_the_complex_product(rng):
    n = 20
    seq = PulseSequence(rng.uniform(1e-6, 5e-5, size=n),
                        1e4 * (rng.normal(size=(n, 3))
                               + 1j * rng.normal(size=(n, 3))),
                        1e3 * rng.normal(size=(n, 3)))
    diags = 1e3 * rng.normal(size=(50, 4))
    bound = 20 * np.finfo(float).eps * n
    for shifts in (None, diags):
        want = np.eye(4, dtype=complex)
        for uk in segment_unitaries(seq, extra_diag=shifts):
            want = uk @ want
        assert np.max(np.abs(propagate(seq, extra_diag=shifts) - want)) <= bound


def test_rwa_coefficients_tone_selectivity():
    es = eigensystem(YB171)
    e = es.energies
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = rwa_coefficients(
            [MicrowaveTone(1e-6, 0, 0, e[0] - e[2], 0.0), SILENT, SILENT],
            YB171, 1e-4)
    c31, c32, c34 = seq.amps[0]
    assert c31 != 0 and c32 == 0 and c34 == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = rwa_coefficients(
            [SILENT, MicrowaveTone(0, 0, 1e-6, e[1] - e[2], 0.0), SILENT],
            YB171, 1e-4)
    c31, c32, c34 = seq.amps[0]
    assert c31 == 0 and c32 != 0 and c34 == 0


def test_rwa_coefficient_values():
    es = eigensystem(YB171)
    th = es.theta0
    b = 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = rwa_coefficients(
            [MicrowaveTone(b, 0, 0, es.energies[0] - es.energies[2], 0.0),
             SILENT, SILENT], YB171, 1e-4)
    want = 0.25 * b * (YB171.gamma_n * np.cos(th / 2)
                       + YB171.gamma_e * np.sin(th / 2))
    assert seq.durations.tolist() == [1e-4]
    assert seq.amps[0, 0] == pytest.approx(want, rel=1e-12)
    assert seq.dets[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_rwa_coefficients_amplitude_linearity():
    es = eigensystem(YB171)
    e = es.energies
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = rwa_coefficients(
            [MicrowaveTone(1e-6, 0, 0, e[0] - e[2], 0.0), SILENT, SILENT],
            YB171, 1e-4).amps[0, 0]
        two = rwa_coefficients(
            [MicrowaveTone(2e-6, 0, 0, e[0] - e[2], 0.0), SILENT, SILENT],
            YB171, 1e-4).amps[0, 0]
        c34 = rwa_coefficients(
            [SILENT, SILENT,
             MicrowaveTone(1e-6, -2e-6, 0, e[3] - e[2], 0.1)],
            YB171, 1e-4).amps[0, 2]
    assert two == pytest.approx(2 * one, rel=1e-12)
    th = es.theta0
    want = (0.25 * (1e-6 - 1j * (-2e-6))
            * (YB171.gamma_n * np.sin(th / 2)
               + YB171.gamma_e * np.cos(th / 2)) * np.exp(0.1j))
    assert c34 == pytest.approx(want, rel=1e-12)


def test_rwa_regime_warning_on_strong_drive():
    es = eigensystem(YB171)
    with pytest.warns(RegimeWarning):
        rwa_coefficients(
            [MicrowaveTone(0.1, 0, 0, es.energies[0] - es.energies[2], 0.0),
             SILENT, SILENT], YB171, 1e-4)


def _scaled_ion():
    a_s = TWO_PI * 10e6
    scale = a_s / YB171.hyperfine_a
    return replace(YB171, hyperfine_a=a_s, b_field=YB171.b_field * scale)


def test_lab_frame_zero_tones_is_free_evolution():
    p = _scaled_ion()
    es = eigensystem(p)
    t = 1e-6
    u = propagate_lab_frame([SILENT], p, t, 1e-10)
    # in the number basis free evolution is diagonal phases
    want = np.diag(np.exp(-1j * es.energies * t))
    assert np.max(np.abs(u - want)) < 1e-8


def test_lab_frame_chunks_give_the_single_batch_product(monkeypatch):
    # a driven tone makes every step different, so a chunk that restarts
    # the step times or drops a step changes the product; one tone takes
    # the period route, two tones one grid over the whole duration
    p = _scaled_ion()
    e = eigensystem(p).energies
    driven = [MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.0),
              MicrowaveTone(0.0, 1.5e-5, 1e-4, e[1] - e[2], 1.1)]
    t, dt = 1.003e-7, 1e-10
    n = int(np.ceil(t / dt))
    assert n > 256
    for tones in (driven[:1] + [SILENT] * 2, driven + [SILENT]):
        products = []
        # single steps, chunks with a partial last one, one for every step
        for chunk in (1, 7, 256, n):
            monkeypatch.setattr(control, "_LAB_CHUNK", chunk)
            products.append(propagate_lab_frame(tones, p, t, dt))
        assert all(np.array_equal(u, products[-1]) for u in products)
        assert not np.allclose(products[-1],
                               propagate_lab_frame([SILENT], p, t, dt))


_LAB_FRAME_SCRIPT = """
import sys
from dataclasses import replace
from spinpair.control import MicrowaveTone, propagate_lab_frame
from spinpair.ion import YB171, eigensystem
a_s = 2e7 * 3.141592653589793
p = replace(YB171, hyperfine_a=a_s,
            b_field=YB171.b_field * a_s / YB171.hyperfine_a)
e = eigensystem(p).energies
tone = MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.3)
silent = MicrowaveTone(0.0, 0.0, 0.0, 0.0, 0.0)
# one period and a remainder, then 40 periods raised by matrix_power
for periods in (1.003, 40.5):
    duration = periods * 2 * 3.141592653589793 / tone.omega
    u = propagate_lab_frame([tone, silent, silent], p, duration, 1e-10)
    sys.stdout.write(u.tobytes().hex())
# two tones have no common period: one grid over the whole duration
second = MicrowaveTone(0.0, 1.5e-5, 1e-4, e[1] - e[2], 1.1)
u = propagate_lab_frame([tone, second, silent], p, 3e-7, 1e-10)
sys.stdout.write(u.tobytes().hex())
"""


def test_lab_frame_does_not_depend_on_blas_threads():
    # one process per thread count, and only these two
    src = str(Path(control.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _LAB_FRAME_SCRIPT],
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(run.stdout)
    assert len(out[0]) == 3 * 2 * 16 * 16
    assert out[0] == out[1]


def _midpoint_loop(p, tones, t0, length, dt):
    """Spin-basis midpoint product over [t0, t0 + length) on
    ceil(length / dt) equal steps, one expm_unitary per step."""
    n = int(np.ceil(length / dt))
    step = length / n
    u = np.eye(4, dtype=complex)
    for j in range(n):
        t = t0 + (j + 0.5) * step
        h = free_hamiltonian(p) - sum(
            np.cos(tone.omega * t + tone.phi) * _drive(p, tone)
            for tone in tones)
        u = expm_unitary(h, step) @ u
    return u


def _number_basis(p, u):
    r = mapping_operator(eigensystem(p).theta0)
    return r.conj().T @ u @ r


@pytest.mark.parametrize("periods, dt", [(1.003, 1e-10), (40.5, 1e-9)])
def test_lab_frame_periods_match_a_sequential_loop(periods, dt):
    # every period stepped one by one at absolute times, then the
    # remainder; the drive is complex and dephased
    p = _scaled_ion()
    e = eigensystem(p).energies
    tone = MicrowaveTone(5e-5, 2.5e-5, 0.0, e[0] - e[2], 0.7)
    period = TWO_PI / abs(tone.omega)
    t = periods * period
    q = int(t // period)
    assert q == int(periods)
    u = np.eye(4, dtype=complex)
    for k in range(q):
        u = _midpoint_loop(p, [tone], k * period, period, dt) @ u
    u = _midpoint_loop(p, [tone], q * period, t - q * period, dt) @ u
    got = propagate_lab_frame([tone, SILENT, SILENT], p, t, dt)
    assert np.max(np.abs(got - _number_basis(p, u))) < 1e-11


def test_lab_frame_static_tone_is_one_exponential():
    # omega = 0: the drive is the constant cos(phi) g, no period to divide by
    p = _scaled_ion()
    tone = MicrowaveTone(1e-4, -3e-5, 2e-5, 0.0, 0.4)
    t = 1e-7
    got = propagate_lab_frame([tone, SILENT, SILENT], p, t, 1e-10)
    h = free_hamiltonian(p) - np.cos(tone.phi) * _drive(p, tone)
    assert np.max(np.abs(got - _number_basis(p, expm_unitary(h, t)))) < 1e-10


@pytest.mark.parametrize("case", ["no_tone", "static", "two_tones",
                                  "shorter_than_a_period"])
def test_lab_frame_without_a_repeated_period_keeps_one_grid(monkeypatch,
                                                            case):
    p = _scaled_ion()
    e = eigensystem(p).energies
    driven = MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.3)
    tones, t = {
        "no_tone": ([SILENT, MicrowaveTone(0.0, 0.0, 0.0, 5e8, 0.0),
                     SILENT], 3e-7),
        "static": ([MicrowaveTone(1e-4, 2e-5, 0.0, 0.0, 0.4), SILENT,
                    SILENT], 3e-7),
        "two_tones": ([driven, MicrowaveTone(0.0, 1.5e-5, 1e-4, e[1] - e[2],
                                             1.1), SILENT], 3e-7),
        "shorter_than_a_period": ([SILENT, driven, SILENT], 5e-8),
    }[case]
    calls = []
    lab_product = control._lab_product

    def recording(h0, active, duration, dt):
        calls.append(duration)
        return lab_product(h0, active, duration, dt)
    monkeypatch.setattr(control, "_lab_product", recording)
    got = propagate_lab_frame(tones, p, t, 1e-10)
    assert calls == [t]
    want = _number_basis(p, _midpoint_loop(p, tones, 0.0, t, 1e-10))
    assert np.max(np.abs(got - want)) < 1e-11


def test_rwa_check_steps_one_period_per_case(monkeypatch, tmp_path):
    # each case spans 5,000 to 10,007 periods; stepping them one by one
    # formed 600,401 step propagators per case
    steps, cases = [], []
    batch = control.expm_unitary_batch
    lab_frame = control.propagate_lab_frame

    def counting(hs, t):
        # the RWA pulse goes through here too: count only inside the
        # lab-frame call, which opens a step count and then records a case
        if len(steps) > len(cases):
            steps[-1] += len(hs)
        return batch(hs, t)

    def recording(tones, p, duration, dt):
        steps.append(0)
        u = lab_frame(tones, p, duration, dt)
        cases.append((tones, duration, dt, u))
        return u
    monkeypatch.setattr(control, "expm_unitary_batch", counting)
    monkeypatch.setattr(control, "propagate_lab_frame", recording)
    assert cli.main(["--out", str(tmp_path), "rwa-check"]) == cli.EXIT_OK
    assert len(cases) == 3
    for (tones, duration, dt, u), n in zip(cases, steps):
        (omega,) = [t.omega for t in tones if (t.bx, t.by, t.bz) != (0, 0, 0)]
        period = TWO_PI / abs(omega)
        assert duration / period > 4999
        assert 0 < n <= 2 * math.ceil(period / dt)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4), 2) <= 1e-9


def test_rwa_check_fails_on_a_wrong_rwa_map(monkeypatch, tmp_path):
    # the drives are derived from the map's own couplings, which must not
    # hide an error in the map
    rwa = control.rwa_coefficients

    def scaled(tones, p, duration):
        seq = rwa(tones, p, duration)
        return PulseSequence(seq.durations, 1.1 * seq.amps, seq.dets)
    monkeypatch.setattr(control, "rwa_coefficients", scaled)
    assert (cli.main(["--out", str(tmp_path), "rwa-check"])
            == cli.EXIT_NO_CONVERGENCE)
    report = cli.read_versioned_json(tmp_path / "rwa_check.json")
    assert report["passed"] is False


def test_lab_frame_rejects_coarse_dt():
    p = _scaled_ion()
    with pytest.raises(ValueError):
        propagate_lab_frame([SILENT], p, 1e-5, 1e-6)


@pytest.mark.parametrize("duration, dt", [(1e-6, -1e-10), (1e-6, 0.0),
                                          (-1e-6, 1e-10), (0.0, 1e-10)])
def test_lab_frame_rejects_non_positive_duration_or_dt(duration, dt):
    with pytest.raises(ValueError, match="positive"):
        propagate_lab_frame([SILENT], _scaled_ion(), duration, dt)


def test_lab_frame_coarse_dt_guard_counts_the_drive():
    # dt = 1e-10 resolves the level splittings 20 times over; a drive with
    # ||g|| ~ 8.8e9 rad/s does not fit 50 steps into its period
    p = _scaled_ion()
    e = eigensystem(p).energies
    weak = MicrowaveTone(1e-2, 0.0, 0.0, e[0] - e[2], 0.0)
    strong = MicrowaveTone(1e-1, 0.0, 0.0, e[0] - e[2], 0.0)
    propagate_lab_frame([weak, SILENT, SILENT], p, 1e-9, 1e-10)
    with pytest.raises(ValueError, match="too coarse"):
        propagate_lab_frame([strong, SILENT, SILENT], p, 1e-9, 1e-10)


def _drive(p, tone):
    return tone.bx * (p.gamma_n * I1X + p.gamma_e * I2X) + tone.by * (
        p.gamma_n * I1Y + p.gamma_e * I2Y) + tone.bz * (
        p.gamma_n * I1Z + p.gamma_e * I2Z)


def _record_step_counts(monkeypatch):
    counts = []
    batch = control.expm_unitary_batch

    def recording(hs, t):
        counts.append(len(hs))
        return batch(hs, t)
    monkeypatch.setattr(control, "expm_unitary_batch", recording)
    return counts


@pytest.mark.parametrize("active", [2, 3])
def test_lab_frame_multi_tone_grid_matches_sequential_product(monkeypatch,
                                                              active):
    # by != 0 makes the drive complex; each tone has its own phase
    p = _scaled_ion()
    e = eigensystem(p).energies
    tones = [MicrowaveTone(5e-5, 2.5e-5, 0.0, e[0] - e[2], 0.3),
             MicrowaveTone(0.0, 1.5e-5, 1e-4, e[1] - e[2], 1.1),
             MicrowaveTone(3.5e-5, -2e-5, 0.0, e[3] - e[2], -0.8)]
    tones = tones[:active] + [SILENT] * (3 - active)
    t, dt = 1.003e-7, 1e-10
    n = int(np.ceil(t / dt))
    step = t / n
    u = np.eye(4, dtype=complex)
    for j in range(n):
        h = free_hamiltonian(p) - sum(
            np.cos(tone.omega * (j + 0.5) * step + tone.phi) * _drive(p, tone)
            for tone in tones)
        u = expm_unitary(h, step) @ u
    r = mapping_operator(eigensystem(p).theta0)
    sequential = r.conj().T @ u @ r
    counts = _record_step_counts(monkeypatch)
    got = propagate_lab_frame(tones, p, t, dt)
    assert np.max(np.abs(got - sequential)) < 1e-11
    # one grid over the whole duration, one exponential per step
    assert counts == [n]


def test_lab_frame_silent_tones_add_no_grid_axis(monkeypatch):
    p = _scaled_ion()
    e = eigensystem(p).energies
    tone = MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.0)
    dt = 1e-10
    # over 2.5 periods: one call for the period grid, one for the
    # remainder's, as for the tone alone
    period = TWO_PI / abs(tone.omega)
    t = 2.5 * period
    counts = _record_step_counts(monkeypatch)
    propagate_lab_frame([SILENT, tone, SILENT], p, t, dt)
    assert counts == [math.ceil(period / dt),
                      math.ceil((t - 2 * period) / dt)]
    counts.clear()
    propagate_lab_frame([SILENT, SILENT, SILENT], p, t, dt)
    assert counts == [math.ceil(t / dt)]
