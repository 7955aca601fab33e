import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from spinpair import cli, control
from spinpair.control import (MicrowaveTone, PulseSequence, RegimeWarning,
                              control_hamiltonian, propagate,
                              propagate_lab_frame, rwa_coefficients,
                              segment_unitaries)
from spinpair.ion import (I1X, I1Y, I1Z, I2X, I2Y, I2Z, YB171, eigensystem,
                          free_hamiltonian, mapping_operator)
from spinpair.linalg import expm_unitary

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
    return YB171.replace(hyperfine_a=a_s, b_field=YB171.b_field * scale)


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
    # the step times or drops a step changes the product
    p = _scaled_ion()
    e = eigensystem(p).energies
    tones = [MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.0), SILENT, SILENT]
    t, dt = 1.003e-7, 1e-10
    n = int(np.ceil(t / dt))
    block = control._LAB_BLOCK
    assert n % block != 0
    products = []
    # chunks of 1 and 2 blocks, and one chunk holding every step
    for blocks in (1, 2, -(-n // block)):
        monkeypatch.setattr(control, "_LAB_CHUNK", blocks * block)
        products.append(propagate_lab_frame(tones, p, t, dt))
    assert all(np.array_equal(u, products[-1]) for u in products)
    assert not np.allclose(products[-1],
                           propagate_lab_frame([SILENT], p, t, dt))


@pytest.mark.parametrize("m", [1, 2, 7, 259])
def test_pairwise_product_is_the_time_ordered_product(m):
    # three blocks of m random unitaries, step-last with the step axis
    # contiguous; 7 and 259 leave odd tails in some rounds
    rng = np.random.default_rng(m)
    steps = [[random_unitary(rng) for _ in range(m)] for _ in range(3)]
    us = np.ascontiguousarray(np.moveaxis(np.array(steps), 1, -1))
    got = control._pairwise_product(us)
    assert got.shape == (3, 4, 4)
    for block, product in zip(steps, got):
        u = np.eye(4, dtype=complex)
        for uk in block:
            u = uk @ u
        assert np.max(np.abs(product - u)) < 1e-13


_LAB_FRAME_SCRIPT = """
import sys
from spinpair.control import MicrowaveTone, propagate_lab_frame
from spinpair.ion import YB171, eigensystem
a_s = 2e7 * 3.141592653589793
p = YB171.replace(hyperfine_a=a_s,
                  b_field=YB171.b_field * a_s / YB171.hyperfine_a)
e = eigensystem(p).energies
tone = MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.3)
silent = MicrowaveTone(0.0, 0.0, 0.0, 0.0, 0.0)
# one period and a remainder, then 40 periods raised by matrix_power
for periods in (1.003, 40.5):
    duration = periods * 2 * 3.141592653589793 / tone.omega
    u = propagate_lab_frame([tone, silent, silent], p, duration, 1e-10)
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
    assert len(out[0]) == 2 * 2 * 16 * 16
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


def test_lab_frame_pairwise_product_matches_sequential_product():
    # 1.004 periods: the period's 1,000 steps are three full blocks and a
    # partial one, then 4 remainder steps
    p = _scaled_ion()
    es = eigensystem(p)
    tone = MicrowaveTone(1e-4, 0.0, 0.0, es.energies[0] - es.energies[2],
                         0.3)
    t, dt = 1.003e-7, 1e-10
    period = TWO_PI / abs(tone.omega)
    m = int(np.ceil(period / dt))
    assert m % control._LAB_BLOCK != 0 and m > control._LAB_BLOCK
    assert t // period == 1
    u = _midpoint_loop(p, [tone], 0.0, period, dt)
    u = _midpoint_loop(p, [tone], period, t - period, dt) @ u
    sequential = _number_basis(p, u)
    pairwise = propagate_lab_frame([tone, SILENT, SILENT], p, t, dt)
    assert np.max(np.abs(pairwise - sequential)) < 1e-11


def test_lab_frame_many_periods_match_a_sequential_loop():
    # 40 periods stepped one by one at absolute times, then half a period;
    # the drive is complex and dephased
    p = _scaled_ion()
    e = eigensystem(p).energies
    tone = MicrowaveTone(5e-5, 2.5e-5, 0.0, e[0] - e[2], 0.7)
    period = TWO_PI / abs(tone.omega)
    t, dt = 40.5 * period, 1e-9
    assert t // period == 40
    u = np.eye(4, dtype=complex)
    for q in range(40):
        u = _midpoint_loop(p, [tone], q * period, period, dt) @ u
    u = _midpoint_loop(p, [tone], 40 * period, t - 40 * period, dt) @ u
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


def _uniform_grid(tones, p, duration, dt):
    """The whole duration on one grid of ceil(duration / dt) steps: the
    integration before the period route, built from the same parts."""
    active = [(t, _drive(p, t)) for t in tones if np.any(_drive(p, t))]
    gs = np.array([g for _, g in active]).reshape(len(active), 4, 4)
    n = max(1, int(np.ceil(duration / dt)))
    step = duration / n
    x = control._chebyshev_nodes(
        [step * float(np.linalg.norm(g, 2)) for g in gs])
    grid = np.array(list(itertools.product(x, repeat=len(active)))).reshape(
        len(x) ** len(active), len(active))
    nodes = control.expm_unitary_batch(
        free_hamiltonian(p) - np.tensordot(grid, gs, axes=(1, 0)), step)
    u = np.eye(4, dtype=complex)
    buf = np.empty((4, 4, min(n, control._LAB_CHUNK)), dtype=complex)
    block = control._LAB_BLOCK
    for start in range(0, n, control._LAB_CHUNK):
        tmid = (np.arange(start, min(start + control._LAB_CHUNK, n))
                + 0.5) * step
        us = control._step_propagators(nodes, x, active, tmid,
                                       buf[..., :len(tmid)])
        full = len(tmid) - len(tmid) % block
        blocks = us[..., :full].reshape(4, 4, -1, block)
        for ub in control._pairwise_product(blocks.transpose(2, 0, 1, 3)):
            u = ub @ u
        if full < len(tmid):
            u = control._pairwise_product(us[..., full:]) @ u
    return _number_basis(p, u)


@pytest.mark.parametrize("case", ["no_tone", "static", "two_tones",
                                  "shorter_than_a_period"])
def test_lab_frame_without_a_repeated_period_keeps_one_grid(case):
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
    assert np.array_equal(propagate_lab_frame(tones, p, t, 1e-10),
                          _uniform_grid(tones, p, t, 1e-10))


def test_rwa_check_steps_one_period_per_case(monkeypatch, tmp_path):
    # each case spans 5,000 to 10,007 periods; stepping them one by one
    # formed 600,401 step propagators per case
    steps, cases = [], []
    step_propagators = control._step_propagators
    lab_frame = cli.propagate_lab_frame

    def counting(nodes, x, active, t, out):
        steps[-1] += len(t)
        return step_propagators(nodes, x, active, t, out)

    def recording(tones, p, duration, dt):
        steps.append(0)
        u = lab_frame(tones, p, duration, dt)
        cases.append((tones, duration, dt, u))
        return u
    monkeypatch.setattr(control, "_step_propagators", counting)
    monkeypatch.setattr(cli, "propagate_lab_frame", recording)
    assert cli.main(["--out", str(tmp_path), "rwa-check"]) == cli.EXIT_OK
    assert len(cases) == 3
    for (tones, duration, dt, u), n in zip(cases, steps):
        (omega,) = [t.omega for t in tones if (t.bx, t.by, t.bz) != (0, 0, 0)]
        period = TWO_PI / abs(omega)
        assert duration / period > 4999
        assert 0 < n <= 2 * math.ceil(period / dt)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4), 2) <= 1e-9


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


def _degree(bounds):
    """Smallest K >= 1 with 3^(k-1) sum_t B_t^(K+1) / (2^K (K+1)!) <= 2^-60."""
    k = 1
    while (3 ** (len(bounds) - 1) * sum(b ** (k + 1) for b in bounds)
           / (2 ** k * math.factorial(k + 1)) > 2.0 ** -60):
        k += 1
    return k


def _record_node_counts(monkeypatch):
    counts = []
    batch = control.expm_unitary_batch

    def recording(hs, t):
        counts.append(np.shape(hs)[0])
        return batch(hs, t)
    monkeypatch.setattr(control, "expm_unitary_batch", recording)
    return counts


@pytest.mark.parametrize("active", [2, 3])
def test_lab_frame_multi_tone_grid_matches_sequential_product(monkeypatch,
                                                              active):
    # by != 0 makes the drive complex; each tone has its own phase
    p = _scaled_ion()
    e = eigensystem(p).energies
    # at these drives the tensor-grid factor 3^(k-1) raises K from 4 to 5
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
    counts = _record_node_counts(monkeypatch)
    interpolated = propagate_lab_frame(tones, p, t, dt)
    assert np.max(np.abs(interpolated - sequential)) < 1e-11
    bounds = [step * np.linalg.norm(_drive(p, tone), 2)
              for tone in tones[:active]]
    assert counts == [(_degree(bounds) + 1) ** active]


def test_lab_frame_silent_tones_add_no_grid_axis(monkeypatch):
    p = _scaled_ion()
    e = eigensystem(p).energies
    tone = MicrowaveTone(1e-4, 0.0, 0.0, e[0] - e[2], 0.0)
    t, dt = 1e-8, 1e-10
    counts = _record_node_counts(monkeypatch)
    propagate_lab_frame([SILENT, tone, SILENT], p, t, dt)
    degree = _degree([t / 100 * np.linalg.norm(_drive(p, tone), 2)])
    assert degree > 1
    assert counts == [degree + 1]
    # over 2.5 periods: one call for the period grid, one for the
    # remainder's, each with K + 1 nodes for its own step
    period = TWO_PI / abs(tone.omega)
    t = 2.5 * period
    counts.clear()
    propagate_lab_frame([SILENT, tone, SILENT], p, t, dt)
    own_steps = [period / math.ceil(period / dt),
                 (t - 2 * period) / math.ceil((t - 2 * period) / dt)]
    assert counts == [
        _degree([h * np.linalg.norm(_drive(p, tone), 2)]) + 1
        for h in own_steps]
    counts.clear()
    propagate_lab_frame([SILENT, SILENT, SILENT], p, t, dt)
    assert counts == [1]
