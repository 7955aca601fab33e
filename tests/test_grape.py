import numpy as np
import pytest

from conftest import fd_gradient
from spinpair.control import PulseSequence, propagate
from spinpair.grape import (_SERIES_RT, ALL_GATES, TABLE_GATES, GateTarget,
                            GrapeConfig, _Point, gradient, objective,
                            standard_gate, synthesize,
                            target_in_number_basis)
from spinpair.ion import YB171, mapping_operator, mixing_angle
from spinpair.linalg import gate_fidelity

TWO_PI = 2 * np.pi


def _random_sequence(rng, n=4, total=1e-4, scale=2e3):
    amps, dets = [], []
    for _ in range(n):
        amps.append([complex(*(scale * rng.normal(size=2)))
                     for _ in range(3)])
        dets.append([float(scale * rng.normal()) for _ in range(3)])
    return PulseSequence(np.full(n, total / n), amps, dets)


def _degenerate_sequence(rng):
    # segment 1 is all zero (four equal eigenvalues); segment 2 drives only
    # c31 with zero detunings, so levels 2 and 4 share eigenvalue 0
    seq = _random_sequence(rng)
    seq.amps[1:3] = 0.0
    seq.amps[2, 0] = TWO_PI * 3e3 * np.exp(0.4j)
    seq.dets[1:3] = 0.0
    return seq


@pytest.mark.parametrize("make_sequence, optimize_detunings", [
    pytest.param(_random_sequence, False, id="False"),
    pytest.param(_random_sequence, True, id="True"),
    pytest.param(_degenerate_sequence, False, id="degenerate-False"),
    pytest.param(_degenerate_sequence, True, id="degenerate-True")])
def test_gradient_matches_finite_differences(make_sequence,
                                             optimize_detunings):
    rng = np.random.default_rng(5)
    target = standard_gate("cnot12")
    seq = make_sequence(rng)
    g = gradient(seq, target, scalings=(0.95, 1.0, 1.05),
                 optimize_detunings=optimize_detunings)
    fd = fd_gradient(seq, target, (0.95, 1.0, 1.05), optimize_detunings)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_gate_table_contents():
    assert len(TABLE_GATES) == 9
    assert len(ALL_GATES) == 10
    assert set(ALL_GATES) - set(TABLE_GATES) == {"c00"}
    c00 = standard_gate("c00").matrix
    assert np.allclose(c00, np.diag([1, -1, -1, -1]))
    cphase = standard_gate("cphase").matrix
    assert np.allclose(cphase, np.diag([1, -1, 1, 1]))


def test_standard_gate_case_insensitive_and_unknown():
    assert np.allclose(standard_gate("CNOT12").matrix,
                       standard_gate("cnot12").matrix)
    with pytest.raises(KeyError):
        standard_gate("toffoli")


def test_gate_target_requires_unitary():
    with pytest.raises(ValueError):
        GateTarget(name="bad", matrix=np.diag([1.0, 1.0, 1.0, 0.5]))


def test_target_in_number_basis_consistency():
    target = standard_gate("cphase")
    r = mapping_operator(mixing_angle(YB171)[1])
    got = target_in_number_basis(target, YB171)
    assert np.allclose(got, r.conj().T @ target.matrix @ r, atol=1e-14)


def test_objective_of_exact_pulse_is_one():
    # a resonant pi pulse on (3,1) realizes a known unitary; check the
    # objective against a target built from that same unitary
    omega = TWO_PI * 2e3
    seq = PulseSequence([np.pi / (2 * omega), 1e-9],
                        [[omega, 0, 0], [0, 0, 0]], np.zeros((2, 3)))
    u_number = propagate(seq)
    r = mapping_operator(mixing_angle(YB171)[1])
    target = GateTarget(name="custom", matrix=r @ u_number @ r.conj().T)
    assert objective(seq, target) == pytest.approx(1.0, abs=1e-9)


def test_identity_converges_immediately():
    cfg = GrapeConfig(max_iters=50)
    res = synthesize(standard_gate("identity"), cfg)
    assert res.converged
    assert res.fidelity >= 0.999


def test_synthesize_reaches_target_and_respects_bound(all_gate_pulses,
                                                      default_grape_config):
    res = all_gate_pulses["hadamard1"]
    assert res.converged
    assert res.fidelity >= default_grape_config.target_fidelity
    omax = default_grape_config.omega_max
    assert np.all(np.abs(res.sequence.amps) <= omax * (1 + 1e-9))


def test_synthesized_pulse_implements_gate(all_gate_pulses):
    res = all_gate_pulses["cnot12"]
    u = propagate(res.sequence)
    want = target_in_number_basis(standard_gate("cnot12"), YB171)
    assert gate_fidelity(u, want) >= 0.999


def test_synthesis_is_deterministic(default_grape_config):
    a = synthesize(standard_gate("phase1"), default_grape_config)
    b = synthesize(standard_gate("phase1"), default_grape_config)
    assert a.fidelity == b.fidelity
    assert a.sequence.to_json() == b.sequence.to_json()


def test_converged_requires_generalization(monkeypatch):
    # every attempt reaches the target, none passes the midpoint check
    monkeypatch.setattr("spinpair.grape._generalizes", lambda *a: False)
    cfg = GrapeConfig(n_segments=4, max_iters=20, n_restarts=2,
                      target_fidelity=0.01)
    res = synthesize(standard_gate("identity"), cfg)
    assert res.fidelity >= cfg.target_fidelity
    assert res.converged is False


def test_ascent_evaluates_each_point_once(monkeypatch):
    # one evaluation per point: the start point and every line-search
    # trial, each over all robustness scalings at once
    import spinpair.grape as grape
    points, clips = [], []
    point, clip = grape._Point, grape._clip_amplitudes

    def counting_point(seq, target_n, scalings, *args):
        points.append(tuple(scalings))
        return point(seq, target_n, scalings, *args)

    def counting_clip(x, cfg):
        clips.append(1)
        return clip(x, cfg)

    monkeypatch.setattr(grape, "_Point", counting_point)
    monkeypatch.setattr(grape, "_clip_amplitudes", counting_clip)
    cfg = GrapeConfig(n_segments=4, max_iters=15, n_restarts=1,
                      target_fidelity=1.0)
    res = synthesize(standard_gate("cnot12"), cfg)
    assert res.iterations == 15
    assert len(points) == len(clips) >= 1 + res.iterations
    assert all(sc == cfg.robustness_scalings for sc in points)


def _zero_detuning_sequence(rng, rt=None):
    # segment 1 has zero amplitude; segment 2, if rt is given, has
    # |c| t = rt at scaling 1
    seq = _random_sequence(rng)
    seq.dets[:] = 0.0
    seq.amps[1] = 0.0
    if rt is not None:
        seq.amps[2] *= rt / (np.linalg.norm(seq.amps[2]) * seq.durations[2])
    return seq


@pytest.mark.parametrize("scalings", [(1.0,), (0.95, 1.0, 1.05)],
                         ids=["one-scaling", "three-scalings"])
@pytest.mark.parametrize("rt", [_SERIES_RT * (1 - 1e-3),
                                _SERIES_RT * (1 + 1e-3)],
                         ids=["below-series-switch", "above-series-switch"])
def test_closed_form_gradient_matches_finite_differences(rt, scalings):
    rng = np.random.default_rng(8)
    target = standard_gate("cnot12")
    seq = _zero_detuning_sequence(rng, rt)
    g = gradient(seq, target, scalings=scalings)
    fd = fd_gradient(seq, target, scalings, False)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5
    # the segments at zero and small amplitude have partials of the same
    # order as the others, so a wrong series would show above
    assert np.min(np.max(np.abs(fd), axis=1)) > 1e-3 * np.max(np.abs(fd))


def test_closed_form_matches_eigh_kernel():
    rng = np.random.default_rng(21)
    cfg = GrapeConfig()
    target_n = target_in_number_basis(standard_gate("swap"), YB171)
    for _ in range(10):
        amps = (rng.normal(size=(4, 3))
                + 1j * rng.normal(size=(4, 3))) * cfg.omega_max / 2
        amps[1] = 0.0
        seq = PulseSequence(np.full(4, 2.5e-5), amps, np.zeros((4, 3)))
        closed = _Point(seq, target_n, cfg.robustness_scalings)
        eigh = _Point(seq, target_n, cfg.robustness_scalings, True)
        assert closed.x is not None and eigh.x is None
        assert abs(closed.fidelity - eigh.fidelity) <= 1e-15
        # the eigh kernel appends the detuning partials
        g = closed.gradient()
        g_eigh = eigh.gradient()[:g.size]
        assert np.max(np.abs(g - g_eigh)) <= 1e-13 * np.max(np.abs(g_eigh))


@pytest.mark.parametrize("n", [5, 21])
def test_closed_form_odd_segments_and_unequal_durations(n):
    # odd n leaves one segment out of the pairing; the middle segment has
    # zero amplitude
    rng = np.random.default_rng(30 + n)
    cfg = GrapeConfig()
    target = standard_gate("swap")
    target_n = target_in_number_basis(target, YB171)
    durations = (1e-4 / n) * rng.uniform(0.5, 1.5, n)
    amps = (rng.normal(size=(n, 3))
            + 1j * rng.normal(size=(n, 3))) * cfg.omega_max / 2
    amps[n // 2] = 0.0
    seq = PulseSequence(durations, amps, np.zeros((n, 3)))
    sc = cfg.robustness_scalings
    closed = _Point(seq, target_n, sc)
    eigh = _Point(seq, target_n, sc, True)
    assert closed.x is not None and eigh.x is None
    assert abs(closed.fidelity - eigh.fidelity) <= 1e-15
    g = closed.gradient()
    g_eigh = eigh.gradient()[:g.size]
    assert np.max(np.abs(g - g_eigh)) <= 1e-13 * np.max(np.abs(g_eigh))
    fd = fd_gradient(seq, target, sc, False)
    assert np.max(np.abs(g.reshape(n, 6) - fd)) / np.max(np.abs(fd)) < 1e-5


def test_non_finite_trial_raises(monkeypatch):
    # a trial point is not checked as a PulseSequence, but a non-finite
    # control value still stops the synthesis
    import spinpair.grape as grape
    monkeypatch.setattr(grape._Point, "gradient",
                        lambda self: np.full(6 * len(self.dts), np.nan))
    cfg = GrapeConfig(n_segments=4, max_iters=5, n_restarts=1)
    with pytest.raises(ValueError, match="non-finite"):
        synthesize(standard_gate("cnot12"), cfg)


def test_detuning_partials_at_zero_detunings_match_finite_differences():
    # the closed form has no detuning partials; asking for them takes the
    # eigh kernel even where every detuning is zero
    rng = np.random.default_rng(13)
    target = standard_gate("phase2")
    seq = _zero_detuning_sequence(rng)
    sc = (0.95, 1.0, 1.05)
    g = gradient(seq, target, scalings=sc, optimize_detunings=True)
    fd = fd_gradient(seq, target, sc, True)
    assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5
    assert np.max(np.abs(g[:, 6:])) > 1e-3 * np.max(np.abs(g))


@pytest.mark.parametrize("optimize_detunings", [False, True])
def test_eigh_runs_only_for_points_with_detunings(monkeypatch,
                                                 optimize_detunings):
    import spinpair.grape as grape
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(grape.np.linalg, "eigh", counting_eigh)
    cfg = GrapeConfig(n_segments=4, max_iters=5, n_restarts=1,
                      optimize_detunings=optimize_detunings)
    synthesize(standard_gate("cnot12"), cfg)
    assert (len(calls) > 0) == optimize_detunings


@pytest.mark.parametrize("optimize_detunings", [False, True])
def test_batched_scalings_match_per_scaling_definition(optimize_detunings):
    rng = np.random.default_rng(11)
    seq = _random_sequence(rng, n=5, scale=2e4)
    target = standard_gate("swap")
    sc = (0.9, 1.0, 1.1)
    f = objective(seq, target, scalings=sc)
    assert f == sum(objective(seq, target, scalings=(s,)) for s in sc) / 3
    g = gradient(seq, target, scalings=sc,
                 optimize_detunings=optimize_detunings)
    g_each = np.mean([gradient(seq, target, scalings=(s,),
                               optimize_detunings=optimize_detunings)
                      for s in sc], axis=0)
    assert np.max(np.abs(g - g_each)) <= 1e-13 * np.max(np.abs(g_each))


def test_synthesize_with_detunings():
    cfg = GrapeConfig(n_restarts=1, optimize_detunings=True)
    target = standard_gate("phase2")
    res = synthesize(target, cfg)
    assert res.converged
    assert np.any(res.sequence.dets != 0)
    assert np.all(np.abs(res.sequence.amps) <= cfg.omega_max)
    assert objective(res.sequence, target,
                     scalings=cfg.robustness_scalings) == res.fidelity


def test_start_on_the_bound_keeps_ascending(monkeypatch):
    import spinpair.grape as grape
    accepted = []
    search = grape._line_search

    def recording(*args):
        found, rejected = search(*args)
        accepted.append(None if found is None else found[1].fidelity)
        return found, rejected

    monkeypatch.setattr(grape, "_line_search", recording)
    cfg = GrapeConfig(max_iters=30, n_restarts=1, target_fidelity=1.0)
    rng = np.random.default_rng(4)
    phases = np.exp(2j * np.pi * rng.random(3 * cfg.n_segments))
    x0 = (cfg.omega_max * phases).view(float)
    target_n = target_in_number_basis(standard_gate("cnot12"), YB171)
    f0 = _Point(grape._pulse(x0, cfg), target_n,
                cfg.robustness_scalings).fidelity
    x, f, iters, _, _ = grape._lbfgs(x0, target_n, cfg)
    assert iters == cfg.max_iters == len(accepted)
    assert None not in accepted  # no line search failed
    assert np.all(np.diff([f0] + accepted) > 0)
    assert f == accepted[-1] > f0 + 0.5
    assert np.all(np.abs(x.view(complex)) <= cfg.omega_max * (1 + 1e-12))


def test_drop_outward_removes_only_the_outward_radial_part():
    import spinpair.grape as grape
    cfg = GrapeConfig(n_segments=2)
    om = cfg.omega_max
    c = np.array([om * 1j, -om, 0.5 * om, om * np.exp(0.3j), 0.0, 0.0])
    x = c.view(float)
    bound = grape._bound_couplings(x, cfg)
    assert list(bound[0]) == [0, 1, 3]
    # outward + tangential, inward + tangential, free, purely outward
    v = np.array([2j + 3, 0.5 + 1j, 1 + 1j, 4 * np.exp(0.3j), 1j, 1])
    got = grape._drop_outward(v.view(float), bound, cfg).view(complex)
    assert np.allclose(got, [3, 0.5 + 1j, 1 + 1j, 0, 1j, 1], atol=1e-15)
    assert np.array_equal(v.view(float), np.array(
        [2j + 3, 0.5 + 1j, 1 + 1j, 4 * np.exp(0.3j), 1j, 1]).view(float))


@pytest.mark.parametrize("non_ascent", [False, True],
                         ids=["first-step", "after-reset"])
def test_gradient_steps_have_norm_first_step(monkeypatch, non_ascent):
    # the first step, and with a direction that never ascends every step,
    # goes along the gradient with norm _FIRST_STEP in x / omega_max units
    import spinpair.grape as grape
    norms = []
    search = grape._line_search

    def recording(x, f, d, *args):
        norms.append(np.linalg.norm(d))
        return search(x, f, d, *args)

    monkeypatch.setattr(grape, "_line_search", recording)
    if non_ascent:
        monkeypatch.setattr(grape._History, "two_loop", lambda self, g: -g)
    cfg = GrapeConfig(max_iters=10, n_restarts=1, target_fidelity=1.0)
    res = synthesize(standard_gate("hadamard1"), cfg)
    assert norms[0] == pytest.approx(grape._FIRST_STEP, rel=1e-12)
    if non_ascent:
        # a pair with s^T y <= 0 is not kept, so its next step needs no reset
        assert 1 <= res.attempts[0].history_resets <= res.iterations - 1
        assert norms == pytest.approx([grape._FIRST_STEP] * res.iterations,
                                      rel=1e-12)
    else:
        assert res.attempts[0].history_resets == 0


def test_attempt_records():
    cfg = GrapeConfig(n_segments=4, max_iters=20, n_restarts=3,
                      target_fidelity=1.0, rng_seed=7)
    res = synthesize(standard_gate("cnot12"), cfg)
    assert [a.rng_seed for a in res.attempts] == [7, 8, 9]
    assert sum(a.iterations for a in res.attempts) == res.iterations
    assert res.fidelity == max(a.fidelity for a in res.attempts)
    # the midpoint check runs only for an attempt that reached the target
    assert all(a.midpoint_fidelity is None for a in res.attempts)
    res = synthesize(standard_gate("identity"), GrapeConfig(max_iters=50))
    (a,) = res.attempts
    assert a.fidelity >= 0.999 and 0.99 <= a.midpoint_fidelity <= 1.0
    assert a.line_search_rejections >= 0 and a.history_resets >= 0
