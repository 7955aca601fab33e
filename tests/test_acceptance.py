"""Top-level acceptance suite.

One test per release criterion; the verbose pytest line for each test is
the pass/fail record.  Measured values are printed so they appear in the
captured output on failure.
"""

import numpy as np
import pytest

from conftest import fd_gradient, final_state, random_density
from spinpair.cli import main as cli_main, read_versioned_json
from spinpair.circuits import grover_circuit, success_rate
from spinpair.control import PulseSequence, propagate
from spinpair.grape import (ALL_GATES, gradient, standard_gate,
                            target_in_number_basis)
from spinpair.ion import YB171
from spinpair.linalg import DensityMatrix, process_fidelity, state_fidelity
from spinpair.multiion import (GradientDrive, NormalMode, TwoIonSystem,
                               composite_zz, large_field_selectivity,
                               motion_disentanglement_check, ms_composite_xx)
from spinpair.tomography import (apply_noise, chi_of_unitary, noise_model,
                                 qpt, qst)

TWO_PI = 2 * np.pi


def test_criterion_01_gate_synthesis_fidelity(all_gate_pulses):
    worst = 1.0
    for name in sorted(ALL_GATES):
        res = all_gate_pulses[name]
        print(f"  {name}: fidelity {res.fidelity:.6f} "
              f"({res.iterations} iterations)")
        assert res.converged, f"{name} did not converge"
        worst = min(worst, res.fidelity)
    print(f"criterion 1: worst gate fidelity {worst:.6f} (threshold 0.999)")
    assert worst >= 0.999


def test_criterion_02_grover_search(all_gate_pulses):
    for marked in (1, 2, 3, 4):
        final = final_state(grover_circuit(marked), "ideal")
        p = success_rate(final, marked)
        print(f"  ideal marked={marked}: success {p:.12f}")
        assert p == pytest.approx(1.0, abs=1e-9)
    pulses = {k: v.sequence for k, v in all_gate_pulses.items()}
    pulses["oracle2"] = pulses["cphase"]
    final = final_state(grover_circuit(2), "pulsed", pulses)
    p = success_rate(final, 2)
    print(f"criterion 2: pulsed success rate {p:.6f} (threshold 0.99)")
    assert p >= 0.99


def test_criterion_03_composite_zz_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        sys = TwoIonSystem(
            mode=NormalMode(omega=TWO_PI * 2e6,
                            epsilon=float(rng.uniform(0.5e-9, 2e-9))),
            fock_cutoff=8,
            drive=GradientDrive(
                b_grad=float(rng.uniform(1.0, 30.0)),
                delta=TWO_PI * float(rng.uniform(0.5e3, 5e3)),
                k1=int(rng.integers(1, 4))))
        _, dist = composite_zz(sys)
        worst = max(worst, dist)
    print(f"criterion 3: worst composite-ZZ distance {worst:.3e} "
          "(threshold 1e-9) over 20 draws")
    assert worst <= 1e-9


def test_criterion_04_spin_motion_disentanglement():
    rep = motion_disentanglement_check(TwoIonSystem())
    print(f"criterion 4: spin purity {rep.spin_purity:.9f}, "
          f"residual {rep.residual:.3e}, cutoff change {rep.cutoff_change:.3e}")
    assert rep.spin_purity >= 1 - 1e-6
    assert rep.residual <= 1e-6
    assert rep.cutoff_change <= 1e-8
    assert rep.converged


def test_criterion_05_ms_composite_floor_and_monotonicity():
    _, floor = ms_composite_xx(0.7, theta0=-np.pi / 2)
    print(f"criterion 5: residual floor at theta0 = -pi/2 is {floor:.3e} "
          "(reported, not assumed zero; threshold 1e-3)")
    assert floor <= 1e-3
    residuals = [floor]
    for b0_gauss in (2.0, 6.0, 20.0):
        ion = YB171.replace(b_field=b0_gauss * 1e-4)
        _, dist = ms_composite_xx(0.7, ion=ion)
        residuals.append(dist)
        print(f"  B0 = {b0_gauss:4.1f} G: residual {dist:.3e}")
    assert all(residuals[i] < residuals[i + 1]
               for i in range(len(residuals) - 1))


def test_criterion_06_noise_model_ordering(hadamard_300us):
    seq = hadamard_300us.sequence
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    rho = DensityMatrix(rho, basis="number")
    u = propagate(seq)
    ideal = DensityMatrix(u @ rho.entries @ u.conj().T, basis="number")
    f_free = state_fidelity(apply_noise(seq, noise_model("free"))(rho), ideal)
    f_trig = state_fidelity(
        apply_noise(seq, noise_model("triggered"))(rho), ideal)
    print(f"criterion 6: 300 us Hadamard fidelity, free-running {f_free:.4f} "
          f"vs line-triggered {f_trig:.4f} (required gap 0.05)")
    assert f_trig - f_free >= 0.05


def test_criterion_07_tomography_reconstruction():
    rng = np.random.default_rng(3)
    worst_qst = 1.0
    for _ in range(5):
        rho = DensityMatrix(random_density(rng), basis="number")
        est = qst(rho, shots=0, rng=rng)
        worst_qst = min(worst_qst, state_fidelity(est, rho))
    print(f"criterion 7: worst exact-QST fidelity {worst_qst:.9f}")
    assert worst_qst >= 1 - 1e-6
    for gate in ("cphase", "hadamard1"):
        target = standard_gate(gate)
        u = target_in_number_basis(target, YB171)

        def process(r):
            return DensityMatrix(u @ r.entries @ u.conj().T, basis="number")

        chi = qpt(process, shots=0)
        want = chi_of_unitary(target.matrix)
        fid = process_fidelity(chi, want)
        gap = float(np.max(np.abs(chi.entries - want.entries)))
        print(f"  QPT {gate}: process fidelity {fid:.9f}, "
              f"max chi deviation {gap:.3e}")
        assert fid >= 1 - 1e-6
        assert gap <= 1e-6


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(17)
    target = standard_gate("cnot12")
    scalings = (0.95, 1.0, 1.05)
    worst = 0.0
    for trial in range(50):
        optimize_detunings = bool(trial % 2)
        durations, amps, dets = [], [], []
        for _ in range(2):
            scale = TWO_PI * 1e3
            durations.append(float(rng.uniform(1e-5, 1e-4)))
            amps.append([complex(*(scale * rng.normal(size=2)))
                         for _ in range(3)])
            dets.append([float(scale * rng.normal()) for _ in range(3)])
        seq = PulseSequence(durations, amps, dets)
        g = gradient(seq, target, scalings=scalings,
                     optimize_detunings=optimize_detunings)
        fd = fd_gradient(seq, target, scalings, optimize_detunings)
        rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, rel)
    print(f"criterion 8: worst gradient relative error {worst:.3e} "
          "(threshold 1e-5) over 50 instances")
    assert worst <= 1e-5


def test_criterion_09_lab_frame_vs_rwa(tmp_path):
    out = tmp_path / "rwa"
    code = cli_main(["--out", str(out), "rwa-check"])
    report = read_versioned_json(out / "rwa_check.json")
    for case in report["cases"]:
        print(f"  transition {case['transition']}: max population "
              f"difference {case['max_population_diff']:.3e}")
    worst = report["max_population_diff"]
    print(f"criterion 9: worst lab-vs-rotating population difference "
          f"{worst:.3e} (threshold 1e-3)")
    assert code == 0
    assert worst <= 1e-3


def test_criterion_10_selectivity_scaling():
    sys = TwoIonSystem()
    sel = large_field_selectivity(sys)
    ratio = abs(YB171.gamma_n / YB171.gamma_e)
    print(f"criterion 10: selectivity error {sel['relative_error']:.3e} "
          f"vs |gamma1/gamma2| = {ratio:.3e}")
    assert sel["relative_error"] == pytest.approx(ratio, rel=1e-6)
    doubled = TwoIonSystem(
        ions=(YB171.replace(gamma_n=2 * YB171.gamma_n),) * 2,
        mode=sys.mode, fock_cutoff=sys.fock_cutoff, drive=sys.drive)
    sel2 = large_field_selectivity(doubled)
    print(f"  doubled gamma1: error {sel2['relative_error']:.3e} "
          "(expect exactly twice)")
    assert sel2["relative_error"] == pytest.approx(
        2 * sel["relative_error"], rel=1e-6)
