"""Command-line interface: config handling, artifacts, determinism."""

import argparse
import dataclasses
import gc
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinpair
from spinpair import cli, multiion
from spinpair.cli import (EXIT_BAD_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK,
                          SCHEMA_VERSION, ConfigError, RunConfig,
                          build_parser, main, pulse_path, read_versioned_json,
                          write_json)
from spinpair.control import PulseSequence
from spinpair.grape import SYNTHESIS_VERSION
from spinpair.multiion import DisentanglementReport
from spinpair.tomography import apply_noise
from test_artifact_digests import SMALL as DIGEST_SMALL

# a few GRAPE iterations on a coarse pulse: enough to run every mode
SMALL = {"grape": {"n_segments": 4, "max_iters": 20, "n_restarts": 1},
         "noise": {"n_samples": 4}}


def run_cli(tmp_path, *argv, config=None, name="run"):
    out = tmp_path / name
    args = []
    if config is not None:
        cfg_path = tmp_path / f"{name}_config.json"
        cfg_path.write_text(json.dumps(config))
        args += ["--config", str(cfg_path)]
    args += ["--out", str(out)]
    args += list(argv)
    return main(args), out


def test_missing_config_file_is_exit_3(tmp_path):
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o"), "grover"])
    assert code == EXIT_BAD_CONFIG


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_main_leaves_no_parser_in_cyclic_garbage(tmp_path):
    argv = ["--config", str(tmp_path / "nope.json"), "grover"]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(argv) == EXIT_BAD_CONFIG
        gc.collect()
        parsers = [o for o in gc.garbage
                   if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []


def test_unknown_config_key_is_exit_3(tmp_path):
    code, _ = run_cli(tmp_path, "grover", config={"sead": 7})
    assert code == EXIT_BAD_CONFIG


def test_bad_schema_version_is_exit_3(tmp_path):
    code, _ = run_cli(tmp_path, "grover",
                      config={"schema_version": 99})
    assert code == EXIT_BAD_CONFIG


def test_bad_section_value_is_exit_3(tmp_path):
    code, _ = run_cli(tmp_path, "grover",
                      config={"noise": {"model": "loud"}})
    assert code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("model", ["loud", "triggered"])
def test_noise_model_next_to_sigmas_is_exit_3(tmp_path, model):
    # explicit sigmas would override the model without a word
    noise = {"model": model, "sigma1": 1.0, "sigma2": 1.0, "sigma4": 1.0}
    code, _ = run_cli(tmp_path, "grover", config={"noise": noise})
    assert code == EXIT_BAD_CONFIG


@pytest.mark.parametrize("argv", [
    ["grover", "--marked", "5"], ["qst", "toffoli"], ["qpt", "oracle9"],
    ["synthesize", "toffoli"], ["noise-sweep", "--gate", "toffoli"],
    ["multiion-verify", "composite-zz", "--draws", "0"],
    ["qst", "hadamard1", "--shots", "-1"], ["qpt", "cphase", "--shots", "-3"],
    ["noise-sweep", "--duration=0"], ["noise-sweep", "--duration=-1e-4"],
    ["multiion-verify", "ms-sweep", "--draws", "5"],
    ["multiion-verify", "composite-zz", "--tau", "0.3"],
    ["--seed", "-1", "qst", "cphase"], ["noise-sweep", "--duration", "inf"],
    ["multiion-verify", "ms-sweep", "--tau", "nan"],
    ["qst", "oracle02"], ["qpt", "oracle 2"],
    ["grover", "--marked", "5", "--mode", "pulsed"]])
def test_unknown_gate_or_marked_state_is_exit_3(tmp_path, argv):
    code, out = run_cli(tmp_path, *argv)
    assert code == EXIT_BAD_CONFIG
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("config", [{"grape": grape} for grape in [
    {"total_time": 0}, {"robustness_scalings": []}, {"n_restarts": 0},
    {"omega_max": 0}, {"max_iters": 0}, {"step_size": 0},
    {"robustness_scalings": [0.95, 0.0]}, {"n_segments": 20.0},
    {"n_restarts": 1.0}, {"rng_seed": 1.5}, {"max_iters": True},
    {"optimize_detunings": "no"}, {"omega_max": True},
    {"robustness_scalings": [True, 1]}]] + [
    {"seed": 1.5}, {"seed": True}, {"noise": {"n_samples": 2.7}},
    {"multiion": {"fock_cutoff": 16.9}}, {"multiion": {"k1": 1.5}},
    {"ion": {"b_field": True}},
    {"noise": {"sigma1": True, "sigma2": 1.0, "sigma4": 1.0}},
    {"noise": {"sigma1": 1.0}}, {"seed": -1}, {"grape": {"rng_seed": -3}},
    {"ion": {"b_field": float("nan")}},
    {"grape": {"total_time": float("inf")}},
    {"grape": {"robustness_scalings": [1.0, float("inf")]}},
    {"noise": {"sigma1": float("nan"), "sigma2": 1.0, "sigma4": 1.0}},
    {"ion": {"b_field": 10**400}}, {"grape": {"omega_max": 10**400}},
    {"multiion": {"b_grad": 10**400}},
    {"noise": {"sigma1": 10**400, "sigma2": 1.0, "sigma4": 1.0}},
    {"output_dir": 5}, {"schema_version": True}, {"ion": "b_field"},
    {"multiion": {"mode_omega": 1e7}}, {"ion": {"gamma_e": 0}}],
    ids=["total_time", "robustness_scalings", "n_restarts", "omega_max",
         "max_iters", "unknown_key_step_size",
         "robustness_scalings_nonpositive",
         "n_segments_float", "n_restarts_float", "rng_seed_float",
         "max_iters_bool", "optimize_detunings_string", "omega_max_bool",
         "robustness_scalings_bool", "seed_float", "seed_bool",
         "noise_n_samples_float", "multiion_fock_cutoff_float",
         "multiion_k1_float", "ion_b_field_bool", "noise_sigma1_bool",
         "noise_sigma2_missing", "seed_negative", "rng_seed_negative",
         "ion_b_field_nan", "total_time_inf", "robustness_scalings_inf",
         "noise_sigma1_nan", "ion_b_field_overflow", "omega_max_overflow",
         "multiion_b_grad_overflow", "noise_sigma1_overflow",
         "output_dir_int", "schema_version_bool", "ion_not_an_object",
         "multiion_mode_omega", "ion_gamma_e_zero"])
def test_non_positive_grape_total_time_is_exit_3(tmp_path, config):
    code, _ = run_cli(tmp_path, "synthesize", "hadamard1", config=config)
    assert code == EXIT_BAD_CONFIG


def test_integer_spelling_of_a_grape_float_keeps_the_pulse_path():
    # JSON 125663 and 125663.0 are the same omega_max
    paths = [pulse_path(RunConfig({"grape": {"omega_max": x}}), "cphase")
             for x in (125663, 125663.0)]
    assert paths[0] == paths[1]


def test_grover_ideal_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "grover", "--marked", "3")
    assert code == EXIT_OK
    report = read_versioned_json(out / "grover_3_ideal.json")
    assert report["success_rate"] == pytest.approx(1.0, abs=1e-9)
    assert report["marked"] == 3
    assert (out / "grover_3_ideal_spin.csv").exists()


def test_grover_ideal_is_byte_deterministic(tmp_path):
    _, out1 = run_cli(tmp_path, "--seed", "5", "grover", name="a")
    _, out2 = run_cli(tmp_path, "--seed", "5", "grover", name="b")
    a = (out1 / "grover_2_ideal.json").read_bytes()
    b = (out2 / "grover_2_ideal.json").read_bytes()
    assert a == b


def test_qpt_ideal_fidelity_one(tmp_path):
    code, out = run_cli(tmp_path, "qpt", "cphase")
    assert code == EXIT_OK
    report = read_versioned_json(out / "qpt_cphase_ideal.json")
    assert report["process_fidelity"] == pytest.approx(1.0, abs=1e-6)


_QPT_SCRIPT = """
import sys
from spinpair.cli import main
for argv in (["qpt", "cphase"], ["qpt", "hadamard1", "--shots", "1000"]):
    code = main(["--seed", "0", "--out", sys.argv[1], *argv,
                 "--mode", "ideal"])
    if code:
        sys.exit(code)
"""


def test_qpt_does_not_depend_on_blas_threads(tmp_path):
    # one process per thread count, and only these two
    src = str(Path(spinpair.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _QPT_SCRIPT, str(out)],
                       env=env, capture_output=True, timeout=120, check=True)
        artifacts.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(artifacts[0]) == 4
    assert artifacts[0] == artifacts[1]


def test_qst_ideal_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "qst", "hadamard1")
    assert code == EXIT_OK
    report = read_versioned_json(out / "qst_hadamard1_ideal.json")
    assert report["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-6)
    assert len(report["rho_spin"]) == 4
    assert (out / "qst_hadamard1_ideal_number.csv").exists()
    assert (out / "qst_hadamard1_ideal_spin.csv").exists()


def test_read_versioned_json_rejects_unknown_schema(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1}))
    with pytest.raises(ConfigError):
        read_versioned_json(p)


@pytest.mark.parametrize("text", ["[]", "1", "null"])
def test_read_versioned_json_rejects_a_root_that_is_not_an_object(tmp_path,
                                                                  text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ConfigError):
        read_versioned_json(p)


def test_selectivity_check(tmp_path):
    code, out = run_cli(tmp_path, "multiion-verify", "selectivity")
    assert code == EXIT_OK
    report = read_versioned_json(out / "multiion_selectivity.json")
    assert report["selectivity"]["relative_error"] <= 1e-3
    assert report["selectivity"]["passed"] is True


def test_ms_sweep_artifact_shape(tmp_path):
    code, out = run_cli(tmp_path, "multiion-verify", "ms-sweep")
    assert code == EXIT_OK
    report = read_versioned_json(out / "multiion_ms-sweep.json")
    sweep = report["ms_sweep"]
    assert [p["b0_gauss"] for p in sweep["points"]] == [0.0, 2.0, 6.0, 20.0]
    residuals = [p["residual"] for p in sweep["points"]]
    assert residuals == sorted(residuals)
    assert sweep["monotone"] is True
    assert sweep["floor"] == residuals[0]
    assert sweep["floor_tol"] == 1e-3
    assert sweep["floor"] <= 1e-3
    assert sweep["passed"] is True


def test_ms_sweep_floor_above_criterion_5_is_exit_2(tmp_path, monkeypatch):
    # a floor of 2e-3 at 0 G that still rises with the field
    monkeypatch.setattr(multiion, "ms_composite_xx",
                        lambda tau, ion: (None, 2e-3 + ion.b_field))
    code, out = run_cli(tmp_path, "multiion-verify", "ms-sweep")
    assert code == EXIT_NO_CONVERGENCE
    sweep = read_versioned_json(out / "multiion_ms-sweep.json")["ms_sweep"]
    assert sweep["monotone"] is True
    assert sweep["floor"] == 2e-3
    assert sweep["passed"] is False


def test_disentanglement_check(tmp_path):
    code, out = run_cli(tmp_path, "multiion-verify", "disentanglement")
    assert code == EXIT_OK
    report = read_versioned_json(out / "multiion_disentanglement.json")
    d = report["disentanglement"]
    assert set(d) == {"spin_purity", "residual", "cutoff_change",
                      "converged"}
    assert d["spin_purity"] >= 1 - 1e-6
    assert d["residual"] <= 1e-6
    assert d["converged"] is (code == EXIT_OK)


# each report misses one of criterion 4's thresholds by a small margin
@pytest.mark.parametrize("report", [
    DisentanglementReport(spin_purity=1 - 2e-6, residual=0.0,
                          cutoff_change=0.0),
    DisentanglementReport(spin_purity=1.0, residual=2e-6, cutoff_change=0.0),
    DisentanglementReport(spin_purity=1.0, residual=0.0, cutoff_change=2e-8)],
    ids=["purity", "residual", "cutoff_change"])
def test_disentanglement_outside_criterion_4_is_exit_2(tmp_path, monkeypatch,
                                                       report):
    monkeypatch.setattr(multiion, "motion_disentanglement_check",
                        lambda sys_: report)
    code, out = run_cli(tmp_path, "multiion-verify", "disentanglement")
    assert code == EXIT_NO_CONVERGENCE
    d = read_versioned_json(out / "multiion_disentanglement.json")
    assert d["disentanglement"]["converged"] is False


@pytest.mark.parametrize("check", ["composite-zz", "all"])
def test_composite_zz_outside_criterion_3_is_exit_2(tmp_path, monkeypatch,
                                                    check):
    monkeypatch.setattr(multiion, "composite_zz", lambda sys_: (None, 2e-9))
    code, out = run_cli(tmp_path, "multiion-verify", check, "--draws", "2")
    assert code == EXIT_NO_CONVERGENCE
    report = read_versioned_json(out / f"multiion_{check}.json")
    assert report["composite_zz"] == {"draws": 2, "max_distance": 2e-9,
                                      "tol": 1e-9, "passed": False}


# a relative miss of 2e-6 fails criterion 10; one of 5e-7 passes it
@pytest.mark.parametrize("check, miss, exit_code", [
    ("selectivity", 2e-6, EXIT_NO_CONVERGENCE),
    ("all", 2e-6, EXIT_NO_CONVERGENCE),
    ("selectivity", 5e-7, EXIT_OK)])
def test_selectivity_exit_code_follows_criterion_10(tmp_path, monkeypatch,
                                                     check, miss, exit_code):
    select = multiion.large_field_selectivity

    def missing(sys_):
        # ion w's gamma_n scaled by 1 + 2 miss moves the error off ion p's
        # |gamma_n / gamma_e| by the relative miss
        p, w = sys_.ions
        w = dataclasses.replace(w, gamma_n=w.gamma_n * (1 + 2 * miss))
        return select(dataclasses.replace(sys_, ions=(p, w)))
    monkeypatch.setattr(multiion, "large_field_selectivity", missing)
    code, out = run_cli(tmp_path, "multiion-verify", check)
    assert code == exit_code
    report = read_versioned_json(out / f"multiion_{check}.json")
    sel = missing(RunConfig().multiion)
    assert report["selectivity"] == sel
    assert sel["relative_error"] == pytest.approx(
        sel["gamma_ratio"] * (1 + miss), rel=1e-9)
    assert sel["rel_tol"] == 1e-6
    assert sel["passed"] is (exit_code == EXIT_OK)


def test_selectivity_deterministic_across_runs(tmp_path):
    _, out1 = run_cli(tmp_path, "multiion-verify", "selectivity", name="s1")
    _, out2 = run_cli(tmp_path, "multiion-verify", "selectivity", name="s2")
    a = (out1 / "multiion_selectivity.json").read_bytes()
    b = (out2 / "multiion_selectivity.json").read_bytes()
    assert a == b


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Run the CLI with the SMALL config; all runs share one pulse cache."""
    root = tmp_path_factory.mktemp("small")

    def run(*argv, config=SMALL):
        cfg_path = root / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = root / "out"
        return main(["--config", str(cfg_path), "--out", str(out),
                     *argv]), out
    return run


def _strict_json(path):
    """The artifact parsed as strict JSON: NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"{path.name}: non-JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_synthesize_writes_pulse_and_report(small_run, caplog):
    code, out = small_run("synthesize", "hadamard1")
    report = read_versioned_json(out / "synthesize_hadamard1_report.json")
    assert code == (EXIT_OK if report["converged"] else EXIT_NO_CONVERGENCE)
    assert 0.0 <= report["fidelity"] <= 1.0
    assert report["iterations"] <= 20
    path = pulse_path(RunConfig(SMALL, output_dir=str(out)), "hadamard1")
    pulse = read_versioned_json(path)
    assert pulse["gate"] == "hadamard1"
    for key in ("fidelity", "iterations", "converged"):
        assert pulse[key] == report[key]
    # 20 iterations do not reach the target; reusing the pulse says so
    assert report["converged"] is False
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="spinpair"):
        code, _ = small_run("qst", "hadamard1", "--mode", "pulsed")
    assert code == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert any("hadamard1" in w and str(path) in w for w in warnings)


def test_pulse_from_an_older_synthesis_version_is_not_served(tmp_path,
                                                              monkeypatch):
    cfg = RunConfig(SMALL, output_dir=str(tmp_path / "run"))
    with monkeypatch.context() as m:
        m.setattr("spinpair.cli.SYNTHESIS_VERSION", SYNTHESIS_VERSION - 1)
        stale = pulse_path(cfg, "hadamard1")
    assert stale != pulse_path(cfg, "hadamard1")
    # a converged-looking pulse left by the previous synthesis code
    idle = PulseSequence(np.full(4, 1e-5), np.zeros((4, 3)), np.zeros((4, 3)))
    write_json(stale, {"gate": "hadamard1", "pulse": idle.to_json(),
                       "fidelity": 1.0, "iterations": 0, "converged": True})
    before = stale.read_bytes()
    code, _ = run_cli(tmp_path, "qst", "hadamard1", "--mode", "pulsed",
                      config=SMALL)
    assert code == EXIT_OK
    fresh = read_versioned_json(pulse_path(cfg, "hadamard1"))
    assert fresh["iterations"] > 0
    assert stale.read_bytes() == before


def test_synthesize_report_is_byte_deterministic(tmp_path):
    reports = []
    for name in ("a", "b"):
        code, out = run_cli(tmp_path, "--seed", "3", "synthesize", "cnot12",
                            config=SMALL, name=name)
        assert code == EXIT_NO_CONVERGENCE
        reports.append((out / "synthesize_cnot12_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    (attempt,) = report["attempts"]
    assert set(attempt) == {"rng_seed", "iterations", "fidelity",
                            "line_search_rejections", "history_resets",
                            "midpoint_fidelity"}
    assert (attempt["rng_seed"], attempt["iterations"]) == (4, 20)
    assert attempt["fidelity"] == report["fidelity"]
    assert attempt["midpoint_fidelity"] is None


def _stored_pulse(tmp_path, gate="hadamard1"):
    """A SMALL-config pulse synthesized into a fresh library."""
    cfg = RunConfig(SMALL, output_dir=str(tmp_path / "run"))
    _, result = cli.ensure_pulse(cfg, gate)
    assert result is not None
    return cfg, pulse_path(cfg, gate)


def test_pulse_for_a_non_default_ion_is_served_from_the_cache(tmp_path,
                                                             caplog):
    # synthesis aims at the configured ion, which the load-time fidelity
    # check uses; a low target lets the 4-segment pulse converge
    config = {"grape": {**SMALL["grape"], "target_fidelity": 0.9},
              "ion": {"b_field": 0.01}}
    cfg = RunConfig(config, output_dir=str(tmp_path / "run"))
    assert cli.ensure_pulse(cfg, "hadamard1")[1].converged
    cli._PULSES.clear()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="spinpair"):
        _, result = cli.ensure_pulse(cfg, "hadamard1")
    assert result is None
    assert caplog.records == []


def test_cached_pulse_is_read_once_and_read_only(tmp_path, monkeypatch):
    cfg, path = _stored_pulse(tmp_path)
    reads = []
    read = cli.read_versioned_json

    def counting(p):
        reads.append(p)
        return read(p)

    monkeypatch.setattr(cli, "read_versioned_json", counting)
    first, hit = cli.ensure_pulse(cfg, "hadamard1")
    second, _ = cli.ensure_pulse(cfg, "hadamard1")
    assert hit is None and first is second and reads == [path]
    assert not first.amps.flags.writeable
    assert not first.durations.flags.writeable
    assert not first.dets.flags.writeable


def test_pulse_with_a_tampered_fidelity_is_synthesized_again(tmp_path,
                                                              caplog):
    cfg, path = _stored_pulse(tmp_path)
    good = path.read_bytes()
    data = read_versioned_json(path)
    data.pop("schema_version")
    write_json(path, {**data, "fidelity": data["fidelity"] + 2e-9})
    with caplog.at_level(logging.WARNING, logger="spinpair"):
        seq, result = cli.ensure_pulse(cfg, "hadamard1")
    assert result is not None
    assert any(str(path) in r.getMessage() and "again" in r.getMessage()
               for r in caplog.records)
    assert path.read_bytes() == good
    # a difference within the tolerance is served
    write_json(path, {**data, "fidelity": data["fidelity"] + 5e-10})
    assert cli.ensure_pulse(cfg, "hadamard1")[1] is None


@pytest.mark.parametrize("damage", ["truncated", "no fidelity",
                                    "array_root", "pulse_object"])
def test_unreadable_cached_pulse_is_synthesized_again(tmp_path, caplog,
                                                      damage):
    argv = ("qst", "hadamard1", "--mode", "pulsed")
    code, out = run_cli(tmp_path, *argv, config=SMALL)
    assert code == EXIT_OK
    [path] = (out / "pulses").iterdir()
    good = path.read_bytes()
    if damage == "truncated":  # as an interrupted write leaves it
        path.write_bytes(good[:200])
    elif damage == "array_root":
        path.write_text("[]\n")
    else:
        data = read_versioned_json(path)
        del data["schema_version"]
        if damage == "no fidelity":
            del data["fidelity"]
        else:  # the pulse as an object, not its serialized string
            data["pulse"] = json.loads(data["pulse"])
        write_json(path, data)
    with caplog.at_level(logging.WARNING, logger="spinpair"):
        code, _ = run_cli(tmp_path, *argv, config=SMALL)
    assert code == EXIT_OK
    assert any(str(path) in r.getMessage()
               and "cannot be read" in r.getMessage() for r in caplog.records)
    assert path.read_bytes() == good


def test_pulse_rewritten_in_the_same_process_is_not_served_stale(tmp_path):
    cfg, path = _stored_pulse(tmp_path)
    old, _ = cli.ensure_pulse(cfg, "hadamard1")
    # one more, idle, segment: a different pulse with the same fidelity
    new = PulseSequence(np.append(old.durations, 1e-9),
                        np.vstack([old.amps, np.zeros((1, 3))]),
                        np.vstack([old.dets, np.zeros((1, 3))]))
    data = read_versioned_json(path)
    data.pop("schema_version")
    f = cli.objective(new, cli._gate_target("hadamard1"),
                      scalings=cfg.grape.robustness_scalings)
    write_json(path, {**data, "pulse": new.to_json(), "fidelity": f})
    seq, result = cli.ensure_pulse(cfg, "hadamard1")
    assert result is None
    assert len(seq.durations) == len(old.durations) + 1


@pytest.mark.parametrize("command", ["qst", "qpt"])
@pytest.mark.parametrize("mode", ["pulsed", "pulsed+noise"])
def test_tomography_pulsed_modes(small_run, command, mode):
    code, out = small_run(command, "hadamard1", "--mode", mode)
    assert code == EXIT_OK
    stem = f"{command}_hadamard1_{mode.replace('+', '_')}"
    report = _strict_json(out / f"{stem}.json")
    fid = report["fidelity_vs_ideal" if command == "qst"
                 else "process_fidelity"]
    assert 0.0 <= fid <= 1.0
    assert report["mode"] == mode


def test_grover_pulsed(small_run):
    code, out = small_run("grover", "--marked", "3", "--mode", "pulsed")
    assert code == EXIT_OK
    report = _strict_json(out / "grover_3_pulsed.json")
    assert 0.0 <= report["success_rate"] <= 1.0
    assert "ci95" not in report


@pytest.mark.parametrize("n_samples", [4, 1])
def test_grover_noisy_rate_inside_its_ci(small_run, n_samples):
    config = {**SMALL, "noise": {"n_samples": n_samples}}
    code, out = small_run("grover", "--marked", "2", "--mode",
                          "pulsed+noise", config=config)
    assert code == EXIT_OK
    report = _strict_json(out / "grover_2_pulsed_noise.json")
    lo, hi = report["ci95"]
    assert lo <= report["success_rate"] <= hi
    if n_samples == 1:
        assert lo == hi == report["success_rate"]


def test_grover_builds_one_channel_per_distinct_gate(tmp_path, monkeypatch):
    # the circuit has 8 ops but 4 distinct gates; each gate's shots are
    # drawn once and reused wherever the gate recurs
    calls = []

    def counted(seq, noise):
        calls.append(seq)
        return apply_noise(seq, noise)
    monkeypatch.setattr("spinpair.circuits.apply_noise", counted)
    code, _ = run_cli(tmp_path, "grover", "--marked", "1", "--mode",
                      "pulsed+noise", config=DIGEST_SMALL)
    assert code == EXIT_OK
    assert len(calls) == 4


def test_grover_has_no_shots_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path), "grover", "--shots", "10"])


def test_noise_sweep_artifacts(small_run):
    code, out = small_run("noise-sweep", "--duration", "1e-4")
    assert code == EXIT_OK
    report = _strict_json(out / "noise_sweep.json")
    for key in ("fidelity_free", "fidelity_triggered"):
        assert 0.0 <= report[key] <= 1.0
    assert report["gap"] == pytest.approx(
        report["fidelity_triggered"] - report["fidelity_free"])
    assert (out / "noise_sweep.csv").exists()
