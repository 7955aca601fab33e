"""The benchmark's workloads: op lists, set-up and output checks.

Each op is one ``spinpair`` command line, run in-process through
``spinpair.cli.main``.  Each heavy module dominates one workload and is
nearly absent from the others:

* synth-cold: GRAPE synthesis into an empty output directory.
* noisy-tomo: noisy QPT and QST and pulsed Grover on a warm pulse cache
  (no GRAPE).
* verify: the two-ion spin-Fock checks and the lab-frame RWA check.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from spinpair import cli
from spinpair.circuits import oracle_gate
from spinpair.control import PulseSequence
from spinpair.grape import objective, standard_gate

HERE = Path(__file__).resolve().parent
PULSE_DIR = HERE / "pulses"
# generated once with `spinpair --seed 0 synthesize <gate>` at the default
# config; noisy-tomo needs exactly these
LIBRARY = ("hadamard1", "hadamard2", "c00", "oracle1", "oracle2", "oracle3",
           "oracle4")

# A cold GRAPE synthesis at the default config takes 0.2 s to over 50 s
# depending on the seed (heavy-tailed restarts and plateaus), so synth-cold
# runs the default-config kernel for a fixed iteration budget instead: one
# attempt of SYNTH_ITERS iterations towards an unreachable target.  Every op
# then does the same work whatever the seed, and reports non-convergence
# (exit code 2) by design.
#
# After its budget a gate's fidelity depends strongly on the start point
# (0.59 to 0.9996 over 80 seeds), so no single floor can tell an optimizer
# that stops early from an unlucky seed.  GRAPE's restart seed is therefore
# drawn from a pool of SYNTH_POOL seeds (the CLI default, workload seed + 1,
# for seeds below SYNTH_POOL), and baseline.json holds the fidelity the
# parent commit reached for each gate and pool seed.  An op must reach at
# most SYNTH_SLACK times that reference infidelity.
SYNTH_ITERS = 100
SYNTH_POOL = 80
SYNTH_SLACK = 2.0
SYNTH_GATES = ("hadamard1", "phase2", "t2", "cnot12")
SYNTH_REFERENCE = json.loads((HERE / "baseline.json").read_text())[
    "synth_cold_fidelity"]["reference"]


def synth_config(seed: int) -> dict:
    return {"grape": {"max_iters": SYNTH_ITERS, "n_restarts": 1,
                      "target_fidelity": 1.0,
                      "rng_seed": 1 + seed % SYNTH_POOL}}

# At the default Fock cutoff of 16, `multiion-verify all` takes about 17 s
# and varies by up to 40% run to run on a shared 2-core machine, so one run
# could time it only once.  Cutoff 8 (128- and 192-dim steps instead of 256
# and 320) keeps criterion 4's thresholds and takes about 3 s.
VERIFY_CONFIG = {"multiion": {"fock_cutoff": 8}}

# `grover --mode pulsed+noise` is not run: its report takes success_rate
# from per-gate averaged channels but ci95 from shared per-shot shifts, so
# on most seeds the rate falls outside its own interval (a known defect of
# the CLI).  noisy-tomo needs ops on which no check fails, so it runs
# Grover with the stored pulses and no noise, and times noise sampling
# through noisy QPT and QST of every stored pulse.
SHOTS_GATES = ("hadamard1", "c00", "oracle2")
QPT_SHOTS = 1000
# the stored pulses give 0.9956-0.9994 with no noise
GROVER_FLOOR = 0.99

FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    expect_rc: int = cli.EXIT_OK


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    config: Callable[[int], dict] | None = None  # seed -> --config file
    warm_pulses: bool = False    # place the stored library before any op


def _target(gate: str):
    if gate.startswith("oracle"):
        return oracle_gate(int(gate[len("oracle"):]))
    return standard_gate(gate)


WORKLOADS = {w.name: w for w in (
    Workload(
        "synth-cold",
        "cold GRAPE synthesis into an empty directory, default kernel, fixed "
        "100-iteration budget per gate: nearly all grape; no tomography, no "
        "multiion",
        tuple(Op(f"synthesize-{g}", ("synthesize", g),
                 expect_rc=cli.EXIT_NO_CONVERGENCE) for g in SYNTH_GATES),
        config=synth_config),
    Workload(
        "noisy-tomo",
        "noisy QPT and QST, pulsed Grover, warm pulse cache: tomography, "
        "circuits, control propagation and DensityMatrix; zero grape",
        tuple(Op(f"grover-{m}", ("grover", "--marked", str(m), "--mode",
                                 "pulsed")) for m in (1, 2, 3, 4))
        + tuple(Op(f"qpt-{g}", ("qpt", g, "--mode", "pulsed+noise"))
                for g in LIBRARY)
        + tuple(Op(f"qpt-{g}-shots", ("qpt", g, "--mode", "pulsed+noise",
                                      "--shots", str(QPT_SHOTS)))
                for g in SHOTS_GATES)
        + tuple(Op(f"qst-{g}", ("qst", g, "--mode", "pulsed+noise"))
                for g in LIBRARY),
        warm_pulses=True),
    Workload(
        "verify",
        "lab-frame stepping and two-ion spin-Fock integration (Fock cutoff "
        "8): control.propagate_lab_frame and multiion; no grape, no "
        "tomography",
        (Op("rwa-check", ("rwa-check",)),
         Op("multiion-verify-all", ("multiion-verify", "all"))),
        config=lambda seed: VERIFY_CONFIG),
)}


# -- set-up --------------------------------------------------------------------

def place_library(cfg: cli.RunConfig) -> list:
    """Put every stored pulse where ``cli`` looks for it; return problems.

    Each pulse must still reach fidelity 0.999 over the configured
    robustness scalings, or the warm-cache workload would measure a
    different program.
    """
    problems = []
    for gate in LIBRARY:
        data = json.loads((PULSE_DIR / f"{gate}.json").read_text())
        data.pop("schema_version")
        cli.write_json(cli.pulse_path(cfg, gate), data)
        f = objective(PulseSequence.from_json(data["pulse"]), _target(gate),
                      ion=cfg.ion, scalings=cfg.grape.robustness_scalings)
        if not f >= 0.999:
            problems.append(f"stored pulse {gate}: fidelity {f:.6f} < 0.999")
    return problems


def digests(root: Path, skip: str | None = None) -> dict:
    """SHA-256 of every file below ``root``, keyed by relative path."""
    out = {}
    for p in sorted(root.rglob("*")):
        rel = p.relative_to(root).as_posix()
        if p.is_file() and not (skip and rel.startswith(skip + "/")):
            out[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# -- output checks -------------------------------------------------------------

def _numbers(node, key=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numbers(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v, key)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield key, node


def _rates_in_unit_interval(report: dict) -> list:
    return [f"{k} = {v!r} is not a finite value in [0, 1]"
            for k, v in _numbers(report)
            if ("fidelity" in k or k.endswith("rate"))
            and not (math.isfinite(v) and 0.0 <= v <= 1.0)]


def check(op: Op, rc, cfg: cli.RunConfig, out: Path) -> list:
    """Problems with one op's exit code and artifacts; empty when correct."""
    if rc != op.expect_rc:
        return [f"exit code {rc!r}, expected {op.expect_rc}"]
    problems = []
    reports = {p.name: cli.read_versioned_json(p)
               for p in out.glob("*.json")}
    if not reports:
        return ["no JSON report written"]
    for name, report in reports.items():
        problems += [f"{name}: {msg}"
                     for msg in _rates_in_unit_interval(report)]
    verb = op.argv[0]
    if verb == "synthesize":
        problems += _check_synthesis(op.argv[1], cfg, out)
    elif verb == "grover":
        for name, r in reports.items():
            if not r["success_rate"] >= GROVER_FLOOR:
                problems.append(f"{name}: success_rate {r['success_rate']:.6f}"
                                f" < {GROVER_FLOOR}")
    elif verb == "multiion-verify":
        problems += _check_multiion(reports["multiion_all.json"])
    elif verb == "rwa-check":
        r = reports["rwa_check.json"]
        if not (r["max_population_diff"] <= 1e-3 and r["passed"]):
            problems.append(f"criterion 9: lab-vs-rotating difference "
                            f"{r['max_population_diff']:.3e} > 1e-3")
    return problems


def _check_synthesis(gate: str, cfg: cli.RunConfig, out: Path) -> list:
    report = cli.read_versioned_json(out / f"synthesize_{gate}_report.json")
    pulse = cli.read_versioned_json(cli.pulse_path(cfg, gate))
    problems = []
    budget = cfg.grape.max_iters * cfg.grape.n_restarts
    if report["iterations"] != budget:
        problems.append(f"{report['iterations']} iterations, not the full "
                        f"budget of {budget}")
    reference = SYNTH_REFERENCE[gate][cfg.grape.rng_seed - 1]
    floor = 1.0 - SYNTH_SLACK * (1.0 - reference)
    if not report["fidelity"] >= floor:
        problems.append(f"fidelity {report['fidelity']:.6f} after {budget} "
                        f"iterations is below the floor {floor:.6f}")
    f = objective(PulseSequence.from_json(pulse["pulse"]), _target(gate),
                  ion=cfg.ion, scalings=cfg.grape.robustness_scalings)
    if abs(f - report["fidelity"]) > FIDELITY_TOL:
        problems.append(f"written pulse has fidelity {f!r}, report says "
                        f"{report['fidelity']!r}")
    return problems


def _check_multiion(r: dict) -> list:
    problems = []
    if not r["composite_zz"]["max_distance"] <= 1e-9:
        problems.append(f"criterion 3: composite-ZZ distance "
                        f"{r['composite_zz']['max_distance']:.3e} > 1e-9")
    d = r["disentanglement"]
    if not (d["spin_purity"] >= 1 - 1e-6 and d["residual"] <= 1e-6
            and d["cutoff_change"] <= 1e-8 and d["converged"]):
        problems.append(f"criterion 4: disentanglement {d} misses its "
                        "thresholds")
    return problems
