"""Command-line front end: deterministic experiment orchestration.

Subcommands: synthesize | qst | qpt | grover | multiion-verify |
noise-sweep | rwa-check.  Configuration is a JSON file (``--config``)
whose values individual flags override.  All numeric artifacts are JSON
or CSV files carrying a ``schema_version`` field; complex numbers are
serialized as [re, im] pairs.  A fixed ``--seed`` makes every artifact
byte-identical across runs.

Exit codes: 0 success, 2 non-convergence, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import multiion
from .circuits import (MODES, gate_channel, grover_circuit, run_circuit,
                       success_rate)
from .control import PulseSequence, rwa_check
from .grape import (GATE_NAMES, SYNTHESIS_VERSION, GateTarget, GrapeConfig,
                    objective, standard_gate, synthesize)
from .ion import (IonParams, YB171, change_basis, mapping_operator,
                  mixing_angle)
from .linalg import (DensityMatrix, StateVector, process_fidelity,
                     state_fidelity)
from .tomography import (T2STAR, NoiseModel, apply_noise, chi_of_unitary,
                         noise_model, qpt, qst)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_CONFIG = 3

log = logging.getLogger("spinpair")


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# configuration
#
# Every config key, with its default, is in these tables; a key's kind is
# the type of its default.  The CLI takes no other key.

_SYSTEM = multiion.TwoIonSystem()
CONFIG_SECTIONS = {
    "ion": dataclasses.asdict(YB171),
    "grape": dataclasses.asdict(GrapeConfig()),  # rng_seed: seed + 1
    # the sigmas come all three or not at all, so their defaults are never
    # used and only give their kind
    "noise": {"model": "free", "sigma1": 0.0, "sigma2": 0.0, "sigma4": 0.0,
              "n_samples": 200},
    "multiion": {"fock_cutoff": _SYSTEM.fock_cutoff,
                 "b_grad": _SYSTEM.drive.b_grad, "delta": _SYSTEM.drive.delta,
                 "k1": _SYSTEM.drive.k1, "epsilon": _SYSTEM.mode.epsilon},
}
CONFIG_TOP = {"schema_version": SCHEMA_VERSION, "seed": 0, "output_dir": "out",
              **dict.fromkeys(CONFIG_SECTIONS, {})}
_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "an object"}


def _typed(name: str, value, default):
    """``value`` checked against the kind of ``default``.  An int key
    takes a JSON integer, a float key any finite JSON number (returned as a
    float), a tuple key a list of them, and a bool, str or dict key a value
    of that type; ``true`` and ``false`` are not numbers."""
    kind = type(default)
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list of numbers, "
                              f"got {value!r}")
        return tuple(_typed(f"{name}[{i}]", x, 0.0)
                     for i, x in enumerate(value))
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float") from None
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _section(name: str, given, defaults: dict) -> dict:
    """``defaults`` with the typed values of ``given`` in place; a key that
    ``defaults`` lacks is an error."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name} must be an object, got {given!r}")
    out = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown {name} key {key!r}")
        out[key] = _typed(f"{name}.{key}", value, defaults[key])
    return out


class RunConfig:
    """Validated run configuration assembled from JSON plus flag overrides."""

    def __init__(self, data: dict | None = None, seed: int | None = None,
                 output_dir: str | None = None):
        top = _section("config", data or {}, CONFIG_TOP)
        if top["schema_version"] != SCHEMA_VERSION:
            raise ConfigError("unsupported config schema_version")
        self.seed = top["seed"] if seed is None else seed
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.output_dir = Path(top["output_dir"] if output_dir is None
                               else output_dir)

        tables = {**CONFIG_SECTIONS, "grape": {**CONFIG_SECTIONS["grape"],
                                               "rng_seed": self.seed + 1}}
        ion, grape, noise, two_ion = (_section(name, top[name], tables[name])
                                      for name in CONFIG_SECTIONS)
        sigmas = ("sigma1", "sigma2", "sigma4")
        explicit = [k for k in sigmas if k in top["noise"]]
        if explicit and (len(explicit) < 3 or "model" in top["noise"]):
            raise ConfigError("noise takes all of sigma1/sigma2/sigma4 or "
                              "none, and not next to noise.model")
        if not explicit and noise["model"] not in T2STAR:
            raise ConfigError(f"unknown noise model {noise['model']!r}")
        try:
            self.ion = IonParams(**ion)
            self.grape = GrapeConfig(**grape)
            self.noise = (NoiseModel(*(noise[k] for k in sigmas),
                                     noise["n_samples"], rng_seed=self.seed)
                          if explicit else
                          noise_model(noise["model"], noise["n_samples"],
                                      rng_seed=self.seed))
            self.multiion = multiion.TwoIonSystem(
                ions=(self.ion, self.ion),
                mode=dataclasses.replace(_SYSTEM.mode,
                                         epsilon=two_ion["epsilon"]),
                fock_cutoff=two_ion["fock_cutoff"],
                drive=dataclasses.replace(
                    _SYSTEM.drive, b_grad=two_ion["b_grad"],
                    delta=two_ion["delta"], k1=two_ion["k1"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grape_hash(self) -> str:
        """Short stable digest of the synthesis configuration and the
        synthesis code's version."""
        payload = json.dumps(
            {"grape": dataclasses.asdict(self.grape),
             "ion": dataclasses.asdict(self.ion),
             "synthesis_version": SYNTHESIS_VERSION},
            sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def load_config(path: str | None, seed: int | None,
                output_dir: str | None) -> RunConfig:
    data = None
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: JSON syntax
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    return RunConfig(data, seed=seed, output_dir=output_dir)


# ---------------------------------------------------------------------------
# serialization helpers

def _matrix(m: np.ndarray) -> list:
    m = np.asarray(m)
    return [[[x, y] for x, y in zip(re, im)]
            for re, im in zip(m.real.tolist(), m.imag.tolist())]


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    log.debug("wrote %s", path)


def _write_csv(path: Path, label: list, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema_version", SCHEMA_VERSION, *label])
        w.writerow(header)
        w.writerows([repr(x) if isinstance(x, float) else x for x in row]
                    for row in rows)
    log.debug("wrote %s", path)


def write_matrix_csv(path: Path, m: np.ndarray, label: str) -> None:
    _write_csv(path, [label], ["row", "col", "re", "im"],
               ([i, j, *xy] for i, row in enumerate(_matrix(m))
                for j, xy in enumerate(row)))


def write_rows_csv(path: Path, header: list, rows: list) -> None:
    _write_csv(path, [], header, rows)


def read_versioned_json(path: Path) -> dict:
    data = json.loads(path.read_text())
    if not (isinstance(data, dict)
            and data.get("schema_version") == SCHEMA_VERSION):
        raise ConfigError(f"{path}: not an object of schema_version "
                          f"{SCHEMA_VERSION}")
    return data


# ---------------------------------------------------------------------------
# pulse library

def _gate_target(name: str) -> GateTarget:
    try:
        return standard_gate(name)
    except KeyError as exc:
        raise ConfigError(f"unknown gate {name!r}") from exc


def pulse_path(cfg: RunConfig, gate: str) -> Path:
    return cfg.output_dir / "pulses" / f"{gate.lower()}_{cfg.grape_hash()}.json"


# A cached pulse is served only if its stored fidelity is what
# ``grape.objective`` gives for it now, to this tolerance.
PULSE_FIDELITY_TOL = 1e-9

# Pulse files parsed and checked in this process, by absolute path:
# ((st_mtime_ns, st_size), pulse with read-only arrays, converged,
# fidelity).  A file whose stat changed is read and checked again.
_PULSES = {}


def _synthesize_pulse(cfg: RunConfig, gate: str):
    """Synthesize the gate's pulse and store it in the pulse library."""
    target = _gate_target(gate)
    t0 = time.perf_counter()
    result = synthesize(target, cfg.grape, cfg.ion)
    log.info("synthesized %s: fidelity %.6f after %d iterations (%.1f s)",
             target.name, result.fidelity, result.iterations,
             time.perf_counter() - t0)
    path = pulse_path(cfg, gate)
    write_json(path, {"gate": target.name, "pulse": result.sequence.to_json(),
                      "fidelity": result.fidelity,
                      "iterations": result.iterations,
                      "converged": result.converged})
    # a rewrite inside one timestamp tick can keep the file's stat
    _PULSES.pop(path.absolute(), None)
    return target, result


def _load_pulse(cfg: RunConfig, gate: str, path: Path, stamp: tuple):
    """The memo entry of the stored pulse: (stamp, pulse, converged,
    fidelity); None if the file cannot be read as a pulse or the stored
    fidelity is not the pulse's fidelity under the current code."""
    try:
        data = read_versioned_json(path)
        seq = PulseSequence.from_json(data["pulse"])
        stored, converged = data["fidelity"], data["converged"]
    except (ValueError, KeyError, TypeError) as exc:  # JSON, schema, types
        log.warning("cached pulse for %s cannot be read (%s); synthesizing "
                    "it again: %s", gate, exc, path)
        return None
    f = objective(seq, _gate_target(gate), ion=cfg.ion,
                  scalings=cfg.grape.robustness_scalings)
    if not abs(f - stored) <= PULSE_FIDELITY_TOL:
        log.warning("cached pulse for %s stores fidelity %r but has %r; "
                    "synthesizing it again: %s", gate, stored, f, path)
        return None
    for a in (seq.durations, seq.amps, seq.dets):
        a.flags.writeable = False
    return stamp, seq, converged, stored


def ensure_pulse(cfg: RunConfig, gate: str):
    """Load the gate's pulse from the library, synthesizing on a miss.

    A file is parsed once per process (see ``_PULSES``) and served only if
    its stored fidelity is ``grape.objective`` at the run's scalings and
    ion, to ``PULSE_FIDELITY_TOL``; one that fails, or cannot be read as a
    pulse, is a miss and is overwritten.  A pulse stored with
    ``converged`` false is served with a warning."""
    path = pulse_path(cfg, gate)
    try:
        st = path.stat()
    except FileNotFoundError:
        st = None
    if st is not None:
        key, stamp = path.absolute(), (st.st_mtime_ns, st.st_size)
        hit = _PULSES.get(key)
        if hit is None or hit[0] != stamp:
            hit = _PULSES[key] = _load_pulse(cfg, gate, path, stamp)
        if hit is not None:
            _, seq, converged, fidelity = hit
            if not converged:
                log.warning("cached pulse for %s did not converge (fidelity "
                            "%.6f): %s", gate, fidelity, path)
            return seq, None
    _, result = _synthesize_pulse(cfg, gate)
    return result.sequence, result


def _gate_channel(cfg: RunConfig, gate: str, mode: str):
    """Number-basis channel of the named gate in the given mode."""
    # ideal mode needs no pulse; the pulsed modes load or synthesize one
    op = _gate_target(gate) if mode == "ideal" else ensure_pulse(cfg, gate)[0]
    return gate_channel(op, mode, cfg.noise, cfg.ion)


# level |3> (number basis): the state QST and noise-sweep prepare from
_LEVEL3 = DensityMatrix(np.diag([0, 0, 1, 0]).astype(complex),
                        basis="number")


def _level3_image(channel) -> StateVector:
    """U|3> for a one-shot channel U: the pure reference state."""
    return StateVector(channel.unitaries[0][:, 2], basis="number")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synthesize(cfg: RunConfig, args) -> int:
    target, result = _synthesize_pulse(cfg, args.gate)
    write_json(cfg.output_dir / f"synthesize_{target.name}_report.json",
               {"gate": target.name, "fidelity": result.fidelity,
                "iterations": result.iterations,
                "converged": result.converged, "seed": cfg.seed,
                "attempts": [dataclasses.asdict(a) for a in result.attempts]})
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_qst(cfg: RunConfig, args) -> int:
    if args.shots < 0:
        raise ConfigError(f"--shots must be >= 0, got {args.shots}")
    rng = np.random.default_rng(cfg.seed)
    rho = _gate_channel(cfg, args.gate, args.mode)(_LEVEL3)
    rho_est = qst(rho, shots=args.shots, rng=rng)
    ideal = _level3_image(_gate_channel(cfg, args.gate, "ideal"))
    fid = state_fidelity(rho_est, ideal)

    rho_spin = change_basis(rho_est.entries,
                            mapping_operator(mixing_angle(cfg.ion)[1]))
    out = cfg.output_dir
    stem = f"qst_{args.gate.lower()}_{args.mode.replace('+', '_')}"
    write_json(out / f"{stem}.json",
               {"gate": args.gate.lower(), "mode": args.mode,
                "shots": args.shots, "seed": cfg.seed,
                "fidelity_vs_ideal": fid,
                "rho_number": _matrix(rho_est.entries),
                "rho_spin": _matrix(rho_spin)})
    write_matrix_csv(out / f"{stem}_number.csv", rho_est.entries,
                     "rho (number basis)")
    write_matrix_csv(out / f"{stem}_spin.csv", rho_spin, "rho (spin basis)")
    log.info("QST %s/%s: fidelity vs ideal %.6f", args.gate, args.mode, fid)
    return EXIT_OK


def cmd_qpt(cfg: RunConfig, args) -> int:
    if args.shots < 0:
        raise ConfigError(f"--shots must be >= 0, got {args.shots}")
    rng = np.random.default_rng(cfg.seed)
    target = _gate_target(args.gate)
    process = _gate_channel(cfg, args.gate, args.mode)
    chi_est = qpt(process, ion=cfg.ion, shots=args.shots, rng=rng)
    chi_ideal = chi_of_unitary(target.matrix)
    fid = process_fidelity(chi_est, chi_ideal)

    out = cfg.output_dir
    stem = f"qpt_{target.name}_{args.mode.replace('+', '_')}"
    write_json(out / f"{stem}.json",
               {"gate": target.name, "mode": args.mode, "shots": args.shots,
                "seed": cfg.seed, "process_fidelity": fid,
                "chi_spin_pauli": _matrix(chi_est.entries)})
    write_matrix_csv(out / f"{stem}_chi.csv", chi_est.entries,
                     "chi (two-qubit Pauli basis, spin)")
    log.info("QPT %s/%s: process fidelity %.6f", target.name, args.mode, fid)
    return EXIT_OK


def cmd_grover(cfg: RunConfig, args) -> int:
    _gate_target(f"oracle{args.marked}")  # rejects a marked state not in 1..4
    circuit = grover_circuit(args.marked)
    report = {"marked": args.marked, "mode": args.mode, "seed": cfg.seed}
    out = cfg.output_dir
    stem = f"grover_{args.marked}_{args.mode.replace('+', '_')}"

    channels = {name: _gate_channel(cfg, name, args.mode)
                for name in dict.fromkeys(circuit)}
    shots = run_circuit(circuit, channels, cfg.ion)
    final = DensityMatrix(shots.mean(axis=0), basis="spin")
    rate = success_rate(final, args.marked)
    report["success_rate"] = rate
    if args.mode == "pulsed+noise":
        # 95 % interval of the mean over the same shots; one shot has none
        rates = shots[:, args.marked - 1, args.marked - 1].real
        half = (1.96 * float(np.std(rates, ddof=1)) / np.sqrt(len(rates))
                if len(rates) > 1 else 0.0)
        report["ci95"] = [rate - half, rate + half]

    rho_number = change_basis(final.entries,
                              mapping_operator(mixing_angle(cfg.ion)[1]))
    report["rho_spin"] = _matrix(final.entries)
    report["rho_number"] = _matrix(rho_number)
    write_json(out / f"{stem}.json", report)
    write_matrix_csv(out / f"{stem}_spin.csv", final.entries,
                     "final rho (spin basis)")
    log.info("Grover marked=%d mode=%s: success rate %.6f", args.marked,
             args.mode, rate)
    return EXIT_OK


def cmd_multiion_verify(cfg: RunConfig, args) -> int:
    for flag, uses in (("draws", "composite-zz"), ("tau", "ms-sweep")):
        if getattr(args, flag) is not None and args.check not in (uses, "all"):
            raise ConfigError(f"--{flag} applies only to {uses} and all")
    draws = multiion.COMPOSITE_ZZ_DRAWS if args.draws is None else args.draws
    tau = multiion.MS_SWEEP_TAU if args.tau is None else args.tau
    if draws < 1 or not math.isfinite(tau):
        raise ConfigError(f"need --draws >= 1 and a finite --tau, got "
                          f"{draws} and {tau}")

    sections, rows = {}, []
    if args.check in ("composite-zz", "all"):
        sections["composite_zz"], draw_rows = multiion.composite_zz_check(
            cfg.multiion, np.random.default_rng(cfg.seed), draws)
        rows += [["composite-zz", *row] for row in draw_rows]
    if args.check in ("ms-sweep", "all"):
        sweep = sections["ms_sweep"] = multiion.ms_sweep(cfg.ion, tau)
        rows += [["ms-sweep", p["b0_gauss"], "", "", p["residual"]]
                 for p in sweep["points"]]
    if args.check in ("disentanglement", "all"):
        rep = multiion.motion_disentanglement_check(cfg.multiion)
        sections["disentanglement"] = dict(dataclasses.asdict(rep),
                                           converged=rep.converged)
        rows.append(["disentanglement", rep.spin_purity, rep.residual,
                     rep.cutoff_change, int(rep.converged)])
    if args.check in ("selectivity", "all"):
        sel = sections["selectivity"] = multiion.large_field_selectivity(
            cfg.multiion)
        rows.append(["selectivity", sel["relative_error"],
                     sel["gamma_ratio"], "", ""])

    write_json(cfg.output_dir / f"multiion_{args.check}.json",
               {"check": args.check, "seed": cfg.seed, **sections})
    write_rows_csv(cfg.output_dir / f"multiion_{args.check}.csv",
                   ["check", "a", "b", "c", "value"], rows)
    # disentanglement's verdict is its ``converged``
    ok = all(s.get("passed", s.get("converged")) for s in sections.values())
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def cmd_noise_sweep(cfg: RunConfig, args) -> int:
    """State fidelity of a long Hadamard pulse under both noise models."""
    cfg_long = copy.copy(cfg)
    try:
        cfg_long.grape = dataclasses.replace(cfg.grape,
                                             total_time=args.duration)
    except ValueError as exc:
        raise ConfigError(f"--duration: {exc}") from exc

    seq, _ = ensure_pulse(cfg_long, args.gate)
    ideal = _level3_image(gate_channel(seq, "pulsed"))

    fids = {}
    for name in T2STAR:
        model = noise_model(name, cfg.noise.n_samples, rng_seed=cfg.seed)
        fids[name] = state_fidelity(apply_noise(seq, model)(_LEVEL3), ideal)
        log.info("%s noise: state fidelity %.4f", name, fids[name])

    write_json(cfg.output_dir / "noise_sweep.json",
               {"gate": args.gate.lower(), "duration": args.duration,
                "seed": cfg.seed, "fidelity_free": fids["free"],
                "fidelity_triggered": fids["triggered"],
                "gap": fids["triggered"] - fids["free"]})
    write_rows_csv(cfg.output_dir / "noise_sweep.csv",
                   ["model", "duration_s", "state_fidelity"],
                   [[name, args.duration, f] for name, f in fids.items()])
    return EXIT_OK


def cmd_rwa_check(cfg: RunConfig, args) -> int:
    """Lab-frame vs rotating-frame pi pulses at a scaled hyperfine constant."""
    report, rows = rwa_check(cfg.ion)
    log.info("rwa-check: max population difference %.2e",
             report["max_population_diff"])
    write_json(cfg.output_dir / "rwa_check.json", report)
    write_rows_csv(cfg.output_dir / "rwa_check.csv",
                   ["transition", "duration_s", "max_population_diff"], rows)
    return EXIT_OK if report["passed"] else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpair",
        description="Simulation and optimal-control toolkit for the "
                    "1-ion-2-qubit trapped-ion encoding.")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="GRAPE pulse synthesis")
    p.add_argument("gate", help=f"one of {', '.join(GATE_NAMES)}")
    p.set_defaults(func=cmd_synthesize)

    for name, func in (("qst", cmd_qst), ("qpt", cmd_qpt)):
        p = sub.add_parser(name, help=f"{name.upper()} simulation")
        p.add_argument("gate")
        p.add_argument("--mode", default="ideal", choices=MODES)
        p.add_argument("--shots", type=int, default=0,
                       help="0 = exact expectation values")
        p.set_defaults(func=func)

    p = sub.add_parser("grover", help="two-qubit Grover search")
    p.add_argument("--marked", type=int, default=2,
                   help="marked spin state, 1-based in (uu, ud, du, dd)")
    p.add_argument("--mode", default="ideal", choices=MODES)
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("multiion-verify",
                       help="two-ion entangling-sequence checks")
    p.add_argument("check", choices=["composite-zz", "ms-sweep",
                                     "disentanglement", "selectivity", "all"])
    p.add_argument("--draws", type=int,
                   help="composite-zz random drive draws (default "
                        f"{multiion.COMPOSITE_ZZ_DRAWS})")
    p.add_argument("--tau", type=float,
                   help="ms-sweep MS composite target angle (default "
                        f"{multiion.MS_SWEEP_TAU})")
    p.set_defaults(func=cmd_multiion_verify)

    p = sub.add_parser("noise-sweep",
                       help="long-pulse fidelity under both noise models")
    p.add_argument("--gate", default="hadamard1")
    p.add_argument("--duration", type=float, default=300e-6)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("rwa-check",
                       help="lab-frame vs rotating-frame validation")
    p.set_defaults(func=cmd_rwa_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig does nothing once the root logger has a handler, so the
    # level is set on this package's logger
    logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        cfg = load_config(args.config, args.seed, args.out)
    except ConfigError as exc:
        log.error("invalid configuration: %s", exc)
        return EXIT_BAD_CONFIG
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        log.error("invalid configuration: %s", exc)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
