"""Every CLI artifact is byte-identical to the committed digests.

A fixed list of commands covers every subcommand and every mode (ideal,
pulsed, pulsed+noise, with and without ``--shots``) at a small GRAPE
config.  They run in-process through ``cli.main`` and share one output
directory, so each pulse is synthesized once.  After each command the
files it wrote outside ``pulses/`` are digested and removed; the pulse
files are digested at the end.  ``tests/artifact_digests.json`` holds the
SHA-256 of every file and the numpy, BLAS and platform that wrote them.

A change that moves any artifact updates that file in the same commit:

    PYTHONPATH=src python tests/test_artifact_digests.py

A pulse file's name carries the hash of the synthesis config and of
``grape.SYNTHESIS_VERSION``.  A pulse whose name stays while its bytes
change was therefore made by new synthesis code under the old version, and
a cache would serve the old pulse in its place: the rewrite refuses it
until ``SYNTHESIS_VERSION`` is raised.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from spinpair.circuits import MODES
from spinpair.cli import EXIT_NO_CONVERGENCE, EXIT_OK, main
from spinpair.grape import SYNTHESIS_VERSION

DIGESTS = Path(__file__).with_name("artifact_digests.json")

# a coarse, short GRAPE run and two noise shots keep every command cheap
SMALL = {"seed": 1, "grape": {"n_segments": 4, "max_iters": 30,
                              "n_restarts": 1},
         "noise": {"n_samples": 2}}
DETUNINGS = {**SMALL, "grape": {**SMALL["grape"],
                                "optimize_detunings": True}}

# (config, argv); the detuning run synthesizes with the eigh kernel
COMMANDS = (
    [(SMALL, ("synthesize", "hadamard1")),
     (DETUNINGS, ("synthesize", "phase2"))]
    + [(SMALL, (cmd, "hadamard1", "--mode", mode, *shots))
       for cmd in ("qst", "qpt") for mode in MODES
       for shots in ((), ("--shots", "100"))]
    + [(SMALL, ("grover", "--marked", str(m), "--mode", mode))
       for m in (1, 2, 3, 4) for mode in MODES]
    + [(SMALL, ("noise-sweep", "--duration", "1e-4")),
       (SMALL, ("multiion-verify", "all")),
       (SMALL, ("multiion-verify", "composite-zz", "--draws", "2")),
       (SMALL, ("rwa-check",))])


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "platform": f"{platform.system()}-{platform.machine()}"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_commands(root: Path) -> dict:
    """Run COMMANDS below ``root``; the SHA-256 of every file written,
    keyed by ``"<argv>: <path>"`` and ``"pulses: <path>"``."""
    out = root / "out"
    digests = {}
    for n, (config, argv) in enumerate(COMMANDS):
        path = root / f"config{n}.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "--out", str(out), *argv])
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE), (argv, code)
        for p in sorted(out.glob("*")):
            if p.is_file():
                digests[f"{' '.join(argv)}: {p.name}"] = _sha256(p)
                p.unlink()
    for p in sorted((out / "pulses").glob("*")):
        digests[f"pulses: {p.name}"] = _sha256(p)
    return digests


def pulses_moved_under_their_name(want: dict, got: dict) -> list:
    """The ``pulses:`` keys in both digest maps whose digests differ."""
    return sorted(k for k in want.keys() & got.keys()
                  if k.startswith("pulses: ") and want[k] != got[k])


def test_artifacts_match_the_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = run_commands(tmp_path)
    moved = []
    for key in sorted(want["digests"].keys() | got.keys()):
        if key not in got:
            moved.append(f"{key} (not written)")
        elif key not in want["digests"]:
            moved.append(f"{key} (new)")
        elif got[key] != want["digests"][key]:
            moved.append(f"{key} (changed)")
    platform_diff = [f"{k}: {want['environment'].get(k)} recorded, {v} now"
                     for k, v in environment().items()
                     if want["environment"].get(k) != v]
    stale = pulses_moved_under_their_name(want["digests"], got)
    assert not moved, "\n  ".join(
        [f"{len(moved)} artifacts differ from {DIGESTS.name}:", *moved]
        + ([f"{len(stale)} pulses changed under their cache name: raise "
            f"grape.SYNTHESIS_VERSION (now {SYNTHESIS_VERSION})"]
           if stale else [])
        + (["under a different environment:", *platform_diff]
           if platform_diff else []))


def test_a_pulse_changed_under_its_cache_name_is_stale():
    want = {"pulses: a.json": "1", "pulses: b.json": "2", "qst: x.json": "3"}
    got = {"pulses: a.json": "1", "pulses: b.json": "9", "qst: x.json": "4",
           "pulses: c.json": "5"}
    assert pulses_moved_under_their_name(want, got) == ["pulses: b.json"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(Path(tmp))
    stale = pulses_moved_under_their_name(
        json.loads(DIGESTS.read_text())["digests"], digests)
    if stale:
        sys.exit("\n  ".join(
            [f"refusing to rewrite {DIGESTS.name}: these pulses changed "
             f"under their cache name; raise grape.SYNTHESIS_VERSION (now "
             f"{SYNTHESIS_VERSION})", *stale]))
    DIGESTS.write_text(json.dumps({"environment": environment(),
                                   "digests": digests}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
