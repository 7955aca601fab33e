"""No config key or command-line option is accepted and then ignored.

Every key of the config tables in ``spinpair.cli`` and every option of
``build_parser()`` has a case here: one valid non-default value, and a
command whose artifacts must change with it.  The key and option lists
are read from the program, so one added without a case fails
``test_every_key_and_option_has_a_case``.
"""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinpair
from spinpair.cli import (CONFIG_SECTIONS, CONFIG_TOP, EXIT_BAD_CONFIG,
                          build_parser, main)

TWO_PI = 2 * np.pi

# a coarse, short GRAPE run and two noise shots keep every case cheap; the
# seed differs from the default, so every report shows that BASE was read
BASE = {"seed": 1, "grape": {"n_segments": 4, "max_iters": 10,
                             "n_restarts": 1},
        "noise": {"n_samples": 2}}
# the sigmas come all three or not at all
SIGMAS = {**BASE, "noise": {"n_samples": 2, "sigma1": 1e3, "sigma2": 1e3,
                            "sigma4": 1e3}}

SYNTH = ("synthesize", "hadamard1")
IDEAL_QST = ("qst", "cphase")
NOISY_QST = ("qst", "hadamard1", "--mode", "pulsed+noise")
DISENTANGLEMENT = ("multiion-verify", "disentanglement")

# config key -> (non-default value, command that reads it, base config)
KEY_CASES = {
    "schema_version": None,  # the default is its only valid value
    "seed": (3, ("qst", "cphase", "--shots", "100"), BASE),
    "output_dir": ("elsewhere", IDEAL_QST, BASE),
    "ion.hyperfine_a": (TWO_PI * 12.5e9, IDEAL_QST, BASE),
    "ion.gamma_n": (TWO_PI * 8e6, IDEAL_QST, BASE),
    "ion.gamma_e": (TWO_PI * -2.9e10, IDEAL_QST, BASE),
    "ion.b_field": (7e-4, IDEAL_QST, BASE),
    "grape.n_segments": (5, SYNTH, BASE),
    "grape.omega_max": (TWO_PI * 15e3, SYNTH, BASE),
    "grape.total_time": (4e-4, SYNTH, BASE),
    "grape.max_iters": (11, SYNTH, BASE),
    "grape.target_fidelity": (0.5, SYNTH, BASE),
    "grape.robustness_scalings": ([1.0], SYNTH, BASE),
    "grape.rng_seed": (7, SYNTH, BASE),
    "grape.n_restarts": (2, SYNTH, BASE),
    "grape.optimize_detunings": (True, SYNTH, BASE),
    "noise.model": ("triggered", NOISY_QST, BASE),
    "noise.sigma1": (2e3, NOISY_QST, SIGMAS),
    "noise.sigma2": (2e3, NOISY_QST, SIGMAS),
    "noise.sigma4": (2e3, NOISY_QST, SIGMAS),
    "noise.n_samples": (3, NOISY_QST, BASE),
    "multiion.fock_cutoff": (12, DISENTANGLEMENT, BASE),
    "multiion.b_grad": (20.0, DISENTANGLEMENT, BASE),
    "multiion.delta": (TWO_PI * 3e3, DISENTANGLEMENT, BASE),
    "multiion.k1": (2, DISENTANGLEMENT, BASE),
    "multiion.epsilon": (2e-9, DISENTANGLEMENT, BASE),
}

# (subcommand, option) -> (argv without it, argv with a non-default value);
# "" is the top-level parser.  Every run but --config's first reads BASE.
FLAG_CASES = {
    ("", "config"): (("grover",), ("grover",)),
    ("", "seed"): (("qst", "cphase", "--shots", "100"),
                   ("--seed", "3", "qst", "cphase", "--shots", "100")),
    ("", "out"): (IDEAL_QST, ("--out", "elsewhere", *IDEAL_QST)),
    ("", "verbose"): None,  # stderr only: test_verbose_adds_debug_lines
    ("synthesize", "gate"): (SYNTH, ("synthesize", "cnot12")),
    **{(cmd, opt): case for cmd in ("qst", "qpt") for opt, case in (
        ("gate", ((cmd, "cphase"), (cmd, "hadamard1"))),
        ("mode", ((cmd, "hadamard1"),
                  (cmd, "hadamard1", "--mode", "pulsed"))),
        ("shots", ((cmd, "cphase"), (cmd, "cphase", "--shots", "100"))))},
    ("grover", "marked"): (("grover",), ("grover", "--marked", "3")),
    ("grover", "mode"): (("grover",), ("grover", "--mode", "pulsed")),
    ("multiion-verify", "check"): (("multiion-verify", "selectivity"),
                                   DISENTANGLEMENT),
    ("multiion-verify", "draws"): (
        ("multiion-verify", "composite-zz"),
        ("multiion-verify", "composite-zz", "--draws", "2")),
    ("multiion-verify", "tau"): (
        ("multiion-verify", "ms-sweep"),
        ("multiion-verify", "ms-sweep", "--tau", "0.3")),
    ("noise-sweep", "gate"): (("noise-sweep",),
                              ("noise-sweep", "--gate", "hadamard2")),
    ("noise-sweep", "duration"): (("noise-sweep",),
                                  ("noise-sweep", "--duration", "1e-4")),
}


def _table_keys():
    return ({k for k in CONFIG_TOP if k not in CONFIG_SECTIONS}
            | {f"{name}.{k}" for name, table in CONFIG_SECTIONS.items()
               for k in table})


def _parser_options():
    options = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            options |= {(cmd, a.dest) for cmd, sub in action.choices.items()
                        for a in sub._actions
                        if not isinstance(a, argparse._HelpAction)}
        elif not isinstance(action, argparse._HelpAction):
            options.add(("", action.dest))
    return options


def test_every_key_and_option_has_a_case():
    assert set(KEY_CASES) == _table_keys()
    assert set(FLAG_CASES) == _parser_options()


def _with_key(config: dict, key: str, value) -> dict:
    section, _, name = key.rpartition(".")
    if not section:
        return {**config, key: value}
    return {**config, section: {**config.get(section, {}), name: value}}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run one command in a fresh working directory and return every file
    it wrote, keyed by path with the pulse-cache hash taken out."""
    root = tmp_path_factory.mktemp("contract")
    count = itertools.count()

    def run(argv, config):
        n = next(count)
        cwd = root / f"run{n}"
        cwd.mkdir()
        prefix = []
        if config is not None:
            path = root / f"config{n}.json"
            path.write_text(json.dumps(config))
            prefix = ["--config", str(path)]
        here = os.getcwd()
        os.chdir(cwd)
        try:
            code = main([*prefix, *argv])
        finally:
            os.chdir(here)
        assert code != EXIT_BAD_CONFIG, (argv, config)
        return {re.sub(r"_[0-9a-f]{12}\.json$", ".json",
                       p.relative_to(cwd).as_posix()): p.read_bytes()
                for p in sorted(cwd.rglob("*")) if p.is_file()}
    return run


@pytest.mark.parametrize("key", sorted(k for k, c in KEY_CASES.items() if c))
def test_config_key_changes_an_artifact(artifacts, key):
    value, argv, base = KEY_CASES[key]
    before = artifacts(argv, base)
    after = artifacts(argv, _with_key(base, key, value))
    assert before != after
    if key.startswith("grape."):
        # the pulse itself changes, not only its cache name
        assert before["out/pulses/hadamard1.json"] != \
            after["out/pulses/hadamard1.json"]


@pytest.mark.parametrize("option", sorted(o for o, c in FLAG_CASES.items()
                                          if c), ids="{0[0]}--{0[1]}".format)
def test_option_changes_an_artifact(artifacts, option):
    without, with_option = FLAG_CASES[option]
    config = None if option == ("", "config") else BASE
    assert artifacts(without, config) != artifacts(with_option, BASE)


def test_verbose_adds_debug_lines(tmp_path):
    # a subprocess: in-process, pytest's handlers sit on the root logger
    src = str(Path(spinpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    stderr = [subprocess.run(
        [sys.executable, "-m", "spinpair.cli", "--out", str(tmp_path),
         *flag, "grover"], env=env, capture_output=True, text=True,
        timeout=120, check=True).stderr for flag in ([], ["-v"])]
    assert "DEBUG" not in stderr[0]
    assert "DEBUG wrote" in stderr[1]
