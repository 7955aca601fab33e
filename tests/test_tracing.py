"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps spinpair functions by name from outside the package, so a
removed or renamed name would otherwise surface only in a traced benchmark
run.  The tracer module is loaded read-only: no bytecode is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from spinpair.control import PulseSequence
from spinpair.linalg import DensityMatrix
from spinpair.multiion import GradientDrive, NormalMode, TwoIonSystem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_target_and_uninstall_restores(
        monkeypatch):
    tracing = _load_tracing(monkeypatch)
    mods = {m: importlib.import_module(f"spinpair.{m}")
            for m in tracing.MODULES}
    before = {m: dict(vars(mod)) for m, mod in mods.items()}
    methods = {}
    for home, attr, *_ in tracing.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mods[home], cls_name)
            methods[owner, meth] = owner.__dict__[meth]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        for owner, bound, original in patched:
            assert getattr(owner, bound) is not original
        for home, attr, *_ in tracing.TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = methods[getattr(mods[home], cls_name), meth]
            else:
                original = before[home][attr]
            assert any(o is original for _, _, o in patched), attr
    finally:
        tracer.uninstall()

    for m, mod in mods.items():
        now = vars(mod)
        assert now.keys() == before[m].keys()
        assert all(now[k] is v for k, v in before[m].items()), m
    for (owner, meth), original in methods.items():
        assert owner.__dict__[meth] is original


def test_tracer_hooks_count_noise_shots_and_channel_calls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tomography = importlib.import_module("spinpair.tomography")
    seq = PulseSequence([1e-4], [[1e4, 0.0, 0.0]], np.zeros((1, 3)))
    noise = tomography.NoiseModel(sigma1=1e3, sigma2=1e3, sigma4=1e3,
                                  n_samples=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module: install() rebinds the module's names
        tomography.qpt(tomography.apply_noise(seq, noise), shots=0)
        # qpt reconstructs its 16 outputs in one inversion, without qst
        assert tracer.layer_metrics(1.0, 1.0)["tomography.qst.calls"] == 0
        tomography.qst(DensityMatrix(np.eye(4) / 4, basis="number"))
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1.0, 1.0)
    assert m["tomography.noise_unitaries"] == 3
    assert m["tomography.NoisyChannel.calls"] == 16
    assert m["tomography.qst.calls"] == 1
    assert m["tomography.qpt.calls"] == 1


def test_tracer_hook_counts_spin_motion_steps(monkeypatch):
    # the hook binds integrate_spin_motion's argument names
    tracing = _load_tracing(monkeypatch)
    multiion = importlib.import_module("spinpair.multiion")
    sys_ = TwoIonSystem(mode=NormalMode(omega=2 * np.pi * 2e6),
                        fock_cutoff=4,
                        drive=GradientDrive(b_grad=10.0,
                                            delta=2 * np.pi * 2e3, k1=2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        multiion.motion_disentanglement_check(sys_, steps_per_period=30,
                                              check_cutoff=False)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1.0, 1.0)
    assert m["multiion.integrate_spin_motion.calls"] == 1
    assert m["multiion.spin_motion_steps"] == 2 * 30
