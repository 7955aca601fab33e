"""Outside-in tracing of spinpair for the benchmark's traced run.

Wrappers are installed on spinpair's public functions from outside the
package; the package itself is not changed.  A function imported by name
into another module (``cli`` does ``from .grape import synthesize``) is
wrapped under every name it is bound to, so each caller finds the wrapper
where it looks the name up.

Three kinds of wrapper:

* span: one record per call with name, start, end, parent span and op id.
  A span's self time is its duration minus the time its children cover.
* counter: for hot 4x4 functions called tens of thousands of times per op
  (``expm_unitary``, ``DensityMatrix.validate``) only a call count and
  cumulative time are kept.  That time is reported as the counter's self
  time and counts as covered in the enclosing span.
* count: a call count only (``control_hamiltonian`` called from ``grape``).
  Its time stays in the enclosing span's self time.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from pathlib import Path

SPAN, COUNTER, COUNT = "span", "counter", "count"

MODULES = ("cli", "grape", "control", "linalg", "ion", "tomography",
           "circuits", "multiion")

# (defining module, attribute path, kind, recorded name, binding filter)
# A binding filter restricts the wrapper to names bound in that module.
TARGETS = (
    ("cli", "main", SPAN, "cli.main", None),
    ("cli", "ensure_pulse", SPAN, "cli.ensure_pulse", None),
    ("cli", "write_json", SPAN, "cli.artifact_write", None),
    ("cli", "write_matrix_csv", SPAN, "cli.artifact_write", None),
    ("cli", "write_rows_csv", SPAN, "cli.artifact_write", None),
    ("grape", "synthesize", SPAN, "grape.synthesize", None),
    ("control", "control_hamiltonian", COUNT, "grape.segment_hamiltonians",
     "grape"),
    ("control", "propagate", SPAN, "control.propagate", None),
    ("control", "segment_unitaries", SPAN, "control.segment_unitaries", None),
    ("control", "propagate_lab_frame", SPAN, "control.propagate_lab_frame",
     None),
    ("tomography", "apply_noise", SPAN, "tomography.apply_noise", None),
    ("tomography", "NoisyChannel.__call__", SPAN, "tomography.NoisyChannel",
     None),
    ("tomography", "qst", SPAN, "tomography.qst", None),
    ("tomography", "qpt", SPAN, "tomography.qpt", None),
    ("circuits", "run_circuit", SPAN, "circuits.run_circuit", None),
    ("multiion", "integrate_spin_motion", SPAN,
     "multiion.integrate_spin_motion", None),
    ("multiion", "motion_disentanglement_check", SPAN,
     "multiion.motion_disentanglement_check", None),
    ("multiion", "composite_zz", SPAN, "multiion.composite", None),
    ("multiion", "ms_composite_xx", SPAN, "multiion.composite", None),
    ("linalg", "expm_unitary", COUNTER, "linalg.expm_unitary", None),
    ("linalg", "expm_unitary_batch", SPAN, "linalg.expm_unitary_batch", None),
    ("linalg", "DensityMatrix.validate", COUNTER, "linalg.DensityMatrix.validate",
     None),
    ("linalg", "project_psd", SPAN, "linalg.project_psd", None),
    ("ion", "eigensystem", SPAN, "ion.eigensystem", None),
    ("ion", "mixing_angle", SPAN, "ion.mixing_angle", None),
    ("ion", "mapping_operator", SPAN, "ion.mapping_operator", None),
    ("ion", "free_hamiltonian", SPAN, "ion.free_hamiltonian", None),
    ("ion", "change_basis", SPAN, "ion.change_basis", None),
)

# Bytes of the three (n, 4, 4) complex128 arrays propagate_lab_frame builds
# per step: the Hamiltonians, their eigenvectors and the step propagators.
LAB_BYTES_PER_STEP = 3 * 16 * 16
TWO_PI = 2.0 * math.pi


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])
        self.tallies = defaultdict(float)
        self.op = None
        self._open = []          # [span record, time covered by children]
        self._counter_depth = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, on_return=None):
        sig = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name, "op": self.op,
                   "parent": self._open[-1][0]["id"] if self._open else None}
            self.spans.append(rec)
            frame = [rec, 0.0]
            self._open.append(frame)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._open.pop()
                duration = rec["end"] - rec["start"]
                rec["self"] = duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self.tallies, bound.arguments, result)
            return result
        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._counter_depth -= 1
                c = self.counters[name]
                c[0] += 1
                c[1] += dt
                if self._counter_depth == 0 and self._open:
                    self._open[-1][1] += dt
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target under each name it is bound to."""
        mods = {m: importlib.import_module(f"spinpair.{m}") for m in MODULES}
        plan = []
        for home, attr, kind, name, only_in in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mods[home], cls_name)
                original = owner.__dict__[meth]
                plan.append((owner, meth, original,
                             self._wrap(kind, name, original)))
                continue
            original = getattr(mods[home], attr)
            wrapped = self._wrap(kind, name, original)
            for m, mod in mods.items():
                if only_in not in (None, m):
                    continue
                for bound, obj in vars(mod).items():
                    if obj is original:
                        plan.append((mod, bound, original, wrapped))
        for owner, bound, original, wrapped in plan:
            setattr(owner, bound, wrapped)
            self._patches.append((owner, bound, original))

    def uninstall(self):
        for owner, bound, original in reversed(self._patches):
            setattr(owner, bound, original)
        self._patches.clear()

    def _wrap(self, kind, name, fn):
        if kind == COUNTER:
            return self.counter(name, fn)
        if kind == COUNT:
            return self.count(name, fn)
        return self.span(name, fn, _HOOKS.get(name))

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Per-layer metrics of the traced pass, as {name: value}."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for rec in self.spans:
            calls[rec["name"]] += 1
            self_s[rec["name"]] += rec["self"]
            total_s[rec["name"]] += rec["end"] - rec["start"]
        for name, (n, seconds) in self.counters.items():
            calls[name] += n
            self_s[name] += seconds
        t = self.tallies

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("cli.main", "cli.artifact_write", "grape.synthesize",
                     "tomography.apply_noise", "tomography.NoisyChannel",
                     "tomography.qst", "tomography.qpt", "circuits.run_circuit",
                     "control.propagate", "control.segment_unitaries",
                     "control.propagate_lab_frame",
                     "multiion.integrate_spin_motion", "linalg.expm_unitary",
                     "linalg.DensityMatrix.validate", "linalg.project_psd"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
        m["cli.ensure_pulse.calls"] = calls["cli.ensure_pulse"]
        m["cli.pulse_cache.hit_ratio"] = ratio(t["cache_hits"],
                                               calls["cli.ensure_pulse"])
        m["cli.artifact_bytes"] = t["artifact_bytes"]
        m["grape.iterations"] = t["grape_iterations"]
        m["grape.s_per_iter"] = ratio(total_s["grape.synthesize"],
                                      t["grape_iterations"])
        m["grape.segment_hamiltonians"] = calls["grape.segment_hamiltonians"]
        m["grape.converged_ratio"] = ratio(t["grape_converged"],
                                           calls["grape.synthesize"])
        m["tomography.noise_unitaries"] = t["noise_unitaries"]
        m["control.lab_steps"] = t["lab_steps"]
        m["control.lab_bytes_computed"] = t["lab_steps"] * LAB_BYTES_PER_STEP
        m["multiion.spin_motion_steps"] = t["spin_motion_steps"]
        m["multiion.spin_motion_flops_computed"] = t["spin_motion_flops"]
        m["multiion.motion_disentanglement_check.self_s"] = self_s[
            "multiion.motion_disentanglement_check"]
        m["multiion.composite.self_s"] = self_s["multiion.composite"]
        m["linalg.expm_unitary_batch.self_s"] = self_s[
            "linalg.expm_unitary_batch"]
        m["ion.eigensystem.calls"] = calls["ion.eigensystem"]
        m["ion.self_s"] = sum(v for k, v in self_s.items()
                              if k.startswith("ion."))
        m["trace.overhead_ratio"] = ratio(traced_s, untraced_s) - 1.0
        m["trace.unattributed_s"] = sum(rec["self"] for rec in self.spans
                                        if rec["name"] == "op")
        return m


# -- hooks that turn call arguments and results into work counts -------------

def _on_ensure_pulse(t, a, result):
    if result[1] is None:
        t["cache_hits"] += 1


def _on_artifact(t, a, result):
    t["artifact_bytes"] += Path(a["path"]).stat().st_size


def _on_synthesize(t, a, result):
    t["grape_iterations"] += result.iterations
    t["grape_converged"] += bool(result.converged)


def _on_apply_noise(t, a, result):
    t["noise_unitaries"] += len(result.unitaries)


def _on_lab_frame(t, a, result):
    # step count as propagate_lab_frame computes it
    t["lab_steps"] += max(1, math.ceil(a["duration"] / a["dt"]))


def _on_spin_motion(t, a, result):
    # step count as integrate_spin_motion computes it; per step two complex
    # dim x dim products (exp reconstruction and accumulation), 8 dim^3 each
    sys_ = a["sys"]
    period = TWO_PI / abs(sys_.drive.delta)
    steps = max(2, math.ceil(a["duration"] / period * a["steps_per_period"]))
    t["spin_motion_steps"] += steps
    t["spin_motion_flops"] += steps * 16 * (16 * sys_.fock_cutoff) ** 3


_HOOKS = {
    "cli.ensure_pulse": _on_ensure_pulse,
    "cli.artifact_write": _on_artifact,
    "grape.synthesize": _on_synthesize,
    "tomography.apply_noise": _on_apply_noise,
    "control.propagate_lab_frame": _on_lab_frame,
    "multiion.integrate_spin_motion": _on_spin_motion,
}


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or name == "grape.s_per_iter":
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"
