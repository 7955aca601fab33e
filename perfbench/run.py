"""spinpair benchmark: run one workload through ``spinpair.cli.main`` in-process.

    python3 perfbench/run.py --workload synth-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root; spinpair is imported from ``src/``.  Each
workload is a closed loop: one client in one process runs the workload's
op list back to back, with BLAS threads pinned to THREADS.  The workload
seed is passed to every command as ``--seed``.

``--trace 0`` repeats the op list for ``--seconds`` seconds (an op is
started only while its previous run still fits; the first pass always
completes) and reports the end-to-end metrics:

* setup_s      median over SETUP_REPEATS fresh processes of process start
               to first op ready (imports, config, warm pulse cache); the
               probe process reports the moment it is ready, so its
               interpreter teardown is not counted
* wall_s       time for one pass of the op list: the sum over its ops of
               each op's median latency in this run
* peak_rss_mb  high-water RSS of this process

``--trace 1`` runs one untraced pass, then one pass with wrappers on
spinpair's public functions (see tracing.py), and reports the per-layer
metrics of the traced pass.  It runs no set-up probes.

Every op's exit code and artifacts are checked (workloads.check).  Ops
that fail a check are counted in ``failed``; ``failed / attempted`` is the
error rate.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A run record with the machine,
versions, per-op latencies and artifact SHA-256 digests is written to
perfbench/out/<workload>-seed<seed>-trace<trace>/record.json.
"""

import os

THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = THREADS  # before numpy is imported

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinpair" / "cli.py").is_file():
        print(f"error: spinpair sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinpair
    if Path(spinpair.__file__).resolve().parent != SRC / "spinpair":
        print(f"error: imported spinpair from {spinpair.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        *_, problems = set_up(workload, args.seed, Path(args.setup_probe))
        print(now())
        return 1 if problems else 0
    return Run(workload, args).execute()


def set_up(workload, seed: int, run_dir: Path):
    """Config and warm pulse cache; returns (cfg, out, argv prefix, problems)."""
    from spinpair import cli
    from workloads import place_library
    run_dir.mkdir(parents=True, exist_ok=True)
    out = run_dir / "work"
    prefix = ["--seed", str(seed), "--out", str(out)]
    config_path = None
    if workload.config is not None:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(workload.config(seed)))
        prefix += ["--config", str(config_path)]
    cfg = cli.load_config(config_path and str(config_path), seed, str(out))
    problems = place_library(cfg) if workload.warm_pulses else []
    return cfg, out, prefix, problems


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, args):
        self.workload = workload
        self.args = args
        self.dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        self.ops = []        # per-op record
        self.tracer = None

    def execute(self) -> int:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        load_before = os.getloadavg()
        setup_samples = ([] if self.args.trace else
                         [self._probe(i) for i in range(SETUP_REPEATS)])
        t0 = time.perf_counter()
        self.cfg, self.out, self.prefix, setup_problems = set_up(
            self.workload, self.args.seed, self.dir)
        in_process_setup_s = time.perf_counter() - t0
        from workloads import digests
        self.library = (digests(self.out / "pulses")
                        if self.workload.warm_pulses else None)

        if self.args.trace:
            metrics = self._traced()
        else:
            metrics = self._untraced(setup_samples)
        shutil.rmtree(self.out, ignore_errors=True)

        attempted = len(self.ops)
        failed = sum(1 for op in self.ops if op["problems"])
        result = {"correct": failed == 0 and not setup_problems,
                  "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        record = {
            "workload": self.workload.name, "why": self.workload.why,
            "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": self.args.trace, "machine": machine(),
            "load_avg_before": load_before, "load_avg_after": os.getloadavg(),
            "setup_samples_s": setup_samples,
            "in_process_setup_s": in_process_setup_s,
            "setup_problems": setup_problems,
            "error_rate": failed / attempted if attempted else None,
            "ops": self.ops, "result": result}
        (self.dir / "record.json").write_text(json.dumps(record, indent=1))
        if self.tracer is not None:
            (self.dir / "spans.json").write_text(json.dumps(
                {"spans": self.tracer.spans,
                 "counters": dict(self.tracer.counters)}))

        for problem in setup_problems:
            print(f"setup: {problem}")
        for op in self.ops:
            for problem in op["problems"]:
                print(f"FAILED {op['label']}: {problem}")
        rate = failed / attempted if attempted else 0.0
        print(f"workload {self.workload.name}, seed {self.args.seed}: "
              f"error_rate {rate:.3f} ({failed}/{attempted} ops failed)")
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        return 0

    def _probe(self, i: int) -> float:
        """Seconds from process start to first op ready, in a fresh process."""
        probe_dir = self.dir / f"probe{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                self.workload.name, "--seed", str(self.args.seed),
                "--setup-probe", str(probe_dir)]
        t0 = now()
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        shutil.rmtree(probe_dir, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if not proc.stdout.strip():
            raise RuntimeError(f"set-up probe exited {proc.returncode} "
                               "before it was ready")
        return float(proc.stdout.split()[-1]) - t0

    def _untraced(self, setup_samples) -> dict:
        latencies = {op.label: [] for op in self.workload.ops}
        start = time.perf_counter()
        running = True
        while running:
            for op in self.workload.ops:
                seen = latencies[op.label]
                if seen and (time.perf_counter() - start + seen[-1]
                             > self.args.seconds):
                    running = False
                    break
                seen.append(self._run_op(op))
        wall = sum(statistics.median(v) for v in latencies.values())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"setup_s": {"value": statistics.median(setup_samples),
                            "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}

    def _traced(self) -> dict:
        from tracing import Tracer, unit
        untraced = sum(self._run_op(op) for op in self.workload.ops)
        self.tracer = Tracer()
        self.tracer.install()
        try:
            traced = sum(self._run_op(op) for op in self.workload.ops)
        finally:
            self.tracer.uninstall()
        layers = self.tracer.layer_metrics(untraced, traced)
        return {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}

    def _run_op(self, op) -> float:
        """Run one op, check it and record it; returns its latency."""
        from spinpair import cli
        from workloads import check, digests
        self._reset_out()
        argv = [*self.prefix, *op.argv]
        call = cli.main
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
            call = self.tracer.span("op", lambda a: cli.main(a))
        problems = []
        t0 = time.perf_counter()
        try:
            rc = call(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            problems.append("raised " + traceback.format_exc())
        latency = time.perf_counter() - t0
        if not problems:
            try:
                problems = check(op, rc, self.cfg, self.out)
            except Exception:
                problems.append("output check raised "
                                + traceback.format_exc())
        if (self.library is not None
                and digests(self.out / "pulses") != self.library):
            problems.append("pulse cache changed: a cached pulse was missed")
        self.ops.append({
            "label": op.label, "argv": argv, "rc": rc, "latency_s": latency,
            "traced": self.tracer is not None, "problems": problems,
            "artifacts": digests(self.out, skip="pulses"
                                 if self.workload.warm_pulses else None)})
        return latency

    def _reset_out(self):
        """Empty the output directory, keeping the warm pulse cache."""
        self.out.mkdir(parents=True, exist_ok=True)
        for p in self.out.iterdir():
            if self.workload.warm_pulses and p.name == "pulses":
                continue
            if p.is_dir():
                shutil.rmtree(p)
            else:
                p.unlink()


def now() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
            "blas": blas, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "git_revision": revision}


def run_all(args, workloads) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    for name in workloads:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        n, bad = result["attempted"], result["failed"]
        print(f"{name}: error_rate {bad / n:.3f} ({bad}/{n} ops failed), "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
