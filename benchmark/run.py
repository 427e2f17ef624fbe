"""digraph-ed benchmark: one workload, one process, one thread.

Usage (from the repository root):

    python3 benchmark/run.py --workload verify_large --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program. ``--trace 1`` spends the first half of the run untraced and the
second half with the outside-in span recorder (spans.py) wrapped around every
public function of the program's layer modules, and reports per-layer
metrics. The last stdout line is the result object; the line before it is a
record with the environment, input sizes and sample counts, also written to
``benchmark/out/``. ``--workload all`` runs each workload in a fresh process
and prints every end-to-end metric, ``failed_frac`` included, as a table.

The program is imported from ``src/`` of the checkout and nowhere else; the
benchmark exits with code 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "digraph_ed"
WORKLOAD_NAMES = ("verify_large", "sweep_mid", "suite_small", "closed_form_huge")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Inputs given one extra, untimed op with tracemalloc on inside each build.
MEMORY_PROBE_INPUTS = 3

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas() -> dict:
    """Limit BLAS/OpenMP pools to one thread; must run before numpy is imported.

    Each workload runs on one thread. The program's BLAS calls are short
    ``np.vdot`` calls, and a second pool thread kept a second CPU spinning
    between them (see README.md).
    """
    caps = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(caps)
    return caps


def lscpu_caches() -> dict:
    """L2 and L3 sizes as lscpu prints them, or None where unavailable."""
    caches = {"L2": None, "L3": None}
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "LC_ALL": "C"},
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return caches
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()[:2]] = value.strip()
    return caches


def program_spec():
    """The package spec, but only if it resolves to this checkout's src/."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None or spec.origin is None:
        return None
    if not Path(spec.origin).resolve().is_relative_to(SRC):
        return None
    return spec


def fresh_import():
    """Import the package from scratch, dropping any earlier import."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    ed = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return ed


class Runner:
    """Runs ops, checks their outputs and counts failures."""

    def __init__(self, check_failed) -> None:
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}

    def one(self, wl, i: int, rec=None, op_id: int = -1) -> tuple[float, bool]:
        """One op on input ``i``: its wall time and whether it passed.

        An op fails if it raises, exits nonzero, fails the workload's check,
        or gives bytes that differ from an earlier op on the same input.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            try:
                out = rec.run_op(op_id, wl.run, i) if rec else wl.run(i)
            finally:
                dt = perf_counter() - t0
            wl.check(i, out)
            digest = hashlib.sha256(out).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                raise self.check_failed(f"input {i}: output bytes differ from an earlier op")
        except Exception as e:  # every op failure is counted, never fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(
                    f"{wl.name}[{i}]: {type(e).__name__}: {e}\n{traceback.format_exc(limit=3)}"
                )
            return dt, False
        return dt, True

    def timed(self, wl, seconds: float, rec=None) -> dict:
        """Closed loop, one caller: ops back to back for ``seconds``."""
        times = []
        passed = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            dt, ok = self.one(wl, len(times) % len(wl.inputs), rec, len(times))
            times.append(dt)
            passed += ok
        elapsed = perf_counter() - start
        return {
            "op_s_p50": statistics.median(times),
            "ops_per_s": passed / elapsed,
            "samples": len(times),
            "quartiles": statistics.quantiles(times, n=4) if len(times) > 1 else times * 3,
        }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    caps = single_thread_blas()
    if program_spec() is None:
        print(f"error: package {PACKAGE!r} not found under {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import spans
    import workloads

    runner = Runner(workloads.CheckFailed)
    work = OUT / f"work-{name}-{seed}-{int(trace)}"
    index = WORKLOAD_NAMES.index(name)

    # Set-up: import the program, make and write the inputs, warm up on input 0.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ed = fresh_import()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.WORKLOADS[name](ed, np.random.default_rng([seed, index]), work)
        runner.one(wl, 0)
        setup_times.append(perf_counter() - t0)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc(), "cpu_count": os.cpu_count(), "blas_threads": caps,
            **lscpu_caches(),
        },
        "inputs": wl.describe(),
        "setup_s_samples": setup_times,
    }

    # Garbage left by the set-up repeats is collected here, not in timed ops.
    gc.collect()

    if not trace:
        run = runner.timed(wl, seconds)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": run["op_s_p50"],
            "ops_per_s": run["ops_per_s"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        record["op_s_samples"] = run["samples"]
        record["op_s_quartiles"] = run["quartiles"]
    else:
        plain = runner.timed(wl, seconds / 2)
        rec = spans.SpanRecorder()
        rec.install(PACKAGE)
        traced = runner.timed(wl, seconds / 2, rec)
        rec.probe_memory = True
        for i in range(min(MEMORY_PROBE_INPUTS, len(wl.inputs))):
            runner.one(wl, i, rec, -2)
        metrics = spans.layer_metrics(rec, traced["op_s_p50"], plain["op_s_p50"])
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.npz"
        rec.save(spans_path)
        record.update({
            "wrapped_bindings": rec.wrapped,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_samples": plain["samples"],
            "traced_samples": traced["samples"],
        })

    shutil.rmtree(work, ignore_errors=True)
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["failed_frac"] = runner.failed / runner.attempted
    record["errors"] = runner.errors
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Each workload in a fresh process; print every end-to-end metric."""
    print(f"{'workload':<18} {'metric':<14} {'value':>14}  unit")
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<18} failed with exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        for metric, m in record["metrics"].items():
            print(f"{name:<18} {metric:<14} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<18} {'failed_frac':<14} {record['failed_frac']:>14.6g}  ratio"
              f"  ({record['failed']}/{record['attempted']})")
        status |= record["failed"] != 0
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
