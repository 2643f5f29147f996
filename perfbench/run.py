"""quditbell benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload maximize-small-d --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout holding this script,
and the metric names and units are read from its ``BENCHMARK.json``.  One
process issues every call in sequence.  A run repeats the workload's round
of calls until the summed call time would exceed ``--seconds`` (at least one
round).  It sets up ``SETUPS`` times, spread evenly over the measurement,
and reports the median set-up time.  Every output is checked; the last
stdout line is the JSON result.  With ``--trace 1`` untraced and traced
rounds alternate, the last set-up is traced too, the metrics are the
per-layer ones and the spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUPS = 7

# Fixed before numpy loads: one BLAS thread keeps timings steady on a shared
# machine and stays within any core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import layers  # noqa: E402
from checks import BOUND_LIMIT  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402


def quditbell_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "quditbell" or n.startswith("quditbell.")}


def fresh_import():
    """Import quditbell (and its CLI) anew from ``src/``, so that import
    time and the library's caches are part of every set-up."""
    for name in quditbell_modules():
        del sys.modules[name]
    qb = importlib.import_module("quditbell")
    importlib.import_module("quditbell.cli")
    if Path(qb.__file__).resolve().parent != SRC / "quditbell":
        raise ImportError(f"quditbell imported from {qb.__file__}, not from {SRC}")
    return qb


def git_commit() -> str | None:
    """HEAD commit of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


class Runner:
    """Runs rounds of calls, timing and checking each call.

    ``elapsed`` sums the call times of every round.  Per-call timings are
    kept from untraced rounds only.  ``before_call`` runs before each call,
    outside its timing.
    """

    def __init__(self, calls, before_call):
        self.calls = calls
        self.before_call = before_call
        self.elapsed = 0.0
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.gaps: list[float] = []

    def round(self, tracer=None) -> float:
        """One pass over the calls; returns the summed call seconds."""
        total = 0.0
        for index, call in enumerate(self.calls):
            self.before_call()
            if tracer is not None:
                tracer.request += 1
            start = time.perf_counter()
            try:
                result = call.run()
            except Exception:  # a failing call is counted and reported, the run goes on
                result, problems = None, ["raised " + traceback.format_exc(limit=3)]
            else:
                problems = None
            elapsed = time.perf_counter() - start
            if problems is None:
                problems = call.check(result)
            self.attempted += 1
            self.elapsed += elapsed
            total += elapsed
            if tracer is None:
                self.samples.setdefault(call.group, []).append(elapsed)
            if call.cli and tracer is not None and result is not None:
                tracer.counters["cli.report_bytes"] += len(result[1].encode())
            if problems:
                self.failed += 1
                self.problems += [f"{call.group}[{index}]: {p}" for p in problems]
            elif call.best_value is not None:
                self.gaps.append(BOUND_LIMIT - call.best_value(result))
        return total


def warm_up(calls) -> None:
    for call in calls:
        problems = call.check(call.run())
        if problems:
            raise RuntimeError(f"warm-up call failed: {problems}")


class SetUp(NamedTuple):
    qb: object
    calls: list
    import_s: float
    total_s: float
    tracer: Tracer | None  # holds the spans after the import, when traced


def set_up(workload, seed: int, smoke: bool, workdir: Path, traced: bool = False) -> SetUp:
    """A fresh import, the workload's inputs and calls, and a warm-up call of
    each kind.  With ``traced`` the part after the import runs under a tracer."""
    start = time.perf_counter()
    qb = fresh_import()
    imported = time.perf_counter()
    tracer = Tracer(qb) if traced else None
    with tracer or contextlib.nullcontext():
        env = Env(qb=qb, rng=np.random.default_rng(seed), smoke=smoke, workdir=workdir)
        calls, warmup = workload(env)
        warm_up(warmup)
    end = time.perf_counter()
    return SetUp(qb, calls, imported - start, end - start, tracer)


def spare_set_up(workload, seed: int, smoke: bool, workdir: Path, traced: bool) -> SetUp:
    """A set-up that is timed and then dropped: its files are removed and the
    modules the rounds run on are put back into ``sys.modules``."""
    active = quditbell_modules()
    scratch = Path(tempfile.mkdtemp(dir=workdir))
    try:
        result = set_up(workload, seed, smoke, scratch, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        for name in quditbell_modules():
            del sys.modules[name]
        sys.modules.update(active)
    # Free the dropped import, so that peak RSS does not grow with SETUPS.
    gc.collect()
    return result._replace(qb=None, calls=[])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "quditbell" / "__init__.py").is_file():
        sys.stderr.write(f"no quditbell sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        first = set_up(workload, args.seed, args.smoke, workdir)
        setups = [first]

        def set_ups_due(elapsed: float) -> None:
            """Set-up k runs once k / SETUPS of the measurement has passed."""
            while len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
                last_one = len(setups) == SETUPS - 1
                setups.append(spare_set_up(workload, args.seed, args.smoke, workdir, args.trace == 1 and last_one))

        runner = Runner(first.calls, lambda: set_ups_due(runner.elapsed))
        tracer = Tracer(first.qb, layers.make_hooks(first.qb)) if args.trace else None
        plain, traced, per_round = [], [], []
        while True:
            if tracer is not None and len(plain) > len(traced):
                first_span = len(tracer.spans)
                tracer.counters.clear()
                with tracer:
                    last = runner.round(tracer)
                traced.append(last)
                per_round.append((layer_times(tracer.spans, first_span), dict(tracer.counters)))
            else:
                last = runner.round()
                plain.append(last)
            done = tracer is None or traced
            if done and runner.elapsed + last > args.seconds:
                break
        set_ups_due(math.inf)

        median = statistics.median
        value_gap = max(runner.gaps) if runner.gaps else 0.0
        if tracer is None:
            values = {
                "setup_s": median(s.total_s for s in setups),
                "run_s": median(plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            setup_times = layer_times(setups[-1].tracer.spans)
            setup_counters = {"import_s": median(s.import_s for s in setups)}
            values = {
                "trace_overhead_s": median(traced) - median(plain),
                "bellmax.value_gap": value_gap,
            }
            for entry in declared:
                name = entry["name"]
                if name in values:
                    continue
                if name.startswith("setup."):
                    values[name] = layers.metric(name.removeprefix("setup."), setup_times, setup_counters)
                    continue
                samples = [layers.metric(name, times, counters) for times, counters in per_round]
                # Counts repeat exactly for a seed; times are medians.
                values[name] = median(samples) if entry["unit"] in ("s", "1/s") else samples[0]
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            setups[-1].tracer.write(OUT_DIR / f"setup-spans-{args.workload}-seed{args.seed}.jsonl")

        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "rounds": {"untraced": len(plain), "traced": len(traced)},
            "setup_samples_s": [s.total_s for s in setups],
            "import_samples_s": [s.import_s for s in setups],
            "round_s": plain,
            "calls": {
                group: {"median_s": median(v), "n": len(v), "unit": "s"}
                for group, v in runner.samples.items()
            },
            "error_rate": runner.failed / runner.attempted,
            "value_gap": value_gap,
            "env": environment(),
        }
        for problem in runner.problems[:20]:
            sys.stderr.write(f"check failed: {problem}\n")
        print(json.dumps({"perfbench": detail}))
        print(
            json.dumps(
                {
                    "correct": runner.failed == 0,
                    "attempted": runner.attempted,
                    "failed": runner.failed,
                    "metrics": {
                        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
