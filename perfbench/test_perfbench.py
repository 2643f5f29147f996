"""Tests of the benchmark itself: smoke runs, the correctness checker, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_the_declared_metrics(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0


def test_checker_rejects_planted_nan_and_bound_violation():
    good = {"best_value": 1.4999999, "bloch_value": 1.4999999, "b_perfect_residual": 1e-15}
    assert checks.check_maximize(good) == []
    for planted in (math.nan, 1.6):
        bad = dict(good, best_value=planted, bloch_value=planted)
        assert checks.check_maximize(bad), planted
    assert checks.check_maximize(dict(good, b_perfect_residual=math.nan))
    assert checks.check_oracle(math.nan) and checks.check_oracle(1.6)
    assert checks.check_lhv({"max_bell_value": math.nan, "constraint_residual_max": 0.0})
    assert checks.check_lhv({"max_bell_value": 0.9, "constraint_residual_max": math.nan})


def test_certification_exit_codes():
    failed = json.dumps({"report": {"in_class": False, "signs": {}}})
    assert checks.check_cli_certify(2, failed, certifiable=False) == []
    assert checks.check_cli_certify(2, failed, certifiable=True)
    assert checks.check_cli_certify(0, failed, certifiable=False)


def test_tracer_records_nested_spans_and_restores_bindings():
    sys.path.insert(0, str(ROOT / "src"))
    import quditbell as qb
    import quditbell.cli  # noqa: F401

    from tracing import Tracer, layer_times

    original = qb.perfectness.correlation_matrix
    with Tracer(qb) as tracer:
        qb.certify_state(qb.ghz(2))
    assert qb.perfectness.correlation_matrix is original
    times = layer_times(tracer.spans)
    assert times["perfectness.certify_state"]["calls"] == 1
    assert times["states.correlation_matrix"]["calls"] == 1
    parent = {name: p for name, _, _, p, _ in tracer.spans}
    assert tracer.spans[parent["states.correlation_matrix"]][0] == "perfectness.certify_state"
    certify = times["perfectness.certify_state"]
    assert 0 <= certify["self_s"] <= certify["s"]


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_metric_names_map_to_spans_ratios_and_counters():
    import layers

    times = {"bellmax.maximize_bell": {"calls": 2, "s": 3.0, "self_s": 2.0}}
    counters = {"bellmax.iterations": 4}
    assert layers.metric("bellmax.maximize_bell.calls", times, counters) == 2
    assert layers.metric("bellmax.maximize_bell.self_s", times, counters) == 2.0
    assert layers.metric("bellmax.s_per_iteration", times, counters) == 0.5
    assert layers.metric("bellmax.iterations", times, counters) == 4
    assert layers.metric("states.correlation_matrix.s", times, counters) == 0
    assert layers.metric("perfectness.found_ratio", times, counters) == 0
