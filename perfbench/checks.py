"""Correctness checks applied to every benchmark call.

Each check returns a list of problems; an empty list means the output is
correct.  Comparisons are written as ``not (x <= limit)`` so that a NaN
fails every gate instead of slipping through.
"""

from __future__ import annotations

import json
import math

BOUND_LIMIT = 1.5
BOUND_TOL = 1e-6
RESIDUAL_TOL = 1e-9
ORACLE_TOL = 1e-3
LHV_RESIDUAL_TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)
CHSH_TOL = 1e-9

EXIT_OK = 0
EXIT_CERTIFICATION_FAILURE = 2


def _within(value, limit: float) -> bool:
    try:
        return float(value) <= limit
    except (TypeError, ValueError):
        return False


def check_maximize(report: dict) -> list[str]:
    """3/2 gate, perfectness of B and agreement of the two evaluation paths."""
    problems = []
    best = report.get("best_value")
    if not _within(best, BOUND_LIMIT + BOUND_TOL):
        problems.append(f"best_value {best!r} is not <= {BOUND_LIMIT} + {BOUND_TOL}")
    residual = report.get("b_perfect_residual")
    if not _within(residual, RESIDUAL_TOL):
        problems.append(f"b_perfect_residual {residual!r} > {RESIDUAL_TOL}")
    try:
        gap = abs(float(report["bloch_value"]) - float(best))
    except (KeyError, TypeError, ValueError):
        gap = math.nan
    if not _within(gap, RESIDUAL_TOL):
        problems.append(f"|bloch_value - best_value| = {gap!r} > {RESIDUAL_TOL}")
    return problems


def maximize_fields(report) -> dict:
    """The checked fields of a ``BellMaxReport``."""
    return {
        "best_value": report.best_value,
        "bloch_value": report.bloch_value,
        "b_perfect_residual": report.b_perfect_residual,
    }


def check_oracle(value) -> list[str]:
    try:
        gap = abs(float(value) - BOUND_LIMIT)
    except (TypeError, ValueError):
        gap = math.nan
    if not _within(gap, ORACLE_TOL):
        return [f"oracle value {value!r} is not within {ORACLE_TOL} of {BOUND_LIMIT}"]
    return []


def check_chsh(value) -> list[str]:
    try:
        gap = abs(float(value) - TSIRELSON)
    except (TypeError, ValueError):
        gap = math.nan
    if not _within(gap, CHSH_TOL):
        return [f"CHSH value {value!r} on a maximally entangled state is not 2 sqrt(2)"]
    return []


def check_lhv(report: dict) -> list[str]:
    problems = []
    value = report.get("max_bell_value")
    if not _within(value, 1.0):
        problems.append(f"LHV max_bell_value {value!r} exceeds the classical bound 1")
    residual = report.get("constraint_residual_max")
    if not _within(residual, LHV_RESIDUAL_TOL):
        problems.append(f"LHV constraint residual {residual!r} > {LHV_RESIDUAL_TOL}")
    return problems


def lhv_fields(report) -> dict:
    return {
        "max_bell_value": report.max_bell_value,
        "constraint_residual_max": report.constraint_residual_max,
    }


def _cli_report(code: int, text: str, expected_code: int) -> tuple[dict | None, list[str]]:
    if code != expected_code:
        return None, [f"exit code {code}, expected {expected_code}"]
    try:
        return json.loads(text)["report"], []
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable CLI report: {exc}"]


def check_cli_maximize(code: int, text: str) -> list[str]:
    report, problems = _cli_report(code, text, EXIT_OK)
    return problems if report is None else check_maximize(report)


def check_cli_lhv(code: int, text: str) -> list[str]:
    report, problems = _cli_report(code, text, EXIT_OK)
    return problems if report is None else check_lhv(report)


def check_cli_certify(code: int, text: str, certifiable: bool) -> list[str]:
    """GHZ-family states certify for both signs (exit 0); the noisy mixture
    is expected to fail certification (exit 2), which is not a failure."""
    expected = EXIT_OK if certifiable else EXIT_CERTIFICATION_FAILURE
    report, problems = _cli_report(code, text, expected)
    if report is None:
        return problems
    if report.get("in_class") is not certifiable:
        problems.append(f"in_class is {report.get('in_class')!r}, expected {certifiable}")
    if certifiable:
        for key in ("+", "-"):
            if report.get("signs", {}).get(key, {}).get("certified") is not True:
                problems.append(f"sign {key} not certified")
    return problems


def check_cli_spectrum(code: int, text: str) -> list[str]:
    report, problems = _cli_report(code, text, EXIT_OK)
    if report is None:
        return problems
    if report.get("ghz_expected", {}).get("matches") is not True:
        problems.append("GHZ spectrum does not match the expected eigenvalues/multiplicities")
    return problems
