"""Per-layer metrics from traced spans and effort counters.

Counts are taken at the traced calls' boundaries (arguments and results),
never from library internals, so they stay valid when the internals change.
``*_computed`` counts are derived from array shapes, not measured.
"""

from __future__ import annotations

import numpy as np

from tracing import SPAN_NAMES

SPAN_KEYS = ("calls", "s", "self_s")

# Ratio metrics: name -> (numerator, denominator), each itself a metric name.
RATIOS = {
    "perfectness.found_ratio": ("perfectness.observables_returned", "perfectness.observables_requested"),
    "bellmax.s_per_iteration": ("bellmax.maximize_bell.self_s", "bellmax.iterations"),
    "bellmax.lhv_models_per_s": ("bellmax.lhv_models", "bellmax.lhv_monte_carlo.s"),
}


def metric(name: str, times: dict, counters: dict) -> float:
    """One per-layer metric from span times (see ``tracing.layer_times``)
    and counters.

    ``<module>.<function>.<calls|s|self_s>`` reads the span of a traced
    function, a name in ``RATIOS`` divides two metrics, and any other name
    is a counter.  A layer idle in the traced code reports 0.
    """
    span, _, key = name.rpartition(".")
    if key in SPAN_KEYS and span in SPAN_NAMES:
        return times[span][key] if span in times else 0
    if name in RATIOS:
        numerator, denominator = (metric(part, times, counters) for part in RATIOS[name])
        return numerator / denominator if denominator else 0
    return counters.get(name, 0)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _oracle_b_points(rho: np.ndarray, sign: int, grid_steps: int) -> int:
    """Number of b grid points the d = 2 oracle scans: it grids the unit
    sphere of T's eigenspace for eigenvalue ``sign``, whose dimension k
    gives 2, 2 * steps or (steps + 1) * 2 * steps points."""
    tmat = np.array([[np.trace(rho @ np.kron(p, q)).real for q in _PAULI] for p in _PAULI])
    k = int(np.sum(np.abs(np.linalg.eigvalsh((tmat + tmat.T) / 2.0) - sign) <= 1e-9))
    return {0: 0, 1: 2, 2: 2 * grid_steps}.get(k, (grid_steps + 1) * 2 * grid_steps)


def make_hooks(qb) -> dict:
    """Tracer hooks that turn traced calls into effort counters."""

    def correlation_matrix(c, a, result):
        d = a["state"].dim
        n = d * d - 1
        # einsum "jkab,naj->nkb" then "nkb,mbk->nm"
        c["states.correlation_matrix.cmac_computed"] += n * d**4 + n * n * d * d

    def certify_state(c, a, result):
        c["perfectness.witness_restarts"] += sum(e.restarts_used for e in result.sign_results)

    def find_perfect_observables(c, a, result):
        c["perfectness.observables_requested"] += a["count"]
        c["perfectness.observables_returned"] += len(result)

    def maximize_bell(c, a, report):
        cap = getattr(a["opts"] or qb.MaximizeOptions(), "max_iters", None)
        iterations = [r.iterations for r in report.per_restart]
        c["bellmax.restarts"] += report.restarts
        c["bellmax.iterations"] += sum(iterations)
        c["bellmax.iter_cap_hits"] += sum(cap is not None and i >= cap for i in iterations)
        gap = abs(report.bloch_value - report.best_value)
        c["bellmax.bloch_direct_gap"] = max(c["bellmax.bloch_direct_gap"], gap)

    def exhaustive_qubit_max(c, a, result):
        steps = a["grid_steps"]
        b_points = _oracle_b_points(a["state"].rho, a["sign"], steps)
        c["bellmax.oracle_pairs_computed"] += b_points * (steps + 1) * 2 * steps

    def lhv_monte_carlo(c, a, result):
        c["bellmax.lhv_models"] += a["n_models"]

    return {
        "states.correlation_matrix": correlation_matrix,
        "perfectness.certify_state": certify_state,
        "perfectness.find_perfect_observables": find_perfect_observables,
        "bellmax.maximize_bell": maximize_bell,
        "bellmax.exhaustive_qubit_max": exhaustive_qubit_max,
        "bellmax.lhv_monte_carlo": lhv_monte_carlo,
    }
