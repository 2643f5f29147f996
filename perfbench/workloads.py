"""The benchmark's workloads: seeded inputs, the calls of one round, checks.

Each workload is one caller issuing sequential calls (a closed loop with a
single client), as a research script does.  The seed picks Haar unitaries,
noise weights and the ``seed`` values passed to the library; the library
receives only the generated states and arguments.  Calls use public entry
points with default options apart from ``dim``, ``sign``, ``restarts``,
``seed``, ``models`` and ``grid_steps``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Call:
    """One benchmark call.

    ``group`` names the per-call timing it feeds (e.g. ``maximize_s.d8``);
    ``run`` looks library functions up at call time, so that spans recorded
    by an installed tracer include the top-level call.  CLI calls return
    ``(exit_code, stdout_text)``.  ``best_value`` extracts the maximized
    Bell value of a GHZ-family maximize call for ``value_gap``.
    """

    group: str
    cli: bool
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    best_value: Callable[[object], float] | None = None


@dataclass(frozen=True)
class Env:
    qb: object  # the freshly imported quditbell package
    rng: np.random.Generator
    smoke: bool
    workdir: Path


def run_cli(qb, argv: list[str]) -> tuple[int, str]:
    """In-process ``quditbell`` invocation with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qb.cli.main(argv)
    return code, out.getvalue()


def _library_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    # Inputs are generated here, not by the library, so that they stay the
    # same for a seed when the library changes.
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def rotated_ghz(qb, d: int, rng: np.random.Generator):
    """``(U (x) U) GHZ_d (U (x) U)^dag``: dense rho, same certification verdict.

    ``(U (x) U)|GHZ> = vec(U U^T)/sqrt(d)``; symmetrizing ``U U^T`` keeps the
    state exactly swap-symmetric and ``outer(psi, psi*)`` exactly hermitian.
    """
    u = _haar(d, rng)
    m = u @ u.T
    psi = ((m + m.T) / 2.0).reshape(-1)
    psi /= np.linalg.norm(psi)
    return qb.TwoQuditState.from_matrix(np.outer(psi, psi.conj()))


def noisy_ghz(qb, d: int, rng: np.random.Generator):
    """``p GHZ_d + (1-p) I/d^2``; its correlation norm ``2p/d`` fails certification."""
    p = rng.uniform(0.5, 0.9)
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(d * d) / (d * d)
    return qb.TwoQuditState.from_matrix(rho)


def _maximize_call(qb, group: str, state, sign: int, restarts: int, seed: int) -> Call:
    return Call(
        group=group,
        cli=False,
        run=lambda: qb.maximize_bell(state, sign, qb.MaximizeOptions(restarts=restarts, seed=seed)),
        check=lambda r: checks.check_maximize(checks.maximize_fields(r)),
        best_value=lambda r: r.best_value,
    )


def _cli_maximize_call(qb, group: str, dim: int, restarts: int, seed: int) -> Call:
    argv = ["maximize", "--state", "ghz", "--dim", str(dim), "--sign", "+",
            "--restarts", str(restarts), "--seed", str(seed)]
    return Call(
        group=group,
        cli=True,
        run=lambda: run_cli(qb, argv),
        check=lambda r: checks.check_cli_maximize(*r),
        best_value=lambda r: json.loads(r[1])["report"]["best_value"],
    )


def maximize_small_d(env: Env) -> tuple[list[Call], list[Call]]:
    """``maximize_bell`` on GHZ_d and rotated GHZ_d, both signs, plus one CLI maximize."""
    qb, rng = env.qb, env.rng
    dims, restarts, cli_dim = ((2, 4), 2, 2) if env.smoke else ((2, 4, 8), 4, 8)
    calls = []
    for d in dims:
        for state in (qb.ghz(d), rotated_ghz(qb, d, rng)):
            for sign in (1, -1):
                calls.append(
                    _maximize_call(qb, f"maximize_s.d{d}", state, sign, restarts, _library_seed(rng))
                )
    calls.append(_cli_maximize_call(qb, "cli_maximize_s", cli_dim, restarts, _library_seed(rng)))
    warmup = [
        _maximize_call(qb, "warmup", qb.ghz(2), 1, 1, 0),
        _cli_maximize_call(qb, "warmup", 2, 1, 0),
    ]
    return calls, warmup


def _cli_certify_call(qb, group: str, source: str, dim: int, seed: int, certifiable: bool) -> Call:
    argv = ["certify", "--state", source, "--dim", str(dim), "--seed", str(seed)]
    return Call(
        group=group,
        cli=True,
        run=lambda: run_cli(qb, argv),
        check=lambda r: checks.check_cli_certify(*r, certifiable=certifiable),
    )


def _cli_spectrum_call(qb, group: str, dim: int) -> Call:
    argv = ["spectrum", "--state", "ghz", "--dim", str(dim), "--seed", "0"]
    return Call(
        group=group, cli=True, run=lambda: run_cli(qb, argv), check=lambda r: checks.check_cli_spectrum(*r)
    )


def certify_large_d(env: Env) -> tuple[list[Call], list[Call]]:
    """CLI ``certify`` on GHZ, rotated GHZ and a noisy mixture, plus one large ``spectrum``.

    Rotated and noisy states reach the CLI as ``file:`` state sources written
    here, so parsing them is part of each CLI call.
    """
    qb, rng = env.qb, env.rng
    dims, spectrum_dim = ((4, 6), 8) if env.smoke else ((16, 24), 32)
    calls = []
    for d in dims:
        sources = [("ghz", True)]
        for kind, make, certifiable in (("rot", rotated_ghz, True), ("noisy", noisy_ghz, False)):
            path = env.workdir / f"{kind}{d}.json"
            make(qb, d, rng).to_file(path)
            sources.append((f"file:{path}", certifiable))
        for source, certifiable in sources:
            calls.append(
                _cli_certify_call(qb, f"cli_certify_s.d{d}", source, d, _library_seed(rng), certifiable)
            )
    calls.append(_cli_spectrum_call(qb, f"cli_spectrum_s.d{spectrum_dim}", spectrum_dim))
    warmup = [
        _cli_certify_call(qb, "warmup", "ghz", 4, 0, True),
        _cli_spectrum_call(qb, "warmup", 4),
    ]
    return calls, warmup


def _oracle_call(qb, state, sign: int, grid_steps: int) -> Call:
    return Call(
        group="oracle_s",
        cli=False,
        run=lambda: qb.exhaustive_qubit_max(state, sign, grid_steps=grid_steps),
        check=checks.check_oracle,
    )


def _chsh_call(qb, state) -> Call:
    return Call(
        group="chsh_s",
        cli=False,
        run=lambda: qb.chsh_value(state, *qb.chsh_optimal_settings(state)),
        check=checks.check_chsh,
    )


def _lhv_call(qb, sign: int, models: int, seed: int) -> Call:
    return Call(
        group="lhv_s",
        cli=False,
        run=lambda: qb.lhv_monte_carlo(sign, models, seed=seed),
        check=lambda r: checks.check_lhv(checks.lhv_fields(r)),
    )


def _cli_lhv_call(qb, models: int, seed: int) -> Call:
    argv = ["lhv", "--models", str(models), "--sign", "+", "--seed", str(seed)]
    return Call(
        group="cli_lhv_s", cli=True, run=lambda: run_cli(qb, argv), check=lambda r: checks.check_cli_lhv(*r)
    )


def comparators(env: Env) -> tuple[list[Call], list[Call]]:
    """d = 2 oracle, CHSH, LHV Monte Carlo and one CLI ``lhv``."""
    qb, rng = env.qb, env.rng
    grid_steps, models = (20, 200) if env.smoke else (200, 5000)
    calls = []
    for state in (qb.ghz(2), rotated_ghz(qb, 2, rng)):
        calls += [_oracle_call(qb, state, sign, grid_steps) for sign in (1, -1)]
        calls.append(_chsh_call(qb, state))
    calls += [_lhv_call(qb, sign, models, _library_seed(rng)) for sign in (1, -1)]
    calls.append(_cli_lhv_call(qb, models, _library_seed(rng)))
    ghz2 = qb.ghz(2)
    warmup = [
        _oracle_call(qb, ghz2, 1, 4),
        _chsh_call(qb, ghz2),
        _lhv_call(qb, 1, 10, 0),
        _cli_lhv_call(qb, 10, 0),
    ]
    return calls, warmup


WORKLOADS = {
    "maximize-small-d": maximize_small_d,
    "certify-large-d": certify_large_d,
    "comparators": comparators,
}
