"""Command-line interface.

Subcommands expose the library surface with reproducible seeds and
machine-readable reports:

* ``spectrum``  - correlation-matrix eigenvalues, multiplicities, norm
* ``certify``   - perfectness certification for both signs
* ``maximize``  - constrained maximization of the Bell combination
* ``lhv``       - Monte-Carlo check of the classical bound 1

Exit codes: 0 success, 1 input error, 2 certification failure, 3 bound
violation.  Output JSON is deterministic for a fixed config and seed; timing
lives in a separate opt-in field so default reports are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .bellmax import MaximizeOptions, lhv_monte_carlo, maximize_bell, write_trace_csv
from .errors import CertificationError, ValidationError
from .perfectness import (
    DEFAULT_RESTARTS,
    certify_state,
    correlation_spectrum,
    find_perfect_observables,
)
from .states import TwoQuditState, correlation_matrix, ghz

SCHEMA_VERSION = "1"
ENV_SEED = "QUDITBELL_SEED"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CERTIFICATION_FAILURE = 2
EXIT_BOUND_VIOLATION = 3

SIGNS = {"+": 1, "-": -1}  # --sign choices

BOUND_LIMIT = 1.5
BOUND_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters echoed into every report."""

    command: str
    state_source: str | None = None
    dim: int | None = None
    sign: str | None = None
    restarts: int | None = None
    seed: int = 0
    tol: float = 1e-9
    max_iters: int | None = None
    models: int | None = None
    fmt: str = "json"

    def to_dict(self) -> dict:
        out = {"command": self.command, "seed": self.seed, "tol": self.tol}
        for key in ("state_source", "dim", "sign", "restarts", "max_iters", "models"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["format"] = self.fmt
        return out


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from None


def _default_seed() -> int:
    return _env_int(ENV_SEED, 0)


def _load_state(source: str, dim: int | None) -> TwoQuditState:
    if source == "ghz":
        if dim is None:
            raise ValidationError("--state ghz requires --dim")
        return ghz(dim)
    if source.startswith("file:"):
        state = TwoQuditState.from_file(source[len("file:") :])
        if dim is not None and dim != state.dim:
            raise ValidationError(f"--dim {dim} does not match state file dim {state.dim}")
        return state
    raise ValidationError(f"state source must be 'ghz' or 'file:PATH', got {source!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(config: RunConfig, report: dict, out_path: str | None) -> None:
    payload = {"schema": SCHEMA_VERSION, "config": config.to_dict(), "report": report}
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def cmd_spectrum(args) -> int:
    config = RunConfig(
        command="spectrum",
        state_source=args.state,
        dim=args.dim,
        seed=args.seed,
        fmt=args.format,
    )
    state = _load_state(args.state, args.dim)
    tcorr = correlation_matrix(state)
    if args.format == "csv":
        if args.out:
            tcorr.to_csv(args.out)
        else:
            tcorr.to_csv(sys.stdout)
        return EXIT_OK
    spectral = correlation_spectrum(tcorr)
    d = state.dim
    report = {
        "dim": d,
        "eigenvalues": [float(x) for x in spectral.eigenvalues],
        "clusters": [
            {"value": c.value, "multiplicity": c.multiplicity} for c in spectral.clusters
        ],
        "spectral_norm": spectral.spectral_norm,
    }
    if args.state == "ghz":
        plus = next((c for c in spectral.clusters if c.value > 0), None)
        minus = next((c for c in spectral.clusters if c.value < 0), None)
        expected_plus_mult = d * (d - 1) // 2 + (d - 1)
        expected_minus_mult = d * (d - 1) // 2
        matches = (
            len(spectral.clusters) == 2
            and plus is not None
            and minus is not None
            and abs(plus.value - 2.0 / d) <= 1e-11
            and abs(minus.value + 2.0 / d) <= 1e-11
            and plus.multiplicity == expected_plus_mult
            and minus.multiplicity == expected_minus_mult
        )
        report["ghz_expected"] = {
            "plus_eigenvalue": 2.0 / d,
            "plus_multiplicity": expected_plus_mult,
            "minus_eigenvalue": -2.0 / d,
            "minus_multiplicity": expected_minus_mult,
            "matches": matches,
        }
    _emit_report(config, report, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    config = RunConfig(
        command="certify",
        state_source=args.state,
        dim=args.dim,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
    )
    state = _load_state(args.state, args.dim)
    membership = certify_state(state, tol=args.tol, restarts=args.restarts, seed=args.seed)
    report = membership.to_dict()
    for entry in membership.sign_results:
        if not entry.certified:
            continue
        observables = find_perfect_observables(membership, entry.sign, count=2)
        key = "+" if entry.sign > 0 else "-"
        report["signs"][key]["perfect_observables"] = [obs.to_dict() for obs in observables]
    _emit_report(config, report, args.out)
    return EXIT_OK if membership.in_class else EXIT_CERTIFICATION_FAILURE


def cmd_maximize(args) -> int:
    sign = SIGNS[args.sign]
    config = RunConfig(
        command="maximize",
        state_source=args.state,
        dim=args.dim,
        sign=args.sign,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    state = _load_state(args.state, args.dim)
    opts = MaximizeOptions(
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    report = maximize_bell(state, sign, opts)
    if args.trace_out:
        write_trace_csv(report, args.trace_out)
    _emit_report(config, report.to_dict(include_timing=args.timing), args.out)
    if any(r.hit_cap for r in report.per_restart):
        sys.stderr.write("warning: at least one restart hit the iteration cap\n")
    if not report.best_value <= BOUND_LIMIT + BOUND_TOL:
        sys.stderr.write(
            f"BOUND VIOLATION: best value {report.best_value!r} exceeds "
            f"{BOUND_LIMIT} + {BOUND_TOL}\n"
        )
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_lhv(args) -> int:
    sign = SIGNS[args.sign]
    config = RunConfig(command="lhv", sign=args.sign, models=args.models, seed=args.seed)
    report = lhv_monte_carlo(sign, args.models, seed=args.seed)
    _emit_report(config, report.to_dict(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditbell",
        description="Bell-inequality analysis of two-qudit states with perfect correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument(
            "--state",
            default="ghz",
            help="'ghz' or 'file:PATH': JSON {\"dim\": d, \"rho\": ...} with rho as base64 "
            "complex128 or as row-major [[re, im], ...] pairs",
        )
        p.add_argument("--dim", type=int, default=None, help="single-qudit dimension")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("spectrum", help="correlation-matrix spectrum report")
    add_state_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", help="perfectness certification for both signs")
    add_state_args(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--restarts", type=int, default=DEFAULT_RESTARTS, help="witness-search restarts"
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("maximize", help="maximize the Bell combination under perfectness")
    add_state_args(p)
    p.add_argument("--sign", required=True, choices=tuple(SIGNS))
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--trace-out", default=None, help="write restart,iteration,value CSV here")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("lhv", help="Monte-Carlo check of the classical bound")
    p.add_argument("--models", type=int, default=10000)
    p.add_argument("--sign", required=True, choices=tuple(SIGNS))
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lhv)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CertificationError as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return EXIT_CERTIFICATION_FAILURE
    except (ValueError, OSError) as exc:  # every named input error is a ValueError
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
