"""Command-line interface.

Subcommands expose the library surface with reproducible seeds and
machine-readable reports:

* ``spectrum``  - correlation-matrix eigenvalues, multiplicities, norm
* ``certify``   - perfectness certification for both signs
* ``maximize``  - constrained maximization of the Bell combination
* ``lhv``       - Monte-Carlo check of the classical bound 1

Exit codes: 0 success, 1 input error (a usage error included), 2 certification
failure, 3 bound violation.  Reports are the library's ``to_dict()`` dicts, and
this module is the one place that encodes them.  Output JSON is deterministic
for a fixed config and seed; ``--timing`` adds a separate field here, so default
reports are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

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

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CERTIFICATION_FAILURE = 2
EXIT_BOUND_VIOLATION = 3

SIGNS = {"+": 1, "-": -1}  # --sign choices

BOUND_LIMIT = 1.5
BOUND_TOL = 1e-6


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


def _emit_report(args, report: dict) -> None:
    """Write ``report`` and the invocation's config as sorted, indented JSON.

    The config echoes the parsed arguments; ``tol`` and ``format`` take their
    defaults where a subcommand has no such flag, and a ``None`` is dropped.
    """
    config = {
        "command": args.command,
        "seed": args.seed,
        "tol": getattr(args, "tol", 1e-9),
        "format": getattr(args, "format", "json"),
        "state_source": getattr(args, "state", None),
        **{key: getattr(args, key, None) for key in ("dim", "sign", "restarts", "max_iters", "models")},
    }
    config = {key: value for key, value in config.items() if value is not None}
    payload = {"schema": SCHEMA_VERSION, "config": config, "report": report}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    # no reference to the state is kept, so correlation_matrix frees rho once it is permuted
    tcorr = correlation_matrix(_load_state(args.state, args.dim))
    if args.format == "csv":
        np.savetxt(args.out or sys.stdout, tcorr.matrix, delimiter=",")
        return EXIT_OK
    spectral = correlation_spectrum(tcorr)
    d = tcorr.dim
    report = {
        "dim": d,
        "eigenvalues": [float(x) for x in spectral.eigenvalues],
        "clusters": [
            {"value": c.value, "multiplicity": c.multiplicity} for c in spectral.clusters
        ],
        "spectral_norm": spectral.spectral_norm,
    }
    if args.state == "ghz":
        plus = spectral.cluster_at(2.0 / d, 1e-11)
        minus = spectral.cluster_at(-2.0 / d, 1e-11)
        expected_plus_mult = d * (d - 1) // 2 + (d - 1)
        expected_minus_mult = d * (d - 1) // 2
        matches = (
            len(spectral.clusters) == 2
            and plus is not None
            and minus is not None
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
    _emit_report(args, report)
    return EXIT_OK


def cmd_certify(args) -> int:
    # no reference to the state is kept, so certify_state frees rho once T is built
    membership = certify_state(
        _load_state(args.state, args.dim), tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    report = membership.to_dict()
    for entry in membership.sign_results:
        if not entry.certified:
            continue
        observables = find_perfect_observables(membership, entry.sign, count=2)
        key = "+" if entry.sign > 0 else "-"
        report["signs"][key]["perfect_observables"] = [obs.to_dict() for obs in observables]
    _emit_report(args, report)
    return EXIT_OK if membership.in_class else EXIT_CERTIFICATION_FAILURE


def cmd_maximize(args) -> int:
    sign = SIGNS[args.sign]
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
    fields = report.to_dict()
    if args.timing:
        fields["timing"] = {"wall_time_seconds": report.wall_time}
    _emit_report(args, fields)
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
    report = lhv_monte_carlo(sign, args.models, seed=args.seed)
    _emit_report(args, report.to_dict())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a :class:`ValidationError` (exit 1), not exit 2; subparsers inherit it."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--seed", type=int, default=0)
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
