#!/usr/bin/env python3
"""Survey of GHZ states across even dimensions.

For each requested dimension: correlation-matrix spectrum, perfectness
certification for both signs, and the constrained Bell maximization.
Prints a summary table and optionally writes per-dimension JSON reports.

    python scripts/ghz_survey.py --dims 2 4 6 --restarts 64 --out-dir results/
"""

import argparse
import json
import pathlib
import time

from quditbell import (
    MaximizeOptions,
    certify_state,
    cli,
    ghz,
    maximize_bell,
    scalar_bound,
)


def survey_dimension(d, restarts, seed):
    state = ghz(d)
    membership = certify_state(state, seed=seed)
    spectral = membership.tcorr.spectral
    row = {
        "dim": d,
        "spectral_norm": spectral.spectral_norm,
        "clusters": [(c.value, c.multiplicity) for c in spectral.clusters],
        "in_class": membership.in_class,
        "membership": membership.to_dict(),
        "maximization": {},
    }
    for sign, label in ((1, "+"), (-1, "-")):
        start = time.perf_counter()
        report = maximize_bell(state, sign, MaximizeOptions(restarts=restarts, seed=seed))
        row["maximization"][label] = {
            "best_value": report.best_value,
            "b_perfect_residual": report.b_perfect_residual,
            "seconds": round(time.perf_counter() - start, 2),
        }
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 4, 6])
    parser.add_argument("--restarts", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    bound, argmax = scalar_bound()
    print(f"scalar bound: max_z sqrt(2(1-z)) + z = {bound:.12f} at z = {argmax:.9f}")
    print(f"{'d':>3} {'|T|':>10} {'certified':>10} {'max(+)':>14} {'max(-)':>14}")

    rows = []
    for d in args.dims:
        if d % 2:
            print(f"{d:>3}  skipped (odd dimension: no +-1-spectrum observables)")
            continue
        row = survey_dimension(d, args.restarts, args.seed)
        rows.append(row)
        print(
            f"{d:>3} {row['spectral_norm']:>10.6f} {str(row['in_class']):>10} "
            f"{row['maximization']['+']['best_value']:>14.9f} "
            f"{row['maximization']['-']['best_value']:>14.9f}"
        )
        for label, result in row["maximization"].items():
            best = result["best_value"]
            if cli.bound_violated(best):
                print(f"    WARNING: max({label}) exceeds {bound} by {best - bound:.3e}")

    if args.out_dir:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            path = out_dir / f"ghz_d{row['dim']}.json"
            path.write_text(json.dumps(row, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} reports to {out_dir}")


if __name__ == "__main__":
    main()
