#!/usr/bin/env python3
"""Digests of a fixed list of ``quditbell`` commands, for byte-identity checks.

Each command runs in-process through ``quditbell.cli.main`` in a temporary
directory and prints one line ``sha256 exit-code argv``.  The digest covers the
command's stdout, its stderr and every file it writes (removed again before the
next command), so two runs print the same lines exactly when every report, CSV
table, trace file and message is byte-identical.  The first line digests the
state files the commands read: a seeded ``U (x) U``-rotated GHZ_4 state in both
encodings (base64 and ``[[re, im], ...]`` pairs) and a noisy GHZ_4 mixture.

The list covers every subcommand, JSON and CSV output, ``--out`` and
``--trace-out``, and exit codes 0, 1 and 2; it never passes ``--timing``, whose
wall time differs between runs.  Compare two runs, or two versions of the
library, with

    python scripts/cli_digests.py > a.txt
    python scripts/cli_digests.py > b.txt
    cmp a.txt b.txt
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import tempfile

import numpy as np

import quditbell as qb
from quditbell import cli
from quditbell.bloch import haar_unitary
from quditbell.serialize import complex_matrix_to_pairs

STATE_FILES = ("rot4_b64.json", "rot4_pairs.json", "noisy4.json")

COMMANDS = [
    "spectrum --state ghz --dim 2",
    "spectrum --state ghz --dim 4 --format csv",
    "spectrum --state ghz --dim 4 --format csv --out t4.csv",
    "spectrum --state ghz --dim 24 --out spec24.json",
    "spectrum --state file:rot4_b64.json",
    "spectrum --state file:rot4_pairs.json --format csv",
    "spectrum --state ghz --dim 65",
    "certify --state ghz --dim 2",
    "certify --state ghz --dim 4",
    "certify --state ghz --dim 6 --restarts 4 --seed 3 --out cert.json",
    "certify --state file:rot4_b64.json --seed 3",
    "certify --state file:rot4_pairs.json --seed 3 --out rot4_cert.json",
    "certify --state file:noisy4.json",
    "certify --state ghz --dim 3",
    "certify --state ghz --dim 4 --tol nan",
    "certify --state file:missing.json",
    "certify --state file:rot4_b64.json --dim 6",
    "maximize --state ghz --dim 2 --sign + --restarts 4",
    "maximize --state ghz --dim 4 --sign - --restarts 16 --seed 3 --out max.json",
    "maximize --state ghz --dim 4 --sign + --restarts 4 --max-iters 1 --trace-out trace.csv",
    "maximize --state file:rot4_b64.json --sign + --restarts 4 --seed 1",
    "maximize --state file:rot4_pairs.json --sign - --restarts 4 --seed 1 --out rot4_max.json",
    "maximize --state ghz --dim 3 --sign +",
    "maximize --state ghz --dim 2 --sign + --restarts 2 --tol -1",
    "lhv --models 2000 --sign - --seed 3 --out lhv.json",
    "lhv --models 500 --sign +",
    "lhv --models 3 --sign + --seed -1",
    "certify --dim four",
    "maximize --state ghz --dim 2",
]


def write_states(directory: pathlib.Path) -> None:
    u = haar_unitary(4, np.random.default_rng(7))
    uu = np.kron(u, u)
    rotated = qb.TwoQuditState.from_matrix(uu @ qb.ghz(4).rho @ uu.conj().T)
    rotated.to_file(directory / "rot4_b64.json")
    pairs = json.dumps({"dim": 4, "rho": complex_matrix_to_pairs(rotated.rho)})
    (directory / "rot4_pairs.json").write_text(pairs)
    noisy = 0.9 * qb.ghz(4).rho + 0.1 * qb.maximally_mixed(4).rho
    qb.TwoQuditState.from_matrix(noisy).to_file(directory / "noisy4.json")


def digest(directory: pathlib.Path, names, *streams: str) -> str:
    """sha256 over the streams, then each file's name and bytes in name order."""
    h = hashlib.sha256()
    for text in streams:
        h.update(text.encode())
        h.update(b"\0")
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (directory / name).read_bytes() + b"\0")
    return h.hexdigest()


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        os.chdir(directory)
        try:
            write_states(directory)
            print(digest(directory, STATE_FILES), "-", "state files")
            for command in COMMANDS:
                argv = shlex.split(command)
                code, out, err = run(argv)
                written = [p.name for p in directory.iterdir() if p.name not in STATE_FILES]
                print(digest(directory, written, out, err), code, command)
                for name in written:
                    (directory / name).unlink()
        finally:
            os.chdir(start)


if __name__ == "__main__":
    main()
