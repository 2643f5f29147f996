"""The Bloch maps work from the sparse generator matrix alone.

The dense ``(d^2-1, d, d)`` basis stays the reference these tests compare
against; no library path may build it.
"""

import sys

import numpy as np
import pytest

import quditbell as qb
from quditbell import QuditObservable, ValidationError, build_basis, to_bloch
from quditbell.bloch import _generator_sum
from quditbell.cli import main

from conftest import random_traceless_hermitian


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
def test_maps_match_dense_reference(d, rng):
    gens = build_basis(d)
    for _ in range(20):
        x = random_traceless_hermitian(d, rng)
        r = to_bloch(x).coords
        assert np.array_equal(r, (np.einsum("ij,kji->k", x, gens) / np.sqrt(2.0 * d)).real)
        dense_sum = np.tensordot(r, gens, axes=(0, 0))
        assert np.max(np.abs(_generator_sum(r, d) - dense_sum)) <= 1e-15


def test_no_library_path_builds_the_dense_basis(monkeypatch, capsys):
    def dense_basis(*args, **kwargs):
        raise AssertionError("a library path built the dense basis")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quditbell" and hasattr(module, "build_basis"):
            monkeypatch.setattr(module, "build_basis", dense_basis)

    d = 4
    obs = qb.make_offdiag_real_pm1(d, [0, 1])
    assert np.array_equal(qb.to_bloch(obs.matrix).coords, obs.bloch.coords)
    assert np.max(np.abs(qb.from_bloch(obs.bloch).matrix - obs.matrix)) <= 1e-15
    assert qb.in_pm1_shell(obs.bloch)
    assert qb.in_pm1_shell(qb.pm1_round(np.arange(d * d - 1.0), d))

    state = qb.ghz(d)
    membership = qb.certify_state(state)
    assert membership.in_class
    opts = qb.MaximizeOptions(restarts=4)
    for sign in (1, -1):
        assert qb.find_perfect_observables(membership, sign, count=2)
        assert qb.maximize_bell(state, sign, opts).best_value == pytest.approx(1.5, abs=1e-12)

    for argv in (
        ["certify", "--state", "ghz", "--dim", "4"],
        ["maximize", "--state", "ghz", "--dim", "4", "--sign", "+", "--restarts", "4"],
        ["spectrum", "--state", "ghz", "--dim", "4"],
    ):
        assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observable_rejected_by_name(bad):
    for matrix in (np.diag([bad, bad]), np.array([[0, bad], [bad, 0]])):
        with pytest.raises(ValidationError, match="observable entries must be finite"):
            to_bloch(matrix)
        with pytest.raises(ValidationError, match="observable entries must be finite"):
            QuditObservable.from_matrix(matrix)
