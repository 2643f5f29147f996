import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import quditbell
from quditbell import DimensionCapError, DimensionError, build_basis
from quditbell.gellmann import _apply_u, antisymmetric_rows, generator_entries

from conftest import SX, SY, SZ


class TestConstruction:
    def test_d2_is_pauli(self):
        basis = build_basis(2)
        assert len(basis) == 3
        assert_allclose(basis[0], SX)
        assert_allclose(basis[1], SY)
        assert_allclose(basis[2], SZ)

    def test_d3_grouped_gellmann(self):
        basis = build_basis(3)
        assert len(basis) == 8
        # symmetric block: (1,2), (1,3), (2,3)
        s12 = np.zeros((3, 3), dtype=complex)
        s12[0, 1] = s12[1, 0] = 1
        s13 = np.zeros((3, 3), dtype=complex)
        s13[0, 2] = s13[2, 0] = 1
        assert_allclose(basis[0], s12)
        assert_allclose(basis[1], s13)
        # antisymmetric block starts at index 3
        as12 = np.zeros((3, 3), dtype=complex)
        as12[0, 1] = -1j
        as12[1, 0] = 1j
        assert_allclose(basis[3], as12)
        # diagonal block: l = 1, 2
        assert_allclose(basis[6], np.diag([1.0, -1.0, 0.0]))
        assert_allclose(basis[7], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3))

    def test_d4_pairwise_orthogonality(self):
        gens = build_basis(4)
        gram = np.einsum("jab,kba->jk", gens, gens)
        assert_allclose(gram, 2.0 * np.eye(15), atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_family_counts_and_structure(self, d):
        basis = build_basis(d)
        n_off = d * (d - 1) // 2
        assert len(basis) == d * d - 1 == 2 * n_off + (d - 1)
        for g in basis:
            assert np.max(np.abs(g - g.conj().T)) <= 1e-15
            assert abs(np.trace(g)) <= 1e-13
        # antisymmetric block is purely imaginary, diagonal block real diagonal
        assert np.max(np.abs(basis[n_off : 2 * n_off].real)) == 0
        for g in basis[2 * n_off :]:
            assert_allclose(g, np.diag(np.diagonal(g)))

    @pytest.mark.parametrize("d", range(2, 10))
    def test_trace_orthonormalization(self, d):
        gens = build_basis(d)
        gram = np.einsum("jab,kba->jk", gens, gens)
        assert np.max(np.abs(gram - 2.0 * np.eye(d * d - 1))) <= 1e-12

    def test_deterministic_and_immutable(self):
        b1 = build_basis(5)
        b2 = build_basis(5)
        assert_allclose(b1, b2)
        with pytest.raises(ValueError):
            b1[0, 0, 0] = 1.0

    def test_errors(self):
        with pytest.raises(DimensionError):
            build_basis(1)
        with pytest.raises(DimensionCapError):
            build_basis(65)


def _real_coefficients(d, rows, values):
    """U's real entries: ``values`` divided by ``1j`` on the antisymmetric rows."""
    anti = antisymmetric_rows(d)
    return np.where((rows >= anti.start) & (rows < anti.stop), values.imag, values.real)


class TestGeneratorEntries:
    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_reproduces_dense_basis_exactly(self, d):
        rows, cols, values = generator_entries(d)
        # two entries per off-diagonal generator, l + 1 for diagonal label l
        n_entries = 2 * d * (d - 1) + (d - 1) * (d + 2) // 2
        assert rows.shape == cols.shape == values.shape == (n_entries,)
        # row by row, columns ascending
        assert np.all(np.diff(rows) >= 0)
        assert np.all(np.diff(cols)[np.diff(rows) == 0] > 0)
        u = np.zeros((d * d - 1, d * d))
        u[rows, cols] = _real_coefficients(d, rows, values)
        coeff = np.ones(d * d - 1, dtype=complex)
        coeff[antisymmetric_rows(d)] = 1j
        dense = coeff[:, None, None] * u.reshape(-1, d, d)
        assert np.array_equal(dense, build_basis(d))
        assert np.array_equal(coeff[rows] * _real_coefficients(d, rows, values), values)

    def test_cached_and_read_only(self):
        entries = generator_entries(5)
        assert generator_entries(5) is entries
        for arr in entries:
            with pytest.raises(ValueError):
                arr[0] = 2

    def test_errors(self):
        with pytest.raises(DimensionError):
            generator_entries(1)
        with pytest.raises(DimensionCapError):
            generator_entries(65)


def _reference_apply_u(d, x):
    """``U @ x`` one stored entry at a time: each row starts from 0.0, terms in stored order."""
    rows, cols, values = generator_entries(d)
    out = np.zeros((d * d - 1, x.shape[1]))
    for n, j, u in zip(rows, cols, _real_coefficients(d, rows, values)):
        out[n] += u * x[j]
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_apply_u_is_bitwise_the_stored_order_sum(d, rng):
    # a third each of random values, +0.0 and -0.0, so that zero signs are pinned too
    x = rng.standard_normal((d * d, 12))
    kind = rng.integers(0, 3, size=x.shape)
    x[kind == 1] = 0.0
    x[kind == 2] = -0.0
    x[:, 0], x[:, 1] = 0.0, -0.0
    got = _apply_u(d, x)
    assert got.shape == (d * d - 1, 12)
    assert np.array_equal(got.view(np.uint64), _reference_apply_u(d, x).view(np.uint64))


def test_library_imports_no_scipy():
    code = (
        "import sys, quditbell, quditbell.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    paths = [str(Path(quditbell.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _grouped_generators(d):
    """``(label, L)`` in the grouped ordering, built here from its statement alone:
    symmetric ``(m, k)`` pairs in lexicographic order, then the antisymmetric pairs,
    then diagonal ``l = 1 .. d-1``."""
    pairs = [(m, k) for m in range(1, d + 1) for k in range(m + 1, d + 1)]
    labelled = []
    for kind, lower, upper in (("symmetric", 1, 1), ("antisymmetric", 1j, -1j)):
        for m, k in pairs:
            g = np.zeros((d, d), dtype=complex)
            g[k - 1, m - 1], g[m - 1, k - 1] = lower, upper
            labelled.append(((kind, m, k), g))
    for l in range(1, d):
        diag = np.concatenate([np.ones(l), [-l], np.zeros(d - l - 1)])
        labelled.append((("diagonal", l), np.diag(diag * np.sqrt(2.0 / (l * (l + 1))))))
    return labelled


class TestIndexing:
    def test_spec_positions(self):
        # (symmetric, 1, 2) first and diagonal l = 1 at 2 for d = 2; (antisymmetric, 1, 2) at 6 for d = 4
        assert np.array_equal(build_basis(2)[0], SX)
        assert np.array_equal(build_basis(2)[2], SZ)
        as12 = np.zeros((4, 4), dtype=complex)
        as12[:2, :2] = SY
        assert np.array_equal(build_basis(4)[6], as12)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_bijection_with_labels(self, d):
        labelled = _grouped_generators(d)
        labels = [label for label, _ in labelled]
        assert len(set(labels)) == len(labels) == d * d - 1
        assert np.array_equal(np.stack([g for _, g in labelled]), build_basis(d))

    def test_index_matches_matrix(self):
        # (2, 4) follows (1, 2), (1, 3), (1, 4) and (2, 3) in the symmetric block
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = expected[3, 1] = 1
        assert np.array_equal(build_basis(4)[4], expected)
