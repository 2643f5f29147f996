import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditbell import DimensionCapError, DimensionError, build_basis, flat_index, index_label
from quditbell.gellmann import antisymmetric_rows, sparse_generators

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
        # cap is configurable
        with pytest.raises(DimensionCapError):
            build_basis(17, cap=16)
        assert len(build_basis(17, cap=20)) == 288


class TestSparseGenerators:
    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_reproduces_dense_basis_exactly(self, d):
        u = sparse_generators(d)
        assert u.shape == (d * d - 1, d * d)
        # two entries per off-diagonal generator, l + 1 for diagonal label l
        assert u.nnz == 2 * d * (d - 1) + (d - 1) * (d + 2) // 2
        coeff = np.ones(d * d - 1, dtype=complex)
        coeff[antisymmetric_rows(d)] = 1j
        dense = coeff[:, None, None] * u.toarray().reshape(-1, d, d)
        assert np.array_equal(dense, build_basis(d))

    def test_cached_and_read_only(self):
        u = sparse_generators(5)
        assert sparse_generators(5) is u
        with pytest.raises(ValueError):
            u.data[0] = 2.0

    def test_errors(self):
        with pytest.raises(DimensionError):
            sparse_generators(1)
        with pytest.raises(DimensionCapError):
            sparse_generators(65)
        with pytest.raises(DimensionCapError):
            sparse_generators(17, cap=16)
        assert sparse_generators(17, cap=20).shape == (288, 289)


class TestIndexing:
    def test_spec_positions(self):
        assert flat_index(2, "symmetric", 1, 2) == 0
        assert flat_index(2, "diagonal", 1) == 2
        assert flat_index(4, "antisymmetric", 1, 2) == 6

    @pytest.mark.parametrize("d", range(2, 8))
    def test_bijection_with_labels(self, d):
        seen = set()
        for idx in range(d * d - 1):
            label = index_label(d, idx)
            assert flat_index(d, *label) == idx
            seen.add(label)
        assert len(seen) == d * d - 1

    def test_index_matches_matrix(self):
        basis = build_basis(4)
        idx = flat_index(4, "symmetric", 2, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = expected[3, 1] = 1
        assert_allclose(basis[idx], expected)

    def test_bad_indices(self):
        with pytest.raises(IndexError):
            flat_index(3, "symmetric", 2, 2)
        with pytest.raises(IndexError):
            flat_index(3, "symmetric", 0, 1)
        with pytest.raises(IndexError):
            flat_index(3, "diagonal", 3)
        with pytest.raises(IndexError):
            flat_index(3, "diagonal", 1, 2)
        with pytest.raises(IndexError):
            flat_index(3, "symmetric", 1)
        with pytest.raises(IndexError):
            flat_index(3, "weird", 1, 2)
        with pytest.raises(IndexError):
            index_label(3, 8)

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flat_index_range(self, d, data):
        kind = data.draw(st.sampled_from(["symmetric", "antisymmetric", "diagonal"]))
        if kind == "diagonal":
            l = data.draw(st.integers(min_value=1, max_value=d - 1))
            idx = flat_index(d, kind, l)
        else:
            m = data.draw(st.integers(min_value=1, max_value=d - 1))
            k = data.draw(st.integers(min_value=m + 1, max_value=d))
            idx = flat_index(d, kind, m, k)
        assert 0 <= idx < d * d - 1

