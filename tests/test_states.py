import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditbell import (
    DimensionError,
    QuditObservable,
    TwoQuditState,
    ValidationError,
    bloch_expectation,
    build_basis,
    correlation_matrix,
    from_bloch,
    ghz,
    is_symmetric,
    make_diag_pm1,
    maximally_mixed,
    product_expectation,
)

from quditbell import gellmann, states
from quditbell.states import cluster_eigenvalues

from conftest import SY, SZ, random_state, random_traceless_hermitian


class TestGhz:
    def test_pure_projector(self):
        state = ghz(2)
        assert_allclose(state.rho @ state.rho, state.rho, atol=1e-12)
        assert abs(np.trace(state.rho) - 1.0) <= 1e-14
        assert np.linalg.matrix_rank(state.rho, tol=1e-10) == 1
        assert state.symmetric

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_symmetric_all_dims(self, d):
        assert ghz(d).symmetric

    def test_rejects_small_dim(self):
        with pytest.raises(DimensionError):
            ghz(1)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_built_in_states_pass_the_full_check(self, d):
        # ghz and maximally_mixed skip from_matrix; its checks must agree
        for state in (ghz(d), maximally_mixed(d)):
            checked = TwoQuditState.from_matrix(state.rho)
            assert np.array_equal(checked.rho, state.rho)
            assert checked.symmetric == state.symmetric


class TestCorrelationMatrix:
    def test_ghz2_matrix(self):
        t = correlation_matrix(ghz(2))
        assert_allclose(t.matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert t.symmetric

    def test_ghz3_spectrum(self):
        spectral = correlation_matrix(ghz(3)).spectral
        values = {round(c.value, 9): c.multiplicity for c in spectral.clusters}
        assert values == {round(2 / 3, 9): 5, round(-2 / 3, 9): 3}

    @pytest.mark.parametrize("d", range(2, 8))
    def test_ghz_norm_and_multiplicities(self, d):
        spectral = correlation_matrix(ghz(d)).spectral
        assert abs(spectral.spectral_norm - 2.0 / d) <= 1e-11
        by_mult = {c.multiplicity: c.value for c in spectral.clusters}
        assert by_mult[d * (d - 1) // 2 + (d - 1)] == pytest.approx(2.0 / d, abs=1e-11)
        assert by_mult[d * (d - 1) // 2] == pytest.approx(-2.0 / d, abs=1e-11)

    def test_maximally_mixed_is_zero(self):
        t = correlation_matrix(maximally_mixed(3))
        assert np.max(np.abs(t.matrix)) <= 1e-14

    def test_symmetric_states_give_symmetric_t(self, rng):
        for d in (2, 3):
            for _ in range(5):
                t = correlation_matrix(random_state(d, rng, symmetric=True))
                assert np.max(np.abs(t.matrix - t.matrix.T)) <= 1e-11

    def test_csv_export(self, tmp_path):
        path = tmp_path / "t.csv"
        correlation_matrix(ghz(2)).to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3
        assert_allclose(np.loadtxt(path, delimiter=","), np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_clusters_cover_dimension(self):
        spectral = correlation_matrix(ghz(5)).spectral
        assert sum(c.multiplicity for c in spectral.clusters) == 24
        for c in spectral.clusters:
            gram = c.vectors.T @ c.vectors
            assert_allclose(gram, np.eye(c.multiplicity), atol=1e-10)

    def test_cluster_eigenvalues_groups_within_relative_gap(self):
        # gaps below CLUSTER_RTOL * max(1, max |lambda|) merge, larger ones split
        eigenvalues = np.array([-2.0, -2.0 + 1e-9, 0.5, 0.5 + 1e-7])
        clusters = cluster_eigenvalues(eigenvalues, np.eye(4))
        assert [c.multiplicity for c in clusters] == [2, 1, 1]
        assert clusters[0].value == pytest.approx(-2.0 + 5e-10, abs=1e-15)
        assert_allclose(clusters[0].vectors, np.eye(4)[:, :2])


def dense_einsum_t(state):
    """The O(d^6) dense formula that the sparse transform replaced."""
    gens = build_basis(state.dim)
    half = np.einsum("jkab,naj->nkb", state.as_4index(), gens)
    return np.einsum("nkb,mbk->nm", half, gens)


class TestSparseTransform:
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    def test_matches_dense_einsum(self, d, rng):
        asymmetric = random_state(d, rng)
        assert np.max(np.abs(asymmetric.rho.imag)) > 1e-3
        for state in (asymmetric, random_state(d, rng, symmetric=True), ghz(d)):
            reference = dense_einsum_t(state)
            tcorr = correlation_matrix(state)
            assert np.max(np.abs(tcorr.matrix - reference.real)) <= 1e-14
            assert tcorr.symmetric == state.symmetric
        t = correlation_matrix(asymmetric).matrix
        assert np.max(np.abs(t - t.T)) > 1e-3

    def test_builds_no_dense_basis(self, monkeypatch, rng):
        def dense_basis(*args, **kwargs):
            raise AssertionError("correlation_matrix built the dense basis")

        for module in (gellmann, states):
            monkeypatch.setattr(module, "build_basis", dense_basis, raising=False)
        assert correlation_matrix(random_state(5, rng)).matrix.shape == (24, 24)

    @pytest.mark.parametrize("bad", [np.nan, 0.1j])
    def test_imaginary_residual_gate(self, bad):
        # bypasses from_matrix: a NaN or non-hermitian rho must not yield a T
        rho = ghz(2).rho.copy()
        rho[0, 3] += bad
        with pytest.raises(ValidationError, match="imaginary residual"):
            correlation_matrix(TwoQuditState(dim=2, rho=rho, symmetric=False))


class TestExpectations:
    def test_ghz2_perfect_values(self):
        state = ghz(2)
        sz = QuditObservable.from_matrix(SZ)
        sy = QuditObservable.from_matrix(SY)
        assert product_expectation(state, sz, sz) == pytest.approx(1.0, abs=1e-12)
        assert product_expectation(state, sy, sy) == pytest.approx(-1.0, abs=1e-12)

    def test_ghz4_diagonal_perfect(self):
        state = ghz(4)
        x = make_diag_pm1(4, [1, 1, -1, -1])
        assert product_expectation(state, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_bloch_form_ghz2(self):
        t = correlation_matrix(ghz(2))
        ez = from_bloch([0, 0, 1], 2).bloch
        ex = from_bloch([1, 0, 0], 2).bloch
        ey = from_bloch([0, 1, 0], 2).bloch
        assert bloch_expectation(t, ez, ez) == pytest.approx(1.0, abs=1e-12)
        assert bloch_expectation(t, ez, ex) == pytest.approx(0.0, abs=1e-12)
        assert bloch_expectation(t, ey, ey) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dual_path_identity(self, d, rng):
        for _ in range(50):
            state = random_state(d, rng)
            t = correlation_matrix(state)
            x = random_traceless_hermitian(d, rng)
            y = random_traceless_hermitian(d, rng)
            obs_a = QuditObservable.from_matrix(x)
            obs_b = QuditObservable.from_matrix(y)
            direct = product_expectation(state, obs_a, obs_b)
            quad = bloch_expectation(t, obs_a.bloch, obs_b.bloch)
            assert abs(direct - quad) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            product_expectation(ghz(3), QuditObservable.from_matrix(SZ), QuditObservable.from_matrix(SZ))

    def test_matches_literal_kron(self, rng):
        # pin the tensor index conventions against an explicit kron evaluation
        from quditbell import build_basis

        for d in (2, 3):
            state = random_state(d, rng)
            x = QuditObservable.from_matrix(random_traceless_hermitian(d, rng))
            y = QuditObservable.from_matrix(random_traceless_hermitian(d, rng))
            literal = np.trace(state.rho @ np.kron(x.matrix, y.matrix)).real
            assert product_expectation(state, x, y) == pytest.approx(literal, abs=1e-12)
            gens = build_basis(d)
            t = correlation_matrix(state).matrix
            n, m = 1, d * d - 2
            literal_t = np.trace(state.rho @ np.kron(gens[n], gens[m])).real
            assert t[n, m] == pytest.approx(literal_t, abs=1e-12)


class TestSymmetry:
    def test_ghz_symmetric(self):
        for d in (2, 3, 4):
            assert is_symmetric(ghz(d))

    def test_product_state_not_symmetric(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |0><0| (x) |1><1|
        state = TwoQuditState.from_matrix(rho)
        assert not state.symmetric
        assert not is_symmetric(state)

    def test_symmetrized_mixture(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 0.5
        rho[2, 2] = 0.5
        assert is_symmetric(TwoQuditState.from_matrix(rho))


class TestValidation:
    def test_non_psd_named(self):
        rho = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            TwoQuditState.from_matrix(rho)

    def test_bad_trace_named(self):
        with pytest.raises(ValidationError, match="trace"):
            TwoQuditState.from_matrix(np.eye(4, dtype=complex))

    def test_not_hermitian_named(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.1j
        with pytest.raises(ValidationError, match="hermitian"):
            TwoQuditState.from_matrix(rho)

    def test_wrong_shape(self):
        with pytest.raises(ValidationError):
            TwoQuditState.from_matrix(np.eye(5, dtype=complex) / 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_named(self, bad):
        rho = ghz(2).rho.copy()
        rho[0, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            TwoQuditState.from_matrix(rho)
        payload = json.loads(ghz(2).to_json())
        payload["rho"][3][0] = bad
        with pytest.raises(ValidationError, match="finite"):
            TwoQuditState.from_json(json.dumps(payload))


def test_state_json_roundtrip(tmp_path, rng):
    state = random_state(3, rng, symmetric=True)
    path = tmp_path / "state.json"
    state.to_file(path)
    back = TwoQuditState.from_file(path)
    assert back.dim == 3
    assert_allclose(back.rho, state.rho, atol=1e-15)
    assert back.symmetric

    payload = json.loads(path.read_text())
    assert payload["dim"] == 3
    assert len(payload["rho"]) == 81

    payload["dim"] = 2
    with pytest.raises(ValidationError):
        TwoQuditState.from_json(json.dumps(payload))
