import base64
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditbell import (
    DimensionError,
    QuditObservable,
    TwoQuditState,
    ValidationError,
    bell_expression,
    bloch_expectation,
    build_basis,
    check_bell_condition,
    correlation_matrix,
    from_bloch,
    ghz,
    make_diag_pm1,
    maximally_mixed,
    product_expectation,
)

from quditbell import errors, gellmann, states
from quditbell.bloch import haar_unitary
from quditbell.serialize import complex_matrix_to_base64_bytes, complex_matrix_to_pairs, freeze
from quditbell.states import cluster_eigenvalues

from conftest import (
    SY, SZ, random_state, random_traceless_hermitian, read_state_file, rotated_ghz,
)


def _b64(matrix):
    """Base64 text of ``matrix`` as a state file holds it."""
    return complex_matrix_to_base64_bytes(matrix).decode("ascii")


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

    @pytest.mark.parametrize("d", range(2, 17))
    def test_bitwise_equal_to_outer_product(self, d):
        psi = np.zeros(d * d, dtype=complex)
        psi[:: d + 1] = 1.0 / np.sqrt(d)
        assert_bitwise_equal(ghz(d).rho, np.outer(psi, psi.conj()))

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

    @pytest.mark.parametrize("d", range(2, 33))
    def test_ghz_norm_and_multiplicities(self, d):
        spectral = correlation_matrix(ghz(d)).spectral
        assert abs(spectral.spectral_norm - 2.0 / d) <= 1e-11
        assert len(spectral.clusters) == 2
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
        np.savetxt(path, correlation_matrix(ghz(2)).matrix, delimiter=",")
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3
        assert_allclose(np.loadtxt(path, delimiter=","), np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_eigh_runs_once_per_matrix(self, monkeypatch, rng):
        calls, eighs = [], []
        split, eigh = states._split_eigh, np.linalg.eigh
        monkeypatch.setattr(states, "_split_eigh", lambda m: calls.append(m) or split(m))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m) or eigh(m))
        # every generator coordinate of GHZ_2 and GHZ_4 is decoupled: no eigh runs
        first, second = correlation_matrix(ghz(2)), correlation_matrix(ghz(4))
        for tcorr in (first, second, first, second):
            assert tcorr.spectral is tcorr.spectral
            assert tcorr.spectral_norm == pytest.approx(2 / tcorr.dim, abs=1e-12)
        assert len(calls) == 2 and eighs == []
        # a rotated state's T is dense: one eigh of the whole matrix
        rotated = correlation_matrix(rotated_ghz(4, rng))
        assert rotated.spectral is rotated.spectral
        assert len(calls) == 3 and len(eighs) == 1 and eighs[0].shape == (15, 15)

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

    @pytest.mark.parametrize(
        "d, entry, bad, match",
        [
            pytest.param(2, (0, 3), np.nan, "imaginary residual", id="nan"),
            pytest.param(2, (0, 3), 0.1j, "imaginary residual", id="0.1j"),
            # rho[jk, jk] reaches only the diagonal x diagonal block, where Q stays 0
            *(
                pytest.param(d, (1, 1), bad, "not finite", id=f"diag-d{d}-{bad}")
                for d in (2, 3)
                for bad in (np.nan, np.inf)
            ),
            # rho[jk, jb] with b != k, and rho[jk, ak] with a != j
            *(
                pytest.param(d, entry, bad, "imaginary residual", id=f"{kind}-d{d}-{bad}")
                for d, kind, entry in (
                    (2, "jb", (1, 0)),
                    (2, "ak", (2, 0)),
                    (3, "jb", (5, 3)),
                    (3, "ak", (7, 1)),
                )
                for bad in (np.nan, np.inf)
            ),
        ],
    )
    def test_imaginary_residual_gate(self, d, entry, bad, match):
        # bypasses from_matrix: a NaN, inf or non-hermitian rho must not yield a T
        rho = ghz(d).rho.copy()
        rho[entry] += bad
        with pytest.raises(ValidationError, match=match):
            correlation_matrix(TwoQuditState(rho))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda state, obs: product_expectation(state, obs, obs),
            lambda state, obs: bell_expression(state, obs, obs, obs, 1),
            check_bell_condition,
        ],
        ids=["product_expectation", "bell_expression", "check_bell_condition"],
    )
    def test_non_finite_expectation_rejected(self, call, bad):
        # bypasses from_matrix: a NaN or inf in rho must not yield an expectation
        rho = ghz(2).rho.copy()
        rho[0, 0] = bad
        state = TwoQuditState(rho)
        with pytest.raises(ValidationError, match="expectation is not finite"):
            call(state, QuditObservable.from_matrix(SZ))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_bitwise_equal_to_mask_reference(self, d, rng):
        for state, symmetric in ((random_state(d, rng), False), (random_state(d, rng, True), True)):
            tcorr = correlation_matrix(state)
            reference, reference_symmetric = _mask_reference(state)
            assert_bitwise_equal(tcorr.matrix, reference)
            assert tcorr.symmetric == reference_symmetric == symmetric
            if symmetric:
                assert_spectrum_is_the_dense_one(tcorr.spectral, reference)
                continue
            # an asymmetric T has no spectrum behind the gate; its split eigh is still dense
            with pytest.raises(ValidationError, match="^correlation matrix is not symmetric"):
                tcorr.spectral
            assert_eigh_is_the_dense_one(*states._split_eigh(tcorr.matrix), reference)

    @pytest.mark.parametrize("d", [16, 24])
    def test_bitwise_equal_to_mask_reference_at_large_d(self, d, rng):
        # n = 255 and 575 are not multiples of the symmetry check's row chunk
        state = rotated_ghz(d, rng)
        tcorr = correlation_matrix(state)
        reference, symmetric = _mask_reference(state)
        assert_bitwise_equal(tcorr.matrix, reference)
        assert tcorr.symmetric and symmetric
        assert_spectrum_is_the_dense_one(tcorr.spectral, reference)


class TestSplitEigh:
    """``_split_eigh`` decomposes ``(M + M^T) / 2`` exactly like a dense ``eigh``."""

    @staticmethod
    def _planted(kind, rng, n=40):
        s = rng.standard_normal((n, n))
        s = (s + s.T) / 2.0
        if kind == "block diagonal":  # three blocks and 8 decoupled coordinates, permuted
            labels = rng.permutation(np.repeat(np.arange(4), [12, 11, 9, 8]))
            s[labels[:, None] != labels[None, :]] = 0.0
            s[np.ix_(labels == 3, labels == 3)] = np.diag(rng.standard_normal(8))
        elif kind == "diagonal":
            s = np.diag(np.round(rng.standard_normal(n), 1))  # with ties
        elif kind in ("one pair", "one asymmetric entry"):
            s = np.diag(rng.standard_normal(n))
            s[7, 23] = 0.5
            if kind == "one pair":
                s[23, 7] = 0.5
        return s

    @pytest.mark.parametrize(
        "kind", ["block diagonal", "diagonal", "dense", "one pair", "one asymmetric entry"]
    )
    def test_matches_a_dense_decomposition(self, kind, rng):
        m = self._planted(kind, rng)
        sym = (m + m.T) / 2.0
        values, vectors = states._split_eigh(m)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - np.linalg.eigvalsh(sym))) <= 1e-13
        assert np.max(np.abs(vectors.T @ vectors - np.eye(len(m)))) <= 1e-12
        assert np.linalg.norm(sym @ vectors - vectors * values) <= 1e-12


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def assert_eigh_is_the_dense_one(values, vectors, t):
    """A dense T's eigenpairs are bitwise those of one ``eigh`` of ``(T + T^T) / 2``."""
    dense_values, dense_vectors = np.linalg.eigh((t + t.T) / 2.0)
    assert_bitwise_equal(values, dense_values)
    assert_bitwise_equal(vectors, dense_vectors)


def assert_spectrum_is_the_dense_one(spectral, t):
    vectors = np.hstack([c.vectors for c in spectral.clusters])
    assert_eigh_is_the_dense_one(spectral.eigenvalues, vectors, t)


def _mask_reference(state):
    """``(T, symmetric)`` from the mask-based post-processing that the blockwise one replaced."""
    d = state.dim
    r_t = np.ascontiguousarray(state.as_4index().transpose(3, 1, 2, 0)).reshape(d * d, -1)
    half = gellmann._apply_u(d, r_t.view(float)).view(complex)
    full = gellmann._apply_u(d, np.ascontiguousarray(half.T).view(float)).view(complex)
    p, q = full.real, full.imag
    anti = gellmann.antisymmetric_rows(d)
    imaginary = np.zeros(len(p), dtype=bool)
    imaginary[anti] = True
    mixed = imaginary[:, None] != imaginary[None, :]
    t = np.where(mixed, -q, p)
    t[anti, anti] *= -1.0
    assert float(np.max(np.abs(np.where(mixed, p, q)))) <= 1e-12
    return t, float(np.max(np.abs(t - t.T))) <= 1e-11


class TestMemory:
    """Peak allocations, measured with tracemalloc, and the read-only arrays that avoid copies."""

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_correlation_matrix_peak(self, rng):
        # the mask-based version peaked at 4.56 rho.nbytes
        state = rotated_ghz(16, rng)
        _, peak = self._peak(lambda: correlation_matrix(state))
        assert peak <= 2.5 * state.rho.nbytes

    def test_ghz_peak(self):
        # np.outer plus the copy freeze made peaked at 2.00 rho.nbytes
        state, peak = self._peak(lambda: ghz(16))
        assert peak <= 1.1 * state.rho.nbytes

    @pytest.mark.parametrize(
        "call, bound",
        # the json.dumps writer, the loader that kept the file bytes and the base64 text, and
        # the dense hermiticity and swap checks peaked at 4.01, 6.17, 4.83 and 2.50; before
        # CPython 3.11 base64 decoding copies the text to ASCII bytes first.  An indented
        # file is not in to_file's layout, so the JSON parser reads it.
        [
            ("to_file", 2.5),
            ("from_file", 3.1 if sys.version_info >= (3, 11) else 4.5),
            ("from_file_indent", 3.1 if sys.version_info >= (3, 11) else 4.5),
            ("from_matrix", 2.25),
        ],
    )
    def test_state_file_peak(self, call, bound, tmp_path, rng):
        state = rotated_ghz(16, rng)
        path, indented = tmp_path / "state.json", tmp_path / "indent.json"
        state.to_file(path)
        indented.write_text(json.dumps({"dim": 16, "rho": _b64(state.rho)}, indent=1))
        rho = state.rho.copy()
        run = {
            "to_file": lambda: state.to_file(path),
            "from_file": lambda: TwoQuditState.from_file(path),
            "from_file_indent": lambda: TwoQuditState.from_file(indented),
            "from_matrix": lambda: TwoQuditState.from_matrix(rho),
        }[call]
        _, peak = self._peak(run)
        assert peak <= bound * state.rho.nbytes

    def test_freeze_is_idempotent_and_copies_writable_input(self):
        x = np.arange(6.0).reshape(2, 3)
        frozen = freeze(x)
        assert frozen is not x and not frozen.flags.writeable
        assert freeze(frozen) is frozen
        x[0, 0] = 7.0  # a writable input stays private
        assert frozen[0, 0] == 0.0
        view = frozen[:, 1:]  # read-only, but a view: copied
        assert freeze(view) is not view and freeze(view).flags.owndata

    @pytest.mark.parametrize(
        "array",
        [
            lambda: ghz(4).rho,
            lambda: correlation_matrix(rotated_ghz(4, np.random.default_rng(0))).matrix,
        ],
        ids=["ghz.rho", "correlation_matrix.matrix"],
    )
    def test_built_arrays_are_read_only(self, array):
        with pytest.raises(ValueError, match="read-only"):
            array()[0, 0] = 1.0


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
            assert TwoQuditState.from_matrix(ghz(d).rho).symmetric

    def test_product_state_not_symmetric(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |0><0| (x) |1><1|
        state = TwoQuditState.from_matrix(rho)
        assert not state.symmetric

    def test_symmetrized_mixture(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 0.5
        rho[2, 2] = 0.5
        assert TwoQuditState.from_matrix(rho).symmetric


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
        with pytest.raises(DimensionError, match=r"^state must have shape \(d\^2, d\^2\)"):
            TwoQuditState.from_matrix(np.eye(5, dtype=complex) / 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_named(self, bad, tmp_path):
        rho = ghz(2).rho.copy()
        rho[0, 3] = bad
        with pytest.raises(ValidationError, match="finite"):
            TwoQuditState.from_matrix(rho)
        path = tmp_path / "state.json"
        payload = {"dim": 2, "rho": complex_matrix_to_pairs(ghz(2).rho)}
        payload["rho"][3][0] = bad
        with pytest.raises(ValidationError, match="finite"):
            read_state_file(path, json.dumps(payload))
        payload = {"dim": 2, "rho": _b64(rho)}
        with pytest.raises(ValidationError, match="finite"):
            read_state_file(path, json.dumps(payload))

    @pytest.mark.parametrize(
        "bad",
        [
            [["a"]],
            "x",
            [[0.5, 0], [0]],
            [["0.5", "0", "0", "0.5"], ["0"] * 4, ["0"] * 4, ["0.5", "0", "0", "0.5"]],
        ],
    )
    def test_non_numeric_or_ragged_input_named(self, bad):
        with pytest.raises(ValidationError, match="state must be a matrix of numbers"):
            TwoQuditState.from_matrix(bad)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("[1, 2]", "JSON object with keys 'dim' and 'rho'"),
            ('{"rho": []}', "JSON object with keys 'dim' and 'rho'"),
            ("{'dim': 2}", "not valid JSON"),
            (b'{"dim": 2, "rho": "\xff"}', "not valid JSON"),
            ('{"dim": NaN, "rho": []}', "dim must be an integer"),
            ('{"dim": 2.7, "rho": []}', "dim must be an integer"),
            ('{"dim": 2.0, "rho": []}', "dim must be an integer"),
            ('{"dim": "2", "rho": []}', "dim must be an integer"),
            ('{"dim": 1, "rho": [[1, 0]]}', "dim must be at least 2"),
            ('{"dim": 2, "rho": [[1, 0], [0]]}', "16 \\[re, im\\] pairs"),
            ('{"dim": 2, "rho": [["1", "0"]]}', "entries must be numbers"),
            ('{"dim": 2, "rho": [[true, false]]}', "entries must be numbers"),
            ('{"dim": 2, "rho": {"re": 1}}', "entries must be numbers"),
            ('{"dim": 2, "rho": "AAAA$AAA"}', "not valid base64"),
            ('{"dim": 2, "rho": "AAA"}', "not valid base64"),
            ('{"dim": 2, "rho": "AAA\u00e9"}', "not valid base64"),
            ('{"dim": 2, "rho": "AAAA"}', "256 bytes of complex128, got 3"),
        ],
    )
    def test_malformed_payload_named(self, payload, match, tmp_path):
        with pytest.raises(ValidationError, match=match):
            read_state_file(tmp_path / "state.json", payload)


def _state_with_spectrum(eigenvalues, rng):
    """Hermitian ``V diag(eigenvalues) V^dag`` for a Haar-random unitary V."""
    v = haar_unitary(len(eigenvalues), rng)
    rho = (v * eigenvalues) @ v.conj().T
    return (rho + rho.conj().T) / 2


class TestPositivityGate:
    """``from_matrix`` certifies positivity by a shifted Cholesky factorisation, with
    ``eigvalsh`` as the fallback that decides and names the minimum eigenvalue."""

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_rank_one_rotated_ghz_accepted(self, d, rng):
        uu = np.kron(*[haar_unitary(d, rng)] * 2)
        rho = uu @ ghz(d).rho @ uu.conj().T
        assert np.linalg.matrix_rank(rho) == 1
        assert np.array_equal(TwoQuditState.from_matrix(rho).rho, rho)

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("scale", [1 - 1e-2, 1 + 1e-2])
    def test_near_floor_verdict_matches_eigvalsh(self, d, scale, rng):
        n = d * d
        for _ in range(5):
            eigenvalues = np.zeros(n)
            eigenvalues[0] = -1e-10 * scale
            eigenvalues[n // 2 :] = rng.random(n - n // 2)  # rank deficient: n // 2 - 1 zeros
            eigenvalues[n // 2 :] *= (1 - eigenvalues[0]) / eigenvalues[n // 2 :].sum()
            rho = _state_with_spectrum(eigenvalues, rng)
            expected = np.linalg.eigvalsh(rho).min() >= -1e-10
            assert expected == (scale < 1)
            if expected:
                TwoQuditState.from_matrix(rho)
            else:
                with pytest.raises(ValidationError, match="positive semidefinite"):
                    TwoQuditState.from_matrix(rho)

    def test_eigenvalue_on_the_floor_accepted_by_fallback(self):
        # the shift leaves an exact zero pivot, so Cholesky fails and eigvalsh accepts
        rho = np.diag([1 + 1e-10, -1e-10, 0, 0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rho + 1e-10 * np.eye(4))
        assert TwoQuditState.from_matrix(rho).dim == 2

    def test_rejection_names_min_eigenvalue(self, rng):
        rho = _state_with_spectrum(np.array([0.7, 0.4, -0.1, 0.0]), rng)
        min_eig = float(np.linalg.eigvalsh(rho).min())
        with pytest.raises(ValidationError, match=f"min eigenvalue {min_eig:.3e}$"):
            TwoQuditState.from_matrix(rho)

    def test_accepting_computes_no_eigenvalues(self, monkeypatch, rng):
        calls = []
        real = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for rho in (
            ghz(3).rho,
            random_state(3, rng).rho,
            maximally_mixed(4).rho,
            _state_with_spectrum(np.array([0.5, 0.5, 0.0, 0.0]), rng),
        ):
            TwoQuditState.from_matrix(rho)
        assert calls == []
        with pytest.raises(ValidationError):
            TwoQuditState.from_matrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))
        assert calls == [1]


def test_state_json_roundtrip(tmp_path, rng):
    state = random_state(3, rng, symmetric=True)
    path = tmp_path / "state.json"
    state.to_file(path)
    back = TwoQuditState.from_file(path)
    assert back.dim == 3
    assert_allclose(back.rho, state.rho, atol=1e-15)
    assert back.symmetric

    pairs = {"dim": 3, "rho": complex_matrix_to_pairs(state.rho)}
    written = json.loads(path.read_text())
    assert written["dim"] == 3
    assert len(pairs["rho"]) == 81
    assert len(base64.b64decode(written["rho"])) == 81 * 16

    other = tmp_path / "other.json"
    for payload in (pairs, written):
        assert np.array_equal(read_state_file(other, json.dumps(payload)).rho, state.rho)
        for dim in (2, 4):
            with pytest.raises(ValidationError):
                read_state_file(other, json.dumps({**payload, "dim": dim}))
    # one entry short
    with pytest.raises(ValidationError, match="81 \\[re, im\\] pairs"):
        read_state_file(other, json.dumps({"dim": 3, "rho": pairs["rho"][:-1]}))
    short = _b64(state.rho.reshape(-1)[:-1])
    with pytest.raises(ValidationError, match="1296 bytes of complex128, got 1280"):
        read_state_file(other, json.dumps({"dim": 3, "rho": short}))


@pytest.mark.parametrize("d", [2, 3, 16])
def test_file_roundtrip_is_bitwise(d, tmp_path, rng):
    rho = 0.1 * random_state(d, rng).rho + 0.9 * maximally_mixed(d).rho
    # a -0.0 real part and a subnormal imaginary part, in a hermitian pair
    rho[0, 1], rho[1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
    state = TwoQuditState.from_matrix(rho)
    path = tmp_path / "state.json"
    state.to_file(path)
    back = TwoQuditState.from_file(path)
    assert back.dim == d and back.symmetric == state.symmetric
    assert back.rho.tobytes() == rho.tobytes()
    assert np.signbit(back.rho[0, 1].real) and back.rho[0, 1].imag == 5e-324

    pair_path = tmp_path / "pairs.json"
    pair_path.write_text(json.dumps({"dim": d, "rho": complex_matrix_to_pairs(rho)}))
    assert TwoQuditState.from_file(pair_path).rho.tobytes() == rho.tobytes()


@pytest.mark.parametrize("d", [*range(2, 9), 16])
def test_written_text_is_json_dumps(d, tmp_path, rng):
    path = tmp_path / "state.json"
    for state in (ghz(d), maximally_mixed(d), random_state(d, rng)):
        reference = json.dumps({"dim": d, "rho": _b64(state.rho)})
        state.to_file(path)
        assert path.read_bytes() == reference.encode()


def _dense_residuals(rho, d):
    """The hermiticity and swap residuals as whole-matrix formulas."""
    r4 = rho.reshape(d, d, d, d)
    return (
        float(np.max(np.abs(rho - rho.conj().T))),
        float(np.max(np.abs(r4 - r4.transpose(1, 0, 3, 2)))),
    )


@pytest.mark.parametrize("d", [*range(2, 9), 12, 16, 24])
def test_chunked_residuals_equal_dense_formulas(d, rng):
    # d^2 = 4 ... 49 and 144, and T's 143 rows at d = 12, are not multiples of the 64-row chunk
    n = d * d
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    hermitian = (m + m.conj().T) / 2
    r4 = hermitian.reshape(d, d, d, d)
    swap_symmetric = (hermitian + r4.transpose(1, 0, 3, 2).reshape(n, n)) / 2
    for rho in (m, hermitian, hermitian + 1e-13 * m, swap_symmetric, swap_symmetric + 1e-13 * m):
        herm, swap = _dense_residuals(rho, d)
        assert errors.mirror_residual(rho) == herm
        assert states._swap_residual(rho, d) == swap
    if d == 12:  # the symmetry check of a real, asymmetric correlation matrix
        t = rng.standard_normal((n - 1, n - 1))
        assert errors.mirror_residual(t) == float(np.max(np.abs(t - t.T))) > 0


def test_non_hermitian_message_carries_the_dense_residual(rng):
    rho = rotated_ghz(16, rng).rho + 1e-9 * rng.standard_normal((256, 256))
    herm, _ = _dense_residuals(rho, 16)
    with pytest.raises(ValidationError, match=f"max \\|rho - rho\\^dag\\| = {herm:.3e}$"):
        TwoQuditState.from_matrix(rho)


def test_base64_payload_runs_every_gate(tmp_path):
    cases = {
        "hermitian": ghz(2).rho + np.diag([0, 0, 0, 0.1j]),
        "trace": np.eye(4, dtype=complex),
        "positive semidefinite": np.diag([1.5, -0.5, 0, 0]).astype(complex),
    }
    for match, rho in cases.items():
        with pytest.raises(ValidationError, match=match):
            read_state_file(tmp_path / "state.json", json.dumps({"dim": 2, "rho": _b64(rho)}))


ESCAPED_A = "\\u0041"  # the JSON escape of "A", which strict base64 rejects


class TestLayoutReader:
    """State files in ``to_file``'s layout are decoded in place; every other file is read as
    JSON, with the JSON reader's error texts."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        calls, real = [], states.load_payload
        monkeypatch.setattr(states, "load_payload", lambda text: calls.append(1) or real(text))
        return calls

    @pytest.mark.parametrize("d", range(2, 9))
    def test_layout_and_json_paths_agree_bitwise(self, d, tmp_path, monkeypatch, rng):
        state = rotated_ghz(d, rng)
        path = tmp_path / "state.json"
        state.to_file(path)
        calls = self._spy(monkeypatch)
        layout = TwoQuditState.from_file(path)
        assert calls == []
        indented = tmp_path / "indent.json"  # the same object in another layout: parsed as JSON
        indented.write_text(json.dumps(json.loads(path.read_text()), indent=1))
        parsed = TwoQuditState.from_file(indented)
        assert calls == [1]
        assert layout.rho.tobytes() == parsed.rho.tobytes() == state.rho.tobytes()
        assert layout.dim == parsed.dim == d and layout.symmetric and parsed.symmetric

    @pytest.mark.parametrize(
        "edit, match",
        [
            (
                lambda b64: f'{{"dim": 4, "rho": "{b64[:-8]}"}}',
                "^matrix payload must be 4096 bytes of complex128, got 4092$",
            ),
            (lambda b64: f'{{"dim": 4, "rho": "{b64[:-1]}"}}', "not valid base64"),
            (lambda b64: f'{{"dim": 4, "rho": "{b64.replace("A", ESCAPED_A, 1)}"}}', None),
            (lambda b64: f'{{"dim": 4, "rho": "{b64}"}}\n', None),
            (lambda b64: f'{{"dim": 04, "rho": "{b64}"}}', "^state file is not valid JSON: "),
            (lambda b64: f'{{"dim": 1, "rho": "{b64}"}}', "^dim must be at least 2, got 1$"),
            (lambda b64: '{"dim": 0, "rho": ""}', "^dim must be at least 2, got 0$"),
            (lambda b64: f'{{"dim": 4.0, "rho": "{b64}"}}', "^dim must be an integer, got 4.0$"),
            (lambda b64: f'{{"rho": "{b64}", "dim": 4}}', None),
            (lambda b64: f'{{"dim": 4, "rho": "{b64}", "note": "x"}}', None),
            (lambda b64: f'{{"dim": 4, "note": "x", "rho": "{b64}"}}', None),
            (lambda b64: f'{{"dim": 4, "rho": "{b64}"}}'.encode("utf-16"), None),
        ],
        ids=[
            "truncated", "bad-padding", "json-escape", "trailing-newline", "dim-04", "dim-1",
            "dim-0-empty", "dim-4.0", "swapped-keys", "extra-key-last", "extra-key-between",
            "utf-16",
        ],
    )
    def test_other_files_take_the_json_path(self, edit, match, tmp_path, monkeypatch, rng):
        state = rotated_ghz(4, rng)
        payload = edit(_b64(state.rho))
        path = tmp_path / "state.json"
        path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())

        def outcome():
            try:
                return TwoQuditState.from_file(path).rho.tobytes()
            except ValidationError as exc:
                return str(exc)

        calls = self._spy(monkeypatch)
        read = outcome()
        assert calls == [1]  # the JSON reader decided
        monkeypatch.setattr(states, "_layout_matrix", lambda payload: None)
        assert read == outcome()  # the JSON reader alone: the same matrix or the same text
        if match is None:
            assert read == state.rho.tobytes()
        else:
            assert re.search(match, read)
