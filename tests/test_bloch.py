import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quditbell import (
    DimensionError,
    QuditObservable,
    ValidationError,
    bloch_ball_radius,
    build_basis,
    from_bloch,
    in_pm1_shell,
    make_diag_pm1,
    make_offdiag_imag_pm1,
    make_offdiag_real_pm1,
    pm1_round,
    to_bloch,
)
from quditbell import bloch
from quditbell.errors import check_range

from conftest import SX, SY, SZ, random_pm1_matrix, random_traceless_hermitian


class TestCorrespondence:
    def test_sigma_z_maps_to_unit_z(self):
        assert_allclose(to_bloch(SZ).coords, [0, 0, 1], atol=1e-14)

    def test_tilted_qubit_observable(self):
        r = to_bloch((SX + SZ) / np.sqrt(2))
        assert_allclose(r.coords, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-14)

    def test_d4_diag_supported_on_diagonal_block(self):
        r = to_bloch(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        assert abs(r.norm - 1.0) <= 1e-12
        # symmetric and antisymmetric coordinates vanish
        assert np.max(np.abs(r.coords[:12])) <= 1e-14
        assert np.max(np.abs(r.coords[12:])) > 0.1

    def test_from_bloch_examples(self):
        assert_allclose(from_bloch([0, 0, 1], 2).matrix, SZ, atol=1e-14)
        assert_allclose(from_bloch([1, 0, 0], 2).matrix, SX, atol=1e-14)

    def test_norm_identity(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(40):
                x = random_traceless_hermitian(d, rng)
                r = to_bloch(x)
                assert abs(np.trace(x @ x).real - d * r.norm**2) <= 1e-9

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_bijection(self, d, seed):
        x = random_traceless_hermitian(d, np.random.default_rng(seed))
        back = from_bloch(to_bloch(x)).matrix
        assert np.max(np.abs(back - x)) <= 1e-11

    def test_roundtrip_corpus(self):
        rng = np.random.default_rng(99)
        for d in (2, 3, 4, 5):
            worst = 0.0
            for _ in range(1000):
                x = random_traceless_hermitian(d, rng)
                worst = max(worst, float(np.max(np.abs(from_bloch(to_bloch(x)).matrix - x))))
            assert worst <= 1e-11, f"d={d}: {worst:.2e}"

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_vector_side(self, d, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(d * d - 1)
        r /= np.linalg.norm(r)
        assert_allclose(from_bloch(r, d).bloch.coords, r, atol=1e-13)
        assert_allclose(to_bloch(from_bloch(r, d).matrix).coords, r, atol=1e-12)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValidationError, match="hermitian"):
            to_bloch(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValidationError, match="traceless"):
            to_bloch(np.eye(2, dtype=complex))
        with pytest.raises(ValidationError):
            from_bloch([1.0, 0.0], 2)

    def test_explicit_dim_must_match_bloch_vector(self):
        v = to_bloch(SZ)
        assert from_bloch(v).dim == from_bloch(v, 2).dim == 2
        assert pm1_round(v, 2).dim == 2
        for call in (from_bloch, pm1_round):
            with pytest.raises(DimensionError, match="dimension 2, but dim 4"):
                call(v, 4)
        # an array of the same length fails too, on its length
        with pytest.raises(ValidationError, match="length 15"):
            from_bloch(v.coords, 4)

    @pytest.mark.parametrize("matrix", [3.0, np.array(1.0), np.zeros((2, 2, 2))])
    def test_from_matrix_rejects_non_matrices(self, matrix):
        with pytest.raises(ValidationError, match="square matrix"):
            QuditObservable.from_matrix(matrix)


def _check_in_range(r, d=None):
    """The [-1, 1] range rule on the observable of ``r``, through its one gate."""
    return check_range(from_bloch(r, d).operator_norm, "X", bloch.SET_TOL)


_OUT_OF_RANGE = r"^X has eigenvalues outside \[-1, 1\]"


class TestMembership:
    def test_qubit_region(self):
        assert _check_in_range([0, 0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValidationError, match=_OUT_OF_RANGE):
            _check_in_range([0, 0, 1.01])

    def test_qutrit_diagonal_direction_excluded(self):
        # the first diagonal generator has eigenvalues {1, -1, 0}, so X = sqrt(3/2) L_6
        r = np.zeros(8)
        r[6] = 1.0
        with pytest.raises(ValidationError, match=_OUT_OF_RANGE):
            _check_in_range(r)

    def test_odd_dim_ball(self, rng):
        assert bloch_ball_radius(3) == pytest.approx(np.sqrt(2.0 / 3.0))
        assert bloch_ball_radius(2) == 1.0
        assert bloch_ball_radius(5) == pytest.approx(np.sqrt(4.0 / 5.0))
        # scaling an accepted vector keeps it accepted
        for _ in range(20):
            x = random_traceless_hermitian(3, rng)
            r = to_bloch(x)
            _check_in_range(r)
            assert r.norm <= bloch_ball_radius(3) + 1e-10
            scaled = r.coords * rng.uniform(0.0, 1.0)
            _check_in_range(scaled, 3)

    def test_pm1_shell_qubit_any_unit_vector(self, rng):
        for _ in range(20):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            assert in_pm1_shell(r, tol=1e-10)

    def test_pm1_shell_d4(self):
        assert in_pm1_shell(to_bloch(np.diag([1, 1, -1, -1]).astype(complex)), tol=1e-10)
        # unit norm but spectrum {sqrt2, -sqrt2, 0, 0}: not the +-1 shell
        r = to_bloch(np.sqrt(2) * np.diag([1.0, -1.0, 0, 0]).astype(complex))
        assert abs(r.norm - 1.0) <= 1e-12
        assert not in_pm1_shell(r)

    def test_pm1_shell_odd_dim_is_empty(self, rng):
        r = rng.standard_normal(8)
        r /= np.linalg.norm(r)
        assert not in_pm1_shell(r)

    @pytest.mark.parametrize("length", [1, 5, 7, 10])
    def test_length_not_d2_minus_1_rejected(self, length):
        r = np.ones(length) / np.sqrt(length)
        for check in (in_pm1_shell, from_bloch):
            with pytest.raises(ValidationError, match="length"):
                check(r)


class TestPm1Round:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_maximizes_linear_functional(self, d, rng):
        generators = build_basis(d)
        for _ in range(5):
            c = rng.standard_normal(d * d - 1)
            x = pm1_round(c, d)
            assert in_pm1_shell(x, tol=1e-10)
            # Ky Fan: the maximum is the top-half minus bottom-half eigenvalue sum
            w = np.linalg.eigvalsh(np.tensordot(c, generators, axes=(0, 0)))
            expected = (w[d // 2 :].sum() - w[: d // 2].sum()) / np.sqrt(2.0 * d)
            value = float(c @ x.coords)
            assert value == pytest.approx(expected, abs=1e-12)
            # Haar-random +-1 points, drawn and mapped without the library's rounding
            for _ in range(200):
                x_rand = random_pm1_matrix(d, rng)
                y = np.einsum("ij,kji->k", x_rand, generators).real / np.sqrt(2.0 * d)
                assert float(c @ y) <= value + 1e-12

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_zero_rounds_into_shell(self, d):
        assert in_pm1_shell(pm1_round(np.zeros(d * d - 1), d), tol=1e-10)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            pm1_round(np.ones(8))

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_stack_rounds_each_row_bitwise(self, d, rng):
        c = rng.standard_normal((17, d * d - 1))
        c[3] = 0.0
        stacked = bloch._round(c, d)  # the batched core that the loops call
        single = np.stack([pm1_round(row, d).coords for row in c])
        assert stacked.shape == c.shape
        assert stacked.tobytes() == single.tobytes()

    def test_stack_is_not_a_bloch_vector(self):
        with pytest.raises(ValidationError, match="needs length"):
            pm1_round(np.ones((2, 15)), 4)


class TestConstructors:
    def test_diag_qubit(self):
        assert_allclose(make_diag_pm1(2, [1, -1]).matrix, SZ)

    def test_diag_d4(self):
        obs = make_diag_pm1(4, [1, 1, -1, -1])
        assert_allclose(obs.matrix, np.diag([1, 1, -1, -1]).astype(complex))

    def test_diag_errors(self):
        with pytest.raises(ValidationError, match="sum"):
            make_diag_pm1(4, [1, -1, 1, 1])
        with pytest.raises(DimensionError):
            make_diag_pm1(3, [1, -1, 1])
        with pytest.raises(ValidationError):
            make_diag_pm1(2, [2, -2])
        with pytest.raises(ValidationError, match="sign must be the integer"):
            make_diag_pm1(2, [1.5, -1.5])  # not truncated to [1, -1]

    def test_offdiag_real(self):
        assert_allclose(make_offdiag_real_pm1(2, [0]).matrix, SX)
        obs = make_offdiag_real_pm1(4, [0, 0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = SX
        expected[2:, 2:] = SX
        assert_allclose(obs.matrix, expected)
        flipped = make_offdiag_real_pm1(4, [0, 1])
        expected[2:, 2:] = -SX
        assert_allclose(flipped.matrix, expected)

    def test_offdiag_imag(self):
        # the g = 0 block is minus the antisymmetric generator
        assert_allclose(make_offdiag_imag_pm1(2, [1]).matrix, SY)
        assert_allclose(make_offdiag_imag_pm1(2, [0]).matrix, -SY)
        obs = make_offdiag_imag_pm1(6, [1, 0, 1])
        expected = np.zeros((6, 6), dtype=complex)
        expected[:2, :2] = SY
        expected[2:4, 2:4] = -SY
        expected[4:, 4:] = SY
        assert_allclose(obs.matrix, expected)

    def test_offdiag_errors(self):
        with pytest.raises(DimensionError):
            make_offdiag_real_pm1(3, [0])
        with pytest.raises(ValidationError):
            make_offdiag_imag_pm1(4, [0, 1, 0])
        for make in (make_offdiag_real_pm1, make_offdiag_imag_pm1):
            for bad in (0.7, "1", True, np.float64(1)):  # not truncated or parsed to 0 or 1
                with pytest.raises(ValidationError, match="gamma must be an integer"):
                    make(2, [bad])
            with pytest.raises(ValidationError, match="gamma must be at least 0"):
                make(2, [-1])

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_all_constructions_have_pm1_spectrum(self, d, rng):
        observables = []
        for _ in range(4):
            signs = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
            rng.shuffle(signs)
            observables.append(make_diag_pm1(d, signs.astype(int)))
            gammas = rng.integers(0, 4, size=d // 2)
            observables.append(make_offdiag_real_pm1(d, gammas))
            observables.append(make_offdiag_imag_pm1(d, gammas))
        observables.append(QuditObservable.from_matrix(random_pm1_matrix(d, rng)))
        for obs in observables:
            assert np.max(np.abs(np.abs(obs.eigenvalues()) - 1.0)) <= 1e-10
            assert in_pm1_shell(obs.bloch, tol=1e-10)


def test_observable_json_roundtrip():
    obs = make_offdiag_imag_pm1(4, [0, 1])
    payload = obs.to_dict()
    assert payload["dim"] == 4
    assert len(payload["matrix"]) == 16
    assert len(payload["bloch"]) == 15


def test_generators_map_to_unit_coordinates():
    basis = build_basis(3)
    for j, g in enumerate(basis):
        r = to_bloch(np.sqrt(3 / 2) * g)
        expected = np.zeros(8)
        expected[j] = 1.0
        assert_allclose(r.coords, expected, atol=1e-13)
