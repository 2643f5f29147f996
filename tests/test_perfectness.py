import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditbell import (
    CertificationError,
    DimensionError,
    MaximizeOptions,
    QuditObservable,
    TwoQuditState,
    ValidationError,
    bell_condition_spectral_form,
    certify_state,
    check_bell_condition,
    correlation_matrix,
    correlation_spectrum,
    find_perfect_observables,
    from_bloch,
    ghz,
    in_pm1_shell,
    make_diag_pm1,
    make_offdiag_imag_pm1,
    make_offdiag_real_pm1,
    maximally_mixed,
    product_expectation,
    to_bloch,
)
from quditbell import perfectness

from conftest import SX, SY, SZ, random_state, rotated_ghz, singlet


def _twisted_ghz(d, p):
    """p GHZ_d + (1 - p) (D (x) D) GHZ_d (D (x) D)^+ with D = diag(1, ..., 1, i, ..., i)."""
    twist = np.diag([1] * (d // 2) + [1j] * (d // 2))
    dd = np.kron(twist, twist)
    rho = ghz(d).rho
    return TwoQuditState.from_matrix(p * rho + (1 - p) * dd @ rho @ dd.conj().T)


# (state factory, sign) pairs certified for that sign
_WITNESS_CASES = [
    pytest.param(make, sign, id=f"{name}{d}{sign:+d}")
    for d in (2, 4, 6)
    for sign in (1, -1)
    for name, make in (
        ("ghz", lambda d=d: ghz(d)),
        ("rotated", lambda d=d: rotated_ghz(d, np.random.default_rng(d))),
    )
] + [pytest.param(lambda: _twisted_ghz(6, 0.3), 1, id="twisted6+1")]


class TestCheckBellCondition:
    def test_ghz4_diagonal_accepted(self):
        cert = check_bell_condition(ghz(4), make_diag_pm1(4, [1, 1, -1, -1]))
        assert cert.accepted
        assert cert.sign == 1
        assert cert.residual <= 1e-12
        assert cert.spectral_violations == ()
        assert abs(cert.operator_norm - 1.0) <= 1e-12

    def test_ghz4_imag_blocks_anticorrelated(self):
        cert = check_bell_condition(ghz(4), make_offdiag_imag_pm1(4, [1, 1]))
        assert cert.accepted
        assert cert.sign == -1
        assert cert.residual <= 1e-12

    def test_ghz2_tilted_xz_accepted(self):
        obs = QuditObservable.from_matrix((SX + SZ) / np.sqrt(2))
        cert = check_bell_condition(ghz(2), obs)
        assert cert.accepted and cert.sign == 1

    def test_ghz2_tilted_xy_rejected(self):
        obs = QuditObservable.from_matrix((SX + SY) / np.sqrt(2))
        cert = check_bell_condition(ghz(2), obs)
        assert not cert.accepted
        assert abs(cert.value) <= 1e-12
        assert cert.residual == pytest.approx(1.0, abs=1e-12)
        # the failure is visible in the joint spectral probabilities
        assert cert.spectral_violations
        total = sum(v.probability for v in cert.spectral_violations)
        assert total == pytest.approx(0.5, abs=1e-9)

    def test_norm_deficit_rejected(self):
        # eigenvalues {1/2, -1/2}: operator norm condition fails
        obs = QuditObservable.from_matrix(SZ / 2)
        cert = check_bell_condition(ghz(2), obs)
        assert not cert.accepted
        assert abs(cert.operator_norm - 0.5) <= 1e-12

    def test_eigenvalue_range_error(self):
        with pytest.raises(ValidationError, match="operator norm"):
            check_bell_condition(ghz(2), QuditObservable.from_matrix(2 * SZ))

    def test_nan_observable_rejected(self):
        bloch = QuditObservable.from_matrix(SZ).bloch
        nan = QuditObservable(dim=2, matrix=np.full((2, 2), np.nan), bloch=bloch)
        with pytest.raises(ValidationError, match="operator norm"):
            check_bell_condition(ghz(2), nan)

    def test_json_payload(self):
        cert = check_bell_condition(ghz(2), QuditObservable.from_matrix(SZ))
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["accepted"] is True
        assert payload["sign"] == 1
        assert payload["observable"]["dim"] == 2


class TestSpectrum:
    def test_ghz2_clusters(self):
        spectral = correlation_spectrum(correlation_matrix(ghz(2)))
        assert [(round(c.value, 9), c.multiplicity) for c in spectral.clusters] == [
            (-1.0, 1),
            (1.0, 2),
        ]
        assert spectral.spectral_norm == pytest.approx(1.0, abs=1e-12)

    def test_ghz4_clusters(self):
        spectral = correlation_spectrum(correlation_matrix(ghz(4)))
        assert [(round(c.value, 9), c.multiplicity) for c in spectral.clusters] == [
            (-0.5, 6),
            (0.5, 9),
        ]

    def test_zero_matrix_single_cluster(self):
        spectral = correlation_spectrum(correlation_matrix(maximally_mixed(4)))
        assert len(spectral.clusters) == 1
        assert spectral.clusters[0].multiplicity == 15
        assert abs(spectral.clusters[0].value) <= 1e-13

    def test_non_symmetric_rejected(self, rng):
        # a one-sided rotation of the maximally entangled state skews T
        from quditbell.bloch import haar_unitary

        u = np.kron(haar_unitary(2, rng), np.eye(2))
        rho = u @ ghz(2).rho @ u.conj().T
        tcorr = correlation_matrix(TwoQuditState.from_matrix(rho))
        assert not tcorr.symmetric
        with pytest.raises(ValidationError, match="symmetric"):
            correlation_spectrum(tcorr)

    def test_every_read_of_an_asymmetric_spectrum_is_gated(self, rng):
        # a random full-rank state: (T + T^T) / 2 has a smaller norm than T, so no read of
        # T's spectrum may decompose the symmetric part in T's place
        tcorr = correlation_matrix(random_state(4, rng))
        assert not tcorr.symmetric
        reads = {
            "spectral": lambda: tcorr.spectral,
            "spectral_norm": lambda: tcorr.spectral_norm,
            "correlation_spectrum": lambda: correlation_spectrum(tcorr),
            "bell_condition_spectral_form": lambda: bell_condition_spectral_form(
                tcorr, make_diag_pm1(4, [1, 1, -1, -1]).bloch, 1
            ),
        }
        for name, read in reads.items():
            with pytest.raises(ValidationError, match="^correlation matrix is not symmetric; "):
                read()


class TestSpectralForm:
    def test_ghz2_directions(self):
        t = correlation_matrix(ghz(2))
        assert bell_condition_spectral_form(t, to_bloch(SZ), 1)
        assert bell_condition_spectral_form(t, to_bloch(SY), -1)
        assert not bell_condition_spectral_form(t, to_bloch(SY), 1)

    def test_ghz4_diagonal_direction(self):
        t = correlation_matrix(ghz(4))
        b = to_bloch(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        assert bell_condition_spectral_form(t, b, 1)
        assert not bell_condition_spectral_form(t, b, -1)

    def test_non_unit_rejected(self):
        t = correlation_matrix(ghz(2))
        with pytest.raises(ValidationError, match="unit"):
            bell_condition_spectral_form(t, from_bloch([0.5, 0, 0], 2).bloch, 1)

    @pytest.mark.parametrize("d", [2, 4])
    def test_equivalent_to_trace_condition(self, d, rng):
        # residual identity: |tr[rho(B(x)B)] -+ 1| = (d/2) |<b,Tb> -+ 2/d|
        for _ in range(200):
            state = random_state(d, rng, symmetric=True)
            t = correlation_matrix(state)
            b = rng.standard_normal(d * d - 1)
            b /= np.linalg.norm(b)
            obs = from_bloch(b, d)
            for sign in (1, -1):
                trace_val = product_expectation(state, obs, obs)
                quad = float(b @ t.matrix @ b)
                assert abs(abs(trace_val - sign) - d / 2 * abs(quad - sign * 2 / d)) <= 1e-9
                spectral_ok = bell_condition_spectral_form(t, obs.bloch, sign, tol=1e-9)
                trace_ok = abs(trace_val - sign) <= (d / 2) * 1e-9
                assert spectral_ok == trace_ok


class TestCertifyState:
    def test_ghz2(self):
        membership = certify_state(ghz(2))
        assert membership.in_class
        assert membership.spectral_norm == pytest.approx(1.0, abs=1e-12)
        assert sorted(membership.extreme_eigenvalues) == pytest.approx([-1.0, 1.0], abs=1e-12)
        plus = membership.for_sign(1)
        minus = membership.for_sign(-1)
        assert_allclose(plus.witness.coords, [0, 0, 1], atol=1e-10)
        assert_allclose(minus.witness.coords, [0, 1, 0], atol=1e-10)

    def test_ghz4(self):
        membership = certify_state(ghz(4))
        assert membership.in_class
        assert membership.spectral_norm == pytest.approx(0.5, abs=1e-12)
        witness = membership.for_sign(1).witness
        assert_allclose(
            witness.coords, to_bloch(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)).coords,
            atol=1e-10,
        )
        assert membership.for_sign(-1).certified

    def test_maximally_mixed_not_in_class(self):
        membership = certify_state(maximally_mixed(4))
        assert not membership.in_class
        assert membership.spectral_norm <= 1e-12
        assert all(not entry.certified for entry in membership.sign_results)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError, match="odd"):
            certify_state(ghz(3))

    def test_asymmetric_rejected(self, rng):
        state = random_state(2, rng, symmetric=False)
        assert not state.symmetric
        with pytest.raises(ValidationError, match="symmetric"):
            certify_state(state)

    @pytest.mark.parametrize("d", [2, 4])
    def test_rotated_ghz_certifies(self, d, rng):
        membership = certify_state(rotated_ghz(d, rng))
        assert membership.in_class
        assert membership.for_sign(1).certified
        assert membership.for_sign(-1).certified

    def test_singlet_anticorrelations_only(self):
        membership = certify_state(singlet())
        assert membership.in_class
        assert membership.spectral_norm == pytest.approx(1.0, abs=1e-12)
        assert membership.extreme_eigenvalues == pytest.approx([-1.0], abs=1e-12)
        assert not membership.for_sign(1).certified
        assert membership.for_sign(-1).certified
        with pytest.raises(CertificationError, match="no extreme eigenvalue"):
            find_perfect_observables(certify_state(singlet()), 1)

    def test_witness_is_extreme_eigenvector(self):
        state = ghz(4)
        membership = certify_state(state)
        t = correlation_matrix(state).matrix
        for entry in membership.sign_results:
            v = entry.witness.coords
            assert np.linalg.norm(t @ v - entry.eigenvalue * v) <= 1e-9

    def test_membership_keeps_its_correlation_matrix(self):
        state = ghz(4)
        membership = certify_state(state)
        assert_allclose(membership.tcorr.matrix, correlation_matrix(state).matrix)
        assert "tcorr" not in membership.to_dict()
        for entry in membership.sign_results:
            assert entry.eigenvalue == entry.cluster.value
            # the witness lies in the eigenspace the search was given
            v = entry.witness.coords
            assert np.linalg.norm(entry.cluster.vectors.T @ v) == pytest.approx(1.0, abs=1e-12)

    def test_json_payload(self):
        payload = json.loads(json.dumps(certify_state(ghz(2)).to_dict()))
        assert payload["in_class"] is True
        assert set(payload["signs"]) == {"+", "-"}
        assert payload["signs"]["+"]["certified"] is True


class TestFindPerfectObservables:
    def test_ghz2_plus_includes_sz_and_sx(self):
        observables = find_perfect_observables(certify_state(ghz(2)), 1, count=6)
        blochs = [tuple(np.round(o.bloch.coords, 8)) for o in observables]
        assert (0.0, 0.0, 1.0) in blochs
        assert (1.0, 0.0, 0.0) in blochs

    def test_ghz2_minus_includes_sy(self):
        observables = find_perfect_observables(certify_state(ghz(2)), -1, count=4)
        assert any(np.allclose(o.matrix, SY, atol=1e-10) for o in observables)

    def test_ghz4_minus_includes_sy_blocks(self):
        observables = find_perfect_observables(certify_state(ghz(4)), -1, count=8)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = SY
        expected[2:, 2:] = SY
        assert any(np.allclose(o.matrix, expected, atol=1e-10) for o in observables)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_soundness(self, d, sign):
        state = ghz(d)
        for obs in find_perfect_observables(certify_state(state, seed=2), sign, count=6):
            cert = check_bell_condition(state, obs)
            assert cert.accepted, f"d={d} sign={sign} residual={cert.residual}"
            assert cert.sign == sign

    def test_distinctness(self):
        observables = find_perfect_observables(certify_state(ghz(4), seed=0), 1, count=8)
        for i in range(len(observables)):
            for j in range(i + 1, len(observables)):
                assert (
                    np.linalg.norm(observables[i].bloch.coords - observables[j].bloch.coords)
                    > 1e-6
                )

    def test_uncertified_state_raises(self):
        with pytest.raises(CertificationError, match="no extreme eigenvalue"):
            find_perfect_observables(certify_state(maximally_mixed(4)), 1)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            find_perfect_observables(certify_state(ghz(2)), 0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValidationError, match="count"):
            find_perfect_observables(certify_state(ghz(2)), 1, count=count)

    @pytest.mark.parametrize("make_state, sign", _WITNESS_CASES)
    def test_first_observable_is_the_certified_witness(self, make_state, sign):
        membership = certify_state(make_state())
        first = find_perfect_observables(membership, sign)[0].bloch.coords
        witness = membership.for_sign(sign).witness.coords
        assert min(np.linalg.norm(first - witness), np.linalg.norm(first + witness)) <= 1e-12


class TestEigenspaceMapping:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_construction_families_split_by_sign(self, d, rng):
        spectral = correlation_spectrum(correlation_matrix(ghz(d)))
        plus = next(c for c in spectral.clusters if c.value > 0)
        minus = next(c for c in spectral.clusters if c.value < 0)
        for _ in range(4):
            signs = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
            rng.shuffle(signs)
            gammas = rng.integers(0, 2, size=d // 2)
            for obs in (make_diag_pm1(d, signs.astype(int)), make_offdiag_real_pm1(d, gammas)):
                r = obs.bloch.coords
                minus_part = minus.vectors.T @ r
                assert np.linalg.norm(minus_part) <= 1e-10
            r = make_offdiag_imag_pm1(d, gammas).bloch.coords
            plus_part = plus.vectors.T @ r
            assert np.linalg.norm(plus_part) <= 1e-10


def _pure_state(psi):
    psi = psi / np.linalg.norm(psi)
    return TwoQuditState.from_matrix(np.outer(psi, psi.conj()))


def _takagi_spectrum(m):
    """T's eigenvalues for psi = vec(M), M = M^T, from M's singular values s: +-2 s_j s_k
    (j < k), and diag(2 s^2) compressed to the traceless diagonal subspace."""
    d = len(m)
    s = np.linalg.svd(m / np.linalg.norm(m), compute_uv=False)
    j, k = np.triu_indices(d, 1)
    pairs = 2.0 * s[j] * s[k]
    # eigenvalue 0 of the centring projector belongs to (1, ..., 1); the rest span sum x = 0
    traceless = np.linalg.eigh(np.eye(d) - 1.0 / d)[1][:, 1:]
    diagonal = np.linalg.eigvalsh(traceless.T @ np.diag(2.0 * s**2) @ traceless)
    return np.sort(np.concatenate([pairs, -pairs, diagonal]))


class TestPureSymmetricStates:
    """An exact oracle for T's spectrum, independent of the generators and of T's eigh."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_spectrum_matches_the_takagi_values(self, d, rng):
        for _ in range(5):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = z + z.T
            state = _pure_state(m.reshape(-1))
            assert state.symmetric
            spectral = correlation_spectrum(correlation_matrix(state))
            assert np.max(np.abs(spectral.eigenvalues - _takagi_spectrum(m))) <= 1e-12

    def test_pure_symmetric_qubit_states_are_correlated(self, rng):
        for _ in range(8):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert certify_state(_pure_state((z + z.T).reshape(-1))).for_sign(1).certified

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_rotated_maximally_entangled_states_certify_both_signs(self, d, rng):
        from quditbell.bloch import haar_unitary

        u = haar_unitary(d, rng)
        membership = certify_state(_pure_state(np.kron(u, u) @ np.eye(d).reshape(-1)))
        assert membership.for_sign(1).certified and membership.for_sign(-1).certified


def _symmetric_state_of_rank(d, rank, rng):
    """Random swap-symmetric state of the given rank: Gaussian columns projected onto the
    symmetric subspace first, and onto the antisymmetric one once that is full."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    n_sym = min(rank, d * (d + 1) // 2)
    z = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
    z[:, :n_sym] += swap @ z[:, :n_sym]
    z[:, n_sym:] -= swap @ z[:, n_sym:]
    rho = z @ z.conj().T
    return TwoQuditState.from_matrix(rho / np.trace(rho).real)


@pytest.mark.parametrize("d", range(2, 9))
def test_spectrum_matches_the_realigned_state(d, rng):
    # M[(j,k),(b,a)] = rho[(j,a),(k,b)] compressed to vec(I)^perp has T's spectrum / 2.
    # This oracle uses no generators, so it also checks U and _apply_u.
    complement = np.linalg.svd(np.eye(d).reshape(1, d * d))[2][1:].T
    for rank in sorted({1, 2, d, d * d}):
        state = _symmetric_state_of_rank(d, rank, rng)
        assert state.symmetric and np.linalg.matrix_rank(state.rho, tol=1e-10) == rank
        marginal = np.trace(state.rho.reshape(d, d, d, d), axis1=1, axis2=3)
        assert np.linalg.norm(marginal - np.eye(d) / d) > 1e-3
        m = state.rho.reshape(d, d, d, d).transpose(0, 2, 3, 1).reshape(d * d, d * d)
        oracle = np.sort(2.0 * np.linalg.eigvalsh(complement.T @ m @ complement))
        spectral = correlation_spectrum(correlation_matrix(state))
        assert np.max(np.abs(spectral.eigenvalues - oracle)) <= 1e-12


def test_search_options_flow_through():
    membership = certify_state(ghz(6), restarts=4, seed=9)
    assert membership.in_class


@pytest.mark.parametrize("d", [2, 4, 6])
def test_witness_search_from_random_starts_only(d, rng):
    # past the canonical warm starts, the randomized refinement still finds witnesses
    membership = certify_state(rotated_ghz(d, rng))
    for entry in membership.sign_results:
        results = perfectness._witnesses(entry.cluster, d, entry.sign, membership.tol, 32, 0)
        assert any(coords is not None for coords, _, used in results if used >= 1)


def test_eigenspace_without_witness():
    # With d = 6 the sign - eigenspace is spanned by the antisymmetric generators
    # of two 3x3 blocks, each with a zero eigenvalue, so it holds no +-1 observable.
    d = 6
    membership = certify_state(_twisted_ghz(d, 0.3))
    assert membership.in_class
    plus, minus = membership.for_sign(1), membership.for_sign(-1)
    assert plus.certified
    assert plus.restarts_used == 0
    assert not minus.certified
    assert minus.cluster.multiplicity == 6
    assert minus.restarts_used == 32
    # the least residual over the eigenspace, reached by the projection loop
    expected = np.sqrt(2 / d) * (np.sqrt(1.5) - 1)
    assert abs(minus.norm_residual - expected) <= 1e-12


@pytest.mark.parametrize(
    "kwargs", [{"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1e-9}, {"restarts": -1}]
)
def test_certify_rejects_bad_search_inputs(kwargs):
    with pytest.raises(ValidationError):
        certify_state(ghz(2), **kwargs)


# Every entry point that takes a tolerance, called on valid GHZ_2 inputs.
_TOL_GATES = {
    "certify_state": lambda tol: certify_state(ghz(2), tol=tol),
    "MaximizeOptions": lambda tol: MaximizeOptions(tol=tol),
    "check_bell_condition": lambda tol: check_bell_condition(
        ghz(2), QuditObservable.from_matrix(SZ), tol=tol
    ),
    "bell_condition_spectral_form": lambda tol: bell_condition_spectral_form(
        correlation_matrix(ghz(2)), to_bloch(SZ), 1, tol=tol
    ),
    "in_pm1_shell": lambda tol: in_pm1_shell(to_bloch(SZ), tol=tol),
}


@pytest.mark.parametrize("gate", sorted(_TOL_GATES))
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, "1e-9", None, True, False])
def test_every_tolerance_gate_rejects_bad_tol(gate, tol):
    with pytest.raises(ValidationError, match="tol must be finite and non-negative"):
        _TOL_GATES[gate](tol)


def test_certify_zero_restarts_tries_canonical_starts_only():
    membership = certify_state(ghz(4), restarts=0)
    assert membership.in_class
    assert all(entry.restarts_used == 0 for entry in membership.sign_results)
