import json
import os
import threading

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
    bell_expression,
    bloch_expectation,
    certify_state,
    check_bell_condition,
    chsh_optimal_settings,
    chsh_value,
    correlation_matrix,
    exhaustive_qubit_max,
    find_perfect_observables,
    from_bloch,
    ghz,
    lhv_monte_carlo,
    maximally_mixed,
    maximize_bell,
    pm1_round,
    scalar_bound,
)
from quditbell import bellmax, bloch, perfectness
from quditbell.bellmax import OUTCOME_GRID, WITNESS_COUNT, _lhv_values, _run_restarts, _sphere_grid
from quditbell.bloch import haar_unitary
from quditbell.cli import main as cli_main

from conftest import (
    SX, SZ, random_state, random_traceless_hermitian, read_state_file, rotated_ghz, singlet,
)


class TestBellExpression:
    def test_ghz2_simple_triples(self):
        state = ghz(2)
        sx = QuditObservable.from_matrix(SX)
        sz = QuditObservable.from_matrix(SZ)
        assert bell_expression(state, sx, sz, sz, 1) == pytest.approx(1.0, abs=1e-12)
        assert bell_expression(state, sz, sz, sz, 1) == pytest.approx(1.0, abs=1e-12)

    def test_ghz2_optimal_triple_attains_three_halves(self):
        state = ghz(2)
        b = from_bloch([0, 0, 1], 2)
        btil = from_bloch([np.sqrt(3) / 2, 0, 0.5], 2)
        a = from_bloch([-np.sqrt(3) / 2, 0, 0.5], 2)
        assert bell_expression(state, a, b, btil, 1) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4])
    def test_dual_path_agreement(self, d, rng):
        for _ in range(60):
            state = random_state(d, rng)
            t = correlation_matrix(state)
            obs = [
                QuditObservable.from_matrix(random_traceless_hermitian(d, rng))
                for _ in range(3)
            ]
            a, b, btil = (o.bloch for o in obs)
            e_ab, e_abt = bloch_expectation(t, a, b), bloch_expectation(t, a, btil)
            e_bbt = bloch_expectation(t, b, btil)
            for sign in (1, -1):
                direct = bell_expression(state, obs[0], obs[1], obs[2], sign)
                quad = abs(e_ab - e_abt) + sign * e_bbt
                assert abs(direct - quad) <= 1e-9

    def test_eigenvalue_range_rejected(self):
        state = ghz(2)
        big = QuditObservable.from_matrix(2 * SZ)
        ok = QuditObservable.from_matrix(SZ)
        with pytest.raises(ValidationError):
            bell_expression(state, big, ok, ok, 1)

    def test_nan_observable_rejected(self):
        ok = QuditObservable.from_matrix(SZ)
        nan = QuditObservable(dim=2, matrix=np.full((2, 2), np.nan), bloch=ok.bloch)
        with pytest.raises(ValidationError, match="outside"):
            bell_expression(ghz(2), nan, ok, ok, 1)

    def test_bad_sign(self):
        state = ghz(2)
        sz = QuditObservable.from_matrix(SZ)
        with pytest.raises(ValueError):
            bell_expression(state, sz, sz, sz, 2)


# Qubit triples (b, b~, a) reaching 3/2 on GHZ_2, where T = diag(1, -1, 1):
# <b, T b~> = sign/2 and a is the unit image T(b - b~).
_QUBIT_TRIPLES = {
    1: ([0, 0, 1], [np.sqrt(3) / 2, 0, 0.5], [-np.sqrt(3) / 2, 0, 0.5]),
    -1: ([0, 1, 0], [0, 0.5, np.sqrt(3) / 2], [0, -0.5, -np.sqrt(3) / 2]),
}


class TestBlockEmbedding:
    """On GHZ_d, tr[rho (A (x) B)] = tr[A B^T]/d, so copying a qubit triple
    onto each of the d/2 level pairs keeps the qubit value: 3/2 is attained
    at every even d."""

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_embedded_qubit_triple_attains_three_halves(self, d, sign):
        state = ghz(d)
        b, btil, a = (
            QuditObservable.from_matrix(np.kron(np.eye(d // 2), from_bloch(r, 2).matrix))
            for r in _QUBIT_TRIPLES[sign]
        )
        assert abs(bell_expression(state, a, b, btil, sign) - 1.5) <= 1e-9
        cert = check_bell_condition(state, b)
        assert cert.accepted and cert.sign == sign
        for obs in (a, b, btil):
            assert_allclose(np.abs(np.linalg.eigvalsh(obs.matrix)), 1.0, atol=1e-12)


class TestScalarBound:
    def test_value_and_argmax(self):
        value, z = scalar_bound()
        assert value == pytest.approx(1.5, abs=1e-9)
        assert z == pytest.approx(0.5, abs=1e-6)

    def test_endpoints(self):
        f = lambda z: np.sqrt(2 * (1 - z)) + z
        assert f(1.0) == pytest.approx(1.0)
        assert f(-1.0) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(1.5)


class TestExhaustiveOracle:
    def test_ghz2_both_signs(self):
        state = ghz(2)
        for sign in (1, -1):
            assert exhaustive_qubit_max(state, sign, 100) == pytest.approx(1.5, abs=2e-3)

    def test_coarse_grid_respects_bound(self):
        assert exhaustive_qubit_max(ghz(2), 1, 10) <= 1.5 + 1e-9

    def test_rejects_other_dims(self):
        with pytest.raises(DimensionError):
            exhaustive_qubit_max(ghz(4), 1, 10)

    def test_rejects_uncertifiable(self):
        with pytest.raises(CertificationError):
            exhaustive_qubit_max(maximally_mixed(2), 1, 10)

    def test_gates_are_certify_states(self, rng):
        with pytest.raises(ValidationError, match="not swap-symmetric; certification requires"):
            exhaustive_qubit_max(random_state(2, rng), 1, 10)
        with pytest.raises(CertificationError, match=r"no extreme eigenvalue \+1\.000000"):
            exhaustive_qubit_max(singlet(), 1, 10)

    @pytest.mark.parametrize("grid_steps", [2.5, np.float64(3.0), float("nan"), 1, 0])
    def test_grid_steps_gate(self, grid_steps):
        with pytest.raises(ValidationError, match="grid_steps"):
            exhaustive_qubit_max(ghz(2), 1, grid_steps)

    def test_numpy_integer_grid_steps_accepted(self):
        assert exhaustive_qubit_max(ghz(2), 1, np.int64(10)) == exhaustive_qubit_max(ghz(2), 1, 10)


def _per_b_oracle(state, sign, grid_steps):
    """Reference: the oracle by the direct norm, broadcast over chunks of 8 b-points."""
    tmat = correlation_matrix(state).matrix
    tmat = (tmat + tmat.T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(tmat)
    subspace = vectors[:, np.abs(eigenvalues - float(sign)) <= 1e-9]
    k = subspace.shape[1]
    if k == 1:
        b_points = np.stack([subspace[:, 0], -subspace[:, 0]])
    elif k == 2:
        alphas = np.arange(2 * grid_steps) * (np.pi / grid_steps)
        b_points = np.cos(alphas)[:, None] * subspace[:, 0] + np.sin(alphas)[:, None] * subspace[:, 1]
    else:
        b_points = _sphere_grid(grid_steps) @ subspace.T
    t_btil = tmat @ _sphere_grid(grid_steps).T  # column j is T b~_j
    best = -np.inf
    for i in range(0, len(b_points), 8):
        b = b_points[i : i + 8]
        tb = tmat @ b.T
        # axis 0 holds the three coordinates of T b - T b~ for every (b, b~) in the chunk
        first = np.linalg.norm(tb[:, :, None] - t_btil[:, None, :], axis=0)
        second = b @ t_btil
        best = max(best, float(np.max(first + sign * second)))
    return best


class TestOracleReference:
    # 7, 33 and 60 steps give 112, 2244 and 7320 sphere points: no tile divides them
    @pytest.mark.parametrize("grid_steps", [7, 33, 60])
    def test_ghz_and_rotated_ghz(self, grid_steps):
        rng = np.random.default_rng(31)
        for state in [ghz(2)] + [rotated_ghz(2, rng) for _ in range(3)]:
            for sign in (1, -1):
                blocked = exhaustive_qubit_max(state, sign, grid_steps)
                assert abs(blocked - _per_b_oracle(state, sign, grid_steps)) <= 1e-15

    @pytest.mark.parametrize("grid_steps", [7, 33, 60])
    def test_singlet_full_sphere(self, grid_steps):
        # eigenspace of T = -I for -1 is all of R^3: b runs over the sphere grid too
        blocked = exhaustive_qubit_max(singlet(), -1, grid_steps)
        assert abs(blocked - _per_b_oracle(singlet(), -1, grid_steps)) <= 1e-15


_BELL_STATES = {
    "phi+": [1, 0, 0, 1], "phi-": [1, 0, 0, -1], "psi+": [0, 1, 1, 0], "psi-": [0, 1, -1, 0]
}


def _rotated_bell_mixture(first, second, p, rng):
    """p |first><first| + (1 - p) |second><second| of two Bell states, conjugated by a
    Haar U (x) U."""
    a, b = (np.array(_BELL_STATES[name], dtype=complex) / np.sqrt(2) for name in (first, second))
    rho = p * np.outer(a, a.conj()) + (1 - p) * np.outer(b, b.conj())
    uu = np.kron(*[haar_unitary(2, rng)] * 2)
    return TwoQuditState.from_matrix(uu @ rho @ uu.conj().T)


def _closed_form_qubit_max(state, sign):
    """tau + 1/(1 + tau), the exact d = 2 maximum for a state with T b = sign b.

    Over a, the value is ||T(b - b~)||; writing b~ = x b + b~_perp, it is at most
    sqrt((1 - x)^2 + tau^2 (1 - x^2)) + x, largest at x = 1/(1 + tau), where tau is
    the norm of T off b: 1 when T's sign-eigenspace has dimension >= 2, else the
    largest |eigenvalue| off that eigenspace.
    """
    eigenvalues = np.linalg.eigvalsh(correlation_matrix(state).matrix)
    on = np.abs(eigenvalues - sign) <= 1e-9
    tau = 1.0 if on.sum() >= 2 else float(np.max(np.abs(eigenvalues[~on])))
    return tau + 1.0 / (1.0 + tau)


class TestOracleClosedForm:
    # each pair's correlation matrices share one eigenvalue, sign, on a common axis;
    # p = 1 is a pure Bell state, where tau = 1 and the maximum is 3/2
    @pytest.mark.parametrize(
        "first, second, sign",
        [
            ("phi+", "phi-", 1), ("phi+", "psi+", 1), ("phi+", "psi-", -1),
            ("phi-", "psi+", 1), ("phi-", "psi-", -1), ("psi+", "psi-", -1),
        ],
    )
    def test_grid_is_below_and_close_to_the_closed_form(self, first, second, sign, rng):
        for p in np.r_[1.0, rng.uniform(size=9)]:
            state = _rotated_bell_mixture(first, second, p, rng)
            exact = _closed_form_qubit_max(state, sign)
            assert exhaustive_qubit_max(state, sign, 40) <= exact + 1e-12
            assert exact - exhaustive_qubit_max(state, sign, 200) <= 1e-8


def _oracle_inputs():
    """(state, sign) pairs covering eigenspaces of dimension 1, 2 and 3."""
    rng = np.random.default_rng(43)
    cases = [(ghz(2), 1), (ghz(2), -1)]
    cases += [(rotated_ghz(2, rng), sign) for sign in (1, -1, 1)]
    cases.append((_rotated_bell_mixture("phi+", "psi-", 0.7, rng), -1))
    return cases + [(singlet(), -1)]


class TestOracleWorkers:
    # 7, 33 and 60 steps give 112, 2244 and 7320 sphere points: no tile divides them
    @pytest.mark.parametrize("grid_steps", [7, 33, 60])
    def test_worker_count_does_not_change_the_value(self, monkeypatch, grid_steps):
        values = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(bellmax, "_cpu_count", lambda: workers)
            values[workers] = [exhaustive_qubit_max(s, sign, grid_steps).hex() for s, sign in _oracle_inputs()]
        assert values[2] == values[1] and values[3] == values[1]

    @pytest.mark.parametrize("reported, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, reported, expected):
        # the fallback where the OS has no sched_getaffinity: os.cpu_count(), or 1 if unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: reported)
        assert bellmax._cpu_count() == expected

    @pytest.fixture
    def given(self, monkeypatch):
        """``(id(rows), id(columns))`` of each tile the oracle passes to ``_tiles_max``, in order."""
        given = []
        tiles_max = bellmax._tiles_max

        def recorded(tiles):
            given.extend((id(rows), id(columns)) for rows, columns in tiles)
            return tiles_max(tiles)

        monkeypatch.setattr(bellmax, "_tiles_max", recorded)
        return given

    # GHZ_2 at sign +1 scans half its circle of 2 steps b-points: 60 against 7320 b~
    # at 60 steps, in ceil(7320 / (51200 // 60)) = ceil(7320 / 853) = 9 tiles, and
    # 4 against 40 in one tile at 4 steps, the benchmark's warm-up call
    @pytest.mark.parametrize(
        "grid_steps, workers, tiles",
        [(60, 1, 9), (60, 2, 9), (60, 3, 9), (60, 50, 9), (4, 4, 1)],
    )
    def test_every_tile_is_scanned_once(self, monkeypatch, given, grid_steps, workers, tiles):
        scanned, threads = [], set()
        tile_max = bellmax._tile_max

        def recorded(rows, columns):
            scanned.append((id(rows), id(columns)))
            threads.add(threading.current_thread())
            return tile_max(rows, columns)

        monkeypatch.setattr(bellmax, "_tile_max", recorded)
        monkeypatch.setattr(bellmax, "_cpu_count", lambda: workers)
        exhaustive_qubit_max(ghz(2), 1, grid_steps)
        assert len(set(given)) == len(given) == tiles
        assert sorted(scanned) == sorted(given)
        assert 1 <= len(threads) <= min(workers, tiles)

    @pytest.mark.parametrize("failing", ["first", "last", "all"])
    def test_failure_in_a_share_reaches_the_caller(self, monkeypatch, given, failing):
        tile_max = bellmax._tile_max

        def broken(rows, columns):
            index = given.index((id(rows), id(columns)))
            if failing == "all" or index == {"first": 0, "last": len(given) - 1}[failing]:
                raise MemoryError("injected")
            return tile_max(rows, columns)

        monkeypatch.setattr(bellmax, "_tile_max", broken)
        monkeypatch.setattr(bellmax, "_cpu_count", lambda: 3)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="injected"):
            exhaustive_qubit_max(ghz(2), 1, 60)
        assert len(given) == 9
        assert threading.active_count() == before

    # b-grids of 2, 2 steps and (steps + 1) 2 steps points for eigenspaces of dimension
    # 1, 2 and 3; 60 steps puts an equator ring in the sphere grid, 7 does not
    @pytest.mark.parametrize("grid_steps", [7, 60])
    @pytest.mark.parametrize(
        "state, sign, b_grid",
        [(ghz(2), -1, lambda n: 2), (ghz(2), 1, lambda n: 2 * n), (singlet(), -1, lambda n: (n + 1) * 2 * n)],
        ids=["k1", "k2", "k3"],
    )
    def test_scan_covers_half_the_pairs(self, monkeypatch, state, sign, b_grid, grid_steps):
        pairs = []
        tiles_max = bellmax._tiles_max

        def recorded(tiles):
            pairs.extend(len(rows) // 2 * columns.shape[1] for rows, columns in tiles)
            return tiles_max(tiles)

        monkeypatch.setattr(bellmax, "_tiles_max", recorded)
        exhaustive_qubit_max(state, sign, grid_steps)
        assert sum(pairs) == b_grid(grid_steps) // 2 * (grid_steps + 1) * 2 * grid_steps

    # the b~ columns of each block, joined, are [b~; ||T b~||^2; 1] over the whole
    # sphere grid; states with eigenspaces of dimension 1, 2 and 3
    @pytest.mark.parametrize("grid_steps", [7, 60])
    @pytest.mark.parametrize(
        "state, sign",
        [
            (rotated_ghz(2, np.random.default_rng(53)), -1),
            (rotated_ghz(2, np.random.default_rng(53)), 1),
            (singlet(), -1),
        ],
        ids=["k1", "k2", "k3"],
    )
    def test_columns_are_the_btilde_gram_side(self, monkeypatch, state, sign, grid_steps):
        blocks = {}
        tiles_max = bellmax._tiles_max

        def recorded(tiles):
            for rows, columns in tiles:
                blocks.setdefault(id(rows), []).append(columns)
            return tiles_max(tiles)

        monkeypatch.setattr(bellmax, "_tiles_max", recorded)
        exhaustive_qubit_max(state, sign, grid_steps)
        tmat = correlation_matrix(state).matrix
        tmat = (tmat + tmat.T) / 2.0
        grid = _sphere_grid(grid_steps)
        expected = np.vstack([grid.T, np.linalg.norm(grid @ tmat, axis=1) ** 2, np.ones(len(grid))])
        assert blocks
        for slices in blocks.values():
            assert np.max(np.abs(np.hstack(slices) - expected)) <= 1e-15

    def test_sphere_grid_is_cached_and_read_only(self):
        grid = _sphere_grid(9)
        assert _sphere_grid(9) is grid and not grid.flags.writeable
        assert grid.T.flags.c_contiguous
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


class TestMaximize:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_ghz2_attains_three_halves(self, sign):
        report = maximize_bell(ghz(2), sign, MaximizeOptions(restarts=8, seed=0))
        assert report.best_value == pytest.approx(1.5, abs=1e-6)
        assert abs(report.best_value - report.bloch_value) <= 1e-9
        assert report.b_perfect_residual <= 1e-9

    def test_report_observable_is_perfect(self):
        state = ghz(4)
        report = maximize_bell(state, -1, MaximizeOptions(restarts=4, seed=0))
        cert = check_bell_condition(state, report.best_b)
        assert cert.accepted and cert.sign == -1
        assert report.best_value <= 1.5 + 1e-6

    def test_restart_monotonicity(self):
        values = []
        for restarts in (1, 2, 4, 8):
            report = maximize_bell(ghz(2), 1, MaximizeOptions(restarts=restarts, seed=3))
            values.append(report.best_value)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_deterministic_given_seed(self):
        r1 = maximize_bell(ghz(2), 1, MaximizeOptions(restarts=4, seed=5))
        r2 = maximize_bell(ghz(2), 1, MaximizeOptions(restarts=4, seed=5))
        assert r1.best_value == r2.best_value
        assert_allclose(r1.best_btilde.matrix, r2.best_btilde.matrix)

    def test_singlet_attains_three_halves_anticorrelated(self):
        state = singlet()
        report = maximize_bell(state, -1, MaximizeOptions(restarts=8, seed=0))
        assert report.best_value == pytest.approx(1.5, abs=1e-6)
        # perfectness eigenspace is all of R^3 here: full-sphere oracle path
        oracle = exhaustive_qubit_max(state, -1, 60)
        assert abs(report.best_value - oracle) <= 2e-3
        with pytest.raises(CertificationError):
            maximize_bell(state, 1, MaximizeOptions(restarts=2))

    def test_oracle_agreement_on_random_certified_states(self):
        # rotated GHZ states stay symmetric, certified, and oracle-checkable
        rng = np.random.default_rng(77)
        for _ in range(20):
            state = rotated_ghz(2, rng)
            report = maximize_bell(state, 1, MaximizeOptions(restarts=8, seed=1))
            oracle = exhaustive_qubit_max(state, 1, 200)
            assert abs(report.best_value - oracle) <= 3e-3

    def test_iteration_cap(self):
        report = maximize_bell(ghz(4), 1, MaximizeOptions(restarts=3, seed=0, max_iters=1))
        assert [r.iterations for r in report.per_restart] == [1, 1, 1]
        assert [row[:2] for row in report.trace] == [(i, it) for i in range(3) for it in (0, 1)]

    def test_timing_field_optional(self, capsys):
        report = maximize_bell(ghz(2), 1, MaximizeOptions(restarts=2, seed=0))
        assert "timing" not in report.to_dict()
        assert report.wall_time > 0
        # the CLI adds the wall time with --timing
        args = ["maximize", "--dim", "2", "--sign", "+", "--restarts", "2", "--timing"]
        assert cli_main(args) == 0
        assert "timing" in json.loads(capsys.readouterr().out)["report"]

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            maximize_bell(ghz(3), 1)

    def test_uncertified_rejected(self):
        with pytest.raises(CertificationError):
            maximize_bell(maximally_mixed(4), 1, MaximizeOptions(restarts=2))

    def test_asymmetric_rejected(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        with pytest.raises(ValidationError):
            maximize_bell(TwoQuditState.from_matrix(rho), 1)

    @pytest.mark.parametrize(
        "field, value",
        [("restarts", 0), ("restarts", -1), ("max_iters", 0)],
    )
    def test_options_reject_nonpositive_counts(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be at least 1"):
            MaximizeOptions(**{field: value})


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: lhv_monte_carlo(1, 10, seed=-1), "seed"),
        (lambda: lhv_monte_carlo(1, 10, seed=1.5), "seed"),
        (lambda: certify_state(ghz(2), seed=-1), "seed"),
        (lambda: certify_state(ghz(2), seed=np.int64(-3)), "seed"),
        (lambda: MaximizeOptions(seed=-1), "seed"),
        (lambda: MaximizeOptions(seed="0"), "seed"),
        (lambda: MaximizeOptions(restarts=2.5), "restarts"),
        (lambda: MaximizeOptions(max_iters=3.5), "max_iters"),
        (lambda: lhv_monte_carlo(1, 2.5), "n_models"),
        (lambda: certify_state(ghz(2), restarts=2.5), "restarts"),
        (lambda: find_perfect_observables(certify_state(ghz(2)), 1, count=2.5), "count"),
    ],
)
def test_integer_knobs_are_gated_by_name(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda flag, path: lhv_monte_carlo(1, 10, seed=flag), "seed"),
        (lambda flag, path: certify_state(ghz(4), restarts=flag), "restarts"),
        (lambda flag, path: MaximizeOptions(restarts=flag), "restarts"),
        (
            lambda flag, path: read_state_file(path, json.dumps({"dim": bool(flag), "rho": []})),
            "dim",
        ),
    ],
)
def test_bool_is_not_an_integer(call, name, flag, tmp_path):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        call(flag, tmp_path / "state.json")


def test_numpy_integer_knobs_are_accepted_and_serialize():
    lhv = lhv_monte_carlo(1, 10, seed=np.int64(4))
    assert json.dumps(lhv.to_dict()) == json.dumps(lhv_monte_carlo(1, 10, seed=4).to_dict())
    opts = MaximizeOptions(restarts=np.int32(2), seed=np.uint8(1))
    report = maximize_bell(ghz(2), 1, opts).to_dict()
    assert json.loads(json.dumps(report))["seed"] == 1


def _serial_restart(d, tmat, b, sign, seed, index, max_iters):
    """Reference: one restart on its own, with single-vector roundings."""
    rng = np.random.default_rng([seed, index])
    tb = tmat @ b

    def value_of(a_c, btil_c):
        tbtil = tmat @ btil_c
        return d / 2.0 * (abs(float(a_c @ (tb - tbtil))) + sign * float(b @ tbtil))

    def rounded(c):
        return pm1_round(c, d).coords

    btil = rounded(rng.standard_normal(d * d - 1))
    a = rounded(tb - tmat @ btil)
    value = value_of(a, btil)
    for _ in range(max_iters):
        start_value = value
        for sigma in (1.0, -1.0):
            btil2 = rounded((sign * b - sigma * a) @ tmat)
            v2 = value_of(a, btil2)
            if v2 > value:
                btil, value = btil2, v2
        a2 = rounded(tb - tmat @ btil)
        v2 = value_of(a2, btil)
        if v2 > value:
            a, value = a2, v2
        if value == start_value:
            break
    return value


class TestLockstepReference:
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_one_restart_at_a_time(self, d, sign):
        opts = MaximizeOptions(restarts=16, seed=0)
        state = ghz(d)
        membership = certify_state(state, tol=opts.tol, seed=opts.seed)
        witnesses = find_perfect_observables(membership, sign, WITNESS_COUNT)
        tmat = membership.tcorr.matrix
        reference = [
            _serial_restart(
                d, tmat, witnesses[i % len(witnesses)].bloch.coords, sign, opts.seed, i,
                opts.max_iters,
            )
            for i in range(opts.restarts)
        ]
        report = maximize_bell(state, sign, opts)
        values = [r.value for r in report.per_restart]
        assert_allclose(values, reference, rtol=0, atol=1e-14)
        assert abs(report.bloch_value - max(reference)) <= 2e-15

    def test_restart_loop_passes_no_gate(self, monkeypatch):
        membership = certify_state(ghz(4))
        witnesses = find_perfect_observables(membership, 1, WITNESS_COUNT)
        b = np.stack([witnesses[i % len(witnesses)].bloch.coords for i in range(8)])
        gauss = np.random.default_rng(0).standard_normal((8, 15))
        args = (4, membership.tcorr.matrix, b, gauss, 1, 50)
        expected = _run_restarts(*args)[2]

        def gate(*_):
            raise AssertionError("a gate ran inside the restart loop")

        monkeypatch.setattr(bloch, "check_hermitian", gate)
        monkeypatch.setattr(bloch, "_checked_coords", gate)
        values = _run_restarts(*args)[2]
        assert values.tobytes() == expected.tobytes()
        assert max(values) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_witness_search_passes_no_gate(self, monkeypatch, rotated, sign):
        state = rotated_ghz(4, np.random.default_rng(3)) if rotated else ghz(4)
        membership = certify_state(state)
        cluster = membership.for_sign(sign).cluster

        def search():
            return [
                (None if coords is None else coords.tobytes(), res, used)
                for coords, res, used in perfectness._witnesses(
                    cluster, 4, sign, membership.tol, 4, membership.seed
                )
            ]

        expected = search()
        # canonical starts (used == 0) and random ones both yield witnesses
        assert {used for coords, _, used in expected if coords is not None} >= {0, 1}

        def gate(*_):
            raise AssertionError("a gate ran inside the witness search")

        monkeypatch.setattr(bloch, "check_hermitian", gate)
        monkeypatch.setattr(bloch, "_checked_coords", gate)
        monkeypatch.setattr(bloch.QuditObservable, "from_matrix", gate)
        assert search() == expected

    @pytest.mark.parametrize("d", [4, 6])
    def test_certification_runs_no_constructor_gate(self, monkeypatch, d):
        def gate(*_):
            raise AssertionError("a constructor gate ran inside the witness search")

        monkeypatch.setattr(bloch, "check_int", gate)
        monkeypatch.setattr(bloch, "_listed", gate)
        membership = certify_state(ghz(d))
        assert membership.for_sign(1).certified and membership.for_sign(-1).certified


def _planar_chsh_grid_max(state, steps=60):
    """Grid oracle over four angles in the x-z Bloch plane."""
    t = correlation_matrix(state).matrix
    angles = np.arange(steps) * (2 * np.pi / steps)
    vecs = np.stack([np.sin(angles), np.zeros(steps), np.cos(angles)], axis=1)
    m = vecs @ t @ vecs.T  # m[i, j] = <a_i, T b_j>
    s = (
        m[:, None, :, None]
        + m[:, None, None, :]
        + m[None, :, :, None]
        - m[None, :, None, :]
    )
    return float(np.max(np.abs(s)))


class TestChsh:
    def test_ghz2_reaches_tsirelson(self):
        state = ghz(2)
        settings = chsh_optimal_settings(state)
        value = chsh_value(state, *settings)
        assert value == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        # grid oracle cannot beat the closed form and approaches it
        grid = _planar_chsh_grid_max(state, steps=72)
        assert grid <= 2 * np.sqrt(2) + 1e-9
        assert value >= grid - 1e-9

    def test_equal_settings_classical(self, rng):
        state = ghz(2)
        x = QuditObservable.from_matrix(random_traceless_hermitian(2, rng))
        assert chsh_value(state, x, x, x, x) <= 2.0 + 1e-12

    def test_product_state_classical(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        state = TwoQuditState.from_matrix(rho)
        assert _planar_chsh_grid_max(state) <= 2.0 + 1e-9

    def test_three_halves_below_tsirelson_gap(self):
        assert 1.5 < 2 * np.sqrt(2) - 1


class TestLhv:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bound_holds(self, sign):
        report = lhv_monte_carlo(sign, 5000, seed=1)
        assert report.max_bell_value <= 1.0 + 1e-9
        assert report.constraint_residual_max <= 1e-12
        assert report.models_sampled == 5000

    def test_deterministic(self):
        r1 = lhv_monte_carlo(1, 500, seed=4)
        r2 = lhv_monte_carlo(1, 500, seed=4)
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_batch_edges(self, sign, n):
        report = lhv_monte_carlo(sign, n, seed=2)
        assert report.models_sampled == n
        assert report.max_bell_value <= 1.0 + 1e-9
        assert report.constraint_residual_max <= 1e-12

    def test_first_batch_is_shared(self):
        # the first 1024 models are the same draw, so more models never lower the maximum
        one = lhv_monte_carlo(1, 1024, seed=5).max_bell_value
        two = lhv_monte_carlo(1, 2048, seed=5).max_bell_value
        assert two >= one

    def test_hand_built_deterministic_model_attains_one(self):
        # lambda_a1 = lambda_b1, lambda_a2 = lambda_b2 = lambda_b1 per omega
        table = np.array([[1.0, -1.0]])  # omega_0 -> outcome +1, omega_1 -> outcome -1
        value, residual = _lhv_values(np.array([[0.5, 0.5]]), table, table, table, 1)
        assert residual[0] == 0.0
        assert value[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_vertex_bound_is_exactly_one(self, sign):
        # the 50 deterministic strategies: a1, b2 on the grid, s = +-1, one hidden state
        a1, b2, s = (x.reshape(-1, 1) for x in np.meshgrid(OUTCOME_GRID, OUTCOME_GRID, [1.0, -1.0]))
        value, residual = _lhv_values(np.ones((50, 1)), a1, b2, s, sign)
        assert value.max() == 1.0
        # attained exactly where |a1| = 1 or B2 copies B1 = sign s
        assert np.array_equal(value == 1.0, ((np.abs(a1) == 1) | (b2 == sign * s))[:, 0])
        assert np.all(residual == 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lhv_monte_carlo(0, 10)
        with pytest.raises(ValueError):
            lhv_monte_carlo(1, 0)
