"""Constrained maximization of the original Bell expression.

The quantity maximized is

    |tr[rho (A (x) B)] - tr[rho (A (x) B~)]| +- tr[rho (B (x) B~)]

over traceless observables A, B~ with eigenvalues +-1, with B held to the
perfectness constraint ``tr[rho (B (x) B)] = +-1``.  For states certified by
:mod:`quditbell.perfectness` the value never exceeds 3/2; the scalar chain
behind that bound reduces to maximizing ``sqrt(2(1-z)) + z`` over [-1, 1].

The optimizer holds B at a certified perfect observable and alternates exact
block updates of B~ and A.  With the other two fixed, each branch of the
absolute value is linear in the free vector, and a linear functional
``<c, x>`` over the +-1 shell is maximized by the sign rounding of ``c``
(:func:`quditbell.bloch.pm1_round`, Ky Fan / von Neumann).  So B~ is the
better of ``round(T(+-b - a))`` and ``round(T(+-b + a))`` and A is
``round(T(b - b~))``; no step size is involved and the value never falls.
Restart i starts from a draw seeded by ``(seed, i)``.  All restarts run in
lockstep, stacked into arrays that go through one batched rounding per
update; a restart leaves the batch at its fixed point.  Reports are
deterministic in ``(seed, restarts)``; since a restart's matrix products are
taken over the whole batch, its last bits may depend on the batch.

A Monte-Carlo harness over finite local-hidden-variable models checks the
classical bound 1 on the same combination under the perfectness constraint.
It draws the models in batches as arrays and evaluates every model of a
batch with one weighted sum per correlator.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .bloch import SET_TOL, BlochVector, QuditObservable, from_bloch, pm1_round
from .errors import (
    CertificationError, DimensionError, ValidationError, check_int, check_range, check_sign,
    check_tol, check_type,
)
from .perfectness import certify_state, correlation_spectrum, find_perfect_observables
from .states import (
    CorrelationMatrix,
    TwoQuditState,
    bloch_expectation,
    correlation_matrix,
    product_expectation,
)

# Perfect observables B that maximize_bell finds; restart i holds B at witness i mod 8.
WITNESS_COUNT = 8


@dataclass(frozen=True)
class MaximizeOptions:
    """Optimizer knobs.

    Restart ``i`` fixes B to witness ``i mod 8`` (found with perfectness
    tolerance ``tol``) and stops at the first iteration of block updates
    that no longer raises the value, or after ``max_iters`` iterations.
    """

    restarts: int = 64
    seed: int = 0
    tol: float = 1e-9
    max_iters: int = 500

    def __post_init__(self):
        check_int("restarts", self.restarts, 1)
        check_int("max_iters", self.max_iters, 1)
        check_int("seed", self.seed, 0)
        check_tol(self.tol)


@dataclass(frozen=True)
class RestartSummary:
    restart: int
    value: float
    iterations: int
    hit_cap: bool  # still improving when max_iters ran out; not in reports


@dataclass(frozen=True, eq=False)
class BellMaxReport:
    dim: int
    sign: int
    best_value: float  # recomputed by direct traces
    bloch_value: float  # value seen by the optimizer (correlation-matrix path)
    b_perfect_residual: float
    restarts: int
    seed: int
    best_a: QuditObservable
    best_b: QuditObservable
    best_btilde: QuditObservable
    per_restart: tuple[RestartSummary, ...]
    trace: tuple[tuple[int, int, float], ...]  # (restart, iteration, value)
    wall_time: float  # seconds; not in to_dict, the CLI adds it with --timing

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "sign": self.sign,
            "best_value": self.best_value,
            "bloch_value": self.bloch_value,
            "b_perfect_residual": self.b_perfect_residual,
            "restarts": self.restarts,
            "seed": self.seed,
            "best_A": self.best_a.to_dict(),
            "best_B": self.best_b.to_dict(),
            "best_Btilde": self.best_btilde.to_dict(),
            "per_restart": [
                {
                    "restart": r.restart,
                    "seed": [self.seed, r.restart],
                    "value": r.value,
                    "iterations": r.iterations,
                }
                for r in self.per_restart
            ],
        }


def write_trace_csv(report: BellMaxReport, path) -> None:
    """Convergence trace as ``restart,iteration,value`` rows."""
    check_type("report", report, BellMaxReport)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("restart,iteration,value\n")
        for restart, iteration, value in report.trace:
            fh.write(f"{restart},{iteration},{value!r}\n")


def bell_expression(
    state: TwoQuditState,
    a: QuditObservable,
    b: QuditObservable,
    btilde: QuditObservable,
    sign: int,
) -> float:
    """Direct-trace evaluation of the three-correlator Bell combination."""
    sign = check_sign(sign)
    for obs, name in ((a, "A"), (b, "B"), (btilde, "Btilde")):
        check_range(check_type(name, obs, QuditObservable).operator_norm, name, SET_TOL)
    e_ab = product_expectation(state, a, b)
    e_abt = product_expectation(state, a, btilde)
    e_bbt = product_expectation(state, b, btilde)
    return abs(e_ab - e_abt) + sign * e_bbt


def bell_expression_bloch(
    tcorr: CorrelationMatrix,
    a: BlochVector,
    b: BlochVector,
    btilde: BlochVector,
    sign: int,
) -> float:
    """Correlation-matrix evaluation ``|E(a, b) - E(a, b~)| +- E(b, b~)``, each ``E`` a
    :func:`~quditbell.states.bloch_expectation` ``(d/2) <x, T y>``, which gates ``tcorr``."""
    sign = check_sign(sign)
    for vec, name in ((a, "a"), (b, "b"), (btilde, "btilde")):
        check_type(name, vec, BlochVector)
    e_ab = bloch_expectation(tcorr, a, b)
    e_abt = bloch_expectation(tcorr, a, btilde)
    e_bbt = bloch_expectation(tcorr, b, btilde)
    return abs(e_ab - e_abt) + sign * e_bbt


def scalar_bound() -> tuple[float, float]:
    """Maximize ``sqrt(2(1-z)) + z`` over z in [-1, 1]: the concave function is
    stationary only at z = 1/2, where it equals 3/2 (both endpoints give 1)."""
    z = 0.5
    return float(np.sqrt(2.0 * (1.0 - z)) + z), z


# --------------------------------------------------------------------------
# Alternating maximizer
# --------------------------------------------------------------------------


def _run_restarts(
    d: int, tmat: np.ndarray, b: np.ndarray, gauss: np.ndarray, sign: int, max_iters: int
):
    """All restarts in lockstep; row i of ``b`` and ``gauss`` belongs to restart i.

    Returns the final ``a``, ``b~`` and values, the iteration counts, a mask
    of the restarts still improving when ``max_iters`` ran out and one
    ``[(iteration, value), ...]`` trace per restart.
    """
    tb = b @ tmat.T

    def value_of(rows: np.ndarray, a: np.ndarray, btil: np.ndarray) -> np.ndarray:
        tbtil = btil @ tmat.T
        first = np.abs(np.einsum("ij,ij->i", a, tb[rows] - tbtil))
        return d / 2.0 * (first + sign * np.einsum("ij,ij->i", b[rows], tbtil))

    # Rounding a Gaussian vector gives a Haar-random point of the +-1 orbit.
    btil = pm1_round(gauss, d)
    a = pm1_round(tb - btil @ tmat.T, d)
    active = np.arange(len(b))
    value = value_of(active, a, btil)
    traces = [[(0, v)] for v in value.tolist()]
    iterations = np.zeros(len(b), dtype=int)

    for iteration in range(1, max_iters + 1):
        start_value = value[active]
        a_act = a[active]
        # |x| = max over branches sigma of sigma * x; on each branch the value
        # is linear in b~ with gradient T(sign * b - sigma * a).  Both branches
        # share one rounding, and sigma = +1 is tried first.
        base = sign * b[active]
        candidates = pm1_round(np.concatenate([base - a_act, base + a_act]) @ tmat, d)
        for btil2 in np.split(candidates, 2):
            v2 = value_of(active, a_act, btil2)
            up = v2 > value[active]
            btil[active[up]] = btil2[up]
            value[active[up]] = v2[up]
        a2 = pm1_round(tb[active] - btil[active] @ tmat.T, d)
        v2 = value_of(active, a2, btil[active])
        up = v2 > value[active]
        a[active[up]] = a2[up]
        value[active[up]] = v2[up]
        iterations[active] = iteration
        for i, v in zip(active.tolist(), value[active].tolist()):
            traces[i].append((iteration, v))
        # The updates are deterministic in (a, b~): an iteration that accepts
        # none leaves the state, and so every later iteration, unchanged.
        active = active[value[active] != start_value]
        if active.size == 0:
            break

    hit_cap = np.zeros(len(b), dtype=bool)
    hit_cap[active] = True
    return a, btil, value, iterations, hit_cap, traces


def maximize_bell(
    state: TwoQuditState,
    sign: int,
    opts: MaximizeOptions | None = None,
) -> BellMaxReport:
    """Multi-restart maximization of the Bell combination under perfectness.

    Each restart draws B from the certified perfect observables, then
    alternates the exact B~ and A block updates.
    Results are reduced deterministically (best value, ties to the lowest
    restart index); the reported value is recomputed by direct traces.
    """
    sign = check_sign(sign)
    opts = MaximizeOptions() if opts is None else check_type("opts", opts, MaximizeOptions)

    start = time.perf_counter()
    # certify_state gates the state, its even d and its swap symmetry before any work
    membership = certify_state(state, tol=max(opts.tol, 1e-12), seed=opts.seed)
    d = membership.dim
    witnesses = find_perfect_observables(membership, sign, WITNESS_COUNT)
    tmat = membership.tcorr.matrix
    indices = range(opts.restarts)
    b = np.stack([witnesses[i % len(witnesses)].bloch.coords for i in indices])
    gauss = np.stack(
        [np.random.default_rng([opts.seed, i]).standard_normal(d * d - 1) for i in indices]
    )
    a, btil, values, iterations, hit_cap, traces = _run_restarts(
        d, tmat, b, gauss, sign, opts.max_iters
    )
    values = values.tolist()

    best = int(np.argmax(values))
    best_a = from_bloch(BlochVector(dim=d, coords=a[best]))
    best_b = from_bloch(BlochVector(dim=d, coords=b[best]))
    best_btil = from_bloch(BlochVector(dim=d, coords=btil[best]))
    direct = bell_expression(state, best_a, best_b, best_btil, sign)
    residual = abs(float(b[best] @ (tmat @ b[best])) - sign * 2.0 / d)

    return BellMaxReport(
        dim=d,
        sign=sign,
        best_value=direct,
        bloch_value=values[best],
        b_perfect_residual=residual,
        restarts=int(opts.restarts),  # numpy integers pass the gate but not json.dumps
        seed=int(opts.seed),
        best_a=best_a,
        best_b=best_b,
        best_btilde=best_btil,
        per_restart=tuple(
            RestartSummary(restart=i, value=v, iterations=n, hit_cap=h)
            for i, (v, n, h) in enumerate(zip(values, iterations.tolist(), hit_cap.tolist()))
        ),
        trace=tuple((i, it, v) for i in indices for it, v in traces[i]),
        wall_time=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# Brute-force oracle at d = 2 and CHSH comparators
# --------------------------------------------------------------------------


# b-points by b~-points per tile of exhaustive_qubit_max's Gram evaluation
_ORACLE_TILE = (400, 128)


def _sphere_grid(steps: int) -> np.ndarray:
    thetas = np.linspace(0.0, np.pi, steps + 1)
    phis = np.arange(2 * steps) * (np.pi / steps)
    theta, phi = np.meshgrid(thetas, phis, indexing="ij")
    pts = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )
    return pts.reshape(-1, 3)


def exhaustive_qubit_max(state: TwoQuditState, sign: int, grid_steps: int) -> float:
    """Dense grid oracle for the d = 2 maximum.

    The perfectness constraint ``<b, T b> = +-1`` forces b into the unit
    sphere of the corresponding eigenspace of T (all other eigenvalues have
    strictly smaller magnitude), so b is gridded there exactly; b~ runs over
    a full Bloch-sphere grid and the a-maximization is the exact norm
    ``||T(b - b~)||`` (every unit vector is admissible at d = 2).

    T's spectrum is :func:`~quditbell.perfectness.correlation_spectrum`'s, the
    one eigendecomposition per call, so T must pass its symmetry gate.  The
    spectral norm must be at most 1 + 1e-9, and the eigenspace is the multiplet
    whose mean lies within 1e-9 of ``sign``, as in
    :func:`~quditbell.perfectness.certify_state`.

    Every (b, b~) pair of the two grids is still scanned, with no pruning,
    in tiles of 400 b-points by 128 b~-points.  One small matrix product per
    tile gives every pair's Gram form
    ``||T(b - b~)||^2 = ||Tb||^2 + ||Tb~||^2 - 2 <T^2 b, b~>`` (clamped at 0
    before the square root) and ``sign <b, T b~>``; the maximum is kept
    across tiles.
    """
    sign = check_sign(sign)
    if check_type("state", state, TwoQuditState).dim != 2:
        raise DimensionError(f"the exhaustive oracle is defined for d = 2 only, got {state.dim}")
    check_int("grid_steps", grid_steps, 2)
    if not state.symmetric:
        raise ValidationError("the oracle requires a swap-symmetric state")
    tcorr = correlation_matrix(state)
    spectral = correlation_spectrum(tcorr)
    if not spectral.spectral_norm <= 1.0 + 1e-9:
        raise ValidationError(
            f"two-qubit correlation matrix has spectral norm {spectral.spectral_norm:.6f} > 1"
        )
    cluster = spectral.cluster_at(float(sign), 1e-9)
    if cluster is None:
        raise CertificationError(
            f"state has no eigenvalue {sign:+d} in its correlation spectrum; "
            "no observable satisfies the perfectness constraint"
        )
    subspace = cluster.vectors
    tmat = (tcorr.matrix + tcorr.matrix.T) / 2.0  # the matrix whose eigenvectors these are
    k = subspace.shape[1]
    if k == 1:
        b_points = np.stack([subspace[:, 0], -subspace[:, 0]])
    elif k == 2:
        alphas = np.arange(2 * grid_steps) * (np.pi / grid_steps)
        b_points = np.cos(alphas)[:, None] * subspace[:, 0] + np.sin(alphas)[:, None] * subspace[:, 1]
    else:
        b_points = _sphere_grid(grid_steps) @ subspace.T

    btil = _sphere_grid(grid_steps)
    # T is symmetric, so row i of `t_b` is T b_i and row j of `t_btil` is T b~_j
    t_b, t_btil = b_points @ tmat, btil @ tmat
    n_b = len(b_points)
    # against the column [b~, ||Tb~||^2, 1], the row [-2 T^2 b, 1, ||Tb||^2] of `dist`
    # gives ||T(b - b~)||^2 and the row [sign Tb, 0, 0] of `corr` gives sign <b, T b~>
    dist = np.column_stack([-2.0 * (t_b @ tmat), np.ones(n_b), np.sum(t_b * t_b, axis=1)])
    corr = np.column_stack([sign * t_b, np.zeros((n_b, 2))])
    columns = np.vstack([btil.T, np.sum(t_btil * t_btil, axis=1), np.ones(len(btil))])
    b_tile, btil_tile = _ORACLE_TILE
    best = -np.inf
    for i in range(0, n_b, b_tile):
        rows = np.vstack([dist[i : i + b_tile], corr[i : i + b_tile]])
        n = len(rows) // 2
        for j in range(0, columns.shape[1], btil_tile):
            tile = rows @ columns[:, j : j + btil_tile]
            value = tile[:n]
            np.maximum(value, 0.0, out=value)
            np.sqrt(value, out=value)
            value += tile[n:]
            best = max(best, float(value.max()))
    return best


def chsh_value(
    state: TwoQuditState,
    a1: QuditObservable,
    a2: QuditObservable,
    b1: QuditObservable,
    b2: QuditObservable,
) -> float:
    """|E(A1,B1) + E(A1,B2) + E(A2,B1) - E(A2,B2)| by direct traces."""
    e11 = product_expectation(state, a1, b1)
    e12 = product_expectation(state, a1, b2)
    e21 = product_expectation(state, a2, b1)
    e22 = product_expectation(state, a2, b2)
    return abs(e11 + e12 + e21 - e22)


def chsh_optimal_settings(
    state: TwoQuditState,
) -> tuple[QuditObservable, QuditObservable, QuditObservable, QuditObservable]:
    """Closed-form CHSH-optimal qubit settings from the SVD of T.

    With singular values s1 >= s2, the settings reach ``2 sqrt(s1^2 + s2^2)``
    (2 sqrt(2) on the maximally entangled state).
    """
    if check_type("state", state, TwoQuditState).dim != 2:
        raise DimensionError(f"closed-form CHSH settings are for d = 2 only, got {state.dim}")
    tmat = correlation_matrix(state).matrix
    u_mat, svals, vt = np.linalg.svd(tmat)
    theta = np.arctan2(svals[1], svals[0])
    a1 = u_mat[:, 0]
    a2 = u_mat[:, 1]
    b1 = np.cos(theta) * vt[0] + np.sin(theta) * vt[1]
    b2 = np.cos(theta) * vt[0] - np.sin(theta) * vt[1]
    return tuple(from_bloch(x, 2) for x in (a1, a2, b1, b2))


# --------------------------------------------------------------------------
# Local-hidden-variable Monte-Carlo harness
# --------------------------------------------------------------------------

OUTCOME_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
# Models drawn per batch; memory stays independent of n_models.
_LHV_BATCH = 1024
# Each model has k hidden states, k uniform on {2, ..., _LHV_HIDDEN}.
_LHV_HIDDEN = 8


@dataclass(frozen=True)
class LhvCheckReport:
    models_sampled: int
    sign: int
    max_bell_value: float
    constraint_residual_max: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _lhv_values(
    weights: np.ndarray, a1: np.ndarray, b2: np.ndarray, s: np.ndarray, sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bell value |E11 - E12| + sign E22 and residual |E21 - sign| per model.

    Row i of each ``(n, k)`` array is one model: ``weights`` over its hidden
    states, ``a1`` and ``b2`` the mean outcomes of A1 and B2, and ``s`` the
    +-1 output of A2; B1 outputs ``sign * s``.
    """
    b1 = sign * s
    e11, e12, e21, e22 = (
        np.sum(weights * x * y, axis=1) for x, y in ((a1, b1), (a1, b2), (s, b1), (s, b2))
    )
    return np.abs(e11 - e12) + sign * e22, np.abs(e21 - sign)


def lhv_monte_carlo(sign: int, n_models: int, seed: int = 0) -> LhvCheckReport:
    """Sample constrained LHV models and report the largest Bell combination.

    A model has k hidden states, k uniform on {2, ..., 8}, with Dirichlet(1)
    weights.  The (A2, B1) pair may only produce outcome products equal to
    ``sign``; since the joint factorizes given the hidden state, both are
    deterministic +-1 per hidden state, A2 giving a fair random s and B1
    giving ``sign * s``.  A1 and B2 get uniformly random distributions on
    ``OUTCOME_GRID``, of which only the means enter the combination.  Models
    are drawn 1024 per batch, the last batch shorter; a run's full batches
    are the first batches of every longer run with the same seed.
    """
    sign = check_sign(sign)
    n_models = check_int("n_models", n_models, 1)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    grid = np.asarray(OUTCOME_GRID)
    max_value = -np.inf
    max_residual = 0.0
    for start in range(0, n_models, _LHV_BATCH):
        n = min(_LHV_BATCH, n_models - start)
        k = rng.integers(2, _LHV_HIDDEN + 1, size=n)
        # Dirichlet(1) over the first k hidden states; the rest get weight 0
        weights = rng.standard_exponential((n, _LHV_HIDDEN))
        weights *= np.arange(_LHV_HIDDEN) < k[:, None]
        weights /= weights.sum(axis=1, keepdims=True)
        tables = rng.random((2, n, _LHV_HIDDEN, grid.size))
        a1, b2 = (tables @ grid) / tables.sum(axis=3)
        s = rng.integers(0, 2, size=(n, _LHV_HIDDEN)) * 2 - 1
        value, residual = _lhv_values(weights, a1, b2, s, sign)
        max_value = max(max_value, value.max())
        max_residual = max(max_residual, residual.max())
    return LhvCheckReport(
        models_sampled=n_models,
        sign=sign,
        max_bell_value=float(max_value),
        constraint_residual_max=float(max_residual),
        seed=seed,
    )
