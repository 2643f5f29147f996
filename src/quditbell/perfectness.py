"""Certification of perfect correlations/anticorrelations.

A symmetric two-qudit state exhibits perfect correlations (sign +1) or
anticorrelations (sign -1) when ``tr[rho (B (x) B)] = +-1`` for some
observable B with eigenvalues in [-1, 1].  In the correlation-matrix picture
this is the quadratic condition ``<b, T b> = +-2/d`` on the Bloch vector of
B.  The sufficient criterion implemented by :func:`certify_state` asks for

* spectral norm of T equal to 2/d, and
* a unit eigenvector of the extreme eigenvalue lying in the +-1 shell
  (:func:`quditbell.bloch.in_pm1_shell`),

in which case every such eigenvector yields a perfect observable via the
Bloch correspondence.  The witness search alternates projections between
the shell and the eigenspace, from closed-form +-1 observables and then
from seeded random starts.  Failure of the search is reported as "not
certified", never as proof of non-membership.  :func:`find_perfect_observables`
replays the same search further, so the first observable it returns is the
certified witness.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .bloch import (
    BlochVector,
    QuditObservable,
    SET_TOL,
    _generator_traces,
    _offdiag_pm1,
    _round,
    _shell_residual,
    from_bloch,
)
from .errors import (
    CertificationError, DimensionError, ValidationError, check_dim, check_int, check_range,
    check_sign, check_tol, check_type,
)
from .states import (
    CorrelationMatrix,
    EigenCluster,
    SpectralData,
    TwoQuditState,
    _expectation,
    cluster_eigenvalues,
    correlation_matrix,
    product_expectation,
)

# Per start of the witness search: at most this many shell/eigenspace
# projections.
_PROJECTION_ITERS = 100
# Closed-form +-1 observables the witness search tries before any random start.
_CANONICAL_STARTS = 16
# Random starts per sign in certify_state; also the least number of them
# find_perfect_observables replays.
DEFAULT_RESTARTS = 32


@dataclass(frozen=True)
class SpectralViolation:
    """A joint probability on an eigenvalue pair whose product breaks +-1."""

    eigenvalue_i: float
    eigenvalue_k: float
    probability: float


@dataclass(frozen=True, eq=False)
class PerfectnessCertificate:
    sign: int
    accepted: bool
    value: float  # tr[rho (B (x) B)]
    residual: float  # |value -+ 1|
    operator_norm: float
    spectral_violations: tuple[SpectralViolation, ...]
    tol: float
    observable: QuditObservable

    def to_dict(self) -> dict:
        return {
            "sign": self.sign,
            "accepted": self.accepted,
            "value": self.value,
            "residual": self.residual,
            "operator_norm": self.operator_norm,
            "spectral_violations": [asdict(v) for v in self.spectral_violations],
            "tol": self.tol,
            "observable": self.observable.to_dict(),
        }


@dataclass(frozen=True, eq=False)
class SignWitness:
    """Per-sign outcome of the witness search."""

    sign: int
    cluster: EigenCluster | None  # eigenspace of T at sign * 2/d, if T has one
    witness: BlochVector | None
    norm_residual: float  # best | op-norm(v.L) - sqrt(2/d) | seen
    restarts_used: int

    @property
    def eigenvalue(self) -> float | None:
        return None if self.cluster is None else self.cluster.value

    @property
    def certified(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "eigenvalue": self.eigenvalue,
            "witness": None if self.witness is None else self.witness.to_list(),
            "norm_residual": self.norm_residual,
            "restarts_used": self.restarts_used,
        }


@dataclass(frozen=True, eq=False)
class ClassMembership:
    tol: float
    sign_results: tuple[SignWitness, ...]
    tcorr: CorrelationMatrix = field(repr=False)  # the T certified; not in to_dict
    seed: int  # of the witness search's random starts; not in to_dict

    @property
    def dim(self) -> int:
        return self.tcorr.dim

    @property
    def in_class(self) -> bool:
        return any(entry.certified for entry in self.sign_results)

    @property
    def spectral_norm(self) -> float:
        return self.tcorr.spectral_norm

    @property
    def extreme_eigenvalues(self) -> tuple[float, ...]:
        """The multiplets of T within ``tol`` of the spectral norm in absolute value."""
        norm, clusters = self.spectral_norm, self.tcorr.spectral.clusters
        return tuple(c.value for c in clusters if abs(abs(c.value) - norm) <= self.tol)

    def for_sign(self, sign: int) -> SignWitness:
        sign = check_sign(sign)
        for entry in self.sign_results:
            if entry.sign == sign:
                return entry
        raise KeyError(f"no result for sign {sign}")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "in_class": self.in_class,
            "spectral_norm": self.spectral_norm,
            "extreme_eigenvalues": list(self.extreme_eigenvalues),
            "tol": self.tol,
            "signs": {
                ("+" if entry.sign > 0 else "-"): entry.to_dict() for entry in self.sign_results
            },
        }


def check_bell_condition(
    state: TwoQuditState, observable: QuditObservable, tol: float = SET_TOL
) -> PerfectnessCertificate:
    """Certify ``tr[rho (B (x) B)] = +-1`` and the supporting spectral facts.

    This is the Bell condition of arXiv:1905.11317: B shows perfect correlations
    (+1) or anticorrelations (-1) on rho.

    Picks the sign with the smaller residual, then records every joint
    probability on eigenprojection pairs whose eigenvalue product differs
    from that sign.  Acceptance additionally requires operator norm 1.  An
    observable of another dimension fails :func:`product_expectation`'s gate.
    """
    tol = check_tol(tol)
    check_type("state", state, TwoQuditState)
    check_type("observable", observable, QuditObservable)
    eigenvalues, vectors = np.linalg.eigh(observable.matrix)
    op_norm = check_range(np.max(np.abs(eigenvalues)), "observable", tol)
    value = product_expectation(state, observable, observable)
    sign = 1 if abs(value - 1.0) <= abs(value + 1.0) else -1
    residual = abs(value - sign)

    clusters = cluster_eigenvalues(eigenvalues, vectors)
    groups = [(c.value, c.vectors @ c.vectors.conj().T) for c in clusters]

    violations = []
    for lam_i, proj_i in groups:
        for lam_k, proj_k in groups:
            if abs(lam_i * lam_k - sign) <= tol:
                continue
            prob = _expectation(state, proj_i, proj_k).real
            if not prob <= tol:  # a NaN probability is a violation
                violations.append(
                    SpectralViolation(eigenvalue_i=lam_i, eigenvalue_k=lam_k, probability=prob)
                )

    accepted = residual <= tol and not violations and abs(op_norm - 1.0) <= tol
    return PerfectnessCertificate(
        sign=sign,
        accepted=accepted,
        value=value,
        residual=residual,
        operator_norm=op_norm,
        spectral_violations=tuple(violations),
        tol=tol,
        observable=observable,
    )


def correlation_spectrum(tcorr: CorrelationMatrix) -> SpectralData:
    """Eigendecomposition of T with eigenvalues grouped into multiplets.

    Requires a symmetric correlation matrix (i.e. a swap-symmetric state); the gate
    is :attr:`CorrelationMatrix.spectral`'s, which every read of T's spectrum passes.
    """
    return check_type("tcorr", tcorr, CorrelationMatrix).spectral


def bell_condition_spectral_form(
    tcorr: CorrelationMatrix, b: BlochVector, sign: int, tol: float = SET_TOL
) -> bool:
    """Evaluate ``sum_m (lambda_m -+ 2/d) beta_m^2 = 0`` for unit ``b``.

    ``beta`` are the coefficients of ``b`` in the eigenbasis of T; the sum
    vanishing is equivalent to ``<b, T b> = +- 2/d``.  This is the spectral form
    of the Bell condition ``tr[rho (B (x) B)] = +-1`` in arXiv:1905.11317.
    """
    sign = check_sign(sign)
    tol = check_tol(tol)
    check_type("tcorr", tcorr, CorrelationMatrix)
    check_type("b", b, BlochVector)
    if b.dim != tcorr.dim:
        raise DimensionError(f"Bloch dim {b.dim} does not match correlation dim {tcorr.dim}")
    if not abs(b.norm - 1.0) <= tol:
        raise ValidationError(f"b must be a unit vector: |norm - 1| = {abs(b.norm - 1.0):.3e}")
    spectral = correlation_spectrum(tcorr)
    target = sign * 2.0 / tcorr.dim
    total = 0.0
    for cluster in spectral.clusters:
        beta = cluster.vectors.T @ b.coords
        total += (cluster.value - target) * float(beta @ beta)
    return abs(total) <= tol


def _canonical_starts(cluster: EigenCluster, d: int, sign: int):
    """Eigenspace coordinates of the first closed-form +-1 observables.

    Diagonal and real off-diagonal constructions pair with perfect
    correlations, the imaginary off-diagonal family with anticorrelations.
    Of the first ``_CANONICAL_STARTS`` of the family, those orthogonal to
    ``cluster`` are skipped.  Each matrix is balanced and hermitian by
    construction, so it is mapped by the ungated core, one at a time.
    """
    gammas = itertools.product((0, 1), repeat=d // 2)
    if sign > 0:
        halves = itertools.combinations(range(d), d // 2)
        family = itertools.chain(
            (np.diag([1.0 if m in top else -1.0 for m in range(d)]) for top in halves),
            (_offdiag_pm1(d, g, 1, 1) for g in gammas),
        )
    else:
        family = (_offdiag_pm1(d, g, -1j, 1j) for g in gammas)
    for matrix in itertools.islice(family, _CANONICAL_STARTS):
        # a contiguous copy: BLAS sums the strided ``.real`` view in another order
        c = cluster.vectors.T @ np.ascontiguousarray(_generator_traces(matrix).real)
        if np.linalg.norm(c) > 1e-9:
            yield c


def _orient(coords: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the first significant coordinate is positive.

    v and -v certify the same eigenspace; a fixed orientation keeps reports
    deterministic.
    """
    for x in coords:
        if abs(x) > 1e-9:
            return coords if x > 0 else -coords
    return coords


def _witnesses(cluster: EigenCluster, d: int, sign: int, tol: float, restarts: int, seed: int):
    """The witness search: yield ``(unit witness or None, residual, random starts used)`` per start.

    The starts are the canonical +-1 observables projected into ``cluster``,
    then up to ``restarts`` random draws from the stream ``(seed, sign)``.
    Each start is refined by alternating projections between the shell
    (balanced sign rounding of the corresponding observable) and the
    eigenspace, for as long as the operator-norm residual falls; it is a
    witness when that residual is at most ``tol``.  The search is
    deterministic, so a replay from the same arguments yields the same starts
    and witnesses in the same order.
    """
    eigvecs = cluster.vectors
    rng = np.random.default_rng([seed, 0 if sign > 0 else 1])
    draws = (rng.standard_normal(cluster.multiplicity) for _ in range(restarts))
    starts = itertools.chain(
        zip(itertools.repeat(0), _canonical_starts(cluster, d, sign)), enumerate(draws, 1)
    )
    for used, c in starts:
        # Normalized twice on purpose: one division moves the last bits of the
        # reported witnesses and residuals, which reports keep identical.
        c = c / np.linalg.norm(c)
        c = c / np.linalg.norm(c)
        res = _shell_residual(eigvecs @ c, d)
        for _ in range(_PROJECTION_ITERS):
            if res <= tol:
                break
            # A contiguous copy of the rounding: its strided ``.real`` view changes
            # BLAS's summation order, and the witnesses' last bits.
            c_new = eigvecs.T @ np.ascontiguousarray(_round(eigvecs @ c, d))
            nrm = np.linalg.norm(c_new)
            if not nrm >= 1e-12:  # a NaN rounding ends the start too
                break
            c_new /= nrm
            res_new = _shell_residual(eigvecs @ c_new, d)
            if res_new >= res - 1e-15:
                if res_new < res:
                    c, res = c_new, res_new
                break
            c, res = c_new, res_new
        coords = eigvecs @ c
        yield (coords / np.linalg.norm(coords) if res <= tol else None), res, used


def certify_state(
    state: TwoQuditState,
    tol: float = SET_TOL,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> ClassMembership:
    """Sufficient-condition check for perfect correlations/anticorrelations.

    Verifies the spectral norm of T equals 2/d and searches the extreme
    eigenspaces for unit eigenvectors in the +-1 shell, one search per sign.
    Canonical diagonal/off-diagonal constructions are tried first (projected
    into the eigenspace), then up to ``restarts`` random starts drawn from
    ``seed``; ``restarts=0`` tries the canonical starts only.  Each sign
    reports the first witness found.
    """
    tol = check_tol(tol)
    check_int("restarts", restarts, 0)
    check_int("seed", seed, 0)
    d = check_dim(check_type("state", state, TwoQuditState).dim, even=True)
    if not state.symmetric:
        raise ValidationError("state is not swap-symmetric; certification requires symmetry")
    held = [state]
    del state  # correlation_matrix gets the only reference, so it can free rho mid-build
    tcorr = correlation_matrix(held.pop())
    spectral = correlation_spectrum(tcorr)
    target = 2.0 / d
    norm_ok = abs(spectral.spectral_norm - target) <= tol

    sign_results = []
    for sign in (1, -1):
        cluster = spectral.cluster_at(sign * target, tol)
        coords, best_res, used = None, np.inf, 0
        if norm_ok and cluster is not None:
            for coords, res, used in _witnesses(cluster, d, sign, tol, restarts, seed):
                best_res = min(best_res, res)
                if coords is not None:
                    break
        sign_results.append(
            SignWitness(
                sign=sign,
                cluster=cluster,
                witness=None if coords is None else BlochVector(_orient(coords)),
                norm_residual=float(best_res),
                restarts_used=used,
            )
        )

    return ClassMembership(tol=tol, sign_results=tuple(sign_results), tcorr=tcorr, seed=seed)


def _certified(membership: ClassMembership, sign: int) -> SignWitness:
    """``membership``'s result for ``sign``, whose ``cluster`` is T's eigenspace at
    ``sign * 2/d``; raises :class:`CertificationError` unless the sign is certified."""
    entry = membership.for_sign(sign)
    if entry.cluster is None:
        raise CertificationError(
            f"no extreme eigenvalue {entry.sign * 2.0 / membership.dim:+.6f} in the spectrum "
            f"(spectral norm {membership.spectral_norm:.6f})"
        )
    if not entry.certified:
        raise CertificationError(
            f"witness search failed for sign {entry.sign:+d}: best operator-norm residual "
            f"{entry.norm_residual:.3e} after {entry.restarts_used} restarts"
        )
    return entry


def find_perfect_observables(
    membership: ClassMembership, sign: int, count: int = 4
) -> list[QuditObservable]:
    """Up to ``count`` distinct perfect observables for the requested sign.

    Replays the witness search of :func:`certify_state` on the eigenspace,
    tolerance and seed recorded in ``membership``, with at least
    ``max(DEFAULT_RESTARTS, 4 * count)`` random starts, and keeps the
    witnesses that are at least 1e-6 apart.  The first observable is
    therefore the certified witness, up to sign.  Witness eigenvectors map to
    observables through the Bloch correspondence, so each returned B has
    eigenvalues +-1 and satisfies ``tr[rho (B (x) B)] = sign`` within
    tolerance.  A one-dimensional eigenspace holds only the unit witnesses +-v,
    so there the replay stops once it has both.  Raises
    :class:`CertificationError` when the state is not certified for the sign.
    """
    sign = check_sign(sign)
    check_int("count", count, 1)
    d = check_type("membership", membership, ClassMembership).dim
    entry = _certified(membership, sign)
    budget = max(DEFAULT_RESTARTS, 4 * count, entry.restarts_used)
    wanted = min(count, 2) if entry.cluster.multiplicity == 1 else count
    found: list[np.ndarray] = []
    for coords, _, _ in _witnesses(entry.cluster, d, sign, membership.tol, budget, membership.seed):
        if coords is not None and all(np.linalg.norm(coords - prev) >= 1e-6 for prev in found):
            found.append(coords)
            if len(found) == wanted:
                break
    return [from_bloch(BlochVector(c)) for c in found]
