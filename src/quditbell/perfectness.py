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
Bloch correspondence.  Failure of the witness search is reported as "not
certified", never as proof of non-membership.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bloch import (
    BlochVector,
    QuditObservable,
    SET_TOL,
    _shell_residual,
    from_bloch,
    make_diag_pm1,
    make_offdiag_imag_pm1,
    make_offdiag_real_pm1,
    pm1_round,
)
from .errors import CertificationError, DimensionError, ValidationError
from .states import (
    CorrelationMatrix,
    EigenCluster,
    SpectralData,
    TwoQuditState,
    cluster_eigenvalues,
    correlation_matrix,
    product_expectation,
)

# Per start of the witness search: at most this many shell/eigenspace
# projections, then a Nelder-Mead polish of at most this many iterations.
_PROJECTION_ITERS = 100
_POLISH_MAX_ITERS = 2000


@dataclass(frozen=True)
class WitnessSearchOptions:
    """Knobs for the eigenspace witness search."""

    restarts: int = 32
    seed: int = 0
    canonical_cap: int = 16


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "sign": self.sign,
            "accepted": self.accepted,
            "value": self.value,
            "residual": self.residual,
            "operator_norm": self.operator_norm,
            "spectral_violations": [
                {
                    "eigenvalue_i": v.eigenvalue_i,
                    "eigenvalue_k": v.eigenvalue_k,
                    "probability": v.probability,
                }
                for v in self.spectral_violations
            ],
            "tol": self.tol,
            "observable": json.loads(self.observable.to_json()),
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
    dim: int
    in_class: bool
    spectral_norm: float
    extreme_eigenvalues: tuple[float, ...]
    tol: float
    sign_results: tuple[SignWitness, ...]
    tcorr: CorrelationMatrix = field(repr=False)  # the T certified; not in to_dict

    def for_sign(self, sign: int) -> SignWitness:
        for entry in self.sign_results:
            if entry.sign == sign:
                return entry
        raise KeyError(f"no result for sign {sign}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

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

    Picks the sign with the smaller residual, then records every joint
    probability on eigenprojection pairs whose eigenvalue product differs
    from that sign.  Acceptance additionally requires operator norm 1.
    """
    if observable.dim != state.dim:
        raise DimensionError(
            f"observable dim {observable.dim} does not match state dim {state.dim}"
        )
    eigenvalues, vectors = np.linalg.eigh(observable.matrix)
    op_norm = float(np.max(np.abs(eigenvalues)))
    if op_norm > 1.0 + tol:
        raise ValidationError(
            f"observable eigenvalues must lie in [-1, 1]: operator norm {op_norm:.6e}"
        )
    value = product_expectation(state, observable, observable)
    sign = 1 if abs(value - 1.0) <= abs(value + 1.0) else -1
    residual = abs(value - sign)

    clusters = cluster_eigenvalues(eigenvalues, vectors)
    groups = [(c.value, c.vectors @ c.vectors.conj().T) for c in clusters]

    r4 = state.as_4index()
    violations = []
    for lam_i, proj_i in groups:
        for lam_k, proj_k in groups:
            if abs(lam_i * lam_k - sign) <= tol:
                continue
            prob = complex(np.einsum("jkab,aj,bk->", r4, proj_i, proj_k)).real
            if prob > tol:
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

    Requires a symmetric correlation matrix (i.e. a swap-symmetric state).
    """
    if not tcorr.symmetric:
        raise ValidationError(
            "correlation matrix is not symmetric; spectral analysis needs a swap-symmetric state"
        )
    return tcorr.spectral


def bell_condition_spectral_form(
    tcorr: CorrelationMatrix, b: BlochVector, sign: int, tol: float = SET_TOL
) -> bool:
    """Evaluate ``sum_m (lambda_m -+ 2/d) beta_m^2 = 0`` for unit ``b``.

    ``beta`` are the coefficients of ``b`` in the eigenbasis of T; the sum
    vanishing is equivalent to ``<b, T b> = +- 2/d``.
    """
    if b.dim != tcorr.dim:
        raise DimensionError(f"Bloch dim {b.dim} does not match correlation dim {tcorr.dim}")
    if abs(b.norm - 1.0) > tol:
        raise ValidationError(f"b must be a unit vector: |norm - 1| = {abs(b.norm - 1.0):.3e}")
    spectral = correlation_spectrum(tcorr)
    target = sign * 2.0 / tcorr.dim
    total = 0.0
    for cluster in spectral.clusters:
        beta = cluster.vectors.T @ b.coords
        total += (cluster.value - target) * float(beta @ beta)
    return abs(total) <= tol


def _canonical_pm1_vectors(d: int, sign: int, cap: int):
    """Bloch vectors of the first ``cap`` closed-form +-1 observables for ``sign``.

    Diagonal and real off-diagonal constructions pair with perfect
    correlations, the imaginary off-diagonal family with anticorrelations.
    """
    gammas = itertools.product((0, 1), repeat=d // 2)
    if sign > 0:
        halves = itertools.combinations(range(d), d // 2)
        family = itertools.chain(
            (make_diag_pm1(d, [1 if m in top else -1 for m in range(d)]) for top in halves),
            (make_offdiag_real_pm1(d, g) for g in gammas),
        )
    else:
        family = (make_offdiag_imag_pm1(d, g) for g in gammas)
    return (obs.bloch.coords for obs in itertools.islice(family, max(cap, 0)))


def _orient(coords: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the first significant coordinate is positive.

    v and -v certify the same eigenspace; a fixed orientation keeps reports
    deterministic.
    """
    for x in coords:
        if abs(x) > 1e-9:
            return coords if x > 0 else -coords
    return coords


def _search_witness(
    eigvecs: np.ndarray,
    d: int,
    tol: float,
    restarts: int,
    starts: list[np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray | None, float, int]:
    """Look for a unit vector of ``span(eigvecs)`` inside the +-1 shell.

    Tries ``starts``, then up to ``restarts`` random starts.  Alternates
    projection between the shell (balanced sign rounding of the
    corresponding observable) and the eigenspace, then polishes with
    Nelder-Mead on the operator-norm residual.  Returns
    ``(witness or None, best residual, restarts used)``.
    """
    k = eigvecs.shape[1]
    best_residual = np.inf
    used = 0

    def residual_of(c: np.ndarray) -> float:
        return _shell_residual(eigvecs @ c, d)

    def refine(c: np.ndarray) -> tuple[np.ndarray, float]:
        c = c / np.linalg.norm(c)
        res = residual_of(c)
        for _ in range(_PROJECTION_ITERS):
            if res <= tol:
                break
            c_new = eigvecs.T @ pm1_round(eigvecs @ c, d).coords
            nrm = np.linalg.norm(c_new)
            if nrm < 1e-12:
                break
            c_new /= nrm
            res_new = residual_of(c_new)
            if res_new >= res - 1e-15:
                if res_new < res:
                    c, res = c_new, res_new
                break
            c, res = c_new, res_new
        if res > tol and k > 1:
            out = minimize(
                lambda x: residual_of(x / np.linalg.norm(x)),
                c,
                method="Nelder-Mead",
                options={
                    "maxiter": _POLISH_MAX_ITERS,
                    "xatol": 1e-12,
                    "fatol": 1e-14,
                },
            )
            x = out.x / np.linalg.norm(out.x)
            res_x = residual_of(x)
            if res_x < res:
                c, res = x, res_x
        return c, res

    queue = list(starts)
    while queue or used < restarts:
        if queue:
            c0 = queue.pop(0)
        else:
            c0 = rng.standard_normal(k)
            used += 1
        nrm = np.linalg.norm(c0)
        if nrm < 1e-12:
            continue
        c, res = refine(c0 / nrm)
        best_residual = min(best_residual, res)
        if res <= tol:
            coords = eigvecs @ c
            return coords / np.linalg.norm(coords), best_residual, used
    return None, best_residual, used


def certify_state(
    state: TwoQuditState,
    tol: float = SET_TOL,
    opts: WitnessSearchOptions | None = None,
) -> ClassMembership:
    """Sufficient-condition check for perfect correlations/anticorrelations.

    Verifies the spectral norm of T equals 2/d and searches the extreme
    eigenspaces for unit eigenvectors in the +-1 shell, one search per sign.
    Canonical diagonal/off-diagonal constructions are tried first (projected
    into the eigenspace), then randomized refinement.
    """
    opts = opts or WitnessSearchOptions()
    d = state.dim
    if d % 2 != 0:
        raise DimensionError(
            f"dimension {d} is odd: the +-1-spectrum observable set is empty, "
            "so perfectness certification applies only to even dimensions"
        )
    if not state.symmetric:
        raise ValidationError("state is not swap-symmetric; certification requires symmetry")
    tcorr = correlation_matrix(state)
    spectral = correlation_spectrum(tcorr)
    norm = spectral.spectral_norm
    target = 2.0 / d
    norm_ok = abs(norm - target) <= tol
    extremes = tuple(
        cluster.value for cluster in spectral.clusters if abs(abs(cluster.value) - norm) <= tol
    )

    sign_results = []
    for sign in (1, -1):
        cluster = next(
            (c for c in spectral.clusters if abs(c.value - sign * target) <= tol), None
        )
        if not norm_ok or cluster is None:
            sign_results.append(
                SignWitness(
                    sign=sign,
                    cluster=cluster,
                    witness=None,
                    norm_residual=np.inf,
                    restarts_used=0,
                )
            )
            continue
        starts = []
        for cand in _canonical_pm1_vectors(d, sign, opts.canonical_cap):
            c = cluster.vectors.T @ cand
            if np.linalg.norm(c) > 1e-9:
                starts.append(c)
        rng = np.random.default_rng([opts.seed, 0 if sign > 0 else 1])
        coords, best_res, used = _search_witness(
            cluster.vectors, d, tol, opts.restarts, starts, rng
        )
        sign_results.append(
            SignWitness(
                sign=sign,
                cluster=cluster,
                witness=None if coords is None else BlochVector(dim=d, coords=_orient(coords)),
                norm_residual=float(best_res),
                restarts_used=used,
            )
        )

    return ClassMembership(
        dim=d,
        in_class=any(entry.certified for entry in sign_results),
        spectral_norm=norm,
        extreme_eigenvalues=extremes,
        tol=tol,
        sign_results=tuple(sign_results),
        tcorr=tcorr,
    )


def find_perfect_observables(
    membership: ClassMembership, sign: int, count: int = 4, seed: int = 0
) -> list[QuditObservable]:
    """Up to ``count`` distinct perfect observables for the requested sign.

    Searches the eigenspace that :func:`certify_state` recorded in
    ``membership``, at its tolerance, seeded by ``seed``.  Witness
    eigenvectors map to observables through the Bloch correspondence, so
    each returned B has eigenvalues +-1 and satisfies
    ``tr[rho (B (x) B)] = sign`` within tolerance.  Raises
    :class:`CertificationError` when the state is not certified for the sign
    or the search cannot produce a single witness.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    d = membership.dim
    tol = membership.tol
    entry = membership.for_sign(sign)
    if entry.cluster is None:
        raise CertificationError(
            f"no extreme eigenvalue {sign * 2.0 / d:+.6f} in the spectrum "
            f"(spectral norm {membership.spectral_norm:.6f})"
        )
    if not entry.certified:
        raise CertificationError(
            f"witness search failed for sign {sign:+d}: best operator-norm residual "
            f"{entry.norm_residual:.3e} after {entry.restarts_used} restarts"
        )

    cluster = entry.cluster
    found: list[np.ndarray] = []

    def try_add(coords: np.ndarray) -> None:
        if len(found) >= count:
            return
        if any(np.linalg.norm(coords - prev) < 1e-6 for prev in found):
            return
        found.append(coords)

    # Canonical constructions that already live in the eigenspace.
    for cand in _canonical_pm1_vectors(d, sign, cap=4 * count):
        proj = cluster.vectors @ (cluster.vectors.T @ cand)
        nrm = np.linalg.norm(proj)
        if nrm < 1e-9:
            continue
        coords = proj / nrm
        if _shell_residual(coords, d) <= tol:
            try_add(coords)
        if len(found) >= count:
            break

    # One random start per attempt (plus the search's own fallback draw).
    attempt = 0
    while len(found) < count and attempt < max(WitnessSearchOptions().restarts, count * 4):
        rng = np.random.default_rng([seed, 1000 + attempt])
        coords, _, _ = _search_witness(
            cluster.vectors, d, tol, 1, [rng.standard_normal(cluster.multiplicity)], rng
        )
        if coords is not None:
            try_add(coords)
        attempt += 1

    if not found:
        raise CertificationError(
            f"witness search produced no admissible observable for sign {sign:+d} "
            f"after {attempt} attempts"
        )
    return [from_bloch(BlochVector(dim=d, coords=c)) for c in found]
