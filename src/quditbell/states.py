"""Two-qudit density matrices and their generator correlation matrices.

The correlation matrix of a state ``rho`` on C^d (x) C^d is the real
``(d^2-1) x (d^2-1)`` matrix

    T[n, m] = tr[rho (L_n (x) L_m)]

in the generator ordering of :mod:`quditbell.gellmann`.  For swap-invariant
states T is symmetric.  :func:`correlation_matrix` builds T in O(d^4) as a
sparse change of basis with the real generator matrix U of
:func:`~quditbell.gellmann.sparse_generators`.  U is the one representation
of the generators the library computes with; the dense basis of
:func:`~quditbell.gellmann.build_basis` is an expansion of U for callers and
is built on no library path.  Expectations of observable pairs reduce to the
quadratic form ``tr[rho (A (x) B)] = (d/2) <a, T b>`` in the Bloch vectors
``a, b`` of A and B; both evaluation paths are exposed and cross-checked in
the test suite.

States from outside go through :meth:`TwoQuditState.from_matrix`, whose
positivity check is O(d^6); :func:`ghz` and :func:`maximally_mixed` are valid
and symmetric by construction and skip it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochVector, QuditObservable
from .errors import DimensionError, ValidationError
from .gellmann import antisymmetric_rows, sparse_generators
from .serialize import complex_matrix_to_pairs, freeze, pairs_to_complex_matrix

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_FLOOR = -1e-10
_SWAP_TOL = 1e-12

# Relative gap used to group nearly equal eigenvalues into multiplets.
CLUSTER_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class TwoQuditState:
    """Validated density matrix on C^d (x) C^d with cached swap symmetry."""

    dim: int
    rho: np.ndarray = field(repr=False)
    symmetric: bool

    def __post_init__(self):
        object.__setattr__(self, "rho", freeze(np.asarray(self.rho, dtype=complex)))

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "TwoQuditState":
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValidationError(f"state must be a square matrix, got shape {rho.shape}")
        d = int(round(np.sqrt(rho.shape[0])))
        if d * d != rho.shape[0] or d < 2:
            raise ValidationError(
                f"state dimension {rho.shape[0]} is not d^2 for an integer d >= 2"
            )
        if not np.all(np.isfinite(rho)):
            raise ValidationError("state entries must be finite")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > _HERM_TOL:
            raise ValidationError(f"state is not hermitian: max |rho - rho^dag| = {herm:.3e}")
        trace_res = abs(complex(np.trace(rho)) - 1.0)
        if trace_res > _TRACE_TOL:
            raise ValidationError(f"state trace differs from 1: residual {trace_res:.3e}")
        min_eig = float(np.min(np.linalg.eigvalsh(rho)))
        if min_eig < _PSD_FLOOR:
            raise ValidationError(
                f"state is not positive semidefinite: min eigenvalue {min_eig:.3e}"
            )
        return cls(dim=d, rho=rho, symmetric=_swap_residual(rho, d) <= _SWAP_TOL)

    def as_4index(self) -> np.ndarray:
        """View of rho as R[j, k, a, b] = <j,k| rho |a,b>."""
        d = self.dim
        return self.rho.reshape(d, d, d, d)

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "rho": complex_matrix_to_pairs(self.rho)})

    @classmethod
    def from_json(cls, payload: str) -> "TwoQuditState":
        data = json.loads(payload)
        d = int(data["dim"])
        rho = pairs_to_complex_matrix(data["rho"], (d * d, d * d))
        state = cls.from_matrix(rho)
        if state.dim != d:
            raise ValidationError(f"file claims dim {d} but matrix implies dim {state.dim}")
        return state

    @classmethod
    def from_file(cls, path) -> "TwoQuditState":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _swap_residual(rho: np.ndarray, d: int) -> float:
    r4 = rho.reshape(d, d, d, d)
    return float(np.max(np.abs(r4 - r4.transpose(1, 0, 3, 2))))


def is_symmetric(state: TwoQuditState, tol: float = _SWAP_TOL) -> bool:
    """True iff conjugating by the swap operator reproduces rho within tol."""
    return _swap_residual(state.rho, state.dim) <= tol


def ghz(d: int) -> TwoQuditState:
    """Maximally entangled state ``(1/d) sum_{j,k} |jj><kk|`` (pure, symmetric)."""
    if d < 2:
        raise DimensionError(f"GHZ state requires dimension >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return TwoQuditState(dim=d, rho=np.outer(psi, psi.conj()), symmetric=True)


def maximally_mixed(d: int) -> TwoQuditState:
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    return TwoQuditState(dim=d, rho=np.eye(d * d, dtype=complex) / (d * d), symmetric=True)


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue multiplet with its multiplicity and orthonormal eigenvectors."""

    value: float
    multiplicity: int
    vectors: np.ndarray = field(repr=False)  # shape (n, multiplicity), one column each


def cluster_eigenvalues(eigenvalues: np.ndarray, vectors: np.ndarray) -> tuple[EigenCluster, ...]:
    """Group ascending ``eigh`` output into multiplets.

    Neighbouring eigenvalues closer than ``CLUSTER_RTOL * max(1, max |lambda|)``
    share a multiplet, whose value is their mean.
    """
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    clusters = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or eigenvalues[i] - eigenvalues[i - 1] > CLUSTER_RTOL * scale:
            clusters.append(
                EigenCluster(
                    value=float(np.mean(eigenvalues[start:i])),
                    multiplicity=i - start,
                    vectors=freeze(vectors[:, start:i]),
                )
            )
            start = i
    return tuple(clusters)


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray = field(repr=False)  # ascending
    clusters: tuple[EigenCluster, ...]

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


@dataclass(eq=False)
class CorrelationMatrix:
    """Real correlation matrix with lazily computed spectral data.

    The eigendecomposition is computed once on first access under a lock;
    afterwards reads are thread-safe.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    symmetric: bool

    def __post_init__(self):
        self.matrix = freeze(np.asarray(self.matrix, dtype=float))
        self._spectral: SpectralData | None = None
        self._lock = threading.Lock()

    @property
    def spectral_norm(self) -> float:
        return self.spectral.spectral_norm

    @property
    def spectral(self) -> SpectralData:
        if self._spectral is None:
            with self._lock:
                if self._spectral is None:
                    self._spectral = self._decompose()
        return self._spectral

    def _decompose(self) -> SpectralData:
        sym = (self.matrix + self.matrix.T) / 2.0
        eigenvalues, vectors = np.linalg.eigh(sym)
        return SpectralData(
            eigenvalues=freeze(eigenvalues), clusters=cluster_eigenvalues(eigenvalues, vectors)
        )

    def to_csv(self, path) -> None:
        """Plain real entries, one row per line."""
        np.savetxt(path, self.matrix, delimiter=",")


def correlation_matrix(state: TwoQuditState) -> CorrelationMatrix:
    """Compute ``T[n, m] = tr[rho (L_n (x) L_m)]`` for all generator pairs.

    With ``R[(a,j),(b,k)] = rho[jk,ab]`` and the generators as the rows of
    ``V = diag(c) U`` (see :func:`~quditbell.gellmann.sparse_generators`),
    ``T = V R V^T``.  The real products ``P = U Re(R) U^T`` and
    ``Q = U Im(R) U^T`` give it entrywise: ``c_n c_m`` is 1, ``i`` or -1, so
    ``T`` is ``P``, ``-Q`` or ``-P`` and the other product is the imaginary
    part, which must vanish.  Each product costs O(d^4).
    """
    d = state.dim
    u = sparse_generators(d)
    r_t = state.as_4index().transpose(3, 1, 2, 0)  # R^T[(b,k),(a,j)] = rho[jk,ab]
    # U (U R^T)^T = U R U^T, for the real and the imaginary part of R
    p, q = (u @ (u @ part.reshape(d * d, d * d)).T for part in (r_t.real, r_t.imag))
    anti = antisymmetric_rows(d)
    imaginary = np.zeros(len(p), dtype=bool)
    imaginary[anti] = True
    mixed = imaginary[:, None] != imaginary[None, :]
    t = np.where(mixed, -q, p)
    t[anti, anti] *= -1.0
    resid = float(np.max(np.abs(np.where(mixed, p, q))))
    if not resid <= 1e-12:
        raise ValidationError(f"correlation matrix has imaginary residual {resid:.3e}")
    asym = float(np.max(np.abs(t - t.T)))
    return CorrelationMatrix(dim=d, matrix=t, symmetric=asym <= 1e-11)


def product_expectation(state: TwoQuditState, a: QuditObservable, b: QuditObservable) -> float:
    """Direct trace ``tr[rho (A (x) B)]``."""
    if a.dim != state.dim or b.dim != state.dim:
        raise DimensionError(
            f"observable dims ({a.dim}, {b.dim}) do not match state dim {state.dim}"
        )
    value = complex(np.einsum("jkab,aj,bk->", state.as_4index(), a.matrix, b.matrix))
    if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
        raise ValidationError(f"expectation has imaginary residual {value.imag:.3e}")
    return float(value.real)


def bloch_expectation(tcorr: CorrelationMatrix, a: BlochVector, b: BlochVector) -> float:
    """Quadratic-form path: ``(d/2) sum_{n,m} T[n,m] a_n b_m``."""
    if a.dim != tcorr.dim or b.dim != tcorr.dim:
        raise DimensionError(
            f"Bloch vector dims ({a.dim}, {b.dim}) do not match correlation dim {tcorr.dim}"
        )
    return float(tcorr.dim / 2.0 * (a.coords @ tcorr.matrix @ b.coords))
