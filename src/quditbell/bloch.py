"""Observable <-> Bloch-vector correspondence for traceless qudit observables.

A traceless hermitian ``X`` on C^d with eigenvalues in [-1, 1] is represented
by the real vector ``r`` of length d^2 - 1 with

    X = sqrt(d/2) * sum_j r_j L_j,      r_j = tr[X L_j] / sqrt(2 d),

where ``L_j`` are the generators from :mod:`quditbell.gellmann`.  Under this
scaling ``tr[X^2] = d ||r||^2``.  Two membership tests matter here:

* ``in_bloch_region``: the image of observables with eigenvalues in [-1, 1],
  i.e. the operator norm of ``r . L`` is at most sqrt(2/d);
* ``in_pm1_shell``: the image of traceless observables with eigenvalues
  exactly +-1 (nonempty only for even d), i.e. operator norm equal to
  sqrt(2/d) together with ``||r|| = 1``.

Both directions work in O(d^2) from the entries of the sparse generator
matrix U (:func:`quditbell.gellmann.generator_entries`), the one
representation of the generators; none builds the dense basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .gellmann import generator_entries
from .serialize import complex_matrix_to_pairs, freeze, pairs_to_complex_matrix, real_vector_to_list

# Default tolerance for set-membership tests; well above eigensolver error
# for the dimensions this package targets (d <= 64).
SET_TOL = 1e-9

_HERMITICITY_TOL = 1e-10
_TRACELESS_TOL = 1e-10


def operator_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix))))


def bloch_ball_radius(d: int) -> float:
    """Radius of the Euclidean ball containing all valid Bloch vectors.

    Equal to 1 for even d and sqrt((d-1)/d) for odd d: with eigenvalues in
    [-1, 1] and zero trace, ``tr[X^2]`` cannot exceed d (even) or d - 1 (odd).
    """
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    return 1.0 if d % 2 == 0 else float(np.sqrt((d - 1) / d))


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coefficient vector of length d^2 - 1 in the generator ordering."""

    dim: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        n = self.dim * self.dim - 1
        if coords.shape != (n,):
            raise ValidationError(
                f"Bloch vector for d={self.dim} needs length {n}, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValidationError("Bloch vector coordinates must be finite")
        object.__setattr__(self, "coords", freeze(coords))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def to_list(self) -> list[float]:
        return real_vector_to_list(self.coords)


@dataclass(frozen=True, eq=False)
class QuditObservable:
    """Traceless hermitian matrix together with its cached Bloch vector."""

    dim: int
    matrix: np.ndarray = field(repr=False)
    bloch: BlochVector = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(np.asarray(self.matrix, dtype=complex)))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "QuditObservable":
        matrix = np.asarray(matrix, dtype=complex)
        d = matrix.shape[0]
        return cls(dim=d, matrix=matrix, bloch=to_bloch(matrix))

    @property
    def operator_norm(self) -> float:
        return operator_norm(self.matrix)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "matrix": complex_matrix_to_pairs(self.matrix),
                "bloch": self.bloch.to_list(),
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "QuditObservable":
        data = json.loads(payload)
        d = int(data["dim"])
        matrix = pairs_to_complex_matrix(data["matrix"], (d, d))
        return cls.from_matrix(matrix)


def _validate_traceless_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"observable must be a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("observable entries must be finite")
    herm_residual = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not herm_residual <= _HERMITICITY_TOL:
        raise ValidationError(f"observable is not hermitian: max |X - X^dag| = {herm_residual:.3e}")
    trace_residual = abs(complex(np.trace(matrix)))
    if not trace_residual <= _TRACELESS_TOL:
        raise ValidationError(f"observable is not traceless: |tr X| = {trace_residual:.3e}")
    return matrix


def _bincount_complex(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of the complex ``weights`` per ``index``, each in input order."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, weights.real, size)
    out.imag = np.bincount(index, weights.imag, size)
    return out


def _generator_sum(coords: np.ndarray, d: int) -> np.ndarray:
    """The d x d matrix ``r . L = sum_n r_n L_n``; ``coords`` is not validated."""
    rows, cols, values = generator_entries(d)
    return _bincount_complex(cols, coords[rows] * values, d * d).reshape(d, d)


def _shell_residual(coords: np.ndarray, d: int) -> float:
    """``| ||r . L||_op - sqrt(2/d) |``: how far ``r`` is from the shell's norm condition."""
    return abs(operator_norm(_generator_sum(coords, d)) - np.sqrt(2.0 / d))


def to_bloch(matrix: np.ndarray) -> BlochVector:
    """Bloch vector of a traceless hermitian matrix, ``r_j = tr[X L_j]/sqrt(2d)``."""
    matrix = _validate_traceless_hermitian(matrix)
    d = matrix.shape[0]
    rows, cols, values = generator_entries(d)
    # tr[X L_n] = sum_j L_n.flat[j] X^T.flat[j], over the stored entries of row n
    traces = _bincount_complex(rows, matrix.T.reshape(-1)[cols] * values, d * d - 1)
    coords = traces / np.sqrt(2.0 * d)
    imag = float(np.max(np.abs(coords.imag)))
    if not imag <= 1e-10:
        raise ValidationError(f"Bloch coordinates are not real: residual {imag:.3e}")
    return BlochVector(dim=d, coords=coords.real)


def from_bloch(r: BlochVector | np.ndarray, dim: int | None = None) -> QuditObservable:
    """Observable ``sqrt(d/2) (r . L)`` for a Bloch vector ``r``."""
    vec = _as_bloch(r, dim)
    matrix = np.sqrt(vec.dim / 2.0) * _generator_sum(vec.coords, vec.dim)
    return QuditObservable(dim=vec.dim, matrix=matrix, bloch=vec)


def _as_bloch(r, d: int | None = None) -> BlochVector:
    """``r`` as a validated Bloch vector; ``d`` defaults to the one the length implies.

    The length check is :class:`BlochVector`'s, so a length that is not
    d^2 - 1 raises :class:`ValidationError` instead of being read as a nearby d.
    """
    if isinstance(r, BlochVector):
        return r
    arr = np.asarray(r, dtype=float)
    if d is None:
        d = int(round(np.sqrt(arr.size + 1)))
    return BlochVector(dim=d, coords=arr)


def in_bloch_region(r: BlochVector | np.ndarray, tol: float = SET_TOL) -> bool:
    """True iff the operator norm of ``r . L`` is at most sqrt(2/d) + tol."""
    vec = _as_bloch(r)
    return operator_norm(_generator_sum(vec.coords, vec.dim)) <= np.sqrt(2.0 / vec.dim) + tol


def in_pm1_shell(r: BlochVector | np.ndarray, tol: float = SET_TOL) -> bool:
    """True iff ``r`` is the image of a traceless observable with spectrum {+1, -1}.

    Requires even d (the set is empty otherwise, so odd d always returns
    False): unit Euclidean norm together with operator norm of ``r . L``
    equal to sqrt(2/d), both within ``tol``.
    """
    vec = _as_bloch(r)
    if vec.dim % 2 != 0:
        return False
    if abs(vec.norm - 1.0) > tol:
        return False
    return _shell_residual(vec.coords, vec.dim) <= tol


def _require_even(d: int) -> None:
    if d < 2 or d % 2 != 0:
        raise DimensionError(
            f"dimension {d} is not an even integer >= 2; traceless observables "
            "with eigenvalues +-1 need a balanced spectrum"
        )


def pm1_round(r: BlochVector | np.ndarray, dim: int | None = None) -> BlochVector:
    """Point of the +-1 shell maximizing ``<r, x>``: the sign rounding of ``r . L``.

    By von Neumann's trace inequality (Ky Fan, PNAS 35, 652 (1949)), over the
    unitary orbit of a balanced +-1 diagonal ``tr[X Y]`` is largest when Y
    shares the eigenvectors of X and puts +1 on the top half of its spectrum,
    -1 on the bottom half.  A tie at the split leaves the maximum unchanged,
    and ``r = 0`` still rounds to a valid shell point.
    """
    vec = _as_bloch(r, dim)
    d = vec.dim
    _require_even(d)
    matrix = np.sqrt(d / 2.0) * _generator_sum(vec.coords, d)
    _, v = np.linalg.eigh(matrix)
    signs = np.concatenate([-np.ones(d // 2), np.ones(d // 2)])
    return to_bloch((v * signs) @ v.conj().T)


def make_diag_pm1(d: int, signs) -> QuditObservable:
    """Diagonal observable ``sum_m signs_m |m><m|`` with balanced +-1 signs."""
    _require_even(d)
    signs = [int(s) for s in signs]
    if len(signs) != d:
        raise ValidationError(f"need {d} signs, got {len(signs)}")
    if any(s not in (-1, 1) for s in signs):
        raise ValidationError(f"signs must be +-1, got {signs}")
    if sum(signs) != 0:
        raise ValidationError(f"signs must sum to zero for tracelessness, got sum {sum(signs)}")
    matrix = np.diag(np.asarray(signs, dtype=complex))
    return QuditObservable.from_matrix(matrix)


def _check_gammas(d: int, gammas) -> list[int]:
    _require_even(d)
    gammas = [int(g) for g in gammas]
    if len(gammas) != d // 2:
        raise ValidationError(f"need {d // 2} gamma exponents (one per level pair), got {len(gammas)}")
    return gammas


def make_offdiag_real_pm1(d: int, gammas) -> QuditObservable:
    """Observable ``sum (-1)^g_m (|m+1><m| + |m><m+1|)`` over level pairs.

    The sum runs over the pairs (1,2), (3,4), ..., (d-1, d); each pair
    contributes a real sx-type block with sign ``(-1)^g``.
    """
    gammas = _check_gammas(d, gammas)
    matrix = np.zeros((d, d), dtype=complex)
    for i, g in enumerate(gammas):
        m = 2 * i
        s = (-1.0) ** g
        matrix[m + 1, m] = s
        matrix[m, m + 1] = s
    return QuditObservable.from_matrix(matrix)


def make_offdiag_imag_pm1(d: int, gammas) -> QuditObservable:
    """Observable ``sum (-1)^g_m (-i |m+1><m| + i |m><m+1|)`` over level pairs.

    Each pair contributes an sy-type block; with this sign convention the
    g = 0 block equals minus the antisymmetric generator of the pair, so
    ``make_offdiag_imag_pm1(2, [1])`` is sy itself.
    """
    gammas = _check_gammas(d, gammas)
    matrix = np.zeros((d, d), dtype=complex)
    for i, g in enumerate(gammas):
        m = 2 * i
        s = (-1.0) ** g
        matrix[m + 1, m] = -1j * s
        matrix[m, m + 1] = 1j * s
    return QuditObservable.from_matrix(matrix)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pm1_observable(d: int, seed: int) -> QuditObservable:
    """Random element of the +-1-spectrum family, ``U D U^dag`` with balanced D.

    Deterministic in ``seed``; the spectrum constraint holds exactly by
    construction.
    """
    _require_even(d)
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    diag = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    matrix = (u * diag) @ u.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    return QuditObservable.from_matrix(matrix)
