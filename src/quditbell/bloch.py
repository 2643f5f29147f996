"""Observable <-> Bloch-vector correspondence for traceless qudit observables.

A traceless hermitian ``X`` on C^d with eigenvalues in [-1, 1] is represented
by the real vector ``r`` of length d^2 - 1 with

    X = sqrt(d/2) * sum_j r_j L_j,      r_j = tr[X L_j] / sqrt(2 d),

where ``L_j`` are the generators from :mod:`quditbell.gellmann`.  Under this
scaling ``tr[X^2] = d ||r||^2``.  The paper's +-1 class has one membership
test, :func:`in_pm1_shell`: the image of traceless observables with
eigenvalues exactly +-1 (nonempty only for even d), i.e. operator norm of
``r . L`` equal to sqrt(2/d) together with ``||r|| = 1``.  The wider range
rule, eigenvalues in [-1, 1], is gated on the observable itself by
:func:`quditbell.errors.check_range`.

Both directions work in O(d^2) from the entries of the sparse generator
matrix U (:func:`quditbell.gellmann.generator_entries`), the one
representation of the generators; none builds the dense basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError, ValidationError, check_dim, check_hermitian, check_int, check_numbers,
    check_sign, check_tol, check_type,
)
from .gellmann import generator_entries
from .serialize import complex_matrix_to_pairs, freeze, real_vector_to_list

# Default tolerance for set-membership tests; well above eigensolver error
# for the dimensions this package targets (d <= 64).
SET_TOL = 1e-9

_HERMITICITY_TOL = 1e-10
_TRACELESS_TOL = 1e-10


def operator_norm(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a hermitian matrix."""
    return _operator_norm(check_hermitian(matrix, "matrix", "M", _HERMITICITY_TOL))


def _operator_norm(matrix: np.ndarray) -> float:
    """:func:`operator_norm` of a matrix that is already gated or hermitian by construction."""
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix))))


def bloch_ball_radius(d: int) -> float:
    """Radius of the Euclidean ball containing all valid Bloch vectors.

    Equal to 1 for even d and sqrt((d-1)/d) for odd d: with eigenvalues in
    [-1, 1] and zero trace, ``tr[X^2]`` cannot exceed d (even) or d - 1 (odd).
    At even d this is what lets a Bell-value bound relax A and B~ to the unit
    ball, where ``E(A, B) = (d/2) <a, T b>`` is bounded by T's spectrum.
    """
    d = check_dim(d)
    return 1.0 if d % 2 == 0 else float(np.sqrt((d - 1) / d))


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coefficient vector of length d^2 - 1 in the generator ordering."""

    dim: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dim(self.dim))
        object.__setattr__(self, "coords", freeze(_checked_coords(self.coords, self.dim)))

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
        bloch = to_bloch(matrix)
        return cls(dim=bloch.dim, matrix=matrix, bloch=bloch)

    @property
    def operator_norm(self) -> float:
        return _operator_norm(self.matrix)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "matrix": complex_matrix_to_pairs(self.matrix),
            "bloch": self.bloch.to_list(),
        }


def _checked_coords(coords, d: int) -> np.ndarray:
    """Finite float coordinates of shape (d^2 - 1,)."""
    coords = _real_array(coords)
    n = d * d - 1
    if coords.shape != (n,):
        raise ValidationError(f"Bloch vector for d={d} needs length {n}, got shape {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValidationError("Bloch vector coordinates must be finite")
    return coords


def _real_array(r) -> np.ndarray:
    """``r`` as a float array; complex, string, bool or ragged ``r`` fails its numbers check."""
    arr = check_numbers(r, "Bloch vector must be an array of real numbers", "iuf")
    return arr.astype(float, copy=False)


def _validate_traceless_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = check_hermitian(matrix, "observable", "X", _HERMITICITY_TOL)
    trace_residual = float(abs(np.trace(matrix)))
    if not trace_residual <= _TRACELESS_TOL:
        raise ValidationError(f"observable is not traceless: |tr X| = {trace_residual:.3e}")
    return matrix


def _bincount_complex(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sums of the complex ``weights`` (..., m) per ``index`` (m,), each in input order.

    A leading batch of weights is summed in one ``np.bincount`` by offsetting
    each row's bins by ``size``; every bin still adds its terms in input order.
    """
    lead = weights.shape[:-1]
    count = weights.size // index.size
    bins = (index + size * np.arange(count)[:, None]).reshape(-1)
    out = np.empty(count * size, dtype=complex)
    out.real = np.bincount(bins, weights.real.reshape(-1), count * size)
    out.imag = np.bincount(bins, weights.imag.reshape(-1), count * size)
    return out.reshape(lead + (size,))


def _generator_sum(coords: np.ndarray, d: int) -> np.ndarray:
    """``r . L = sum_n r_n L_n`` for ``coords`` (..., d^2 - 1), shape (..., d, d); not validated."""
    rows, cols, values = generator_entries(d)
    sums = _bincount_complex(cols, coords[..., rows] * values, d * d)
    return sums.reshape(coords.shape[:-1] + (d, d))


def _shell_residual(coords: np.ndarray, d: int) -> float:
    """``| ||r . L||_op - sqrt(2/d) |``: how far ``r`` is from the shell's norm condition."""
    return abs(_operator_norm(_generator_sum(coords, d)) - np.sqrt(2.0 / d))


def _generator_traces(matrix: np.ndarray) -> np.ndarray:
    """``tr[X L_j]/sqrt(2d)`` for ``matrix`` (..., d, d), complex and not validated."""
    d = matrix.shape[-1]
    rows, cols, values = generator_entries(d)
    # tr[X L_n] = sum_j L_n.flat[j] X^T.flat[j], over the stored entries of row n
    flat = matrix.swapaxes(-1, -2).reshape(matrix.shape[:-2] + (d * d,))
    return _bincount_complex(rows, flat[..., cols] * values, d * d - 1) / np.sqrt(2.0 * d)


def _bloch_coords(matrix: np.ndarray) -> np.ndarray:
    """Gated real coordinates ``tr[X L_j]/sqrt(2d)`` of a traceless hermitian X."""
    coords = _generator_traces(_validate_traceless_hermitian(matrix))
    imag = float(np.max(np.abs(coords.imag)))
    if not imag <= 1e-10:
        raise ValidationError(f"Bloch coordinates are not real: residual {imag:.3e}")
    return coords.real


def to_bloch(matrix: np.ndarray) -> BlochVector:
    """Bloch vector of a traceless hermitian matrix, ``r_j = tr[X L_j]/sqrt(2d)``."""
    return _as_bloch(_bloch_coords(matrix))


def from_bloch(r: BlochVector | np.ndarray, dim: int | None = None) -> QuditObservable:
    """Observable ``sqrt(d/2) (r . L)`` for a Bloch vector ``r``."""
    vec = _as_bloch(r, dim)
    matrix = np.sqrt(vec.dim / 2.0) * _generator_sum(vec.coords, vec.dim)
    return QuditObservable(dim=vec.dim, matrix=matrix, bloch=vec)


def _as_bloch(r, d: int | None = None) -> BlochVector:
    """``r`` as a validated Bloch vector; ``d`` defaults to the one the length implies.

    The length check is :class:`BlochVector`'s, so a length that is not
    d^2 - 1 raises :class:`ValidationError` instead of being read as a nearby d.
    A :class:`BlochVector` whose own d differs from an explicit ``d`` raises
    :class:`DimensionError`.
    """
    if isinstance(r, BlochVector):
        if d is not None and check_dim(d) != r.dim:
            raise DimensionError(f"Bloch vector has dimension {r.dim}, but dim {d} was given")
        return r
    arr = _real_array(r)
    return BlochVector(dim=_implied_dim(arr.size) if d is None else d, coords=arr)


def _implied_dim(length: int) -> int:
    """The d >= 2 whose d^2 - 1 is nearest to ``length``."""
    return max(2, int(round(np.sqrt(length + 1))))


def in_pm1_shell(r: BlochVector | np.ndarray, tol: float = SET_TOL) -> bool:
    """True iff ``r`` is the image of a traceless observable with spectrum {+1, -1}.

    This is the paper's class of +-1 observables, in which the certificate's
    witnesses and :func:`pm1_round`'s points lie.  Requires even d (the set
    is empty otherwise, so odd d always returns False): unit Euclidean norm
    together with operator norm of ``r . L`` equal to sqrt(2/d), both within
    ``tol``.
    """
    tol = check_tol(tol)
    vec = _as_bloch(r)
    if vec.dim % 2 != 0:
        return False
    if abs(vec.norm - 1.0) > tol:
        return False
    return bool(_shell_residual(vec.coords, vec.dim) <= tol)


def pm1_round(r: BlochVector | np.ndarray, dim: int | None = None) -> BlochVector:
    """Point of the +-1 shell maximizing ``<r, x>``: the sign rounding of ``r . L``.

    By von Neumann's trace inequality (Ky Fan, PNAS 35, 652 (1949)), over the
    unitary orbit of a balanced +-1 diagonal ``tr[X Y]`` is largest when Y
    shares the eigenvectors of X and puts +1 on the top half of its spectrum,
    -1 on the bottom half.  A tie at the split leaves the maximum unchanged,
    and ``r = 0`` still rounds to a valid shell point.  ``r`` is one Bloch
    vector of even d; the rounding itself is :func:`_round`.
    """
    vec = _as_bloch(r, dim)
    d = check_dim(vec.dim, even=True)
    return BlochVector(dim=d, coords=_round(vec.coords, d))


def _round(coords: np.ndarray, d: int) -> np.ndarray:
    """:func:`pm1_round` of ``coords`` (..., d^2 - 1) at even d, ungated: one batched
    ``eigh``, and each row equals the rounding of that row alone.  The result is the
    real part of the traces, a strided view."""
    _, v = np.linalg.eigh(np.sqrt(d / 2.0) * _generator_sum(coords, d))
    signs = np.concatenate([-np.ones(d // 2), np.ones(d // 2)])
    return _generator_traces((v * signs) @ v.conj().swapaxes(-1, -2)).real


def _listed(name: str, values) -> list:
    """``values`` as a list; a non-iterable raises :class:`ValidationError` naming it."""
    try:
        return list(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {type(values).__name__}") from None


def make_diag_pm1(d: int, signs) -> QuditObservable:
    """Diagonal observable ``sum_m signs_m |m><m|`` with balanced +-1 signs."""
    d = check_dim(d, even=True)
    signs = [check_sign(s) for s in _listed("signs", signs)]
    if len(signs) != d:
        raise ValidationError(f"need {d} signs, got {len(signs)}")
    if sum(signs) != 0:
        raise ValidationError(f"signs must sum to zero for tracelessness, got sum {sum(signs)}")
    matrix = np.diag(np.asarray(signs, dtype=complex))
    return QuditObservable.from_matrix(matrix)


def _offdiag_pm1(d: int, gammas, lower: complex, upper: complex) -> np.ndarray:
    """The matrix ``sum (-1)^g_m (lower |m+1><m| + upper |m><m+1|)`` over the level pairs."""
    d = check_dim(d, even=True)
    gammas = [check_int("gamma", g, 0) for g in _listed("gammas", gammas)]
    if len(gammas) != d // 2:
        raise ValidationError(f"need {d // 2} gamma exponents (one per level pair), got {len(gammas)}")
    matrix = np.zeros((d, d), dtype=complex)
    for i, g in enumerate(gammas):
        m = 2 * i
        s = (-1.0) ** g
        matrix[m + 1, m] = lower * s
        matrix[m, m + 1] = upper * s
    return matrix


def make_offdiag_real_pm1(d: int, gammas) -> QuditObservable:
    """Observable ``sum (-1)^g_m (|m+1><m| + |m><m+1|)`` over level pairs.

    The sum runs over the pairs (1,2), (3,4), ..., (d-1, d); each pair
    contributes a real sx-type block with sign ``(-1)^g``.  Each gamma is a
    non-negative integer.
    """
    return QuditObservable.from_matrix(_offdiag_pm1(d, gammas, 1, 1))


def make_offdiag_imag_pm1(d: int, gammas) -> QuditObservable:
    """Observable ``sum (-1)^g_m (-i |m+1><m| + i |m><m+1|)`` over level pairs.

    Each pair contributes an sy-type block; with this sign convention the
    g = 0 block equals minus the antisymmetric generator of the pair, so
    ``make_offdiag_imag_pm1(2, [1])`` is sy itself.
    """
    return QuditObservable.from_matrix(_offdiag_pm1(d, gammas, -1j, 1j))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    d = check_dim(d)
    check_type("rng", rng, np.random.Generator)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
