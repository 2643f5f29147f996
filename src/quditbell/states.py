"""Two-qudit density matrices and their generator correlation matrices.

The correlation matrix of a state ``rho`` on C^d (x) C^d is the real
``(d^2-1) x (d^2-1)`` matrix

    T[n, m] = tr[rho (L_n (x) L_m)]

in the generator ordering of :mod:`quditbell.gellmann`.  For swap-invariant
states T is symmetric.  :func:`correlation_matrix` builds T in O(d^4) as a
change of basis with the real generator matrix U, applied directly from its
entries (:func:`~quditbell.gellmann.generator_entries`).  U is the one
representation of the generators the library computes with; the dense basis of
:func:`~quditbell.gellmann.build_basis` is an expansion of U for callers and
is built on no library path.  Expectations of observable pairs reduce to the
quadratic form ``tr[rho (A (x) B)] = (d/2) <a, T b>`` in the Bloch vectors
``a, b`` of A and B; both evaluation paths are exposed and cross-checked in
the test suite.

Memory is what limits large d: rho holds d^4 complex entries (268 MB at d = 64).
:func:`correlation_matrix` keeps at most three such d^4 buffers alive at once,
rho included; in its last stage the third is T, which is half of rho's size.
Once it has permuted rho it drops its own reference, so a caller that keeps none
frees rho before the rest of T is built.  :func:`ghz` and :func:`maximally_mixed`
write rho once and hand it over read-only, so :func:`~quditbell.serialize.freeze`
does not copy it again.

T's eigendecomposition (:attr:`CorrelationMatrix.spectral`) costs O(n^3) in
n = d^2 - 1, but T of a GHZ-family state is nearly diagonal: the off-diagonal
generators are eigenvectors with eigenvalue +-2/d, and at d = 32 only 29 of
1023 coordinates have a non-zero entry off the diagonal.  Each coordinate whose
row and column are exactly zero off the diagonal is taken as an exact eigenpair,
and only the coupled rest goes to ``eigh``; a dense T goes whole to one ``eigh``.

States from outside go through :meth:`TwoQuditState.from_matrix`.  Its
positivity check is a Cholesky factorisation of ``rho - floor * I`` (with the
floor ``-1e-10``), a constructive certificate that costs O(d^6) but about a
fifth of a full ``eigvalsh``; only a state it fails on pays for the eigenvalues.
The hermiticity and swap checks run in chunks of rows, so besides rho the gates
hold at most two rho-sized buffers (the shifted copy and its Cholesky factor).
:func:`ghz` and :func:`maximally_mixed` are valid and symmetric by construction
and skip it.

State files are ``{"dim": d, "rho": "<base64>"}`` (:meth:`TwoQuditState.to_json`)
and cost one base64 pass each way.  Writing holds, besides rho, only the base64
bytes (4/3 of rho's size; the encoder reserves twice rho's size while it runs),
which go to the file between a fixed header and ``"}``.  Reading holds the file's
bytes only while they are parsed and the base64 text only until it is decoded, so
the gates of :meth:`~TwoQuditState.from_matrix` see the decoded matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bloch import BlochVector, QuditObservable
from .errors import DimensionError, ValidationError, check_dim, check_type
from .gellmann import _apply_u, antisymmetric_rows
from .serialize import (
    base64_to_complex_matrix,
    complex_matrix_to_base64,
    complex_matrix_to_base64_bytes,
    freeze,
    load_payload,
    pairs_to_complex_matrix,
)

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_PSD_FLOOR = -1e-10
_SWAP_TOL = 1e-12
_MIRROR_ROWS = 64  # rows per chunk of the hermiticity check of rho and the symmetry check of T
# json.dumps({"dim": d, "rho": text}) for an int d and base64 text is head % d, text, tail
_FILE_HEAD, _FILE_TAIL = '{"dim": %d, "rho": "', '"}'

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
        """Validate ``rho`` as a density matrix on C^d (x) C^d and cache its swap symmetry.

        ``rho`` must be a finite square matrix of numbers of size d^2 (d >= 2), hermitian and of
        unit trace.  It is positive semidefinite when ``rho - floor * I = L L^dag`` has a
        Cholesky factor, with ``floor = -1e-10``; when the factorisation fails, ``eigvalsh``
        decides, and a minimum eigenvalue below the floor (or NaN) is rejected with that
        eigenvalue in the message.  Any failed gate raises :class:`ValidationError`.
        """
        try:
            rho = np.asarray(rho)
        except ValueError as exc:  # ragged nesting
            raise ValidationError(f"state must be a matrix of numbers: {exc}") from None
        if rho.dtype.kind not in "iufc":  # strings, bools and objects are not numbers
            raise ValidationError(f"state must be a matrix of numbers, got {rho.dtype} entries")
        rho = rho.astype(complex, copy=False)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValidationError(f"state must be a square matrix, got shape {rho.shape}")
        d = int(round(np.sqrt(rho.shape[0])))
        if d * d != rho.shape[0] or d < 2:
            raise ValidationError(
                f"state dimension {rho.shape[0]} is not d^2 for an integer d >= 2"
            )
        if not np.all(np.isfinite(rho)):
            raise ValidationError("state entries must be finite")
        herm = _mirror_residual(rho)
        if herm > _HERM_TOL:
            raise ValidationError(f"state is not hermitian: max |rho - rho^dag| = {herm:.3e}")
        trace_res = abs(complex(np.trace(rho)) - 1.0)
        if trace_res > _TRACE_TOL:
            raise ValidationError(f"state trace differs from 1: residual {trace_res:.3e}")
        shifted = rho.copy()
        shifted.flat[:: d * d + 1] -= _PSD_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:  # near the floor rounding can fail it; eigvalsh decides
            min_eig = float(np.min(np.linalg.eigvalsh(rho)))
            if not min_eig >= _PSD_FLOOR:
                raise ValidationError(
                    f"state is not positive semidefinite: min eigenvalue {min_eig:.3e}"
                ) from None
        return cls(dim=d, rho=rho, symmetric=_swap_residual(rho, d) <= _SWAP_TOL)

    def as_4index(self) -> np.ndarray:
        """View of rho as R[j, k, a, b] = <j,k| rho |a,b>."""
        d = self.dim
        return self.rho.reshape(d, d, d, d)

    def to_json(self) -> str:
        """``{"dim": d, "rho": "<base64 of rho's row-major little-endian complex128>"}``.

        The text is ``json.dumps`` of that object, formatted directly: base64 needs no
        escaping.  Alive besides rho: the base64 text and the result, 8/3 of rho's size.
        """
        return f"{_FILE_HEAD % self.dim}{complex_matrix_to_base64(self.rho)}{_FILE_TAIL}"

    @classmethod
    def from_json(cls, payload: str | bytes) -> "TwoQuditState":
        """Read :meth:`to_json` output, or ``"rho"`` as row-major ``[[re, im], ...]`` pairs.

        Either payload goes through every :meth:`from_matrix` gate.  The base64 text is
        freed once decoded, so the gates hold the payload, the decoded matrix and their
        own buffers.
        """
        return cls._load(lambda: payload)

    @classmethod
    def from_file(cls, path) -> "TwoQuditState":
        """:meth:`from_json` of the file's bytes, which are freed once parsed."""
        with open(path, "rb") as fh:
            return cls._load(fh.read)

    @classmethod
    def _load(cls, read) -> "TwoQuditState":
        # read() goes to the parser unnamed, so nothing here keeps a file's bytes
        d, rho = load_payload(read())
        decode = base64_to_complex_matrix if isinstance(rho, str) else pairs_to_complex_matrix
        matrix = decode(rho, (d * d, d * d))
        del rho  # the base64 text or the pair lists: the gates need only the matrix
        return cls.from_matrix(matrix)

    def to_file(self, path) -> None:
        """Write :meth:`to_json`'s text as ASCII bytes, from one base64 pass over rho.

        Alive besides rho: only the base64 bytes, 4/3 of rho's size, for which the
        encoder reserves twice rho's size while it runs.
        """
        with open(path, "wb") as fh:
            fh.write((_FILE_HEAD % self.dim).encode("ascii"))
            fh.write(complex_matrix_to_base64_bytes(self.rho))
            fh.write(_FILE_TAIL.encode("ascii"))


def _mirror_residual(m: np.ndarray) -> float:
    """``max |M - M^dag|`` of a square matrix, one chunk of rows at a time: the dense
    formula's entries.  A NaN or inf entry gives NaN or inf (inf - inf on the diagonal)."""
    with np.errstate(invalid="ignore"):
        return float(np.max([  # np.max, unlike max(), keeps a NaN
            np.max(np.abs(m[i : i + _MIRROR_ROWS] - m[:, i : i + _MIRROR_ROWS].conj().T))
            for i in range(0, len(m), _MIRROR_ROWS)
        ]))


def _swap_residual(rho: np.ndarray, d: int) -> float:
    """``max |R[j,k,a,b] - R[k,j,b,a]|``, one first index j at a time."""
    r4 = rho.reshape(d, d, d, d)
    return float(np.max([np.max(np.abs(r4[j] - r4[:, j].transpose(0, 2, 1))) for j in range(d)]))


def ghz(d: int) -> TwoQuditState:
    """Maximally entangled state ``(1/d) sum_{j,k} |jj><kk|`` (pure, symmetric)."""
    d = check_dim(d, cap=True)
    amp = 1.0 / np.sqrt(d)
    # the entries of np.outer(psi, psi.conj()), psi = amp |jj>: (a+0j)(a-0j) is a^2+0j, and
    # every other product is +0+0j
    rho = np.zeros((d * d, d * d), dtype=complex)
    jj = np.arange(0, d * d, d + 1)
    rho[jj[:, None], jj] = amp * amp
    rho.setflags(write=False)
    return TwoQuditState(dim=d, rho=rho, symmetric=True)


def maximally_mixed(d: int) -> TwoQuditState:
    d = check_dim(d, cap=True)
    rho = np.eye(d * d, dtype=complex) / (d * d)
    rho.setflags(write=False)
    return TwoQuditState(dim=d, rho=rho, symmetric=True)


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

    def cluster_at(self, value: float, tol: float) -> EigenCluster | None:
        """The first multiplet whose value lies within ``tol`` of ``value``, or None."""
        return next((c for c in self.clusters if abs(c.value - value) <= tol), None)


@dataclass(eq=False)
class CorrelationMatrix:
    """Real correlation matrix with lazily computed spectral data.

    The eigendecomposition is computed once, on first access, by :func:`_split_eigh`
    (decoupled generator coordinates are exact eigenpairs; only the coupled rest goes to
    ``np.linalg.eigh``).  Only a symmetric T has one: on any other, :attr:`spectral` and
    :attr:`spectral_norm` raise :class:`ValidationError`.
    """

    dim: int
    matrix: np.ndarray = field(repr=False)
    symmetric: bool

    def __post_init__(self):
        self.matrix = freeze(np.asarray(self.matrix, dtype=float))

    @property
    def spectral_norm(self) -> float:
        return self.spectral.spectral_norm

    @cached_property
    def spectral(self) -> SpectralData:
        if not self.symmetric:
            raise ValidationError(
                "correlation matrix is not symmetric; spectral analysis needs a swap-symmetric state"
            )
        eigenvalues, vectors = _split_eigh(self.matrix)
        return SpectralData(
            eigenvalues=freeze(eigenvalues), clusters=cluster_eigenvalues(eigenvalues, vectors)
        )


def _sym_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = m + m.T
    sym /= 2.0  # in place: the bits of (m + m.T) / 2.0 without a second n^2 buffer
    return np.linalg.eigh(sym)


def _split_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of ``S = (M + M^T) / 2``.

    A coordinate i whose row and column of M are exactly zero off the diagonal is
    decoupled: ``(M[i, i], e_i)`` is an exact eigenpair of S.  Only the coupled rest
    goes to ``eigh``, as ``(B + B^T) / 2`` with ``B = M[rest][:, rest]``; with nothing
    decoupled that is the dense ``eigh`` of S, and with nothing coupled no ``eigh``
    runs.  The two parts are merged by a stable sort of their eigenvalues, each
    vector written once into the n x n result at its final column.
    """
    n = len(m)
    off = m != 0
    off.flat[:: n + 1] = False
    coupled = off.any(axis=0) | off.any(axis=1)
    del off
    if coupled.all():
        return _sym_eigh(m)
    free, rest = np.flatnonzero(~coupled), np.flatnonzero(coupled)
    values, block = np.diagonal(m)[free], None
    if len(rest):
        rest_values, block = _sym_eigh(m[np.ix_(rest, rest)])
        values = np.concatenate([values, rest_values])
    order = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)  # the final column of each eigenpair
    vectors = np.zeros((n, n))
    vectors[free, column[: len(free)]] = 1.0
    if block is not None:
        vectors[np.ix_(rest, column[len(free) :])] = block
    return values[order], vectors


def correlation_matrix(state: TwoQuditState) -> CorrelationMatrix:
    """Compute ``T[n, m] = tr[rho (L_n (x) L_m)]`` for all generator pairs.

    With ``R[(a,j),(b,k)] = rho[jk,ab]`` and the generators as the rows of
    ``V = diag(c) U`` (see :func:`~quditbell.gellmann.generator_entries`),
    ``T = V R V^T``.  The real products ``P = U Re(R) U^T`` and
    ``Q = U Im(R) U^T`` give it entrywise: ``c_n c_m`` is 1, ``i`` or -1, so
    ``T`` is ``P``, ``-Q`` or ``-P`` and the other product is the imaginary
    part, which must vanish.  U is real, so one pass over the interleaved
    real and imaginary parts computes both; each product costs O(d^4).

    Memory: besides ``rho``, at most two complex buffers of rho's size are alive at once
    (the permuted copy of rho and ``U R^T``, then ``U R^T`` and its transpose, then that
    transpose and ``P + iQ``).  ``T`` is written from ``P + iQ`` one generator block at a
    time, so the last stage holds rho, ``P + iQ`` and ``T`` (half of rho's size).  The
    reference to ``state`` is dropped once rho is permuted, so rho is freed there when the
    caller keeps none.  The symmetry check runs in row chunks, and ``T`` is handed over
    read-only, uncopied.

    A non-zero imaginary part or a NaN or inf anywhere in ``T`` raises
    :class:`ValidationError`; both can only come from a state built without
    :meth:`TwoQuditState.from_matrix`.
    """
    d = check_type("state", state, TwoQuditState).dim
    n = d * d - 1
    # R^T[(b,k),(a,j)] = rho[jk,ab]; U (U R^T)^T = U R U^T
    r_t = np.ascontiguousarray(state.as_4index().transpose(3, 1, 2, 0)).reshape(d * d, -1)
    del state  # a caller that keeps no reference frees rho before the rest of T is built
    half = _apply_u(d, r_t.view(float)).view(complex)
    del r_t
    half = np.ascontiguousarray(half.T)
    full = _apply_u(d, half.view(float)).view(complex)
    del half
    # c_n c_m is i between the antisymmetric rows and the rest (T = -Q), -1 within the
    # antisymmetric rows (T = -P) and 1 elsewhere (T = P); the other product is the residual
    anti = antisymmetric_rows(d)
    blocks = ((slice(0, anti.start), False), (anti, True), (slice(anti.stop, n), False))
    t = np.empty((n, n))
    resids = []
    for rows, row_imag in blocks:
        for cols, col_imag in blocks:
            p, q = full.real[rows, cols], full.imag[rows, cols]
            if row_imag != col_imag:
                np.negative(q, out=t[rows, cols])
                resids.append(np.max(np.abs(p)))
            else:
                np.multiply(p, -1.0 if row_imag else 1.0, out=t[rows, cols])
                resids.append(np.max(np.abs(q)))
    del full
    resid = float(np.max(resids))  # np.max, unlike max(), keeps a NaN
    if not resid <= 1e-12:
        raise ValidationError(f"correlation matrix has imaginary residual {resid:.3e}")
    asym = _mirror_residual(t)  # NaN or inf for a NaN or inf anywhere in T
    if not np.isfinite(asym):
        raise ValidationError(f"correlation matrix is not finite: max |T - T^T| = {asym:.3e}")
    t.setflags(write=False)
    return CorrelationMatrix(dim=d, matrix=t, symmetric=asym <= 1e-11)


def product_expectation(state: TwoQuditState, a: QuditObservable, b: QuditObservable) -> float:
    """Direct trace ``tr[rho (A (x) B)]``."""
    check_type("state", state, TwoQuditState)
    check_type("a", a, QuditObservable)
    check_type("b", b, QuditObservable)
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
    check_type("tcorr", tcorr, CorrelationMatrix)
    check_type("a", a, BlochVector)
    check_type("b", b, BlochVector)
    if a.dim != tcorr.dim or b.dim != tcorr.dim:
        raise DimensionError(
            f"Bloch vector dims ({a.dim}, {b.dim}) do not match correlation dim {tcorr.dim}"
        )
    return float(tcorr.dim / 2.0 * (a.coords @ tcorr.matrix @ b.coords))
