"""Generalized Gell-Mann generators of SU(d).

The basis consists of d^2 - 1 traceless hermitian matrices normalized so that
``tr(L_j L_k) = 2 delta_jk`` (see e.g. Bertlmann & Krammer, J. Phys. A 41,
235303 (2008) for the generator families):

* ``d(d-1)/2`` symmetric matrices ``|m><k| + |k><m|`` for ``1 <= m < k <= d``,
* ``d(d-1)/2`` antisymmetric matrices ``-i|m><k| + i|k><m|``, same index range,
* ``d-1`` diagonal matrices ``sqrt(2/(l(l+1))) (sum_{m<=l} |m><m| - l |l+1><l+1|)``.

Ordering is grouped by family: the full symmetric block first (lexicographic
in ``(m, k)``), then the full antisymmetric block (same order), then the
diagonal matrices for ``l = 1 .. d-1``.  For d=2 this gives ``[sx, sy, sz]``;
for d=3 the eight Gell-Mann matrices in the grouped order.

The families are written down once, in :func:`sparse_generators`: a real
sparse ``(d^2-1) x d^2`` matrix U with two non-zeros per off-diagonal
generator and ``l+1`` for diagonal label ``l``.  U is the one representation
the library computes with: the correlation matrix, the Bloch maps and the
witness search all work from it (through :func:`generator_entries`, its
entries with their phases), and none needs the dense ``(d^2-1, d, d)`` array.
:func:`build_basis` expands U into that array for callers that want the
matrices themselves.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from .errors import DimensionCapError, DimensionError
from .serialize import freeze

DEFAULT_DIMENSION_CAP = 64

KIND_SYMMETRIC = "symmetric"
KIND_ANTISYMMETRIC = "antisymmetric"
KIND_DIAGONAL = "diagonal"
KINDS = (KIND_SYMMETRIC, KIND_ANTISYMMETRIC, KIND_DIAGONAL)


def _check_dim(d: int, cap: int) -> None:
    if d < 2:
        raise DimensionError(f"basis requires dimension >= 2, got {d}")
    if d > cap:
        raise DimensionCapError(
            f"dimension {d} exceeds cap {cap}; two-qudit arrays need O(d^4) memory"
        )


def antisymmetric_rows(d: int) -> slice:
    """Positions of the antisymmetric family, the only non-real generators."""
    n_off = d * (d - 1) // 2
    return slice(n_off, 2 * n_off)


@functools.lru_cache(maxsize=None)
def sparse_generators(d: int, cap: int = DEFAULT_DIMENSION_CAP) -> sparse.csr_array:
    """The generators as the rows of a real ``(d^2-1) x d^2`` CSR matrix U.

    Row n is ``L_n`` flattened row-major, divided by ``i`` on
    :func:`antisymmetric_rows`: ``L_n = c_n U[n].reshape(d, d)`` with
    ``c_n = 1j`` there and ``1`` elsewhere.  Cached and read-only; raises
    :class:`DimensionError` for ``d < 2`` and :class:`DimensionCapError`
    above ``cap``.
    """
    _check_dim(d, cap)
    m, k = np.triu_indices(d, 1)
    n_off = m.size
    # flat positions of |m><k| and |k><m|, ascending because m < k
    off_cols = np.stack([m * d + k, k * d + m], axis=1).reshape(-1)
    labels = np.arange(1, d)
    scales = np.sqrt(2.0 / (labels * (labels + 1)))
    diag_cols = [(d + 1) * np.arange(l + 1) for l in labels]
    diag_vals = [np.append(np.full(l, s), -l * s) for l, s in zip(labels, scales)]
    data = np.concatenate([np.ones(2 * n_off), np.tile([-1.0, 1.0], n_off), *diag_vals])
    indices = np.concatenate([off_cols, off_cols, *diag_cols])
    counts = np.concatenate([np.full(2 * n_off, 2), labels + 1])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    u = sparse.csr_array((data, indices, indptr), shape=(d * d - 1, d * d))
    for arr in (u.data, u.indices, u.indptr):
        arr.setflags(write=False)
    return u


@functools.lru_cache(maxsize=None)
def generator_entries(d: int, cap: int = DEFAULT_DIMENSION_CAP) -> tuple[np.ndarray, ...]:
    """The stored entries of U with their phases, as ``(rows, cols, values)``.

    ``L_n.flat[j] = values[k]`` for ``(n, j) = (rows[k], cols[k])``, and every
    other entry of ``L_n`` is zero; ``values`` is U's data times ``c_n``.  The
    entries keep U's CSR order.  Cached and read-only; raises like
    :func:`sparse_generators`.
    """
    u = sparse_generators(d, cap)
    rows = np.repeat(np.arange(u.shape[0]), np.diff(u.indptr))
    values = u.data.astype(complex)
    anti = antisymmetric_rows(d)
    values[u.indptr[anti.start] : u.indptr[anti.stop]] *= 1j
    return freeze(rows), u.indices, freeze(values)


@functools.lru_cache(maxsize=None)
def build_basis(d: int, cap: int = DEFAULT_DIMENSION_CAP) -> np.ndarray:
    """The generators as a dense read-only array of shape ``(d^2-1, d, d)``.

    ``build_basis(d)[n]`` is ``L_n`` in the grouped ordering.  A dense
    expansion of :func:`sparse_generators` for callers that want the
    matrices; it costs O(d^4) memory (about 268 MB at d = 64) and no library
    computation uses it.  Cached; raises :class:`DimensionError` for
    ``d < 2`` and :class:`DimensionCapError` above ``cap``.
    """
    rows, cols, values = generator_entries(d, cap)
    gens = np.zeros((d * d - 1, d * d), dtype=complex)
    gens[rows, cols] = values
    gens.setflags(write=False)
    return gens.reshape(-1, d, d)


def flat_index(d: int, kind: str, m: int, k: int | None = None) -> int:
    """Position of a generator in the grouped ordering (0-based).

    ``kind`` is one of ``symmetric``/``antisymmetric`` (pass 1-based
    ``1 <= m < k <= d``) or ``diagonal`` (pass ``m`` as the label
    ``1 <= l <= d-1`` and leave ``k`` unset).
    """
    if d < 2:
        raise DimensionError(f"basis requires dimension >= 2, got {d}")
    n_off = d * (d - 1) // 2
    if kind in (KIND_SYMMETRIC, KIND_ANTISYMMETRIC):
        if k is None:
            raise IndexError(f"{kind} generators need both indices m < k")
        if not (1 <= m < k <= d):
            raise IndexError(f"indices (m={m}, k={k}) out of range 1 <= m < k <= {d}")
        pos = (m - 1) * d - m * (m - 1) // 2 + (k - m - 1)
        return pos if kind == KIND_SYMMETRIC else n_off + pos
    if kind == KIND_DIAGONAL:
        if k is not None:
            raise IndexError("diagonal generators take a single label l")
        if not (1 <= m <= d - 1):
            raise IndexError(f"diagonal label l={m} out of range 1 <= l <= {d - 1}")
        return 2 * n_off + (m - 1)
    raise IndexError(f"unknown generator kind {kind!r}; expected one of {KINDS}")


def index_label(d: int, index: int) -> tuple:
    """Inverse of :func:`flat_index`.

    Returns ``(kind, m, k)`` for off-diagonal generators and ``(kind, l)``
    for diagonal ones.
    """
    if d < 2:
        raise DimensionError(f"basis requires dimension >= 2, got {d}")
    n_off = d * (d - 1) // 2
    n = d * d - 1
    if not (0 <= index < n):
        raise IndexError(f"flat index {index} out of range 0 <= i < {n}")
    if index >= 2 * n_off:
        return (KIND_DIAGONAL, index - 2 * n_off + 1)
    kind = KIND_SYMMETRIC if index < n_off else KIND_ANTISYMMETRIC
    pos = index % n_off
    m = 1
    while pos >= d - m:
        pos -= d - m
        m += 1
    return (kind, m, m + 1 + pos)
