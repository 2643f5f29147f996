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

The families are listed in :func:`generator_entries`: the entries of a real
``(d^2-1) x d^2`` matrix U whose row n is ``L_n`` flattened row-major
(divided by ``i`` on the antisymmetric rows), two per off-diagonal generator
and ``l+1`` for diagonal label ``l``.  The Bloch maps and the witness search
read these entries; the correlation matrix applies U through :func:`_apply_u`,
which writes the off-diagonal layout again, as slices per row index m, and
``test_apply_u_is_bitwise_the_stored_order_sum`` ties the two.  No library
path needs the dense ``(d^2-1, d, d)`` array that :func:`build_basis` expands.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import check_dim, check_int
from .serialize import freeze

KIND_SYMMETRIC = "symmetric"
KIND_ANTISYMMETRIC = "antisymmetric"
KIND_DIAGONAL = "diagonal"
KINDS = (KIND_SYMMETRIC, KIND_ANTISYMMETRIC, KIND_DIAGONAL)


def antisymmetric_rows(d: int) -> slice:
    """Positions of the antisymmetric family, the only non-real generators."""
    n_off = d * (d - 1) // 2
    return slice(n_off, 2 * n_off)


# typed caches: 4.0 == 4, but only the int may pass check_dim
@functools.lru_cache(maxsize=None, typed=True)
def generator_entries(d: int) -> tuple[np.ndarray, ...]:
    """The stored entries of U with their phases, as ``(rows, cols, values)``.

    ``L_n.flat[j] = values[k]`` for ``(n, j) = (rows[k], cols[k])``, and every
    other entry of ``L_n`` is zero; ``values`` is U's entry times 1j on
    :func:`antisymmetric_rows`.  The entries run row by row, columns ascending.
    Cached and read-only; ``d`` must pass ``check_dim(d, cap=True)``.
    """
    d = check_dim(d, cap=True)
    m, k = np.triu_indices(d, 1)
    n_off = m.size
    # flat positions of |m><k| and |k><m|, ascending because m < k
    off_cols = np.stack([m * d + k, k * d + m], axis=1).reshape(-1)
    labels = np.arange(1, d)
    scales = np.sqrt(2.0 / (labels * (labels + 1)))
    diag_cols = [(d + 1) * np.arange(l + 1) for l in labels]
    diag_vals = [np.append(np.full(l, s), -l * s) for l, s in zip(labels, scales)]
    values = np.concatenate([np.ones(2 * n_off), np.tile([-1.0, 1.0], n_off) * 1j, *diag_vals])
    cols = np.concatenate([off_cols, off_cols, *diag_cols])
    rows = np.repeat(np.arange(d * d - 1), np.concatenate([np.full(2 * n_off, 2), labels + 1]))
    return freeze(rows), freeze(cols), freeze(values)


def _apply_u(d: int, x: np.ndarray) -> np.ndarray:
    """``U @ x`` for a real ``(d^2, k)`` array, each sum taken in U's stored order.

    Every row starts from 0.0 and adds its terms in the order of
    :func:`generator_entries`, so the result is bitwise that of a CSR product
    with U, signed zeros included.
    """
    rows, cols, values = generator_entries(d)
    n_off = d * (d - 1) // 2
    out = np.zeros((d * d - 1, x.shape[1]))
    # rows (m, k > m): symmetric x[m*d+k] + x[k*d+m], antisymmetric x[k*d+m] - x[m*d+k];
    # slices per m, since gathering the rows by ``cols`` is 2-3x slower at d >= 16
    x3 = x.reshape(d, d, -1)
    start = 0
    for m in range(d - 1):
        stop = start + d - 1 - m
        np.add(x3[m, m + 1 :], x3[m + 1 :, m], out=out[start:stop])
        np.subtract(x3[m + 1 :, m], x3[m, m + 1 :], out=out[n_off + start : n_off + stop])
        start = stop
    out[: 2 * n_off] += 0.0  # a sum started from 0.0 is never -0.0
    # diagonal row l adds coeff[j, l-1] x[j(d+1)] for j = 0 .. l, in j order
    diag = slice(4 * n_off, None)
    coeff = np.zeros((d, d - 1))
    coeff[cols[diag] // (d + 1), rows[diag] - 2 * n_off] = values[diag].real
    acc = out[2 * n_off :]
    for j, xj in enumerate(x[:: d + 1]):
        lo = max(j, 1) - 1  # rows l >= max(j, 1) have an entry at x[j(d+1)]
        acc[lo:] += coeff[j, lo:, None] * xj
    return out


@functools.lru_cache(maxsize=None, typed=True)
def build_basis(d: int) -> np.ndarray:
    """The generators as a dense read-only array of shape ``(d^2-1, d, d)``.

    ``build_basis(d)[n]`` is ``L_n`` in the grouped ordering.  A dense
    expansion of :func:`generator_entries` for callers that want the
    matrices; it costs O(d^4) memory (about 268 MB at d = 64) and no library
    computation uses it.  Cached; ``d`` must pass ``check_dim(d, cap=True)``.
    """
    rows, cols, values = generator_entries(d)
    gens = np.zeros((d * d - 1, d * d), dtype=complex)
    gens[rows, cols] = values
    gens.setflags(write=False)
    return gens.reshape(-1, d, d)


def flat_index(d: int, kind: str, m: int, k: int | None = None) -> int:
    """Position of a generator in the grouped ordering (0-based).

    ``kind`` is one of ``symmetric``/``antisymmetric`` (pass 1-based
    ``1 <= m < k <= d``) or ``diagonal`` (pass ``m`` as the label
    ``1 <= l <= d-1`` and leave ``k`` unset).  Non-integer indices raise
    :class:`~quditbell.errors.ValidationError`, out-of-range ones :class:`IndexError`.
    """
    d = check_dim(d)
    m = check_int("m", m)
    k = None if k is None else check_int("k", k)
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
    d = check_dim(d)
    index = check_int("index", index)
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
