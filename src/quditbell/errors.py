"""Exception types shared across the package, and the one gate per input rule.

Each scalar gate returns a plain Python number, which reports can store and
``json.dumps`` can write.  Each array gate returns the checked array:
:func:`check_numbers` for any array, :func:`check_hermitian` for rho or an observable.
"""

import numpy as np

DIMENSION_CAP = 64  # largest d for dense two-qudit arrays: rho and T need O(d^4) memory
_MIRROR_ROWS = 64  # rows per chunk of mirror_residual


class QuditBellError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(QuditBellError, ValueError):
    """Dimension is out of range, odd where even is required, or mismatched."""


class DimensionCapError(QuditBellError, ValueError):
    """Dimension exceeds the resource cap for dense two-qudit arrays."""


class ValidationError(QuditBellError, ValueError):
    """An input violates a structural invariant.

    The message names the violated invariant and the offending residual.
    """


class CertificationError(QuditBellError, RuntimeError):
    """A state could not be certified for perfect correlations, or the
    witness search failed; the message carries the search diagnostics."""


def _is_int(value) -> bool:
    """Python and numpy integers count; bools, floats and strings do not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int | None = None) -> int:
    """An integer knob (a seed, a count or an index) of at least ``minimum``, if given."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_type(name: str, value, kind: type):
    """``value`` itself if it is a ``kind``; anything else, ``None`` or a plain array, fails."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def check_tol(tol) -> float:
    """A tolerance: a finite, non-negative real number; NaN and bools fail it."""
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (real and 0.0 <= tol < np.inf):
        raise ValidationError(f"tol must be finite and non-negative, got {tol}")
    return float(tol)


def check_range(norm, name: str, tol: float) -> float:
    """An operator norm of at most ``1 + tol``: eigenvalues in [-1, 1]; NaN fails it."""
    if not norm <= 1.0 + tol:
        raise ValidationError(f"{name} has eigenvalues outside [-1, 1]: operator norm {norm:.6e}")
    return float(norm)


def check_sign(sign) -> int:
    """A perfectness sign: the integer +1 (correlations) or -1 (anticorrelations)."""
    if not _is_int(sign) or sign not in (1, -1):
        raise ValidationError(f"sign must be the integer +1 or -1, got {sign!r}")
    return int(sign)


def check_dim(d, even: bool = False, cap: bool = False) -> int:
    """A single-qudit dimension: an integer d >= 2, even with ``even`` (at odd d no
    traceless observable has eigenvalues +-1), at most :data:`DIMENSION_CAP` with ``cap``."""
    if not _is_int(d):
        raise DimensionError(f"dimension must be an integer, got {d!r}")
    if d < 2:
        raise DimensionError(f"dimension must be at least 2, got {d}")
    if even and d % 2:
        raise DimensionError(
            f"dimension {d} is odd: traceless observables with eigenvalues +-1 "
            "exist only in even dimensions"
        )
    if cap and d > DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds cap {DIMENSION_CAP}; two-qudit arrays need O(d^4) memory"
        )
    return int(d)


def check_numbers(value, rule: str, kinds: str = "iufc", shape: tuple | None = None) -> np.ndarray:
    """``value`` as an array whose dtype kind is in ``kinds``; ragged nesting, strings,
    bools and objects fail with ``rule``, e.g. "state must be a matrix of numbers".  A
    ``shape`` other than the one given (that a dimension implies) is a :class:`DimensionError`."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{rule}: {exc}") from None
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{rule}, got {arr.dtype} entries")
    if shape is not None and arr.shape != shape:
        raise DimensionError(f"{rule} of shape {shape}, got shape {arr.shape}")
    return arr


def mirror_residual(m: np.ndarray) -> float:
    """``max |M - M^dag|`` of a square matrix, one chunk of rows at a time: the dense
    formula's entries.  A NaN or inf entry gives NaN or inf (inf - inf on the diagonal,
    with numpy's invalid-value warning)."""
    res, k = 0.0, _MIRROR_ROWS
    for i in range(0, len(m), k):  # np.maximum, unlike max(), keeps a NaN
        res = np.maximum(res, np.max(np.abs(m[i : i + k] - m[:, i : i + k].conj().T)))
    return float(res)


def check_hermitian(m, what: str, symbol: str, tol: float) -> np.ndarray:
    """``m`` as a complex, non-empty, finite square matrix with ``max |M - M^dag| <= tol``;
    ``what`` and ``symbol`` name it in the messages."""
    m = check_numbers(m, f"{what} must be a matrix of numbers").astype(complex, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not len(m):
        raise ValidationError(f"{what} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} entries must be finite")
    res = mirror_residual(m)
    if not res <= tol:
        raise ValidationError(f"{what} is not hermitian: max |{symbol} - {symbol}^dag| = {res:.3e}")
    return m
