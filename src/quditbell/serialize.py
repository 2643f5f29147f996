"""JSON helpers for state files, complex matrices and real vectors.

Complex matrices have two JSON encodings, both row-major and both exact:

* a flat list of ``[re, im]`` pairs, written for observables in reports and
  accepted for states (hand-written and older state files);
* a base64 string of the little-endian complex128 bytes, which
  :meth:`~quditbell.states.TwoQuditState.to_file` writes so that large
  states load without parsing one decimal float per entry.
"""

from __future__ import annotations

import base64
import binascii
import json
import sys

import numpy as np

from .errors import ValidationError, check_int, check_numbers

_C16 = np.dtype("<c16")


def load_payload(payload: bytes) -> tuple:
    """``(dim, data["rho"])`` of a state file, the one JSON input, with ``dim`` an integer >= 2;
    invalid JSON, a non-object, a missing key or a bad ``dim`` raise :class:`ValidationError`."""
    try:
        # json.loads's own decoding; rebinding payload drops this frame's bytes before parsing
        payload = payload.decode(json.detect_encoding(payload), "surrogatepass")
        data = json.loads(payload)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8/16/32
        raise ValidationError(f"state file is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not {"dim", "rho"} <= data.keys():
        raise ValidationError("state file must be a JSON object with keys 'dim' and 'rho'")
    return check_int("dim", data["dim"], 2), data["rho"]


def complex_matrix_to_pairs(matrix: np.ndarray) -> list[list[float]]:
    """Flatten a complex matrix to row-major ``[[re, im], ...]`` of Python floats."""
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), axis=1).tolist()


def pairs_to_complex_matrix(pairs, shape: tuple[int, int]) -> np.ndarray:
    """Rebuild a complex matrix from row-major ``[[re, im], ...]`` pairs of numbers."""
    n_expect = shape[0] * shape[1]
    rule = f"matrix payload entries must be numbers, in {n_expect} [re, im] pairs"
    arr = check_numbers(pairs, rule, "iuf")
    if arr.shape != (n_expect, 2):
        raise ValidationError(
            f"matrix payload must be {n_expect} [re, im] pairs, got shape {arr.shape}"
        )
    # a view keeps every bit; re + 1j * im would turn a -0.0 real part into +0.0
    return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(shape)


def complex_matrix_to_base64_bytes(matrix: np.ndarray) -> bytes:
    """Base64 of the row-major little-endian complex128 bytes of ``matrix``, as ASCII bytes.

    The encoder reads the array's buffer directly, so a C-contiguous complex128 matrix is
    not copied to a ``bytes`` object first.
    """
    return base64.b64encode(np.ascontiguousarray(matrix, dtype=_C16))


def base64_to_complex_matrix(text: str | memoryview, shape: tuple[int, int]) -> np.ndarray:
    """Rebuild a complex matrix from :func:`complex_matrix_to_base64_bytes` output, as text or
    as ASCII bytes (read-only)."""
    try:
        if sys.version_info >= (3, 11):  # b64decode's own call, without its ASCII copy of text
            raw = binascii.a2b_base64(text, strict_mode=True)
        else:
            raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValidationError(f"matrix payload is not valid base64: {exc}") from None
    n_expect = shape[0] * shape[1] * _C16.itemsize
    if len(raw) != n_expect:
        raise ValidationError(
            f"matrix payload must be {n_expect} bytes of complex128, got {len(raw)}"
        )
    return np.frombuffer(raw, _C16).reshape(shape)


def real_vector_to_list(vec: np.ndarray) -> list[float]:
    return np.asarray(vec, dtype=float).reshape(-1).tolist()


def freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only array with ``arr``'s contents; used to make container types immutable.

    Idempotent: an ndarray that is already read-only and owns its data is returned as it is,
    so ``freeze(freeze(x)) is freeze(x)`` and an array built read-only is not copied again.
    A writable array, a view or any other input is copied, so the caller's array stays
    private.
    """
    if type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable:
        return arr
    out = np.array(arr)
    out.setflags(write=False)
    return out
