import numpy as np
import pytest

from quditbell import TwoQuditState, ghz
from quditbell.bloch import haar_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_traceless_hermitian(d, rng):
    """Random traceless hermitian matrix with spectrum inside [-1, 1]."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (m + m.conj().T) / 2.0
    h -= np.trace(h) / d * np.eye(d)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def random_pm1_matrix(d, rng):
    """Haar-random balanced +-1 observable ``U D U^dag`` at even d, drawn without the
    library's rounding, so that it can check ``pm1_round`` independently."""
    u = haar_unitary(d, rng)
    signs = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    matrix = (u * signs) @ u.conj().T
    return (matrix + matrix.conj().T) / 2.0


def random_state(d, rng, symmetric=False):
    """Random full-rank two-qudit density matrix, optionally swap-symmetric."""
    w = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    rho = w @ w.conj().T
    if symmetric:
        r4 = rho.reshape(d, d, d, d)
        rho = (rho + r4.transpose(1, 0, 3, 2).reshape(d * d, d * d)) / 2.0
    rho /= np.trace(rho).real
    return TwoQuditState.from_matrix(rho)


def rotated_ghz(d, rng):
    """GHZ state conjugated by U (x) U: stays symmetric and certified."""
    u = haar_unitary(d, rng)
    uu = np.kron(u, u)
    return TwoQuditState.from_matrix(uu @ ghz(d).rho @ uu.conj().T)


def read_state_file(path, payload):
    """``TwoQuditState.from_file`` of ``payload`` (text, written as UTF-8, or bytes) at ``path``."""
    path.write_bytes(payload.encode() if isinstance(payload, str) else payload)
    return TwoQuditState.from_file(path)


def singlet():
    """Two-qubit singlet; correlation matrix -I, anticorrelations only."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return TwoQuditState.from_matrix(np.outer(psi, psi.conj()))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
