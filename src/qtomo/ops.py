"""Complex-matrix primitives: Hermitian checks, operator bases, quantum values.

Density matrices carry the source intensity in their trace, so traces are not
forced to one here; ``normalize`` rescales when a unit-intensity state is
needed and rejects the dark state (the zero matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# Hermiticity defects are compared absolutely, PSD defects relative to the
# trace; both cover accumulated rounding at dimensions up to a few dozen.
TOL_HERM = 1e-10
TOL_PSD = 1e-9

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)


def as_square(a, name="matrix") -> np.ndarray:
    """Coerce to a square complex ndarray or raise ContractViolation."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} has non-finite entries")
    return m


def dagger(a) -> np.ndarray:
    return np.asarray(a).conj().T


def hermitian_defect(a) -> float:
    """Max-norm distance from a to its adjoint."""
    m = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of the symmetrized matrix (a + a*)/2."""
    m = as_square(a)
    h = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def quantum_value(rho, X) -> complex:
    """Value tr(rho X) that the state rho assigns to the operator X."""
    r = as_square(rho, "rho")
    x = as_square(X, "X")
    if r.shape != x.shape:
        raise ContractViolation(
            f"dimension mismatch: rho is {r.shape}, X is {x.shape}"
        )
    return complex(np.trace(r @ x))


def hermitian_basis(d: int) -> np.ndarray:
    """Basis of d^2 Hermitian matrices spanning Hermitian space over the reals.

    Returned as a (d^2, d, d) complex array.  Ordering: identity, d-1
    diagonal traceless matrices, then the symmetric off-diagonal elements of
    all index pairs j < k in row-major order, then the antisymmetric ones in
    the same order.  For d = 2 the non-identity elements are exactly the
    three Pauli matrices.
    """
    if d < 1:
        raise ContractViolation(f"dimension must be >= 1, got {d}")
    basis = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    basis[0, diag, diag] = 1.0
    basis[diag[1:], diag[:-1], diag[:-1]] = 1.0
    basis[diag[1:], diag[1:], diag[1:]] = -1.0
    j, k = np.triu_indices(d, 1)
    sym = d + np.arange(j.size)
    antisym = sym + j.size
    basis[sym, j, k] = basis[sym, k, j] = 1.0
    basis[antisym, j, k] = -1j
    basis[antisym, k, j] = 1j
    return basis


def expand_hermitian(h, basis=None) -> np.ndarray:
    """Real coefficients x with h = sum_a x_a B_a for a Hermitian basis."""
    m = as_square(h)
    d = m.shape[0]
    if basis is None:
        basis = hermitian_basis(d)
    cols = np.stack([b.reshape(-1) for b in basis], axis=1)
    coeff, *_ = np.linalg.lstsq(cols, m.reshape(-1), rcond=None)
    return coeff.real


@dataclass(frozen=True)
class DensityReport:
    hermitian_defect: float
    min_eigenvalue: float
    trace: float
    ok: bool


def validate_density(rho, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> DensityReport:
    """Check Hermiticity and positive semidefiniteness of a density matrix.

    ok is true iff the Hermitian defect is at most tol_herm and the smallest
    eigenvalue is at least -tol_psd * max(trace, 1).
    """
    m = as_square(rho, "rho")
    defect = hermitian_defect(m)
    trace = float(np.trace(m).real)
    mineig = min_eigenvalue(m)
    ok = defect <= tol_herm and mineig >= -tol_psd * max(trace, 1.0)
    return DensityReport(defect, mineig, trace, ok)


def density_from_state(psi) -> np.ndarray:
    """Rank-one density psi psi* of a (possibly unnormalized) state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v.view(float))):
        raise ContractViolation("state vector has non-finite components")
    return np.outer(v, v.conj())


def intensity(rho) -> float:
    return float(np.trace(as_square(rho, "rho")).real)


def normalize(rho) -> np.ndarray:
    """Rescale a density matrix to unit trace; rejects the dark state."""
    m = as_square(rho, "rho")
    tr = float(np.trace(m).real)
    if tr <= 0.0:
        raise ContractViolation(f"cannot normalize state with trace {tr}")
    return m / tr


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    diff = as_square(a) - as_square(b)
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
