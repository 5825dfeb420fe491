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
RANK_RTOL = 1e-10  # a design's rank counts its singular values above this share of the largest

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


def square_stack(matrices, name="matrix") -> np.ndarray:
    """(n, d, d) complex stack of n >= 1 finite square matrices of one size, else ContractViolation
    naming the first offender: matrix i is checked by as_square as f"{name} {i}"."""
    mats = [as_square(m, f"{name} {i}") for i, m in enumerate(matrices)]
    if not mats:
        raise ContractViolation(f"need at least one {name}")
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise ContractViolation(f"{name} {i} is {m.shape[0]}x{m.shape[0]}, expected {d}x{d}")
    return np.stack(mats)


def real_traces(a, b) -> np.ndarray:
    """Matrix of Re tr(a_i b_j) over two stacks of d x d matrices, as one matrix product; with
    b = hermitian_basis(d), the coefficients on that basis of the Hermitian parts of the a_i."""
    return (a.reshape(len(a), -1) @ np.swapaxes(b, 1, 2).reshape(len(b), -1).T).real


def _design(operators):
    """(basis, m, u, sing, vt): the design m[k, a] = Re tr(O_k B_a) of a (n, d, d) stack of
    Hermitian operators on basis = hermitian_basis(d), and its thin SVD.  The basis is orthonormal,
    so sing are the singular values of [Re vec O_k, Im vec O_k]: they judge the operators alone."""
    basis = hermitian_basis(operators.shape[1])
    m = real_traces(operators, basis)
    return (basis, m, *np.linalg.svd(m, full_matrices=False))


def numerical_rank(sing) -> int:
    """Rank of a design from its descending singular values: those above RANK_RTOL times sing[0]."""
    return int(np.sum(sing > sing[0] * RANK_RTOL)) if sing.size and sing[0] > 0 else 0


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
    """Orthonormal basis of d^2 Hermitian matrices, tr(B_a B_b) = delta_ab, as a (d^2, d, d) array.

    The generalised Gell-Mann matrices over sqrt(2) (Bertlmann & Krammer, J. Phys. A 41,
    235303, 2008), in this order: I / sqrt(d), the diagonal (sum_{j<l} e_jj - l e_ll)
    / sqrt(l (l+1)) for l = 1..d-1, then (e_jk + e_kj) / sqrt(2) for all j < k in row-major
    order, then (i e_kj - i e_jk) / sqrt(2) in the same order.  At d = 2: I, sigma_3, sigma_1,
    sigma_2 over sqrt(2)."""
    if d < 1:
        raise ContractViolation(f"dimension must be >= 1, got {d}")
    basis = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    basis[0, diag, diag] = 1.0 / np.sqrt(d)
    level = diag[1:, None]
    basis[level, diag, diag] = (np.tri(d, k=-1) - np.diag(diag))[1:] / np.sqrt(level * (level + 1))
    j, k = np.triu_indices(d, 1)
    sym, antisym = d + np.arange(j.size), d + j.size + np.arange(j.size)
    basis[sym, j, k] = basis[sym, k, j] = np.sqrt(0.5)
    basis[antisym, j, k], basis[antisym, k, j] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    return basis


def expand_hermitian(h) -> np.ndarray:
    """Real coefficients x_a = Re tr(h B_a) on hermitian_basis, so that h = sum_a x_a B_a for a
    Hermitian h (the basis is orthonormal); for any square h they give its Hermitian part."""
    m = as_square(h)
    return real_traces(m[None], hermitian_basis(m.shape[0]))[0]


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
