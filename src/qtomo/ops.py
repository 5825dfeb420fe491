"""Complex-matrix primitives: Hermitian checks, operator bases, quantum values.

Density matrices carry the source intensity in their trace, so traces are not
forced to one here; a probability-like operation refuses a state whose trace
is not one (``_unit_intensity``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation

# Hermiticity and PSD defects are judged relative to each operator's scale (require_hermitian);
# both cover accumulated rounding at dimensions up to a few dozen.
TOL_HERM = 1e-10
TOL_PSD = 1e-9
RANK_RTOL = 1e-10  # a design's rank counts its singular values above this share of the largest
_UNIT_TOL = 1e-9  # a probability-like operation takes a state whose trace is within this of one

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)


class _Frozen:
    """Base of the records that check their fields: immutable slots, each set once by __init__
    through _fill, in the order of __slots__, which is the order of the fields."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild the record through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def as_square(a, name="matrix", stack=False) -> np.ndarray:
    """Coerce to a square complex ndarray, with stack=True also to a stack (..., d, d) of them, or
    raise ContractViolation."""
    m = np.asarray(a, dtype=complex)
    if not (m.ndim == 2 or stack and m.ndim > 2) or m.shape[-1] != m.shape[-2]:
        raise ContractViolation(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation(f"{name} has non-finite entries")
    return m


def square_stack(matrices, name="matrix") -> np.ndarray:
    """(n, d, d) complex stack of n >= 1 finite square matrices of one size, else ContractViolation
    naming the first offender: matrix i is checked by as_square as f"{name} {i}", or as name[i]
    when name is a list of one name per matrix."""
    mats = list(matrices)
    names = name if isinstance(name, list) else [f"{name} {i}" for i in range(len(mats))]
    mats = [as_square(m, n) for m, n in zip(mats, names)]
    if not mats:
        raise ContractViolation(f"need at least one {name}")
    d = mats[0].shape[0]
    for m, n in zip(mats, names):
        if m.shape[0] != d:
            raise ContractViolation(f"{n} is {m.shape[0]}x{m.shape[0]}, expected {d}x{d}")
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


def hermitian_part(a) -> np.ndarray:
    """(a + a*)/2 of a matrix, or of each matrix of a stack (..., d, d).  Halving before the sum
    keeps it finite for finite entries; where no part is below 2**-1021 in magnitude (zero
    aside) and no sum overflows, it equals the halved sum but perhaps for the sign of a zero."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * a + 0.5 * np.swapaxes(a, -1, -2).conj()


def hermitian_defect(a):
    """Max-norm distance from a matrix to its adjoint (inf beyond the float range); for a stack
    (..., d, d), the array of the distances of its matrices."""
    m = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore"):
        defect = np.abs(m - np.swapaxes(m, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)
    return float(defect) if m.ndim == 2 else defect


def min_eigenvalue(a):
    """Smallest eigenvalue of the Hermitian part of a square matrix; for a stack (..., d, d), the
    array of the smallest eigenvalues of its matrices."""
    m = as_square(a, stack=True)
    low = np.linalg.eigvalsh(hermitian_part(m))[..., 0]
    return float(low) if m.ndim == 2 else low


def quantum_value(rho, X):
    """Value tr(rho X) that the state rho assigns to the operator X; for a stack X (..., d, d),
    the array of the values of its operators."""
    r = as_square(rho, "rho")
    x = as_square(X, "X", stack=True)
    if r.shape != x.shape[-2:]:
        raise ContractViolation(f"dimension mismatch: rho is {r.shape}, X is {x.shape}")
    value = np.trace(r @ x, axis1=-2, axis2=-1)
    return complex(value) if x.ndim == 2 else value


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


def _breach(stack, tol_herm, tol_psd, dimensionless):
    """(i, fault) of the first matrix of a stack (n, d, d) require_hermitian refuses, or None."""
    if dimensionless:
        scale = np.maximum(np.trace(stack, axis1=-2, axis2=-1).real, 1.0)
    else:
        scale = np.abs(stack).max(axis=(-2, -1), initial=0.0)
        scale[scale == 0] = 1.0  # the zero matrix has no defect to scale
    for what, flag, tol, defect in (("Hermitian", "herm", tol_herm, hermitian_defect),
                                    ("PSD", "psd", tol_psd, lambda m: -min_eigenvalue(m))):
        if tol is None:  # no PSD test
            return None
        defects = defect(stack) / scale
        bad = np.flatnonzero(~(defects <= tol))
        if bad.size:
            return bad[0], f"{what} defect {defects[bad[0]]:.3e} exceeds --tol-{flag} {tol!r}"
    return None


def require_hermitian(stack, names, tol_herm: float = TOL_HERM, tol_psd: float | None = None,
                      dimensionless: bool = False) -> np.ndarray:
    """The stack (n, d, d), or the one matrix named by the string names, unless a matrix's
    Hermitian defect or, given tol_psd, its PSD defect (minus its least eigenvalue) over its scale
    exceeds the tolerance: "<name>: Hermitian defect <d> exceeds --tol-herm <tol>", or the same
    with PSD and --tol-psd (ContractViolation, for the first offender).  The scale is max(Re
    trace, 1) if dimensionless (a state, a measure element), else the max-norm (H, V, ...)."""
    one = stack.ndim == 2
    breach = _breach(stack[None] if one else stack, tol_herm, tol_psd, dimensionless)
    if breach is not None:
        raise ContractViolation(f"{names if one else names[breach[0]]}: {breach[1]}")
    return stack


class DensityReport(NamedTuple):
    hermitian_defect: float
    min_eigenvalue: float
    trace: float
    ok: bool


def validate_density(rho, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> DensityReport:
    """The absolute Hermitian defect, least eigenvalue and trace of a density matrix, and ok:
    whether require_hermitian accepts it as a state (dimensionless) with these tolerances."""
    m = as_square(rho, "rho")
    ok = _breach(m[None], tol_herm, tol_psd, True) is None
    return DensityReport(hermitian_defect(m), min_eigenvalue(m), float(np.trace(m).real), ok)


def density_from_state(psi) -> np.ndarray:
    """Rank-one density psi psi* of a (possibly unnormalized) state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(v.view(float))):
        raise ContractViolation("state vector has non-finite components")
    return np.outer(v, v.conj())


def _unit_intensity(rho, name="rho") -> np.ndarray:
    """The square matrix rho, unless its trace lies farther than _UNIT_TOL from one: the check of
    every probability-like operation (ContractViolation naming the trace)."""
    r = as_square(rho, name)
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > _UNIT_TOL:
        raise ContractViolation(f"{name} must have unit intensity, trace is {tr}")
    return r


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    half_diff = hermitian_part(as_square(a) / 2 - as_square(b) / 2)
    return float(np.sum(np.abs(np.linalg.eigvalsh(half_diff))))
