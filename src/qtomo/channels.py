"""Superoperators, the Choi transform, Kraus extraction, filter classification.

Conventions, fixed project-wide:

* vectorization is row-major, vec(X)[d*i + j] = X[i, j], so that
  vec(A X B) = (A kron B^T) vec(X);
* a superoperator is stored as its d^2 x d^2 matrix acting on vec(X);
* the Choi transform swaps the middle indices of the 4-index tensor.  In the
  row-major layout the transformed matrix of a map with Kraus operators T_l
  is sum_l vec(T_l) vec(T_l)^dagger, Hermitian and PSD exactly for
  completely positive maps.

Each Kraus-map quantity is one stacked product over the operators; the Choi
matrix is the Gram product V^T conj(V) of the rows V_l = vec(T_l).  One rule
decides complete positivity, in is_completely_positive and kraus_from_choi:
the Choi matrix is Hermitian within tol, and its least eigenvalue is at least
-tol * max(largest eigenvalue, 1), so the rule does not depend on the scale.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .ops import _Frozen, as_square, hermitian_defect, hermitian_part, square_stack

CP_TOL = 1e-9


def vec(x) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ContractViolation(f"cannot reshape length {v.size} into a square matrix")
    return v.reshape(d, d)


def superop_dim(e) -> int:
    m = as_square(e, "superoperator")
    d = int(round(np.sqrt(m.shape[0])))
    if d * d != m.shape[0]:
        raise ContractViolation(
            f"superoperator matrix must be d^2 x d^2, got {m.shape}"
        )
    return d


def apply_superop(e, x) -> np.ndarray:
    """Image E(X) of a matrix under a superoperator."""
    m = as_square(e, "superoperator")
    d = superop_dim(m)
    xm = as_square(x, "X")
    if xm.shape[0] != d:
        raise ContractViolation(
            f"operand is {xm.shape[0]}x{xm.shape[0]}, superoperator acts on {d}x{d}"
        )
    return unvec(m @ vec(xm), d)


def superop_from_kraus(kraus) -> np.ndarray:
    """Superoperator matrix of X -> sum_l T_l X T_l*."""
    ops = square_stack(kraus, "Kraus operator")
    v = ops.reshape(len(ops), -1)  # row l is vec(T_l)
    return swap_middle(v.T @ v.conj(), ops.shape[1])


def kraus_apply(kraus, x) -> np.ndarray:
    ops = square_stack(kraus, "Kraus operator")
    xm = as_square(x, "X")
    if xm.shape != ops.shape[1:]:
        raise ContractViolation(f"X is {xm.shape}, the Kraus operators are {ops.shape[1:]}")
    return (ops @ xm @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def superop_from_action(action, d: int) -> np.ndarray:
    """Superoperator matrix of an arbitrary linear map given as a callable."""
    e = np.zeros((d * d, d * d), dtype=complex)
    for m, unit in enumerate(np.eye(d * d, dtype=complex).reshape(d * d, d, d)):
        e[:, m] = vec(as_square(action(unit), "image"))
    return e


def choi_transform(e) -> np.ndarray:
    """Swap the middle tensor indices; an exact linear involution."""
    m = as_square(e, "superoperator")
    return swap_middle(m, superop_dim(m))


def swap_middle(m, d: int) -> np.ndarray:
    """choi_transform of each matrix in a stack (..., d^2, d^2), without input checks."""
    return m.reshape(*m.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(m.shape)


class CPReport(NamedTuple):
    hermitian_defect: float
    min_choi_eigenvalue: float
    cp: bool


def is_completely_positive(e, tol: float = CP_TOL) -> CPReport:
    """Complete positivity via Hermiticity and spectrum of the Choi matrix."""
    choi = choi_transform(e)
    defect = hermitian_defect(choi)
    evals = np.linalg.eigvalsh(hermitian_part(choi))
    low, top = float(evals[0]), float(evals[-1])
    return CPReport(defect, low, defect <= tol and low >= -tol * max(top, 1.0))


def kraus_from_choi(choi, tol: float = CP_TOL) -> list[np.ndarray]:
    """Canonical Kraus operators from the eigendecomposition of a Choi matrix.

    Eigenvalues below tol (relative to the largest) are treated as zero, so
    the number of operators equals the numerical Choi rank.  Operators are
    ordered by descending eigenvalue; each eigenvector's phase is fixed by
    making its first nonnegligible component real positive.
    """
    c = as_square(choi, "Choi matrix")
    d = superop_dim(c)
    defect = hermitian_defect(c)
    if defect > tol:
        raise ContractViolation(
            f"not completely positive: Choi matrix has Hermitian defect {defect:.3e}"
        )
    evals, evecs = np.linalg.eigh(hermitian_part(c))
    top = float(evals[-1])
    if float(evals[0]) < -tol * max(top, 1.0):  # is_completely_positive's rule
        raise ContractViolation(
            f"not completely positive: min Choi eigenvalue {evals[0]:.3e}"
        )
    if top <= tol:
        raise ContractViolation("Choi matrix is numerically zero; no Kraus expansion")
    ops = []
    cutoff = tol * top
    for lam, v in sorted(zip(evals, evecs.T), key=lambda p: -p[0]):
        if lam <= cutoff:
            break
        idx = np.argmax(np.abs(v) > 1e-12)
        phase = v[idx] / abs(v[idx])
        ops.append(np.sqrt(lam) * unvec(v / phase, d))
    return ops


def kraus_from_superop(e, tol: float = CP_TOL) -> list[np.ndarray]:
    return kraus_from_choi(choi_transform(e), tol)


def choi_rank(e, tol: float = CP_TOL) -> int:
    choi = choi_transform(e)
    evals = np.abs(np.linalg.eigvalsh(hermitian_part(choi)))
    return int(np.sum(evals > tol * evals.max(initial=0.0)))  # 0 for the zero map


def pi_operator(kraus) -> np.ndarray:
    """Intensity operator sum_l T_l* T_l: output intensity is tr(pi rho)."""
    ops = square_stack(kraus, "Kraus operator")
    return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


class FilterClass(NamedTuple):
    lossless: bool
    passive: bool
    active: bool
    mixing: bool


def classify_filter(kraus, tol: float = CP_TOL) -> FilterClass:
    """Lossless/passive/active from the intensity operator, mixing from Choi rank."""
    pi = pi_operator(kraus)
    d = pi.shape[0]
    lossless = float(np.max(np.abs(pi - np.eye(d)))) <= tol
    top = float(np.linalg.eigvalsh(hermitian_part(pi))[-1])
    passive = top <= 1.0 + tol
    mixing = choi_rank(superop_from_kraus(kraus), tol) > 1
    return FilterClass(lossless, passive, not passive, mixing)


class Instrument(_Frozen):
    """Indexed family of CP maps, each given by its Kraus operators.

    Branch j of the instrument transforms the input as rho -> E_j(rho) and
    responds with rate tr(pi(E_j) rho).  Branches are labelled 1..J in event
    logs; the label 0 is reserved for the appended null branch that absorbs
    the remaining rate.
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        branches = tuple(tuple(branch) for branch in branches)
        if not branches or any(len(b) == 0 for b in branches):
            raise ContractViolation("instrument needs at least one nonempty branch")
        # one check of every Kraus operator, numbered across the branches in order
        ops = iter(square_stack([t for b in branches for t in b], "instrument Kraus operator"))
        self._fill(tuple(tuple(next(ops) for _ in b) for b in branches))

    @property
    def dim(self) -> int:
        return self.branches[0][0].shape[0]

    def __len__(self) -> int:
        return len(self.branches)

    def pi_operators(self) -> list[np.ndarray]:
        return [pi_operator(branch) for branch in self.branches]

    def total_pi(self) -> np.ndarray:
        return np.sum(self.pi_operators(), axis=0)

    def null_kraus(self, tol: float = CP_TOL) -> list[np.ndarray]:
        """Kraus set of the null branch completing the rates to the intensity."""
        residue = np.eye(self.dim) - self.total_pi()
        evals, evecs = np.linalg.eigh(hermitian_part(residue))
        if float(evals[0]) < -tol:
            raise ContractViolation(
                f"super-unital instrument: branch rates exceed the intensity "
                f"(residue min eigenvalue {evals[0]:.3e})"
            )
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
        return [root.astype(complex)]
