"""Superoperators, the Choi transform, Kraus extraction, filter classification.

Conventions, fixed project-wide:

* vectorization is row-major, vec(X)[d*i + j] = X[i, j], so that
  vec(A X B) = (A kron B^T) vec(X);
* a superoperator is stored as its d^2 x d^2 matrix acting on vec(X);
* the Choi transform swaps the middle indices of the 4-index tensor.  In the
  row-major layout the transformed matrix of a map with Kraus operators T_l
  is sum_l vec(T_l) vec(T_l)^dagger, Hermitian and PSD exactly for
  completely positive maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .ops import as_square, hermitian_defect

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
    ops = [as_square(t, f"Kraus operator {i}") for i, t in enumerate(kraus)]
    if not ops:
        raise ContractViolation("need at least one Kraus operator")
    d = ops[0].shape[0]
    e = np.zeros((d * d, d * d), dtype=complex)
    for t in ops:
        if t.shape[0] != d:
            raise ContractViolation("Kraus operators must share one dimension")
        e += np.kron(t, t.conj())
    return e


def kraus_apply(kraus, x) -> np.ndarray:
    out = np.zeros_like(as_square(x))
    for t in kraus:
        out = out + t @ x @ t.conj().T
    return out


def superop_from_action(action, d: int) -> np.ndarray:
    """Superoperator matrix of an arbitrary linear map given as a callable."""
    e = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[j, k] = 1.0
            e[:, d * j + k] = vec(as_square(action(basis), "image"))
    return e


def choi_transform(e) -> np.ndarray:
    """Swap the middle tensor indices; an exact linear involution."""
    m = as_square(e, "superoperator")
    return swap_middle(m, superop_dim(m))


def swap_middle(m, d: int) -> np.ndarray:
    """choi_transform of each matrix in a stack (..., d^2, d^2), without input checks."""
    return m.reshape(*m.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(m.shape)


# The inverse direction is the same index permutation.
superop_from_choi = choi_transform


@dataclass(frozen=True)
class CPReport:
    hermitian_defect: float
    min_choi_eigenvalue: float
    cp: bool


def is_completely_positive(e, tol: float = CP_TOL) -> CPReport:
    """Complete positivity via Hermiticity and spectrum of the Choi matrix."""
    choi = choi_transform(e)
    defect = hermitian_defect(choi)
    sym = 0.5 * (choi + choi.conj().T)
    mineig = float(np.linalg.eigvalsh(sym)[0])
    return CPReport(defect, mineig, defect <= tol and mineig >= -tol)


def is_hermiticity_preserving(e, tol: float = CP_TOL) -> bool:
    """Whether E(X*) = E(X)* , equivalently whether the Choi matrix is Hermitian."""
    return hermitian_defect(choi_transform(e)) <= tol


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
    evals, evecs = np.linalg.eigh(0.5 * (c + c.conj().T))
    top = float(evals[-1])
    if top <= tol:
        if float(evals[0]) < -tol:
            raise ContractViolation(
                f"not completely positive: min Choi eigenvalue {evals[0]:.3e}"
            )
        raise ContractViolation("Choi matrix is numerically zero; no Kraus expansion")
    if float(evals[0]) < -tol * max(top, 1.0):
        raise ContractViolation(
            f"not completely positive: min Choi eigenvalue {evals[0]:.3e}"
        )
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
    evals = np.abs(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)))
    top = float(evals.max()) if evals.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(evals > tol * top))


def pi_operator(kraus) -> np.ndarray:
    """Intensity operator sum_l T_l* T_l: output intensity is tr(pi rho)."""
    ops = [as_square(t) for t in kraus]
    if not ops:
        raise ContractViolation("need at least one Kraus operator")
    out = np.zeros_like(ops[0])
    for t in ops:
        out = out + t.conj().T @ t
    return out


@dataclass(frozen=True)
class FilterClass:
    lossless: bool
    passive: bool
    active: bool
    mixing: bool


def classify_filter(kraus, tol: float = CP_TOL) -> FilterClass:
    """Lossless/passive/active from the intensity operator, mixing from Choi rank."""
    pi = pi_operator(kraus)
    d = pi.shape[0]
    lossless = float(np.max(np.abs(pi - np.eye(d)))) <= tol
    top = float(np.linalg.eigvalsh(0.5 * (pi + pi.conj().T))[-1])
    passive = top <= 1.0 + tol
    mixing = choi_rank(superop_from_kraus(kraus), tol) > 1
    return FilterClass(lossless, passive, not passive, mixing)


@dataclass(frozen=True)
class Instrument:
    """Indexed family of CP maps, each given by its Kraus operators.

    Branch j of the instrument transforms the input as rho -> E_j(rho) and
    responds with rate tr(pi(E_j) rho).  Branches are labelled 1..J in event
    logs; the label 0 is reserved for the appended null branch that absorbs
    the remaining rate.
    """

    branches: tuple

    def __post_init__(self):
        norm = tuple(tuple(as_square(t) for t in branch) for branch in self.branches)
        if not norm or any(len(b) == 0 for b in norm):
            raise ContractViolation("instrument needs at least one nonempty branch")
        d = norm[0][0].shape[0]
        for branch in norm:
            for t in branch:
                if t.shape[0] != d:
                    raise ContractViolation("instrument branches must share one dimension")
        object.__setattr__(self, "branches", norm)

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
        evals, evecs = np.linalg.eigh(0.5 * (residue + residue.conj().T))
        if float(evals[0]) < -tol:
            raise ContractViolation(
                f"super-unital instrument: branch rates exceed the intensity "
                f"(residue min eigenvalue {evals[0]:.3e})"
            )
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
        return [root.astype(complex)]
