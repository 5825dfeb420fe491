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
matrix is the Gram product V^T conj(V) of the rows V_l = vec(T_l).  Every
verdict is a rule of ops: a map is completely positive when its Choi matrix
passes ops.require_hermitian as a dimensionless operator (scale max(trace, 1)),
a Choi rank counts the eigenvalues, negative ones clipped to zero, by
ops.numerical_rank, so it is the number of canonical Kraus operators, and a
filter or an instrument is passive when I - pi passes the same check as its
Choi matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .ops import (TOL_HERM, TOL_PSD, _breach, _Frozen, as_square, hermitian_defect,
                  hermitian_part, min_eigenvalue, numerical_rank, require_hermitian, square_stack)


def vec(x) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
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


def is_completely_positive(e) -> CPReport:
    """The absolute Hermitian defect and least eigenvalue of the Choi matrix, and cp: whether
    ops.require_hermitian accepts it as a dimensionless operator at the library tolerances."""
    choi = choi_transform(e)
    cp = _breach(choi[None], TOL_HERM, TOL_PSD, True) is None
    return CPReport(hermitian_defect(choi), min_eigenvalue(choi), cp)


def _choi_spectrum(choi):
    """(eigenvalues, eigenvectors) of a Choi matrix's Hermitian part, in descending order, the
    negative eigenvalues clipped to zero: what kraus_from_choi and choi_rank count."""
    evals, evecs = np.linalg.eigh(hermitian_part(choi))
    order = np.argsort(-evals, kind="stable")
    return np.clip(evals[order], 0.0, None), evecs[:, order]


def kraus_from_choi(choi, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> list[np.ndarray]:
    """Canonical Kraus operators from the eigendecomposition of a Choi matrix.

    The matrix must pass ops.require_hermitian as a dimensionless operator.  Its spectrum,
    negative eigenvalues clipped to zero, gives one operator per eigenvalue that
    ops.numerical_rank counts, so the number of operators is the numerical Choi rank.
    Operators are ordered by descending eigenvalue; each eigenvector's phase is fixed by making
    its first nonnegligible component real positive.
    """
    c = as_square(choi, "Choi matrix")
    d = superop_dim(c)
    require_hermitian(c, "not completely positive: Choi matrix", tol_herm, tol_psd,
                      dimensionless=True)
    spectrum, evecs = _choi_spectrum(c)
    rank = numerical_rank(spectrum)
    if rank == 0:
        raise ContractViolation("Choi matrix is numerically zero; no Kraus expansion")
    ops = []
    for lam, v in zip(spectrum[:rank], evecs[:, :rank].T):
        idx = np.argmax(np.abs(v) > 1e-12)
        phase = v[idx] / abs(v[idx])
        ops.append(np.sqrt(lam) * unvec(v / phase, d))
    return ops


def kraus_from_superop(e) -> list[np.ndarray]:
    return kraus_from_choi(choi_transform(e))


def choi_rank(e) -> int:
    """ops.numerical_rank of the Choi spectrum, negative eigenvalues clipped to zero: the number
    of operators kraus_from_choi returns; 0 for the zero map."""
    return numerical_rank(_choi_spectrum(choi_transform(e))[0])


def pi_operator(kraus) -> np.ndarray:
    """Intensity operator sum_l T_l* T_l: output intensity is tr(pi rho)."""
    ops = square_stack(kraus, "Kraus operator")
    return (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)


def _require_passive(pi, name: str) -> np.ndarray:
    """The residue I - pi of an intensity operator pi, unless it fails ops.require_hermitian as a
    dimensionless operator at the library tolerances (ContractViolation naming name)."""
    return require_hermitian(np.eye(len(pi)) - pi, name, TOL_HERM, TOL_PSD, dimensionless=True)


class FilterClass(NamedTuple):
    lossless: bool
    passive: bool
    active: bool
    mixing: bool
    choi_rank: int


def classify_filter(kraus, tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD) -> FilterClass:
    """Passive when I - pi passes ops.require_hermitian as a dimensionless operator, lossless
    when max|pi - I| <= tol_psd (the sum-defect rule of a measure), active when not passive,
    mixing when the Choi rank exceeds one."""
    pi = pi_operator(kraus)
    identity = np.eye(len(pi))
    lossless = float(np.max(np.abs(pi - identity))) <= tol_psd
    passive = _breach((identity - pi)[None], tol_herm, tol_psd, True) is None
    rank = choi_rank(superop_from_kraus(kraus))
    return FilterClass(lossless, passive, not passive, rank > 1, rank)


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

    def null_kraus(self) -> list[np.ndarray]:
        """Kraus set of the null branch completing the rates to the intensity: the root of the
        residue I - pi, pi the intensity operator of every branch's Kraus operators."""
        residue = _require_passive(pi_operator([t for branch in self.branches for t in branch]),
                                   "super-unital instrument: branch rates exceed the intensity: "
                                   "residue I - pi")
        evals, evecs = np.linalg.eigh(hermitian_part(residue))
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
        return [root.astype(complex)]
