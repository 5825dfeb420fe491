"""Discrete quantum measures, scales, detectors, and response statistics.

A quantum measure is a finite family of PSD Hermitian operators summing to
the identity; together with a scale (distinct outcome values, scalar or
vector) it forms a detector.  Response rates are tr(rho P_k), and the
operator measured by a detector is A = sum_k a_k P_k.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .ops import (PAULI, TOL_PSD, _breach, _design, _Frozen, as_square, hermitian_defect,
                  min_eigenvalue, numerical_rank, square_stack)


class QuantumMeasure(_Frozen):
    """Family of K Hermitian PSD operators on C^d summing to the identity.

    Elements are stored as a (K, d, d) complex array and indexed 0..K-1;
    event labels in the simulator are 1-based with 0 reserved for null.
    """

    __slots__ = ("elements",)

    def __init__(self, elements):
        self._fill(square_stack(elements, "measure element"))

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    def sum_defect(self) -> float:
        total = self.elements.sum(axis=0)
        return float(np.max(np.abs(total - np.eye(self.dim))))


class MeasureReport(NamedTuple):
    min_eigenvalues: np.ndarray
    sum_defect: float
    hermitian_defect: float
    all_nonzero: bool
    ok: bool


def validate_measure(measure: QuantumMeasure, tol: float = TOL_PSD) -> MeasureReport:
    """Hermiticity, PSD and sum-to-identity check.  ok: ops.require_hermitian accepts the
    elements (dimensionless, tol for both tests) and their sum lies within tol of the identity;
    the other fields are absolute.  A zero element never responds (the ideal-cascade remainder
    is the one place it legitimately appears), so all_nonzero is informational, not fatal."""
    elements = measure.elements
    defect = measure.sum_defect()
    ok = defect <= tol and _breach(elements, tol, tol, True) is None
    return MeasureReport(min_eigenvalue(elements), defect, float(hermitian_defect(elements).max()),
                         bool(np.abs(elements).max(axis=(1, 2)).all()), ok)


def _scale_values(scale) -> np.ndarray:
    """A scale as a complex array of one row of values per element; 1-D is one scalar each."""
    values = np.asarray(scale, dtype=complex)
    return values[:, None] if values.ndim == 1 else values


class Detector(_Frozen):
    """A quantum measure plus a scale of distinct outcome values.

    The scale is stored as a (K, m) complex array; scalar scales have m = 1.
    Repeated values normally signal a labeling mistake and are rejected, but
    a minimal informationally complete measure can force repeats when the
    scale is chosen to reproduce a given operator, so they can be allowed
    explicitly.
    """

    __slots__ = ("measure", "scale", "allow_repeated_values")

    def __init__(self, measure: QuantumMeasure, scale, allow_repeated_values: bool = False):
        values = _scale_values(scale)
        if values.ndim != 2 or values.shape[0] != len(measure):
            raise ContractViolation(
                f"scale has {values.shape[0] if values.ndim else 0} values "
                f"for {len(measure)} detection elements"
            )
        if not allow_repeated_values:  # NaN never equals, so NaN rows never coincide
            pairs = np.argwhere(np.triu((values[:, None] == values[None]).all(axis=2), 1))
            if pairs.size:
                j, k = pairs[0]
                raise ContractViolation(f"scale values {j} and {k} coincide; values must be distinct")
        self._fill(measure, values, allow_repeated_values)


def response_probabilities(measure: QuantumMeasure, rho) -> np.ndarray:
    """Mean response rates p_k = tr(rho P_k); they sum to the intensity.  ContractViolation when
    an imaginary part or a negative rate exceeds ops.TOL_PSD, or the sum misses the intensity by
    more than K times that, each relative to max(1, |tr rho|)."""
    r = as_square(rho, "rho")
    if r.shape[0] != measure.dim:
        raise ContractViolation(
            f"state dimension {r.shape[0]} does not match measure dimension {measure.dim}"
        )
    raw = np.einsum("kij,ji->k", measure.elements, r)
    scale = max(1.0, float(np.abs(np.trace(r))))
    if np.max(np.abs(raw.imag)) > TOL_PSD * scale:
        raise ContractViolation(
            f"response rates have imaginary part {np.max(np.abs(raw.imag)):.3e}; "
            "inputs are not Hermitian enough"
        )
    p = raw.real
    if p.min() < -TOL_PSD * scale:
        raise ContractViolation(f"negative response rate {p.min():.3e}")
    total = p.sum()
    target = float(np.trace(r).real)
    if abs(total - target) > TOL_PSD * scale * len(measure):
        raise ContractViolation(
            f"rates sum to {total}, expected the intensity {target}"
        )
    return p


def measured_quantity(det: Detector) -> np.ndarray:
    """Operator A = sum_k a_k P_k measured by the detector.

    Returns a (d, d) matrix for scalar scales, else an (m, d, d) stack.
    """
    a = np.einsum("km,kij->mij", det.scale, det.measure.elements)
    return a[0] if a.shape[0] == 1 else a


class CompletenessReport(NamedTuple):
    rank: int
    complete: bool
    minimal: bool


def informational_completeness(measure: QuantumMeasure) -> CompletenessReport:
    """Real-linear rank of the elements in Hermitian space: the numerical_rank of their design
    (ops._design), the rule by which every reconstruction judges the same design."""
    rank = numerical_rank(_design(measure.elements)[3])
    d2 = measure.dim ** 2
    complete = rank == d2
    return CompletenessReport(rank, complete, complete and len(measure) == d2)


def projective_measure(vectors) -> QuantumMeasure:
    """Rank-one projective measure from the columns of an orthonormal matrix."""
    u = np.asarray(vectors, dtype=complex)
    return QuantumMeasure([np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[1])])


def pauli_six_measure() -> QuantumMeasure:
    """Six-element qubit measure (1 +/- sigma_i)/6; informationally complete."""
    elements = []
    for sigma in PAULI[1:]:
        elements.append((np.eye(2) + sigma) / 6.0)
        elements.append((np.eye(2) - sigma) / 6.0)
    return QuantumMeasure(elements)


def tetrahedron_measure() -> QuantumMeasure:
    """Minimal informationally complete qubit measure from tetrahedron axes."""
    vs = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3.0)
    elements = []
    for v in vs:
        m = np.eye(2, dtype=complex)
        for c, sigma in zip(v, PAULI[1:]):
            m = m + c * sigma
        elements.append(m / 4.0)
    return QuantumMeasure(elements)
