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
from .ops import (PAULI, TOL_PSD, _breach, _design, _Frozen, _unit_intensity, as_square,
                  hermitian_defect, hermitian_part, min_eigenvalue, numerical_rank,
                  require_hermitian, square_stack)


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

    @property
    def n_components(self) -> int:
        return self.scale.shape[1]


def response_probabilities(measure: QuantumMeasure, rho, tol: float = 1e-9) -> np.ndarray:
    """Mean response rates p_k = tr(rho P_k); they sum to the intensity."""
    r = as_square(rho, "rho")
    if r.shape[0] != measure.dim:
        raise ContractViolation(
            f"state dimension {r.shape[0]} does not match measure dimension {measure.dim}"
        )
    raw = np.einsum("kij,ji->k", measure.elements, r)
    scale = max(1.0, float(np.abs(np.trace(r))))
    if np.max(np.abs(raw.imag)) > tol * scale:
        raise ContractViolation(
            f"response rates have imaginary part {np.max(np.abs(raw.imag)):.3e}; "
            "inputs are not Hermitian enough"
        )
    p = raw.real
    if p.min() < -tol * scale:
        raise ContractViolation(f"negative response rate {p.min():.3e}")
    total = p.sum()
    target = float(np.trace(r).real)
    if abs(total - target) > tol * scale * len(measure):
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


def statistical_expectation(det: Detector, rho, f=None, tol: float = 1e-9):
    """Expectation sum_k p_k f(a_k) of a function of the outcome values.

    Requires a unit-intensity state so rates are probabilities; f defaults
    to the identity, giving the mean outcome (Born's rule in expectation
    form: it equals tr(rho A) for A the measured quantity).
    """
    r = _unit_intensity(rho, tol=tol)
    p = response_probabilities(det.measure, r, tol)
    values = det.scale[:, 0] if det.n_components == 1 else det.scale
    if f is None:
        terms = [pk * ak for pk, ak in zip(p, values)]
    else:
        terms = [pk * np.asarray(f(ak)) for pk, ak in zip(p, values)]
    out = np.sum(np.stack([np.atleast_1d(np.asarray(t, dtype=complex)) for t in terms]), axis=0)
    return complex(out[0]) if out.shape == (1,) else out


def is_projective(measure: QuantumMeasure, tol: float = 1e-10):
    """Whether P_j P_k = delta_jk P_k holds; returns (flag, max defect)."""
    defect = 0.0
    for j, pj in enumerate(measure.elements):
        for k, pk in enumerate(measure.elements):
            target = pk if j == k else 0.0
            defect = max(defect, float(np.max(np.abs(pj @ pk - target))))
    return defect <= tol, defect


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


def _completed(elements, tol: float, what: str) -> QuantumMeasure:
    """The measure of elements and their remainder 1 - sum P_k, appended last, unless the
    remainder's smallest eigenvalue is below -tol ("{what} has min eigenvalue ...")."""
    elements = np.asarray(elements, dtype=complex)
    remainder = np.eye(elements.shape[-1], dtype=complex) - elements.sum(axis=0)
    low = min_eigenvalue(remainder)
    if low < -tol:
        raise ContractViolation(f"{what} has min eigenvalue {low:.3e}")
    return QuantumMeasure([*elements, remainder])


def coherent_partition_measure(
    n_max: int,
    cells,
    radius: float,
    n_radial: int = 200,
    n_angular: int = 64,
    tol: float = 1e-9,
) -> QuantumMeasure:
    """Finite-resolution phase-space measure from a partition of unity.

    Each cell weight e_k (a function of the complex phase-space point alpha,
    nonnegative, with the cells summing to one on the disc of the given
    radius) yields an element (1/pi) * integral of e_k(alpha) |alpha><alpha|
    over the disc, evaluated by a midpoint rule on a polar grid and truncated
    to the number-state levels 0..n_max.  A remainder element 1 - sum P_k is
    appended so the family sums to the identity exactly; if truncation or the
    region make the remainder indefinite, the construction fails.
    """
    if n_max < 0 or radius <= 0 or n_radial < 1 or n_angular < 1:
        raise ContractViolation("need n_max >= 0, radius > 0 and a nonempty grid")
    dim = n_max + 1
    dr = radius / n_radial
    dtheta = 2.0 * np.pi / n_angular
    r = (np.arange(n_radial) + 0.5) * dr
    theta = (np.arange(n_angular) + 0.5) * dtheta
    alpha = r[:, None] * np.exp(1j * theta[None, :])
    weight = r[:, None] * dr * dtheta / np.pi

    # coherent-state amplitudes <n|alpha> on the truncated levels
    ns = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    amp = np.exp(-0.5 * np.abs(alpha[..., None]) ** 2) * alpha[..., None] ** ns \
        / np.exp(0.5 * log_fact)

    values = np.stack([np.vectorize(e)(alpha).astype(float) for e in cells])
    if values.min() < -tol:
        raise ContractViolation(f"cell weights must be nonnegative, found {values.min():.3e}")
    total = values.sum(axis=0)
    if np.max(np.abs(total - 1.0)) > 1e-9:
        raise ContractViolation(
            f"cell weights must sum to one on the disc; max defect {np.max(np.abs(total - 1.0)):.3e}"
        )

    elements = hermitian_part(np.stack(
        [np.einsum("rt,rtm,rtn->mn", e * weight, amp, amp.conj()) for e in values]))
    measure = _completed(elements, tol, "truncation insufficient: remainder element")
    require_hermitian(elements, [f"cell element {k}" for k in range(len(elements))],
                      tol_psd=tol, dimensionless=True)
    return measure
