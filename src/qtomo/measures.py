"""Discrete quantum measures, scales, detectors, and response statistics.

A quantum measure is a finite family of PSD Hermitian operators summing to
the identity; together with a scale (distinct outcome values, scalar or
vector) it forms a detector.  Response rates are tr(rho P_k), and the
operator measured by a detector is A = sum_k a_k P_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .ops import PAULI, TOL_PSD, as_square, min_eigenvalue


class QuantumMeasure:
    """Family of K Hermitian PSD operators on C^d summing to the identity.

    Elements are stored as a (K, d, d) complex array and indexed 0..K-1;
    event labels in the simulator are 1-based with 0 reserved for null.
    """

    def __init__(self, elements):
        mats = [as_square(e, f"measure element {i}") for i, e in enumerate(elements)]
        if not mats:
            raise ContractViolation("a quantum measure needs at least one element")
        d = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != d:
                raise ContractViolation(
                    f"measure element {i} is {m.shape[0]}x{m.shape[0]}, expected {d}x{d}"
                )
        self.elements = np.stack(mats)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def sum_defect(self) -> float:
        total = self.elements.sum(axis=0)
        return float(np.max(np.abs(total - np.eye(self.dim))))

    def validate(self, tol: float = TOL_PSD) -> "MeasureReport":
        """PSD and sum-to-identity check; zero elements are reported, not fatal.

        A zero element never responds (the ideal-cascade remainder is the
        one place it legitimately appears), so all_nonzero is informational.
        """
        mineigs = np.array([min_eigenvalue(p) for p in self.elements])
        defect = self.sum_defect()
        nonzero = bool(all(np.max(np.abs(p)) > 0.0 for p in self.elements))
        herm = max(float(np.max(np.abs(p - p.conj().T))) for p in self.elements)
        ok = bool(mineigs.min() >= -tol and defect <= tol and herm <= tol)
        return MeasureReport(mineigs, defect, herm, nonzero, ok)


@dataclass(frozen=True)
class MeasureReport:
    min_eigenvalues: np.ndarray
    sum_defect: float
    hermitian_defect: float
    all_nonzero: bool
    ok: bool


def validate_measure(measure: QuantumMeasure, tol: float = TOL_PSD) -> MeasureReport:
    return measure.validate(tol)


@dataclass(frozen=True)
class Detector:
    """A quantum measure plus a scale of distinct outcome values.

    The scale is stored as a (K, m) complex array; scalar scales have m = 1.
    Repeated values normally signal a labeling mistake and are rejected, but
    a minimal informationally complete measure can force repeats when the
    scale is chosen to reproduce a given operator, so they can be allowed
    explicitly.
    """

    measure: QuantumMeasure
    scale: np.ndarray = field(repr=False)
    allow_repeated_values: bool = False

    def __post_init__(self):
        values = np.asarray(self.scale, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != len(self.measure):
            raise ContractViolation(
                f"scale has {values.shape[0] if values.ndim else 0} values "
                f"for {len(self.measure)} detection elements"
            )
        # One lexicographic sort puts equal rows next to each other, so
        # comparing neighbours tells whether any rows may coincide; only then
        # does the pair loop run.  The loop decides, since array_equal never
        # matches NaN entries, and it names the first coinciding pair in its
        # order.  (np.unique(values, axis=0) would also tell, but it imports
        # numpy.ma, which costs more than the sort.)
        if not self.allow_repeated_values:
            ordered = values[np.lexsort(np.concatenate([values.real, values.imag], axis=1).T)]
            if (ordered[1:] == ordered[:-1]).all(axis=1).any():
                for j in range(values.shape[0]):
                    for k in range(j + 1, values.shape[0]):
                        if np.array_equal(values[j], values[k]):
                            raise ContractViolation(
                                f"scale values {j} and {k} coincide; values must be distinct"
                            )
        object.__setattr__(self, "scale", values)

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
    r = as_square(rho, "rho")
    tr = float(np.trace(r).real)
    if abs(tr - 1.0) > tol:
        raise ContractViolation(
            f"statistical expectation needs a normalized state; trace is {tr}"
        )
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


@dataclass(frozen=True)
class CompletenessReport:
    rank: int
    complete: bool
    minimal: bool


def informational_completeness(measure: QuantumMeasure) -> CompletenessReport:
    """Real-linear rank of the elements in Hermitian space via their Gram matrix."""
    k = len(measure)
    gram = np.einsum("aij,bji->ab", measure.elements, measure.elements).real
    sing = np.linalg.svd(gram, compute_uv=False)
    rank = int(np.sum(sing > max(sing[0], 1.0) * 1e-12)) if sing.size else 0
    d2 = measure.dim ** 2
    complete = rank == d2
    return CompletenessReport(rank, complete, complete and k == d2)


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

    elements = []
    for e in values:
        p = np.einsum("rt,rtm,rtn->mn", e * weight, amp, amp.conj())
        elements.append(0.5 * (p + p.conj().T))
    remainder = np.eye(dim, dtype=complex) - np.sum(elements, axis=0)
    low = min_eigenvalue(remainder)
    if low < -tol:
        raise ContractViolation(
            f"truncation insufficient: remainder element has min eigenvalue {low:.3e}"
        )
    for i, p in enumerate(elements):
        low_p = min_eigenvalue(p)
        if low_p < -tol:
            raise ContractViolation(
                f"cell element {i} has min eigenvalue {low_p:.3e}"
            )
    elements.append(remainder)
    return QuantumMeasure(elements)
