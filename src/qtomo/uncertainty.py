"""Quantum uncertainty, Robertson bound, measurement-error decompositions.

All operations here use unit-trace states, so statistical expectations over
detector outcomes are directly comparable with quantum expectations.
Quantities may be single operators or vectors of operators; |x|^2 always
means the Euclidean square x*x.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .measures import Detector, measured_quantity, response_probabilities
from .ops import _unit_intensity, as_square, hermitian_part, quantum_value, require_hermitian


def _components(X) -> np.ndarray:
    """Normalize a quantity to a stack of operator components (m, d, d)."""
    arr = np.asarray(X, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ContractViolation(
            f"quantity must be one square matrix or a stack of them, got {arr.shape}"
        )
    return arr


class UncertaintyReport(NamedTuple):
    mean: np.ndarray
    sigma: float
    covariance: np.ndarray


def q_uncertainty(rho, X) -> UncertaintyReport:
    """Mean, spread and covariance of a (vector) quantity in a state.

    sigma^2 = < (X - mean)* (X - mean) > summed over components; the
    covariance matrix uses the same adjoint-first ordering, so its trace
    equals sigma^2 for arbitrary (also non-normal) components.
    """
    r = _unit_intensity(rho)
    comps = _components(X)
    mean = quantum_value(r, comps)
    centered = comps - mean[:, None, None] * np.eye(comps.shape[1])
    cov = quantum_value(r, centered.conj().swapaxes(1, 2)[:, None] @ centered[None, :])
    sigma_sq = float(np.trace(cov).real)
    return UncertaintyReport(mean, float(np.sqrt(max(sigma_sq, 0.0))), cov)


class RobertsonReport(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


def robertson_check(rho, A, B, slack: float = 1e-10) -> RobertsonReport:
    """Check sigma_A sigma_B >= |<[A, B]>| / 2 for A, B passing ops.require_hermitian."""
    a = require_hermitian(as_square(A, "A"), "A")
    b = require_hermitian(as_square(B, "B"), "B")
    r = _unit_intensity(rho)
    lhs = q_uncertainty(r, a).sigma * q_uncertainty(r, b).sigma
    rhs = 0.5 * abs(quantum_value(r, a @ b - b @ a))
    return RobertsonReport(float(lhs), float(rhs), lhs >= rhs - slack)


def _mean_square(det: Detector, p, center) -> float:
    """Outcome mean square E(|a_k - center|^2) under the outcome probabilities p."""
    return float(np.sum(p * np.sum(np.abs(det.scale - center) ** 2, axis=1)))


class ExcessReport(NamedTuple):
    e_var: float
    sigma2: float
    excess: float


def statistical_vs_quantum(det: Detector, rho) -> ExcessReport:
    """Outcome variance E(|a_k - Abar|^2) against the quantum spread sigma_A^2.

    The excess is nonnegative and vanishes exactly for projective detectors;
    it measures how far the detector is from an ideal projective one.
    """
    r = _unit_intensity(rho)
    p = response_probabilities(det.measure, r)
    a = _components(measured_quantity(det))
    e_var = _mean_square(det, p, quantum_value(r, a))
    sigma2 = q_uncertainty(r, a).sigma ** 2
    return ExcessReport(e_var, float(sigma2), e_var - float(sigma2))


class MeasurementErrorReport(NamedTuple):
    rmse: float
    bias: float
    delta: float


def measurement_uncertainty(det: Detector, rho, X) -> MeasurementErrorReport:
    """Error of measuring the detector quantity A as a surrogate for X.

    rmse is sqrt(E(|a_k - Xbar|^2)); bias is |Abar - Xbar|; delta adds the
    spread correction (sigma_X^2 - sigma_A^2)_+ under the square root and is
    bounded below by sqrt(sigma_X^2 + bias^2).
    """
    r = _unit_intensity(rho)
    comps_x = _components(X)
    a = _components(measured_quantity(det))
    if comps_x.shape != a.shape:
        raise ContractViolation(
            f"quantity has {comps_x.shape[0]} components, detector measures {a.shape[0]}"
        )
    p = response_probabilities(det.measure, r)
    x_mean = quantum_value(r, comps_x)
    mse = _mean_square(det, p, x_mean)
    a_mean = quantum_value(r, a)
    bias = float(np.linalg.norm(a_mean - x_mean))
    sigma_x = q_uncertainty(r, comps_x).sigma
    sigma_a = q_uncertainty(r, a).sigma
    correction = max(sigma_x ** 2 - sigma_a ** 2, 0.0)
    return MeasurementErrorReport(float(np.sqrt(mse)), bias, float(np.sqrt(mse + correction)))


class SpectrumReport(NamedTuple):
    min_eig: float
    member: bool
    witness: np.ndarray | None


def spectrum_membership(X, xi, tol: float = 1e-9) -> SpectrumReport:
    """Whether xi lies in the joint spectrum of the quantity X.

    min_eig is the smallest eigenvalue of B = |X - xi|^2, which by the
    variational principle is the infimum of <|X - xi|^2> over unit-trace
    states; membership means it is at most tol, and the minimizing
    eigenvector is returned as a witness state.
    """
    comps = _components(X)
    values = np.atleast_1d(np.asarray(xi, dtype=complex))
    if values.shape != (comps.shape[0],):
        raise ContractViolation(
            f"xi must have {comps.shape[0]} components, got {values.shape}"
        )
    from .channels import pi_operator  # only here: report uncertainty loads no channels

    b = pi_operator(comps - values[:, None, None] * np.eye(comps.shape[1]))
    evals, evecs = np.linalg.eigh(hermitian_part(b))
    min_eig = float(evals[0])
    member = min_eig <= tol
    return SpectrumReport(min_eig, member, evecs[:, 0] if member else None)
