"""Quantum uncertainty, Robertson bound, statistical-vs-quantum variance excess.

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
from .ops import _unit_intensity, as_square, quantum_value, require_hermitian

# Rounding allowance of robertson_check: the bound holds when lhs >= rhs - ROBERTSON_SLACK.
ROBERTSON_SLACK = 1e-10


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


def robertson_check(rho, A, B) -> RobertsonReport:
    """Check sigma_A sigma_B >= |<[A, B]>| / 2, up to ROBERTSON_SLACK, for A, B passing
    ops.require_hermitian."""
    a = require_hermitian(as_square(A, "A"), "A")
    b = require_hermitian(as_square(B, "B"), "B")
    r = _unit_intensity(rho)
    lhs = q_uncertainty(r, a).sigma * q_uncertainty(r, b).sigma
    rhs = 0.5 * abs(quantum_value(r, a @ b - b @ a))
    return RobertsonReport(float(lhs), float(rhs), lhs >= rhs - ROBERTSON_SLACK)


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
    e_var = float(np.sum(p * np.sum(np.abs(det.scale - quantum_value(r, a)) ** 2, axis=1)))
    sigma2 = q_uncertainty(r, a).sigma ** 2
    return ExcessReport(e_var, float(sigma2), e_var - float(sigma2))
