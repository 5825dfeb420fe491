"""Polarization calculus: Stokes vectors, Jones filters, splitter cascades.

A qubit beam state maps one-to-one onto a real Stokes 4-vector; passive
filters act as rho -> T rho T* with a 2x2 Jones matrix T, and a balanced
splitter acts blockwise on two-beam states.  A tree of splitters with
filtered leaves compiles into a quantum measure with one element per leaf
plus a remainder element for the absorbed part of the beam.  A leaf and a
cascade are passive by the rule of channels._require_passive: I - pi, for the
intensity operator pi of the leaf's filter or of all leaves, passes
ops.require_hermitian as a dimensionless operator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channels import _require_passive, pi_operator
from .errors import ContractViolation
from .measures import QuantumMeasure
from .ops import PAULI, TOL_PSD, _Frozen, as_square, quantum_value, require_hermitian

_STOKES_TOL = 1e-12


def stokes_to_density(s) -> np.ndarray:
    """Density matrix (1/2)(S0 + S . sigma) of a Stokes vector."""
    v = np.asarray(s, dtype=float).reshape(-1)
    if v.shape != (4,):
        raise ContractViolation(f"Stokes vector must have 4 components, got {v.shape}")
    norm = float(np.linalg.norm(v[1:]))
    if not v[0] >= norm - _STOKES_TOL * max(1.0, abs(v[0])):  # NaN fails the bound too
        raise ContractViolation(
            f"Stokes bound violated: S0 = {v[0]} < |S| = {norm}"
        )
    return (v[:, None, None] * PAULI).sum(axis=0) / 2.0


def density_to_stokes(rho) -> np.ndarray:
    """Stokes components S_k = tr(rho sigma_k) of a 2x2 state (ops.require_hermitian)."""
    r = as_square(rho, "rho")
    if r.shape != (2, 2):
        raise ContractViolation(f"polarization state must be 2x2, got {r.shape}")
    return quantum_value(require_hermitian(r, "rho", tol_psd=TOL_PSD, dimensionless=True),
                         PAULI).real


def degree_of_polarization(s) -> float:
    """Quotient |S|/S0 in [0, 1]; 1 exactly for pure (fully polarized) states."""
    v = np.asarray(s, dtype=float).reshape(-1)
    if v[0] <= 0.0:
        raise ContractViolation("dark state has no degree of polarization")
    return float(np.linalg.norm(v[1:]) / v[0])


def apply_jones(rho, T) -> np.ndarray:
    """Filtered state T rho T*."""
    r = as_square(rho, "rho")
    t = as_square(T, "jones matrix")
    if t.shape != r.shape:
        raise ContractViolation(f"Jones matrix {t.shape} does not match state {r.shape}")
    return t @ r @ t.conj().T


def beam_splitter(rho_in) -> np.ndarray:
    """Balanced splitter acting blockwise on a two-beam (4x4) state.

    Implemented with exact 1/2 block combinations so that the single-input
    identity (output blocks all rho/2) holds without rounding.
    """
    r = as_square(rho_in, "two-beam state")
    if r.shape != (4, 4):
        raise ContractViolation(f"two-beam state must be 4x4, got {r.shape}")
    b11, b12 = r[:2, :2], r[:2, 2:]
    b21, b22 = r[2:, :2], r[2:, 2:]
    out = np.empty_like(r)
    out[:2, :2] = 0.5 * (b11 + b12 + b21 + b22)
    out[:2, 2:] = 0.5 * (b11 - b12 + b21 - b22)
    out[2:, :2] = 0.5 * (b11 + b12 - b21 - b22)
    out[2:, 2:] = 0.5 * (b11 - b12 - b21 + b22)
    return out


class Leaf(_Frozen):
    """Terminal arm of a splitter cascade holding the filter in that arm."""

    __slots__ = ("jones",)

    def __init__(self, jones):
        t = as_square(jones, "jones matrix")
        if t.shape != (2, 2):
            raise ContractViolation(f"leaf Jones matrix must be 2x2, got {t.shape}")
        _require_passive(pi_operator([t]), "leaf Jones matrix must be passive: I - T*T")
        self._fill(t)


class Split(NamedTuple):
    """Balanced splitter node with two downstream subnetworks."""

    left: "Split | Leaf"
    right: "Split | Leaf"


def network_leaves(net, depth: int = 0):
    """Leaves of the cascade as (jones, splitter depth) pairs, left to right."""
    if isinstance(net, Leaf):
        return [(net.jones, depth)]
    if isinstance(net, Split):
        return network_leaves(net.left, depth + 1) + network_leaves(net.right, depth + 1)
    raise ContractViolation(f"network nodes must be Split or Leaf, got {type(net)!r}")


def cascade_measure(net) -> QuantumMeasure:
    """Quantum measure of a splitter cascade: P_k = 2^-s T_k* T_k per leaf.

    The remainder P_0 = 1 - sum P_k (the beam fraction absorbed in the
    filters) is appended as the last element, unless sum P_k is not passive.
    """
    elements = np.asarray([2.0 ** (-depth) * pi_operator([jones])
                           for jones, depth in network_leaves(net)], dtype=complex)
    remainder = _require_passive(elements.sum(axis=0), "lossy-network inconsistency: remainder")
    return QuantumMeasure([*elements, remainder])
