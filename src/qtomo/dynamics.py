"""Sliced-filter evolution and its continuum limits.

A medium is modeled as a stack of thin filters T = 1 + dt K; iterating
rho -> T rho T* converges at first order in dt to the quantum Liouville
equation d rho / dt = K rho + rho K*.  With i*hbar*K = H - i V this covers
the von Neumann (V = 0) and dissipative cases; adding weak mixing terms
sqrt(dt) L_l per slice yields the Lindblad equation in the limit.  One
model, LindbladModel, carries H, V and the jumps for every case.  Closed
forms use Hermitian eigendecompositions; the Lindblad reference applies
the exact one-step propagator exp(L dt) of the vectorized master equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .ops import as_square, hermitian_defect, quantum_value


@dataclass(frozen=True)
class LindbladModel:
    """One medium: Hamiltonian H, optional PSD dissipative potential V, and
    jump operators L_l with nonnegative rates gamma_l.

    The slice generator is K = -i H / hbar - V / hbar - (1/2) sum_l gamma_l
    L_l* L_l.  V = 0 without jumps is the von Neumann case; V alone is a
    passive (trace-decreasing) medium; jumps alone give the Lindblad equation.
    """

    H: np.ndarray
    jump_ops: tuple = ()
    rates: tuple = ()
    hbar: float = 1.0
    V: np.ndarray | None = None

    def __post_init__(self):
        h = as_square(self.H, "H")
        if hermitian_defect(h) > 1e-9:
            raise ContractViolation("Hamiltonian must be Hermitian")
        if self.V is not None:
            v = as_square(self.V, "V")
            if hermitian_defect(v) > 1e-9:
                raise ContractViolation("dissipative potential must be Hermitian")
            if float(np.linalg.eigvalsh(0.5 * (v + v.conj().T))[0]) < -1e-9:
                raise ContractViolation("dissipative potential must be PSD for a passive medium")
            object.__setattr__(self, "V", v)
        jumps = tuple(as_square(l, "jump operator") for l in self.jump_ops)
        gammas = tuple(float(g) for g in self.rates)
        others = jumps if self.V is None else (self.V,) + jumps
        if any(m.shape != h.shape for m in others):
            raise ContractViolation(f"V and jump operators must have the shape of H, {h.shape}")
        if len(jumps) != len(gammas):
            raise ContractViolation("need one rate per jump operator")
        if any(g < 0 for g in gammas):
            raise ContractViolation(f"rates must be nonnegative, got {gammas}")
        if self.hbar <= 0:
            raise ContractViolation("hbar must be positive")
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "jump_ops", jumps)
        object.__setattr__(self, "rates", gammas)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.times.size

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolution_operator(H, t: float, hbar: float = 1.0) -> np.ndarray:
    """Propagator exp(-i H t / hbar) via Hermitian eigendecomposition."""
    h = as_square(H, "H")
    evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    phases = np.exp(-1j * evals * t / hbar)
    return (evecs * phases) @ evecs.conj().T


def von_neumann_evolve(H, rho0, t: float, hbar: float = 1.0) -> np.ndarray:
    u = evolution_operator(H, t, hbar)
    return u @ as_square(rho0, "rho0") @ u.conj().T


def schrodinger_evolve(H, psi0, t: float, hbar: float = 1.0) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    return evolution_operator(H, t, hbar) @ psi


def spectral_solution(H, psi0, cluster_tol: float = 1e-9):
    """Decompose psi0 into eigencomponents: psi(t) = sum exp(-i t E_k) psi_k.

    Eigenvalues closer than cluster_tol (relative to the spectral spread)
    are grouped into one component, so each psi_k satisfies
    H psi_k = E_k psi_k within tolerance even for degenerate spectra.
    Returns a list of (E_k, psi_k) pairs covering all clusters.
    """
    h = as_square(H, "H")
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    spread = max(float(evals[-1] - evals[0]), 1.0)
    gap = cluster_tol * spread
    components = []
    start = 0
    for i in range(1, evals.size + 1):
        if i == evals.size or evals[i] - evals[i - 1] > gap:
            block = evecs[:, start:i]
            comp = block @ (block.conj().T @ psi)
            components.append((float(np.mean(evals[start:i])), comp))
            start = i
    return components


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Vectorized generator of the master equation (row-major convention)."""
    d = model.dim
    ident = np.eye(d, dtype=complex)
    h = model.H
    gen = (-1j / model.hbar) * (np.kron(h, ident) - np.kron(ident, h.T))
    if model.V is not None:
        gen -= (np.kron(model.V, ident) + np.kron(ident, model.V.T)) / model.hbar
    for g, l in zip(model.rates, model.jump_ops):
        ll = l.conj().T @ l
        gen += g * (
            np.kron(l, l.conj())
            - 0.5 * np.kron(ll, ident)
            - 0.5 * np.kron(ident, ll.T)
        )
    return gen


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series.

    Moler & Van Loan, SIAM Rev. 45 (2003): halve a until its 1-norm is at
    most 1/2, sum Taylor terms until one falls below machine epsilon
    relative to the sum (about 20 terms at that norm), then square back.
    """
    norm = np.linalg.norm(a, 1)
    squarings = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    eps = np.finfo(float).eps
    for k in range(1, 30):
        term = (term @ a) / k
        total += term
        if np.linalg.norm(term, 1) <= eps * np.linalg.norm(total, 1):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def step_count(t: float, dt: float) -> int:
    """Steps n of the grid dt * arange(n + 1) for time t: round(t / dt), at least 1 if t > 0."""
    return max(1, int(round(t / dt))) if t > 0 else 0


def lindblad_evolve(model: LindbladModel, rho0, t: float, dt: float) -> Trajectory:
    """Reference master-equation solution on the grid dt * arange(n + 1).

    n = step_count(t, dt), the grid of sliced_master; the one-step
    propagator exp(L dt) of the vectorized equation is computed once and
    applied n times, so the trajectory is exact up to rounding.
    """
    rho = as_square(rho0, "rho0")
    d = model.dim
    if rho.shape[0] != d:
        raise ContractViolation("initial state does not match the model dimension")
    if t < 0 or dt <= 0:
        raise ContractViolation("need t >= 0 and dt > 0")
    n_steps = step_count(t, dt)
    times = dt * np.arange(n_steps + 1)
    if n_steps == 0:
        return Trajectory(times, rho[None, :, :].astype(complex))
    step = _expm(liouvillian(model) * dt)
    states = [rho.reshape(-1).astype(complex)]
    for _ in range(n_steps):
        states.append(step @ states[-1])
    return Trajectory(times, np.stack(states).reshape(-1, d, d))


def sliced_master(model: LindbladModel, rho0, dt: float, steps: int) -> Trajectory:
    """Mixing-filter slices: rho -> T rho T* + dt sum_l gamma_l L_l rho L_l*.

    T = 1 + dt K with K = -i H / hbar - V / hbar - (1/2) sum_l gamma_l
    L_l* L_l; the jump terms keep the lossless bookkeeping that makes the
    continuum limit the master equation, which this converges to at first
    order in dt.  Without jumps this is the plain slice iteration
    rho -> T rho T*.
    """
    if dt <= 0:
        raise ContractViolation(f"dt must be positive, got {dt}")
    d = model.dim
    k = -1j * model.H / model.hbar
    if model.V is not None:
        k = k - model.V / model.hbar
    for g, l in zip(model.rates, model.jump_ops):
        k = k - 0.5 * g * (l.conj().T @ l)
    t_op = np.eye(d, dtype=complex) + dt * k
    rho = as_square(rho0, "rho0").copy()
    states = [rho]
    for _ in range(steps):
        nxt = t_op @ rho @ t_op.conj().T
        for g, l in zip(model.rates, model.jump_ops):
            nxt = nxt + dt * g * (l @ rho @ l.conj().T)
        rho = nxt
        states.append(rho)
    return Trajectory(dt * np.arange(steps + 1), np.stack(states))


def gibbs_state(H, temperature: float, k_boltzmann: float = 1.0) -> np.ndarray:
    """Canonical equilibrium state exp((E0 - H)/kT) normalized to unit trace."""
    if temperature <= 0:
        raise ContractViolation(f"temperature must be positive, got {temperature}")
    h = as_square(H, "H")
    evals, evecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    weights = np.exp((evals[0] - evals) / (k_boltzmann * temperature))
    weights = weights / weights.sum()
    return (evecs * weights) @ evecs.conj().T


@dataclass(frozen=True)
class SpectralLines:
    omega: np.ndarray  # angular frequencies |E_j - E_k| / hbar
    nu: np.ndarray     # line frequencies omega / (2 pi)


def rydberg_ritz_lines(H, hbar: float = 1.0, tol: float = 1e-9) -> SpectralLines:
    """Distinct level-difference frequencies, zero excluded.

    Differences within tol (relative to the spectral spread) of each other
    are merged into one line.
    """
    h = as_square(H, "H")
    evals = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    spread = max(float(evals[-1] - evals[0]), 1.0)
    cut = tol * spread
    diffs = sorted(
        abs(a - b) for i, a in enumerate(evals) for b in evals[:i] if abs(a - b) > cut
    )
    merged = []
    for x in diffs:
        if merged and x - merged[-1][-1] <= cut:
            merged[-1].append(x)
        else:
            merged.append([x])
    omega = np.array([np.mean(group) for group in merged]) / hbar
    return SpectralLines(omega, omega / (2.0 * np.pi))


def lie_product(A, B, hbar: float = 1.0) -> np.ndarray:
    """Commutator Lie product (i/hbar)(AB - BA)."""
    a = as_square(A, "A")
    b = as_square(B, "B")
    return (1j / hbar) * (a @ b - b @ a)


def ehrenfest_derivative(rho, H, A, hbar: float = 1.0) -> complex:
    """Time derivative of <A> along the von Neumann flow: <H lie A>."""
    h = as_square(H, "H")
    if hermitian_defect(h) > 1e-9:
        raise ContractViolation("Ehrenfest derivative needs a Hermitian Hamiltonian")
    return quantum_value(rho, lie_product(h, A, hbar))


def poisson_bracket(A, B, rho, hbar: float = 1.0) -> complex:
    """Induced Lie product of the quantum values <A>, <B>: <A lie B>."""
    return quantum_value(rho, lie_product(A, B, hbar))
