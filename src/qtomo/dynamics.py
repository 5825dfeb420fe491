"""Sliced-filter evolution and its continuum limits.

A medium is modeled as a stack of thin filters T = 1 + dt K; iterating
rho -> T rho T* converges at first order in dt to the quantum Liouville
equation d rho / dt = K rho + rho K*.  With i*hbar*K = H - i V this covers
the von Neumann (V = 0) and dissipative cases; adding weak mixing terms
sqrt(dt) L_l per slice yields the Lindblad equation in the limit.  One
model, LindbladModel, carries H, V and the jumps for every case.  Closed
forms use Hermitian eigendecompositions; the Lindblad reference applies
the exact one-step propagator exp(L dt) of the vectorized master equation,
a real matrix in real coordinates of Hermitian matrices: L dt is halved
until its 1-norm is at most 1/2, the Taylor degree is read off that norm,
the polynomial is evaluated by Paterson-Stockmeyer, and it is squared back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .ops import as_square, hermitian_defect, hermitian_part, min_eigenvalue, quantum_value


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
            if min_eigenvalue(v) < -1e-9:
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


def evolution_operator(H, t, hbar: float = 1.0) -> np.ndarray:
    """Propagator exp(-i H t / hbar) by one eigendecomposition; a stack (..., d, d) for an array t."""
    if hbar <= 0:
        raise ContractViolation("hbar must be positive")
    h = as_square(H, "H")
    evals, evecs = np.linalg.eigh(hermitian_part(h))
    phases = np.exp(-1j * evals * np.asarray(t, dtype=float)[..., None] / hbar)
    return (evecs * phases[..., None, :]) @ evecs.conj().T


def _initial_state(state, d: int, matrix: bool = True) -> np.ndarray:
    """The initial density matrix (matrix=False: state vector), checked against dimension d."""
    x = as_square(state, "rho0") if matrix else np.asarray(state, dtype=complex).reshape(-1)
    if len(x) != d:
        raise ContractViolation("initial state does not match the model dimension")
    return x


def von_neumann_evolve(H, rho0, t, hbar: float = 1.0) -> np.ndarray:
    """U rho0 U* with U = evolution_operator(H, t, hbar); a stack of states for an array t."""
    u = evolution_operator(H, t, hbar)
    return u @ _initial_state(rho0, u.shape[-1]) @ np.swapaxes(u, -1, -2).conj()


def schrodinger_evolve(H, psi0, t: float, hbar: float = 1.0) -> np.ndarray:
    u = evolution_operator(H, t, hbar)
    return u @ _initial_state(psi0, u.shape[-1], matrix=False)


def spectral_solution(H, psi0, cluster_tol: float = 1e-9):
    """Decompose psi0 into eigencomponents: psi(t) = sum exp(-i t E_k) psi_k.

    Eigenvalues closer than cluster_tol (relative to the spectral spread)
    are grouped into one component, so each psi_k satisfies
    H psi_k = E_k psi_k within tolerance even for degenerate spectra.
    Returns a list of (E_k, psi_k) pairs covering all clusters.
    """
    h = as_square(H, "H")
    psi = _initial_state(psi0, len(h), matrix=False)
    evals, evecs = np.linalg.eigh(hermitian_part(h))
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


def _slice_generator(model: LindbladModel) -> np.ndarray:
    """K = -i H / hbar - V / hbar - (1/2) sum_l gamma_l L_l* L_l."""
    k = -1j * model.H / model.hbar
    if model.V is not None:
        k = k - model.V / model.hbar
    for g, l in zip(model.rates, model.jump_ops):
        k = k - 0.5 * g * (l.conj().T @ l)
    return k


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Vectorized generator of the master equation (row-major convention).

    K (x) I + I (x) conj(K) + sum_l gamma_l L_l (x) conj(L_l), with K the slice generator,
    filled into one (d, d, d, d) array: entry [i, j, k, l] acts on rho[k, l] in d rho[i, j].
    """
    d = model.dim
    k = _slice_generator(model)
    gen = np.zeros((d, d, d, d), dtype=complex)
    for g, l in zip(model.rates, model.jump_ops):
        gen += (g * l)[:, None, :, None] * l.conj()[None, :, None, :]
    diag = np.arange(d)
    gen[:, diag, :, diag] += k
    gen[diag, :, diag, :] += k.conj()
    return gen.reshape(d * d, d * d)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor polynomial.

    Moler & Van Loan, SIAM Rev. 45 (2003): halve a until its 1-norm x is at most 1/2, take
    the smallest degree m whose Taylor remainder bound x^(m+1) / (m+1)! / (1 - x / (m+2)) is
    at most machine epsilon, evaluate that polynomial by Paterson & Stockmeyer, SIAM J.
    Comput. 2, 60 (1973) -- powers a^2 .. a^s, then Horner in a^s over blocks of degree
    below s, (s - 1) + floor(m / s) products with s chosen to minimise them -- and square back.
    """
    norm = np.linalg.norm(a, 1)
    squarings = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    x = norm / 2.0**squarings
    m = 0
    while x ** (m + 1) / math.factorial(m + 1) / (1.0 - x / (m + 2)) > np.finfo(float).eps:
        m += 1
    s = min(range(1, m + 2), key=lambda s: s - 1 + m // s)
    powers = [np.eye(a.shape[0], dtype=a.dtype), a]
    for _ in range(s - 1):
        powers.append(powers[-1] @ a)
    blocks = [sum(powers[i] / math.factorial(j * s + i) for i in range(min(s, m - j * s + 1)))
              for j in range(m // s + 1)]
    total = blocks[-1]
    for block in reversed(blocks[:-1]):
        total = total @ powers[s] + block
    for _ in range(squarings):
        total = total @ total
    return total


def step_count(t: float, dt: float) -> int:
    """Steps n of the grid dt * arange(n + 1) for time t: round(t / dt), at least 1 if t > 0."""
    if t <= 0:
        return 0
    ratio = t / dt
    if not np.isfinite(ratio):
        raise ContractViolation(f"t / dt = {t!r} / {dt!r} is not a finite number of steps")
    return max(1, int(round(ratio)))


def lindblad_evolve(model: LindbladModel, rho0, t: float, dt: float) -> Trajectory:
    """Reference master-equation solution on the grid dt * arange(n + 1).

    n = step_count(t, dt), the grid of sliced_master.  exp(L dt) keeps a matrix Hermitian, so
    in the real coordinates r = Re rho + Im rho of a Hermitian rho (rho = ((1 + i) r + (1 - i)
    r^T) / 2) it is the real exponential of Re L[i, j, k, l] - Im L[j, i, k, l].  That is
    computed once and applied n times to the real and the imaginary part of the coordinates
    of rho0, so the trajectory is exact up to rounding; its first state is rho0 itself.
    """
    d = model.dim
    rho = _initial_state(rho0, d)
    if t < 0 or dt <= 0:
        raise ContractViolation("need t >= 0 and dt > 0")
    n_steps = step_count(t, dt)
    gen = liouvillian(model).reshape(d, d, d, d)
    real_gen = (gen.real - gen.imag.swapaxes(0, 1)).reshape(d * d, d * d)
    step = _expm(real_gen * dt) if n_steps else None
    coords = np.empty((n_steps + 1, d, d), dtype=complex)
    coords[0] = ((1 - 1j) * rho + (1 + 1j) * rho.T) / 2
    parts = coords.view(float).reshape(n_steps + 1, d * d, 2)
    for k in range(n_steps):
        np.matmul(step, parts[k], out=parts[k + 1])
    states = ((1 + 1j) * coords + (1 - 1j) * coords.swapaxes(1, 2)) / 2
    states[0] = rho
    return Trajectory(dt * np.arange(n_steps + 1), states)


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
    t_op = np.eye(d, dtype=complex) + dt * _slice_generator(model)
    t_adj = t_op.conj().T
    jumps = [(dt * g, l, l.conj().T) for g, l in zip(model.rates, model.jump_ops)]
    states = np.empty((steps + 1, d, d), dtype=complex)
    states[0] = _initial_state(rho0, d)
    for rho, nxt in zip(states, states[1:]):
        np.matmul(t_op @ rho, t_adj, out=nxt)
        for w, l, l_adj in jumps:
            nxt += w * (l @ rho @ l_adj)
    return Trajectory(dt * np.arange(steps + 1), states)


def gibbs_state(H, temperature: float, k_boltzmann: float = 1.0) -> np.ndarray:
    """Canonical equilibrium state exp((E0 - H)/kT) normalized to unit trace."""
    if temperature <= 0:
        raise ContractViolation(f"temperature must be positive, got {temperature}")
    h = as_square(H, "H")
    evals, evecs = np.linalg.eigh(hermitian_part(h))
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
    if hbar <= 0:
        raise ContractViolation("hbar must be positive")
    evals = np.linalg.eigvalsh(hermitian_part(as_square(H, "H")))
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
