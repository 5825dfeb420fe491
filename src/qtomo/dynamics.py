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
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .ops import (TOL_HERM, TOL_PSD, _Frozen, as_square, hermitian_part, quantum_value,
                  require_hermitian)


class LindbladModel(_Frozen):
    """One medium: Hamiltonian H, optional PSD dissipative potential V, and
    jump operators L_l with nonnegative rates gamma_l.

    The slice generator is K = -i H / hbar - V / hbar - (1/2) sum_l gamma_l
    L_l* L_l.  V = 0 without jumps is the von Neumann case; V alone is a
    passive (trace-decreasing) medium; jumps alone give the Lindblad equation.
    ops.require_hermitian checks H, and V with its PSD test, each against its own max-norm.
    """

    __slots__ = ("H", "jump_ops", "rates", "hbar", "V")

    def __init__(self, H, jump_ops=(), rates=(), hbar: float = 1.0, V=None,
                 tol_herm: float = TOL_HERM, tol_psd: float = TOL_PSD):
        h = require_hermitian(as_square(H, "H"), "H", tol_herm)
        if V is not None:
            V = require_hermitian(as_square(V, "V"), "V", tol_herm, tol_psd)
        jumps = tuple(as_square(l, "jump operator") for l in jump_ops)
        gammas = tuple(float(g) for g in rates)
        others = jumps if V is None else (V,) + jumps
        if any(m.shape != h.shape for m in others):
            raise ContractViolation(f"V and jump operators must have the shape of H, {h.shape}")
        if len(jumps) != len(gammas):
            raise ContractViolation("need one rate per jump operator")
        if any(g < 0 for g in gammas):
            raise ContractViolation(f"rates must be nonnegative, got {gammas}")
        if hbar <= 0:
            raise ContractViolation("hbar must be positive")
        self._fill(h, jumps, gammas, hbar, V)

    def __reduce__(self):  # H and V passed their check once, perhaps with looser tolerances
        return type(self), super().__reduce__()[1] + (math.inf, math.inf)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


class Trajectory(_Frozen):
    __slots__ = ("times", "states")

    def __init__(self, times, states):
        self._fill(times, states)

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


def _initial_state(state, d: int) -> np.ndarray:
    """The initial density matrix, checked against dimension d."""
    x = as_square(state, "rho0")
    if len(x) != d:
        raise ContractViolation("initial state does not match the model dimension")
    return x


def von_neumann_evolve(H, rho0, t, hbar: float = 1.0) -> np.ndarray:
    """U rho0 U* with U = evolution_operator(H, t, hbar); a stack of states for an array t."""
    u = evolution_operator(H, t, hbar)
    return u @ _initial_state(rho0, u.shape[-1]) @ np.swapaxes(u, -1, -2).conj()


def _runs(values, gap) -> list:
    """Slices of the runs of the ascending 1-D values in which each value lies within gap of the
    one before, in order; a value farther than gap from its predecessor starts a new run."""
    cuts = [0, *(np.flatnonzero(np.diff(values) > gap) + 1).tolist(), len(values)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


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


def sliced_final(model: LindbladModel, rho0, dt: float, steps: int) -> np.ndarray:
    """Final state of sliced_master for a model without jumps: T^n rho0 (T^n)* with T = 1 + dt K,
    T^n by np.linalg.matrix_power, so the cost grows with log n, not n."""
    if model.jump_ops:
        raise ContractViolation("the slice power covers only models without jumps")
    d = model.dim
    power = np.linalg.matrix_power(np.eye(d, dtype=complex) + dt * _slice_generator(model), steps)
    return power @ _initial_state(rho0, d) @ power.conj().T


class SpectralLines(NamedTuple):
    omega: np.ndarray  # angular frequencies |E_j - E_k| / hbar
    nu: np.ndarray     # line frequencies omega / (2 pi)


def rydberg_ritz_lines(H, hbar: float = 1.0, tol: float = 1e-9,
                       tol_herm: float = TOL_HERM) -> SpectralLines:
    """Distinct level-difference frequencies of H (ops.require_hermitian), zero excluded.

    In ascending order, a difference within tol (relative to the spectral
    spread) of the one before joins its line, which is their mean.
    """
    if hbar <= 0:
        raise ContractViolation("hbar must be positive")
    h = require_hermitian(as_square(H, "H"), "H", tol_herm)
    evals = np.linalg.eigvalsh(hermitian_part(h))
    cut = tol * max(float(evals[-1] - evals[0]), 1.0)
    high, low = np.tril_indices(evals.size, -1)
    diffs = np.abs(evals[high] - evals[low])
    diffs = np.sort(diffs[diffs > cut])
    omega = np.array([np.mean(diffs[run]) for run in _runs(diffs, cut)]) / hbar
    return SpectralLines(omega, omega / (2.0 * np.pi))


def lie_product(A, B, hbar: float = 1.0) -> np.ndarray:
    """Commutator Lie product (i/hbar)(AB - BA)."""
    a = as_square(A, "A")
    b = as_square(B, "B")
    return (1j / hbar) * (a @ b - b @ a)


def poisson_bracket(A, B, rho, hbar: float = 1.0) -> complex:
    """Induced Lie product of the quantum values <A>, <B>: <A lie B>; for a Hermitian A = H,
    the time derivative of <B> along the von Neumann flow (Ehrenfest)."""
    return quantum_value(rho, lie_product(A, B, hbar))
