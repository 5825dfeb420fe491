"""Reconstruction engines: state, detector, process, instrument, self-calibration.

Every engine solves the linear response system tr(rho P_k) = p_k in a real
Hermitian parametrization by (optionally weighted) least squares, factoring
each design once for all its right-hand sides, and then projects onto the
feasible cone: densities go to the nearest PSD matrix with the trace fixed
to the measured intensity (eigenvalues projected onto the simplex), measure
elements are clipped and the identity deficit redistributed, channels may
be clipped to completely positive.  Reports carry the residual, the design
condition number, how far the projection moved the estimate, the achieved
rank, and warning flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    apply_superop,
    choi_rank,
    choi_transform,
    superop_from_choi,
)
from .errors import ContractViolation, RankDeficiencyError
from .measures import Detector, QuantumMeasure, informational_completeness
from .ops import as_square, hermitian_basis

COND_WARN = 1e6
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ReconstructionReport:
    residual: float
    cond: float
    projection_distance: float
    rank: int
    flags: tuple = ()
    extras: dict = field(default_factory=dict)


def _pair_traces(a, b):
    """Matrix of tr(a_i b_j) over two stacks of d x d matrices, as one matrix product."""
    return a.reshape(len(a), -1) @ np.swapaxes(b, 1, 2).reshape(len(b), -1).T


def _hermitian_lstsq(operators, rates, stderr, what):
    """Least-squares Hermitian X_c with tr(X_c O_k) = rates[k, c], for every column c.

    The design and the basis are built once, and one SVD gives the rank and
    condition checks and the solution of every column.  A column with
    standard errors has its own row weights, so it gets its own weighted
    solve of the same design.  Returns (X of shape (n, d, d), per-column
    residuals of the unweighted equations, cond, rank).
    """
    ops = np.stack([as_square(o) for o in operators])
    d = ops.shape[1]
    basis = hermitian_basis(d)
    m = _pair_traces(ops, basis).real
    u, sing, vt = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(sing > sing[0] * _RANK_RTOL)) if sing.size and sing[0] > 0 else 0
    if rank < d * d:
        raise RankDeficiencyError(
            f"{what} design is not informationally complete: rank {rank} < {d * d}",
            rank=rank,
            required=d * d,
        )
    cond = float(sing[0] / sing[rank - 1])
    y = np.asarray(rates, dtype=float)
    if y.shape[0] != len(ops):
        raise ContractViolation(
            f"{what}: got {y.shape[0]} rates for {len(ops)} design operators"
        )
    coeff = vt.T @ ((u.T @ y) / sing[:, None])
    if stderr is not None:
        err = np.asarray(stderr, dtype=float)
        if err.shape != y.shape:
            raise ContractViolation("standard errors must match the rates")
        for c in np.flatnonzero(np.any(err != 0.0, axis=0)):
            floor = max(err[:, c].max() * 1e-6, 1e-300)
            w = 1.0 / np.clip(err[:, c], floor, None)
            coeff[:, c] = np.linalg.lstsq(m * w[:, None], y[:, c] * w, rcond=None)[0]
    x = np.tensordot(coeff.T, basis, axes=(1, 0))
    residuals = np.linalg.norm(m @ coeff - y, axis=0)
    return x, residuals, cond, rank


def _simplex(evals, target):
    """Euclidean projection of each row of evals onto {lam >= 0, sum(lam) = target > 0}."""
    u = -np.sort(-evals, axis=-1)
    excess = np.cumsum(u, axis=-1) - target[..., None]
    count = np.arange(1, u.shape[-1] + 1)
    active = np.sum(u * count > excess, axis=-1, keepdims=True)
    shift = np.take_along_axis(excess, active - 1, axis=-1) / active
    return np.clip(evals - shift, 0.0, None)


def project_psd(x, trace_target=None):
    """Nearest PSD matrix in Frobenius norm, of one matrix or of each in a stack (..., d, d).

    Without trace_target the negative eigenvalues are clipped.  With a
    positive trace_target (broadcast over the stack) the eigenvalues are
    projected onto the simplex {lam >= 0, sum(lam) = target}, which gives
    the nearest PSD matrix with that trace (Smolin, Gambetta & Smith, PRL
    108, 070502, 2012).  A nonpositive target has no such matrix unless it
    is zero; there the clipped matrix is rescaled to the target trace, and a
    zero clipped matrix stays zero.

    Returns (projected matrix or stack, Frobenius distance moved: a float for
    one matrix, an array over the stack).  Idempotent: a matrix already in
    the cone with the right trace is returned unchanged.
    """
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ContractViolation(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolation("matrix has non-finite entries")
    h = 0.5 * (a + np.swapaxes(a, -1, -2).conj())
    evals, evecs = np.linalg.eigh(h)
    lam = np.clip(evals, 0.0, None)
    if trace_target is not None:
        target = np.broadcast_to(np.asarray(trace_target, dtype=float), evals.shape[:-1])
        total = lam.sum(axis=-1)
        positive = target > 0.0
        scale = np.divide(target, total, out=np.ones_like(total), where=~positive & (total > 0.0))
        lam = np.where(positive[..., None],
                       _simplex(evals, np.where(positive, target, 1.0)),
                       lam * scale[..., None])
    out = (evecs * lam[..., None, :]) @ np.swapaxes(evecs, -1, -2).conj()
    dist = np.linalg.norm(out - a, axis=(-2, -1))
    return out, (float(dist) if a.ndim == 2 else dist)


def _rate_residuals(operators, x, rates):
    """Per-column norms of tr(x_c O_k) - rates[k, c] for a stack x of shape (n, d, d)."""
    return np.linalg.norm(_pair_traces(operators, x).real - rates, axis=0)


def state_tomography(measures, rates, stderr=None):
    """Reconstruct a density matrix from response rates of known measures.

    measures is one QuantumMeasure or a sequence of them; rates (and
    optional standard errors) are concatenated in the same element order.
    The unconstrained Hermitian solution is projected to the nearest PSD
    matrix with its trace fixed to the measured intensity, so exact rates
    from a valid state are reproduced and sampled rates always yield a
    valid state.
    """
    if isinstance(measures, QuantumMeasure):
        measures = [measures]
    operators = np.concatenate([m.elements for m in measures])
    y = np.asarray(rates, dtype=float).reshape(-1, 1)
    err = None if stderr is None else np.asarray(stderr, dtype=float)[..., None]
    x, residual, cond, rank = _hermitian_lstsq(operators, y, err, "state tomography")
    intensity = float(y.sum()) / len(measures)
    rho, dist = project_psd(x[0], trace_target=intensity)
    flags = []
    if cond > COND_WARN:
        flags.append("ill_conditioned")
    if dist > 1e-12 * max(1.0, abs(intensity)):
        flags.append("projected")
    residual_after = float(_rate_residuals(operators, rho[None], y)[0])
    report = ReconstructionReport(
        residual_after, cond, dist, rank, tuple(flags),
        {"residual_unprojected": float(residual[0]), "intensity": intensity},
    )
    return rho, report


def detector_tomography(probe_states, rates, stderr=None):
    """Reconstruct a quantum measure from per-probe, per-element rates.

    probe_states must contain at least d^2 states with linearly independent
    density matrices; rates has shape (n_probes, K).  All elements are
    solved on the one probe design and clipped to PSD; then the identity
    deficit is spread over the elements in proportion to their traces and
    they are clipped again, until the deficit is below 1e-12.  When that
    loop gives up (after 100 passes, or with no positive trace left) the
    report carries the flag "deficit_not_converged"; extras record the
    number of passes as "deficit_iterations".
    """
    probes = [as_square(p, "probe state") for p in probe_states]
    table = np.asarray(rates, dtype=float)
    if table.ndim != 2 or table.shape[0] != len(probes):
        raise ContractViolation(
            f"rates must be (n_probes, K), got {table.shape} for {len(probes)} probes"
        )
    x, residuals, cond, rank = _hermitian_lstsq(probes, table, stderr, "detector tomography")
    elements, dists = project_psd(x)
    dist_sq = float(np.sum(dists ** 2))
    identity = np.eye(probes[0].shape[0], dtype=complex)
    # Spread the identity deficit over the elements in proportion to their
    # traces, re-clip, and repeat: clipping can reopen a small deficit when
    # elements are rank deficient, and the cycle contracts it quickly.
    iterations = 0
    deficit = identity - elements.sum(axis=0)
    while np.max(np.abs(deficit)) > 1e-12 and iterations < 100:
        traces = np.clip(np.trace(elements, axis1=1, axis2=2).real, 0.0, None)
        if traces.sum() <= 0.0:
            break
        shares = traces / traces.sum()
        elements, dists = project_psd(elements + shares[:, None, None] * deficit)
        dist_sq += float(np.sum(dists ** 2))
        iterations += 1
        deficit = identity - elements.sum(axis=0)
    measure = QuantumMeasure(elements)
    flags = []
    if cond > COND_WARN:
        flags.append("ill_conditioned")
    if np.max(np.abs(deficit)) > 1e-12:
        flags.append("deficit_not_converged")
    report = ReconstructionReport(
        float(np.sqrt(np.sum(residuals ** 2))), cond, float(np.sqrt(dist_sq)), rank,
        tuple(flags),
        {"sum_defect": measure.sum_defect(), "deficit_iterations": iterations},
    )
    return measure, report


def process_tomography(probe_states, output_states, project_cp=False, cp_tol=1e-9):
    """Reconstruct the superoperator mapping probe states to output states.

    The probes must span the space of Hermitian operators.  With exact data
    from a completely positive map the returned matrix reproduces the map;
    optionally the estimate is projected to the CP cone by clipping Choi
    eigenvalues.
    """
    probes = [as_square(p, "probe state") for p in probe_states]
    outs = [as_square(o, "output state") for o in output_states]
    if len(probes) != len(outs):
        raise ContractViolation(
            f"{len(probes)} probes but {len(outs)} reconstructed outputs"
        )
    d = probes[0].shape[0]
    v = np.stack([p.reshape(-1) for p in probes], axis=1)
    w = np.stack([o.reshape(-1) for o in outs], axis=1)
    sing = np.linalg.svd(v, compute_uv=False)
    rank = int(np.sum(sing > sing[0] * _RANK_RTOL)) if sing.size and sing[0] > 0 else 0
    if rank < d * d:
        raise RankDeficiencyError(
            f"probe states do not span Hermitian space: rank {rank} < {d * d}",
            rank=rank,
            required=d * d,
        )
    cond = float(sing[0] / sing[rank - 1])
    e = w @ np.linalg.pinv(v)
    residual = float(np.linalg.norm(e @ v - w))
    dist = 0.0
    flags = []
    if project_cp:
        choi = choi_transform(e)
        choi = 0.5 * (choi + choi.conj().T)
        evals, evecs = np.linalg.eigh(choi)
        if evals[0] < -cp_tol:
            flags.append("cp_projected")
        clipped = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
        e_proj = superop_from_choi(clipped)
        dist = float(np.linalg.norm(e_proj - e))
        e = e_proj
        residual = float(np.linalg.norm(e @ v - w))
    if cond > COND_WARN:
        flags.append("ill_conditioned")
    report = ReconstructionReport(
        residual, cond, dist, rank, tuple(flags),
        {"choi_rank": choi_rank(e, cp_tol)},
    )
    return e, report


def instrument_tomography(joint_tables, probe_states, second_detector: Detector,
                          min_branch_rate=1e-12, project_cp=False):
    """Reconstruct the branch maps of an instrument from coincidence tables.

    joint_tables has shape (n_probes, J+1, K+1): for each probe state, the
    joint rates over (branch j, element k) with j = 0 the null branch and
    k = 0 the null detection slot.  The postselected element rates of every
    (probe, branch) pair are inverted together to unnormalized conditional
    output states (second detector must be informationally complete), and
    each responding branch's map follows by process tomography over the
    probes.  Branch 0 with no recorded rate is returned as the zero map; an
    ordinary branch without events is an error.  The report's rank is the
    smaller of the detector design's rank and the probes' span rank.
    """
    tables = np.asarray(joint_tables, dtype=float)
    probes = [as_square(p, "probe state") for p in probe_states]
    if tables.ndim != 3 or tables.shape[0] != len(probes):
        raise ContractViolation(
            f"joint tables must be (n_probes, J+1, K+1), got {tables.shape}"
        )
    measure = second_detector.measure
    if tables.shape[2] != len(measure) + 1:
        raise ContractViolation(
            f"tables have {tables.shape[2] - 1} element slots for a "
            f"{len(measure)}-element detector"
        )
    comp = informational_completeness(measure)
    if not comp.complete:
        raise RankDeficiencyError(
            f"second detector is not informationally complete: rank {comp.rank}",
            rank=comp.rank,
            required=measure.dim ** 2,
        )
    d = measure.dim
    n_probes, n_branches, n_slots = tables.shape
    # One solve on the detector design for every (probe, branch) output:
    # column ell * (J+1) + j holds the element rates of probe ell in branch j.
    y = tables[:, :, 1:].reshape(-1, n_slots - 1).T
    x, _, _, rank = _hermitian_lstsq(measure.elements, y, None, "instrument tomography")
    outputs, _ = project_psd(x, trace_target=y.sum(axis=0))
    output_residuals = _rate_residuals(measure.elements, outputs, y).reshape(n_probes, n_branches)
    outputs = outputs.reshape(n_probes, n_branches, d, d)
    branch_maps = []
    marginals = tables.sum(axis=2)  # (n_probes, J+1)
    flags = []
    residual_sq = 0.0
    dist_sq = 0.0
    worst_cond = 0.0
    for j in range(n_branches):
        if marginals[:, j].max() <= min_branch_rate:
            if j == 0:
                branch_maps.append(np.zeros((d * d, d * d), dtype=complex))
                flags.append("null_branch_zero")
                continue
            raise ContractViolation(
                f"insufficient events for branch {j}: no probe recorded a response"
            )
        e, rep = process_tomography(probes, outputs[:, j], project_cp=project_cp)
        worst_cond = max(worst_cond, rep.cond)
        rank = min(rank, rep.rank)
        residual_sq += float(np.sum(output_residuals[:, j] ** 2)) + rep.residual ** 2
        dist_sq += rep.projection_distance ** 2
        branch_maps.append(e)
    predicted = np.stack(
        [[np.trace(apply_superop(e, p)).real for e in branch_maps] for p in probes]
    )
    report = ReconstructionReport(
        float(np.sqrt(residual_sq)), worst_cond, float(np.sqrt(dist_sq)),
        rank, tuple(flags),
        {"branch_marginals": marginals, "predicted_marginals": predicted},
    )
    return branch_maps, report


@dataclass(frozen=True)
class SelfCalibrationResult:
    filters: list
    sources: list
    residual: float
    residual_history: np.ndarray
    iterations: int
    converged: bool


def _als_filter_step(outputs, sources):
    v = np.stack([s.reshape(-1) for s in sources], axis=1)
    vpinv = np.linalg.pinv(v)
    return [np.stack([o.reshape(-1) for o in outs], axis=1) @ vpinv for outs in outputs]


def _als_source_step(outputs, filters, basis):
    d = basis[0].shape[0]
    n_sources = outputs.shape[1]
    bas = np.stack([b.reshape(-1) for b in basis], axis=1)
    design = np.concatenate([f @ bas for f in filters], axis=0)
    a = np.concatenate([design.real, design.imag], axis=0)
    sources = []
    for ell in range(n_sources):
        b = np.concatenate([outputs[k, ell].reshape(-1) for k in range(outputs.shape[0])])
        rhs = np.concatenate([b.real, b.imag])
        coeff, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        sources.append(np.tensordot(coeff, np.stack(basis), axes=(0, 0)))
    return sources


def _als_residual(outputs, filters, sources):
    total = 0.0
    for k, f in enumerate(filters):
        for ell, s in enumerate(sources):
            total += np.linalg.norm(apply_superop(f, s) - outputs[k, ell]) ** 2
    return float(np.sqrt(total))


def self_calibrating_tomography(outputs, init_filters, init_sources,
                                rtol=1e-10, max_iter=100):
    """Jointly fit filter maps and source states to filtered-output data.

    outputs[k, l] is the reconstructed state of source l after filter k.
    Starting from the given guesses, alternating least squares updates all
    filters with sources held fixed (a linear solve) and then all sources
    with filters held fixed (linear in a Hermitian parametrization); the
    data residual is nonincreasing.  The overall filter/source scale is not
    identifiable, so after each sweep the first source's trace is pinned to
    the trace of its initial guess.  Stops when the residual change drops
    below rtol (relative) or after max_iter sweeps, flagging non-convergence.
    """
    data = np.asarray(outputs, dtype=complex)
    if data.ndim != 4:
        raise ContractViolation("outputs must have shape (n_filters, n_sources, d, d)")
    n_filters, n_sources = data.shape[:2]
    if n_filters < 2 or n_sources < 2:
        raise ContractViolation("self-calibration needs at least 2 filters and 2 sources")
    filters = [as_square(f, "filter superoperator").copy() for f in init_filters]
    sources = [as_square(s, "source state").copy() for s in init_sources]
    if len(filters) != n_filters or len(sources) != n_sources:
        raise ContractViolation("initial guesses must match the output grid")
    d = data.shape[2]
    if data.shape[3] != d or any(s.shape != (d, d) for s in sources):
        raise ContractViolation(f"outputs and initial sources must all be {d}x{d} matrices")
    basis = hermitian_basis(d)
    gauge_trace = float(np.trace(sources[0]).real)
    if gauge_trace <= 0.0:
        raise ContractViolation("first source must have positive intensity to fix the gauge")

    history = [_als_residual(data, filters, sources)]
    converged = history[0] <= 1e-14
    iterations = 0
    while not converged and iterations < max_iter:
        filters = _als_filter_step(data, sources)
        sources = _als_source_step(data, filters, basis)
        tr = float(np.trace(sources[0]).real)
        if abs(tr) > 1e-300:
            lam = gauge_trace / tr
            sources = [lam * s for s in sources]
            filters = [f / lam for f in filters]
        iterations += 1
        history.append(_als_residual(data, filters, sources))
        change = history[-2] - history[-1]
        if abs(change) <= rtol * max(1.0, history[-2]):
            converged = True
    return SelfCalibrationResult(
        filters, sources, history[-1], np.array(history), iterations, converged
    )
