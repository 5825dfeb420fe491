"""Reconstruction engines: state, detector, process, instrument, self-calibration.

Every engine solves the linear response system tr(rho P_k) = p_k by (optionally
weighted) least squares on one design per operator set (``ops._design``: Re tr(P_k B_a)
on the orthonormal ``hermitian_basis``, factored once for all right-hand sides, so a set
has one ``cond`` in every engine), then projects onto the feasible cone: densities go to
the nearest PSD matrix with the trace fixed to the measured intensity (eigenvalues
projected onto the simplex), and measure elements are clipped and the deficit spread.
Process and instrument maps are the least-squares fits, not projected.
Reports carry the residual, the design condition number, how far the
projection moved the estimate, the achieved rank, and warning flags.
A design sees only the Hermitian parts of its operators (measure elements or
probes), and no engine checks them; ``qtomo tomo`` refuses, naming the file, an
operator whose Hermitian defect over max(trace, 1) exceeds --tol-herm.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, NumericalError, RankDeficiencyError
from .measures import QuantumMeasure
from .ops import (_design, as_square, hermitian_basis, hermitian_part, numerical_rank,
                  real_traces, square_stack)

COND_WARN = 1e6
# An instrument branch whose joint rates stay at or below this for every probe recorded no response.
SILENT_RATE = 1e-12


class ReconstructionReport(NamedTuple):
    """What a reconstruction computed besides its estimate.

    residual: norm of the misfit of the returned estimate to the data it was fitted to.
    cond, rank: condition number and numerical rank of the design (of two designs, the
        larger cond and the smaller rank).
    projection_distance: Frobenius distance from the unconstrained least-squares solution
        to what the mode projected it to; 0 for a mode that projects nothing.
    flags: warning names, such as "ill_conditioned"; extras: mode-specific values (by default
        an empty read-only mapping, shared by every report that gets no extras).
    """

    residual: float
    cond: float
    projection_distance: float
    rank: int
    flags: tuple = ()
    extras: dict = MappingProxyType({})


def _span(sing, d, message):
    """(rank, cond) of a design from its singular values; RankDeficiencyError below rank d^2."""
    rank = numerical_rank(sing)
    if rank < d * d:
        raise RankDeficiencyError(f"{message}: rank {rank} < {d * d}", rank=rank, required=d * d)
    return rank, float(sing[0] / sing[rank - 1])


def _hermitian_lstsq(operators, rates, shots, what):
    """Least-squares Hermitian X_c with tr(X_c O_k) = rates[k, c], for every column c, over
    the complex (n, d, d) stack of operators O_k, which every caller has built and checked.

    The design is built and factored once (ops._design), and its SVD gives the
    rank and condition checks and the solution of every column without shots.  With
    shots (of _shots, per column or per row) every column whose rates y have binomial errors
    e = sqrt(y (1 - y) / shots), not all zero, weights row k by 1/e[k, c] (floored at 1e-6 of
    the column's largest), and all such columns are solved by one stacked QR of their
    row-scaled designs: positive finite weights keep the design's full rank.  Returns (X of
    shape (n, d, d), per-column residuals of the unweighted equations, cond, rank).
    """
    basis, m, u, sing, vt = _design(operators)
    rank, cond = _span(sing, operators.shape[1], f"{what} design is not informationally complete")
    y = np.asarray(rates, dtype=float)
    if y.shape[0] != len(operators):
        raise ContractViolation(
            f"{what}: got {y.shape[0]} rates for {len(operators)} design operators"
        )
    coeff = vt.T @ ((u.T @ y) / sing[:, None])
    if shots is not None:
        err = np.sqrt(y * (1.0 - y) / shots)
        cols = np.flatnonzero(np.any(err != 0.0, axis=0))
        w = 1.0 / np.clip(err[:, cols], np.maximum(err[:, cols].max(axis=0) * 1e-6, 1e-300), None)
        q, r = np.linalg.qr(m * w.T[:, :, None])  # (columns, K, d^2) and (columns, d^2, d^2)
        qty = q.swapaxes(1, 2) @ (y[:, cols] * w).T[:, :, None]
        coeff[:, cols] = np.linalg.solve(r, qty)[:, :, 0].T
    x = np.tensordot(coeff.T, basis, axes=(1, 0))
    return x, _scaled_norms(m @ coeff - y, 0), cond, rank


def _shots(shots, rates, n_probes):
    """None, or the (n_probes, 1) shot counts of shots, one for all probes or one per probe;
    ContractViolation unless each is positive and finite and every rate (an array) is in [0, 1]."""
    if shots is None:
        return None
    n = np.asarray(shots, dtype=float).reshape(-1, 1)
    if (len(n) not in (1, n_probes) or not np.all((n > 0) & (n < np.inf))
            or not np.all((rates >= 0) & (rates <= 1))):
        raise ContractViolation(f"weighting by shots takes rates in [0, 1] and one positive finite "
                                f"shot count for all {n_probes} probes or one per probe, got shots "
                                f"{n.ravel()} and rates from {rates.min(initial=np.inf):g} to "
                                f"{rates.max(initial=-np.inf):g}")
    return np.broadcast_to(n, (n_probes, 1))


def _scaled_norms(x, axis=None):
    """np.linalg.norm(x, axis=axis) (a float for axis=None), with x first scaled by a power of
    two near its largest entry along axis: the squares can neither overflow nor underflow, and
    the bits of a norm whose squares do neither are unchanged."""
    _, exp = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))
    exp = np.maximum(exp, -1021)  # 2**-exp stays finite for subnormal entries
    norms = np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -exp), axis=axis), exp.squeeze(axis))
    return float(norms) if axis is None else norms


def _simplex(evals, target):
    """Euclidean projection of each row of evals onto {lam >= 0, sum(lam) = target > 0}.

    With u sorted descending, the k largest stay while D_k = sum_{j<=k} (u_j - u_k)
    < target and become (target - D_k) / k + (lam - u_k).  Every term summed is
    nonnegative, so the target trace survives eigenvalues of any spread.
    """
    u = -np.sort(-evals, axis=-1)
    gaps = np.arange(1, u.shape[-1]) * (u[..., :-1] - u[..., 1:])
    excess = np.concatenate([np.zeros_like(u[..., :1]), np.cumsum(gaps, axis=-1)], axis=-1)
    active = np.sum(excess < target[..., None], axis=-1, keepdims=True)
    floor = np.take_along_axis(u, active - 1, axis=-1)
    level = (target[..., None] - np.take_along_axis(excess, active - 1, axis=-1)) / active
    return np.where(evals >= floor, level + (evals - floor), 0.0)


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
    one matrix, an array over the stack).  Each projected matrix equals its
    conjugate transpose exactly.  Idempotent: a matrix already in the cone
    with the right trace is returned unchanged.
    """
    a = as_square(x, stack=True)
    evals, evecs = np.linalg.eigh(hermitian_part(a))
    lam = np.clip(evals, 0.0, None)
    if trace_target is not None:
        target = np.broadcast_to(np.asarray(trace_target, dtype=float), evals.shape[:-1])
        total = lam.sum(axis=-1)
        positive = target > 0.0
        scale = np.divide(target, total, out=np.ones_like(total), where=~positive & (total > 0.0))
        lam = np.where(positive[..., None],
                       _simplex(evals, np.where(positive, target, 1.0)),
                       lam * scale[..., None])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # V diag(lam) V* as computed need not equal its adjoint in the last bit
        out = hermitian_part((evecs * lam[..., None, :]) @ np.swapaxes(evecs, -1, -2).conj())
        dist = _scaled_norms(out - a, (-2, -1))
    if not (np.isfinite(out).all() and np.isfinite(dist).all()):
        raise NumericalError(
            f"PSD projection overflowed: the estimate has entries up to {np.abs(a).max():.3e}, "
            "so the projected matrix or its distance is not finite")
    return out, (float(dist) if a.ndim == 2 else dist)


def _warnings(cond, dist=0.0, trace=0.0):
    """Flags "ill_conditioned" (cond above COND_WARN) and "projected" (the projection moved the
    estimate by more than 1e-12 of max(1, |trace|); a mode that flags none passes no dist)."""
    return (("ill_conditioned",) * bool(cond > COND_WARN)
            + ("projected",) * bool(dist > 1e-12 * max(1.0, abs(trace))))


def _rate_residuals(operators, x, rates):
    """Per-column norms of tr(x_c O_k) - rates[k, c] for a stack x of shape (n, d, d)."""
    return _scaled_norms(real_traces(operators, x) - rates, 0)


def rates_from_counts(counts, shots):
    """Relative frequencies of a log's label tuples, shaped like its counts (a count vector or
    coincidence table over shots events): the rates every count-based mode takes, with shots."""
    if shots == 0:
        raise ContractViolation("empty event log has no rates")
    return np.asarray(counts).astype(float) / shots


def state_tomography(measures, rates, shots=None):
    """Reconstruct a density matrix from response rates of known measures.

    measures is one QuantumMeasure or a sequence of them; rates are concatenated in the
    same element order, and optional shots (one count) weight them by binomial errors.
    The unconstrained Hermitian solution is projected to the nearest PSD
    matrix with its trace fixed to the measured intensity, so exact rates
    from a valid state are reproduced and sampled rates always yield a
    valid state.  Rates summing below zero (no density) raise ContractViolation.
    Uses the elements' Hermitian parts, unchecked (``tomo`` checks --tol-herm).
    """
    if isinstance(measures, QuantumMeasure):
        measures = [measures]
    operators = np.concatenate([m.elements for m in measures])
    y = np.asarray(rates, dtype=float).reshape(-1, 1)
    x, residual, cond, rank = _hermitian_lstsq(operators, y, _shots(shots, y, 1), "state tomography")
    intensity = float(y.sum()) / len(measures)
    rho, dist = project_psd(x[0], trace_target=intensity)
    if intensity < 0.0:
        raise ContractViolation(f"rates sum to {float(y.sum())!r} < 0: no density has that trace")
    residual_after = float(_rate_residuals(operators, rho[None], y)[0])
    report = ReconstructionReport(
        residual_after, cond, dist, rank, _warnings(cond, dist, intensity),
        {"residual_unprojected": float(residual[0]), "intensity": intensity},
    )
    return rho, report


def detector_tomography(probe_states, rates, shots=None):
    """Reconstruct a quantum measure from per-probe, per-element rates.

    probe_states must contain at least d^2 states with linearly independent
    density matrices; rates has shape (n_probes, K), weighted as in state tomography by
    optional shots, one count for all probes or one per probe.  All elements are
    solved on the one probe design and clipped to PSD; then the identity
    deficit is spread over the elements in proportion to their traces and
    they are clipped again, until the deficit is below 1e-12.  When that
    loop gives up (after 100 passes, or with no positive trace left) the
    report carries the flag "deficit_not_converged"; extras record the
    number of passes as "deficit_iterations".  The residual is the misfit of
    the returned elements to the rates, and "residual_unprojected" that of
    the unconstrained solutions, whose distance from the returned elements is
    the projection distance, flagged as in state tomography relative to the
    largest element trace.  Uses the probes' Hermitian parts, unchecked
    (``tomo`` checks --tol-herm).
    """
    probes = square_stack(probe_states, "probe state")
    table = np.asarray(rates, dtype=float)
    if table.ndim != 2 or table.shape[0] != len(probes):
        raise ContractViolation(
            f"rates must be (n_probes, K), got {table.shape} for {len(probes)} probes"
        )
    x, residuals, cond, rank = _hermitian_lstsq(
        probes, table, _shots(shots, table, len(probes)), "detector tomography")
    elements, _ = project_psd(x)
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
        elements, _ = project_psd(elements + shares[:, None, None] * deficit)
        iterations += 1
        deficit = identity - elements.sum(axis=0)
    measure = QuantumMeasure(elements)
    dist = _scaled_norms(elements - x)
    flags = (_warnings(cond, dist, np.abs(np.trace(x, axis1=1, axis2=2).real).max())
             + ("deficit_not_converged",) * bool(np.max(np.abs(deficit)) > 1e-12))
    report = ReconstructionReport(
        float(_scaled_norms(_rate_residuals(probes, elements, table), 0)), cond, dist, rank, flags,
        {"residual_unprojected": float(_scaled_norms(residuals, 0)),
         "sum_defect": measure.sum_defect(), "deficit_iterations": iterations},
    )
    return measure, report


def _fit_superops(probes, outputs):
    """Least-squares maps E_b with E_b vec(probes[l]) = vec(outputs[b, l]) for a (B, n, d, d) stack.

    The probes' design m = U diag(sing) V^T (ops._design) serves all B maps: vec(probes[l]) =
    sum_a m[l, a] vec(B_a) with orthonormal rows vec(B_a), so E_b = W_b U diag(1/sing) V^T
    conj(B_vec).  Returns (maps, residuals, cond, rank).
    """
    n, d = probes.shape[:2]
    basis, _, u, sing, vt = _design(probes)
    rank, cond = _span(sing, d, "probe states do not span Hermitian space")
    w = outputs.reshape(len(outputs), n, d * d).transpose(0, 2, 1)
    e = w @ ((u / sing) @ vt @ basis.reshape(d * d, d * d).conj())
    v = probes.reshape(n, d * d).T
    # one matrix per norm, so that a map's residual does not depend on how many maps were fitted
    return e, np.array([_scaled_norms(r) for r in e @ v - w]), cond, rank


def process_tomography(probe_states, output_states):
    """Reconstruct the superoperator mapping probe states to output states.

    The probes must span the space of Hermitian operators.  The estimate is
    the least-squares map, not projected; with exact data from a completely
    positive map it reproduces the map.  Uses the probes' Hermitian parts,
    unchecked, and the outputs as given (``tomo`` checks both --tol-herm).
    """
    from .channels import choi_rank

    probes = square_stack(probe_states, "probe state")
    outs = square_stack(output_states, "output state")
    if outs.shape != probes.shape:
        raise ContractViolation(f"{len(probes)} probes of size {probes.shape[1]} but {len(outs)} "
                                f"reconstructed outputs of size {outs.shape[1]}")
    e, residual, cond, rank = _fit_superops(probes, outs[None])
    report = ReconstructionReport(float(residual[0]), cond, 0.0, rank, _warnings(cond),
                                  {"choi_rank": choi_rank(e[0])})
    return e[0], report


def instrument_tomography(joint_tables, probe_states, measure: QuantumMeasure, shots=None):
    """Reconstruct the branch maps of an instrument from coincidence tables.

    joint_tables has shape (n_probes, J+1, K): for each probe state, the
    joint rates over (branch j, element k) with j = 0 the null branch, and no
    null detection slot; measure is the second detector's K-element measure,
    which must be informationally complete.  The element rates of every
    (probe, branch) pair are inverted together to unnormalized conditional
    output states, weighted as in state tomography by the optional shots (one
    count for all probes or one per probe), each projected to PSD with its
    measured trace, and the maps of all responding branches follow by process
    tomography over the probes, on one factored probe design.  Branch 0 with
    no recorded rate is returned as the zero map; an ordinary branch without
    events is an error.  The report's rank is the smaller of the detector
    design's rank and the probes' span rank, its cond the larger of their
    condition numbers, its projection distance that of the responding outputs,
    flagged as in state tomography relative to the largest output trace.  Uses
    the Hermitian parts of the elements and probes, unchecked (``tomo`` checks
    --tol-herm).
    """
    tables = np.asarray(joint_tables, dtype=float)
    probes = square_stack(probe_states, "probe state")
    if tables.ndim != 3 or tables.shape[0] != len(probes):
        raise ContractViolation(
            f"joint tables must be (n_probes, J+1, K), got {tables.shape}"
        )
    if tables.shape[2] != len(measure):
        raise ContractViolation(
            f"tables have {tables.shape[2]} element slots for a {len(measure)}-element detector"
        )
    # One solve on the detector design for every (probe, branch) output, before any check of
    # the tables: column ell * (J+1) + j holds the element rates of probe ell in branch j.
    n_probes, n_branches, n_slots = tables.shape
    y = tables.reshape(-1, n_slots).T
    n = _shots(shots, tables, n_probes)  # each probe's count, repeated over its J+1 columns
    x, _, det_cond, det_rank = _hermitian_lstsq(
        measure.elements, y, n if n is None else n.repeat(n_branches), "instrument tomography")
    d = measure.dim
    if probes.shape[1] != d:
        raise ContractViolation(f"probe states are {probes.shape[1]}-dimensional, the second "
                                f"detector measures {d}x{d} states")
    marginals = tables.sum(axis=2)  # (n_probes, J+1)
    silent = marginals.max(axis=0) <= SILENT_RATE
    if silent[1:].any():
        raise ContractViolation(f"insufficient events for branch {np.argmax(silent[1:]) + 1}: "
                                "no probe recorded a response")
    traces = y.sum(axis=0)
    outputs, dists = project_psd(x, trace_target=traces)
    output_residuals = _rate_residuals(measure.elements, outputs, y).reshape(n_probes, n_branches)
    live = ~silent
    fit, fit_residuals, probe_cond, probe_rank = _fit_superops(
        probes, outputs.reshape(n_probes, n_branches, d, d)[:, live].swapaxes(0, 1))
    maps = np.zeros((n_branches, d * d, d * d), dtype=complex)
    maps[live] = fit
    residual = float(_scaled_norms(np.concatenate([output_residuals[:, live].ravel(),
                                                   fit_residuals]), 0))
    # tr E_j(rho) sums the entries of E_j vec(rho) that land on the diagonal
    predicted = (maps[:, ::d + 1] @ probes.reshape(n_probes, -1).T).sum(axis=1).real.T
    cond = max(det_cond, probe_cond)
    dist = float(_scaled_norms(dists.reshape(n_probes, n_branches)[:, live], (0, 1)))
    flags = ((("null_branch_zero",) if silent[0] else ())
             + _warnings(cond, dist, np.abs(traces).max()))
    report = ReconstructionReport(
        residual, cond, dist, min(det_rank, probe_rank), flags,
        {"branch_marginals": marginals, "predicted_marginals": predicted},
    )
    return list(maps), report


class SelfCalibrationResult(NamedTuple):
    """What self-calibration computed besides its filters and sources; flags is
    ("not_converged",) when the sweeps stopped at max_iter above the tolerance."""

    residual: float
    residual_history: np.ndarray
    iterations: int
    converged: bool
    flags: tuple


def _finite(what, *arrays):
    """NumericalError unless every array is finite, so that LAPACK never sees inf or nan."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"self-calibration overflowed: {what} is not finite")


def _als_source_step(outputs, filters, basis):
    """All L Hermitian sources by one lstsq, from the (K, d^2, L) stack of vec(outputs)."""
    d = basis.shape[1]
    design = (filters @ basis.reshape(len(basis), -1).T).reshape(-1, d * d)
    a = np.concatenate([design.real, design.imag], axis=0)
    _finite("the source design", a)
    b = outputs.reshape(-1, outputs.shape[2])
    coeff, *_ = np.linalg.lstsq(a, np.concatenate([b.real, b.imag]), rcond=None)
    return np.tensordot(coeff.T, basis, axes=(1, 0))


def _als_residual(outputs, filters, sources):
    return float(np.linalg.norm(filters @ sources.reshape(len(sources), -1).T - outputs))


@np.errstate(over="ignore", invalid="ignore")  # huge finite entries: _finite checks each step
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
    Returns ((filters, sources), SelfCalibrationResult), lists of the fitted
    superoperators and states and the record of the sweeps.
    """
    data = np.asarray(outputs, dtype=complex)
    if data.ndim != 4:
        raise ContractViolation("outputs must have shape (n_filters, n_sources, d, d)")
    n_filters, n_sources = data.shape[:2]
    if n_filters < 2 or n_sources < 2:
        raise ContractViolation("self-calibration needs at least 2 filters and 2 sources")
    filters = square_stack(init_filters, "filter superoperator")
    sources = square_stack(init_sources, "source state")
    if len(filters) != n_filters or len(sources) != n_sources:
        raise ContractViolation("initial guesses must match the output grid")
    d = data.shape[2]
    if data.shape[3] != d or sources.shape[1] != d:
        raise ContractViolation(f"outputs and initial sources must all be {d}x{d} matrices")
    if filters.shape[1] != d * d:
        raise ContractViolation(f"filters must be {d * d}x{d * d} superoperators of {d}x{d} states")
    if not np.isfinite(data).all():
        raise ContractViolation("outputs have non-finite entries")
    basis = hermitian_basis(d)
    gauge_trace = float(np.trace(sources[0]).real)
    if gauge_trace <= 0.0:
        raise ContractViolation("first source must have positive intensity to fix the gauge")
    # column l of w[k] is vec(outputs[k, l])
    w = data.reshape(n_filters, n_sources, d * d).swapaxes(1, 2)

    history = [_als_residual(w, filters, sources)]
    _finite("the residual of the initial guesses", history[0])
    converged = history[0] <= 1e-14
    iterations = 0
    while not converged and iterations < max_iter:
        filters = w @ np.linalg.pinv(sources.reshape(n_sources, -1).T)
        _finite("a filter iterate", filters)
        sources = _als_source_step(w, filters, basis)
        tr = float(np.trace(sources[0]).real)
        if abs(tr) > 1e-300:
            lam = gauge_trace / tr
            sources = lam * sources
            filters = filters / lam
        _finite("a gauge-fixed iterate", filters, sources)
        iterations += 1
        history.append(_als_residual(w, filters, sources))
        _finite("the residual", history[-1])
        change = history[-2] - history[-1]
        if abs(change) <= rtol * max(1.0, history[-2]):
            converged = True
    flags = () if converged else ("not_converged",)
    return (list(filters), list(sources)), SelfCalibrationResult(
        history[-1], np.array(history), iterations, converged, flags)
