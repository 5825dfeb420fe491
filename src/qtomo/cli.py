"""Command-line surface for reproducible simulation and reconstruction runs.

Exit codes: 0 success, 2 input or validation error, 3 reconstruction
infeasibility (rank deficiency), 4 internal numerical failure or any other
unexpected error.  Every command writes a manifest next to its outputs, also
on failure, with the error embedded (an unexpected error also records its
traceback there).  Errors are additionally reported as JSON on stderr.

Each command imports the engines it runs inside its body, so start-up loads
only click, numpy and the JSON layer.
"""

from __future__ import annotations

import os
import sys
import time

import click
import numpy as np

from . import __version__, io
from .errors import ContractViolation, NumericalError, RankDeficiencyError

SEED_ENV = "QTOMO_SEED"


class _Run:
    """Collects manifest data and guarantees it is written once per command."""

    def __init__(self, command, inputs, out_dir, seed=None, tolerances=None):
        self.started = time.monotonic()
        self.manifest = {
            # CPU time of this process before the command body: start-up, imports, parsing
            "startup_cpu_s": time.process_time(),
            "command": command,
            "inputs": inputs,
            "seed": seed,
            "tolerances": tolerances or {},
            "tool_version": __version__,
            "wall_time_s": None,
            "error": None,
        }
        self.out_dir = out_dir

    def finish(self, error=None, trace=None):
        self.manifest["wall_time_s"] = time.monotonic() - self.started
        if error is not None:
            self.manifest["error"] = {
                "type": type(error).__name__,
                "message": str(error),
            }
            if trace is not None:
                self.manifest["error"]["traceback"] = trace
        os.makedirs(self.out_dir, exist_ok=True)
        io.write_json_atomic(os.path.join(self.out_dir, "manifest.json"), self.manifest)


def _fail(run, error, code, trace=None):
    run.finish(error, trace)
    payload = {"error": {"type": type(error).__name__, "message": str(error)}}
    click.echo(io.canonical_json(payload), err=True)
    sys.exit(code)


def _guard(run, fn):
    try:
        result = fn()
    except (ContractViolation, FileNotFoundError, KeyError, OSError) as err:
        _fail(run, err, 2)
    except RankDeficiencyError as err:
        _fail(run, err, 3)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
        _fail(run, err, 4)
    except Exception as err:  # last resort: still exit with a documented code and a manifest
        import traceback

        _fail(run, err, 4, traceback.format_exc())
    else:
        run.finish()
        return result


def _tolerances(ctx):
    return ctx.obj or {}


@click.group()
@click.version_option(version=__version__, prog_name="qtomo")
@click.option("--tol-psd", type=float, default=1e-9, show_default=True,
              help="PSD tolerance relative to the trace.")
@click.option("--tol-herm", type=float, default=1e-10, show_default=True,
              help="Absolute hermiticity tolerance.")
@click.option("--rtol", type=float, default=1e-10, show_default=True,
              help="Relative convergence tolerance for iterative fits.")
@click.pass_context
def main(ctx, tol_psd, tol_herm, rtol):
    """Quantum tomography workbench: simulate, reconstruct, evolve, report."""
    ctx.obj = {"tol_psd": tol_psd, "tol_herm": tol_herm, "rtol": rtol}


@main.command()
@click.argument("source", type=click.Path())
@click.argument("device", type=click.Path())
@click.option("--shots", type=int, required=True, help="Number of recorded events.")
@click.option("--seed", type=int, default=None, help=f"PRNG seed (default: ${SEED_ENV} or 0).")
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
@click.pass_context
def simulate(ctx, source, device, shots, seed, out_dir):
    """Sample detection (or coincidence) events from SOURCE into a log."""
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0"))
    tols = _tolerances(ctx)
    run = _Run("simulate", {"source": source, "device": device, "shots": shots},
               out_dir, seed=seed, tolerances=tols)

    def work():
        from .measures import Detector, validate_measure
        from .ops import validate_density
        from .simulate import (ExperimentConfig, event_log_to_csv, sample_coincidences,
                               sample_detections)

        rho = io.density_from_json(io.read_json(source))
        rep = validate_density(rho, tols.get("tol_herm", 1e-10), tols.get("tol_psd", 1e-9))
        if not rep.ok:
            raise ContractViolation(
                f"source is not a valid density matrix: hermitian defect "
                f"{rep.hermitian_defect:.3e}, min eigenvalue {rep.min_eigenvalue:.3e}"
            )
        doc = io.read_json(device)
        if not isinstance(doc, dict):
            raise ContractViolation(f"{device}: device document must be a JSON object")
        if "instrument" in doc:
            instrument = io.instrument_from_json(doc["instrument"])
            detector = io.detector_from_json(doc["detector"])
            cfg = ExperimentConfig(seed, shots, rho, detector, instrument)
            log, counts = sample_coincidences(cfg)
        else:
            if doc.get("scale") is not None:
                detector = io.detector_from_json(doc)
            else:
                measure, _ = io.measure_from_json(doc)
                detector = Detector(measure, np.arange(1, len(measure) + 1, dtype=float))
            mrep = validate_measure(detector.measure, tols.get("tol_psd", 1e-9))
            if not mrep.ok:
                raise ContractViolation(
                    f"invalid measure: sum defect {mrep.sum_defect:.3e}, "
                    f"min eigenvalue {float(mrep.min_eigenvalues.min()):.3e}"
                )
            cfg = ExperimentConfig(seed, shots, rho, detector)
            log, counts = sample_detections(cfg)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "events.csv"), "w") as handle:
            handle.write(event_log_to_csv(log))
        io.write_json_atomic(
            os.path.join(out_dir, "counts.json"),
            {"seed": seed, "shots": shots, "counts": np.asarray(counts).tolist()},
        )

    _guard(run, work)


def _load_probes(problem_dir):
    probes_dir = os.path.join(problem_dir, "probes")
    names = sorted(os.listdir(probes_dir))
    probes = [io.density_from_json(io.read_json(os.path.join(probes_dir, n)))
              for n in names if n.endswith(".json")]
    if not probes:
        raise ContractViolation(f"no probe states found in {probes_dir}")
    return probes


def _event_rates(problem_dir, kind):
    """empirical_rates of each events/*.csv log in problem_dir, in file-name order.

    Every log must be of the given kind, "EventLog" or "CoincidenceLog".
    """
    from . import simulate

    events_dir = os.path.join(problem_dir, "events")
    files = sorted(f for f in os.listdir(events_dir) if f.endswith(".csv"))
    if not files:
        raise ContractViolation(f"no rates.json or tables.json and no events in {events_dir}")
    rates = []
    for name in files:
        with open(os.path.join(events_dir, name)) as handle:
            try:
                log = simulate.event_log_from_csv(handle.read())
            except (ContractViolation, UnicodeDecodeError) as err:
                raise ContractViolation(f"{name}: {err}") from None
        if type(log).__name__ != kind:
            raise ContractViolation(f"{name}: is a {type(log).__name__}, this bundle needs {kind}s")
        rates.append(simulate.empirical_rates(log))
    return rates


def _read_table(path, key, ndims):
    """The array under key in the JSON file at path, as floats; it must have one of ndims axes."""
    doc = io.read_json(path)
    try:
        table = np.array(doc[key])
    except (KeyError, TypeError, ValueError):  # no such key, not an object, or ragged rows
        table = np.array(None)
    if table.dtype.kind not in "iuf" or table.ndim not in ndims or not np.isfinite(table).all():
        raise ContractViolation(
            f"{path}: '{key}' must be a rectangular array of finite numbers with "
            f"{' or '.join(map(str, ndims))} axes")
    return table.astype(float)


def _load_rates(problem_dir):
    """Rates from rates.json if present, else empirical rates from events/*.csv.

    Event rates come with their standard errors, one row per log.
    """
    rates_path = os.path.join(problem_dir, "rates.json")
    if os.path.exists(rates_path):
        return _read_table(rates_path, "rates", (1, 2)), None
    emp = _event_rates(problem_dir, "EventLog")
    return np.stack([e.p_hat[1:] for e in emp]), np.stack([e.stderr[1:] for e in emp])


def _tomo_state(problem_dir):
    from .tomography import state_tomography

    measure, _ = io.measure_from_json(io.read_json(os.path.join(problem_dir, "measure.json")))
    rates, err = _load_rates(problem_dir)
    if err is not None:
        if len(rates) != 1:
            raise ContractViolation(
                f"a state bundle takes exactly one event log, found {len(rates)} in "
                f"{os.path.join(problem_dir, 'events')}")
        rates, err = rates[0], err[0]
    rho, report = state_tomography(measure, rates, err)
    return {"estimate": io.density_to_json(rho)}, report


def _tomo_detector(problem_dir):
    from .tomography import detector_tomography

    probes = _load_probes(problem_dir)
    rates, err = _load_rates(problem_dir)
    measure, report = detector_tomography(probes, np.atleast_2d(rates),
                                          None if err is None else np.atleast_2d(err))
    return {"estimate": io.measure_to_json(measure)}, report


def _tomo_process(problem_dir):
    from .tomography import process_tomography

    probes = _load_probes(problem_dir)
    outputs_dir = os.path.join(problem_dir, "outputs")
    names = sorted(n for n in os.listdir(outputs_dir) if n.endswith(".json"))
    outputs = [io.density_from_json(io.read_json(os.path.join(outputs_dir, n))) for n in names]
    e, report = process_tomography(probes, outputs)
    return {"estimate": {"superoperator": io.matrix_to_json(e)}}, report


def _tomo_instrument(problem_dir):
    from .tomography import instrument_tomography

    probes = _load_probes(problem_dir)
    detector_doc = io.read_json(os.path.join(problem_dir, "measure.json"))
    detector = io.detector_from_json(detector_doc)
    tables_path = os.path.join(problem_dir, "tables.json")
    if os.path.exists(tables_path):
        tables = _read_table(tables_path, "tables", (3,))
    else:
        tables = np.stack([e.table for e in _event_rates(problem_dir, "CoincidenceLog")])
    maps, report = instrument_tomography(tables, probes, detector)
    return {"estimate": {"branches": [io.matrix_to_json(e) for e in maps]}}, report


def _tomo_selfcal(problem_dir, rtol):
    from .tomography import self_calibrating_tomography

    doc = io._object(io.read_json(os.path.join(problem_dir, "selfcal.json")), "selfcal")
    rows = io._array(doc, "outputs", "selfcal")
    if not all(isinstance(row, list) for row in rows):
        raise ContractViolation("selfcal 'outputs' must be an array of rows of matrices")
    grid = [[io.matrix_from_json(m) for m in row] for row in rows]
    if len({len(row) for row in grid}) > 1 or len({m.shape for row in grid for m in row}) > 1:
        raise ContractViolation(
            "selfcal 'outputs' must be a rectangular grid of equally sized matrices")
    outputs = np.array(grid, dtype=complex)
    filters = [io.matrix_from_json(f) for f in io._array(doc, "init_filters", "selfcal")]
    sources = [io.matrix_from_json(s) for s in io._array(doc, "init_sources", "selfcal")]
    result = self_calibrating_tomography(outputs, filters, sources, rtol=rtol)
    payload = {
        "estimate": {
            "filters": [io.matrix_to_json(f) for f in result.filters],
            "sources": [io.matrix_to_json(s) for s in result.sources],
        },
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return payload, None


@main.command()
@click.argument("mode", type=click.Choice(["state", "detector", "process", "instrument", "selfcal"]))
@click.argument("problem_dir", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True, help="Report JSON path.")
@click.pass_context
def tomo(ctx, mode, problem_dir, out_path):
    """Run a reconstruction over a problem bundle directory."""
    tols = _tolerances(ctx)
    run = _Run(f"tomo {mode}", {"problem_dir": problem_dir}, os.path.dirname(os.path.abspath(out_path)),
               tolerances=tols)

    def work():
        if mode == "state":
            payload, report = _tomo_state(problem_dir)
        elif mode == "detector":
            payload, report = _tomo_detector(problem_dir)
        elif mode == "process":
            payload, report = _tomo_process(problem_dir)
        elif mode == "instrument":
            payload, report = _tomo_instrument(problem_dir)
        else:
            payload, report = _tomo_selfcal(problem_dir, tols.get("rtol", 1e-10))
        if report is not None:
            payload.update(
                residual=report.residual,
                cond=report.cond,
                projection_distance=report.projection_distance,
                rank=report.rank,
                flags=list(report.flags),
            )
            for key, value in report.extras.items():
                payload[key] = np.asarray(value).tolist() if isinstance(value, np.ndarray) else value
        io.write_json_atomic(out_path, payload)

    _guard(run, work)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--t", "t_final", type=float, required=True, help="Final time.")
@click.option("--dt", type=float, required=True, help="Time step.")
@click.option("--method", type=click.Choice(["slice", "exact", "lindblad"]), default="exact",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Trajectory JSON path.")
@click.option("--richardson", is_flag=True,
              help="Also report the slice-method error ratio at dt and dt/2 against the exact flow.")
@click.pass_context
def dynamics(ctx, model, t_final, dt, method, out_path, richardson):
    """Evolve the model's initial state and write the trajectory."""
    run = _Run("dynamics", {"model": model, "t": t_final, "dt": dt, "method": method},
               os.path.dirname(os.path.abspath(out_path)), tolerances=_tolerances(ctx))

    def work():
        from .dynamics import (Trajectory, lindblad_evolve, sliced_master, step_count,
                               von_neumann_evolve)

        if dt <= 0 or t_final < 0:
            raise ContractViolation(f"need dt > 0 and t >= 0, got dt={dt}, t={t_final}")
        medium, rho0 = io.model_from_json(io.read_json(model))
        steps = step_count(t_final, dt)
        if (method == "exact" or richardson) and (medium.V is not None or medium.jump_ops):
            raise ContractViolation(
                "method 'exact' and --richardson cover only lossless models (no V, no jumps)")
        if method == "lindblad":
            traj = lindblad_evolve(medium, rho0, t_final, dt)
        elif method == "slice":
            traj = sliced_master(medium, rho0, dt, steps)
        else:
            times = dt * np.arange(steps + 1)
            states = np.stack([von_neumann_evolve(medium.H, rho0, t, medium.hbar) for t in times])
            traj = Trajectory(times, states)
        io.write_json_atomic(out_path, io.trajectory_to_json(traj))
        if richardson:
            exact = von_neumann_evolve(medium.H, rho0, steps * dt, medium.hbar)
            err = np.max(np.abs(sliced_master(medium, rho0, dt, steps).final - exact))
            err_half = np.max(np.abs(sliced_master(medium, rho0, dt / 2, 2 * steps).final - exact))
            io.write_json_atomic(
                os.path.splitext(out_path)[0] + ".richardson.json",
                {"error_dt": float(err), "error_half_dt": float(err_half),
                 "ratio": float(err / err_half) if err_half > 0 else None},
            )

    _guard(run, work)


@main.command()
@click.argument("kind", type=click.Choice(["uncertainty", "lines", "classify"]))
@click.argument("inputs", nargs=-1, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True, help="Report JSON path.")
@click.option("--plot-csv", "plot_path", type=click.Path(), default=None,
              help="Optional (x, y) series as CSV.")
@click.pass_context
def report(ctx, kind, inputs, out_path, plot_path):
    """Uncertainty, spectral-line, or filter-classification reports."""
    run = _Run(f"report {kind}", {"inputs": list(inputs)},
               os.path.dirname(os.path.abspath(out_path)), tolerances=_tolerances(ctx))

    def work():
        series = None
        if kind == "uncertainty":
            if len(inputs) != 2:
                raise ContractViolation("report uncertainty needs SOURCE and DETECTOR files")
            from .measures import response_probabilities
            from .uncertainty import statistical_vs_quantum

            rho = io.density_from_json(io.read_json(inputs[0]))
            detector = io.detector_from_json(io.read_json(inputs[1]))
            res = statistical_vs_quantum(detector, rho)
            payload = {"e_var": res.e_var, "sigma2": res.sigma2, "excess": res.excess}
            p = response_probabilities(detector.measure, rho)
            series = [(float(k + 1), float(v)) for k, v in enumerate(p)]
        elif kind == "lines":
            if len(inputs) != 1:
                raise ContractViolation("report lines needs one Hamiltonian file")
            from .dynamics import rydberg_ritz_lines

            doc = io._object(io.read_json(inputs[0]), "Hamiltonian")
            h = io.matrix_from_json(doc["H"] if "H" in doc else doc["matrix"])
            hbar = io._number(doc.get("hbar", 1.0), "hbar")
            lines = rydberg_ritz_lines(h, hbar)
            payload = {"omega": lines.omega.tolist(), "nu": lines.nu.tolist()}
            series = [(float(i + 1), float(nu)) for i, nu in enumerate(lines.nu)]
        else:
            if len(inputs) != 1:
                raise ContractViolation("report classify needs one channel file")
            from .channels import choi_rank, classify_filter, pi_operator, superop_from_kraus

            kraus = io.channel_from_json(io.read_json(inputs[0]))
            cls = classify_filter(kraus)
            payload = {
                "lossless": cls.lossless,
                "passive": cls.passive,
                "active": cls.active,
                "mixing": cls.mixing,
                "choi_rank": choi_rank(superop_from_kraus(kraus)),
                "pi": io.matrix_to_json(pi_operator(kraus)),
            }
        io.write_json_atomic(out_path, payload)
        if plot_path is not None and series is not None:
            with open(plot_path, "w") as handle:
                handle.write("x,y\n")
                for x, y in series:
                    handle.write(f"{x:.17g},{y:.17g}\n")

    _guard(run, work)


if __name__ == "__main__":
    main()
