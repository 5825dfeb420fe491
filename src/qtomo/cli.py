"""Command-line surface for reproducible simulation and reconstruction runs.

Exit codes: 0 success, 2 input or validation error, 3 reconstruction
infeasibility (rank deficiency), 4 internal numerical failure or any other
unexpected error.  Every command writes a manifest next to its outputs, also
on failure, with the error embedded (an unexpected error also records its
traceback there).  Errors are additionally reported as JSON on stderr.

Each command imports the engines it runs inside its body, so start-up loads
only argparse, numpy and the JSON layer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

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
    print(io.canonical_json(payload), file=sys.stderr)
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


def _seed(seed):
    """The --seed value, else the integer in $QTOMO_SEED, else 0."""
    if seed is not None:
        return seed
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise ContractViolation(f"${SEED_ENV} must be an integer, got {text!r}") from None


def simulate(tols, source, device, shots, seed, out_dir):
    """Sample detection (or coincidence) events from SOURCE into a log."""
    run = _Run("simulate", {"source": source, "device": device, "shots": shots},
               out_dir, seed=seed, tolerances=tols)

    def work():
        from .measures import Detector, validate_measure
        from .ops import validate_density
        from .simulate import ExperimentConfig, write_events

        run.manifest["seed"] = cfg_seed = _seed(seed)
        rho = io.density_from_json(io.read_json(source))
        rep = validate_density(rho, tols["tol_herm"], tols["tol_psd"])
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
            cfg = ExperimentConfig(cfg_seed, shots, rho, detector, instrument)
        else:
            if doc.get("scale") is not None:
                detector = io.detector_from_json(doc)
            else:
                measure, _ = io.measure_from_json(doc)
                detector = Detector(measure, np.arange(1, len(measure) + 1, dtype=float))
            mrep = validate_measure(detector.measure, tols["tol_psd"])
            if not mrep.ok:
                raise ContractViolation(
                    f"invalid measure: sum defect {mrep.sum_defect:.3e}, "
                    f"min eigenvalue {float(mrep.min_eigenvalues.min()):.3e}"
                )
            cfg = ExperimentConfig(cfg_seed, shots, rho, detector)
        memo = io.write_atomic(os.path.join(out_dir, "events.csv"),
                               lambda handle: write_events(cfg, handle))
        io.write_json_atomic(os.path.join(out_dir, "counts.json"), memo)

    _guard(run, work)


def _load_probes(problem_dir):
    probes_dir = os.path.join(problem_dir, "probes")
    names = sorted(os.listdir(probes_dir))
    probes = [io.density_from_json(io.read_json(os.path.join(probes_dir, n)))
              for n in names if n.endswith(".json")]
    if not probes:
        raise ContractViolation(f"no probe states found in {probes_dir}")
    return probes


def _counts_memo(events_dir):
    """The parsed events/counts.json, or None when there is none or it is not JSON."""
    path = os.path.join(events_dir, "counts.json")
    if not os.path.isfile(path):
        return None
    try:
        return io.read_json(path)
    except (ContractViolation, OSError):  # an unreadable memo vouches for no log
        return None


def _event_rates(problem_dir, kind, logs):
    """Rates of each events/*.csv log in problem_dir, in file-name order.

    Every log must be of the given kind, "EventLog" or "CoincidenceLog".  A
    log's rates come from the counts in events/counts.json when that memo
    records the log's sha256, else from parsing the log.  The digest is taken
    block by block, so only a log that the memo does not describe is read
    whole.  logs maps each log's file name to its sha256 and the file its
    rates came from.
    """
    from . import simulate

    events_dir = os.path.join(problem_dir, "events")
    files = sorted(f for f in os.listdir(events_dir) if f.endswith(".csv"))
    if not files:
        raise ContractViolation(f"no rates.json or tables.json and no events in {events_dir}")
    memo = _counts_memo(events_dir)
    rates = []
    for name in files:
        path = os.path.join(events_dir, name)
        digest = simulate.file_sha256(path)
        source = "counts.json" if simulate.memo_describes(memo, digest) else name
        logs[name] = {"sha256": digest, "rates_from": source}
        if source == name:
            try:  # decoded with open()'s text-mode defaults: locale encoding, any newline
                with open(path) as handle:
                    log = simulate.event_log_from_csv(handle.read())
            except (ContractViolation, UnicodeDecodeError) as err:
                raise ContractViolation(f"{name}: {err}") from None
            counts, shots = log.counts(), len(log)
        else:
            try:
                counts, shots = simulate.counts_from_document(memo)
            except ContractViolation as err:
                raise ContractViolation(f"counts.json: {err}") from None
        found = "EventLog" if counts.ndim == 1 else "CoincidenceLog"
        if found != kind:
            raise ContractViolation(f"{source}: is a {found}, this bundle needs {kind}s")
        rates.append(simulate.rates_from_counts(counts, shots))
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


def _load_rates(problem_dir, logs):
    """Rates from rates.json if present, else empirical rates of the event logs.

    Event rates come with their standard errors, one row per log.
    """
    rates_path = os.path.join(problem_dir, "rates.json")
    if os.path.exists(rates_path):
        return _read_table(rates_path, "rates", (1, 2)), None
    emp = _event_rates(problem_dir, "EventLog", logs)
    return np.stack([e.p_hat[1:] for e in emp]), np.stack([e.stderr[1:] for e in emp])


def _tomo_state(problem_dir, logs):
    from .tomography import state_tomography

    measure, _ = io.measure_from_json(io.read_json(os.path.join(problem_dir, "measure.json")))
    rates, err = _load_rates(problem_dir, logs)
    if err is not None:
        if len(rates) != 1:
            raise ContractViolation(
                f"a state bundle takes exactly one event log, found {len(rates)} in "
                f"{os.path.join(problem_dir, 'events')}")
        rates, err = rates[0], err[0]
    rho, report = state_tomography(measure, rates, err)
    return {"estimate": io.density_to_json(rho)}, report


def _tomo_detector(problem_dir, logs):
    from .tomography import detector_tomography

    probes = _load_probes(problem_dir)
    rates, err = _load_rates(problem_dir, logs)
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


def _tomo_instrument(problem_dir, logs):
    from .tomography import instrument_tomography

    probes = _load_probes(problem_dir)
    detector_doc = io.read_json(os.path.join(problem_dir, "measure.json"))
    detector = io.detector_from_json(detector_doc)
    tables_path = os.path.join(problem_dir, "tables.json")
    if os.path.exists(tables_path):
        tables = _read_table(tables_path, "tables", (3,))
    else:
        tables = np.stack([e.table for e in _event_rates(problem_dir, "CoincidenceLog", logs)])
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
        "residual_history": result.residual_history,
        "iterations": result.iterations,
        "converged": result.converged,
        "flags": list(result.flags),
    }
    return payload, None


def tomo(tols, mode, problem_dir, out_path):
    """Run a reconstruction over a problem bundle directory."""
    run = _Run(f"tomo {mode}", {"problem_dir": problem_dir}, os.path.dirname(os.path.abspath(out_path)),
               tolerances=tols)
    logs = run.manifest["event_logs"] = {}

    def work():
        if mode == "state":
            payload, report = _tomo_state(problem_dir, logs)
        elif mode == "detector":
            payload, report = _tomo_detector(problem_dir, logs)
        elif mode == "process":
            payload, report = _tomo_process(problem_dir)
        elif mode == "instrument":
            payload, report = _tomo_instrument(problem_dir, logs)
        else:
            payload, report = _tomo_selfcal(problem_dir, tols["rtol"])
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


def dynamics(tols, model, t_final, dt, method, out_path, richardson):
    """Evolve the model's initial state and write the trajectory."""
    run = _Run("dynamics", {"model": model, "t": t_final, "dt": dt, "method": method},
               os.path.dirname(os.path.abspath(out_path)), tolerances=tols)

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


def report(tols, kind, inputs, out_path, plot_path):
    """Uncertainty, spectral-line, or filter-classification reports."""
    run = _Run(f"report {kind}", {"inputs": list(inputs)},
               os.path.dirname(os.path.abspath(out_path)), tolerances=tols)

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


def _finite_float(text):
    """argparse type of the float options: nan, inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parser(prog):
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Quantum tomography workbench: simulate, reconstruct, evolve, report.")
    parser.add_argument("--version", action="version", version=f"qtomo, version {__version__}")
    parser.add_argument("--tol-psd", type=_finite_float, default=1e-9,
                        help="PSD tolerance relative to the trace (default: %(default)s).")
    parser.add_argument("--tol-herm", type=_finite_float, default=1e-10,
                        help="Absolute hermiticity tolerance (default: %(default)s).")
    parser.add_argument("--rtol", type=_finite_float, default=1e-10,
                        help="Relative convergence tolerance for iterative fits "
                             "(default: %(default)s).")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(fn):
        sub = commands.add_parser(fn.__name__, allow_abbrev=False, help=fn.__doc__,
                                  description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    sub = command(simulate)
    sub.add_argument("source")
    sub.add_argument("device")
    sub.add_argument("--shots", type=int, required=True, help="Number of recorded events.")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"PRNG seed (default: ${SEED_ENV} or 0).")
    sub.add_argument("--out", dest="out_dir", required=True, help="Output directory.")

    sub = command(tomo)
    sub.add_argument("mode", choices=["state", "detector", "process", "instrument", "selfcal"])
    sub.add_argument("problem_dir")
    sub.add_argument("--out", dest="out_path", required=True, help="Report JSON path.")

    sub = command(dynamics)
    sub.add_argument("model")
    sub.add_argument("--t", dest="t_final", type=_finite_float, required=True, help="Final time.")
    sub.add_argument("--dt", type=_finite_float, required=True, help="Time step.")
    sub.add_argument("--method", choices=["slice", "exact", "lindblad"], default="exact",
                     help="(default: %(default)s)")
    sub.add_argument("--out", dest="out_path", required=True, help="Trajectory JSON path.")
    sub.add_argument("--richardson", action="store_true",
                     help="Also report the slice-method error ratio at dt and dt/2 against the "
                          "exact flow.")

    sub = command(report)
    sub.add_argument("kind", choices=["uncertainty", "lines", "classify"])
    sub.add_argument("inputs", nargs="*")
    sub.add_argument("--out", dest="out_path", required=True, help="Report JSON path.")
    sub.add_argument("--plot-csv", dest="plot_path", default=None,
                     help="Optional (x, y) series as CSV.")
    return parser


def main(args=None, prog_name="qtomo", standalone_mode=True):
    """Run the command line args (default sys.argv[1:]); any error exits through SystemExit.

    standalone_mode is ignored; see the alias below.
    """
    opts = vars(_parser(prog_name).parse_args(args))
    tols = {key: opts.pop(key) for key in ("tol_psd", "tol_herm", "rtol")}
    opts.pop("run")(tols, **opts)


# Callers written for the click entry point that main once was call
# main.main(args=..., prog_name=..., standalone_mode=...); this alias keeps that call working.
main.main = main


if __name__ == "__main__":
    main()
