"""Command-line surface for reproducible simulation and reconstruction runs.

Exit codes: 0 success, 2 input, output or validation error, 3 reconstruction
infeasibility (rank deficiency), 4 internal numerical failure or any other
unexpected error.  Every command writes a manifest next to its outputs, also
on failure unless their directory cannot be made, with the error embedded (an
unexpected error with its traceback).  Errors are also reported as JSON on stderr.

Each command imports the engines it runs inside its body, so start-up loads
only argparse, numpy and the JSON layer.  The process entry
(``qtomo.__main__.run``) freezes the heap these imports build and ends the
process without the interpreter's teardown; outputs and exit codes are those
of main.
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
# The BLAS thread variables whose values each manifest records.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Largest trajectory `dynamics` computes, in complex entries (n + 1) d^2: 2 GiB of states,
# several GB once printed as JSON.
MAX_TRAJECTORY_ENTRIES = 2 ** 27
# The exit code of each expected error; any other exception exits 4 with its traceback.
_EXIT_CODES = (((ContractViolation, OSError), 2), (RankDeficiencyError, 3),
               ((NumericalError, np.linalg.LinAlgError, FloatingPointError), 4))


class _Run:
    """The manifest of one command, written once as its `with _Run(...) as run:` block ends.

    An error of the block, or of the manifest write, becomes exit 2, 3 or 4 with one JSON
    error on stderr; SystemExit and KeyboardInterrupt pass through with no manifest.
    """

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
            # what the timings ran on
            "environment": {
                "python": "%d.%d.%d" % sys.version_info[:3],
                "numpy": np.__version__,
                "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
            },
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

    def __enter__(self):
        return self

    def __exit__(self, kind, error, tb):
        if error is None:
            try:
                self.finish()
                return
            except Exception as err:  # a manifest that cannot be written is an output error
                error = err
        if not isinstance(error, Exception):
            return
        code = next((code for kinds, code in _EXIT_CODES if isinstance(error, kinds)), None)
        trace = None
        if code is None:  # last resort: still exit with a documented code and a manifest
            import traceback

            code, trace = 4, "".join(traceback.format_exception(error))
        try:
            self.finish(error, trace)
        except OSError:  # the output directory cannot be made or written: the error stands alone
            pass
        payload = {"error": {"type": type(error).__name__, "message": str(error)}}
        print(io.canonical_json(payload), file=sys.stderr)
        sys.exit(code)


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
    """Sample a detection log, or a coincidence log for an instrument DEVICE, from SOURCE."""
    tols = {key: tols[key] for key in ("tol_herm", "tol_psd")}
    with _Run("simulate", {"source": source, "device": device, "shots": shots},
              out_dir, seed=seed, tolerances=tols) as run:
        from .simulate import ExperimentConfig, write_events

        run.manifest["seed"] = cfg_seed = _seed(seed)
        rho = _judged(_load(source, io.density_from_json), source, tols)
        instrument, measure = _load(device, _device, tols)
        if measure.sum_defect() > tols["tol_psd"]:
            raise ContractViolation(f"{device}: sum defect {measure.sum_defect():.3e} of the "
                                    f"elements exceeds --tol-psd {tols['tol_psd']!r}")
        cfg = ExperimentConfig(cfg_seed, shots, rho, measure, instrument)
        memo = io.write_atomic(os.path.join(out_dir, "events.csv"),
                               lambda handle: write_events(cfg, handle))
        io.write_json_atomic(os.path.join(out_dir, "counts.json"), memo)


def _judged(stack, names, tols):
    """The stack (or one matrix, named by the string names) of states or measure elements, checked
    by ops.require_hermitian with --tol-herm, and with --tol-psd if the command reads it."""
    from .ops import require_hermitian

    return require_hermitian(stack, names, tols["tol_herm"], tols.get("tol_psd"),
                             dimensionless=True)


def _states(problem_dir, folder, tols):
    """The density matrices of the *.json files in problem_dir/folder, in file-name order, as
    one stack checked by square_stack and _judged, each refusal naming its file."""
    from .ops import square_stack

    path = os.path.join(problem_dir, folder)
    files = [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
    if not files:
        raise ContractViolation(f"no states found in {path}")
    states = square_stack([_load(f, io.density_from_json) for f in files], [f"{f}:" for f in files])
    return _judged(states, files, tols)


def _load(path, parse, *args):
    """parse(the JSON document at path, *args); a ContractViolation it raises names the file."""
    doc = io.read_json(path)
    try:
        return parse(doc, *args)
    except ContractViolation as err:
        raise ContractViolation(f"{path}: {err}") from None


def _measure(doc, tols):
    """The measure of a measure document, its elements checked by _judged."""
    measure, _ = io.measure_from_json(doc)
    _judged(measure.elements, [f"element {k}" for k in range(len(measure))], tols)
    return measure


def _device(doc, tols):
    """(instrument or None, measure) of a device document, a measure or an instrument and the
    detector observing it, read as a measure: sampling draws labels and never reads a scale."""
    if not (isinstance(doc, dict) and "instrument" in doc):
        return None, _measure(doc, tols)
    return (io.instrument_from_json(doc["instrument"], **tols),
            _measure(io._field(doc, "detector", "device"), tols))


def _table(doc, key, ndims):
    """The array under key of a rates document, as floats; it must have one of ndims axes."""
    table = io._number_array(doc.get(key)) if isinstance(doc, dict) else None
    if table is None or table.ndim not in ndims or not np.isfinite(table).all():
        raise ContractViolation(f"'{key}' must be a rectangular array of finite numbers with "
                                f"{' or '.join(map(str, ndims))} axes")
    return table.astype(float)


def _load_rates(problem_dir, devices, logs):
    """(rates, shots or None) of a bundle whose logs record 1 or 2 devices.

    From rates.json or tables.json if present, else one row per events/*.csv
    log (each must record that many devices and count the outcomes of the
    first) in file-name order, with each log's shot count.  The engines take
    element rates, so the null detection slot (slot 0 of the last axis) is
    dropped from every log's rates and from tables.json; rates.json has none.
    A log's rates come from the memo among events/*.json that records the
    log's sha256 (io.memos_by_digest), whatever its name, else from parsing
    the log, which only then is read whole.  logs maps each log's file name to
    its sha256 and the file its rates came from.
    """
    table_file, key, ndims = io._LOG_KINDS[devices][3:]
    if os.path.exists(os.path.join(problem_dir, table_file)):
        table = _load(os.path.join(problem_dir, table_file), _table, key, ndims)
        return (table[..., 1:] if table_file == "tables.json" else table), None
    from .tomography import rates_from_counts

    events_dir = os.path.join(problem_dir, "events")
    files = sorted(f for f in os.listdir(events_dir) if f.endswith(".csv"))
    if not files:
        raise ContractViolation(f"no rates.json or tables.json and no events in {events_dir}")
    memos = io.memos_by_digest(events_dir)
    rates, log_shots = [], []
    for name in files:
        path = os.path.join(events_dir, name)
        digest = io.file_sha256(path)
        source, memo = memos.get(digest, (name, None))
        logs[name] = {"sha256": digest, "rates_from": source}
        try:  # a refusal names the log, or the memo that vouched for it
            if memo is None:
                from .simulate import event_log_from_csv  # only here: memos need no sampler

                # decoded with open()'s text-mode defaults: locale encoding, any newline
                with open(path) as handle:
                    log = event_log_from_csv(handle.read())
                counts, shots = log.counts(), len(log)
            else:
                counts, shots = io.counts_from_document(memo)
            rates.append(rates_from_counts(counts, shots))
        except (ContractViolation, UnicodeDecodeError) as err:
            raise ContractViolation(f"{source}: {err}") from None
        if counts.ndim != devices:
            raise ContractViolation(f"{source}: is a {io._LOG_KINDS[counts.ndim][0]}, "
                                    f"this bundle needs {io._LOG_KINDS[devices][0]}s")
        if counts.shape != rates[0].shape:
            raise ContractViolation(f"{name}: counts of shape {counts.shape}, but {files[0]} has "
                                    f"{rates[0].shape}; the logs of a bundle must count the "
                                    "same outcomes")
        log_shots.append(shots)
    return np.stack([r[..., 1:] for r in rates]), np.array(log_shots)


def _tomo_state(problem_dir, logs, tols):
    from .tomography import state_tomography

    measure = _load(os.path.join(problem_dir, "measure.json"), _measure, tols)
    rates, shots = _load_rates(problem_dir, 1, logs)  # one row per log, or rates.json's
    if rates.ndim == 2:
        if len(rates) != 1:
            raise ContractViolation(
                f"a state bundle takes exactly one event log, found {len(rates)} in "
                f"{os.path.join(problem_dir, 'events')}" if shots is not None else
                f"{os.path.join(problem_dir, 'rates.json')}: 'rates' has shape {rates.shape}; a "
                "state bundle takes one row of rates, of shape (K,) or (1, K)")
        rates = rates[0]
    rho, report = state_tomography(measure, rates, shots)
    return io.density_to_json(rho), report


def _tomo_detector(problem_dir, logs, tols):
    from .tomography import detector_tomography

    probes = _states(problem_dir, "probes", tols)
    rates, shots = _load_rates(problem_dir, 1, logs)
    measure, report = detector_tomography(probes, np.atleast_2d(rates), shots)
    return io.measure_to_json(measure), report


def _tomo_process(problem_dir, logs, tols):
    from .tomography import process_tomography

    e, report = process_tomography(_states(problem_dir, "probes", tols),
                                   _states(problem_dir, "outputs", tols))
    return {"superoperator": io.matrix_to_json(e)}, report


def _tomo_instrument(problem_dir, logs, tols):
    from .tomography import instrument_tomography

    probes = _states(problem_dir, "probes", tols)
    measure = _load(os.path.join(problem_dir, "measure.json"), _measure, tols)
    tables, shots = _load_rates(problem_dir, 2, logs)
    maps, report = instrument_tomography(tables, probes, measure, shots)
    return {"branches": [io.matrix_to_json(e) for e in maps]}, report


def _tomo_selfcal(problem_dir, logs, tols):
    from .tomography import self_calibrating_tomography

    outputs, filters, sources = _load(os.path.join(problem_dir, "selfcal.json"),
                                      io.selfcal_from_json)
    (filters, sources), report = self_calibrating_tomography(outputs, filters, sources,
                                                             rtol=tols["rtol"])
    return {"filters": [io.matrix_to_json(f) for f in filters],
            "sources": [io.matrix_to_json(s) for s in sources]}, report


# Each tomo mode by name, in the parser's order: its adapter (problem_dir, logs, tols) returns
# (estimate document, record), a NamedTuple whose fields, and those of its "extras" mapping if
# it has one, become the report's keys; it records each event log it reads in logs.
_TOMO_MODES = {"state": _tomo_state, "detector": _tomo_detector, "process": _tomo_process,
               "instrument": _tomo_instrument, "selfcal": _tomo_selfcal}


def tomo(tols, mode, problem_dir, out_path):
    """Run a reconstruction over a problem bundle directory."""
    key = "rtol" if mode == "selfcal" else "tol_herm"  # the one tolerance the mode reads
    tols = {key: tols[key]}
    with _Run(f"tomo {mode}", {"problem_dir": problem_dir},
              os.path.dirname(os.path.abspath(out_path)), tolerances=tols) as run:
        logs = run.manifest["event_logs"] = {}
        estimate, report = _TOMO_MODES[mode](problem_dir, logs, tols)
        fields = report._asdict()
        io.write_json_atomic(out_path, {"estimate": estimate, **fields.pop("extras", {}), **fields})


def dynamics(tols, model, t_final, dt, method, out_path, richardson):
    """Evolve the model's initial state and write the trajectory."""
    tols = {key: tols[key] for key in ("tol_herm", "tol_psd")}
    with _Run("dynamics", {"model": model, "t": t_final, "dt": dt, "method": method},
              os.path.dirname(os.path.abspath(out_path)), tolerances=tols):
        from .dynamics import (Trajectory, lindblad_evolve, sliced_final, sliced_master,
                               step_count, von_neumann_evolve)

        if dt <= 0 or t_final < 0:
            raise ContractViolation(f"need dt > 0 and t >= 0, got dt={dt}, t={t_final}")
        medium, rho0 = _load(model, lambda doc: io.model_from_json(doc, **tols))
        steps = step_count(t_final, dt)
        d = medium.dim
        if (steps + 1) * d * d > MAX_TRAJECTORY_ENTRIES:
            raise ContractViolation(
                f"t / dt asks for n = {steps} steps of {d}x{d} states: (n + 1) d^2 = "
                f"{(steps + 1) * d * d} complex entries, more than {MAX_TRAJECTORY_ENTRIES}")
        if (method == "exact" or richardson) and (medium.V is not None or medium.jump_ops):
            raise ContractViolation(
                "method 'exact' and --richardson cover only lossless models (no V, no jumps)")
        if method == "lindblad":
            traj = lindblad_evolve(medium, rho0, t_final, dt)
        elif method == "slice":
            traj = sliced_master(medium, rho0, dt, steps)
        else:
            times = dt * np.arange(steps + 1)
            traj = Trajectory(times, von_neumann_evolve(medium.H, rho0, times, medium.hbar))
        io.write_json_atomic(out_path, io.trajectory_to_json(traj))
        if richardson:
            # the final states of n slices of dt and 2n of dt / 2, each by one matrix power
            exact = von_neumann_evolve(medium.H, rho0, steps * dt, medium.hbar)
            err = np.max(np.abs(sliced_final(medium, rho0, dt, steps) - exact))
            err_half = np.max(np.abs(sliced_final(medium, rho0, dt / 2, 2 * steps) - exact))
            io.write_json_atomic(
                os.path.splitext(out_path)[0] + ".richardson.json",
                {"error_dt": float(err), "error_half_dt": float(err_half),
                 "ratio": float(err / err_half) if err_half > 0 else None},
            )


def report(tols, kind, inputs, out_path, plot_path):
    """Uncertainty, spectral-line, or filter-classification reports."""
    tols = {key: tols[key] for key in ("tol_herm", "tol_psd")}
    with _Run(f"report {kind}", {"inputs": list(inputs)},
              os.path.dirname(os.path.abspath(out_path)), tolerances=tols):
        if plot_path is not None and kind == "classify":
            raise ContractViolation("--plot-csv takes the series of report uncertainty or lines; "
                                    "report classify has none")
        if kind == "uncertainty":
            if len(inputs) != 2:
                raise ContractViolation("report uncertainty needs SOURCE and DETECTOR files")
            from .measures import response_probabilities
            from .uncertainty import statistical_vs_quantum

            rho = _judged(_load(inputs[0], io.density_from_json), inputs[0], tols)
            detector = _load(inputs[1], io.detector_from_json)
            _judged(detector.measure.elements,
                    [f"{inputs[1]}: element {k}" for k in range(len(detector.scale))], tols)
            payload = statistical_vs_quantum(detector, rho)._asdict()
            if plot_path is not None:  # the series repeats the probabilities: only for a plot
                p = response_probabilities(detector.measure, rho)
                series = [(float(k + 1), float(v)) for k, v in enumerate(p)]
        elif kind == "lines":
            if len(inputs) != 1:
                raise ContractViolation("report lines needs one Hamiltonian file")
            from .dynamics import rydberg_ritz_lines

            h, hbar = _load(inputs[0], lambda doc: io.hamiltonian_from_json(
                doc, tol_herm=tols["tol_herm"]))
            lines = rydberg_ritz_lines(h, hbar, tol_herm=tols["tol_herm"])
            payload = {"omega": lines.omega.tolist(), "nu": lines.nu.tolist()}
            series = [(float(i + 1), float(nu)) for i, nu in enumerate(lines.nu)]
        else:
            if len(inputs) != 1:
                raise ContractViolation("report classify needs one channel file")
            from .channels import classify_filter, pi_operator

            kraus = _load(inputs[0], lambda doc: io.channel_from_json(doc, **tols))
            payload = {**classify_filter(kraus, **tols)._asdict(),
                       "pi": io.matrix_to_json(pi_operator(kraus))}
        if plot_path is not None:
            text = "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in series)
            io.write_atomic(plot_path, lambda handle: handle.write(text.encode("ascii")))
        io.write_json_atomic(out_path, payload)


def _finite_float(text):
    """argparse type of the float options: nan, inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text):
    """argparse type of the tolerance options: a finite number, 0 or more."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a tolerance must be 0 or more, got {text!r}")
    return value


def _parser(prog):
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Quantum tomography workbench: simulate, reconstruct, evolve, report.")
    parser.add_argument("--version", action="version", version=f"qtomo, version {__version__}")
    parser.add_argument("--tol-psd", type=_tolerance, default=1e-9,
                        help="PSD tolerance, relative to each operator's scale "
                             "(default: %(default)s).")
    parser.add_argument("--tol-herm", type=_tolerance, default=1e-10,
                        help="Hermiticity tolerance, relative to each operator's scale "
                             "(default: %(default)s).")
    parser.add_argument("--rtol", type=_tolerance, default=1e-10,
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
    sub.add_argument("mode", choices=_TOMO_MODES)
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
                     help="Optional (x, y) series as CSV (uncertainty and lines only).")
    return parser


def main(args=None, prog_name="qtomo", standalone_mode=True):
    """Run the command line args (default sys.argv[1:]); any error exits through SystemExit.

    standalone_mode is ignored; see the alias below.
    """
    opts = vars(_parser(prog_name).parse_args(args))
    tols = {key: opts.pop(key) for key in ("tol_psd", "tol_herm", "rtol")}
    opts.pop("run")(tols, **opts)


# perfbench's in-process runner (_invoke in perfbench/run.py) calls
# main.main(args=..., prog_name="qtomo", standalone_mode=False); this alias and the ignored
# keyword keep that call working.
main.main = main
