#!/usr/bin/env python3
"""Benchmark of the qtomo CLI: whole commands timed from outside, plus a traced run.

    python3 perfbench/run.py                      # every workload untraced, then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is one closed-loop client: it runs ``python -m qtomo`` from
this checkout's ``src`` as a subprocess, one command at a time, each command
starting after the previous one exits. Inputs are generated from the seed
before timing starts. Every output of every iteration is checked, and an
iteration fails when any check does.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over the timed iterations, with times rescaled to a reference host
speed that a probe measures around each command (see README.md). With
``--trace 1`` it spends half the time on untraced subprocess iterations (for
process start-up) and half on in-process iterations that alternate between
untraced (the tracing baseline) and traced, with every public function of
the traced modules wrapped (see spans.py); it reports the per-layer metrics. The last line of standard
output is one JSON object; the lines above it are a readable report, and the
full record, environment included, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

from spans import BYTES, LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
MIN_TIMED = 3
SETUP_PROBES = 6  # start-up probes before the timed loop, on top of one per timed iteration
MIN_TRACED = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
INHERITED_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}
SPEED_LOOPS = 200_000
REFERENCE_SPEED_S = 0.02  # timed metrics read as on a host where speed_probe() takes this long


@dataclass
class Sample:
    """One command run as a subprocess."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    manifest_s: float | None = None
    speed: tuple | None = None  # mean speed_probe() wall and CPU seconds around the command

    def at_reference(self):
        """Wall and CPU seconds rescaled to a host on which speed_probe() takes REFERENCE_SPEED_S."""
        wall_probe, cpu_probe = self.speed
        return self.wall_s * REFERENCE_SPEED_S / wall_probe, self.cpu_s * REFERENCE_SPEED_S / cpu_probe


@dataclass
class Iteration:
    samples: dict = field(default_factory=dict)   # command name -> Sample
    inproc_s: dict = field(default_factory=dict)  # command name -> in-process seconds
    layers: dict = field(default_factory=dict)    # per-layer metrics of a traced iteration
    by_command: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_cli(argv, env, log_path):
    """Run ``python -m qtomo ARGV`` to completion and take its resource usage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qtomo", *argv],
                                stdout=log, stderr=log, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def speed_probe():
    """Wall and CPU seconds of a fixed pure-Python loop: how fast this CPU runs right now.

    The speed of a CPU of a shared host swings by up to 1.8x over seconds and
    drifts over minutes. Probes right before and after a command, on the CPU
    it ran on, tell how fast the host ran it.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(SPEED_LOOPS):
        total += i * i
    return time.perf_counter() - wall, time.process_time() - cpu


def run_probed(argv, env, log_path, before):
    """run_cli between two speed probes; returns the sample and the probe after it."""
    sample = run_cli(argv, env, log_path)
    after = speed_probe()
    sample.speed = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
    return sample, after


def _tail(path, limit=400):
    with open(path, "rb") as handle:
        return handle.read()[-limit:].decode(errors="replace").strip()


def _verify(case, it, reference):
    """Output checks shared by untraced and traced iterations."""
    try:
        it.errors = case.check()
        digests = case.digests()
    except Exception as err:  # a malformed output is a failed iteration, not a crash
        it.problems.append(f"checking outputs raised {type(err).__name__}: {err}")
        return
    for name, (value, tol) in it.errors.items():
        if not value <= tol:
            it.problems.append(f"{name} = {value:.3e} exceeds {tol:.0e}")
    if not reference:
        reference.update(digests)
    for path, digest in digests.items():
        if reference.get(path) != digest:
            it.problems.append(f"{path} differs from the first iteration of this seed")


def untraced_iteration(case, env, logs, reference, it=None):
    it = it if it is not None else Iteration()
    case.reset()
    speed = speed_probe()
    for cmd in case.commands:
        log = os.path.join(logs, f"{cmd.name}.log")
        sample, speed = run_probed(cmd.argv, env, log, speed)
        it.samples[cmd.name] = sample
        try:
            with open(cmd.manifest) as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as err:
            it.problems.append(f"{cmd.name}: exit {sample.code}, no readable manifest ({err}): {_tail(log)}")
            return it
        sample.manifest_s = manifest.get("wall_time_s")
        if sample.code != 0 or manifest.get("error") is not None or sample.manifest_s is None:
            it.problems.append(f"{cmd.name}: exit {sample.code}, manifest error "
                               f"{manifest.get('error')}: {_tail(log)}")
            return it
    _verify(case, it, reference)
    return it


def _invoke(argv):
    """Call the CLI in this process; returns its exit code."""
    from qtomo.cli import main as cli

    try:
        cli.main(args=list(argv), prog_name="qtomo", standalone_mode=False)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 1
    return 0


def inprocess_iteration(case, reference, tracer=None):
    """Run the commands in this process: traced with a Tracer, or untraced as its baseline."""
    it = Iteration()
    case.reset()
    with tracer or contextlib.nullcontext():
        for cmd in case.commands:
            before = tracer.self_times() if tracer else None
            start = time.perf_counter()
            try:
                code = _invoke(cmd.argv)
            except Exception as err:  # the CLI should never raise; record it and stop
                it.problems.append(f"{cmd.name} (in-process) raised {type(err).__name__}: {err}")
                return it
            it.inproc_s[cmd.name] = time.perf_counter() - start
            if tracer:
                after = tracer.self_times()
                it.by_command[cmd.name] = {key: after[key] - before[key] for key in after}
            if code != 0:
                it.problems.append(f"{cmd.name} (in-process): exit {code}")
                return it
    if tracer:
        it.layers = _layer_metrics(tracer, it)
    _verify(case, it, reference)
    return it


def _layer_metrics(tracer, it):
    inproc = sum(it.inproc_s.values())
    m = {}
    for key, (calls, self_s, nbytes) in tracer.stats.items():
        m[f"{key}.calls"] = calls
        m[f"{key}.self_s"] = self_s
        if key in BYTES:
            m[f"{key}.bytes"] = nbytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[1] for key, s in tracer.stats.items() if key.startswith(layer + "."))
    m["cli.self_s"] = inproc - tracer.covered
    # .get: a later version of the program may drop one of these functions.
    calls = tracer.stats.get("ops.hermitian_basis", [0])[0]
    m["ops.hermitian_basis.useful_ratio"] = len(tracer.basis_dims) / calls if calls else 1.0
    for key in ("simulate.event_log_to_csv", "simulate.event_log_from_csv"):
        m[f"{key}.command_share"] = max(
            it.by_command[name].get(key, 0.0) / it.inproc_s[name] for name in it.inproc_s)
    m["trace.inproc_s"] = inproc
    m["trace.closure_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.self_s"] - inproc
    return m


def _median(values):
    return statistics.median(values) if values else float("nan")


def _timed(iterations):
    """Iterations whose timings count: the successful ones, or all if none succeeded."""
    ok = [it for it in iterations if not it.problems]
    return ok or iterations


def end_to_end(iterations, setup_samples):
    """Timings at the reference speed, which the gate uses, and as measured (raw_*)."""
    its = _timed(iterations)
    metrics = {
        "setup_s": _median([s.at_reference()[0] for s in setup_samples]),
        "wall_s": _median([sum(s.at_reference()[0] for s in it.samples.values()) for it in its]),
        "cpu_s": _median([sum(s.at_reference()[1] for s in it.samples.values()) for it in its]),
        "peak_rss_mb": _median([max(s.rss_mb for s in it.samples.values()) for it in its]),
        "raw_setup_s": _median([s.wall_s for s in setup_samples]),
        "raw_wall_s": _median([sum(s.wall_s for s in it.samples.values()) for it in its]),
        "raw_cpu_s": _median([sum(s.cpu_s for s in it.samples.values()) for it in its]),
        "speed_probe_s": _median([s.speed[0] for it in its for s in it.samples.values()]),
    }
    per_command = {}
    for it in its:
        for name, s in it.samples.items():
            per_command.setdefault(name, []).append(s.at_reference()[0])
    return metrics, {name: _median(v) for name, v in per_command.items()}


def per_layer(untraced, baseline, traced):
    plain = _timed(untraced)
    traced = _timed(traced)
    keys = sorted({k for it in traced for k in it.layers})
    # Defaults keep the report printable when every traced iteration failed early.
    metrics = dict.fromkeys([f"{layer}.self_s" for layer in (*LAYERS, "cli")]
                            + ["trace.inproc_s", "trace.closure_s"], 0.0)
    metrics.update({k: _median([it.layers.get(k, 0.0) for it in traced]) for k in keys})
    wall = _median([sum(s.wall_s for s in it.samples.values()) for it in plain])
    cpu = _median([sum(s.cpu_s for s in it.samples.values()) for it in plain])
    manifest = _median([sum(s.manifest_s or 0.0 for s in it.samples.values()) for it in plain])
    metrics["process.startup_s"] = _median(
        [sum(s.wall_s - (s.manifest_s or 0.0) for s in it.samples.values()) for it in plain])
    metrics["process.cpu_per_wall"] = cpu / wall
    metrics["process.manifest_s"] = manifest
    metrics["trace.overhead_s"] = metrics["trace.inproc_s"] - _median(
        [sum(it.inproc_s.values()) for it in _timed(baseline)])
    return metrics


def measure_setup(env, logs, it):
    """One bare ``python -m qtomo --version``: interpreter start plus imports."""
    log = os.path.join(logs, "version.log")
    sample, _ = run_probed(["--version"], env, log, speed_probe())
    if sample.code != 0 or "version" not in _tail(log):
        it.problems.append(f"--version: exit {sample.code}: {_tail(log)}")
    return sample


def environment(load_before):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    import numpy as np
    import qtomo

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "qtomo": qtomo.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_vars_inherited": INHERITED_THREADS,
        "thread_note": "the benchmark sets each variable the caller left unset to 1",
        "cpu_model": cpu or platform.processor() or None,
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "git": _git_state(),
    }


def _git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_workload(name, seed, seconds, trace):
    import workloads

    load_before = list(os.getloadavg())
    work = os.path.join(STATE_DIR, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    dirs = {k: os.path.join(work, k) for k in ("in", "logs")}
    for d in dirs.values():
        os.makedirs(d)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    try:
        case = workloads.WORKLOADS[name](seed, dirs["in"], os.path.join(work, "out"))
        reference = {}
        warmup = untraced_iteration(case, env, dirs["logs"], reference)
        untraced, baseline, traced = [], [], []
        setup_samples = [] if trace else [measure_setup(env, dirs["logs"], warmup) for _ in range(SETUP_PROBES)]
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while len(untraced) < (MIN_TRACED if trace else MIN_TIMED) or time.perf_counter() - start < budget:
            it = Iteration()
            if not trace:
                setup_samples.append(measure_setup(env, dirs["logs"], it))
            untraced.append(untraced_iteration(case, env, dirs["logs"], reference, it))
        if trace:
            start = time.perf_counter()
            while len(traced) < MIN_TRACED or time.perf_counter() - start < budget:
                baseline.append(inprocess_iteration(case, reference))
                traced.append(inprocess_iteration(case, reference, Tracer()))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = [warmup, *untraced, *baseline, *traced]
    problems = [f"iteration {i}: {p}" for i, it in enumerate(attempted) for p in it.problems]
    failed = sum(1 for it in attempted if it.problems)
    if trace:
        metrics = per_layer(untraced, baseline, traced)
        per_command = {}
    else:
        metrics, per_command = end_to_end(untraced, setup_samples)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "sizes": case.sizes,
        "iterations": {"warmup": 1, "untraced": len(untraced), "in_process": len(baseline),
                       "traced": len(traced), "setup_probes": len(setup_samples)},
        "attempted": len(attempted),
        "failed": failed,
        "problems": problems,
        "errors": warmup.errors,
        "metrics": metrics,
        "per_command_s": per_command,
        "samples": [{n: vars(x) for n, x in it.samples.items()} for it in untraced],
        "setup_samples": [vars(s) for s in setup_samples],
        "by_command": _command_breakdown(traced),
        "environment": environment(load_before),
    }


def _command_breakdown(traced):
    """Median per-command self time by layer, cli included, from traced iterations."""
    traced = _timed(traced)
    if not traced:
        return {}
    out = {}
    for name in traced[0].inproc_s:
        rows = []
        for it in traced:
            if name not in it.by_command:
                continue
            selfs = it.by_command[name]
            row = {layer: sum(v for k, v in selfs.items() if k.startswith(layer + ".")) for layer in LAYERS}
            row["cli"] = it.inproc_s[name] - sum(row.values())
            row["inproc"] = it.inproc_s[name]
            row["top_function"] = max(selfs, key=selfs.get)
            rows.append(row)
        if not rows:
            continue
        out[name] = {k: _median([r[k] for r in rows]) for k in rows[0] if k != "top_function"}
        out[name]["top_function"] = rows[-1]["top_function"]
    return out


def _print_report(result, spec):
    name, trace, its = result["workload"], result["trace"], result["iterations"]
    metrics = result["metrics"]
    print(f"== {name}  seed {result['seed']}  trace {trace}  sizes {json.dumps(result['sizes'])}")
    print(f"   iterations: 1 warm-up + {its['untraced']} untraced + {its['in_process']} untraced "
          f"in-process + {its['traced']} traced; {its['setup_probes']} start-up probes")
    print(f"   fail_frac {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']}/{result['attempted']} failed)")
    for check, (value, tol) in result["errors"].items():
        print(f"   check {check:<28} {value:.3e}  (limit {tol:.0e})")
    for problem in result["problems"][:10]:
        print(f"   FAIL {problem}")
    if not trace:
        print(f"   times at the reference speed; speed probe {metrics['speed_probe_s'] * 1e3:.2f} ms "
              f"(reference {REFERENCE_SPEED_S * 1e3:.0f} ms)")
        for m in spec["end_to_end"]:
            raw = metrics.get("raw_" + m["name"])
            print(f"   {m['name']:<28} {metrics[m['name']]:.6g} {m['unit']}"
                  + (f"  (as measured {raw:.6g} {m['unit']})" if raw is not None else ""))
        for key, value in result["per_command_s"].items():
            print(f"   {key:<28} {value:.6g} s  (per-command median)")
        return
    parts = {layer: metrics[f"{layer}.self_s"] for layer in (*LAYERS, "cli")}
    parts["process.startup"] = metrics["process.startup_s"]
    total = sum(parts.values())
    top = sorted(parts, key=parts.get, reverse=True)[:3]
    print("   top layers: " + ", ".join(f"{k} {parts[k]:.4f} s ({parts[k] / total:.0%})" for k in top))
    for cmd, row in result["by_command"].items():
        top = sorted(LAYERS + ("cli",), key=row.get, reverse=True)[:3]
        print(f"   {cmd:<20} in-process {row['inproc']:.4f} s: "
              + ", ".join(f"{k} {row[k] / row['inproc']:.0%}" for k in top)
              + f"; top function {row['top_function']}")
    print(f"   closure: module self times + cli.self_s - trace.inproc_s = {metrics['trace.closure_s']:.2e} s; "
          f"trace.overhead_s = {metrics['trace.overhead_s']:.4f} s")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key in sorted(metrics):
        if metrics.get(key.rsplit(".", 1)[0] + ".calls", 1) != 0 and key in units:
            print(f"   {key:<52} {metrics[key]:.6g} {units[key]}")
    missing = [key for key in units if key not in metrics]
    if missing:
        print(f"   not produced by this code (reported as 0): {', '.join(missing)}")


def _result_line(result, spec):
    """The final JSON line: every end-to-end metric, or every per-layer one when traced."""
    if result["trace"]:
        metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _save(result):
    out = os.path.join(STATE_DIR, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="one workload; omit to run every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as err:
        print(f"perfbench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller chose otherwise, before numpy loads here or
    # in a command: threads beyond a free core time the host's scheduler (README.md).
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # This process, its speed probes and every command share one CPU, so that a
    # probe times the CPU the command ran on: the CPUs of a shared host drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "qtomo", "__init__.py")):
        print(f"perfbench: no qtomo sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qtomo

    if os.path.dirname(os.path.dirname(os.path.abspath(qtomo.__file__))) != SRC:
        print(f"perfbench: imported qtomo from {qtomo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        result = run_workload(args.workload, args.seed, seconds, args.trace)
        _save(result)
        _print_report(result, spec)
        print(json.dumps(_result_line(result, spec)))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            result = run_workload(name, args.seed, seconds, trace)
            _save(result)
            _print_report(result, spec)
            line = _result_line(result, spec)
            combined["correct"] &= line["correct"]
            combined["attempted"] += line["attempted"]
            combined["failed"] += line["failed"]
            combined["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
