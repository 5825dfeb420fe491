"""Benchmark workloads: seeded inputs, the CLI commands to time, and output checks.

Each workload writes its inputs from the seed with numpy and qtomo's public
constructors and ``io`` writers. The ground truth stays here: exact data is
computed with plain numpy from the generated objects, and every output of
every iteration is compared against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import qtomo
from qtomo import io as qio


@dataclass(frozen=True)
class Command:
    """One CLI call: its metric name, its arguments after ``qtomo`` and its manifest."""

    name: str
    argv: list
    manifest: str


@dataclass
class Case:
    """A generated workload instance.

    ``outputs`` are the files whose bytes must repeat across iterations.
    ``check`` returns {name: (measured error, tolerance)} for one iteration.
    ``prepare`` lays out anything the commands expect in the fresh output
    directory before an iteration starts.
    """

    out_dir: str
    commands: list
    outputs: list
    check: object
    sizes: dict
    prepare: object = None

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        if self.prepare is not None:
            self.prepare()

    def digests(self):
        result = {}
        for path in self.outputs:
            with open(path, "rb") as handle:
                result[os.path.relpath(path, self.out_dir)] = hashlib.sha256(handle.read()).hexdigest()
        return result


# --- random objects (explicit generator, so one seed gives one input set) ---

def _complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _density(d, rng):
    g = _complex((d, d), rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitary(d, rng):
    q, r = np.linalg.qr(_complex((d, d), rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _psd_sqrt(m):
    evals, evecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def _measure_elements(d, n, rng, rank):
    """n PSD elements of the given rank, conjugated to sum to the identity."""
    parts = []
    for _ in range(n):
        g = _complex((d, rank), rng)
        parts.append(g @ g.conj().T)
    inv_sqrt = np.linalg.inv(_psd_sqrt(np.sum(parts, axis=0)))
    return [inv_sqrt @ p @ inv_sqrt for p in parts]


def _superop(kraus):
    """Row-major vectorization: vec(K X K*) = (K kron conj(K)) vec(X)."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _trace_distance(a, b):
    diff = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def _read(path):
    with open(path) as handle:
        return json.load(handle)


# --- events-qubit ---------------------------------------------------------

SHOTS = 10 ** 6


def events_qubit(seed, in_dir, out_dir):
    """simulate 10^6 shots of a qubit source on a six-element Pauli detector, then tomo state."""
    rng = np.random.default_rng(seed)
    rho = _density(2, rng)
    sim_seed = int(rng.integers(2 ** 31))
    measure = qtomo.pauli_six_measure()
    source = os.path.join(in_dir, "source.json")
    device = os.path.join(in_dir, "device.json")
    qio.write_json_atomic(source, qio.density_to_json(rho))
    qio.write_json_atomic(device, qio.measure_to_json(measure, np.arange(1.0, 7.0)))
    measure_doc = os.path.join(in_dir, "measure.json")
    qio.write_json_atomic(measure_doc, qio.measure_to_json(measure))

    bundle = os.path.join(out_dir, "bundle")
    events = os.path.join(bundle, "events")
    report = os.path.join(out_dir, "state", "report.json")

    def prepare():
        os.makedirs(bundle)
        shutil.copyfile(measure_doc, os.path.join(bundle, "measure.json"))

    def check():
        estimate = qio.density_from_json(_read(report)["estimate"])
        counts = _read(os.path.join(events, "counts.json"))["counts"]
        return {
            "trace_distance": (_trace_distance(estimate, rho), 0.01),
            "shot_count_error": (abs(sum(counts) - SHOTS), 0),
        }

    commands = [
        Command("simulate_s", ["simulate", source, device, "--shots", str(SHOTS),
                               "--seed", str(sim_seed), "--out", events],
                os.path.join(events, "manifest.json")),
        Command("tomo_state_s", ["tomo", "state", bundle, "--out", report],
                os.path.join(out_dir, "state", "manifest.json")),
    ]
    outputs = [os.path.join(events, "events.csv"), os.path.join(events, "counts.json"), report]
    return Case(out_dir, commands, outputs, check,
                {"d": 2, "shots": SHOTS, "detector_elements": 6}, prepare)


# --- reconstruct-d8 -------------------------------------------------------

D8 = 8
PROBES = 64
ELEMENTS = 68


def reconstruct_d8(seed, in_dir, out_dir):
    """tomo instrument, detector and process at d=8 from exact data in one bundle."""
    rng = np.random.default_rng(seed)
    d = D8
    probes = [_density(d, rng) for _ in range(PROBES)]
    elements = _measure_elements(d, ELEMENTS, rng, rank=1)
    # Three-outcome split: two branches U_j sqrt(M_j), and M_0 left to the null branch.
    m0, m1, m2 = _measure_elements(d, 3, rng, rank=d)
    branches = [[_unitary(d, rng) @ _psd_sqrt(m)] for m in (m1, m2)]
    null = [_psd_sqrt(m0)]
    channel_v = np.linalg.qr(_complex((2 * d, d), rng))[0]
    channel = [channel_v[:d], channel_v[d:]]

    bundle = os.path.join(in_dir, "bundle")
    os.makedirs(os.path.join(bundle, "probes"))
    os.makedirs(os.path.join(bundle, "outputs"))
    for ell, rho in enumerate(probes):
        qio.write_json_atomic(os.path.join(bundle, "probes", f"{ell:03d}.json"), qio.density_to_json(rho))
        out = sum(k @ rho @ k.conj().T for k in channel)
        qio.write_json_atomic(os.path.join(bundle, "outputs", f"{ell:03d}.json"), qio.density_to_json(out))
    measure = qtomo.QuantumMeasure(elements)
    qio.write_json_atomic(os.path.join(bundle, "measure.json"),
           qio.measure_to_json(measure, np.arange(1.0, ELEMENTS + 1.0)))
    elems = np.stack(elements)
    rates = np.einsum("lij,kji->lk", np.stack(probes), elems).real
    qio.write_json_atomic(os.path.join(bundle, "rates.json"), {"rates": rates})
    tables = np.zeros((PROBES, 3, ELEMENTS + 1))
    for ell, rho in enumerate(probes):
        for j, kraus in enumerate([null] + branches):
            out = sum(k @ rho @ k.conj().T for k in kraus)
            tables[ell, j, 1:] = np.einsum("kij,ji->k", elems, out).real
    qio.write_json_atomic(os.path.join(bundle, "tables.json"), {"tables": tables})

    reports = {mode: os.path.join(out_dir, mode, "report.json")
               for mode in ("instrument", "detector", "process")}
    truth_branches = [_superop(k) for k in [null] + branches]
    truth_channel = _superop(channel)

    def check():
        inst = [qio.matrix_from_json(b) for b in _read(reports["instrument"])["estimate"]["branches"]]
        det, _ = qio.measure_from_json(_read(reports["detector"])["estimate"])
        proc = qio.matrix_from_json(_read(reports["process"])["estimate"]["superoperator"])
        return {
            "instrument_error": (max(_max_abs(e, t) for e, t in zip(inst, truth_branches))
                                 if len(inst) == len(truth_branches) else float("inf"), 1e-9),
            "detector_error": (_max_abs(det.elements, elems), 1e-9),
            "process_error": (_max_abs(proc, truth_channel), 1e-9),
        }

    commands = [
        Command(f"tomo_{mode}_s", ["tomo", mode, bundle, "--out", path],
                os.path.join(os.path.dirname(path), "manifest.json"))
        for mode, path in reports.items()
    ]
    return Case(out_dir, commands, list(reports.values()), check,
                {"d": d, "probes": PROBES, "detector_elements": ELEMENTS,
                       "instrument_branches": 2, "channel_kraus": 2})


# --- dynamics-d16 ---------------------------------------------------------

D16 = 16
T_FINAL = 2.0
DT = 0.01
GAMMAS = (0.3, 0.1)


def _liouvillian(h, jumps, gammas):
    ident = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for g, l in zip(gammas, jumps):
        ll = l.conj().T @ l
        gen = gen + g * (np.kron(l, l.conj()) - 0.5 * np.kron(ll, ident) - 0.5 * np.kron(ident, ll.T))
    return gen


def _unit_norm(m):
    return m / np.linalg.norm(m, 2)


def dynamics_d16(seed, in_dir, out_dir):
    """dynamics --method lindblad and --method slice on a d=16 model with two jump operators."""
    rng = np.random.default_rng(seed)
    d = D16
    g = _complex((d, d), rng)
    h = _unit_norm(0.5 * (g + g.conj().T))
    jumps = [_unit_norm(_complex((d, d), rng)) for _ in GAMMAS]
    rho0 = _density(d, rng)
    model = os.path.join(in_dir, "model.json")
    qio.write_json_atomic(model, {"H": qio.matrix_to_json(h), "rho0": qio.matrix_to_json(rho0),
                   "lindblad": {"L": [qio.matrix_to_json(l) for l in jumps], "gamma": list(GAMMAS)}})

    steps = int(round(T_FINAL / DT))
    step = scipy.linalg.expm(_liouvillian(h, jumps, GAMMAS) * DT)
    reference = [rho0.reshape(-1)]
    for _ in range(steps):
        reference.append(step @ reference[-1])
    reference = np.stack(reference).reshape(-1, d, d)

    paths = {m: os.path.join(out_dir, m, "traj.json") for m in ("lindblad", "slice")}

    def trajectory(path):
        doc = _read(path)
        return np.array([e["t"] for e in doc]), np.stack([qio.matrix_from_json(e["matrix"]) for e in doc])

    def check():
        times, lind = trajectory(paths["lindblad"])
        _, sliced = trajectory(paths["slice"])
        grid = DT * np.arange(steps + 1)
        return {
            "lindblad_error": (_max_abs(lind, reference) if lind.shape == reference.shape
                               and np.allclose(times, grid, rtol=0, atol=1e-12) else float("inf"), 1e-6),
            "slice_final_trace_distance": (_trace_distance(sliced[-1], reference[-1])
                                           if sliced.shape == reference.shape else float("inf"), 0.1),
        }

    commands = [
        Command(f"dynamics_{m}_s", ["dynamics", model, "--t", str(T_FINAL), "--dt", str(DT),
                                    "--method", m, "--out", path],
                os.path.join(os.path.dirname(path), "manifest.json"))
        for m, path in paths.items()
    ]
    return Case(out_dir, commands, list(paths.values()), check,
                {"d": d, "jump_operators": len(GAMMAS), "t": T_FINAL, "dt": DT,
                       "states": steps + 1})


WORKLOADS = {
    "events-qubit": events_qubit,
    "reconstruct-d8": reconstruct_d8,
    "dynamics-d16": dynamics_d16,
}
