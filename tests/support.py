"""Shared random-object generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

import contextlib
import io
from typing import NamedTuple

import numpy as np

import qtomo
from qtomo import PAULI, QuantumMeasure, density_from_state, tetrahedron_measure
from qtomo import io as qio
from qtomo import simulate


def random_complex(shape, rng):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(d, rng, scale=1.0):
    g = random_complex((d, d), rng)
    return scale * 0.5 * (g + g.conj().T)


def random_density(d, rng, pure=False, trace=1.0):
    if pure:
        psi = random_complex(d, rng)
        rho = density_from_state(psi)
    else:
        g = random_complex((d, d), rng)
        rho = g @ g.conj().T
    return trace * rho / np.trace(rho).real


def random_unitary(d, rng):
    q, r = np.linalg.qr(random_complex((d, d), rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_measure(d, n_elements, rng):
    """Random quantum measure: PSD pieces conjugated to sum to the identity."""
    parts = []
    for _ in range(n_elements):
        g = random_complex((d, d), rng)
        parts.append(g @ g.conj().T)
    total = np.sum(parts, axis=0)
    evals, evecs = np.linalg.eigh(total)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return QuantumMeasure([inv_sqrt @ p @ inv_sqrt for p in parts])


def squashed_tetrahedron(eps):
    """The tetrahedron measure (1 + n_k . sigma) / 4 with the z component of every n_k times eps."""
    return squash_measure(tetrahedron_measure(), np.array([0.0, 0.0, 1.0]), eps)


def squash_measure(measure, axis, eps):
    """A qubit measure with the Bloch-vector component of every element along the unit axis
    scaled by eps: a valid measure again, informationally complete iff eps != 0 and the
    original is."""
    stokes = np.einsum("kij,sji->ks", measure.elements, np.stack(PAULI)).real  # tr(P_k sigma_s)
    stokes[:, 1:] -= (1.0 - eps) * np.outer(stokes[:, 1:] @ axis, axis)
    return QuantumMeasure(0.5 * np.einsum("ks,sij->kij", stokes, np.stack(PAULI)))


def random_kraus(d, n_ops, rng, scale=None):
    if scale is None:
        scale = 1.0 / np.sqrt(2.0 * d)
    return [scale * random_complex((d, d), rng) for _ in range(n_ops)]


def probe_states(d):
    """Canonical d^2 pure probe states with linearly independent densities."""
    states = []
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        states.append(density_from_state(e))
    for j in range(d):
        for k in range(j + 1, d):
            for z in (1.0, 1j):
                v = np.zeros(d, dtype=complex)
                v[j] = 1.0
                v[k] = z
                states.append(density_from_state(v / np.sqrt(2.0)))
    return states


def probe_log_bundle(bundle, mode, shots, seed, memos=(True,) * 4):
    """A qubit "detector" or "instrument" bundle at the pathlib.Path bundle: the four
    probe_states(2) in probes/, and for probe i a sampled log events/p{i}.csv (seed + i) and,
    where memos[i], its counts memo beside it as events/p{i}.json.  The detector has the
    tetrahedron measure; the instrument is two computational-basis branches, observed by it."""
    det = qtomo.Detector(tetrahedron_measure(), np.arange(1.0, 5.0))
    inst = qtomo.Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
    (bundle / "probes").mkdir(parents=True)
    (bundle / "events").mkdir()
    if mode == "instrument":
        qio.write_json_atomic(str(bundle / "measure.json"),
                              qio.measure_to_json(det.measure, det.scale))
    for i, probe in enumerate(probe_states(2)):
        qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
        cfg = qtomo.ExperimentConfig(seed + i, shots, probe, det.measure,
                                     inst if mode == "instrument" else None)
        with open(bundle / "events" / f"p{i}.csv", "wb") as handle:
            memo = simulate.write_events(cfg, handle)
        if memos[i]:
            qio.write_json_atomic(str(bundle / "events" / f"p{i}.json"), memo)
    return bundle


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def run_cli(argv):
    """Run ``qtomo ARGV`` in this process: its exit code and what it wrote to stdout and stderr."""
    from qtomo.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
            code = 0
        except SystemExit as exit_:
            code = 0 if exit_.code is None else exit_.code
    return CliResult(code, out.getvalue(), err.getvalue())
