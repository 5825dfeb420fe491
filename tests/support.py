"""Shared random-object generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

import contextlib
import io
from typing import NamedTuple

import numpy as np

from qtomo import QuantumMeasure, density_from_state


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
