"""Fuzzed JSON documents never take the CLI outside its exit codes or past its manifest.

Each test writes one generated document where a command reads it, runs the
command in process and checks that it exits 0, 2, 3 or 4 with a manifest.
A malformed document is an input error: it may not reach the last-resort
handler, which is the one that records a traceback.  A third of the
documents are well formed, a third have one field replaced by arbitrary
JSON, and a third are arbitrary JSON.  The last two tests fuzz option
values and seeds the same way; a usage error exits 2 before any manifest.
"""

import hashlib
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qtomo
from qtomo import io as qio
from support import run_cli

# Extreme magnitudes make numpy warn of overflow on their way to an input error.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_SETTINGS = settings(max_examples=25, deadline=None)

_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
            | st.floats(allow_nan=True, allow_infinity=True))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_small = st.floats(-2.0, 2.0)
_numbers = _small | _small | st.floats() | st.integers()
_entries = _numbers | st.tuples(_numbers, _numbers).map(list)
_dims = st.integers(1, 3)


def _square(d):
    return st.lists(st.lists(_entries, min_size=d, max_size=d), min_size=d, max_size=d)


def _hermitian(d):
    """A real symmetric d x d matrix document."""
    return st.lists(_small, min_size=d * d, max_size=d * d).map(
        lambda v: (np.reshape(v, (d, d)) + np.reshape(v, (d, d)).T).tolist())


def _documents(fields, optional=None):
    """Objects with these field strategies: well formed, with one field replaced, or any JSON."""
    valid = st.fixed_dictionaries(fields, optional=optional or {})
    keys = sorted({*fields, *(optional or {})})
    return valid | st.builds(lambda doc, key, value: {**doc, key: value},
                             valid, st.sampled_from(keys), _json) | _json


def _check(tmp, argv):
    result = run_cli(argv)
    manifest_path = os.path.join(tmp, "run", "manifest.json")
    assert os.path.exists(manifest_path), result.output
    with open(manifest_path) as handle:
        error = json.load(handle)["error"]
    assert result.exit_code in (0, 2, 3, 4)
    assert (error is None) == (result.exit_code == 0)
    assert error is None or "traceback" not in error, error


def _write(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(doc, handle)


_lines_docs = _dims.flatmap(lambda d: _documents(
    {"H": _hermitian(d) | _square(d)}, {"hbar": _numbers}))


@_SETTINGS
@given(_lines_docs)
@example(5)
@example({"H": [[1.0]], "hbar": "x"})
@example({"H": [[[1, "x"]]]})
@example({"H": [[10 ** 400]], "hbar": 10 ** 400})
def test_report_lines_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _write(os.path.join(tmp, "ham.json"), doc)
        _check(tmp, ["report", "lines", os.path.join(tmp, "ham.json"),
                     "--out", os.path.join(tmp, "run", "lines.json")])


def _selfcal(d, n_filters, n_sources):
    return _documents({
        "outputs": st.lists(st.lists(_square(d), min_size=n_sources, max_size=n_sources),
                            min_size=n_filters, max_size=n_filters),
        "init_filters": st.lists(_square(d * d), min_size=n_filters, max_size=n_filters),
        "init_sources": st.lists(_square(d), min_size=n_sources, max_size=n_sources),
    })


_selfcal_docs = st.tuples(st.integers(1, 2), st.integers(2, 3), st.integers(2, 3)).flatmap(
    lambda shape: _selfcal(*shape))


@_SETTINGS
@given(_selfcal_docs)
@example({"outputs": 5, "init_filters": [], "init_sources": []})
@example({"outputs": [[[[1.0]], [[1.0]]], [[[1.0]]]], "init_filters": [], "init_sources": []})
@example({"outputs": [[[[0.5, 0], [0, 0.5]]] * 2] * 2, "init_sources": [[[0.5, 0], [0, 0.5]]] * 2,
          "init_filters": [np.eye(4).tolist(), np.eye(9).tolist()]})
def test_tomo_selfcal_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _write(os.path.join(tmp, "bundle", "selfcal.json"), doc)
        _check(tmp, ["tomo", "selfcal", os.path.join(tmp, "bundle"),
                     "--out", os.path.join(tmp, "run", "report.json")])


_measure_docs = _dims.flatmap(lambda d: _documents(
    {"elements": st.lists(_hermitian(d) | _square(d), min_size=1, max_size=7)},
    {"dim": st.integers(0, 4), "scale": st.lists(st.lists(_entries, min_size=1, max_size=1),
                                                 min_size=1, max_size=7)}))


@_SETTINGS
@given(_measure_docs)
def test_state_bundle_measure_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        _write(os.path.join(tmp, "bundle", "measure.json"), doc)
        # one rate per element, so that well-formed measures reach the reconstruction
        elements = doc.get("elements") if isinstance(doc, dict) else None
        k = len(elements) if isinstance(elements, list) and elements else 6
        _write(os.path.join(tmp, "bundle", "rates.json"), {"rates": [1 / k] * k})
        _check(tmp, ["tomo", "state", os.path.join(tmp, "bundle"),
                     "--out", os.path.join(tmp, "run", "report.json")])


def _qubit_bundle(bundle):
    """Write the four qubit probes of support.probe_states and a tetrahedron detector."""
    from support import probe_states

    det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
    qio.write_json_atomic(os.path.join(bundle, "measure.json"),
                          qio.measure_to_json(det.measure, det.scale))
    probes = probe_states(2)
    for i, probe in enumerate(probes):
        qio.write_json_atomic(os.path.join(bundle, "probes", f"p{i}.json"),
                              qio.density_to_json(probe))
    return probes


# (4 probes, J+1 branches, null slot and 4 elements); small nonnegative rates reconstruct
_rates = st.floats(0.0, 0.5) | st.floats(0.0, 0.5) | _numbers
_table_docs = st.integers(1, 3).flatmap(lambda branches: _documents({"tables": st.lists(
    st.lists(st.lists(_rates, min_size=5, max_size=5), min_size=branches, max_size=branches),
    min_size=4, max_size=4)}))


@_SETTINGS
@given(_table_docs)
@example({"tables": [[[0.0] * 5, [0.0, 0.1, 0.1, 0.1, 0.1]]] * 4})
@example({"tables": [[[0.0, 0.1, 0.1, 0.1, 0.1]]] * 3})
@example({"tables": [[[0.0, 0.1, 0.1, 0.1]]] * 4})
@example({"tables": [[[0.0] * 5, [0.0] * 5]] * 4})
def test_tomo_instrument_tables_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle")
        _qubit_bundle(bundle)
        _write(os.path.join(bundle, "tables.json"), doc)
        _check(tmp, ["tomo", "instrument", bundle, "--out", os.path.join(tmp, "run", "report.json")])


_probe_docs = _dims.flatmap(lambda d: _documents(
    {"matrix": _hermitian(d) | _square(d)}, {"dim": st.integers(0, 4)}))


@_SETTINGS
@given(_probe_docs)
@example({"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})
@example({"matrix": [[1, 0], [0, 0]]})
def test_tomo_process_probe_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle")
        probes = _qubit_bundle(bundle)
        for i, probe in enumerate(probes):  # the identity channel's outputs
            qio.write_json_atomic(os.path.join(bundle, "outputs", f"p{i}.json"),
                                  qio.density_to_json(probe))
        _write(os.path.join(bundle, "probes", "p0.json"), doc)
        _check(tmp, ["tomo", "process", bundle, "--out", os.path.join(tmp, "run", "report.json")])


_model_docs = _dims.flatmap(lambda d: _documents(
    {"H": _hermitian(d), "rho0": _hermitian(d)},
    {"V": _hermitian(d), "hbar": _numbers,
     "lindblad": _documents({"L": st.lists(_square(d), max_size=2),
                             "gamma": st.lists(_numbers, max_size=2)})}))


@_SETTINGS
@given(_model_docs, st.sampled_from(["lindblad", "slice", "exact"]))
@example({"H": [[1.0]], "rho0": [[1.0]], "hbar": 10 ** 400}, "slice")
def test_dynamics_model_document(doc, method):
    with tempfile.TemporaryDirectory() as tmp:
        _write(os.path.join(tmp, "model.json"), doc)
        _check(tmp, ["dynamics", os.path.join(tmp, "model.json"), "--t", "0.2", "--dt", "0.1",
                     "--method", method, "--out", os.path.join(tmp, "run", "traj.json")])


# A 12-shot state log; each counts.json below carries its digest, so tomo reads the memo.
_STATE_LOG = ("# seed=1\n# generator=philox4x64\n# n_elements=6\nshot,label\n"
              + "".join(f"{shot},{shot % 6 + 1}\n" for shot in range(12))).encode()
_count_values = st.integers(0, 5) | st.integers() | st.floats() | st.booleans()
_count_arrays = (st.lists(_count_values, max_size=8)
                 | st.lists(st.lists(_count_values, max_size=4), max_size=3))
# well formed: seven counts (null slot and six elements) whose total is shots
_consistent_counts = st.lists(st.integers(0, 5), min_size=7, max_size=7).map(
    lambda counts: {"seed": 1, "shots": sum(counts), "counts": counts})
_counts_docs = _consistent_counts | _documents(
    {"seed": st.integers(), "shots": st.integers(0, 40) | _numbers, "counts": _count_arrays})


@_SETTINGS
@given(_counts_docs)
@example({"seed": 1, "shots": 3, "counts": [0, 1.0, 2, 0, 0, 0, 0]})
@example({"seed": 1, "shots": 1, "counts": [0, 2, -1, 0, 0, 0, 0]})
@example({"seed": 1, "shots": 12, "counts": [[0, 6], [0, 6]]})
@example({"seed": 1, "shots": 12, "counts": [0, 2, 2, 2, 2, 2, 1]})
@example({"seed": 1, "shots": 10 ** 30, "counts": [0, 10 ** 30, 0, 0, 0, 0, 0]})
@example({"seed": 1, "shots": 0, "counts": [0, 0, 0, 0, 0, 0, 0]})
def test_state_bundle_counts_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        events = os.path.join(tmp, "bundle", "events")
        os.makedirs(events)
        with open(os.path.join(events, "events.csv"), "wb") as handle:
            handle.write(_STATE_LOG)
        if isinstance(doc, dict):
            doc = {**doc, "events_sha256": hashlib.sha256(_STATE_LOG).hexdigest()}
        _write(os.path.join(events, "counts.json"), doc)
        qio.write_json_atomic(os.path.join(tmp, "bundle", "measure.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure()))
        _check(tmp, ["tomo", "state", os.path.join(tmp, "bundle"),
                     "--out", os.path.join(tmp, "run", "report.json")])
        with open(os.path.join(tmp, "run", "manifest.json")) as handle:
            rates_from = json.load(handle)["event_logs"]["events.csv"]["rates_from"]
        assert rates_from == ("counts.json" if isinstance(doc, dict) else "events.csv")


def _check_options(tmp, argv):
    """Exit 0, 2, 3 or 4, and a traceback, on stderr or in the manifest, only with exit 4."""
    result = run_cli(argv)
    assert result.exit_code in (0, 2, 3, 4), result.output
    traced = "Traceback" in result.output
    manifest_path = os.path.join(tmp, "run", "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as handle:
            error = json.load(handle)["error"]
        assert (error is None) == (result.exit_code == 0)
        traced = traced or (error is not None and "traceback" in error)
    assert not traced or result.exit_code == 4, result.output


_option_floats = st.floats() | st.floats(0.0, 1.0)


@_SETTINGS
@given(st.sampled_from(["--tol-psd", "--tol-herm", "--rtol"]), st.floats(), _option_floats,
       _option_floats)
@example("--tol-psd", math.nan, 1.0, 0.1)
@example("--rtol", 1e-10, math.inf, 0.1)
@example("--tol-herm", 1e-10, 1.0, -math.inf)
def test_float_options(tol, tol_value, t, dt):
    # a finite grid of more than 100 steps is a long run, not an option value under test
    assume(not (math.isfinite(t) and math.isfinite(dt) and dt > 0 and t / dt > 100))
    with tempfile.TemporaryDirectory() as tmp:
        _write(os.path.join(tmp, "model.json"), {"H": [[0, 1], [1, 0]], "rho0": [[1, 0], [0, 0]]})
        _check_options(tmp, [f"{tol}={tol_value!r}", "dynamics", os.path.join(tmp, "model.json"),
                             f"--t={t!r}", f"--dt={dt!r}",
                             "--out", os.path.join(tmp, "run", "traj.json")])


_env_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                    max_size=8)


@_SETTINGS
@given(st.none() | st.integers(-2 ** 130, 2 ** 130) | st.integers(0, 2 ** 16),
       st.none() | _env_text | st.integers(-2 ** 130, 2 ** 130).map(str))
@example(-3, None)
@example(2 ** 128, None)
@example(None, "abc")
def test_seed_options(seed, env):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("QTOMO_SEED", None)
        if env is not None:
            os.environ["QTOMO_SEED"] = env
        qio.write_json_atomic(os.path.join(tmp, "source.json"),
                              qio.density_to_json(np.diag([1.0, 0.0])))
        qio.write_json_atomic(os.path.join(tmp, "device.json"),
                              qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))
        _check_options(tmp, ["simulate", os.path.join(tmp, "source.json"),
                             os.path.join(tmp, "device.json"), "--shots", "10",
                             *([] if seed is None else [f"--seed={seed}"]),
                             "--out", os.path.join(tmp, "run")])
