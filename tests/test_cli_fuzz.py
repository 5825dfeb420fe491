"""Fuzzed JSON documents never take the CLI outside its exit codes or past its manifest.

Each test writes one generated document where a command reads it, runs the
command in process and checks that it exits 0, 2, 3 or 4 with a manifest.
A malformed document is an input error: it may not reach the last-resort
handler, which is the one that records a traceback.  A third of the
documents are well formed, a third have one field replaced by arbitrary
JSON, and a third are arbitrary JSON.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from qtomo.cli import main

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
    result = CliRunner().invoke(main, argv)
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
