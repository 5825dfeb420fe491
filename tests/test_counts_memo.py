"""A counts memo is a checked memo of its event log: same rates, same reports, or not used.

`simulate` records the sha256 of the CSV bytes it wrote in counts.json; `tomo`
takes a log's rates from the memo in events/, whatever its name, that records
the log's digest, and otherwise parses the CSV, which stays the authoritative
record.
"""

import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import qtomo
from qtomo import io as qio
from qtomo import simulate, tomography
from qtomo.errors import ContractViolation
from support import probe_log_bundle, run_cli


def _config(kind, seed, shots, n_elements, n_branches):
    """A qubit run of a detector of n_elements equal elements, alone ("events") or observing an
    instrument of n_branches equal branches ("coincidences"), so every branch can respond."""
    measure = qtomo.QuantumMeasure([np.eye(2) / n_elements] * n_elements)
    inst = (None if kind == "events" else
            qtomo.Instrument([(np.eye(2) / np.sqrt(n_branches + 1),)] * n_branches))
    return qtomo.ExperimentConfig(seed, shots, np.diag([1.0, 0.0]), measure, inst)


def _memo_naming(data):
    """The counts memo of a 50-shot run, as simulate writes it, but naming the bytes data."""
    memo = simulate.write_events(_config("events", 1, 50, 6, 1), io.BytesIO())
    return {**memo, "events_sha256": hashlib.sha256(data).hexdigest()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["events", "coincidences"]), st.integers(0, 2 ** 31),
       st.integers(0, 3000) | st.just(0), st.integers(1, 40), st.integers(1, 4))
@example("events", 1, 0, 6, 1)
@example("coincidences", 1, 0, 6, 2)
def test_counts_path_rates_equal_parsed_rates(kind, seed, shots, n_elements, n_branches):
    buffer = io.BytesIO()
    memo = simulate.write_events(_config(kind, seed, shots, n_elements, n_branches), buffer)
    data = buffer.getvalue()
    # the memo as a reader sees it: written canonically, then parsed
    doc = json.loads(qio.canonical_json(memo))
    assert doc["events_sha256"] == hashlib.sha256(data).hexdigest()
    counts, memo_shots = qio.counts_from_document(doc)
    parsed = simulate.event_log_from_csv(data.decode("ascii"))
    if shots == 0:
        for log_counts, log_shots in ((counts, memo_shots), (parsed.counts(), len(parsed))):
            with pytest.raises(ContractViolation, match="empty event log has no rates"):
                tomography.rates_from_counts(log_counts, log_shots)
        return
    # the engines weight by the rates and the shot count: both must agree
    from_memo = tomography.rates_from_counts(counts, memo_shots)
    from_csv = tomography.rates_from_counts(parsed.counts(), len(parsed))
    assert type(from_memo) is type(from_csv) is np.ndarray and memo_shots == len(parsed)
    assert from_memo.dtype == from_csv.dtype and np.array_equal(from_memo, from_csv)


class TestCountsDocument:
    def test_memo_of_another_log_is_not_used(self, tmp_path):
        doc = _memo_naming(b"other bytes")
        for name, value in [("a.json", [doc]), ("b.json", None),
                            ("c.json", {k: v for k, v in doc.items() if k != "events_sha256"}),
                            ("d.json", {**doc, "events_sha256": 5}), ("e.json", doc)]:
            qio.write_json_atomic(str(tmp_path / name), value)
        (tmp_path / "f.json").write_text("not json {")
        (tmp_path / "g.csv").write_text(json.dumps({**doc, "events_sha256": "csv"}))
        memos = qio.memos_by_digest(str(tmp_path))
        # only the object with a string digest is a memo, and only of the bytes it names
        assert memos == {hashlib.sha256(b"other bytes").hexdigest(): ("e.json", doc)}
        assert hashlib.sha256(b"these bytes").hexdigest() not in memos

    def test_two_memos_of_one_digest_resolve_to_the_first_by_name(self, tmp_path):
        doc = _memo_naming(b"these bytes")
        for name, shots in [("b.json", 50), ("a.json", 7), ("c.json", 50)]:
            qio.write_json_atomic(str(tmp_path / name), {**doc, "shots": shots})
        assert qio.memos_by_digest(str(tmp_path)) == {
            doc["events_sha256"]: ("a.json", {**doc, "shots": 7})}

    @pytest.mark.parametrize("counts, shots, invariant", [
        ([1, -2, 3], 2, "nonnegative integers"),
        ([1.0, 2], 3, "nonnegative integers"),
        ([True, 2], 3, "nonnegative integers"),
        ([[1, 2], [3]], 6, "rectangular"),
        ([[[1]]], 1, "1 or 2 axes"),
        ("123", 6, "nonnegative integers"),
        ([2 ** 63, 0], 2 ** 63, "nonnegative integers"),
        ([1, 2, 3], 7, "'shots' must be the integer count total 6, got 7"),
        ([1, 2, 3], 6.0, "got 6.0"),
        ([1, 2, 3], None, "got None"),
    ])
    def test_malformed_memo_of_this_log(self, counts, shots, invariant):
        with pytest.raises(ContractViolation) as info:
            qio.counts_from_document({"seed": 1, "shots": shots, "counts": counts})
        assert invariant in str(info.value)


def _rowwise_count_array(obj):
    """Reference: the count reader that walked the rows itself, before it was built on the
    JSON number reader; it also accepted empty counts."""
    if not isinstance(obj, list):
        return None
    rows = obj if obj and all(isinstance(row, list) for row in obj) else [obj]
    if (len({len(row) for row in rows}) != 1
            or not all(type(x) is int and 0 <= x < 2 ** 63 for row in rows for x in row)):
        return None
    return np.array(obj, dtype=np.int64)


_json_scalars = (st.integers(-2, 5) | st.integers() | st.floats() | st.booleans() | st.none()
                 | st.text(max_size=2))
_json_values = st.recursive(_json_scalars, lambda inner: st.lists(inner, max_size=4),
                            max_leaves=12)
_int_arrays = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.integers(-1, 2 ** 63 - 1)).map(lambda a: a.tolist())


@settings(max_examples=400, deadline=None)
@given(_json_values | _int_arrays)
@example([])
@example([[]])
@example([[1, 2], [3]])
@example([[1, 2], 3])
@example([2 ** 63, 0])
@example([[2 ** 64, 1], [0, 1]])
@example([[0, 1], [2, 3]])
def test_count_reader_equals_the_rowwise_reader(obj):
    new, old = qio._count_array(obj), _rowwise_count_array(obj)
    if old is None or old.size == 0:  # empty counts are refused here now, not at the rates
        assert new is None
    else:
        assert new.dtype == old.dtype and new.shape == old.shape and np.array_equal(new, old)


def _write_device(tmp_path):
    rho = qtomo.density_from_state(np.array([0.6, 0.8j]))
    qio.write_json_atomic(str(tmp_path / "source.json"), qio.density_to_json(rho))
    qio.write_json_atomic(str(tmp_path / "device.json"),
                          qio.measure_to_json(qtomo.pauli_six_measure(), np.arange(1.0, 7.0)))


def _state_bundle(tmp_path, shots, seed, name="bundle"):
    """A state bundle whose events/ directory is the output of simulate."""
    bundle = tmp_path / name
    result = run_cli(["simulate", str(tmp_path / "source.json"),
                                  str(tmp_path / "device.json"), "--shots", str(shots),
                                  "--seed", str(seed), "--out", str(bundle / "events")])
    assert result.exit_code == 0, result.output
    qio.write_json_atomic(str(bundle / "measure.json"),
                          qio.measure_to_json(qtomo.pauli_six_measure()))
    return bundle


def _tomo(mode, bundle, out):
    result = run_cli(["tomo", mode, str(bundle), "--out", str(out)])
    manifest = json.loads((out.parent / "manifest.json").read_text())
    return result, manifest


def _tomo_without_memo(mode, bundle, out):
    """_tomo on the same bundle with every *.json of events/, each memo among them, moved away
    (and then restored): every log is parsed."""
    kept = {path: path.read_bytes() for path in (bundle / "events").glob("*.json")}
    for path in kept:
        path.unlink()
    try:
        result, manifest = _tomo(mode, bundle, out)
    finally:
        for path, data in kept.items():
            path.write_bytes(data)
    assert all(log["rates_from"] == name for name, log in manifest["event_logs"].items())
    return result, manifest


def _report_without_memo(mode, bundle, out):
    result, _ = _tomo_without_memo(mode, bundle, out)
    assert result.exit_code == 0, result.output
    return out.read_bytes()


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 5000) | st.just(0), st.integers(0, 2 ** 31))
@example(0, 1)
def test_state_report_bytes_with_and_without_memo(tmp_path_factory, shots, seed):
    tmp_path = tmp_path_factory.mktemp("state")
    _write_device(tmp_path)
    bundle = _state_bundle(tmp_path, shots, seed)
    result, manifest = _tomo("state", bundle, tmp_path / "memo" / "report.json")
    data = (bundle / "events" / "events.csv").read_bytes()
    assert manifest["event_logs"] == {
        "events.csv": {"sha256": hashlib.sha256(data).hexdigest(), "rates_from": "counts.json"}}
    if shots == 0:  # no rates either way, and each refusal names the file it read
        parsed, parsed_manifest = _tomo_without_memo("state", bundle,
                                                     tmp_path / "csv" / "report.json")
        assert result.exit_code == parsed.exit_code == 2
        assert manifest["error"]["message"] == "counts.json: empty event log has no rates"
        assert parsed_manifest["error"]["message"] == "events.csv: empty event log has no rates"
        return
    assert result.exit_code == 0, result.output
    assert (tmp_path / "memo" / "report.json").read_bytes() == _report_without_memo(
        "state", bundle, tmp_path / "csv" / "report.json")


_memo_sets = st.lists(st.booleans(), min_size=4, max_size=4)


def _check_bytes_with_and_without_memo(tmp_path, mode, shots, seed, memos):
    """Each log's memo sits beside it under its own name and stands for that log alone."""
    bundle = probe_log_bundle(tmp_path / "bundle", mode, shots, seed, memos)
    result, manifest = _tomo(mode, bundle, tmp_path / "memo" / "report.json")
    assert result.exit_code == 0, result.output
    assert [log["rates_from"] for log in manifest["event_logs"].values()] == [
        f"p{i}.json" if memos[i] else f"p{i}.csv" for i in range(4)]
    assert (tmp_path / "memo" / "report.json").read_bytes() == _report_without_memo(
        mode, bundle, tmp_path / "csv" / "report.json")


@settings(max_examples=4, deadline=None)
@given(st.integers(50, 3000), st.integers(0, 2 ** 31), _memo_sets)
@example(200, 1, [True] * 4)
def test_instrument_report_bytes_with_and_without_memo(tmp_path_factory, shots, seed, memos):
    _check_bytes_with_and_without_memo(tmp_path_factory.mktemp("instrument"), "instrument",
                                       shots, seed, memos)


@settings(max_examples=4, deadline=None)
@given(st.integers(50, 3000), st.integers(0, 2 ** 31), _memo_sets)
@example(200, 1, [True] * 4)
def test_detector_report_bytes_with_and_without_memo(tmp_path_factory, shots, seed, memos):
    _check_bytes_with_and_without_memo(tmp_path_factory.mktemp("detector"), "detector",
                                       shots, seed, memos)


class TestMemoByDigest:
    """tomo finds each log's memo in events/ by the digest it records, not by its name."""

    @pytest.fixture
    def bundle(self, tmp_path):
        return probe_log_bundle(tmp_path / "bundle", "instrument", 400, 5)

    def _rates_from(self, bundle, out):
        result, manifest = _tomo("instrument", bundle, out)
        assert result.exit_code == 0, result.output
        return {name: log["rates_from"] for name, log in manifest["event_logs"].items()}

    def test_edited_log_is_parsed_and_the_others_are_not(self, tmp_path, bundle):
        log = bundle / "events" / "p2.csv"
        log.write_text(log.read_text().replace("# seed=7", "# seed=8"))
        out = tmp_path / "edited" / "report.json"
        assert self._rates_from(bundle, out) == {
            "p0.csv": "p0.json", "p1.csv": "p1.json", "p2.csv": "p2.csv", "p3.csv": "p3.json"}
        assert out.read_bytes() == _report_without_memo("instrument", bundle,
                                                        tmp_path / "csv" / "report.json")

    def test_files_that_are_no_memo_of_a_log_vouch_for_nothing(self, tmp_path, bundle):
        events = bundle / "events"
        # p0's memo now of another log, p1's inside a list, p2's malformed, and a run's manifest
        memo = json.loads((events / "p0.json").read_text())
        qio.write_json_atomic(str(events / "p0.json"),
                              {**memo, "events_sha256": hashlib.sha256(b"another log").hexdigest()})
        qio.write_json_atomic(str(events / "p1.json"),
                              [json.loads((events / "p1.json").read_text())])
        (events / "p2.json").write_text((events / "p2.json").read_text()[:-5])
        qio.write_json_atomic(str(events / "manifest.json"), {"command": "simulate", "error": None})
        assert self._rates_from(bundle, tmp_path / "run" / "report.json") == {
            "p0.csv": "p0.csv", "p1.csv": "p1.csv", "p2.csv": "p2.csv", "p3.csv": "p3.json"}

    def test_too_deeply_nested_json_vouches_for_nothing(self, tmp_path, bundle):
        (bundle / "events" / "zz.json").write_bytes(b"[" * 10**5 + b"]" * 10**5)
        assert self._rates_from(bundle, tmp_path / "run" / "report.json") == {
            "p0.csv": "p0.json", "p1.csv": "p1.json", "p2.csv": "p2.json", "p3.csv": "p3.json"}

    def test_the_first_of_two_memos_by_name_is_used(self, tmp_path, bundle):
        events = bundle / "events"
        memo = json.loads((events / "p1.json").read_text())
        qio.write_json_atomic(str(events / "p1-bad.json"), {**memo, "shots": memo["shots"] + 1})
        qio.write_json_atomic(str(events / "a-copy.json"), memo)
        rates_from = self._rates_from(bundle, tmp_path / "copy" / "report.json")
        assert rates_from["p1.csv"] == "a-copy.json"
        (events / "a-copy.json").unlink()  # p1-bad.json now sorts first: it is used, and refused
        result, manifest = _tomo("instrument", bundle, tmp_path / "bad" / "report.json")
        assert result.exit_code == 2, result.output
        assert manifest["error"]["message"].startswith("p1-bad.json: 'shots' must be the integer")
        assert manifest["event_logs"]["p1.csv"]["rates_from"] == "p1-bad.json"


class TestStaleOrOldMemo:
    @pytest.fixture
    def bundle(self, tmp_path):
        _write_device(tmp_path)
        return _state_bundle(tmp_path, 3000, 11)

    def test_simulate_records_the_digest_of_the_csv_bytes(self, bundle):
        events = bundle / "events"
        doc = json.loads((events / "counts.json").read_text())
        assert sorted(doc) == ["counts", "events_sha256", "seed", "shots"]
        assert doc["events_sha256"] == hashlib.sha256((events / "events.csv").read_bytes()).hexdigest()

    def test_edited_label_takes_the_csv(self, tmp_path, bundle):
        csv = bundle / "events" / "events.csv"
        lines = csv.read_text().splitlines(keepends=True)
        shot, label = lines[-1].strip().split(",")
        lines[-1] = f"{shot},{int(label) % 6 + 1}\n"
        csv.write_text("".join(lines))
        result, manifest = _tomo("state", bundle, tmp_path / "stale" / "report.json")
        assert result.exit_code == 0
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "events.csv"
        assert (tmp_path / "stale" / "report.json").read_bytes() == _report_without_memo(
            "state", bundle, tmp_path / "csv" / "report.json")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_newlines_take_the_csv_and_agree(self, tmp_path, bundle, newline):
        expected = _report_without_memo("state", bundle, tmp_path / "lf" / "report.json")
        csv = bundle / "events" / "events.csv"
        csv.write_bytes(csv.read_bytes().replace(b"\n", newline.encode()))
        result, manifest = _tomo("state", bundle, tmp_path / "nl" / "report.json")
        assert result.exit_code == 0, result.output
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "events.csv"
        assert (tmp_path / "nl" / "report.json").read_bytes() == expected

    def test_malformed_csv_beside_stale_memo(self, tmp_path, bundle):
        csv = bundle / "events" / "events.csv"
        csv.write_text(csv.read_text() + "3000,x1\n")
        result, manifest = _tomo("state", bundle, tmp_path / "bad" / "report.json")
        assert result.exit_code == 2
        assert manifest["error"]["type"] == "ContractViolation"
        assert manifest["error"]["message"].startswith(
            "events.csv: event log rows must be 2 integers each")
        assert "could not convert string 'x1'" in manifest["error"]["message"]

    @pytest.mark.parametrize("memo", [
        lambda doc: {k: v for k, v in doc.items() if k != "events_sha256"},
        lambda doc: {**doc, "events_sha256": 5},
        lambda doc: [doc],
        lambda doc: "not json {",
    ], ids=["older-memo", "digest-not-a-string", "not-an-object", "not-json"])
    def test_memo_without_a_usable_digest_takes_the_csv(self, tmp_path, bundle, memo):
        path = bundle / "events" / "counts.json"
        changed = memo(json.loads(path.read_text()))
        path.write_text(changed if isinstance(changed, str) else json.dumps(changed))
        result, manifest = _tomo("state", bundle, tmp_path / "old" / "report.json")
        assert result.exit_code == 0, result.output
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "events.csv"
        assert (tmp_path / "old" / "report.json").read_bytes() == _report_without_memo(
            "state", bundle, tmp_path / "csv" / "report.json")

    @pytest.mark.parametrize("change, invariant", [
        ({"counts": [0, 1, 2]}, "'shots' must be the integer count total 3"),
        ({"counts": [0, -1, 2]}, "nonnegative integers"),
        ({"shots": "3000"}, "'shots' must be the integer count total 3000"),
        ({"counts": [[0, 1500], [0, 1500]]}, "counts.json: is a coincidence log"),
        ({"counts": [0] * 7, "shots": 0}, "empty event log has no rates"),
    ], ids=["sum", "negative", "shots-type", "kind", "empty"])
    def test_malformed_memo_of_this_log_exits_2(self, tmp_path, bundle, change,
                                                invariant):
        path = bundle / "events" / "counts.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        out = tmp_path / "bad" / "report.json"
        result, manifest = _tomo("state", bundle, out)
        assert result.exit_code == 2, result.output
        assert not out.exists()
        assert manifest["error"]["type"] == "ContractViolation"
        assert invariant in manifest["error"]["message"]
        assert "counts.json" in manifest["error"]["message"]
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "counts.json"
