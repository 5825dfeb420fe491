"""counts.json is a checked memo of its event log: same rates, same reports, or not used.

`simulate` records the sha256 of the CSV bytes it wrote in counts.json; `tomo`
takes a log's rates from those counts only when the digest matches the log,
and otherwise parses the CSV, which stays the authoritative record.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qtomo
from qtomo import io as qio
from qtomo import simulate
from qtomo.errors import ContractViolation
from support import probe_states, run_cli


def _log(kind, seed, shots, n_elements, n_branches):
    labels = np.random.default_rng(seed).integers(0, n_elements + 1, size=shots)
    if kind == "events":
        return qtomo.EventLog(seed, simulate.GENERATOR_NAME, n_elements, labels)
    branches = np.random.default_rng(seed + 1).integers(0, n_branches + 1, size=shots)
    return qtomo.CoincidenceLog(seed, simulate.GENERATOR_NAME, n_branches, n_elements,
                                np.stack([branches, labels], axis=1))


def _rate_arrays(rates):
    return [np.asarray(v) for v in vars(rates).values()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["events", "coincidences"]), st.integers(0, 2 ** 31),
       st.integers(0, 3000) | st.just(0), st.integers(1, 40), st.integers(1, 4))
@example("events", 1, 0, 6, 1)
@example("coincidences", 1, 0, 6, 2)
def test_counts_path_rates_equal_parsed_rates(kind, seed, shots, n_elements, n_branches):
    log = _log(kind, seed, shots, n_elements, n_branches)
    data = simulate.event_log_to_csv(log).encode("ascii")
    digest = simulate.events_sha256(data)
    # the memo as a reader sees it: written canonically, then parsed
    doc = json.loads(qio.canonical_json(simulate.counts_document(log, data)))
    assert doc["events_sha256"] == hashlib.sha256(data).hexdigest()
    assert simulate.memo_describes(doc, digest)
    counts, memo_shots = simulate.counts_from_document(doc)
    parsed = simulate.event_log_from_csv(data.decode("ascii"))
    if shots == 0:
        for call in (lambda: simulate.rates_from_counts(counts, memo_shots),
                     lambda: simulate.empirical_rates(parsed)):
            with pytest.raises(ContractViolation, match="empty event log has no rates"):
                call()
        return
    from_memo = simulate.rates_from_counts(counts, memo_shots)
    from_csv = simulate.empirical_rates(parsed)
    assert type(from_memo) is type(from_csv)
    for a, b in zip(_rate_arrays(from_memo), _rate_arrays(from_csv)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCountsDocument:
    def test_memo_of_another_log_is_not_used(self):
        log = _log("events", 1, 50, 6, 1)
        doc = simulate.counts_document(log, b"other bytes")
        assert simulate.memo_describes(doc, simulate.events_sha256(b"other bytes"))
        assert not simulate.memo_describes(doc, simulate.events_sha256(b"these bytes"))
        assert not simulate.memo_describes([doc], doc["events_sha256"])
        assert not simulate.memo_describes(None, doc["events_sha256"])
        del doc["events_sha256"]
        assert not simulate.memo_describes(doc, simulate.events_sha256(b"other bytes"))

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
            simulate.counts_from_document({"seed": 1, "shots": shots, "counts": counts})
        assert invariant in str(info.value)


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
    """_tomo on the same bundle with counts.json moved away (and then restored)."""
    memo = bundle / "events" / "counts.json"
    kept = memo.read_bytes() if memo.exists() else None
    if kept is not None:
        memo.unlink()
    try:
        result, manifest = _tomo(mode, bundle, out)
    finally:
        if kept is not None:
            memo.write_bytes(kept)
    assert all(log["rates_from"] != "counts.json" for log in manifest["event_logs"].values())
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
    if shots == 0:  # no rates either way, and the same error
        parsed, parsed_manifest = _tomo_without_memo("state", bundle,
                                                     tmp_path / "csv" / "report.json")
        assert result.exit_code == parsed.exit_code == 2
        assert manifest["error"] == parsed_manifest["error"]
        assert manifest["error"]["message"] == "empty event log has no rates"
        return
    assert result.exit_code == 0, result.output
    assert (tmp_path / "memo" / "report.json").read_bytes() == _report_without_memo(
        "state", bundle, tmp_path / "csv" / "report.json")


@settings(max_examples=4, deadline=None)
@given(st.integers(50, 3000), st.integers(0, 2 ** 31), st.integers(0, 3))
def test_instrument_report_bytes_with_and_without_memo(tmp_path_factory, shots, seed, memo_of):
    """One counts.json per events directory: it stands for the one log it names."""
    tmp_path = tmp_path_factory.mktemp("instrument")
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    inst = qtomo.Instrument(((p0,), (p1,)))
    det = qtomo.Detector(qtomo.tetrahedron_measure(), np.arange(1.0, 5.0))
    bundle = tmp_path / "bundle"
    (bundle / "probes").mkdir(parents=True)
    (bundle / "events").mkdir()
    qio.write_json_atomic(str(bundle / "measure.json"), qio.measure_to_json(det.measure, det.scale))
    for i, probe in enumerate(probe_states(2)):
        qio.write_json_atomic(str(bundle / "probes" / f"p{i}.json"), qio.density_to_json(probe))
        log, _ = qtomo.sample_coincidences(qtomo.ExperimentConfig(seed + i, shots, probe, det, inst))
        data = qtomo.event_log_to_csv(log).encode("ascii")
        (bundle / "events" / f"p{i}.csv").write_bytes(data)
        if i == memo_of:
            qio.write_json_atomic(str(bundle / "events" / "counts.json"),
                                  simulate.counts_document(log, data))
    result, manifest = _tomo("instrument", bundle, tmp_path / "memo" / "report.json")
    assert result.exit_code == 0, result.output
    assert [log["rates_from"] for log in manifest["event_logs"].values()] == [
        "counts.json" if i == memo_of else f"p{i}.csv" for i in range(4)]
    assert (tmp_path / "memo" / "report.json").read_bytes() == _report_without_memo(
        "instrument", bundle, tmp_path / "csv" / "report.json")


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
        ({"counts": [[0, 1500], [0, 1500]]}, "counts.json: is a CoincidenceLog"),
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
        if change.get("shots") != 0:
            assert "counts.json" in manifest["error"]["message"]
        assert manifest["event_logs"]["events.csv"]["rates_from"] == "counts.json"
