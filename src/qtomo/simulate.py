"""Seeded stochastic detection and coincidence events for tomography runs.

Randomness comes from numpy's Philox bit generator, a counter-based 64-bit
generator keyed directly with the run seed, so event logs are reproducible
across processes and platforms.  Outcomes are drawn by inverse CDF on the
cumulative probability vector, one uniform per shot.  Shots can be drawn in
chunks, in order from the one generator; chunked output is identical to
sequential output.

A log is written as CSV text (`event_log_to_csv`), and its counts, the
sufficient statistic of every reconstruction, as a counts.json memo that
records the sha256 of those CSV bytes (`counts_document`).  `write_events`
streams a run straight to a file instead: it draws, checks, formats, hashes
and counts a fixed number of shots at a time, so its memory does not grow
with the shot count, and it writes the same bytes and memo.  A reader takes
the counts in place of the CSV only when the memo's digest matches the CSV
(`memo_describes`, `counts_from_document`); the CSV stays the record.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .measures import Detector, response_probabilities
from .ops import as_square

if TYPE_CHECKING:
    from .channels import Instrument

GENERATOR_NAME = "philox4x64"
_PROB_TOL = 1e-9
# Shots drawn, checked, formatted and written at a time by write_events and
# event_log_to_csv; bounds their working memory (a few MB), not their output.
_CHUNK_SHOTS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated run: seed, shot count, unit-intensity source, device.

    The device is either a detector alone, or an instrument observed in
    coincidence with a second detector.
    """

    seed: int
    shots: int
    source: np.ndarray = field(repr=False)
    detector: Detector | None = None
    instrument: Instrument | None = None

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 128:  # a Philox key is 128 bits
            raise ContractViolation(f"seed must lie in [0, 2**128), got {self.seed}")
        if self.shots < 0:
            raise ContractViolation(f"shot count must be nonnegative, got {self.shots}")
        rho = as_square(self.source, "source")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > _PROB_TOL:
            raise ContractViolation(f"source must have unit intensity, trace is {tr}")
        if self.detector is None:
            raise ContractViolation("config needs a detector (alone or after an instrument)")
        object.__setattr__(self, "source", rho)


def _check_range(values, bound: int, what: str, name: str, start: int = 0) -> None:
    """Labels of shots start, start+1, ... must lie in [0, bound]."""
    bad = np.flatnonzero((values < 0) | (values > bound))
    if bad.size:
        raise ContractViolation(
            f"shot {start + bad[0]}: {what} {values[bad[0]]} is outside [0, {name}={bound}]")


@dataclass(frozen=True)
class EventLog:
    """Per-shot detection element labels in [0, n_elements]; label 0 means null detection."""

    seed: int
    generator: str
    n_elements: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._check(self.labels)

    def __len__(self) -> int:
        return self.labels.size

    def counts(self) -> np.ndarray:
        return self._count(self.labels)

    # The methods below take labels of this log's kind and header: all of
    # them, or one chunk of them whose first shot is start.
    def _check(self, labels, start=0):
        _check_range(labels, self.n_elements, "label", "n_elements", start)

    def _count(self, labels):
        return np.bincount(labels, minlength=self.n_elements + 1)

    def _header(self) -> str:
        return f"# n_elements={self.n_elements}\nshot,label\n"

    @staticmethod
    def _columns(labels):
        return [labels]


@dataclass(frozen=True)
class CoincidenceLog:
    """Per-shot (instrument branch, detector element) label pairs.

    Branches lie in [0, n_branches] and elements in [0, n_elements].  Branch
    label 0 is the appended null branch; element label 0 is a null detection
    at the second device.
    """

    seed: int
    generator: str
    n_branches: int
    n_elements: int
    labels: np.ndarray = field(repr=False)  # shape (shots, 2)

    def __post_init__(self):
        self._check(self.labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        return self._count(self.labels)

    # As for EventLog: labels of this log's kind, all of them or one chunk.
    def _check(self, labels, start=0):
        _check_range(labels[:, 0], self.n_branches, "branch", "n_branches", start)
        _check_range(labels[:, 1], self.n_elements, "element", "n_elements", start)

    def _count(self, labels):
        n_cols = self.n_elements + 1
        flat = np.bincount(labels[:, 0] * n_cols + labels[:, 1],
                           minlength=(self.n_branches + 1) * n_cols)
        return flat.reshape(self.n_branches + 1, n_cols)

    def _header(self) -> str:
        return f"# n_branches={self.n_branches}\n# n_elements={self.n_elements}\nshot,j,k\n"

    @staticmethod
    def _columns(labels):
        return [labels[:, 0], labels[:, 1]]


def _prepare_cdf(p):
    """Clip tiny negative rates, renormalize, and build the cumulative vector.

    The vector is exactly 1 from the last outcome of positive probability on,
    so every uniform in [0, 1) falls on an outcome that can occur: a rounded
    cumulative sum can end just below 1 (0.9999999999999999 for ten rates of
    0.1), and a trailing outcome of probability zero must never be drawn.
    """
    p = np.asarray(p, dtype=float)
    if p.min() < -_PROB_TOL:
        raise ContractViolation(f"probability {p.min():.3e} is negative beyond tolerance")
    if abs(p.sum() - 1.0) > _PROB_TOL * max(1, p.size):
        raise ContractViolation(f"probabilities sum to {p.sum()}, expected 1")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    cdf = np.cumsum(p)
    cdf[np.flatnonzero(p)[-1]:] = 1.0
    return cdf


def _uniforms(seed: int, shots: int, chunk_size=None):
    """One uniform per shot, drawn in order from the seed's Philox stream.

    Yields chunks of chunk_size shots (all shots at once when None), and
    always at least one chunk; the concatenation does not depend on the
    chunk size.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    size = max(1, shots if chunk_size is None else int(chunk_size))
    yield gen.random(min(size, shots))
    for start in range(size, shots, size):
        yield gen.random(min(size, shots - start))


def _label_chunks(cfg: ExperimentConfig, chunk_size=None):
    """(log, chunks): an empty log of cfg's kind and header, and its label chunks in shot order."""
    if cfg.instrument is None:
        measure = cfg.detector.measure
        cdf = _prepare_cdf(response_probabilities(measure, cfg.source, _PROB_TOL))
        log = EventLog(cfg.seed, GENERATOR_NAME, len(measure), np.zeros(0, dtype=np.int64))

        def labels(idx):
            return idx + 1  # element k is label k + 1; 0 (null) cannot occur
    else:
        table = joint_probabilities(cfg.instrument, cfg.detector, cfg.source)
        cdf = _prepare_cdf(table.reshape(-1))
        log = CoincidenceLog(cfg.seed, GENERATOR_NAME, len(cfg.instrument),
                             len(cfg.detector.measure), np.zeros((0, 2), dtype=np.int64))

        def labels(idx):
            return np.stack(np.divmod(idx, table.shape[1]), axis=1)
    chunks = (labels(np.searchsorted(cdf, u, side="right").astype(np.int64, copy=False))
              for u in _uniforms(cfg.seed, cfg.shots, chunk_size))
    return log, chunks


def _sample(cfg: ExperimentConfig, chunk_size):
    empty, chunks = _label_chunks(cfg, chunk_size)
    log = replace(empty, labels=np.concatenate(list(chunks)))
    return log, log.counts()


def sample_detections(cfg: ExperimentConfig, chunk_size=None):
    """Draw per-shot detection labels; returns (EventLog, count vector).

    Labels are 1..K for the K measure elements (0 is reserved for null and
    cannot occur since a valid measure responds with total rate one).
    Identical configs give byte-identical logs, whatever the chunk size.
    """
    if cfg.instrument is not None:
        raise ContractViolation("config with an instrument needs sample_coincidences")
    return _sample(cfg, chunk_size)


def joint_probabilities(instrument: Instrument, detector: Detector, rho, tol: float = _PROB_TOL):
    """Exact coincidence table p[j, k] = tr(P_k E_j(rho)) including null slots.

    Row j = 0 is the appended null branch; column k = 0 is the (never
    responding) null slot of the second detector.
    """
    from .channels import kraus_apply

    rho = as_square(rho, "rho")
    branches = [instrument.null_kraus(tol)] + list(instrument.branches)
    k_elems = detector.measure.elements
    table = np.zeros((len(branches), k_elems.shape[0] + 1))
    for j, branch in enumerate(branches):
        out = kraus_apply(branch, rho)
        rates = np.einsum("kab,ba->k", k_elems, out)
        if np.max(np.abs(rates.imag)) > tol:
            raise ContractViolation("joint rates have a non-negligible imaginary part")
        table[j, 1:] = rates.real
    if table.min() < -tol:
        raise ContractViolation(f"negative joint rate {table.min():.3e}")
    return table


def sample_coincidences(cfg: ExperimentConfig, chunk_size=None):
    """Draw (branch, element) pairs for an instrument run; returns (log, table)."""
    if cfg.instrument is None:
        raise ContractViolation("coincidence sampling needs an instrument in the config")
    return _sample(cfg, chunk_size)


@dataclass(frozen=True)
class EmpiricalRates:
    p_hat: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class JointRates:
    table: np.ndarray
    stderr: np.ndarray
    branch_marginal: np.ndarray
    element_marginal: np.ndarray


def rates_from_counts(counts, shots):
    """Relative frequencies with binomial standard errors sqrt(p(1-p)/N).

    counts is a log's count vector (EmpiricalRates) or coincidence table
    (JointRates) over shots events.
    """
    if shots == 0:
        raise ContractViolation("empty event log has no rates")
    p = np.asarray(counts).astype(float) / shots
    err = np.sqrt(p * (1.0 - p) / shots)
    if p.ndim == 2:
        return JointRates(p, err, p.sum(axis=1), p.sum(axis=0))
    return EmpiricalRates(p, err)


def empirical_rates(log):
    """rates_from_counts of the log's counts."""
    return rates_from_counts(log.counts(), len(log))


def _csv_rows(columns) -> bytes:
    """CSV bytes of equal-length nonnegative integer columns, one line per row.

    Every digit is written right-aligned into one (rows, width) byte matrix
    whose unused cells stay 0; dropping the zeros leaves the text.
    """
    n = columns[0].size
    if n == 0:
        return b""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    out = np.zeros((n, sum(widths) + len(widths)), dtype=np.uint8)
    stop = 0
    for col, top, width in zip(columns, tops, widths):
        stop += width
        rest = col.astype(np.min_scalar_type(top))
        digit = np.empty_like(rest)
        for k in range(width):  # rest is col // 10**k; its leading zeros stay 0
            cell = out[:, stop - 1 - k]
            np.remainder(rest, 10, out=digit)
            np.add(digit, ord("0"), out=cell, casting="unsafe")
            if k:
                cell[rest == 0] = 0
            np.floor_divide(rest, 10, out=rest)
        out[:, stop] = ord(",")
        stop += 1
    out[:, -1] = ord("\n")
    flat = out.reshape(-1)
    return flat[flat != 0].tobytes()


def _write_csv(handle, log, chunks) -> dict:
    """Write the CSV of log's header and of the label chunks to the binary handle.

    The chunks are the labels of shots 0, 1, ... in order; each is checked
    against the header and counted as it is written.  Returns the counts.json
    memo of the bytes written.
    """
    digest = hashlib.sha256()

    def put(data):
        handle.write(data)
        digest.update(data)

    put(f"# seed={log.seed}\n# generator={log.generator}\n{log._header()}".encode())
    counts = log._count(log.labels[:0])
    start = 0
    for labels in chunks:
        log._check(labels, start)
        counts += log._count(labels)
        put(_csv_rows([np.arange(start, start + len(labels)), *log._columns(labels)]))
        start += len(labels)
    return _memo(log.seed, start, counts, digest.hexdigest())


def event_log_to_csv(log) -> str:
    """Serialize a log with seed and generator header lines."""
    buffer = io.BytesIO()
    _write_csv(buffer, log, (log.labels[start:start + _CHUNK_SHOTS]
                             for start in range(0, len(log), _CHUNK_SHOTS)))
    return buffer.getvalue().decode()


def write_events(cfg: ExperimentConfig, handle) -> dict:
    """Sample cfg's run and write its CSV to the binary handle; returns its counts.json memo.

    The bytes and the memo are those of event_log_to_csv and counts_document
    of the log that sample_detections or sample_coincidences draws, but only
    one chunk of shots is in memory at a time.
    """
    return _write_csv(handle, *_label_chunks(cfg, _CHUNK_SHOTS))


def event_log_from_csv(text: str):
    """Inverse of event_log_to_csv for both log kinds.

    Header lines ("# key=value") come first, then the column header, then
    one row per shot with the shots 0..N-1 in order.  Anything else (a
    non-integer field, a ragged row, a wrong shot column, a label above its
    header count) raises ContractViolation.
    """
    header = {}
    columns = None
    pos = 0
    while columns is None:
        if pos >= len(text):
            raise ContractViolation("event log is missing its column header")
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end].strip()
        pos = end + 1
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key.strip()] = value.strip()
        elif line:
            columns = [c.strip() for c in line.split(",")]
    if columns not in (["shot", "label"], ["shot", "j", "k"]):
        raise ContractViolation(
            f"event log columns must be shot,label or shot,j,k, got {','.join(columns)}")
    try:
        # bytes, not text: a StringIO would hold four bytes per character
        body = text[pos:].encode("ascii")
        rows = (np.loadtxt(io.BytesIO(body), dtype=np.int64, delimiter=",", ndmin=2)
                if body.strip() else np.zeros((0, len(columns)), dtype=np.int64))
    except ValueError as err:  # numpy's message names the row; drop its usecols hint
        raise ContractViolation(f"event log rows must be {len(columns)} integers each: "
                                f"{str(err).split(';')[0]}") from None
    if rows.shape[1] != len(columns):
        raise ContractViolation(
            f"event log rows must be {len(columns)} integers each, got {rows.shape[1]} fields")
    bad = np.flatnonzero(rows[:, 0] != np.arange(rows.shape[0]))
    if bad.size:
        raise ContractViolation(
            f"event log row {bad[0]} has shot {rows[bad[0], 0]}, expected {bad[0]}")

    def header_int(key, default=0):
        try:
            return int(header.get(key, default))
        except ValueError:
            raise ContractViolation(
                f"event log header {key}={header[key]} is not an integer") from None

    seed = header_int("seed")
    generator = header.get("generator", GENERATOR_NAME)
    if len(columns) == 3:
        labels = np.ascontiguousarray(rows[:, 1:])
        n_branches = header_int("n_branches", labels[:, 0].max(initial=0))
        n_elements = header_int("n_elements", labels[:, 1].max(initial=0))
        return CoincidenceLog(seed, generator, n_branches, n_elements, labels)
    labels = rows[:, 1].copy()
    return EventLog(seed, generator, header_int("n_elements", labels.max(initial=0)), labels)


def events_sha256(data: bytes) -> str:
    """Hex sha256 of an event log's CSV bytes, the digest counts.json records."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    """events_sha256 of the bytes of the file at path, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def counts_document(log, data: bytes) -> dict:
    """The counts.json memo of a log whose CSV is data: seed, shots, counts, events_sha256.

    The counts are the log's sufficient statistic; events_sha256 is the
    digest of exactly data, so a reader can tell whether the memo still
    describes the CSV beside it.
    """
    return _memo(log.seed, len(log), log.counts(), events_sha256(data))


def _memo(seed, shots, counts, digest):
    return {"seed": seed, "shots": shots, "counts": counts.tolist(), "events_sha256": digest}


def _count_array(obj):
    """obj as a 1-D or 2-D int64 array of nonnegative JSON integers, else None."""
    if not isinstance(obj, list):
        return None
    rows = obj if obj and all(isinstance(row, list) for row in obj) else [obj]
    if (len({len(row) for row in rows}) != 1
            or not all(type(x) is int and 0 <= x < 2 ** 63 for row in rows for x in row)):
        return None
    return np.array(obj, dtype=np.int64)


def memo_describes(doc, digest: str) -> bool:
    """Whether a parsed counts.json is the memo of the log whose CSV bytes have this sha256.

    A memo without events_sha256 (from an older run) or with another digest
    (of another log, or of this log before an edit) describes no log.
    """
    return isinstance(doc, dict) and doc.get("events_sha256") == digest


def counts_from_document(doc):
    """(counts, shots) of a counts.json document.

    The counts must be a rectangular array of 1 or 2 axes of nonnegative
    integers (a count vector or a coincidence table) summing to the integer
    shots, else ContractViolation.
    """
    counts = _count_array(doc.get("counts"))
    if counts is None:
        raise ContractViolation(
            "'counts' must be a rectangular array of nonnegative integers with 1 or 2 axes")
    shots = doc.get("shots")
    total = sum(map(int, counts.flat))
    if type(shots) is not int or shots != total:
        raise ContractViolation(f"'shots' must be the integer count total {total}, got {shots!r}")
    return counts, shots
