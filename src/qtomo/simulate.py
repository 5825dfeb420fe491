"""Seeded stochastic detection and coincidence events for tomography runs.

Randomness comes from numpy's Philox bit generator, a counter-based 64-bit
generator keyed directly with the run seed, so event logs are reproducible
across processes and platforms.  A log holds one label per device and shot
(`EventLog`): a detector alone gives detection logs, an instrument observed
by a second detector coincidence logs.  Outcomes are drawn by inverse CDF on
the run's flattened probability table, one uniform per shot: a shot's
outcome index is the number of cumulative entries at or below its uniform,
which is np.searchsorted(cdf, u, side="right").  Up to 255 outcomes that
count is taken directly, one comparison per entry; larger tables use searchsorted.
Shots are drawn in fixed-size chunks, in order from the one generator, so
the labels do not depend on the chunk size.

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
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .io import _number_array
from .measures import QuantumMeasure, response_probabilities
from .ops import as_square

if TYPE_CHECKING:
    from .channels import Instrument

GENERATOR_NAME = "philox4x64"
_PROB_TOL = 1e-9
# Shots drawn at a time by every sampler, and checked, formatted and written at a time by
# write_events and event_log_to_csv; bounds their working memory (a few MB), not their output.
_CHUNK_SHOTS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated run: seed, shot count, unit-intensity source, device.

    The device is a detector's measure alone, or an instrument observed in
    coincidence with a second detector of that measure; sampling reads no scale.
    """

    seed: int
    shots: int
    source: np.ndarray = field(repr=False)
    measure: QuantumMeasure
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
        if not isinstance(self.measure, QuantumMeasure):
            raise ContractViolation(
                f"measure must be a QuantumMeasure, got {type(self.measure).__name__}")
        d = rho.shape[0]
        for what, device in (("detector", self.measure), ("instrument", self.instrument)):
            if device is not None and device.dim != d:
                raise ContractViolation(
                    f"the {what} acts on {device.dim}x{device.dim} states, the source is {d}x{d}")
        object.__setattr__(self, "source", rho)


# A log's CSV form, by its number of devices: the column header, and for each label column
# the word for its labels and the header key of its bound.  The only place the kinds differ.
_CSV_FORMS = {
    1: ("shot,label", (("label", "n_elements"),)),
    2: ("shot,j,k", (("branch", "n_branches"), ("element", "n_elements"))),
}


@dataclass(frozen=True)
class EventLog:
    """Per-shot labels, one column per device; column i lies in [0, bounds[i]].

    A detection log has one column, the detector element (bounds is
    (n_elements,)); a coincidence log has two, the instrument branch and the
    second detector's element (bounds is (n_branches, n_elements)).  Label 0
    is a device's null response: the appended null branch, or no detection.
    labels has shape (shots, len(bounds)).
    """

    seed: int
    generator: str
    bounds: tuple
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(map(int, self.bounds)))
        if len(self.bounds) not in _CSV_FORMS or self.labels.shape[1:] != (len(self.bounds),):
            raise ContractViolation(f"labels of shape {self.labels.shape} do not fit bounds "
                                    f"{self.bounds}; a log has 1 or 2 devices")
        self._check(self.labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        """Shots per label tuple, as an array of shape bounds + 1."""
        return self._count(self.labels)

    # The methods below take labels of this log's devices: all of them, or
    # one chunk of them whose first shot is start.
    def _check(self, labels, start=0):
        columns = _CSV_FORMS[len(self.bounds)][1]
        for column, bound, (what, key) in zip(labels.T, self.bounds, columns):
            bad = np.flatnonzero((column < 0) | (column > bound))
            if bad.size:
                raise ContractViolation(f"shot {start + bad[0]}: {what} {column[bad[0]]} "
                                        f"is outside [0, {key}={bound}]")

    def _count(self, labels):
        shape = tuple(bound + 1 for bound in self.bounds)
        flat = labels[:, 0]  # the row-major index of each shot's label tuple
        for column, size in zip(labels.T[1:], shape[1:]):
            flat = flat * size + column
        return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)

    def _header(self) -> str:
        line, columns = _CSV_FORMS[len(self.bounds)]
        keys = "".join(f"# {key}={bound}\n" for bound, (_, key) in zip(self.bounds, columns))
        return f"{keys}{line}\n"


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


def _uniforms(seed: int, shots: int):
    """One uniform per shot, drawn in order from the seed's Philox stream.

    Yields chunks of _CHUNK_SHOTS shots, and always at least one chunk; the
    concatenation does not depend on the chunk size.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    yield gen.random(min(_CHUNK_SHOTS, shots))
    for start in range(_CHUNK_SHOTS, shots, _CHUNK_SHOTS):
        yield gen.random(min(_CHUNK_SHOTS, shots - start))


def _label_chunks(cfg: ExperimentConfig):
    """(log, chunks): an empty log of cfg's devices, and its label chunks in shot order.

    A shot's labels index one slot of the probability table (one axis per
    device, null slots included).  Slot 0, every device null, cannot occur,
    as the last device is a detector; the draw is over the other slots.
    """
    if cfg.instrument is None:
        table = np.zeros(len(cfg.measure) + 1)
        table[1:] = response_probabilities(cfg.measure, cfg.source, _PROB_TOL)
    else:
        table = joint_probabilities(cfg.instrument, cfg.measure, cfg.source)
    log = EventLog(cfg.seed, GENERATOR_NAME, [n - 1 for n in table.shape],
                   np.zeros((0, table.ndim), dtype=np.int64))
    cdf = _prepare_cdf(table.reshape(-1)[1:])

    def labels(u):
        out = np.empty((u.size, table.ndim), dtype=np.int64, order="F")  # contiguous columns
        flat = out[:, 0]
        np.add(_outcomes(cdf, u), 1, out=flat)
        for axis in range(table.ndim - 1, 0, -1):  # np.unravel_index, which is slower
            np.divmod(flat, table.shape[axis], out=(flat, out[:, axis]))
        return out

    return log, map(labels, _uniforms(cfg.seed, cfg.shots))


# Largest outcome count whose indices fit _outcomes' uint8 count; on larger
# tables the binary search is also the faster one.
_COUNTED_OUTCOMES = np.iinfo(np.uint8).max


def _outcomes(cdf, u):
    """Outcome index of each uniform: np.searchsorted(cdf, u, side="right"), as int64.

    The index is the number of cdf entries at or below u, ties included.  Up
    to _COUNTED_OUTCOMES entries it is counted with one vectorised comparison
    per entry, which at a few outcomes is an order of magnitude faster than
    the binary search; on larger tables the search is faster.
    """
    if cdf.size > _COUNTED_OUTCOMES:
        return np.searchsorted(cdf, u, side="right").astype(np.int64, copy=False)
    count = np.zeros(u.shape, dtype=np.uint8)
    hit = np.empty(u.shape, dtype=np.uint8)
    flag = hit.view(bool)
    for edge in cdf:
        np.less_equal(edge, u, out=flag)
        count += hit
    return count.astype(np.int64)


def sample_events(cfg: ExperimentConfig):
    """Draw cfg's run; returns (EventLog, counts), byte-identical for identical configs.

    Without an instrument: a detection log of labels 1..K for the K measure
    elements (0, null, cannot occur, as a valid measure responds with total
    rate one) and its count vector; with one: a coincidence log of (branch,
    element) pairs and its table.
    """
    empty, chunks = _label_chunks(cfg)
    log = replace(empty, labels=np.concatenate(list(chunks)))
    return log, log.counts()


def joint_probabilities(instrument: Instrument, measure: QuantumMeasure, rho, tol=_PROB_TOL):
    """Exact coincidence table p[j, k] = tr(P_k E_j(rho)) including null slots.

    P_k are the measure's elements.  Row j = 0 is the appended null branch;
    column k = 0 is the (never responding) null slot of the second detector.
    """
    from .channels import kraus_apply

    rho = as_square(rho, "rho")
    branches = [instrument.null_kraus(tol)] + list(instrument.branches)
    k_elems = measure.elements
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


@dataclass(frozen=True)
class Rates:
    """Relative frequencies of a log's label tuples and their standard errors, as its counts."""

    p_hat: np.ndarray
    stderr: np.ndarray


def rates_from_counts(counts, shots):
    """Relative frequencies with binomial standard errors sqrt(p(1-p)/N).

    counts is a log's count vector or coincidence table over shots events.
    """
    if shots == 0:
        raise ContractViolation("empty event log has no rates")
    p = np.asarray(counts).astype(float) / shots
    return Rates(p, np.sqrt(p * (1.0 - p) / shots))


def empirical_rates(log):
    """rates_from_counts of the log's counts."""
    return rates_from_counts(log.counts(), len(log))


# A cell of _csv_rows' byte matrix holds its byte minus ord("0"), modulo 256,
# until one add turns every cell into its byte: digits are stored as they are
# computed, and a dropped leading cell holds _LEADING, which becomes NUL.
_LEADING = -ord("0") & 0xFF


def _csv_rows(columns) -> bytes:
    """CSV bytes of equal-length nonnegative integer columns, one line per row.

    Every digit is written right-aligned into one (rows, width) byte matrix,
    each column as wide as its largest value.  A value's digits come from the
    right, each as rest - 10 * (rest // 10) on the smallest unsigned dtype
    that holds the column.  When every value of a column has the digit count
    of its largest, as in every chunk of a long log but the first few, the
    matrix is the text.  Otherwise the leading cells of the shorter values
    are NUL and are dropped from the bytes.
    """
    n = columns[0].size
    if n == 0:
        return b""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    short = [int(col.min()) < 10 ** (width - 1) for col, width in zip(columns, widths)]
    out = np.empty((n, sum(widths) + len(widths)), dtype=np.uint8)
    stop = 0
    for col, top, width, ragged in zip(columns, tops, widths, short):
        stop += width
        rest = col.astype(np.min_scalar_type(top))
        quot, tens = np.empty_like(rest), np.empty_like(rest)
        for k in range(width):  # rest is col // 10**k
            cell = out[:, stop - 1 - k]
            if k == width - 1:
                np.copyto(cell, rest, casting="unsafe")
            else:
                np.floor_divide(rest, 10, out=quot)
                np.multiply(quot, 10, out=tens)
                np.subtract(rest, tens, out=cell, casting="unsafe")
            if ragged and k:
                cell[rest == 0] = _LEADING
            rest, quot = quot, rest
        out[:, stop] = (ord(",") - ord("0")) & 0xFF
        stop += 1
    out[:, -1] = (ord("\n") - ord("0")) & 0xFF
    out += ord("0")
    return out.tobytes().translate(None, b"\0") if any(short) else out.tobytes()


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
        put(_csv_rows([np.arange(start, start + len(labels)), *labels.T]))
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
    of the log that sample_events draws, but only one chunk of shots is in
    memory at a time.
    """
    return _write_csv(handle, *_label_chunks(cfg))


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
    forms = dict(_CSV_FORMS.values())  # column header -> label columns
    label_columns = forms.get(",".join(columns))
    if label_columns is None:
        raise ContractViolation(
            f"event log columns must be {' or '.join(forms)}, got {','.join(columns)}")
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
    labels = np.ascontiguousarray(rows[:, 1:])
    bounds = [header_int(key, column.max(initial=0))
              for column, (_, key) in zip(labels.T, label_columns)]
    return EventLog(seed, generator, bounds, labels)


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
    """obj as a nonempty 1-D or 2-D int64 array of nonnegative JSON integers, else None."""
    arr = _number_array(obj)  # an empty array reads as floats, so it fails the kind check
    if arr is None or arr.dtype.kind != "i" or arr.ndim not in (1, 2) or (arr < 0).any():
        return None
    return arr.astype(np.int64)


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
