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
records the sha256 of those CSV bytes (``io.counts_document``).  `write_events`
streams a run straight to a file instead: it draws, checks, formats, hashes
and counts a fixed number of shots at a time, in buffers allocated once per
run, so its memory does not grow with the shot count, and it writes the same
bytes and memo.  A reader takes a log's counts from the memo, whatever its name,
whose digest matches the log's bytes (``io.memos_by_digest``); the CSV stays the record.
"""

from __future__ import annotations

import hashlib
import io
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation
from .io import _LOG_KINDS, counts_memo
from .measures import QuantumMeasure, response_probabilities
from .ops import _Frozen, _unit_intensity, as_square

if TYPE_CHECKING:
    from .channels import Instrument

GENERATOR_NAME = "philox4x64"
_PROB_TOL = 1e-9
# Shots drawn at a time by every sampler, and checked, formatted and written at a time by
# write_events and event_log_to_csv; bounds their working memory (a few MB), not their output.
_CHUNK_SHOTS = 1 << 16


class ExperimentConfig(_Frozen):
    """One simulated run: seed, shot count, unit-intensity source, device.

    The device is a detector's measure alone, or an instrument observed in
    coincidence with a second detector of that measure; sampling reads no scale.
    """

    __slots__ = ("seed", "shots", "source", "measure", "instrument")

    def __init__(self, seed: int, shots: int, source, measure: QuantumMeasure,
                 instrument: Instrument | None = None):
        if not 0 <= seed < 2 ** 128:  # a Philox key is 128 bits
            raise ContractViolation(f"seed must lie in [0, 2**128), got {seed}")
        if shots < 0:
            raise ContractViolation(f"shot count must be nonnegative, got {shots}")
        rho = _unit_intensity(source, "source")
        if not isinstance(measure, QuantumMeasure):
            raise ContractViolation(
                f"measure must be a QuantumMeasure, got {type(measure).__name__}")
        d = rho.shape[0]
        for what, device in (("detector", measure), ("instrument", instrument)):
            if device is not None and device.dim != d:
                raise ContractViolation(
                    f"the {what} acts on {device.dim}x{device.dim} states, the source is {d}x{d}")
        self._fill(seed, shots, rho, measure, instrument)


class EventLog(_Frozen):
    """Per-shot labels, one column per device; column i lies in [0, bounds[i]].

    A detection log has one column, the detector element (bounds is
    (n_elements,)); a coincidence log has two, the instrument branch and the
    second detector's element (bounds is (n_branches, n_elements)).  Label 0
    is a device's null response: the appended null branch, or no detection.
    labels has shape (shots, len(bounds)).
    """

    __slots__ = ("seed", "generator", "bounds", "labels")

    def __init__(self, seed: int, generator: str, bounds, labels):
        bounds = tuple(map(int, bounds))
        if len(bounds) not in _LOG_KINDS or labels.shape[1:] != (len(bounds),):
            raise ContractViolation(f"labels of shape {labels.shape} do not fit bounds "
                                    f"{bounds}; a log has 1 or 2 devices")
        self._fill(seed, generator, bounds, labels)
        self._check(labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def counts(self) -> np.ndarray:
        """Shots per label tuple, as an array of shape bounds + 1."""
        return self._count(self.labels)

    # The methods below take labels of this log's devices: all of them, or
    # one chunk of them whose first shot is start.
    def _check(self, labels, start=0):
        columns = _LOG_KINDS[len(self.bounds)][2]
        for column, bound, (what, key) in zip(labels.T, self.bounds, columns):
            if column.min(initial=0) < 0 or column.max(initial=0) > bound:
                bad = np.flatnonzero((column < 0) | (column > bound))[0]
                raise ContractViolation(f"shot {start + bad}: {what} {column[bad]} "
                                        f"is outside [0, {key}={bound}]")

    def _count(self, labels):
        shape = tuple(bound + 1 for bound in self.bounds)
        flat = labels[:, 0]  # the row-major index of each shot's label tuple
        for column, size in zip(labels.T[1:], shape[1:]):
            flat = flat * size + column
        return np.bincount(flat, minlength=math.prod(shape)).reshape(shape)

    def _header(self) -> str:
        _, line, columns = _LOG_KINDS[len(self.bounds)][:3]
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

    Yields chunks of _CHUNK_SHOTS shots, and always at least one chunk, each
    drawn into one buffer that the next chunk overwrites; the concatenation of
    the chunks does not depend on the chunk size.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = np.empty(min(_CHUNK_SHOTS, shots))
    for start in range(0, max(shots, 1), _CHUNK_SHOTS):
        yield gen.random(out=u[:min(_CHUNK_SHOTS, shots - start)])


def _label_chunks(cfg: ExperimentConfig):
    """(log, chunks): an empty log of cfg's devices, and its label chunks in shot order.

    A shot's labels index one slot of the probability table (one axis per
    device, null slots included).  Slot 0, every device null, cannot occur,
    as the last device is a detector; the draw is over the other slots.
    Every chunk is a view of one label array that the next chunk overwrites.
    """
    if cfg.instrument is None:
        table = np.zeros(len(cfg.measure) + 1)
        table[1:] = response_probabilities(cfg.measure, cfg.source, _PROB_TOL)
    else:
        table = joint_probabilities(cfg.instrument, cfg.measure, cfg.source)
    log = EventLog(cfg.seed, GENERATOR_NAME, [n - 1 for n in table.shape],
                   np.zeros((0, table.ndim), dtype=np.int64))
    cdf = _prepare_cdf(table.reshape(-1)[1:])
    size = min(_CHUNK_SHOTS, cfg.shots)
    out = np.empty((size, table.ndim), dtype=np.int64, order="F")  # contiguous columns
    counters = np.empty((2, size), dtype=np.uint8)

    def labels(u):
        chunk = out[:u.size]
        flat = chunk[:, 0]
        _outcomes(cdf, u, flat, counters[:, :u.size])
        flat += 1
        for axis in range(table.ndim - 1, 0, -1):  # np.unravel_index, which is slower
            np.divmod(flat, table.shape[axis], out=(flat, chunk[:, axis]))
        return chunk

    return log, map(labels, _uniforms(cfg.seed, cfg.shots))


# Largest outcome count whose indices fit _outcomes' uint8 count; on larger
# tables the binary search is also the faster one.
_COUNTED_OUTCOMES = np.iinfo(np.uint8).max


def _outcomes(cdf, u, out=None, counters=None):
    """Outcome index of each uniform: np.searchsorted(cdf, u, side="right"), as int64.

    The index is the number of cdf entries at or below u, ties included.  Up
    to _COUNTED_OUTCOMES entries it is counted with one vectorised comparison
    per entry, which at a few outcomes is an order of magnitude faster than
    the binary search; on larger tables the search is faster.  The indices go
    to out (a new array by default), and the count to counters, two uint8
    rows as long as u (new by default).
    """
    if out is None:
        out = np.empty(u.shape, dtype=np.int64)
    if cdf.size > _COUNTED_OUTCOMES:
        out[...] = np.searchsorted(cdf, u, side="right")
        return out
    count, hit = np.empty((2, *u.shape), dtype=np.uint8) if counters is None else counters
    count.fill(0)
    flag = hit.view(bool)
    for edge in cdf:
        np.less_equal(edge, u, out=flag)
        count += hit
    out[...] = count
    return out


def sample_events(cfg: ExperimentConfig):
    """Draw cfg's run; returns (EventLog, counts), byte-identical for identical configs.

    Without an instrument: a detection log of labels 1..K for the K measure
    elements (0, null, cannot occur, as a valid measure responds with total
    rate one) and its count vector; with one: a coincidence log of (branch,
    element) pairs and its table.
    """
    empty, chunks = _label_chunks(cfg)
    labels = np.concatenate([chunk.copy() for chunk in chunks])  # the chunks share one array
    log = EventLog(empty.seed, empty.generator, empty.bounds, labels)
    return log, log.counts()


def joint_probabilities(instrument: Instrument, measure: QuantumMeasure, rho, tol=_PROB_TOL):
    """Exact coincidence table p[j, k] = tr(P_k E_j(rho)) including null slots.

    P_k are the measure's elements.  Row j = 0 is the appended null branch;
    column k = 0 is the (never responding) null slot of the second detector.
    Row j is response_probabilities of E_j(rho), checked by the detector's rule.
    """
    from .channels import kraus_apply

    rho = as_square(rho, "rho")
    branches = [instrument.null_kraus(tol)] + list(instrument.branches)
    table = np.zeros((len(branches), len(measure) + 1))
    for j, branch in enumerate(branches):
        table[j, 1:] = response_probabilities(measure, kraus_apply(branch, rho), tol)
    return table


def empirical_rates(log):
    """tomography.rates_from_counts of the log's counts: one array of relative frequencies."""
    from .tomography import rates_from_counts

    return rates_from_counts(log.counts(), len(log))


# A cell of _csv_rows' byte matrix holds its byte minus ord("0"), modulo 256,
# until one add turns every cell into its byte: digits are stored as they are
# computed, and a dropped leading cell holds _LEADING, which becomes NUL.
_LEADING = -ord("0") & 0xFF


def _csv_rows(columns, scratch=None):
    """CSV bytes of equal-length nonnegative integer columns, one line per row, as a bytes-like.

    Every digit is written right-aligned into one (rows, width) byte matrix,
    each column as wide as its largest value.  A value's digits come from the
    right, each as rest - 10 * (rest // 10) on the smallest unsigned dtype
    that holds every value of that width.  When every value of a column has
    the digit count of its largest, as in every chunk of a long log but the
    first few, the matrix is the text, and a view of it is returned.
    Otherwise the leading cells of the shorter values are NUL and are dropped
    from the bytes.  scratch keeps, for the next call to overwrite, the
    matrix of each tuple of column widths and the digit buffers of each
    width; without it the buffers are new.
    """
    n = columns[0].size
    if n == 0:
        return b""
    scratch = {} if scratch is None else scratch
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    short = [w > 1 and int(col.min()) < 10 ** (w - 1) for col, w in zip(columns, widths)]
    out = scratch.get(tuple(widths))
    if out is None or len(out) < n:
        out = scratch[tuple(widths)] = np.empty((n, sum(widths) + len(widths)), dtype=np.uint8)
    out = out[:n]
    stop = 0
    for col, width, ragged in zip(columns, widths, short):
        digits = scratch.get(width)
        if digits is None or digits.shape[1] < n:
            digits = scratch[width] = np.empty((3, n), dtype=np.min_scalar_type(10 ** width - 1))
        rest, quot, tens = digits[:, :n]
        np.copyto(rest, col, casting="unsafe")
        stop += width
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
    return out.tobytes().translate(None, b"\0") if any(short) else out.reshape(-1).data


def _write_csv(handle, log, chunks) -> dict:
    """Write the CSV of log's header and of the label chunks to the binary handle.

    The chunks are the labels of shots 0, 1, ... in order, none longer than
    the first; each is checked against the header and counted as it is
    written.  The handle gets each chunk's bytes in a buffer that the next
    chunk overwrites.  Returns the counts.json memo of the bytes written.
    """
    digest = hashlib.sha256()

    def put(data):
        handle.write(data)
        digest.update(data)

    put(f"# seed={log.seed}\n# generator={log.generator}\n{log._header()}".encode())
    counts = log._count(log.labels[:0])
    start, index, scratch = 0, None, {}
    for labels in chunks:
        if index is None:
            index = np.arange(len(labels))  # the shot column of each chunk, moved on in place
        log._check(labels, start)
        counts += log._count(labels)
        put(_csv_rows([index[:len(labels)], *labels.T], scratch))
        index += len(labels)
        start += len(labels)
    return counts_memo(log.seed, start, counts, digest.hexdigest())


def event_log_to_csv(log) -> str:
    """Serialize a log with seed and generator header lines."""
    buffer = io.BytesIO()
    _write_csv(buffer, log, (log.labels[start:start + _CHUNK_SHOTS]
                             for start in range(0, len(log), _CHUNK_SHOTS)))
    return buffer.getvalue().decode()


def write_events(cfg: ExperimentConfig, handle) -> dict:
    """Sample cfg's run and write its CSV to the binary handle; returns its counts.json memo.

    The bytes and the memo are those of event_log_to_csv and io.counts_document
    of the log that sample_events draws, but only one chunk of shots is in
    memory at a time, drawn, labelled, checked, formatted and hashed in
    buffers allocated once per run.
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
    forms = {kind[1]: kind[2] for kind in _LOG_KINDS.values()}  # column header -> label columns
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
