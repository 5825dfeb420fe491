"""JSON file formats and canonical serialization.

The counts memo of an event log is here too (``counts_memo``):
the log's seed, shot count and counts, and the sha256 of its CSV bytes.  A reader
takes a log's counts from the memo, whatever its name, that records the sha256 of
that log's bytes (``file_sha256``, ``memos_by_digest``, ``counts_from_document``),
so it needs no sampler to trust them.

Complex scalars are encoded as two-element arrays [re, im] and matrices as
row-major nested arrays.  The encoders return each matrix as a float array
of shape (rows, cols, 2) holding those pairs.  The canonical writer sorts
keys and prints every float as '%.17g' does, so writing, reading and
re-writing a document reproduces it byte for byte; the one exception is a
negative zero, printed "-0", which reads back as 0.  It walks a document
once, leaving a place for each float array, and then prints all those arrays
in one vectorised pass (``_floattext``): the digits are exactly rounded from
a double-double product, and the rare element that pass cannot certify, near
a rounding tie or of extreme magnitude, is printed by Python's own '%.17g'.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation

if TYPE_CHECKING:  # the parsers import these engines when they build one
    from .channels import Instrument
    from .measures import Detector, QuantumMeasure


def json_to_complex(obj) -> complex:
    """A JSON number or [re, im] pair of numbers as a complex (booleans are not numbers)."""
    try:
        if isinstance(obj, (int, float)) and type(obj) is not bool:
            return complex(obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2 and bool not in map(type, obj):
            return complex(obj[0], obj[1])
    except (OverflowError, TypeError):  # an integer beyond float range, or a part not a number
        pass
    raise ContractViolation(f"cannot parse {obj!r} as a complex scalar")


def matrix_to_json(m):
    """The [re, im] pairs of a complex matrix, as a float array of shape (rows, cols, 2)."""
    arr = np.asarray(m, dtype=complex)
    return np.stack([arr.real, arr.imag], -1)


def _number_array(obj):
    """np.array(obj) if obj nests lists to a rectangular array of JSON numbers, else None.

    Booleans are not numbers, though numpy would read them as 1 and 0 among numbers.
    """
    try:
        arr = np.array(obj)
    except (ValueError, OverflowError):  # ragged rows, or an integer beyond float range
        return None
    if arr.dtype.kind not in "iuf":
        return None
    entries = [obj]
    for _ in range(arr.ndim):
        entries = chain.from_iterable(entries)
    return arr if set(map(type, entries)) <= {int, float} else None


def matrix_from_json(obj) -> np.ndarray:
    """Parse rows of numbers and [re, im] pairs, or the array matrix_to_json returns."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ContractViolation("matrix must be a nonempty array of rows")
    arr = _number_array(obj)
    if arr is not None and arr.ndim == 2:
        return arr.astype(complex)
    if arr is not None and arr.shape[2:] == (2,):  # all [re, im] pairs
        return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(arr.shape[:2])
    # rows that mix numbers and pairs, or an entry that is neither
    widths = {len(row) for row in obj}
    if len(widths) != 1:
        raise ContractViolation(f"matrix rows differ in length: {sorted(widths)}")
    return np.array([[json_to_complex(x) for x in row] for row in obj], dtype=complex)


def _object(obj, what):
    """obj if it is a JSON object, else ContractViolation naming the document kind."""
    if not isinstance(obj, dict):
        raise ContractViolation(f"{what} document must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj, key, what):
    """The value under key of a JSON object, else ContractViolation naming the document kind."""
    if key not in _object(obj, what):
        raise ContractViolation(f"{what} document needs a '{key}' field")
    return obj[key]


def _array(obj, key, what):
    """The array under key of a JSON object, else ContractViolation."""
    value = _field(obj, key, what)
    if not isinstance(value, list):
        raise ContractViolation(f"{what} '{key}' must be an array, got {type(value).__name__}")
    return value


def _number(value, what):
    """A JSON number as a float, else ContractViolation (booleans are not numbers)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ContractViolation(f"{what} must be a number, got {value!r}")


def _check_dim(obj, actual, what):
    """Compare an optional declared integer 'dim' with the parsed dimension."""
    if "dim" not in obj:
        return
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ContractViolation(f"declared dim must be an integer, got {dim!r}")
    if dim != actual:
        raise ContractViolation(f"declared dim {dim} does not match {what}")


def density_to_json(rho):
    arr = np.asarray(rho, dtype=complex)
    return {"dim": arr.shape[0], "matrix": matrix_to_json(arr)}


def density_from_json(obj) -> np.ndarray:
    m = matrix_from_json(_field(obj, "matrix", "density"))
    _check_dim(obj, m.shape[0], f"matrix shape {m.shape}")
    return m


def measure_to_json(measure: QuantumMeasure, scale=None):
    doc = {
        "dim": measure.dim,
        "elements": [matrix_to_json(p) for p in measure.elements],
    }
    if scale is not None:
        from .measures import _scale_values

        doc["scale"] = matrix_to_json(_scale_values(scale))
    return doc


def measure_from_json(obj):
    """Parse a measure document; returns (QuantumMeasure, scale or None).  The scale is a matrix
    of one row of values per element, or a flat array of numbers, one scalar value each."""
    from .measures import QuantumMeasure, _scale_values

    measure = QuantumMeasure([matrix_from_json(e) for e in _array(obj, "elements", "measure")])
    _check_dim(obj, measure.dim, f"element dimension {measure.dim}")
    scale = obj.get("scale")
    if scale is not None:
        flat = _number_array(scale)
        try:
            scale = (_scale_values(flat) if flat is not None and flat.ndim == 1 and flat.size
                     else matrix_from_json(scale))
        except ContractViolation as err:
            raise ContractViolation(f"measure 'scale': {err}") from None
    return measure, scale


def detector_from_json(obj) -> Detector:
    from .measures import Detector

    measure, scale = measure_from_json(obj)
    if scale is None:
        raise ContractViolation("detector document needs a 'scale' field")
    return Detector(measure, scale)


def channel_to_json(kraus):
    ops = [np.asarray(t, dtype=complex) for t in kraus]
    return {"dim": ops[0].shape[0], "kraus": [matrix_to_json(t) for t in ops]}


def channel_from_json(obj, **tols) -> list:
    """Parse a channel given as Kraus operators or a Choi matrix.  The keywords tol_herm and
    tol_psd, if given, go to kraus_from_choi."""
    from .channels import kraus_from_choi

    if "kraus" in _object(obj, "channel"):
        ops = [matrix_from_json(t) for t in _array(obj, "kraus", "channel")]
    elif "choi" in obj:
        ops = kraus_from_choi(matrix_from_json(obj["choi"]), **tols)
    else:
        raise ContractViolation("channel document needs 'kraus' or 'choi'")
    if not ops:
        raise ContractViolation("channel needs at least one operator")
    _check_dim(obj, ops[0].shape[0], f"operator dimension {ops[0].shape[0]}")
    return ops


def instrument_from_json(obj, **tols) -> Instrument:
    """Parse an instrument, one channel document per branch; tols go to channel_from_json."""
    from .channels import Instrument

    branches = _array(obj, "branches", "instrument")
    return Instrument(tuple(tuple(channel_from_json(b, **tols)) for b in branches))


def instrument_to_json(instrument: Instrument):
    return {
        "dim": instrument.dim,
        "branches": [channel_to_json(b) for b in instrument.branches],
    }


def model_from_json(obj, **tols):
    """Parse a dynamics model (H, optional V, hbar, lindblad); returns (LindbladModel, rho0).
    The keywords tol_herm and tol_psd, if given, go to LindbladModel and to the check of rho0 as
    a state by ops.require_hermitian (dimensionless, Hermitian and PSD)."""
    from .dynamics import LindbladModel
    from .ops import TOL_HERM, TOL_PSD, require_hermitian

    h, rho0 = _field(obj, "H", "model"), _field(obj, "rho0", "model")
    section = obj["lindblad"] if obj.get("lindblad") is not None else {"L": [], "gamma": []}
    model = LindbladModel(
        matrix_from_json(h),
        tuple(matrix_from_json(l) for l in _array(section, "L", "lindblad")),
        tuple(_number(g, "lindblad rate") for g in _array(section, "gamma", "lindblad")),
        _number(obj.get("hbar", 1.0), "hbar"),
        matrix_from_json(obj["V"]) if obj.get("V") is not None else None,
        **tols,
    )
    rho0 = matrix_from_json(rho0)
    if rho0.shape != model.H.shape:
        raise ContractViolation(f"rho0 of shape {rho0.shape} does not match H, {model.H.shape}")
    return model, require_hermitian(rho0, "rho0", tols.get("tol_herm", TOL_HERM),
                                    tols.get("tol_psd", TOL_PSD), dimensionless=True)


def hamiltonian_from_json(obj, **tols):
    """Parse a Hamiltonian document ("H" or "matrix", optional "hbar"); returns (H, hbar), H
    checked by ops.require_hermitian against its max-norm (keyword tol_herm)."""
    from .ops import require_hermitian

    key = "H" if "H" in _object(obj, "Hamiltonian") else "matrix"
    h = require_hermitian(matrix_from_json(_field(obj, key, "Hamiltonian")), "H", **tols)
    return h, _number(obj.get("hbar", 1.0), "hbar")


def selfcal_from_json(obj):
    """Parse a self-calibration document; returns (outputs, init_filters, init_sources), the
    outputs as the complex (K, L, d, d) grid of K rows of L equally sized matrices."""
    rows = _array(obj, "outputs", "selfcal")
    if not all(isinstance(row, list) for row in rows):
        raise ContractViolation("selfcal 'outputs' must be an array of rows of matrices")
    grid = [[matrix_from_json(m) for m in row] for row in rows]
    if len({len(row) for row in grid}) > 1 or len({m.shape for row in grid for m in row}) > 1:
        raise ContractViolation(
            "selfcal 'outputs' must be a rectangular grid of equally sized matrices")
    filters = [matrix_from_json(f) for f in _array(obj, "init_filters", "selfcal")]
    sources = [matrix_from_json(s) for s in _array(obj, "init_sources", "selfcal")]
    return np.array(grid, dtype=complex), filters, sources


def trajectory_to_json(traj):
    return [{"t": float(t), "matrix": m} for t, m in zip(traj.times, matrix_to_json(traj.states))]


def file_sha256(path) -> str:
    """Hex sha256 of the bytes of the file at path, the digest an event log's counts memo
    records, read into one reused 1 MiB buffer."""
    import hashlib  # here: loading OpenSSL costs a command 3-5 ms

    digest = hashlib.sha256()
    block = bytearray(1 << 20)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


# The two kinds of event log, by their number of devices: the name of such a log; its CSV
# column header, and for each label column the word for its labels and the header key of its
# bound; the file, key and axes of the rates a bundle may hold instead of such logs.
_LOG_KINDS = {
    1: ("detection log", "shot,label", (("label", "n_elements"),), "rates.json", "rates", (1, 2)),
    2: ("coincidence log", "shot,j,k", (("branch", "n_branches"), ("element", "n_elements")),
        "tables.json", "tables", (3,)),
}


def counts_memo(seed, shots, counts, digest) -> dict:
    """The counts.json memo of a run: seed, shots, the counts array and events_sha256, the hex
    sha256 of exactly the log's CSV bytes, so a reader can tell whether the memo still describes
    the CSV beside it.  The counts are the log's sufficient statistic."""
    return {"seed": seed, "shots": shots, "counts": counts.tolist(), "events_sha256": digest}


def _count_array(obj):
    """obj as a nonempty 1-D or 2-D int64 array of nonnegative JSON integers, else None."""
    arr = _number_array(obj)  # an empty array reads as floats, so it fails the kind check
    if arr is None or arr.dtype.kind != "i" or arr.ndim not in (1, 2) or (arr < 0).any():
        return None
    return arr.astype(np.int64)


def memos_by_digest(directory) -> dict:
    """{digest: (file name, memo)} of the JSON objects in directory's *.json files whose
    events_sha256 is a string, the first by file name for each digest.  A memo describes only
    the log whose bytes have its digest; a file that is unreadable or not JSON describes none."""
    memos = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            try:
                doc = read_json(os.path.join(directory, name))
            except (ContractViolation, OSError):
                continue
            if isinstance(doc, dict) and isinstance(doc.get("events_sha256"), str):
                memos.setdefault(doc["events_sha256"], (name, doc))
    return memos


def counts_from_document(doc):
    """(counts, shots) of a counts memo.

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


def _canonical(obj, out, arrays):
    """Append the canonical text of obj to out; a float array leaves a None in out and
    (its index in out, the array) in arrays, for _canonical_pieces to format them together."""
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ContractViolation("cannot serialize non-finite numbers")
        out.append(f"{x:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canonical(obj[key], out, arrays)
        out.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        arrays.append((len(out), obj))
        out.append(None)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(list(obj)):
            if i:
                out.append(",")
            _canonical(item, out, arrays)
        out.append("]")
    else:
        raise ContractViolation(f"cannot serialize {type(obj)!r} canonically")


def _canonical_pieces(obj) -> list:
    """The canonical text of obj as a list of str pieces, its float arrays printed together."""
    out, arrays = [], []
    _canonical(obj, out, arrays)
    if arrays:
        from ._floattext import format_arrays

        for (i, _), text in zip(arrays, format_arrays([a for _, a in arrays])):
            out[i] = text
    return out


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    return "".join(_canonical_pieces(obj))


def write_atomic(path, write):
    """Call write(handle) on a binary temp file, then rename it to path; returns write's result.

    Readers never see partial output, and a write that raises leaves no file.
    open() gives the file the usual mode (0666 less the umask).
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            result = write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def write_json_atomic(path, obj):
    """Write canonical JSON via a temp file and rename, so readers never see partial output.
    The pieces are printed before the file opens and written one by one, never joined."""
    pieces = _canonical_pieces(obj)
    write_atomic(path, lambda handle: handle.writelines(  # json.dumps escapes non-ASCII
        chain((piece.encode("ascii") for piece in pieces), (b"\n",))))


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:  # too deep
            raise ContractViolation(f"{path}: not a JSON document: {err}") from None
