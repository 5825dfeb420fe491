"""JSON file formats and canonical serialization.

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


def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


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


def _array(obj, key, what):
    """The array under key of a parsed JSON object, else ContractViolation."""
    value = obj[key]
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
    if "matrix" not in _object(obj, "density"):
        raise ContractViolation("density document needs a 'matrix' field")
    m = matrix_from_json(obj["matrix"])
    _check_dim(obj, m.shape[0], f"matrix shape {m.shape}")
    return m


def measure_to_json(measure: QuantumMeasure, scale=None):
    doc = {
        "dim": measure.dim,
        "elements": [matrix_to_json(p) for p in measure.elements],
    }
    if scale is not None:
        values = np.asarray(scale, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        doc["scale"] = matrix_to_json(values)
    return doc


def measure_from_json(obj):
    """Parse a measure document; returns (QuantumMeasure, scale or None)."""
    from .measures import QuantumMeasure

    if "elements" not in _object(obj, "measure"):
        raise ContractViolation("measure document needs an 'elements' field")
    measure = QuantumMeasure([matrix_from_json(e) for e in _array(obj, "elements", "measure")])
    _check_dim(obj, measure.dim, f"element dimension {measure.dim}")
    scale = None
    if obj.get("scale") is not None:
        scale = matrix_from_json(obj["scale"])
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


def channel_from_json(obj) -> list:
    """Parse a channel given as Kraus operators or a Choi matrix."""
    from .channels import kraus_from_choi

    if "kraus" in _object(obj, "channel"):
        ops = [matrix_from_json(t) for t in _array(obj, "kraus", "channel")]
    elif "choi" in obj:
        ops = kraus_from_choi(matrix_from_json(obj["choi"]))
    else:
        raise ContractViolation("channel document needs 'kraus' or 'choi'")
    if not ops:
        raise ContractViolation("channel needs at least one operator")
    _check_dim(obj, ops[0].shape[0], f"operator dimension {ops[0].shape[0]}")
    return ops


def instrument_from_json(obj) -> Instrument:
    from .channels import Instrument

    if "branches" not in _object(obj, "instrument"):
        raise ContractViolation("instrument document needs a 'branches' field")
    branches = _array(obj, "branches", "instrument")
    return Instrument(tuple(tuple(channel_from_json(b)) for b in branches))


def instrument_to_json(instrument: Instrument):
    return {
        "dim": instrument.dim,
        "branches": [channel_to_json(b) for b in instrument.branches],
    }


def network_from_json(obj):
    from .optics import Leaf, Split

    if "leaf" in _object(obj, "network node"):
        return Leaf(matrix_from_json(_object(obj["leaf"], "leaf")["jones"]))
    if "split" in obj:
        children = _array(obj, "split", "network node")
        if len(children) != 2:
            raise ContractViolation(f"a split has two children, got {len(children)}")
        return Split(network_from_json(children[0]), network_from_json(children[1]))
    raise ContractViolation("network node must have 'leaf' or 'split'")


def network_to_json(net):
    from .optics import Leaf

    if isinstance(net, Leaf):
        return {"leaf": {"jones": matrix_to_json(net.jones)}}
    return {"split": [network_to_json(net.left), network_to_json(net.right)]}


def model_from_json(obj):
    """Parse a dynamics model (H, optional V, hbar, lindblad); returns (LindbladModel, rho0)."""
    from .dynamics import LindbladModel

    if "H" not in _object(obj, "model") or "rho0" not in obj:
        raise ContractViolation("model document needs 'H' and 'rho0'")
    section = (_object(obj["lindblad"], "lindblad") if obj.get("lindblad") is not None
               else {"L": [], "gamma": []})
    model = LindbladModel(
        matrix_from_json(obj["H"]),
        tuple(matrix_from_json(l) for l in _array(section, "L", "lindblad")),
        tuple(_number(g, "lindblad rate") for g in _array(section, "gamma", "lindblad")),
        _number(obj.get("hbar", 1.0), "hbar"),
        matrix_from_json(obj["V"]) if obj.get("V") is not None else None,
    )
    rho0 = matrix_from_json(obj["rho0"])
    if rho0.shape != model.H.shape:
        raise ContractViolation(f"rho0 of shape {rho0.shape} does not match H, {model.H.shape}")
    return model, rho0


def hamiltonian_from_json(obj):
    """Parse a Hamiltonian document ("H" or "matrix", optional "hbar"); returns (H, hbar)."""
    doc = _object(obj, "Hamiltonian")
    h = matrix_from_json(doc["H"] if "H" in doc else doc["matrix"])
    return h, _number(doc.get("hbar", 1.0), "hbar")


def selfcal_from_json(obj):
    """Parse a self-calibration document; returns (outputs, init_filters, init_sources), the
    outputs as the complex (K, L, d, d) grid of K rows of L equally sized matrices."""
    doc = _object(obj, "selfcal")
    rows = _array(doc, "outputs", "selfcal")
    if not all(isinstance(row, list) for row in rows):
        raise ContractViolation("selfcal 'outputs' must be an array of rows of matrices")
    grid = [[matrix_from_json(m) for m in row] for row in rows]
    if len({len(row) for row in grid}) > 1 or len({m.shape for row in grid for m in row}) > 1:
        raise ContractViolation(
            "selfcal 'outputs' must be a rectangular grid of equally sized matrices")
    filters = [matrix_from_json(f) for f in _array(doc, "init_filters", "selfcal")]
    sources = [matrix_from_json(s) for s in _array(doc, "init_sources", "selfcal")]
    return np.array(grid, dtype=complex), filters, sources


def trajectory_to_json(traj):
    return [{"t": float(t), "matrix": m} for t, m in zip(traj.times, matrix_to_json(traj.states))]


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
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ContractViolation(f"{path}: not a JSON document: {err}") from None
