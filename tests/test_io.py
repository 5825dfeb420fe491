import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (
    ContractViolation,
    Instrument,
    Leaf,
    LindbladModel,
    PAULI,
    Split,
    Trajectory,
    cascade_measure,
    kraus_apply,
    pauli_six_measure,
    sliced_master,
    tetrahedron_measure,
)
from qtomo import io as qio
from support import random_complex, random_density, random_kraus


class TestComplexAndMatrix:
    def test_complex_round_trip(self):
        z = 0.1 - 2.7j
        assert qio.json_to_complex(qio.complex_to_json(z)) == z

    def test_plain_number_accepted(self):
        assert qio.json_to_complex(1.5) == 1.5 + 0.0j

    def test_bad_payload_rejected(self):
        with pytest.raises(ContractViolation):
            qio.json_to_complex([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("payload", [True, False, [True, 0.0], [0.0, False]])
    def test_booleans_are_not_numbers(self, payload):
        with pytest.raises(ContractViolation, match="cannot parse"):
            qio.json_to_complex(payload)
        with pytest.raises(ContractViolation, match="cannot parse"):
            qio.matrix_from_json([[payload, [0, 1]]])

    def test_matrix_round_trip_exact(self):
        rng = np.random.default_rng(130)
        m = random_complex((3, 3), rng)
        assert np.array_equal(qio.matrix_from_json(qio.matrix_to_json(m)), m)

    def test_matrix_is_encoded_as_pair_array(self):
        enc = qio.matrix_to_json(np.array([[1 + 2j, -0.5j, 3.0]]))
        assert enc.dtype == np.float64 and enc.shape == (1, 3, 2)
        assert enc.tolist() == [[[1.0, 2.0], [0.0, -0.5], [3.0, 0.0]]]

    def test_rows_may_mix_numbers_and_pairs(self):
        m = qio.matrix_from_json([[0.5, [0.0, -0.25]], [[0.0, 0.25], 1]])
        assert np.array_equal(m, np.array([[0.5, -0.25j], [0.25j, 1.0]]))

    @pytest.mark.parametrize("obj", [[[1, 0], [0]], [1, 0], [], [[1, 0], 0]],
                             ids=["ragged", "flat", "empty", "scalar-row"])
    def test_malformed_matrix_rejected(self, obj):
        with pytest.raises(ContractViolation):
            qio.matrix_from_json(obj)

    def test_canonical_text_round_trips_exactly(self):
        rng = np.random.default_rng(131)
        m = random_complex((2, 2), rng)
        text = qio.canonical_json(qio.matrix_to_json(m))
        back = qio.matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)


def _per_entry_matrix(obj):
    """The reference decoder: one json_to_complex call per entry of equally long rows."""
    if not isinstance(obj, list) or not obj or not all(isinstance(row, list) for row in obj):
        raise ContractViolation("matrix must be a nonempty array of rows")
    widths = {len(row) for row in obj}
    if len(widths) != 1:
        raise ContractViolation(f"matrix rows differ in length: {sorted(widths)}")
    return np.array([[qio.json_to_complex(x) for x in row] for row in obj], dtype=complex)


def _decoded(parse, obj):
    """What parse makes of obj: the matrix's dtype, shape and bytes, or the error message."""
    try:
        m = parse(obj)
    except ContractViolation as err:
        return str(err)
    return m.dtype, m.shape, m.tobytes()


_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-2 ** 66, 2 ** 66),
    st.sampled_from([2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1,
                     2 ** 64, 10 ** 400, -10 ** 400]),
)
_ODD = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                 st.lists(_NUMBERS, max_size=3), st.dictionaries(st.text(max_size=1), _NUMBERS,
                                                                 max_size=1))


@st.composite
def _nested_matrices(draw):
    """Rows of numbers, of [re, im] pairs, or of both, now and then ragged or with odd entries;
    one draw in eight is no array of rows at all."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_ODD | st.lists(_ODD | _NUMBERS, max_size=3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    pair = st.lists(_NUMBERS, min_size=2, max_size=2)
    entry = draw(st.sampled_from([_NUMBERS, pair, pair, _NUMBERS | pair]))
    odd = draw(st.sampled_from([st.nothing(), st.nothing(), _ODD]))
    width = st.integers(0, 3) if draw(st.integers(0, 4)) == 0 else st.just(cols)
    return [draw(st.lists(entry | odd, min_size=n, max_size=n)) for n in
            (draw(width) for _ in range(rows))]


class TestMatrixDecoder:
    @settings(max_examples=400, deadline=None)
    @given(_nested_matrices())
    @example([[True, 0.5]])
    @example([[[0.5, True], [0, 1]]])
    @example([[[-0.0, -0.0], [1, float("inf")]]])
    @example([[1, [0.0, -0.0]], [[-0.0, 2], 3]])
    @example([[0.5, 10 ** 400]])
    @example([[2 ** 63, -1]])
    @example([[]])
    def test_equals_the_per_entry_decoder(self, obj):
        assert _decoded(qio.matrix_from_json, obj) == _decoded(_per_entry_matrix, obj)


class TestDocuments:
    def test_density_round_trip(self):
        rng = np.random.default_rng(132)
        rho = random_density(3, rng)
        assert np.array_equal(qio.density_from_json(qio.density_to_json(rho)), rho)

    def test_density_dim_mismatch(self):
        doc = qio.density_to_json(np.eye(2))
        doc["dim"] = 3
        with pytest.raises(ContractViolation):
            qio.density_from_json(doc)

    @pytest.mark.parametrize("parse, doc", [
        (qio.density_from_json, 5),
        (qio.density_from_json, {"matrix": [[1, 0], [0, 0]], "dim": "x"}),
        (qio.density_from_json, {"matrix": [[1, 0], [0, 0]], "dim": 2.5}),
        (qio.measure_from_json, {"elements": 5}),
        (qio.measure_from_json, "elements"),
        (qio.channel_from_json, {"kraus": 5}),
        (qio.channel_from_json, {"kraus": []}),
        (qio.instrument_from_json, {"branches": {"kraus": []}}),
        (qio.network_from_json, {"split": [{"leaf": {"jones": [[1]]}}]}),
        (qio.network_from_json, {"leaf": 5}),
        (qio.model_from_json, {"H": [[1]], "rho0": [[1]], "hbar": "1"}),
        (qio.model_from_json, {"H": [[1]], "rho0": [[1]], "lindblad": {"L": [[[1]]], "gamma": ["x"]}}),
        (qio.model_from_json, {"H": [[1]], "rho0": [[1]], "lindblad": [1]}),
        (qio.hamiltonian_from_json, [[1]]),
        (qio.hamiltonian_from_json, {"H": [[1]], "hbar": True}),
        (qio.selfcal_from_json, {"outputs": [[[[1]]], 5], "init_filters": [], "init_sources": []}),
        (qio.selfcal_from_json, {"outputs": [[[[1]]], [[[1]], [[1]]]], "init_filters": [],
                                 "init_sources": []}),
        (qio.selfcal_from_json, {"outputs": [[[[1]]]], "init_filters": {}, "init_sources": []}),
    ], ids=["scalar", "string-dim", "fractional-dim", "scalar-elements",
            "string-measure", "scalar-kraus", "empty-kraus", "object-branches",
            "one-child-split", "scalar-leaf", "string-hbar", "string-gamma", "array-lindblad",
            "array-hamiltonian", "boolean-hbar", "scalar-selfcal-row", "ragged-selfcal-grid",
            "object-selfcal-filters"])
    def test_wrong_types_rejected(self, parse, doc):
        with pytest.raises(ContractViolation):
            parse(doc)

    def test_measure_round_trip_with_scale(self):
        m = tetrahedron_measure()
        doc = qio.measure_to_json(m, np.arange(1.0, 5.0))
        back, scale = qio.measure_from_json(doc)
        assert np.array_equal(back.elements, m.elements)
        assert np.array_equal(scale[:, 0], np.arange(1.0, 5.0))

    def test_detector_requires_scale(self):
        with pytest.raises(ContractViolation):
            qio.detector_from_json(qio.measure_to_json(pauli_six_measure()))

    def test_channel_kraus_round_trip(self):
        rng = np.random.default_rng(133)
        ops = random_kraus(2, 2, rng)
        back = qio.channel_from_json(qio.channel_to_json(ops))
        assert all(np.array_equal(a, b) for a, b in zip(back, ops))

    def test_channel_choi_normalized_to_kraus(self):
        from qtomo import choi_transform, superop_from_kraus

        rng = np.random.default_rng(134)
        ops = random_kraus(2, 2, rng)
        choi = choi_transform(superop_from_kraus(ops))
        doc = {"dim": 2, "choi": qio.matrix_to_json(choi)}
        back = qio.channel_from_json(doc)
        rho = random_density(2, rng)
        assert np.max(np.abs(kraus_apply(back, rho) - kraus_apply(ops, rho))) <= 1e-10

    def test_channel_requires_kraus_or_choi(self):
        with pytest.raises(ContractViolation):
            qio.channel_from_json({"dim": 2})

    def test_instrument_round_trip(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        inst = Instrument(((p0,), (p1,)))
        back = qio.instrument_from_json(qio.instrument_to_json(inst))
        assert len(back) == 2
        assert np.array_equal(back.branches[0][0], p0)

    def test_network_round_trip(self):
        net = Split(Leaf(np.eye(2)), Split(Leaf(0.5 * np.eye(2)), Leaf(PAULI[1])))
        back = qio.network_from_json(qio.network_to_json(net))
        m1 = cascade_measure(net)
        m2 = cascade_measure(back)
        assert np.array_equal(m1.elements, m2.elements)

    def test_model_round_trip(self):
        doc = {
            "H": qio.matrix_to_json(PAULI[3]),
            "rho0": qio.matrix_to_json(np.diag([1.0, 0.0])),
            "hbar": 2.0,
            "lindblad": {"L": [qio.matrix_to_json(PAULI[1])], "gamma": [0.5]},
        }
        model, rho0 = qio.model_from_json(doc)
        assert model.hbar == 2.0
        assert model.rates == (0.5,)
        assert model.V is None
        assert np.array_equal(model.H, PAULI[3])
        assert np.array_equal(rho0, np.diag([1.0, 0.0]))
        doc["V"] = qio.matrix_to_json(0.5 * np.eye(2))
        del doc["lindblad"]
        model, _ = qio.model_from_json(doc)
        assert np.array_equal(model.V, 0.5 * np.eye(2))
        assert model.jump_ops == () and model.rates == ()

    def test_hamiltonian_document(self):
        h, hbar = qio.hamiltonian_from_json({"H": qio.matrix_to_json(PAULI[3]), "hbar": 2})
        assert np.array_equal(h, PAULI[3]) and hbar == 2.0
        h, hbar = qio.hamiltonian_from_json({"matrix": [[1, 0], [0, 2]]})
        assert np.array_equal(h, np.diag([1.0, 2.0])) and hbar == 1.0

    def test_selfcal_document(self):
        outputs, filters, sources = qio.selfcal_from_json({
            "outputs": [[qio.matrix_to_json(np.eye(2) * (k + l)) for l in range(3)]
                        for k in range(2)],
            "init_filters": [qio.matrix_to_json(np.eye(4))] * 2,
            "init_sources": [[[1, 0], [0, 0]]] * 3,
        })
        assert outputs.shape == (2, 3, 2, 2) and outputs.dtype == complex
        assert np.array_equal(outputs[1, 2], 3 * np.eye(2))
        assert len(filters) == 2 and len(sources) == 3
        assert np.array_equal(sources[0], np.diag([1.0, 0.0]))

    def test_model_rho0_dim_mismatch(self):
        doc = {"H": qio.matrix_to_json(PAULI[3]), "rho0": qio.matrix_to_json(np.eye(3) / 3)}
        with pytest.raises(ContractViolation):
            qio.model_from_json(doc)

    def test_trajectory_serialization(self):
        traj = sliced_master(LindbladModel(np.zeros((2, 2))), np.diag([0.5, 0.5]), 0.5, 2)
        doc = qio.trajectory_to_json(traj)
        assert [snap["t"] for snap in doc] == [0.0, 0.5, 1.0]
        assert np.array_equal(qio.matrix_from_json(doc[0]["matrix"]), np.diag([0.5, 0.5]))


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = qio.canonical_json({"b": 1.0 / 3.0, "a": 1})
        assert text.startswith('{"a":1,')
        assert "0.33333333333333331" in text

    def test_idempotent_write(self):
        doc = {"x": [0.1, 0.2, [1.5, -2.5]], "name": "run"}
        once = qio.canonical_json(doc)
        assert qio.canonical_json(json.loads(once)) == once

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            qio.canonical_json({"x": float("nan")})

    def test_atomic_write(self, tmp_path):
        path = tmp_path / "out" / "doc.json"
        qio.write_json_atomic(str(path), {"k": 1.25})
        assert path.read_text() == '{"k":1.25}\n'
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["doc.json"]

    def test_non_finite_write_leaves_no_file(self, tmp_path):
        with pytest.raises(ContractViolation):
            qio.write_json_atomic(str(tmp_path / "doc.json"), {"x": np.array([0.5, np.inf])})
        assert list(tmp_path.iterdir()) == []

    def test_write_streams_the_text(self, tmp_path):
        # a d = 16, 201-state trajectory (2.4 MB of text): the write holds the printed pieces
        # and the printer's fixed scratch, never the joined text or its encoded copy
        rng = np.random.default_rng(23)
        states = random_complex((201, 16, 16), rng) / 64
        doc = qio.trajectory_to_json(Trajectory(0.01 * np.arange(201), states))
        path = tmp_path / "traj.json"
        qio.write_json_atomic(str(path), doc)  # the printer's tables are built once, here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            qio.write_json_atomic(str(path), doc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert path.read_bytes() == qio.canonical_json(doc).encode("ascii") + b"\n"
        assert peak <= 1.5 * size


def _per_element(a):
    """Reference writer: one f-string per float, recursing over the leading axis."""
    if np.ndim(a) == 0:
        return f"{float(a):.17g}"
    return "[" + ",".join(_per_element(x) for x in a) + "]"


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5)


_FLOAT_ARRAYS = st.sampled_from([np.float64, np.float32]).flatmap(lambda dtype: hnp.arrays(
    dtype, _SHAPES, elements=st.floats(width=np.dtype(dtype).itemsize * 8,
                                       allow_nan=False, allow_infinity=False)))


_TINY, _MAX = np.nextafter(0.0, 1.0), np.finfo(np.float64).max


class TestCanonicalArrays:
    """The writer formats a float array in one call; it must print what one call per float does."""

    @settings(max_examples=300, deadline=None)
    @given(_FLOAT_ARRAYS)
    @example(np.array(-0.0))
    @example(np.array(_MAX))
    @example(np.zeros((0,)))
    @example(np.zeros((3, 0, 2)))
    @example(np.array([[-0.0, _TINY, -_TINY], [2.2250738585072014e-308 / 3, _MAX, -_MAX]]))
    @example(np.arange(6.0).reshape(2, 3).T)
    @example(np.array([2.0 ** 53, 1e16, 1e17, 0.1, 1.0 / 3.0], dtype=np.float32))
    def test_bulk_branch_matches_per_element_oracle(self, a):
        assert qio.canonical_json(a) == _per_element(a)
        assert qio.canonical_json({"a": [a]}) == '{"a":[' + _per_element(a) + "]}"

    @settings(max_examples=100, deadline=None)
    @given(_FLOAT_ARRAYS.filter(lambda a: a.size > 0), st.data(),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_anywhere_rejected(self, a, data, bad):
        a = a.copy()
        a.flat[data.draw(st.integers(0, a.size - 1))] = bad
        with pytest.raises(ContractViolation):
            qio.canonical_json({"x": [1, a]})

    # A negative zero prints as "-0", which reads back as the integer 0 and re-prints as "0",
    # so the documents below hold no -0.0; the oracle test above covers how it is printed.
    _finite = st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: x != 0 or np.copysign(1.0, x) > 0)
    _documents = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text() | _finite
        | hnp.arrays(np.float64, _SHAPES, elements=_finite),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12)

    @settings(max_examples=200, deadline=None)
    @given(_documents)
    def test_write_read_write_idempotent(self, doc):
        once = qio.canonical_json(doc)
        assert qio.canonical_json(json.loads(once)) == once


def _oracle(values):
    """The per-element '%.17g' text of a 1-D array, as canonical_json should print it."""
    return "[" + ",".join("%.17g" % x for x in np.asarray(values, dtype=np.float64).tolist()) + "]"


def _ties(rng, count):
    """Doubles exactly halfway between two 17-digit decimals: m/4 and m/8 for odd m."""
    quarters = (rng.integers(4 * 10 ** 15, 9 * 10 ** 15, count) | 1) / 4.0
    eighths = (rng.integers(8 * 10 ** 14, 8 * 10 ** 15, count) | 1) / 8.0
    return np.concatenate([quarters, eighths])


class TestExactDigits:
    """The vectorised printer against one '%.17g' per float, where rounding is hardest."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(150).integers(0, 2 ** 64, 1_100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert values.size >= 10 ** 6
        assert qio.canonical_json(values) == _oracle(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
        values = np.concatenate([powers, below, above, np.nextafter(below, 0.0),
                                 np.nextafter(above, np.inf)])
        values = np.concatenate([values, -values])
        assert qio.canonical_json(values) == _oracle(values)

    def test_subnormals_zeros_and_float32(self):
        rng = np.random.default_rng(151)
        subnormal = rng.integers(1, 2 ** 52, 20000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([subnormal, -subnormal, [0.0, -0.0, 5e-324, -5e-324,
                                                         2.2250738585072009e-308]])
        assert qio.canonical_json(values) == _oracle(values)
        singles = (rng.normal(size=20000) * 10.0 ** rng.integers(-45, 39, 20000)).astype(np.float32)
        singles = np.concatenate([singles[np.isfinite(singles)],
                                  np.array([0.1, 1e-45, 3.4028235e38, -0.0], dtype=np.float32)])
        assert qio.canonical_json(singles) == _oracle(singles)

    def test_exact_ties_round_half_even_through_the_fallback(self, monkeypatch):
        from qtomo import _floattext

        uncertified = []
        significands = _floattext._significands

        def spy(v):
            digits, exponent, exact = significands(v)
            uncertified.append(int(np.count_nonzero(~exact)))
            return digits, exponent, exact

        monkeypatch.setattr(_floattext, "_significands", spy)
        ties = _ties(np.random.default_rng(152), 100_000)
        assert qio.canonical_json(ties) == _oracle(ties)
        assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"  # half-even
        # the fast path certified none of them: every tie went to '%.17g'
        assert sum(uncertified) == ties.size
