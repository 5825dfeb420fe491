"""One Hermiticity and PSD rule, ops.require_hermitian: every module and command judges an
operator by it, relative to the operator's scale, so a verdict does not depend on units."""

import ast
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qtomo import (ContractViolation, Instrument, Leaf, LindbladModel, cascade_measure,
                   choi_transform, classify_filter, is_completely_positive, kraus_from_choi,
                   robertson_check, rydberg_ritz_lines)
from qtomo.ops import TOL_HERM, TOL_PSD, hermitian_defect, min_eigenvalue, require_hermitian
from qtomo.ops import validate_density
from support import run_cli

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "qtomo")
_JUDGES = {"hermitian_defect", "min_eigenvalue"}


def _judge_calls(node, bound=frozenset()):
    """Whether the expression holds a call to hermitian_defect or min_eigenvalue, or loads one of
    the names bound to such a call."""
    return any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) in _JUDGES
                                            or getattr(n.func, "attr", None) in _JUDGES)
               or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in bound
               for n in ast.walk(node))


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module or function body, without those of the functions it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _literal(node):
    """Whether the expression is a numeric literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def scattered_thresholds(directory):
    """file:line of each comparison in directory/*.py, ops.py aside, that sets a call to
    hermitian_defect or min_eigenvalue, or a name the same function binds to one, against a
    numeric literal."""
    found = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".py") or name == "ops.py":
            continue
        with open(os.path.join(directory, name)) as handle:
            tree = ast.parse(handle.read())
        lines = []
        for scope in ast.walk(tree):
            if not isinstance(scope, _SCOPES):
                continue
            nodes = list(_own_nodes(scope))
            bound = frozenset(n.id for node in nodes if isinstance(node, ast.Assign)
                              and _judge_calls(node.value) for target in node.targets
                              for n in ast.walk(target) if isinstance(n, ast.Name))
            for node in nodes:
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(_judge_calls(a, bound) and _literal(b)
                           or _literal(a) and _judge_calls(b, bound)
                           for a, b in zip(sides, sides[1:])):
                        lines.append(node.lineno)
        found += [f"{name}:{line}" for line in sorted(lines)]
    return found


def test_no_module_judges_an_operator_by_its_own_literal():
    assert scattered_thresholds(SRC) == []


@pytest.mark.parametrize("source, found", [
    ("if hermitian_defect(h) > 1e-9:\n    pass\n", ["m.py:1"]),
    ("ok = -1e-9 <= ops.min_eigenvalue(v)\n", ["m.py:1"]),
    ("ok = float(hermitian_defect(h).max()) <= tol\n", []),
    ("ok = abs(x) > 1e-9\n", []),
    ("def f(v):\n    low = min_eigenvalue(v)\n    if low < -1e-10:\n        pass\n", ["m.py:3"]),
    ("def f(v):\n    low = min_eigenvalue(v)\n\ndef g(low):\n    return low < -1e-10\n", []),
])
def test_the_ratchet_sees_a_literal_on_either_side(tmp_path, source, found):
    (tmp_path / "m.py").write_text(source)
    (tmp_path / "ops.py").write_text("bad = hermitian_defect(h) > 1e-9\n")
    assert scattered_thresholds(str(tmp_path)) == found


def _verdict(call):
    """The message of the ContractViolation call() raises, else None."""
    try:
        call()
    except ContractViolation as err:
        return str(err)
    return None


def _entries(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def _operators(draw):
    """A d x d operator with units: G G* - eps m 1 + delta E, with G of rank d - 1 (its least
    eigenvalue is zero), m the max-norm of G G* and E a random matrix, so that its Hermitian and
    PSD defects, relative to its max-norm, are about delta and eps, from 1e-17 to 1."""
    d = draw(st.integers(2, 4))
    parts = draw(hnp.arrays(float, (2, d, d - 1), elements=_entries(-1.0, 1.0)))
    g = parts[0] + 1j * parts[1]
    p = g @ g.conj().T
    assume(np.abs(p).max() > 1e-3)
    eps = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(_entries(-17.0, 0.0))
    delta = 10.0 ** draw(_entries(-17.0, 0.0)) * draw(st.sampled_from([0.0, 1.0]))
    noise = draw(hnp.arrays(float, (2, d, d), elements=_entries(-1.0, 1.0)))
    return p - eps * np.abs(p).max() * np.eye(d) + delta * (noise[0] + 1j * noise[1])


def _verdicts(a):
    """The verdict of each check that takes an operator with units, on the operator a."""
    d = len(a)
    zero, rho, other = np.zeros((d, d)), np.eye(d) / d, np.diag(np.arange(d, dtype=float))
    return {
        "ops": _verdict(lambda: require_hermitian(a, "A", TOL_HERM, TOL_PSD)),
        "H": _verdict(lambda: LindbladModel(a)),
        "V": _verdict(lambda: LindbladModel(zero, V=a)),
        "lines": _verdict(lambda: rydberg_ritz_lines(a)),
        "robertson": _verdict(lambda: robertson_check(rho, a, other)),
    }


class TestScaleCovariance:
    @settings(max_examples=150, deadline=None)
    @given(_operators(), st.integers(-100, 100))
    def test_a_power_of_two_changes_no_verdict(self, a, k):
        assert _verdicts(2.0 ** k * a) == _verdicts(a)

    @settings(max_examples=150, deadline=None)
    @given(_operators(), _entries(1.0, 10.0), st.integers(-30, 29))
    def test_a_decimal_scale_changes_no_verdict_away_from_the_threshold(self, a, mantissa, exp):
        norm = np.abs(a).max()
        herm, psd = hermitian_defect(a) / norm, -min_eigenvalue(a) / norm
        assume(not TOL_HERM / 10 < herm < 10 * TOL_HERM)
        assume(not TOL_PSD / 10 < psd < 10 * TOL_PSD)
        refused = {check: message is not None for check, message in _verdicts(a).items()}
        assert {check: message is not None for check, message in
                _verdicts(mantissa * 10.0 ** exp * a).items()} == refused

    def test_the_same_hamiltonian_in_joules_and_in_units_of_hbar_omega(self):
        hbar, omega = 1.054571817e-34, 2.0e11
        h = np.array([[1.0, 0.3 - 0.1j], [0.3 + 0.1j, -1.0]])
        h[0, 1] += 1e-13  # a relative defect of 1e-13, below --tol-herm
        for scale in (1.0, hbar * omega):
            LindbladModel(scale * h, hbar=scale)
        h[0, 1] += 1e-6
        for scale in (1.0, hbar * omega):
            with pytest.raises(ContractViolation, match="H: Hermitian defect 1.000e-06"):
                LindbladModel(scale * h, hbar=scale)


def test_a_model_passed_by_looser_tolerances_copies_and_pickles():
    import copy
    import pickle

    h = np.array([[2.0, 1.0], [1.0 + 2e-6, -2.0]])  # relative defect 1e-6
    model = LindbladModel(h, V=np.diag([1.0, -1e-6]), tol_herm=1e-5, tol_psd=1e-5)
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert np.array_equal(twin.H, model.H) and np.array_equal(twin.V, model.V)


class TestOneRuleForStates:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, (2, 3, 3), elements=_entries(-1.0, 1.0)), st.integers(-12, 12),
           st.sampled_from([0.0, 1e-12, 1e-10, 1e-6]), st.sampled_from([0.0, 1e-9, 1e-3]),
           st.sampled_from([0.0, 1e-13, 1e-10, 1e-7]))
    def test_validate_density_agrees_with_the_check(self, parts, exp, tol_herm, tol_psd, defect):
        g = parts[0] + 1j * parts[1]
        rho = 10.0 ** exp * (g @ g.conj().T - 0.1 * np.eye(3))
        rho[0, 1] += defect * 10.0 ** exp
        ok = _verdict(lambda: require_hermitian(rho, "rho", tol_herm, tol_psd,
                                                dimensionless=True)) is None
        assert validate_density(rho, tol_herm, tol_psd).ok == ok

    def test_a_state_is_judged_relative_to_its_trace_above_one(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = 2e-10
        message = "^rho: Hermitian defect 2.000e-10 exceeds --tol-herm 1e-10$"
        for intensity in (1.0, 4.0, 1e6):  # the same defect relative to the trace
            with pytest.raises(ContractViolation, match=message):
                require_hermitian(intensity * rho, "rho", dimensionless=True)
        # at trace 1/4 the scale is 1: an absolute defect of 5e-11, within --tol-herm
        assert validate_density(rho / 4).ok and not validate_density(rho).ok

    def test_the_first_offender_of_a_stack_is_named(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ContractViolation, match="^b: PSD defect 1.000e\\+00 exceeds "
                                                    "--tol-psd 0.5$"):
            require_hermitian(stack, ["a", "b", "c"], 1.0, 0.5)
        with pytest.raises(ContractViolation, match="^c: Hermitian defect 1.000e\\+00"):
            require_hermitian(stack, ["a", "b", "c"])


def _bypassed_leaf(t):
    """A Leaf holding t without the constructor's passivity check."""
    leaf = object.__new__(Leaf)
    object.__setattr__(leaf, "jones", t)
    return leaf


_DIAGONAL = np.array([[[1.0, 0.0], [0.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]])


class TestOnePassivityRule:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, (2, 2, 2), elements=_entries(-1.0, 1.0)), _entries(-1e-8, 1e-8))
    @example(_DIAGONAL, 5e-10)
    @example(_DIAGONAL, 4e-9)
    def test_leaf_filter_instrument_and_cascade_agree(self, parts, excess):
        # T is scaled so that the largest eigenvalue of T*T is 1 + excess
        g = parts[0] + 1j * parts[1]
        norm = np.linalg.norm(g, 2)
        assume(norm > 1e-3)
        t = g * (np.sqrt(1.0 + excess) / norm)
        verdicts = {
            "leaf": _verdict(lambda: Leaf(t)) is None,
            "filter": classify_filter([t]).passive,
            "instrument": _verdict(lambda: Instrument(((t,),)).null_kraus()) is None,
            "cascade": _verdict(lambda: cascade_measure(_bypassed_leaf(t))) is None,
        }
        assert len(set(verdicts.values())) == 1, (excess, verdicts)
        if abs(excess) > 2 * TOL_PSD:  # away from the bound, the verdict is the sign
            assert verdicts["leaf"] == (excess < 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.1, 1.0, 10.0, 1e3]),
           st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 1e-11, 1e-9]))
    def test_complete_positivity_is_the_check_of_the_choi_matrix(self, seed, scale, low,
                                                                 defect):
        # a Choi matrix of trace about 2 * scale whose least eigenvalue is -low * 1e-9 of it
        rng = np.random.default_rng(seed)
        spectrum = scale * rng.uniform(0.1, 1.0, 4)
        spectrum[0] = -low * TOL_PSD * max(spectrum[1:].sum(), 1.0)
        q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        choi = (q * spectrum) @ q.conj().T
        choi[0, 1] += defect * max(spectrum.sum(), 1.0)
        accepted = _verdict(lambda: require_hermitian(choi, "C", TOL_HERM, TOL_PSD,
                                                      dimensionless=True)) is None
        assert is_completely_positive(choi_transform(choi)).cp == accepted
        message = _verdict(lambda: kraus_from_choi(choi))
        assert (message is None) == accepted
        assert accepted or message.startswith("not completely positive: Choi matrix: ")


def _write(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return str(path)


def _error(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        return json.load(handle)["error"]


def _dynamics(model, out, *options):
    return run_cli([*options, "dynamics", model, "--t", "0.5", "--dt", "0.1", "--method",
                    "slice", "--out", os.path.join(out, "t.json")])


class TestCommandsReachTheCheck:
    def test_a_hamiltonian_in_si_units_that_is_not_hermitian_exits_2(self, tmp_path):
        model = _write(tmp_path / "si.json", {"H": [[1e-22, 1e-22], [0, -1e-22]],
                                              "rho0": [[1, 0], [0, 0]], "hbar": 1.054571817e-34})
        result = _dynamics(model, str(tmp_path / "run"))
        assert result.exit_code == 2, result.output
        assert json.loads(result.stderr)["error"]["message"] == (
            f"{model}: H: Hermitian defect 1.000e+00 exceeds --tol-herm 1e-10")

    def test_a_large_hamiltonian_one_ulp_off_its_adjoint_runs(self, tmp_path):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 4))
        h = 1e12 * (g + g.T)
        h[0, 1] = np.nextafter(h[0, 1], math.inf)
        model = _write(tmp_path / "big.json", {"H": h.tolist(), "rho0": np.diag([1.0, 0, 0, 0])
                                               .tolist()})
        result = _dynamics(model, str(tmp_path / "run"))
        assert result.exit_code == 0, result.output
        with open(tmp_path / "run" / "t.json") as handle:
            assert len(json.load(handle)) == 6
        assert _error(tmp_path / "run") is None

    def test_report_lines_refuses_what_dynamics_refuses(self, tmp_path):
        ham = _write(tmp_path / "h.json", {"H": [[1, 5], [0, -1]]})
        result = run_cli(["report", "lines", ham, "--out", str(tmp_path / "run" / "l.json")])
        assert result.exit_code == 2, result.output
        assert _error(tmp_path / "run")["message"] == (
            f"{ham}: H: Hermitian defect 1.000e+00 exceeds --tol-herm 1e-10")
        assert not (tmp_path / "run" / "l.json").exists()

    def test_tol_herm_reaches_dynamics_and_report_lines(self, tmp_path):
        h = np.array([[2.0, 1.0], [1.0 + 2e-6, -2.0]])  # relative defect 1e-6
        model = _write(tmp_path / "m.json", {"H": h.tolist(), "rho0": [[1, 0], [0, 0]]})
        ham = _write(tmp_path / "h.json", {"H": h.tolist()})
        for tol, code in ((None, 2), ("1e-5", 0)):
            options = ["--tol-herm", tol] if tol else []
            out = str(tmp_path / f"run-{tol}")
            assert _dynamics(model, os.path.join(out, "d"), *options).exit_code == code
            result = run_cli([*options, "report", "lines", ham, "--out",
                              os.path.join(out, "r", "l.json")])
            assert result.exit_code == code, result.output
            for command in ("d", "r"):
                error = _error(os.path.join(out, command))
                assert error is None if code == 0 else error["message"] == (
                    f"{model if command == 'd' else ham}: H: Hermitian defect 1.000e-06 "
                    "exceeds --tol-herm 1e-10")

    def test_tol_psd_reaches_the_dissipative_potential(self, tmp_path):
        v = np.diag([3.0, -3e-6])  # least eigenvalue -1e-6 of the max-norm
        model = _write(tmp_path / "m.json", {"H": [[1, 0], [0, 0]], "V": v.tolist(),
                                             "rho0": [[1, 0], [0, 0]]})
        result = _dynamics(model, str(tmp_path / "default"))
        assert result.exit_code == 2, result.output
        assert _error(tmp_path / "default")["message"] == (
            f"{model}: V: PSD defect 1.000e-06 exceeds --tol-psd 1e-09")
        result = _dynamics(model, str(tmp_path / "loose"), "--tol-psd", "1e-5")
        assert result.exit_code == 0, result.output

    def test_report_uncertainty_checks_its_source_and_detector(self, tmp_path):
        detector = {"elements": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "scale": [1, -1]}
        source = _write(tmp_path / "s.json", {"matrix": [[1.5, 0], [0, -0.5]]})
        result = run_cli(["report", "uncertainty", source, _write(tmp_path / "d.json", detector),
                          "--out", str(tmp_path / "a" / "u.json")])
        assert result.exit_code == 2, result.output
        assert _error(tmp_path / "a")["message"] == (
            f"{source}: PSD defect 5.000e-01 exceeds --tol-psd 1e-09")
        detector["elements"][1] = [[0, 0], [0, -0.5]]
        bad = _write(tmp_path / "d2.json", detector)
        source = _write(tmp_path / "s2.json", {"matrix": [[0.5, 0], [0, 0.5]]})
        result = run_cli(["report", "uncertainty", source, bad, "--out",
                          str(tmp_path / "b" / "u.json")])
        assert result.exit_code == 2, result.output
        assert _error(tmp_path / "b")["message"] == (
            f"{bad}: element 1: PSD defect 5.000e-01 exceeds --tol-psd 1e-09")
