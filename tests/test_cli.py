"""Command-line interface: output shapes, round trips, and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilapsym.cli as cli
from bilapsym import cktsolve
from bilapsym.ambient import lie_to_ckv
from bilapsym.exactpoly import MAX_DIMENSION
from bilapsym.symalg import canonical_DV, dilation_element
from bilapsym.tensorcalc import SymTensorField
from bilapsym.weylop import DiffOp


def _dv_symbol(term: str) -> str:
    """A one-component vector symbol file whose single term is ``term``."""
    return '{"n": 3, "valency": 1, "components": {"1": [%s]}}' % term


def _pair_symbol(value: str, key: str = "0,1") -> str:
    """A one-pair tensor symbol file at n = 3 with one component ``value``
    at ``key``."""
    return '{"n": 3, "pair_count": 1, "components": {"%s": %s}}' % (key, value)


def _tensor_symbol(pair_count: int, n: int = 3) -> str:
    """A pair tensor symbol file with one unit component."""
    key = ",".join(map(str, [0, 1, 1, 2, 2, 3][: 2 * pair_count]))
    return json.dumps({"n": n, "pair_count": pair_count, "components": {key: 1}})


def _scalar_symbol(valency: int, n: int = 3, key: str | None = None) -> str:
    """A symmetric ambient tensor symbol file with one unit component."""
    key = ",".join(["3"] * valency) if key is None else key
    return json.dumps({"n": n, "valency": valency, "components": {key: 1}})


def _field_symbol(valency: int) -> str:
    """A symmetric tensor field symbol file with one constant component."""
    return json.dumps(SymTensorField(3, valency, {(1,) * valency: 1}).to_json_obj())


class TestDims:
    def test_ckt_json_payload(self, tmp_path):
        out = tmp_path / "dims.json"
        code = cli.main(
            ["dims", "--kind", "ckt", "--s", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dimension"] == 10
        assert payload["stabilized"] is True
        assert payload["by_degree"] == {"0": 3, "1": 4, "2": 3}

    def test_gckt_text_output(self, capsys):
        code = cli.main(["dims", "--kind", "gckt", "--t", "0"])
        assert code == 0
        text = capsys.readouterr().out
        assert "dimension: 14" in text

    @pytest.mark.parametrize(
        "kind, payload",
        [("ckt", {"s": 1, "dimension": 10}), ("gckt", {"t": 0, "dimension": 14}),
         ("symmetries", {"order": 1, "dimension": 11})],
    )
    def test_unset_valency_reads_as_default(self, tmp_path, kind, payload):
        out = tmp_path / "d.json"
        assert cli.main(["dims", "--kind", kind, "--format", "json", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert {key: got[key] for key in payload} == payload

    def test_symmetries_includes_closed_form(self, tmp_path):
        out = tmp_path / "d.json"
        code = cli.main(
            [
                "dims",
                "--kind",
                "symmetries",
                "--s",
                "2",
                "--degree-bound",
                "4",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dimension"] == 60
        assert payload["closed_form"] == 60


class TestBasis:
    def test_basis_emits_elements(self, tmp_path):
        out = tmp_path / "basis.json"
        code = cli.main(
            ["basis", "--kind", "ckt", "--s", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["elements"]) == 10


class TestBuildOp:
    def test_dv_round_trip(self, tmp_path):
        field = lie_to_ckv(dilation_element(3))
        symbol = tmp_path / "symbol.json"
        symbol.write_text(json.dumps(field.to_json_obj()))
        out = tmp_path / "op.json"
        code = cli.main(
            [
                "build-op",
                "--kind",
                "dv",
                "--w",
                "1/2",
                "--format",
                "json",
                "--out",
                str(out),
                str(symbol),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        rebuilt = DiffOp.from_json_obj(payload["operator"])
        assert rebuilt == canonical_DV(field, Fraction(1, 2))

    def test_builtin_operators_need_no_symbol(self, capsys):
        assert cli.main(["build-op", "--kind", "bilaplacian"]) == 0
        text = capsys.readouterr().out
        assert "d1^4" in text.replace(" ", "") or "d1" in text


class TestVerify:
    def test_single_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main(
            [
                "verify",
                "--suite",
                "ambient-identities",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert all(row["ok"] and row["cases"] and not row["failed"] for row in payload["checks"])

    def test_weight_override_reaches_suite(self, capsys):
        code = cli.main(
            ["verify", "--suite", "composition-identity", "--w", "1/7"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("summand-behavior", "--w", "1/7"),
            ("quartic-obstruction", "--w", "1/7"),
            ("ambient-identities", "--seed", "3"),
            ("composition-identity", "--seed", "0"),
        ],
    )
    def test_flag_the_suite_ignores_exit_two(self, capsys, suite, flag, value):
        code = cli.main(["verify", "--suite", suite, flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} has no effect on suite {suite}")
        assert captured.out == ""

    def test_flags_reach_all_suites(self, capsys, monkeypatch):
        seen = {}

        def record(name):
            def suite(n, seed, weight):
                seen[name] = (seed, weight)
                yield "recorded", f"n={n}", True

            return suite

        for name in list(cli.SUITES):
            monkeypatch.setitem(cli.SUITES, name, record(name))
        code = cli.main(["verify", "--suite", "all", "--w", "1/7", "--seed", "3"])
        assert code == 0
        assert seen == {name: (3, Fraction(1, 7)) for name in cli.SUITES}

    def test_seed_defaults_to_zero(self, monkeypatch):
        seen = []

        def suite(n, seed, weight):
            seen.append(seed)
            yield "recorded", f"seed={seed}", True

        monkeypatch.setitem(cli.SUITES, "quartic-obstruction", suite)
        assert cli.main(["verify", "--suite", "quartic-obstruction"]) == 0
        assert seen == [0]

    def test_failing_check_yields_exit_one(self, capsys, monkeypatch):
        def suite(n, seed, weight):
            yield "forced", f"n={n}", False

        monkeypatch.setitem(cli.SUITES, "ambient-identities", suite)
        code = cli.main(["verify", "--suite", "ambient-identities"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_failing_case_is_named(self, tmp_path, monkeypatch, fmt):
        def suite(n, seed, weight):
            for case in ("e(0,1)*e(0,1) w=1/7", "e(0,1)*e(0,2) w=1/7", "e(0,2)*e(0,2) w=1/7"):
                yield "identity", case, case != "e(0,1)*e(0,2) w=1/7"
            yield "other", "n=3", True

        monkeypatch.setitem(cli.SUITES, "composition-identity", suite)
        out = tmp_path / "verify.out"
        argv = ["verify", "--suite", "composition-identity", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 1
        if fmt == "json":
            payload = json.loads(out.read_text())
            assert payload["ok"] is False
            assert payload["checks"] == [
                {
                    "suite": "composition-identity",
                    "check": "identity",
                    "ok": False,
                    "cases": 3,
                    "failed": ["e(0,1)*e(0,2) w=1/7"],
                },
                {
                    "suite": "composition-identity",
                    "check": "other",
                    "ok": True,
                    "cases": 1,
                    "failed": [],
                },
            ]
        else:
            assert out.read_text().splitlines() == [
                "[FAIL] composition-identity: identity (cases: 3) failed: e(0,1)*e(0,2) w=1/7",
                "[PASS] composition-identity: other (cases: 1)",
                "overall: FAIL",
            ]


class TestExitCodes:
    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["dims", "--kind", "nonsense"])
        assert info.value.code == 2

    def test_missing_symbol_file_exit_three(self, capsys):
        code = cli.main(["build-op", "--kind", "dv", "/nonexistent/path.json"])
        assert code == 3

    def test_precondition_failure_exit_four(self, capsys):
        assert cli.main(["dims", "--kind", "ckt", "--n", "2"]) == 4

    def test_symbolless_tensor_kind_exit_four(self, capsys):
        assert cli.main(["build-op", "--kind", "dv"]) == 4

    @pytest.mark.parametrize("command", ["dims", "basis"])
    @pytest.mark.parametrize("kind", [("ckt", "--s", "1"), ("gckt", "--t", "0")])
    def test_huge_dimension_exit_four(self, capsys, monkeypatch, command, kind):
        # n = 10**9 is refused before the solver lists its 10**9 unknowns
        def listing(indices, valency):
            raise AssertionError("listed the unknowns before checking n")

        monkeypatch.setattr(cktsolve, "nondecreasing_tuples", listing)
        assert cli.main([command, "--kind", *kind, "--n", str(10**9)]) == 4
        assert capsys.readouterr().err == f"error: dimension n must be at most {MAX_DIMENSION}\n"

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("dv", "{}"),
            ("ambient-one-pair", "{}"),
            ("dv", '{"n": "3", "valency": 1, "components": {}}'),
            ("ambient-one-pair", '{"n": "3", "pair_count": 1, "components": {}}'),
            ("dw", "[1, 2]"),
            ("dv", '{"n": 3, "valency": 1, "components": []}'),
            ("dv", "not json"),
            ("dv", _dv_symbol('{"coeff": 0.1, "exps": {}}')),
            ("dv", _dv_symbol('{"coeff": true, "exps": {}}')),
            ("dv", _dv_symbol('{"coeff": "1", "exps": {"x1": true}}')),
            ("dv", _dv_symbol('{"coeff": "1", "exps": {"x1": 2.0}}')),
            ("ambient-one-pair", _pair_symbol("0.5")),
            ("ambient-one-pair", _pair_symbol("false")),
            # keys other than the canonical representative of their shape
            ("ambient-one-pair", _pair_symbol("1", key="1,0")),
            ("ambient-one-pair", _pair_symbol("1", key="1,1")),
            # the scalar symbol W in the pair tensor form of earlier releases
            (
                "ambient-scalar-symbol",
                '{"n": 3, "pair_count": 0, "tail_valency": 2, "components": {"0,4": 1}}',
            ),
            ("ambient-scalar-symbol", _scalar_symbol(2, key="4,0")),
            ("ambient-one-pair", _pair_symbol("1", key="0,5")),
            ("ambient-one-pair", _pair_symbol("1", key="0,1,2")),
        ],
    )
    def test_malformed_symbol_file_exit_four(self, tmp_path, capsys, kind, content):
        symbol = tmp_path / "symbol.json"
        symbol.write_text(content)
        weight = ["--w", "1/2"] if kind in ("dv", "dw") else []
        code = cli.main(["build-op", "--kind", kind, *weight, str(symbol)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: malformed symbol file")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, shape, n",
        [
            ("ambient-two-pair", 1, 3),
            ("ambient-two-pair", 3, 3),
            ("ambient-one-pair", 2, 3),
            ("ambient-scalar-symbol", 4, 3),
            ("ambient-one-pair", 1, MAX_DIMENSION + 1),
            ("ambient-two-pair", 2, MAX_DIMENSION + 1),
            ("ambient-scalar-symbol", 2, MAX_DIMENSION + 1),
        ],
    )
    def test_symbol_of_another_shape_or_dimension_exit_four(
        self, tmp_path, capsys, kind, shape, n
    ):
        # shape is the pair count of a pair tensor and the valency of a scalar symbol
        symbol = tmp_path / "symbol.json"
        scalar = kind == "ambient-scalar-symbol"
        symbol.write_text(_scalar_symbol(shape, n) if scalar else _tensor_symbol(shape, n))
        assert cli.main(["build-op", "--kind", kind, str(symbol)]) == 4
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, kind",
        [
            (["--w", "5/3"], "bilaplacian"),
            (["--w", "0"], "laplacian"),
            (["--w", "7"], "ambient-one-pair"),
            (["--w", "1/2"], "ambient-two-pair"),
            (["--w", "1/2"], "ambient-scalar-symbol"),
            (["--n", "5"], "dv"),
            (["--n", "3"], "dw"),
            (["--n", "4"], "ambient-one-pair"),
        ],
    )
    def test_unread_build_op_flag_exit_two(self, tmp_path, capsys, flags, kind):
        # rejected before the (missing) symbol file is read
        argv = ["build-op", "--kind", kind, *flags, str(tmp_path / "missing.json")]
        if kind.endswith("laplacian"):
            argv.pop()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flags[0]} has no effect on kind {kind}\n"

    @pytest.mark.parametrize("kind", ["laplacian", "bilaplacian"])
    def test_symbol_file_for_builtin_operator_exit_two(self, tmp_path, capsys, monkeypatch, kind):
        symbol = tmp_path / "f.json"
        symbol.write_text("{}")
        opened = []
        monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a))
        assert cli.main(["build-op", "--kind", kind, str(symbol)]) == 2
        assert opened == []
        captured = capsys.readouterr()
        assert captured.err == f"error: symbol has no effect on kind {kind}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, kind, flag, value",
        [
            ("dims", "gckt", "--s", "5"),
            ("dims", "ckt", "--t", "4"),
            ("dims", "symmetries", "--t", "0"),
            ("basis", "gckt", "--s", "1"),
            ("basis", "ckt", "--t", "2"),
        ],
    )
    def test_unread_valency_flag_exit_two(self, capsys, command, kind, flag, value):
        argv = [command, "--kind", kind, flag, value, "--n", "3", "--degree-bound", "2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} has no effect on kind {kind}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("weight", ["abc", "1/0"])
    @pytest.mark.parametrize("command", ["build-op", "verify"])
    def test_bad_weight_exit_two(self, tmp_path, capsys, command, weight):
        # the weight is rejected before any symbol file is read
        argv = [command, "--w", weight]
        if command == "build-op":
            argv += ["--kind", "dv", str(tmp_path / "missing.json")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--w" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the README exit-code contract over argument combinations: no call below
# solves anything, since each is refused or builds an n = 3 or 4 operator

BUILD_KINDS = cli.SYMBOL_KINDS + ("laplacian", "bilaplacian")
# per symbol kind: a valid symbol and one of another shape (pair count or
# valency) that the kind refuses
SHAPED_SYMBOLS = {
    "dv": (_field_symbol(1), _field_symbol(3)),
    "dw": (_field_symbol(0), _field_symbol(1)),
    "ambient-one-pair": (_tensor_symbol(1), _tensor_symbol(0)),
    "ambient-two-pair": (_tensor_symbol(2), _tensor_symbol(3)),
    "ambient-scalar-symbol": (_scalar_symbol(2), _scalar_symbol(4)),
}
SYMBOL_STATES = ("none", "absent", "valid", "malformed", "large-n", "other-shape")
BAD_DIMENSIONS = (2, MAX_DIMENSION + 1)


@pytest.fixture(scope="module")
def symbol_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("symbols")
    for kind, (valid, other) in SHAPED_SYMBOLS.items():
        large = json.dumps(json.loads(valid) | {"n": MAX_DIMENSION + 1})
        for state, text in (
            ("valid", valid), ("other-shape", other), ("large-n", large), ("malformed", "{"),
        ):
            (root / f"{kind}-{state}.json").write_text(text)
    return root


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv: list[str], expected: int) -> None:
    code, out, err = _run(argv)
    assert code == expected, (argv, err)
    assert "Traceback" not in err
    if expected:
        assert [line for line in err.splitlines() if "error:" in line] == [err.strip()], err
    else:
        assert err == "" and out


def _build_op_exit(kind: str, w: bool, n: int | None, symbol: str) -> int:
    builtin = kind in ("laplacian", "bilaplacian")
    if (w and kind not in ("dv", "dw")) or (n is not None and not builtin):
        return cli.EXIT_BAD_ARGS
    if builtin:
        if symbol != "none":
            return cli.EXIT_BAD_ARGS
        return cli.EXIT_PRECONDITION if n in BAD_DIMENSIONS else cli.EXIT_OK
    if symbol == "absent":
        return cli.EXIT_IO_ERROR
    return cli.EXIT_OK if symbol == "valid" else cli.EXIT_PRECONDITION


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(BUILD_KINDS),
        w=st.booleans(),
        n=st.sampled_from((None, 3, 4) + BAD_DIMENSIONS),
        symbol=st.sampled_from(SYMBOL_STATES),
    )
    def test_build_op(self, symbol_dir, kind, w, n, symbol):
        argv = ["build-op", "--kind", kind]
        if w:
            argv += ["--w", "1/2"]
        if n is not None:
            argv += ["--n", str(n)]
        if symbol != "none":
            argv.append(str(symbol_dir / f"{kind}-{symbol}.json"))
        _assert_contract(argv, _build_op_exit(kind, w, n, symbol))

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(("dims", "basis")),
        kind=st.sampled_from(("ckt", "gckt", "symmetries")),
        flags=st.sets(st.sampled_from(("--s", "--t", "--degree-bound"))),
    )
    def test_dims_and_basis(self, command, kind, flags):
        # n = 2 is refused before any solve, which keeps every accepted call
        # cheap; n above the bound is not used here, since a broken bound
        # would start a real solve
        argv = [command, "--kind", kind, "--n", "2"]
        for flag in sorted(flags):
            argv += [flag, "2"]
        unread = ("--s" in flags and kind == "gckt") or ("--t" in flags and kind != "gckt")
        _assert_contract(argv, cli.EXIT_BAD_ARGS if unread else cli.EXIT_PRECONDITION)

    @settings(max_examples=100, deadline=None)
    @given(
        suite=st.sampled_from(tuple(cli.SUITES) + ("all",)),
        w=st.booleans(),
        seed=st.booleans(),
    )
    def test_verify(self, suite, w, seed):
        argv = ["verify", "--suite", suite, "--n", "2"]
        argv += ["--w", "1/7"] if w else []
        argv += ["--seed", "3"] if seed else []
        unread = (w and suite not in ("all", "composition-identity")) or (
            seed and suite not in ("all", "quartic-obstruction")
        )
        _assert_contract(argv, cli.EXIT_BAD_ARGS if unread else cli.EXIT_PRECONDITION)


def test_runtime_imports_only_the_standard_library():
    # modules loaded at start-up (site hooks and the like) are not counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bilapsym.cli\n"
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(result.stdout.split())
    assert "bilapsym" in loaded
    assert loaded - {"bilapsym"} <= set(sys.stdlib_module_names)
