"""Golden digests of the README's command-line examples.

Each digest is the SHA-256 of the ``--format json`` output of one example
from the README's "Command line" section, so a refactor of the library
must reproduce the CLI JSON byte for byte.  The ``build-op --kind dv``
example runs on symbol files written from the ``basis`` example: one file
per basis element, and the digest covers the outputs in basis order.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import bilapsym.cli as cli

BASIS_ARGS = ["basis", "--kind", "ckt", "--s", "1", "--n", "3"]

GOLDEN = [
    (
        ["dims", "--kind", "ckt", "--s", "2", "--n", "3"],
        "9b934e6bcb4f9af40813997217bf6bc6d05d0db8f53f1b1c865b69726254242b",
    ),
    (
        ["dims", "--kind", "gckt", "--t", "0", "--n", "3"],
        "361d0c619eb718f6cac733ad0deb4fe79c6c3b3340d811d23fa288b575f5fe68",
    ),
    (
        ["dims", "--kind", "symmetries", "--s", "2", "--n", "3", "--degree-bound", "6"],
        "dd6b6cdea08a87ed72db7d889c6f68c7120947203f0f6585cf9c60c50f542974",
    ),
    (
        BASIS_ARGS,
        "26019f3c116772c57c89ffa5812d0781d747edad2c8c02e2b5162bab7bfe7827",
    ),
    (
        ["build-op", "--kind", "bilaplacian", "--n", "4"],
        "abbdd332b4ce0907cce111728948fde85a6b2b522ba0ea62f306e87329f5f416",
    ),
]

DV_FROM_BASIS = "64ec3674785bf2491f89047ccb442f619ae1f773d2fa4d7b81757c70000e5a2a"

# the README's scalar-symbol file, which CI writes as tail.json; the digest
# is that of the same operator built from the pair tensor form of W
SCALAR_SYMBOL = {"n": 3, "valency": 2, "components": {"0,4": 1, "2,2": -1}}
SCALAR_SYMBOL_OPERATOR = "c2d49cccd9e9e76ac27b7ba0cad1149d79d5a94a67111f1512b0f25acbadb9d4"


def _json_output(args: list[str], path) -> bytes:
    assert cli.main(args + ["--format", "json", "--out", str(path)]) == 0
    return path.read_bytes()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "args, expected", GOLDEN, ids=[" ".join(args[:3]) for args, _ in GOLDEN]
)
def test_readme_example_digest(args, expected, tmp_path):
    assert _digest(_json_output(args, tmp_path / "out.json")) == expected


def test_build_op_dv_on_basis_symbols(tmp_path):
    basis = json.loads(_json_output(BASIS_ARGS, tmp_path / "basis.json"))
    outputs = b""
    for i, element in enumerate(basis["elements"]):
        symbol = tmp_path / f"symbol{i}.json"
        symbol.write_text(json.dumps(element))
        args = ["build-op", "--kind", "dv", "--w", "1/2", str(symbol)]
        outputs += _json_output(args, tmp_path / f"op{i}.json")
    assert len(basis["elements"]) == 10
    assert _digest(outputs) == DV_FROM_BASIS


def test_build_op_scalar_symbol_digest(tmp_path):
    symbol = tmp_path / "tail.json"
    symbol.write_text(json.dumps(SCALAR_SYMBOL))
    args = ["build-op", "--kind", "ambient-scalar-symbol", str(symbol)]
    assert _digest(_json_output(args, tmp_path / "op.json")) == SCALAR_SYMBOL_OPERATOR


# ``--format text`` renders operator terms in (order, index tuple) order; a
# JSON digest cannot see that order, since JSON keys are sorted.  The
# order-2 basis is needed: first-order operators have a single term per
# derivative order, so no reordering of terms can show in them.
TEXT_BASIS_ARGS = ["basis", "--kind", "ckt", "--s", "2", "--n", "3"]
BILAPLACIAN_TEXT = "4d27c238a21860f45dbb4751c90773a59fd53d87b2444a5ec2c811862785604b"
DV_TEXT_FROM_BASIS = "3bcb2c36f4ac90b6ff223fbf9ca00ba56f72f9069bbd42c6f3d4847242ab77f0"


def _text_output(args: list[str], path) -> bytes:
    assert cli.main(args + ["--format", "text", "--out", str(path)]) == 0
    return path.read_bytes()


def test_build_op_bilaplacian_text_digest(tmp_path):
    args = ["build-op", "--kind", "bilaplacian", "--n", "4"]
    assert _digest(_text_output(args, tmp_path / "op.txt")) == BILAPLACIAN_TEXT


def test_build_op_dv_text_on_order_two_basis(tmp_path):
    basis = json.loads(_json_output(TEXT_BASIS_ARGS, tmp_path / "basis.json"))
    outputs = b""
    for i, element in enumerate(basis["elements"]):
        symbol = tmp_path / f"symbol{i}.json"
        symbol.write_text(json.dumps(element))
        args = ["build-op", "--kind", "dv", "--w", "1/2", str(symbol)]
        outputs += _text_output(args, tmp_path / f"op{i}.txt")
    assert len(basis["elements"]) == 35
    assert _digest(outputs) == DV_TEXT_FROM_BASIS
