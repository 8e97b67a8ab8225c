"""Command-line interface.

Subcommands: ``dims`` prints solution-space dimensions, ``basis`` emits the
solved bases, ``build-op`` constructs operators from symbol files, and
``verify`` runs the acceptance suites of ``bilapsym.checks``.  Exit codes:
0 all checks pass, 1 an identity fails, 2 bad arguments, 3 I/O error,
4 precondition failure (including a malformed symbol file).
"""

from __future__ import annotations

import argparse
import json
import sys

from .ambient import ambient_op_gg, ambient_op_V, ambient_op_W
from .checks import SUITES
from .cktsolve import second_order_symmetry_dimension, solve_ckt, solve_gckt
from .exactpoly import parse_rational
from .symalg import canonical_DV, canonical_DW, enumerate_symmetries
from .tensorcalc import PairSkewTensor, SymAmbientTensor, SymTensorField
from .weylop import bilaplacian, laplacian

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_BAD_ARGS = 2
EXIT_IO_ERROR = 3
EXIT_PRECONDITION = 4


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Write the payload as JSON or the lines as text, per ``--format``, to
    ``--out`` or stdout."""
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


# the kinds (or suites) that read each optional argument; the others ignore it
SOLVE_FLAG_READERS = {"--s": ("ckt", "symmetries"), "--t": ("gckt",)}
# the symbol kinds and the tensor type that each reads from its symbol file
SYMBOL_TYPES = {
    "dv": SymTensorField,
    "dw": SymTensorField,
    "ambient-one-pair": PairSkewTensor,
    "ambient-two-pair": PairSkewTensor,
    "ambient-scalar-symbol": SymAmbientTensor,
}
SYMBOL_KINDS = tuple(SYMBOL_TYPES)
BUILD_OP_FLAG_READERS = {
    "--w": ("dv", "dw"), "--n": ("laplacian", "bilaplacian"), "symbol": SYMBOL_KINDS,
}
VERIFY_FLAG_READERS = {
    "--w": ("all", "composition-identity"), "--seed": ("all", "quartic-obstruction"),
}


def _reports_unread_flag(args: argparse.Namespace, readers: dict, what: str) -> bool:
    """Report the first argument given that the chosen ``what`` does not read."""
    choice = getattr(args, what)
    for flag, readers_of_flag in readers.items():
        if getattr(args, flag.lstrip("-")) is not None and choice not in readers_of_flag:
            print(f"error: {flag} has no effect on {what} {choice}", file=sys.stderr)
            return True
    return False


# ---------------------------------------------------------------------------
# dims / basis


def _default_bound(args: argparse.Namespace) -> int:
    if args.degree_bound is not None:
        return args.degree_bound
    if args.kind == "ckt":
        return 2 * args.s
    return 4


def _solve_for(args: argparse.Namespace):
    # --s and --t stay unset unless given, so that an unread one is reported
    args.s = 1 if args.s is None else args.s
    args.t = 0 if args.t is None else args.t
    bound = _default_bound(args)
    if args.kind == "ckt":
        return solve_ckt(args.n, args.s, bound)
    if args.kind == "gckt":
        return solve_gckt(args.n, args.t, bound)
    return enumerate_symmetries(args.n, args.s, bound)


def cmd_dims(args: argparse.Namespace) -> int:
    if _reports_unread_flag(args, SOLVE_FLAG_READERS, "kind"):
        return EXIT_BAD_ARGS
    basis = _solve_for(args)
    payload: dict = {
        "kind": args.kind,
        "n": args.n,
        "degree_bound": basis.degree_bound,
        "dimension": basis.dimension,
        "stabilized": basis.stabilized,
    }
    lines = [
        f"kind: {args.kind}",
        f"n: {args.n}",
        f"degree bound: {basis.degree_bound}",
        f"dimension: {basis.dimension}",
        f"stabilized: {basis.stabilized}",
    ]
    if args.kind in ("ckt", "gckt"):
        valency = "s" if args.kind == "ckt" else "t"
        payload[valency] = getattr(args, valency)
        payload["by_degree"] = {
            str(d): c for d, c in sorted(basis.dimension_by_degree().items())
        }
    else:
        payload["order"] = args.s
        payload["closed_form"] = second_order_symmetry_dimension(args.n) if args.s == 2 else None
        if args.s == 2:
            lines.append(f"closed form: {payload['closed_form']}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_basis(args: argparse.Namespace) -> int:
    if _reports_unread_flag(args, SOLVE_FLAG_READERS, "kind"):
        return EXIT_BAD_ARGS
    basis = _solve_for(args)
    elements = [el.to_json_obj() for el in basis.elements]
    payload = {
        "kind": args.kind,
        "n": args.n,
        "degree_bound": basis.degree_bound,
        "dimension": basis.dimension,
        "elements": elements,
    }
    lines = [f"{args.kind} basis, n={args.n}, dimension {basis.dimension}"]
    for i, el in enumerate(basis.elements):
        lines.append(f"[{i}] {el.text() if hasattr(el, 'text') else json.dumps(el.to_json_obj())}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-op


def cmd_build_op(args: argparse.Namespace) -> int:
    if _reports_unread_flag(args, BUILD_OP_FLAG_READERS, "kind"):
        return EXIT_BAD_ARGS
    if args.kind in ("laplacian", "bilaplacian"):
        n = 3 if args.n is None else args.n
        op = laplacian(n) if args.kind == "laplacian" else bilaplacian(n)
    else:
        if args.symbol is None:
            raise ValueError(f"kind {args.kind!r} requires a symbol file")
        with open(args.symbol, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            symbol = SYMBOL_TYPES[args.kind].from_json_obj(json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed symbol file {args.symbol}: {exc!r}") from None
        w = 0 if args.w is None else args.w
        if args.kind == "dv":
            op = canonical_DV(symbol, w)
        elif args.kind == "dw":
            op = canonical_DW(symbol, w)
        elif args.kind == "ambient-one-pair":
            op = ambient_op_V(symbol)
        elif args.kind == "ambient-two-pair":
            if symbol.pair_count != 2:
                raise ValueError(f"kind ambient-two-pair needs 2 pairs, not {symbol.pair_count}")
            op = ambient_op_gg(symbol)
        else:
            op = ambient_op_W(symbol)
    payload = {"kind": args.kind, "operator": op.to_json_obj()}
    _emit(args, payload, [op.text()])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    if _reports_unread_flag(args, VERIFY_FLAG_READERS, "suite"):
        return EXIT_BAD_ARGS
    seed = 0 if args.seed is None else args.seed
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # one row per (suite, check): the number of cases and the failing ones
    rows: dict[tuple[str, str], dict] = {}
    for name in names:
        for check, case, ok in SUITES[name](args.n, seed, args.w):
            row = rows.setdefault(
                (name, check), {"suite": name, "check": check, "cases": 0, "failed": []}
            )
            row["cases"] += 1
            if not ok:
                row["failed"].append(case)
    results = [dict(row, ok=not row["failed"]) for row in rows.values()]
    all_ok = all(row["ok"] for row in results)
    payload = {"n": args.n, "ok": all_ok, "checks": results}
    lines = []
    for row in results:
        status = "PASS" if row["ok"] else "FAIL"
        line = f"[{status}] {row['suite']}: {row['check']} (cases: {row['cases']})"
        if row["failed"]:
            line += " failed: " + "; ".join(row["failed"])
        lines.append(line)
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_IDENTITY_FAILURE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilapsym",
        description="Exact higher symmetries of the squared Laplacian.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=3, help="base dimension (>= 3)")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
        p.add_argument("--out", default=None, help="write output to this path")

    for name, fn in (("dims", cmd_dims), ("basis", cmd_basis)):
        p = sub.add_parser(name, help=f"{name} of solution spaces")
        common(p)
        p.add_argument(
            "--kind",
            choices=("ckt", "gckt", "symmetries"),
            default="ckt",
            help="which solution space to solve",
        )
        p.add_argument(
            "--s", type=int, default=None, help="valency (ckt) or order (symmetries) (1)"
        )
        p.add_argument("--t", type=int, default=None, help="valency for gckt (0)")
        p.add_argument(
            "--degree-bound",
            type=int,
            default=None,
            help="largest coefficient degree (2s for ckt, else 4); at symmetry order >= 4 "
            "every shift up to it is solved, so the time grows with it and stabilized "
            "is False",
        )
        p.set_defaults(fn=fn)

    p = sub.add_parser("build-op", help="construct an operator from a symbol")
    common(p)
    p.add_argument(
        "--kind",
        choices=SYMBOL_KINDS + ("laplacian", "bilaplacian"),
        required=True,
    )
    p.add_argument("--w", type=parse_rational, default=None, help="dv/dw weight p/q (0)")
    p.add_argument("symbol", nargs="?", default=None, help="symbol JSON file")
    # --n is read only by the laplacian kinds (3); a symbol file fixes its own
    p.set_defaults(fn=cmd_build_op, n=None)

    p = sub.add_parser("verify", help="run exact identity suites")
    common(p)
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None, help="quartic-obstruction seed (0)")
    p.add_argument(
        "--w", type=parse_rational, default=None, help="composition-identity weight p/q"
    )
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except (ValueError, NotImplementedError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
