"""Command-line interface.

Subcommands: ``dims`` prints solution-space dimensions, ``basis`` emits the
solved bases, ``build-op`` constructs operators from symbol files, and
``verify`` runs the exact identity suites.  Exit codes: 0 all checks pass,
1 an identity fails, 2 bad arguments, 3 I/O error, 4 precondition failure
(including a malformed symbol file).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .ambient import (
    ambient_bilaplacian,
    ambient_laplacian,
    ambient_op_gg,
    ambient_op_V,
    ambient_op_W,
    induce,
    lie_to_ckv,
    realize_ckt,
    realize_gckt,
    verify_cone_identities,
    verify_phipsi_identities,
)
from .cktsolve import (
    second_order_symmetry_dimension,
    solve_ckt,
    solve_gckt,
    verify_lemma_hilf,
)
from .exactpoly import parse_rational
from .symalg import (
    bilaplacian_weight,
    canonical_DV,
    canonical_DW,
    canonical_second_order_family,
    counterexample_operator_check,
    enumerate_symmetries,
    laplacian_weight,
    operator_in_span,
    operator_span_dimension,
    pair_tensor,
    so_basis,
    special_conformal_element,
    summand_operator_checks,
    translation_element,
    verify_generalstory,
)
from .tensorcalc import PairSkewTensor, SymTensorField, decompose_gg
from .weylop import bilaplacian, is_symmetry, laplacian

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_BAD_ARGS = 2
EXIT_IO_ERROR = 3
EXIT_PRECONDITION = 4


@dataclass(frozen=True)
class RunConfig:
    fmt: str
    out_path: str | None

    def emit(self, payload: dict, text_lines: list[str]) -> None:
        if self.fmt == "json":
            rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            rendered = "\n".join(text_lines) + "\n"
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(fmt=args.format, out_path=args.out)


def _default_bound(args: argparse.Namespace) -> int:
    if args.degree_bound is not None:
        return args.degree_bound
    if args.kind == "ckt":
        return 2 * args.s
    return 4


# ---------------------------------------------------------------------------
# dims / basis


def _solve_for(args: argparse.Namespace):
    bound = _default_bound(args)
    if args.kind == "ckt":
        return solve_ckt(args.n, args.s, bound)
    if args.kind == "gckt":
        return solve_gckt(args.n, args.t, bound)
    return enumerate_symmetries(args.n, args.s, bound)


def cmd_dims(args: argparse.Namespace) -> int:
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
    if args.kind == "ckt":
        payload["s"] = args.s
        payload["by_degree"] = {
            str(d): c for d, c in sorted(basis.dimension_by_degree().items())
        }
    elif args.kind == "gckt":
        payload["t"] = args.t
        payload["by_degree"] = {
            str(d): c for d, c in sorted(basis.dimension_by_degree().items())
        }
    else:
        payload["order"] = args.s
        payload["closed_form"] = second_order_symmetry_dimension(args.n) if args.s == 2 else None
        if args.s == 2:
            lines.append(f"closed form: {payload['closed_form']}")
    _config(args).emit(payload, lines)
    return EXIT_OK


def cmd_basis(args: argparse.Namespace) -> int:
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
    _config(args).emit(payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-op


def cmd_build_op(args: argparse.Namespace) -> int:
    if args.kind in ("laplacian", "bilaplacian"):
        op = laplacian(args.n) if args.kind == "laplacian" else bilaplacian(args.n)
    else:
        if args.symbol is None:
            raise ValueError(f"kind {args.kind!r} requires a symbol file")
        with open(args.symbol, "r", encoding="utf-8") as handle:
            text = handle.read()
        cls = SymTensorField if args.kind in ("dv", "dw") else PairSkewTensor
        try:
            symbol = cls.from_json_obj(json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed symbol file {args.symbol}: {exc!r}") from None
        if args.kind == "dv":
            op = canonical_DV(symbol, args.w)
        elif args.kind == "dw":
            op = canonical_DW(symbol, args.w)
        elif args.kind == "ambient-one-pair":
            op = ambient_op_V(symbol)
        elif args.kind == "ambient-two-pair":
            op = ambient_op_gg(symbol)
        else:
            op = ambient_op_W(symbol)
    payload = {"kind": args.kind, "operator": op.to_json_obj()}
    _config(args).emit(payload, [op.text()])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _checks_ambient_identities(n: int, seed: int, weight) -> dict[str, bool]:
    out = dict(verify_phipsi_identities(n))
    out.update(verify_cone_identities(n))
    return out


def _checks_induced_operators(n: int, seed: int, weight) -> dict[str, bool]:
    w0 = bilaplacian_weight(n)
    checks: dict[str, bool] = {}
    checks["second_order_inducts_to_laplacian"] = (
        induce(ambient_laplacian(n), laplacian_weight(n), order=2) == laplacian(n)
    )
    checks["fourth_order_inducts_to_squared_laplacian"] = (
        induce(ambient_bilaplacian(n), w0, order=4) == bilaplacian(n)
    )
    ok = True
    for u in so_basis(n):
        ind = induce(ambient_op_V(u), w0, order=1)
        ok = ok and ind == canonical_DV(lie_to_ckv(u), w0)
    checks["one_pair_operators_induce_canonical_form"] = ok

    ok = True
    for u, v in [
        (so_basis(n)[0], so_basis(n)[0]),
        (translation_element(n, 1), special_conformal_element(n, 1)),
    ]:
        dec = decompose_gg(pair_tensor(u, v))
        if not dec.cartan.is_zero:
            ind = induce(ambient_op_gg(dec.cartan), w0, order=2)
            ok = ok and ind == canonical_DV(realize_ckt(dec.cartan), w0)
        if not dec.bullet_W.is_zero:
            tail_op = ambient_op_W(dec.bullet_W)
            ind = induce(tail_op, w0, order=2)
            ok = ok and ind == canonical_DW(realize_gckt(dec.bullet_W), w0)
    checks["two_pair_summands_induce_canonical_forms"] = ok
    return checks


def _checks_composition_identity(n: int, seed: int, weight) -> dict[str, bool]:
    basis = so_basis(n)
    weights = [weight] if weight is not None else [
        bilaplacian_weight(n),
        laplacian_weight(n),
        Fraction(1, 7),
    ]
    ok = True
    for i, u in enumerate(basis):
        for v in basis[i:]:
            for w in weights:
                ok = ok and verify_generalstory(u, v, w).holds
    return {"composition_identity_on_basis_pairs": ok}


def _checks_summand_behavior(n: int, seed: int, weight) -> dict[str, bool]:
    return summand_operator_checks(n)


def _checks_dimension_counts(n: int, seed: int, weight) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    one = solve_ckt(n, 1, 2)
    checks["first_order_solution_count"] = (
        one.dimension == (n + 1) * (n + 2) // 2 and one.stabilized
    )
    two = solve_ckt(n, 2, 4)
    scalars = solve_gckt(n, 0, 4)
    total = 1 + one.dimension + two.dimension + scalars.dimension
    checks["second_order_total_matches_closed_form"] = (
        two.stabilized
        and scalars.stabilized
        and total == second_order_symmetry_dimension(n)
    )
    return checks


def _checks_symmetry_enumeration(n: int, seed: int, weight) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    first = enumerate_symmetries(n, 1, 2)
    checks["first_order_enumeration_count"] = (
        first.dimension == (n + 1) * (n + 2) // 2 + 1 and first.stabilized
    )
    basis = enumerate_symmetries(n, 2, 4)
    expected = second_order_symmetry_dimension(n)
    checks["second_order_enumeration_count"] = (
        basis.dimension == expected and basis.stabilized
    )
    family = canonical_second_order_family(n)
    in_span = all(operator_in_span(basis.elements, op) for op in family)
    checks["constructed_family_spans_enumerated_space"] = (
        in_span and operator_span_dimension(family) == expected
    )
    return checks


def _checks_certificates(n: int, seed: int, weight) -> dict[str, bool]:
    ok = True
    for op in canonical_second_order_family(n):
        ok = ok and is_symmetry(op) is not None
    return {"all_canonical_operators_have_certificates": ok}


def _checks_structure_lemma(n: int, seed: int, weight) -> dict[str, bool]:
    ok = True
    for v in solve_ckt(n, 1, 2).elements:
        ok = ok and verify_lemma_hilf(v).all_hold
    for v in solve_ckt(n, 2, 4).elements:
        ok = ok and verify_lemma_hilf(v).all_hold
    return {"divergence_structure_lemma_on_solution_bases": ok}


def _checks_quartic_obstruction(n: int, seed: int, weight) -> dict[str, bool]:
    report = counterexample_operator_check(n, seed)
    return {
        "quartic_first_traces_vanish": report.first_trace_is_zero,
        "quartic_tail_traces_vanish": report.tail_trace_is_zero,
        "quartic_mixed_trace_is_multiple": report.mixed_trace_matches
        and report.mixed_trace_factor != 0,
        "quartic_operator_factors_exactly": report.quartic_matches
        and report.scalar_factor != 0,
    }


SUITES = {
    "ambient-identities": _checks_ambient_identities,
    "induced-operators": _checks_induced_operators,
    "composition-identity": _checks_composition_identity,
    "summand-behavior": _checks_summand_behavior,
    "dimension-counts": _checks_dimension_counts,
    "symmetry-enumeration": _checks_symmetry_enumeration,
    "certificates": _checks_certificates,
    "structure-lemma": _checks_structure_lemma,
    "quartic-obstruction": _checks_quartic_obstruction,
}


# the one suite that reads each optional verify flag; other suites ignore it
FLAG_READERS = {"w": "composition-identity", "seed": "quartic-obstruction"}


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, reader in FLAG_READERS.items():
        if getattr(args, flag) is not None and args.suite not in ("all", reader):
            print(f"error: --{flag} has no effect on suite {args.suite}", file=sys.stderr)
            return EXIT_BAD_ARGS
    seed = 0 if args.seed is None else args.seed
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    all_ok = True
    for name in names:
        for check, ok in SUITES[name](args.n, seed, args.w).items():
            results.append({"suite": name, "check": check, "ok": ok})
            all_ok = all_ok and ok
    payload = {"n": args.n, "ok": all_ok, "checks": results}
    lines = [
        f"[{'PASS' if row['ok'] else 'FAIL'}] {row['suite']}: {row['check']}"
        for row in results
    ]
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    _config(args).emit(payload, lines)
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
        p.add_argument("--s", type=int, default=1, help="valency (ckt) or order (symmetries)")
        p.add_argument("--t", type=int, default=0, help="valency for gckt")
        p.add_argument("--degree-bound", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("build-op", help="construct an operator from a symbol")
    common(p)
    p.add_argument(
        "--kind",
        choices=(
            "dv",
            "dw",
            "ambient-one-pair",
            "ambient-two-pair",
            "ambient-scalar-symbol",
            "laplacian",
            "bilaplacian",
        ),
        required=True,
    )
    p.add_argument("--w", type=parse_rational, default="0", help="weight as a rational p/q")
    p.add_argument("symbol", nargs="?", default=None, help="symbol JSON file")
    p.set_defaults(fn=cmd_build_op)

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
