"""The benchmark's workloads: seeded inputs, jobs and exact checks.

A workload is a list of jobs.  Each job calls the public API of
``bilapsym`` on inputs generated here from the workload seed, checks its
result exactly, and, when its result does not depend on the seed, compares
a SHA-256 digest of the canonical JSON of that result with the digest
committed in ``digests.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bilapsym.ambient import (
    ambient_op_V,
    ambient_op_W,
    ambient_op_gg,
    induce,
    lie_to_ckv,
    realize_ckt,
    realize_gckt,
)
from bilapsym.cktsolve import divergence, solve_ckt, solve_gckt
from bilapsym.exactpoly import Polynomial, base_space, format_rational, parse_rational
from bilapsym.symalg import (
    bilaplacian_weight,
    canonical_second_order_family,
    counterexample_operator_check,
    dilation_element,
    enumerate_symmetries,
    lie_element,
    pair_tensor,
    so_basis,
    special_conformal_element,
    summand_operator_checks,
    translation_element,
    verify_generalstory,
)
from bilapsym.tensorcalc import PairSkewTensor, SymTensorField, decompose_gg
from bilapsym.weylop import DiffOp, apply, bilaplacian, compose, is_symmetry, laplacian

DIGESTS_PATH = Path(__file__).with_name("digests.json")

@dataclass(frozen=True)
class Job:
    """One closed-loop unit of work: ``run`` calls the library, ``check``
    judges its result exactly; ``digested`` jobs also compare the digest of
    their result, which must not depend on the seed."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    digested: bool = False


def closed_form_dimension(n: int) -> int:
    """Dimension (n+1)(n+2)(n^2+5n+12)/12 of the second-order symmetries."""
    return (n + 1) * (n + 2) * (n * n + 5 * n + 12) // 12


# ---------------------------------------------------------------------------
# canonical results and digests


def canonical(obj):
    """Canonical JSON form of a library result, through ``to_json_obj``."""
    if isinstance(obj, (DiffOp, SymTensorField, PairSkewTensor)):
        return obj.to_json_obj()
    if isinstance(obj, Polynomial):
        return {"n": obj.space.n, "space": obj.space.kind, "terms": obj.to_json_obj()}
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def run_job(job: Job, digests: dict[str, str]) -> tuple[bool, object]:
    """Run one job and judge it: the exact check, then the committed digest.

    An exception fails the job; its traceback goes to stderr.
    """
    try:
        result = job.run()
        ok = bool(job.check(result))
        if ok and job.digested:
            ok = digest(canonical(result)) == digests.get(job.name)
        return ok, result
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


def max_coeff_bits(canon) -> int:
    """Largest numerator or denominator bit length among the ``coeff``
    entries of a canonical result."""
    best = 0
    stack = [canon]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            coeff = node.get("coeff")
            if isinstance(coeff, str):
                q = parse_rational(coeff)
                best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return best


# ---------------------------------------------------------------------------
# enumerate: brute-force enumeration of the second-order symmetries


def _enumerate_jobs(rng: random.Random) -> list[Job]:
    def check(basis) -> bool:
        return basis.stabilized and basis.dimension == closed_form_dimension(basis.n)

    return [
        Job(f"enumerate/n{n}", lambda n=n, d=d: enumerate_symmetries(n, 2, d), check, True)
        for n, d in ((3, 6), (4, 4))
    ]


# ---------------------------------------------------------------------------
# construct: the generator route and the composition identity


def _seeded_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def _dense_lie_element(n: int, rng: random.Random):
    def c() -> int:
        return rng.choice([-3, -2, -1, 1, 2, 3])

    return lie_element(
        n,
        lam=c(),
        r_vec=[c() for _ in range(n)],
        s_vec=[c() for _ in range(n)],
        m_mat={(a, b): c() for a in range(1, n + 1) for b in range(a + 1, n + 1)},
    )


def _composition_job(name: str, u, v, w: Fraction) -> Job:
    def check(report) -> bool:
        return report.holds and report.lhs == report.rhs

    return Job(name, lambda: verify_generalstory(u, v, w), check)


def _routes(n: int):
    return solve_ckt(n, 1, 2), solve_ckt(n, 2, 4), solve_gckt(n, 0, 4)


def _routes_check(n: int, result) -> bool:
    ckv, ckt, gckt = result
    routes = 1 + ckv.dimension + ckt.dimension + gckt.dimension
    return ckv.dimension == (n + 1) * (n + 2) // 2 and routes == closed_form_dimension(n)


def _certified_family(n: int):
    """The constructed family with one certificate per operator."""
    family = canonical_second_order_family(n)
    return family, [is_symmetry(op) for op in family]


def _family_check(n: int, result) -> bool:
    family, certificates = result
    bilap = bilaplacian(n)
    return len(family) == closed_form_dimension(n) and all(
        delta is not None and compose(delta, bilap) == compose(bilap, op)
        for op, delta in zip(family, certificates)
    )


def _construct_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (3, 4):
        jobs.append(Job(f"construct/routes/n{n}", lambda n=n: _routes(n),
                        lambda r, n=n: _routes_check(n, r), True))
        jobs.append(Job(f"construct/family/n{n}", lambda n=n: _certified_family(n),
                        lambda r, n=n: _family_check(n, r), True))
        basis = so_basis(n)
        for i, u in enumerate(basis):
            for j in range(i, len(basis)):
                jobs.append(_composition_job(
                    f"construct/pair/n{n}/{i}-{j}", u, basis[j], _seeded_weight(rng)))
    for k in range(20):
        u, v = _dense_lie_element(4, rng), _dense_lie_element(4, rng)
        jobs.append(_composition_job(f"construct/dense/n4/{k}", u, v, _seeded_weight(rng)))
    return jobs


# ---------------------------------------------------------------------------
# descent: the quartic obstruction and the closed-form induced operators


def _explicit_two_index_operator(v: SymTensorField, c_div, c_divdiv) -> DiffOp:
    """V^{ab} d_a d_b + c_div (div V)^a d_a + c_divdiv (div div V)."""
    space = base_space(v.n)
    out = DiffOp.zero(space)
    for a in range(1, v.n + 1):
        for b in range(1, v.n + 1):
            dd = compose(DiffOp.partial_op(space, a), DiffOp.partial_op(space, b))
            out = out + dd * v.get((a, b))
    div = divergence(v)
    for a in range(1, v.n + 1):
        out = out + DiffOp.partial_op(space, a) * (div.get((a,)) * c_div)
    return out + DiffOp.multiplication(divergence(div).get(()) * c_divdiv)


def _explicit_scalar_operator(w_poly: Polynomial, c_grad, c_lap) -> DiffOp:
    """W Lap + c_grad (grad W).grad + c_lap (Lap W)."""
    space = w_poly.space
    n = space.n
    out = compose(DiffOp.multiplication(w_poly), laplacian(n))
    for a in range(1, n + 1):
        out = out + DiffOp.partial_op(space, a) * (w_poly.partial(a) * c_grad)
    return out + DiffOp.multiplication(apply(laplacian(n), w_poly) * c_lap)


def _explicit_first_order(v: SymTensorField, c_div) -> DiffOp:
    """V^a d_a + c_div (div V)."""
    space = base_space(v.n)
    out = DiffOp.zero(space)
    for a in range(1, v.n + 1):
        out = out + DiffOp.partial_op(space, a) * v.get((a,))
    return out + DiffOp.multiplication(divergence(v).get(()) * c_div)


def _closed_form_jobs(n: int) -> list[Job]:
    """The Cartan, bullet and dilation cases of the induced operators.

    Each job returns the field its closed form is built from together with
    the induced operator, and the check compares the two exactly.
    """
    w0 = bilaplacian_weight(n)
    u, v = translation_element(n, 1), special_conformal_element(n, 1)
    d = dilation_element(n)

    def cartan():
        x = decompose_gg(pair_tensor(u, v)).cartan
        return realize_ckt(x), induce(ambient_op_gg(x), w0, order=2)

    def cartan_check(result) -> bool:
        field, op = result
        return op == _explicit_two_index_operator(
            field, Fraction(n - 2, n + 2), Fraction((n - 2) * (n - 4), 4 * (n + 1) * (n + 2))
        )

    def bullet():
        x = decompose_gg(pair_tensor(d, d)).bullet_W
        return realize_gckt(x).get(()), induce(ambient_op_W(x), w0, order=2)

    def bullet_check(result) -> bool:
        w_poly, op = result
        return op == _explicit_scalar_operator(w_poly, Fraction(-1), -Fraction(n - 4, 2 * (n + 2)))

    def dilation():
        return lie_to_ckv(d), induce(ambient_op_V(d), w0, order=1)

    def dilation_check(result) -> bool:
        field, op = result
        return op == _explicit_first_order(field, Fraction(n - 4, 2 * n))

    return [
        Job(f"descent/cartan/n{n}", cartan, cartan_check, True),
        Job(f"descent/bullet/n{n}", bullet, bullet_check, True),
        Job(f"descent/dilation/n{n}", dilation, dilation_check, True),
    ]


def _counterexample_check(report) -> bool:
    expected = compose(
        DiffOp.multiplication(report.quartic_polynomial * report.scalar_factor),
        bilaplacian(report.n),
    )
    return report.all_hold and report.induced == expected


def _descent_jobs(rng: random.Random) -> list[Job]:
    seed = rng.randrange(10**6)
    jobs = [Job("descent/counterexample/n3", lambda: counterexample_operator_check(3, seed),
                _counterexample_check)]
    for n in (3, 4, 5):
        jobs.extend(_closed_form_jobs(n))
    jobs.append(Job("descent/summand/n3", lambda: summand_operator_checks(3),
                    lambda checks: all(checks.values()), True))
    return jobs


_BUILDERS = {
    "enumerate": _enumerate_jobs,
    "construct": _construct_jobs,
    "descent": _descent_jobs,
}
WORKLOADS = tuple(_BUILDERS)


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload, with inputs generated from ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
