"""Acceptance gate: the nine headline checks, all at exact (zero) tolerance.

Each criterion runs its suite of ``bilapsym.checks.SUITES`` and requires
every row to pass and exactly the expected cases to be present, so a suite
that silently skips a pair or a weight fails here too.  Each test prints
one PASS line on success; pytest reports a FAIL line otherwise.  Nothing
here is approximate — every equality is between exact rational objects.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from bilapsym.checks import SUITES
from bilapsym.cktsolve import second_order_symmetry_dimension, solve_ckt

TIME_LIMIT_ENUMERATION = 300.0
TIME_LIMIT_COMPOSITION = 600.0


def _passing_cases(suite: str, n: int, seed: int = 0, weight=None) -> Counter:
    """Run one suite; assert that every row passes and that no case repeats
    within a check; return the number of cases of each check."""
    rows = list(SUITES[suite](n, seed, weight))
    failed = [(check, case) for check, case, ok in rows if not ok]
    assert not failed, f"{suite} at n={n} fails on {failed}"
    assert len({(check, case) for check, case, _ in rows}) == len(rows)
    return Counter(check for check, _, _ in rows)


@pytest.fixture(scope="module")
def enumerated_degree_six():
    """Case counts and wall time of the enumeration suite at n = 3 and 4."""
    out = {}
    for n in (3, 4):
        start = time.monotonic()
        cases = _passing_cases("symmetry-enumeration", n)
        out[n] = (cases, time.monotonic() - start)
    return out


def _passline(text: str) -> None:
    print(f"PASS {text}")


# ---------------------------------------------------------------------------
# 1. dimension reproduction


def test_criterion_1_dimension_reproduction(enumerated_degree_six):
    for n, expected in ((3, 60), (4, 120)):
        cases, elapsed = enumerated_degree_six[n]
        closed = (n + 1) * (n + 2) * (n * n + 5 * n + 12) // 12
        # the closed form the count row compares against
        assert second_order_symmetry_dimension(n) == closed == expected
        assert cases == {
            "first_order_enumeration_count": 1,
            "first_order_enumeration_stabilized": 1,
            "second_order_enumeration_count": 1,
            "second_order_enumeration_stabilized": 1,
            "constructed_family_spans_enumerated_space": 1,
        }
        assert elapsed < TIME_LIMIT_ENUMERATION
    _passline(
        "criterion 1: brute-force spaces have dimensions 60 (n=3) and 120 (n=4)"
    )


# ---------------------------------------------------------------------------
# 2. two-route agreement


def test_criterion_2_two_route_agreement(enumerated_degree_six):
    # both routes equal the closed form: the enumeration by its
    # second_order_enumeration_count row, the generators by the total here
    for n in (3, 4):
        assert enumerated_degree_six[n][0]["second_order_enumeration_count"] == 1
        assert _passing_cases("dimension-counts", n) == {
            "first_order_solution_count": 1,
            "second_order_total_matches_closed_form": 1,
        }
    assert solve_ckt(5, 1, 2).dimension == 21
    _passline("criterion 2: generator counting agrees with brute force")


# ---------------------------------------------------------------------------
# 3. symmetry certificates


def test_criterion_3_symmetry_certificates():
    assert _passing_cases("certificates", 3) == {"certificate_recomposes": 59}
    _passline("criterion 3: all 59 canonical operators carry exact certificates")


# ---------------------------------------------------------------------------
# 4. closed-form coefficients via the ambient route


def test_criterion_4_closed_form_coefficients():
    for n in (3, 4, 5):
        pairs = (n + 2) * (n + 1) // 2
        assert _passing_cases("induced-operators", n) == {
            "second_order_inducts_to_laplacian": 1,
            "fourth_order_inducts_to_squared_laplacian": 1,
            "one_pair_operators_induce_canonical_form": pairs,
            "cartan_summand_induces_canonical_form": 2,
            "bullet_summand_induces_canonical_form": 2,
            "two_index_closed_form": 1,
            "scalar_closed_form": 1,
            "first_order_closed_form": 1,
        }
    _passline(
        "criterion 4: ambient-induced operators reproduce the displayed "
        "coefficients at n=3,4,5"
    )


# ---------------------------------------------------------------------------
# 5. composition identity on all basis pairs, three weights


def test_criterion_5_composition_identity_all_pairs():
    start = time.monotonic()
    cases = _passing_cases("composition-identity", 3)
    # 55 unordered pairs of the 10 basis elements, at three weights
    assert cases == {
        "composition_identity_on_basis_pairs": 165,
        "scalar_term_is_killing_form_multiple": 165,
    }
    assert time.monotonic() - start < TIME_LIMIT_COMPOSITION
    _passline(
        "criterion 5: composition identity on all 55 pairs at three weights, "
        "with quadratic scalar dependence"
    )


# ---------------------------------------------------------------------------
# 6. ambient identity suite


def test_criterion_6_ambient_identity_suite():
    for n in (3, 4):
        pairs = (n + 2) * (n + 1) // 2
        assert _passing_cases("ambient-identities", n) == {
            "position_null": 1,
            "position_tangent_orthogonal": n,
            "tangent_metric": n * n,
            "laplacian_cone_commutator": 1,
            "bilaplacian_cone_commutator": 1,
            "laplacian_cone_relation": 12,
            "bilaplacian_cone_relation": 12,
            "one_pair_operator_commutes": pairs,
            "top_summand_operator_commutes": 3,
            "word_commutes": 8,
        }
    _passline("criterion 6: ambient identity suite holds exactly at n=3,4")


# ---------------------------------------------------------------------------
# 7. summand behavior


def test_criterion_7_summand_behavior():
    assert _passing_cases("summand-behavior", 3) == {
        "two_pair_operator_composes": 1,
        "adjoint_embeds_to_half": 1,
        "hook_and_skew_act_by_zero": 1,
        "scalar_operator_shape": 1,
        "scalar_induces_multiplication": 1,
        "bullet_induces_canonical_DW": 1,
        "cartan_induces_canonical_DV": 1,
        "bullet_factors_through_laplacian_at_special_weight": 1,
    }
    _passline(
        "criterion 7: hook/top-skew act by zero, scalar acts by w(n+w) "
        "multiples, tail summand factors through the Laplacian"
    )


# ---------------------------------------------------------------------------
# 8. quartic obstruction counterexample


def test_criterion_8_quartic_counterexample():
    assert _passing_cases("quartic-obstruction", 3, seed=0) == {
        "quartic_first_traces_vanish": 1,
        "quartic_tail_traces_vanish": 1,
        "quartic_mixed_trace_is_multiple": 1,
        "quartic_operator_factors_exactly": 1,
        # the induced operator IS the quartic times the fourth-order operator
        "induced_is_quartic_times_squared_laplacian": 1,
    }
    _passline(
        "criterion 8: generic quartic tensor induces a nonzero multiple of "
        "q times the fourth-order operator"
    )


# ---------------------------------------------------------------------------
# 9. divergence-structure identities on solved bases


def test_criterion_9_structure_lemma_on_bases():
    assert _passing_cases("structure-lemma", 3) == {"divergence_structure_lemma": 45}
    _passline(
        "criterion 9: divergence-potential identities hold on all 45 basis "
        "elements"
    )
