"""The acceptance suites can fail: a planted defect in the library shows up
in the rows of the check that covers it."""

from __future__ import annotations

import pytest

from bilapsym import checks, symalg


def _failed(rows, check: str) -> list[str]:
    return [case for name, case, ok in rows if name == check and not ok]


@pytest.mark.parametrize("spare_dilation, first_failing", [(False, "d"), (True, "t1")])
def test_doubled_adjoint_embedding_names_its_first_failing_case(
    monkeypatch, spare_dilation, first_failing
):
    original = symalg.adjoint_embed
    dilation = symalg.dilation_element(3)

    def doubled(v):
        return original(v) * (1 if spare_dilation and v == dilation else 2)

    monkeypatch.setattr(symalg, "adjoint_embed", doubled)
    rows = list(checks.summand_behavior(3, 0, None))
    # still one row per check, and only the adjoint check fails
    assert len(rows) == 8 and len({check for check, _, _ in rows}) == 8
    assert [(check, case) for check, case, ok in rows if not ok] == [
        ("adjoint_embeds_to_half", first_failing)
    ]
    assert [check for check, ok in symalg.summand_operator_checks(3).items() if not ok] == [
        "adjoint_embeds_to_half"
    ]


def test_negated_bracket_fails_the_scalar_rows(monkeypatch):
    # the bracket is the adjoint extraction of the pair tensor, in
    # ``bracket`` and in ``verify_generalstory`` alike
    original = symalg.adjoint_extract

    def negated(x):
        return original(x) * -1

    monkeypatch.setattr(symalg, "adjoint_extract", negated)
    rows = list(checks.composition_identity(3, 0, None))
    identity = _failed(rows, "composition_identity_on_basis_pairs")
    scalar = _failed(rows, "scalar_term_is_killing_form_multiple")
    # the 30 pairs with a nonzero bracket, each at three weights
    assert len(identity) == 90
    assert scalar == identity
