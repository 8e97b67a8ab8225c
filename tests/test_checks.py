"""The acceptance suites can fail: a planted defect in the library shows up
in the rows of the check that covers it."""

from __future__ import annotations

from bilapsym import checks, symalg


def _failed(rows, check: str) -> list[str]:
    return [case for name, case, ok in rows if name == check and not ok]


def test_negated_bracket_fails_the_scalar_rows(monkeypatch):
    original = symalg.bracket

    def negated(u, v):
        return original(u, v) * -1

    monkeypatch.setattr(symalg, "bracket", negated)
    rows = list(checks.composition_identity(3, 0, None))
    identity = _failed(rows, "composition_identity_on_basis_pairs")
    scalar = _failed(rows, "scalar_term_is_killing_form_multiple")
    # the 30 pairs with a nonzero bracket, each at three weights
    assert len(identity) == 90
    assert scalar == identity
