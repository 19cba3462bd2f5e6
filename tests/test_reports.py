"""The shared report base: one shallow ``to_dict`` for every verdict report."""

from dataclasses import fields

import pytest

from cosimplex.cohomology import CohomologyReport, LevelCohomology, build_complex, cohomology
from cosimplex.fixtures import ell2_family, example2_scs, prototypical
from cosimplex.normal_ext import EpsilonLemmaReport, check_epsilon_lemma
from cosimplex.scs import (
    CheckReport,
    DeFinettiLevel,
    DeFinettiReport,
    Report,
    SaturationResult,
    TruncatedSCS,
    ValidationReport,
    Violation,
    check_saturation,
    check_toy_definetti_scs,
    validate,
)
from cosimplex.spread import InvariantResult, TheoremCReport, check_complete_invariant, check_theorem_C
from cosimplex.tower import NormalityReport, check_normal, check_tower, from_scs


def _invalid():
    # level 5 is out of range, and both shifts then lift 1 by more than one level
    return TruncatedSCS(2, {0: 0, 1: 1, 2: 5}, ({0: 1, 1: 2}, {0: 0, 1: 2}))


# class, one instance, whether it carries an ``ok`` verdict
CASES = [
    (ValidationReport, lambda: validate(_invalid()), True),
    (Violation, lambda: validate(_invalid()).violations[0], False),
    (CheckReport, lambda: check_tower(from_scs(prototypical(2))), True),
    (SaturationResult, lambda: check_saturation(prototypical(3), 0), False),
    (DeFinettiLevel, lambda: check_toy_definetti_scs(example2_scs(4)).levels[0], False),
    (DeFinettiReport, lambda: check_toy_definetti_scs(example2_scs(4)), True),
    (EpsilonLemmaReport, lambda: check_epsilon_lemma(prototypical(3)), True),
    (TheoremCReport, lambda: check_theorem_C(ell2_family(2)), True),
    (InvariantResult, lambda: check_complete_invariant(ell2_family(2), ell2_family(2)), False),
    (NormalityReport, lambda: check_normal(from_scs(prototypical(2))), False),
    (LevelCohomology, lambda: cohomology(build_complex(prototypical(3))).levels[1], False),
    (CohomologyReport, lambda: cohomology(build_complex(prototypical(3))), False),
]


@pytest.mark.parametrize("cls, make, verdict", CASES, ids=[c[0].__name__ for c in CASES])
def test_to_dict_is_the_verdict_then_every_field_in_order(cls, make, verdict):
    report = make()
    assert type(report) is cls and isinstance(report, Report)
    assert "to_dict" not in vars(cls)
    names = [f.name for f in fields(cls)]
    out = report.to_dict()
    assert list(out) == (["ok"] if verdict else []) + names
    if verdict:
        assert out["ok"] is report.ok
    for name in names:
        value = getattr(report, name)
        if isinstance(value, list) and value and isinstance(value[0], Report):
            # nested reports become dicts, in order
            assert out[name] == [v.to_dict() for v in value]
        else:
            # every other value is the report's own object, not a copy
            assert out[name] is value


def test_nested_reports_and_shared_lists_are_exercised():
    violations = validate(_invalid()).to_dict()["violations"]
    assert [v["kind"] for v in violations] == ["level-range", "adaptedness", "adaptedness"]
    assert violations[0] == {
        "kind": "level-range",
        "message": "element 2 has level 5",
        "witness": {"x": 2},
    }
    report = cohomology(build_complex(prototypical(3)))
    levels = report.to_dict()["levels"]
    assert all(type(entry) is dict for entry in levels)
    assert levels[1]["cocycle_basis"] is report.levels[1].cocycle_basis
    check = check_tower(from_scs(prototypical(2)))
    assert check.to_dict()["checks"] is check.checks


def test_each_to_dict_is_a_fresh_dict():
    report = cohomology(build_complex(prototypical(2)))
    first, second = report.to_dict(), report.to_dict()
    first["levels"][0].pop("cocycle_basis")
    assert "cocycle_basis" in second["levels"][0]
    assert "cocycle_basis" in report.to_dict()["levels"][0]
