"""Truncated semi-cosimplicial sets: validation, generators, saturation."""

import random

import pytest

from cosimplex import scs as scs_mod
from cosimplex.errors import TruncationError
from cosimplex.fixtures import disjoint_union, example2_scs, figure2_scs, layered_scs
from cosimplex.scs import (
    TruncatedSCS,
    check_saturation,
    check_toy_definetti_scs,
    ell_violation_index,
    fixed_set,
    from_ell,
    normal_label_bits,
    prototypical,
    saturate,
    validate,
)
from structures import random_valid_ell


# -- prototypical -----------------------------------------------------------------


def test_prototypical_shifts():
    scs = prototypical(5)
    assert validate(scs).ok
    assert scs.alpha(0, 0) == 1
    assert scs.alpha(3, 2) == 2
    for n in range(6):
        assert scs.levels[n] == n


def test_empty_scs_is_valid():
    scs = TruncatedSCS(-1, {}, ())
    assert validate(scs).ok
    scs0 = TruncatedSCS(2, {}, ({}, {}))
    assert validate(scs0).ok


def test_fixed_point_violation_detected():
    # ball 1 forced into box 0: the shift alpha_1 no longer fixes it
    levels = {0: 0, 1: 0, 2: 2}
    shifts = ({0: 1, 1: 2}, {0: 0, 1: 2})
    report = validate(TruncatedSCS(2, levels, shifts))
    assert not report.ok
    assert any(v.kind == "fixed-point" for v in report.violations)


# -- the ball-in-box family ----------------------------------------------------------


def test_from_ell_example2_levels():
    scs = example2_scs(5)
    assert validate(scs).ok
    assert scs.X(2) == {0, 2}
    assert scs.X(3) == {0, 1, 2, 3}
    D = scs.innovation_sets()
    assert D[2] == {0, 2}
    assert D[3] == {1, 3}


def test_from_ell_identity_gives_prototypical():
    scs = from_ell(list(range(7)), 6)
    assert scs == prototypical(6)


def test_from_ell_rejects_first_bad_index():
    with pytest.raises(ValueError, match="index 1"):
        from_ell([0, 2, 2], 2)
    assert ell_violation_index([0, 2, 2]) == 1
    assert ell_violation_index([2, 3, 2, 3, 4, 5]) is None


def test_from_ell_validity_exhaustive_small():
    # every level function over a small window either builds a valid
    # structure or is rejected, and rejection matches the inequality test
    N = 3
    for code in range(5 ** (N + 1)):
        values = [(code // 5**n) % 5 for n in range(N + 1)]
        bad = ell_violation_index(values)
        if bad is None:
            assert validate(from_ell(values, N)).ok
        else:
            with pytest.raises(ValueError):
                from_ell(values, N)


def test_invalid_ell_visible_in_raw_structure():
    # when the violation touches stored levels, building the structure by
    # hand and validating it reports a violation
    rng = random.Random(207)
    checked = 0
    for _ in range(300):
        N = 7
        values = [rng.randint(0, N) for _ in range(N + 1)]
        bad = ell_violation_index(values)
        if bad is None or bad > N - 1 or values[bad - 1] > N - 1:
            continue
        levels = {n: values[n] for n in range(N + 1) if values[n] <= N}
        domain = [n for n, lv in levels.items() if lv <= N - 1]
        shifts = tuple(
            {n: (n + 1 if i <= n else n) for n in domain} for i in range(N)
        )
        report = validate(TruncatedSCS(N, levels, shifts))
        assert not report.ok, values
        checked += 1
    assert checked > 20


# -- innovation sets and fixed sets -----------------------------------------------------


def test_innovation_sets_prototypical():
    scs = prototypical(4)
    D = scs.innovation_sets()
    for k in range(5):
        assert D[k] == {k}
    assert D[-1] == frozenset()


def test_fixed_sets():
    scs = prototypical(6)
    for n in range(6):
        assert fixed_set(scs, n) == frozenset(range(n))
    ex2 = example2_scs(5)
    assert fixed_set(ex2, 1) == {0}
    assert 2 in fixed_set(ex2, 3)
    assert ex2.levels[2] == 2


def test_fixed_set_range_errors():
    with pytest.raises(ValueError):
        fixed_set(prototypical(3), 3)
    with pytest.raises(ValueError):
        fixed_set(prototypical(3), -1)


# -- saturation ---------------------------------------------------------------------------


def test_prototypical_is_saturated():
    scs = prototypical(6)
    for n in range(-1, 5):
        assert check_saturation(scs, n)


def test_example2_saturation_pattern():
    scs = example2_scs(5)
    assert check_saturation(scs, -1).holds
    res = check_saturation(scs, 2)
    assert not res.holds
    assert res.witnesses == [1]
    # the level-5 element cannot be tested for fixedness
    assert res.truncation_limited
    # saturated at level 0 up to level 1: no witness of level <= 1
    res = check_saturation(scs, 0)
    assert all(scs.levels[x] > 1 for x in res.witnesses)
    # but not at level 0 unrestricted: element 0 is fixed by alpha_1
    assert not res.holds


def test_saturate_example2_gives_prototypical_levels():
    scs = example2_scs(5)
    sat = saturate(scs)
    assert sat.levels == {n: n for n in range(6)}
    assert sat.shifts == scs.shifts
    assert validate(sat).ok
    for n in range(-1, sat.max_level - 1):
        assert check_saturation(sat, n)


def test_saturate_fixed_points():
    proto = prototypical(5)
    assert saturate(proto) == proto
    fig2 = figure2_scs()
    assert saturate(fig2) == fig2  # already saturated


def test_saturate_idempotent_and_contains_original():
    rng = random.Random(5)
    for _ in range(40):
        N = rng.randint(1, 6)
        scs = from_ell(random_valid_ell(rng, N), N)
        try:
            sat = saturate(scs)
        except TruncationError:
            continue
        assert saturate(sat) == sat
        for k in range(-1, N + 1):
            assert scs.X(k) <= sat.X(k)


def test_normal_label_bits_examples():
    proto = prototypical(5)
    for n in range(5):
        bits = normal_label_bits(proto, n)
        assert bits == tuple(0 if i != n else 1 for i in range(n + 1))
    ex2 = example2_scs(5)
    assert normal_label_bits(ex2, 1) == (0, 1)  # the label {1}
    assert normal_label_bits(ex2, 0) == (1,)  # the label {0}
    with pytest.raises(TruncationError):
        normal_label_bits(ex2, 5)


# -- the saturation / innovation dictionary ---------------------------------------------------


def test_definetti_prototypical():
    report = check_toy_definetti_scs(prototypical(6))
    assert report.ok
    for lv in report.levels:
        assert lv.shifts_innovations
        assert lv.equivalence_ok


def test_definetti_example2_counterexample():
    report = check_toy_definetti_scs(example2_scs(5))
    assert report.ok  # the equivalence itself always holds
    # saturated at level -1 while alpha_0 throws innovation 1 back to level 2
    hits = [w for w in report.converse_first_failures if w["n"] == 0]
    assert hits and hits[0]["k"] == 3 and hits[0]["x"] == 1
    assert hits[0]["image"] == 2 and hits[0]["image_level"] == 2


def test_definetti_random_ell_family():
    rng = random.Random(99)
    for _ in range(60):
        N = rng.randint(1, 7)
        scs = from_ell(random_valid_ell(rng, N), N)
        report = check_toy_definetti_scs(scs)
        assert report.ok, report.bugs


def test_definetti_scans_saturation_once_per_level(monkeypatch):
    calls = []
    scan = scs_mod.check_saturation

    def counted(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return scan(*args, **kwargs)

    monkeypatch.setattr(scs_mod, "check_saturation", counted)
    assert check_toy_definetti_scs(prototypical(6)).ok
    assert calls == [((n - 1,), {}) for n in range(6)]


# -- mutations: validate catches exactly the broken invariant ---------------------------------


def test_validate_catches_injectivity_break():
    scs = example2_scs(5)
    shifts = [dict(m) for m in scs.shifts]
    shifts[0][0] = shifts[0][2]  # two sources, one target
    report = validate(TruncatedSCS(5, dict(scs.levels), tuple(shifts)))
    assert any(v.kind == "injectivity" for v in report.violations)


def test_validate_catches_adaptedness_break():
    scs = example2_scs(5)
    shifts = [dict(m) for m in scs.shifts]
    shifts[0][0] = 5  # level 5 image of a level-2 element
    report = validate(TruncatedSCS(5, dict(scs.levels), tuple(shifts)))
    assert any(v.kind == "adaptedness" for v in report.violations)


def test_validate_catches_exchange_break():
    scs = example2_scs(5)
    shifts = [dict(m) for m in scs.shifts]
    shifts[0][0], shifts[0][2] = 3, 1  # still injective and adapted
    report = validate(TruncatedSCS(5, dict(scs.levels), tuple(shifts)))
    kinds = {v.kind for v in report.violations}
    assert kinds == {"exchange"}


def reference_exchange(scs):
    """The exchange loop of ``validate`` evaluated through ``scs.alpha``."""
    N = scs.max_level
    deep = [x for x in scs.shift_domain() if scs.levels[x] <= N - 2]
    out = []
    for j in range(1, N):
        for i in range(j):
            for x in deep:
                if scs.alpha(j, scs.alpha(i, x)) != scs.alpha(i, scs.alpha(j - 1, x)):
                    message = f"alpha_{j} alpha_{i} != alpha_{i} alpha_{j-1} at {scs.name(x)}"
                    out.append(("exchange", message, {"i": i, "j": j, "x": x}))
    return out


def test_validate_exchange_report_equals_the_alpha_reference():
    rng = random.Random(41)
    seeds = [example2_scs(5), figure2_scs(), layered_scs([1, 1, 1], 5), prototypical(6)]
    broken = 0
    for trial in range(400):
        if trial % 2:
            N = rng.randint(2, 7)
            scs = from_ell(random_valid_ell(rng, N), N)
        else:
            scs = rng.choice(seeds)
        shifts = [dict(m) for m in scs.shifts]
        mapping = rng.choice(shifts)
        if len(mapping) < 2:
            continue
        x1, x2 = rng.sample(sorted(mapping), 2)
        mapping[x1], mapping[x2] = mapping[x2], mapping[x1]
        mutated = TruncatedSCS(scs.max_level, dict(scs.levels), tuple(shifts), dict(scs.names))
        found = [(v.kind, v.message, v.witness) for v in validate(mutated).violations]
        if any(kind != "exchange" for kind, _, _ in found):
            continue  # an earlier check failed, so the exchange loop never ran
        assert found == reference_exchange(mutated)
        broken += bool(found)
    assert broken >= 20


def test_validate_catches_missing_target():
    levels = {0: 0}
    shifts = ({0: 7},)
    report = validate(TruncatedSCS(1, levels, shifts))
    assert any(v.kind == "shift-target" for v in report.violations)


def test_validate_catches_domain_mismatch():
    levels = {0: 0, 1: 1}
    shifts = ({},)  # alpha_0 should be defined on element 0
    report = validate(TruncatedSCS(1, levels, shifts))
    assert any(v.kind == "shift-domain" for v in report.violations)


# -- disjoint union -----------------------------------------------------------------------------


def test_disjoint_union():
    a = prototypical(3)
    u = disjoint_union(a, a)
    assert validate(u).ok
    assert len(u.levels) == 2 * len(a.levels)
