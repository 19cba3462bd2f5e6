"""Spreadable isometry families, operator angles, minimal towers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cosimplex import spread
from cosimplex.errors import NotSpreadableError, PreconditionError
from cosimplex.fixtures import ell2_family, ell2_tower, prototypical
from cosimplex.linalg import Matrix, primitive
from cosimplex.spread import (
    SpreadableFamily,
    check_complete_invariant,
    check_theorem_C,
    float_check_theorem_C,
    float_from_contraction,
    float_operator_angle,
    from_contraction,
    minimal_sch,
    operator_angle,
    roundtrip_from_sch,
)
from cosimplex.tower import check_tower, from_scs, innovation_bases

F = Fraction


def diag(*entries):
    k = len(entries)
    return Matrix.from_entries(k, k, {(i, i): F(x) for i, x in enumerate(entries)})


# -- construction from a contraction ----------------------------------------------------


def test_from_contraction_scalar_exact():
    fam = from_contraction(diag(F(9, 25)), 6)
    report = operator_angle(fam)
    assert report.operator_angle == diag(F(9, 25))
    assert report.positive and report.contraction
    assert report.fixed_space_identity


def test_from_contraction_identity_gives_constant_family():
    fam = from_contraction(diag(1, 1), 4)
    for n in range(1, fam.count):
        assert fam.iota(n) == fam.iota(0)
    assert operator_angle(fam).operator_angle == diag(1, 1)


def test_from_contraction_zero_gives_orthogonal_images():
    fam = from_contraction(diag(0), 4)
    for j in range(1, fam.count):
        for i in range(j):
            assert (fam.iota(j).transpose() * fam.iota(i)).is_zero()


def test_from_contraction_rejects_bad_input():
    with pytest.raises(PreconditionError):
        from_contraction(diag(2), 3)  # not a contraction
    with pytest.raises(PreconditionError):
        from_contraction(diag(F(1, 2)), 3)  # irrational square root
    bad = Matrix([[F(1, 2), F(1, 4)], [F(1, 4), F(1, 2)]])
    with pytest.raises(PreconditionError):
        from_contraction(bad, 3)  # off-diagonal needs the floating path


def test_angle_round_trip():
    for c in (F(0), F(9, 25), F(16, 25), F(1)):
        fam = from_contraction(diag(c), 5)
        assert operator_angle(fam).operator_angle == diag(c)


def test_operator_angle_rejects_perturbed_family():
    fam = from_contraction(diag(F(9, 25)), 4)
    bump = Matrix.from_entries(fam.ambient_dim, fam.k_dim, {(0, 0): F(1, 7)})
    broken = SpreadableFamily(
        fam.k_dim, fam.ambient_dim, [fam.iota(0), fam.iota(1), fam.iota(2) + bump],
        fam.gram, None,
    )
    with pytest.raises(NotSpreadableError) as err:
        operator_angle(broken)
    assert err.value.witness in {(0, 2), (1, 2), (2, 2)}


# -- the sequence-space example -----------------------------------------------------------


def test_ell2_angle_is_one_half():
    fam = ell2_family(5)
    report = operator_angle(fam)
    assert report.raw_angle == Matrix([[F(1)]])
    assert report.operator_angle == Matrix([[F(1, 2)]])
    assert report.fixed_space_identity


def test_ell2_innovation_generators():
    tower = ell2_tower(5)
    assert check_tower(tower).ok
    dim = tower.ambient_dim
    innov = innovation_bases(tower)
    for k in range(1, 5):
        vs = innov[k]
        assert len(vs) == 1
        expect = [F(1)] + [F(-1)] * k + [F(k + 1)] + [F(0)] * (dim - k - 2)
        assert primitive(vs[0]) == primitive(tuple(expect))


def test_ell2_shift_decomposition_coefficients():
    tower = ell2_tower(5)
    g0, g1, g2 = (innovation_bases(tower)[k][0] for k in (0, 1, 2))
    image = tower.alpha(0) * g1
    sol = Matrix.from_columns([g0, g1, g2]).solve(image)
    assert sol == (F(1, 2), F(-1, 6), F(2, 3))


def test_ell2_is_not_saturated_but_theorem_C_holds():
    fam = ell2_family(5)
    report = check_theorem_C(fam)
    assert report.ok
    assert report.orthogonal_complements and report.angle_identity
    assert not report.saturated


# -- minimal towers and round trips ----------------------------------------------------------


def test_minimal_sch_of_contraction_family():
    fam = from_contraction(diag(F(9, 25), F(16, 25)), 4)
    tower = minimal_sch(fam)
    assert check_tower(tower).ok
    assert tower.dim(0) == 2
    assert tower.dim(-1) == 0


def test_roundtrip_from_prototypical_tower():
    tower = from_scs(prototypical(5))
    fam = roundtrip_from_sch(tower)
    report = operator_angle(fam)
    assert report.raw_angle.is_zero()
    for n in range(fam.count):
        col = fam.iota(n).column(0)
        assert col == tuple(F(1) if i == n else F(0) for i in range(6))


def test_roundtrip_constant_family():
    # a tower whose level 0 is already fixed by the bottom shift
    one = Matrix.identity(1)
    zero = Matrix.zeros(1, 0)
    from cosimplex.tower import HilbertTower

    tower = HilbertTower(3, 1, [zero, one, one, one, one], [one, one, one])
    fam = roundtrip_from_sch(tower)
    report = operator_angle(fam)
    assert report.raw_angle == fam.gram  # the angle is the identity of K


def test_roundtrip_ell2_recovers_family():
    tower = ell2_tower(5)
    fam = roundtrip_from_sch(tower)
    report = operator_angle(fam)
    assert report.operator_angle == Matrix([[F(1, 2)]])


def test_minimal_sch_rejects_inconsistent_dependent_family():
    # three maps with iota_0 = iota_1 != iota_2: the defining formula for the
    # bottom shift contradicts itself on the dependent span
    dim = 3
    e0 = Matrix.from_columns([(F(1), F(0), F(0))], nrows=dim)
    e1 = Matrix.from_columns([(F(0), F(1), F(0))], nrows=dim)
    broken = SpreadableFamily(1, dim, [e0, e0, e1], None, None)
    with pytest.raises(NotSpreadableError):
        minimal_sch(broken)


def test_minimal_sch_reports_the_first_inconsistent_shift():
    fam = from_contraction(diag(F(9, 25)), 3)
    identity = Matrix.identity(fam.ambient_dim)
    for broken, first in (([1], 1), ([2, 1], 1), ([0, 2], 0)):
        shifts = list(fam.ambient_shifts)
        for n in broken:
            shifts[n] = identity
        family = SpreadableFamily(1, fam.ambient_dim, fam.isometries, fam.gram, shifts)
        with pytest.raises(NotSpreadableError, match=f"shift {first} is inconsistent"):
            minimal_sch(family)


# -- conditional orthogonality ------------------------------------------------------------------


def test_theorem_C_exact_constructions():
    rng = random.Random(41)
    squares = [F(0), F(9, 25), F(16, 25), F(144, 169), F(25, 169), F(1)]
    for _ in range(12):
        k = rng.randint(1, 3)
        C = diag(*[rng.choice(squares) for _ in range(k)])
        fam = from_contraction(C, rng.randint(2, 5))
        report = check_theorem_C(fam)
        assert report.ok, report.failures


def test_theorem_C_identity_contraction():
    fam = from_contraction(diag(1), 4)
    report = check_theorem_C(fam)
    assert report.ok
    assert report.saturated
    assert report.projection_when_saturated


def test_theorem_C_needs_shifts():
    fam = from_contraction(diag(F(9, 25)), 3)
    stripped = SpreadableFamily(1, fam.ambient_dim, fam.isometries, fam.gram, None)
    with pytest.raises(PreconditionError):
        check_theorem_C(stripped)


def test_theorem_C_projection_case():
    # a projection angle: saturated minimal tower
    fam = from_contraction(diag(1, 0), 4)
    report = check_theorem_C(fam)
    assert report.ok
    assert report.saturated and report.projection_when_saturated


def test_each_fixed_projection_is_computed_once_per_call(monkeypatch):
    seen = []
    compute = spread._fixed_projection

    def counted(A):
        seen.append(A)
        return compute(A)

    monkeypatch.setattr(spread, "_fixed_projection", counted)
    fam = from_contraction(diag(1, 0), 4)
    shifts = fam.ambient_shifts
    operator_angle(fam)
    assert len(seen) == 1 and seen[0] is shifts[0]
    seen.clear()
    # shift 0 once, then each higher shift once in the saturation test
    assert check_theorem_C(fam).saturated
    assert len(seen) == len(shifts) and all(a is b for a, b in zip(seen, shifts))
    seen.clear()
    assert check_complete_invariant(fam, from_contraction(diag(0, 1), 4)).equivalent
    assert seen == []


def test_minimal_sch_inverts_one_gram_for_all_solved_shifts(monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counted(M):
        calls.append((M.nrows, M.ncols))
        return inverse(M)

    monkeypatch.setattr(Matrix, "inverse", counted)
    fam = ell2_family(4)
    fam.ambient_shifts = None
    tower = minimal_sch(fam)
    assert len(tower.shifts) == 4
    assert calls == [(4, 4)]


def test_a_singular_gram_is_a_precondition_error():
    iota = Matrix.from_entries(2, 2, {(0, 0): 1})
    fam = SpreadableFamily(2, 2, [iota, iota], iota)
    with pytest.raises(PreconditionError, match="singular"):
        operator_angle(fam)


# -- complete invariant ------------------------------------------------------------------------------


def test_complete_invariant_same_contraction():
    a = from_contraction(diag(F(9, 25)), 4)
    b = from_contraction(diag(F(9, 25)), 4)
    result = check_complete_invariant(a, b)
    assert result.equivalent and result.intertwiner_verified


def test_complete_invariant_different_angles():
    a = from_contraction(diag(F(9, 25)), 4)
    b = from_contraction(diag(F(16, 25)), 4)
    result = check_complete_invariant(a, b)
    assert not result.equivalent


def test_complete_invariant_scaled_presentations():
    # the sequence-space family equals the half-angle construction family
    # up to normalization of K
    a = ell2_family(4)
    b_iotas = []
    for n in range(5):
        col = [F(0)] * a.ambient_dim
        col[0] = F(1, 2)
        col[n + 1] = F(1, 2)
        b_iotas.append(Matrix.from_columns([tuple(col)], nrows=a.ambient_dim))
    b = SpreadableFamily(1, a.ambient_dim, b_iotas, Matrix([[F(1, 2)]]), a.ambient_shifts)
    result = check_complete_invariant(a, b)
    assert result.equivalent and result.intertwiner_verified


def test_complete_invariant_dimension_mismatch():
    a = from_contraction(diag(F(9, 25)), 3)
    b = from_contraction(diag(F(9, 25), F(9, 25)), 3)
    assert not check_complete_invariant(a, b).equivalent


# -- floating path ------------------------------------------------------------------------------------


def test_float_from_contraction_random_psd():
    rng = np.random.default_rng(12345)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        raw = rng.normal(size=(k, k))
        sym = raw @ raw.T
        C = sym / (np.linalg.eigvalsh(sym).max() + rng.uniform(0.1, 1.0))
        fam = float_from_contraction(C, int(rng.integers(2, 8)))
        angle, dev = float_operator_angle(fam)
        assert dev <= 1e-10
        assert np.allclose(angle, C, atol=1e-10)
        result = float_check_theorem_C(fam)
        assert result["ok"], result


def test_float_rejects_non_contraction():
    with pytest.raises(PreconditionError):
        float_from_contraction(np.diag([1.5]), 3)


# -- property suites -------------------------------------------------------------------------------


def test_roundtrip_families_are_always_spreadable():
    # powers of the bottom shift of any valid tower give a constant angle
    import random as _random

    from cosimplex.fixtures import layered_scs
    from cosimplex.scs import from_ell

    rng = _random.Random(71)
    towers = [from_scs(prototypical(5)), ell2_tower(4), from_scs(layered_scs([0, 2, 1], 3))]
    for _ in range(15):
        N = rng.randint(2, 5)
        values = [rng.randint(0, N)]
        for n in range(1, N + 1):
            values.append(rng.randint(n, values[n - 1] + 1))
        towers.append(from_scs(from_ell(values, N)))
    for tower in towers:
        fam = roundtrip_from_sch(tower)
        if fam.k_dim == 0 or fam.count < 2:
            continue
        operator_angle(fam)  # raises if not spreadable


def test_minimal_tower_has_only_level_zero_roots():
    from cosimplex.tower import root_space

    for fam in (from_contraction(diag(F(9, 25), F(16, 25)), 4), ell2_family(5)):
        tower = minimal_sch(fam)
        assert len(root_space(tower, 0)) == tower.dim(0)
        for k in range(1, tower.max_level):
            assert root_space(tower, k) == []
