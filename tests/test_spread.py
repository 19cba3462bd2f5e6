"""Spreadable isometry families, operator angles, minimal towers."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from cosimplex import spread
from cosimplex.errors import NotSpreadableError, PreconditionError
from cosimplex.fixtures import ell2_family, ell2_tower, prototypical
from cosimplex.io_json import tower_to_dict
from cosimplex.linalg import Matrix, primitive, pseudo_inverse
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
from structures import diag, random_valid_ell

F = Fraction


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
    # exact: the image lies in the span of g0, g1, g2
    sol = pseudo_inverse(Matrix.from_columns([g0, g1, g2])) * image
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


def broken_shift_families():
    """Builders of a family with some shifts replaced by the identity, each
    with the first shift that then fails."""
    fam = from_contraction(diag(F(9, 25)), 3)
    identity = Matrix.identity(fam.ambient_dim)
    for broken, first in (([1], 1), ([2, 1], 1), ([0, 2], 0)):
        shifts = list(fam.ambient_shifts)
        for n in broken:
            shifts[n] = identity
        yield (lambda s=shifts: SpreadableFamily(1, fam.ambient_dim, fam.isometries, fam.gram, s)), first


def test_minimal_sch_reports_the_first_inconsistent_shift():
    for build, first in broken_shift_families():
        with pytest.raises(NotSpreadableError, match=f"shift {first} is inconsistent"):
            minimal_sch(build())


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
    # Q_0 is the family's, projected by operator_angle above: the saturation
    # test projects only the higher shifts, each once
    assert check_theorem_C(fam).saturated
    assert len(seen) == len(shifts) - 1 and all(a is b for a, b in zip(seen, shifts[1:]))
    seen.clear()
    assert check_complete_invariant(fam, from_contraction(diag(0, 1), 4)).equivalent
    assert seen == []


# -- what a family derives, once -----------------------------------------------------------


def bench_sequence(fam, partner):
    """The calls of one spread job of the benchmark, in its order, as JSON."""
    return [
        operator_angle(fam).to_dict(),
        tower_to_dict(minimal_sch(fam)),
        check_theorem_C(fam).to_dict(),
        check_complete_invariant(fam, partner).to_dict(),
    ]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: from_contraction(diag(F(9, 25)), 4), id="contraction"),
        pytest.param(lambda: ell2_family(5), id="ell2"),
    ],
)
def test_the_bench_sequence_derives_each_piece_once_per_family(monkeypatch, build):
    calls = []
    for name in ("_angle", "_span_tower", "_fixed_projection"):
        def counted(arg, name=name, compute=getattr(spread, name)):
            calls.append((name, arg))
            return compute(arg)

        monkeypatch.setattr(spread, name, counted)
    fam, partner = build(), build()
    sequence = bench_sequence(fam, partner)
    assert sequence[3]["intertwiner_verified"]  # the partner's tower is built too

    def count(name, arg):
        return sum(1 for n, a in calls if n == name and a is arg)

    # the minimal tower, Q_0 and the Q-free angle, once each
    assert count("_span_tower", fam) == 1
    assert count("_fixed_projection", fam.ambient_shifts[0]) == 1
    assert count("_angle", fam) == 1
    # the partner as before: one Q-free angle and one tower, no projection
    assert count("_span_tower", partner) == count("_angle", partner) == 1
    assert not any(count("_fixed_projection", A) for A in partner.ambient_shifts)
    # a second run repeats at most the projections of the higher shifts
    calls.clear()
    assert bench_sequence(fam, partner) == sequence
    assert all(n == "_fixed_projection" and a is not fam.ambient_shifts[0] for n, a in calls)


def test_the_identity_intertwiner_reuses_the_minimal_towers(monkeypatch):
    """Equal spanning Grams give both families the same pivot columns, so the
    intertwiner maps the top basis of one cached tower onto the other's and
    eliminates no spanning set again: one elimination per family."""
    calls = []
    select = Matrix.independent_columns

    def counted(self):
        calls.append(self.ncols)
        return select(self)

    monkeypatch.setattr(Matrix, "independent_columns", counted)
    sequence = bench_sequence(ell2_family(6), ell2_family(6))
    assert sequence[3]["intertwiner_verified"]
    assert calls == [7, 7]


def pythagorean(*triples):
    return diag(*[F(a * a, c * c) for a, _, c in triples])


# the spread jobs of the benchmark's rational workload: (k, N) contractions
# against a permuted presentation, and ell2 families against themselves
SPREAD_SHAPES = [
    pytest.param(
        lambda T=T, N=N: from_contraction(pythagorean(*T), N),
        lambda T=T, N=N: from_contraction(pythagorean(*reversed(T)), N),
        id=f"contraction-k{len(T)}-N{N}",
    )
    for T, N in (
        (((3, 4, 5),), 4), (((5, 12, 13),), 5), (((8, 15, 17), (7, 24, 25)), 4),
        (((20, 21, 29), (12, 35, 37)), 5), (((3, 4, 5), (5, 12, 13), (8, 15, 17)), 4),
    )
] + [
    pytest.param(lambda N=N: ell2_family(N), lambda N=N: ell2_family(N), id=f"ell2-N{N}")
    for N in (4, 5, 6, 7, 8)
]


@pytest.mark.parametrize("build, build_partner", SPREAD_SHAPES)
def test_a_shared_family_reports_what_fresh_families_report(build, build_partner):
    fresh = [
        operator_angle(build()).to_dict(),
        tower_to_dict(minimal_sch(build())),
        check_theorem_C(build()).to_dict(),
        check_complete_invariant(build(), build_partner()).to_dict(),
    ]
    fam, partner = build(), build_partner()
    assert bench_sequence(fam, partner) == fresh
    assert bench_sequence(fam, partner) == fresh
    assert bench_sequence(partner, fam)[3] == check_complete_invariant(
        build_partner(), build()
    ).to_dict()


def test_a_family_that_is_not_spreadable_raises_on_every_call():
    perturbed = from_contraction(diag(F(9, 25)), 4)
    bump = Matrix.from_entries(perturbed.ambient_dim, 1, {(0, 0): F(1, 7)})
    isometries = perturbed.isometries[:2] + [perturbed.iota(2) + bump]
    cases = [((lambda: SpreadableFamily(1, perturbed.ambient_dim, isometries)), operator_angle)]
    for build, _ in broken_shift_families():
        cases += [(build, minimal_sch), (build, check_theorem_C)]
    for build, analysis in cases:
        with pytest.raises(NotSpreadableError) as fresh:
            analysis(build())
        shared = build()
        for _ in range(2):
            with pytest.raises(NotSpreadableError) as again:
                analysis(shared)
            assert (str(again.value), again.value.witness) == (str(fresh.value), fresh.value.witness)


def test_minimal_sch_inverts_one_gram_for_all_solved_shifts(monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counted(M):
        calls.append((M.nrows, M.ncols))
        return inverse(M)

    monkeypatch.setattr(Matrix, "inverse", counted)
    fam = dataclasses.replace(ell2_family(4), ambient_shifts=None)
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
        towers.append(from_scs(from_ell(random_valid_ell(rng, N), N)))
    for tower in towers:
        fam = roundtrip_from_sch(tower)
        if fam.k_dim == 0 or fam.count < 2:
            continue
        operator_angle(fam)  # raises if not spreadable


def test_minimal_tower_has_only_level_zero_roots():
    from cosimplex.tower import root_space

    for fam in (from_contraction(diag(F(9, 25), F(16, 25)), 4), ell2_family(5)):
        tower = minimal_sch(fam)
        innov = innovation_bases(tower)
        assert len(root_space(tower, 0, innov)) == tower.dim(0)
        for k in range(1, tower.max_level):
            assert root_space(tower, k, innov) == []
