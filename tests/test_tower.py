"""Hilbert towers: structure checks, labeled subspaces, normality, generators."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cosimplex.errors import NotNormalError
from cosimplex import tower as tower_mod
from cosimplex.fixtures import (
    example2_scs,
    figure2_scs,
    identity_shift_tower,
    layer_minus_root_scs,
    layered_scs,
    prototypical,
    random_rational_rotation,
    random_signed_permutation,
    rotate_tower,
)
from cosimplex.labels import Label
from cosimplex.linalg import Matrix, fixed_vectors, span_basis, subspace_equal
from cosimplex.normal_ext import is_normal_scs
from cosimplex.scs import TruncatedSCS, disjoint_union, from_ell
from cosimplex.tower import (
    HessenbergData,
    build_symmetric_rep,
    check_adjoint_intertwining,
    check_hessenberg,
    check_normal,
    check_toy_definetti,
    check_tower,
    fixed_space,
    from_scs,
    innovation_basis,
    intertwines,
    labeled_subspaces,
    permutation_unitary,
    root_dimension_sequence,
    root_space,
    unitary_equivalence,
)


def e(i, dim):
    return tuple(Fraction(1) if r == i else Fraction(0) for r in range(dim))


def transposition(dim, a, b):
    """Permutation matrix swapping coordinates a and b."""
    fixed = {(i, i): 1 for i in range(dim) if i not in (a, b)}
    return Matrix.from_entries(dim, dim, {**fixed, (a, b): 1, (b, a): 1})


def fig2_tower_and_ids():
    scs = figure2_scs()
    tower = from_scs(scs)
    order = sorted(scs.levels, key=lambda x: (scs.levels[x], x))
    pos = {scs.names[x]: i for i, x in enumerate(order)}
    return tower, pos


# -- construction -----------------------------------------------------------------


def test_from_scs_prototypical_unilateral_shift():
    tower = from_scs(prototypical(3))
    assert check_tower(tower).ok
    A0 = tower.shifts[0]
    for n in range(3):
        assert A0 * e(n, 4) == e(n + 1, 4)


def test_from_scs_figure2_dimensions():
    tower, _ = fig2_tower_and_ids()
    assert tower.ambient_dim == 5
    assert tower.dim(2) == 2 and tower.dim(3) == 5
    assert check_tower(tower).ok


def test_from_scs_empty():
    tower = from_scs(TruncatedSCS(1, {}, ({},)))
    assert tower.ambient_dim == 0
    assert check_tower(tower).ok


def test_check_tower_flags_broken_isometry():
    tower = from_scs(prototypical(3))
    A0 = tower.shifts[0]
    assert A0[1, 0] == 1  # alpha_0 sends e_0 to e_1
    broken = A0 + Matrix.from_entries(4, 4, {(1, 0): 1})  # ... and now to 2 e_1
    tower = replace(tower, shifts=[broken, *tower.shifts[1:]])
    assert not check_tower(tower).ok


# -- innovations and fixed spaces ------------------------------------------------------


def test_innovation_basis_scs_towers():
    tower = from_scs(example2_scs(5))
    for k in (2, 3):
        vs = innovation_basis(tower, k)
        assert len(vs) == 2
    assert innovation_basis(tower, 0) == []  # H_0 = H_{-1}


def test_fixed_space_prototypical():
    tower = from_scs(prototypical(6))
    for n in range(5):
        basis, flag = fixed_space(tower, n)
        assert subspace_equal(basis, [e(i, 7) for i in range(n)])
        assert flag  # top innovation nonzero: could extend beyond ambient


def test_fixed_space_identity_shift_tower():
    tower = identity_shift_tower(4)
    basis, flag = fixed_space(tower, 0)
    assert subspace_equal(basis, [e(0, 1)])
    assert not flag


# -- saturation dictionary ---------------------------------------------------------------


def test_definetti_prototypical_tower():
    report = check_toy_definetti(from_scs(prototypical(5)))
    assert report.ok
    sat = [c for c in report.checks if c["check"] == "saturated-at-level"]
    assert all(c["holds"] for c in sat)


def test_definetti_identity_shift_tower():
    # innovations shift at the bottom yet the tower is not saturated there
    report = check_toy_definetti(identity_shift_tower(4))
    assert report.ok
    conv = [c for c in report.checks if c["check"] == "converse-second-implication-fails"]
    assert any(c["n"] == 0 for c in conv)
    sat = {c["level"]: c["holds"] for c in report.checks if c["check"] == "saturated-at-level"}
    assert sat[-1] is False


def test_definetti_example2_tower():
    report = check_toy_definetti(from_scs(example2_scs(5)))
    assert report.ok
    conv = [
        c
        for c in report.checks
        if c["check"] == "converse-first-implication-fails-or-truncation"
    ]
    assert any(c["n"] == 0 for c in conv)


# -- labeled subspaces ----------------------------------------------------------------------


def test_labeled_subspaces_figure2():
    tower, pos = fig2_tower_and_ids()
    subs = labeled_subspaces(tower)
    by_str = {str(lab): vs for lab, vs in subs.items()}
    dim = tower.ambient_dim
    assert subspace_equal(by_str["111"], [e(pos["a"], dim), e(pos["b"], dim)])
    assert subspace_equal(by_str["0111"], [e(pos["x"], dim), e(pos["y"], dim)])
    assert subspace_equal(by_str["1011"], [e(pos["x"], dim), e(pos["z"], dim)])
    assert subspace_equal(by_str["1101"], [e(pos["y"], dim), e(pos["z"], dim)])


def test_labeled_subspaces_prototypical():
    tower = from_scs(prototypical(4))
    subs = labeled_subspaces(tower)
    assert subspace_equal(subs[Label.parse("1")], [e(0, 5)])
    for lab, vs in subs.items():
        assert len(vs) == 1  # all level singletons
    assert len(subs) == 5  # the rank-1 labels of level <= 4


def test_root_spaces_example2():
    tower = from_scs(example2_scs(5))
    assert len(root_space(tower, 2)) == 2
    assert root_space(tower, 3) == []  # level-3 innovation is all shifted


# -- normality criteria -------------------------------------------------------------------------


def test_normal_prototypical():
    report = check_normal(from_scs(prototypical(5)))
    assert report.criteria_agree and report.normal
    details = report.details["decomposition"]
    assert all(details.values())


def test_normal_layered():
    tower = from_scs(layered_scs([1, 2, 1], 3))
    report = check_normal(tower)
    assert report.criteria_agree and report.normal


def level_functions(N):
    """Every valid level function ell(0..N), values capped at N + 1: a value
    above N leaves its element out of the truncation, as N + 1 does."""
    out = [[v] for v in range(N + 2)]
    for n in range(1, N + 1):
        out = [f + [v] for f in out for v in range(n, min(f[-1] + 1, N + 1) + 1)]
    return out


def test_set_level_and_tower_level_normality_agree():
    structures = [from_ell(f, N) for N in (3, 4) for f in level_functions(N)]
    assert len(structures) == 42 + 132
    layered = [
        layered_scs(dims, N) for dims, N in (([1, 1, 1], 3), ([0, 1, 2], 3), ([1, 0, 1], 4))
    ]
    assert all(is_normal_scs(scs)[0] for scs in layered)
    structures += layered
    structures.append(disjoint_union(from_ell([1, 1, 2, 3], 3), from_ell([0, 1, 2, 3], 3)))
    verdicts = set()
    for scs in structures:
        normal = is_normal_scs(scs)[0]
        assert check_normal(from_scs(scs), details=False).normal == normal, scs
        verdicts.add(normal)
    assert verdicts == {True, False}


def test_non_normal_figure2_all_three_criteria():
    tower, _ = fig2_tower_and_ids()
    report = check_normal(tower)
    assert not report.adjoint_exchange
    assert not report.complement_shift
    assert not report.orthogonal_labels
    assert report.criteria_agree and not report.normal
    assert "overlap_witness" in report.details


def test_non_normal_example2():
    report = check_normal(from_scs(example2_scs(5)))
    assert report.criteria_agree and not report.normal


def test_normal_rotated_tower():
    rng = random.Random(4)
    tower = from_scs(layered_scs([0, 1, 1], 3))
    Q = random_rational_rotation(tower.ambient_dim, rng)
    report = check_normal(rotate_tower(tower, Q))
    assert report.criteria_agree and report.normal


# -- symmetric generators ----------------------------------------------------------------------------


def test_symmetric_rep_prototypical_transpositions():
    tower = from_scs(prototypical(5))
    data = build_symmetric_rep(tower)
    dim = tower.ambient_dim
    for j in range(1, 6):
        U = data.u(j)
        assert U == transposition(dim, j - 1, j)


def test_symmetric_rep_identity_permutation():
    tower = from_scs(prototypical(4))
    data = build_symmetric_rep(tower)
    assert permutation_unitary(data, []) == Matrix.identity(5)
    # an inverse pair composes to the identity
    assert permutation_unitary(data, [2, 2]) == Matrix.identity(5)


def test_symmetric_rep_rejects_non_normal():
    tower, _ = fig2_tower_and_ids()
    with pytest.raises(NotNormalError):
        build_symmetric_rep(tower)


def test_hessenberg_checks_pass_on_symmetric_rep():
    for scs in (prototypical(4), layered_scs([1, 1, 1], 3)):
        tower = from_scs(scs)
        data = build_symmetric_rep(tower)
        report = check_hessenberg(data)
        assert report.ok, report.failures[:4]


def test_hessenberg_on_rotated_rep():
    rng = random.Random(17)
    tower = from_scs(layered_scs([0, 2], 3))
    Q = random_rational_rotation(tower.ambient_dim, rng)
    rotated = rotate_tower(tower, Q)
    data = build_symmetric_rep(rotated)
    assert check_hessenberg(data).ok


def test_adjoint_intertwining_saturated():
    tower = from_scs(prototypical(5))
    data = build_symmetric_rep(tower)
    report = check_adjoint_intertwining(data)
    assert report.ok and report.checks


def test_hessenberg_negative_control_breaks_far_commutation():
    tower = from_scs(prototypical(5))
    data = build_symmetric_rep(tower)
    # replace one generator by a distant transposition: far commutation dies
    bad = transposition(tower.ambient_dim, 0, 4)
    control = HessenbergData(tower, [data.u(1), data.u(2), data.u(3), bad, data.u(5)])
    report = check_hessenberg(control)
    far = [c for c in report.checks if c["check"] == "far-commutation"]
    assert any(not c["ok"] for c in far)
    verdicts = {
        c["check"]: c["ok"]
        for c in report.checks
        if c["check"].startswith("exchange-condition-")
    }
    assert len(set(verdicts.values())) == 1  # the three conditions agree
    agree = [c for c in report.checks if c["check"] == "exchange-conditions-agree"]
    assert agree and agree[0]["ok"]


# -- unitary equivalence --------------------------------------------------------------------------------


def test_unitary_equivalence_same_dims():
    a = from_scs(layered_scs([1, 2], 3))
    b = from_scs(layered_scs([1, 2], 3))
    rng = random.Random(8)
    b = rotate_tower(b, random_signed_permutation(b.ambient_dim, rng))
    result = unitary_equivalence(a, b)
    assert result.equivalent and result.verified
    assert result.root_dims_a == result.root_dims_b


def test_unitary_equivalence_different_dims():
    a = from_scs(layered_scs([1, 2], 3))
    b = from_scs(layered_scs([2, 2], 3))
    # pad not needed: decision is by root dimensions
    result = unitary_equivalence(a, b)
    assert not result.equivalent


def test_root_dimension_sequence():
    tower = from_scs(layered_scs([2, 1, 3], 3))
    assert root_dimension_sequence(tower)[:3] == (2, 1, 3)


# -- property suites --------------------------------------------------------------------------------


def test_scs_derived_towers_satisfy_all_invariants():
    rng = random.Random(55)
    for _ in range(25):
        N = rng.randint(1, 5)
        values = [rng.randint(0, N)]
        for n in range(1, N + 1):
            values.append(rng.randint(n, values[n - 1] + 1))
        from cosimplex.scs import from_ell

        tower = from_scs(from_ell(values, N))
        assert check_tower(tower).ok, values


def test_generators_permute_labeled_subspaces():
    rng = random.Random(66)
    tower = from_scs(layered_scs([1, 2], 3))
    tower = rotate_tower(tower, random_signed_permutation(tower.ambient_dim, rng))
    data = build_symmetric_rep(tower)
    subs = labeled_subspaces(tower)
    for j in range(1, tower.max_level + 1):
        for lab, vs in subs.items():
            target = lab.transpose(j)
            image = [data.u(j) * v for v in vs]
            assert subspace_equal(image, subs[target]), (str(lab), j)


# -- one build of each intermediate per call ----------------------------------------------------


def test_toy_definetti_computes_each_fixed_space_once(monkeypatch):
    calls = []
    compute = tower_mod.fixed_space

    def counted(tower, n):
        calls.append(n)
        return compute(tower, n)

    monkeypatch.setattr(tower_mod, "fixed_space", counted)
    tower = from_scs(layered_scs([1, 1, 1], 4))
    assert check_toy_definetti(tower).ok
    assert sorted(calls) == list(range(tower.max_level))


def _joint_fixed_upward(data, n):
    """Fixed vectors of u_{n+1}, then of u_{n+2}, ... up to u_M, inside
    H_{N-1}: the joint fixed space intersected from the bottom generator up."""
    tower = data.tower
    joint = tower.basis(tower.max_level - 1).columns()
    for m in range(n + 1, data.count + 1):
        B = Matrix.from_columns(span_basis(joint), nrows=tower.ambient_dim)
        joint = fixed_vectors(data.u(m), B)
    return joint


@pytest.mark.parametrize("scs", [prototypical(4), layered_scs([1, 1, 1], 3)])
def test_hessenberg_joint_fixed_spaces_for_any_number_of_unitaries(scs):
    tower = from_scs(scs)
    N = tower.max_level
    full = build_symmetric_rep(tower)
    # fewer unitaries than levels, all of them, and a repeated u_1 on top
    generator_lists = [full.unitaries[:M] for M in range(N + 1)] + [full.unitaries + [full.u(1)]]
    failed = 0
    for unitaries in generator_lists:
        data = HessenbergData(tower, unitaries)
        joint = [c for c in check_hessenberg(data).checks if c["check"] == "fixed-space-joint"]
        expected = [
            subspace_equal(fixed_space(tower, n)[0], _joint_fixed_upward(data, n))
            for n in range(N)
        ]
        assert [(c["n"], c["ok"]) for c in joint] == list(enumerate(expected)), len(unitaries)
        failed += expected.count(False)
    # too few generators leave the joint space too large, an extra u_1 makes
    # it too small: both must fail the check somewhere
    assert failed


# -- rotation oracle ---------------------------------------------------------------------------------

ROTATION_FIXTURES = {
    "layered [1,1] N=3": lambda: layered_scs([1, 1], 3),
    "layered [0,1,1] N=3": lambda: layered_scs([0, 1, 1], 3),
    "layered [1,0,1] N=3": lambda: layered_scs([1, 0, 1], 3),
    "layered [1,1,1] N=2": lambda: layered_scs([1, 1, 1], 2),
    "figure2": figure2_scs,
    "example2 N=4": lambda: example2_scs(4),
    "layer minus root 2 N=3": lambda: layer_minus_root_scs(2, 3),
}


@pytest.mark.parametrize("name", sorted(ROTATION_FIXTURES))
def test_rotation_keeps_normality_root_dimensions_and_equivalence(name):
    tower = from_scs(ROTATION_FIXTURES[name]())
    rng = random.Random(name)
    rotated = rotate_tower(tower, random_rational_rotation(tower.ambient_dim, rng))
    before = check_normal(tower, details=False)
    after = check_normal(rotated, details=False)
    assert before.criteria_agree and after.criteria_agree
    assert after.normal == before.normal
    assert root_dimension_sequence(rotated) == root_dimension_sequence(tower)
    if before.normal:
        result = unitary_equivalence(tower, rotated)
        assert result.equivalent and result.verified
        assert result.root_dims_a == result.root_dims_b == root_dimension_sequence(tower)
        assert intertwines(result.intertwiner, tower, rotated)
