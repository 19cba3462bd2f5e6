"""Hilbert towers: structure checks, labeled subspaces, normality, generators."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cosimplex.errors import InternalInconsistencyError, NotNormalError, PreconditionError
from cosimplex import tower as tower_mod
from cosimplex.fixtures import (
    disjoint_union,
    ell2_tower,
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
from cosimplex.io_json import matrix_to_json
from cosimplex.labels import Label
from cosimplex.linalg import (
    Matrix,
    dot,
    fixed_vectors,
    span_basis,
    subspace_equal,
)
from cosimplex.normal_ext import is_normal_scs
from cosimplex.scs import TruncatedSCS, check_toy_definetti_scs, from_ell
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
    innovation_bases,
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
    innov = innovation_bases(from_scs(example2_scs(5)))
    for k in (2, 3):
        assert len(innov[k]) == 2
    assert innov[0] == []  # H_0 = H_{-1}


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


def test_definetti_decides_each_innovation_shift_once(monkeypatch):
    calls = []
    leq = tower_mod.subspace_leq

    def counted(small, big):
        calls.append(len(small))
        return leq(small, big)

    monkeypatch.setattr(tower_mod, "subspace_leq", counted)
    tower = from_scs(layered_scs([1, 1, 1], 4))
    assert check_toy_definetti(tower).ok
    assert len(calls) == 4 * 5 // 2  # one per pair 0 <= i <= k <= N-1


def random_valid_ell(rng, N):
    values = [rng.randint(0, N)]
    for n in range(1, N + 1):
        values.append(rng.randint(n, values[n - 1] + 1))
    return values


def test_definetti_dictionary_agrees_between_set_and_tower():
    rng = random.Random(2407)
    structures = [example2_scs(N) for N in range(3, 6)]
    structures += [figure2_scs(), layered_scs([1, 1, 1], 4), layered_scs([0, 1, 2], 3)]
    structures += [layer_minus_root_scs(2, 4), layer_minus_root_scs(3, 3)]
    for _ in range(200):
        N = rng.randint(1, 6)
        structures.append(from_ell(random_valid_ell(rng, N), N))
    for scs in structures:
        sets = check_toy_definetti_scs(scs)
        towers = check_toy_definetti(from_scs(scs))
        shifts = {c["n"]: c["holds"] for c in towers.checks if c["check"] == "innovations-shift"}
        sat = {c["level"]: c["holds"] for c in towers.checks if c["check"] == "saturated-at-level"}
        N = scs.max_level
        assert [lv.shifts_innovations for lv in sets.levels] == [shifts[n] for n in range(N)]
        assert [lv.saturated for lv in sets.levels] == [sat[n - 1] for n in range(N)]
        assert sets.ok == towers.ok


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
    innov = innovation_bases(tower)
    assert len(root_space(tower, 2, innov)) == 2
    assert root_space(tower, 3, innov) == []  # level-3 innovation is all shifted


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
        assert check_normal(from_scs(scs)).normal == normal, scs
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
    before = check_normal(tower)
    after = check_normal(rotated)
    assert before.criteria_agree and after.criteria_agree
    assert after.normal == before.normal
    assert root_dimension_sequence(rotated) == root_dimension_sequence(tower)
    if before.normal:
        result = unitary_equivalence(tower, rotated)
        assert result.equivalent and result.verified
        assert result.root_dims_a == result.root_dims_b == root_dimension_sequence(tower)
        assert intertwines(result.intertwiner, tower, rotated)


# -- one Gram inverse per level, against the per-coface construction --------------------------


def partial_isometry(src, dst):
    """dst (srcᵀ src)⁻¹ srcᵀ, spelled out: column j of ``src`` goes to column
    j of ``dst``, the complement of span(src) to zero."""
    if src.ncols == 0:
        return Matrix.zeros(dst.nrows, src.nrows)
    return dst * (src.transpose() * src).inverse() * src.transpose()


def orthogonal_complement_within(perp_to, within):
    """A basis of the vectors of span(within) orthogonal to ``perp_to``: the
    nonzero images W x of the kernel vectors x of Cᵀ W, for the independent
    columns W of ``within`` and C of ``perp_to``."""
    within = span_basis(within)
    constraints = span_basis(perp_to)
    if not within or not constraints:
        return within
    W = Matrix.from_columns(within)
    ker = (Matrix.from_columns(constraints).transpose() * W).kernel()
    return [W * x for x in ker.columns()]


def _reference_normal(tower):
    """``check_normal`` the per-coface way: one partial isometry per coface
    and level for (c), one complement per coface for (d), and every
    criterion's zero test as pairwise ``dot`` products."""
    N = tower.max_level
    info = {}

    adjoints = {}

    def adjoint(i, k):
        if (i, k) not in adjoints:
            B = tower.basis(k - 1)
            adjoints[i, k] = partial_isometry(B, tower.coface(i, k, B)).transpose()
        return adjoints[i, k]

    ok_c = True
    for k in range(N):
        Bk = tower.basis(k)
        for j in range(1, k + 2):
            for i in range(j):
                lhs = tower.coface(j - 1, k, adjoint(i, k) * Bk)
                rhs = adjoint(i, k + 1) * tower.coface(j, k + 1, Bk)
                if lhs != rhs:
                    ok_c = False
                    info.setdefault("adjoint_witness", {"i": i, "j": j, "k": k})
    ok_d = True
    for k in range(N):
        for j in range(1, k + 2):
            for i in range(j):
                img_prev = tower.coface(i, k, tower.basis(k - 1)).columns()
                comp = orthogonal_complement_within(img_prev, tower.basis(k).columns())
                moved = [tower.coface(j, k + 1, v) for v in comp]
                img_cur = tower.coface(i, k + 1, tower.basis(k)).columns()
                if any(dot(m, w) != 0 for m in moved for w in img_cur):
                    ok_d = False
                    info.setdefault("complement_witness", {"i": i, "j": j, "k": k})
    innov = innovation_bases(tower)
    subspaces = labeled_subspaces(tower)
    ok_e = True
    for a, b in itertools.combinations(sorted(subspaces, key=lambda l: l.sort_key()), 2):
        if any(dot(x, y) != 0 for x in subspaces[a] for y in subspaces[b]):
            ok_e = False
            info.setdefault("overlap_witness", {"labels": [str(a), str(b)]})
    agree = ok_c == ok_d == ok_e
    if ok_c and agree:
        info["decomposition"] = tower_mod._normal_decomposition_details(tower, subspaces, innov)
    return tower_mod.NormalityReport(ok_c, ok_d, ok_e, agree, ok_c and agree, info), subspaces


def _reference_generators(tower, subspaces):
    """u_j as the sum over labels of the partial isometries from each labeled
    subspace onto its transposed copy."""
    d = tower.ambient_dim
    out = []
    for j in range(1, tower.max_level + 1):
        U = Matrix.zeros(d, d)
        for lab, vs in subspaces.items():
            target = Matrix.from_columns(subspaces[lab.transpose(j)], nrows=d)
            U = U + partial_isometry(Matrix.from_columns(vs, nrows=d), target)
        out.append(U)
    return out


def _reference_hessenberg_records(data):
    """The shift-as-product and staircase records and the third exchange
    condition, each product taken in full and zero tests by ``dot``."""
    tower, N, M = data.tower, data.tower.max_level, data.count
    out = []
    for n in range(N):
        for k in range(n, N):
            if k + 1 <= M:
                product = Matrix.identity(tower.ambient_dim)
                for m in range(n + 1, k + 2):
                    product = product * data.u(m)
                B = tower.basis(k)
                out.append(("shift-as-product", n, k, product * B == tower.alpha(n) * B))
    innov = innovation_bases(tower)
    for n in range(N):
        ok = all(
            dot(tower.alpha(n) * v, w) == 0
            for l in range(-1, N) for m in range(l + 2, N + 1) for v in innov[l] for w in innov[m]
        )
        out.append(("staircase-blocks", n, ok))
    cond3 = True
    for j in range(1, min(M, N)):
        rng = tower.alpha(j + 1) * tower.basis(N - 1)
        u, v = data.u(j), data.u(j + 1)
        cond3 = cond3 and u * v * u * rng == v * u * v * rng
    return out + [("exchange-condition-3", cond3)]


def _hessenberg_records(report):
    out = []
    for c in report.checks:
        if c["check"] == "shift-as-product":
            out.append((c["check"], c["n"], c["k"], c["ok"]))
        elif c["check"] == "staircase-blocks":
            out.append((c["check"], c["n"], c["ok"]))
        elif c["check"] == "exchange-condition-3":
            out.append((c["check"], c["ok"]))
    return out


def random_valid_ell(rng, N):
    values = [rng.randint(0, N)]
    for n in range(1, N + 1):
        values.append(rng.randint(n, values[n - 1] + 1))
    return values


def _skew(B):
    """The same span, by the columns b_1, b_1 + b_2, ...: a Gram matrix that
    is not the identity."""
    n = B.ncols
    return B * Matrix.from_entries(n, n, {(r, c): 1 for c in range(n) for r in range(c + 1)})


def _oracle_towers():
    """Every tower fixture, normal or not, and random ball-in-box towers (every
    other one a disjoint union of two), each as built, rotated with skewed
    level bases, and with its last shift broken by a coordinate swap."""
    structures = [
        layered_scs(dims, N)
        for dims, N in (([1, 1], 3), ([0, 1, 1], 3), ([1, 0, 1], 3), ([1, 1, 1], 2),
                        ([1, 2], 3), ([2, 1], 3), ([1, 1, 1], 3))
    ]
    structures += [layer_minus_root_scs(2, 3), layer_minus_root_scs(3, 4), figure2_scs(),
                   example2_scs(4), prototypical(4)]
    rng = random.Random(2121)
    for t in range(8):
        N = rng.randint(2, 4)
        s = from_ell(random_valid_ell(rng, N), N)
        structures.append(disjoint_union(s, from_ell(random_valid_ell(rng, N), N)) if t % 2 else s)
    towers = [from_scs(s) for s in structures] + [identity_shift_tower(3), ell2_tower(3)]
    out = []
    for t in towers:
        d = t.ambient_dim
        swap = {(i, i): 1 for i in range(1, d - 1)}
        swap.update({(0, d - 1): 1, (d - 1, 0): 1} if d > 1 else {(0, 0): -1})
        broken = t.shifts[:-1] + [t.shifts[-1] * Matrix.from_entries(d, d, swap)]
        rotated = rotate_tower(t, random_rational_rotation(d, random.Random(len(out))))
        out += [
            t,
            replace(rotated, level_bases=[_skew(B) for B in rotated.level_bases]),
            replace(t, shifts=broken),
        ]
    return out


def test_normality_and_generators_equal_the_per_coface_construction():
    towers = _oracle_towers()
    assert len(towers) >= 60
    verdicts = set()
    for t in towers:
        rep, subspaces = tower_mod._check_normal(t, True)
        ref, ref_subspaces = _reference_normal(t)
        assert rep.to_dict() == ref.to_dict()
        assert list(subspaces) == list(ref_subspaces)
        verdicts.add(rep.normal)
        if rep.normal:
            unitaries = build_symmetric_rep(t).unitaries
            expected = _reference_generators(t, subspaces)
            assert list(map(matrix_to_json, unitaries)) == list(map(matrix_to_json, expected))
        else:
            unitaries = [Matrix.identity(t.ambient_dim)] * t.max_level
        # rotated by one place, the generators fail some of the checks
        data = HessenbergData(t, unitaries[1:] + unitaries[:1])
        assert _hessenberg_records(check_hessenberg(data)) == _reference_hessenberg_records(data)
    assert verdicts == {True, False}


def _count_inverses(monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self.nrows)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    return calls


@pytest.mark.parametrize("scs", [layered_scs([1, 1, 1], 3), prototypical(5), figure2_scs()])
def test_check_normal_inverts_one_gram_matrix_per_level(monkeypatch, scs):
    tower = from_scs(scs)
    calls = _count_inverses(monkeypatch)
    check_normal(tower)
    assert len(calls) <= tower.max_level + 2


def test_symmetric_rep_inverts_the_labeled_basis_once(monkeypatch):
    tower = from_scs(layered_scs([1, 1, 1], 3))
    tower = rotate_tower(tower, random_rational_rotation(tower.ambient_dim, random.Random(5)))
    calls = _count_inverses(monkeypatch)
    tower_mod._check_normal(tower, details=False)
    own = len(calls)
    build_symmetric_rep(tower)
    assert len(calls) - own == own + 1
    assert calls[-1] == tower.ambient_dim


def _claim_normal(monkeypatch, subspaces):
    report = tower_mod.NormalityReport(True, True, True, True, True, {})
    monkeypatch.setattr(tower_mod, "_check_normal", lambda tower, details: (report, subspaces))


def test_symmetric_rep_rejects_labeled_subspaces_that_are_no_basis(monkeypatch):
    tower, _ = fig2_tower_and_ids()
    _claim_normal(monkeypatch, labeled_subspaces(tower))
    with pytest.raises(InternalInconsistencyError):
        build_symmetric_rep(tower)


def test_symmetric_rep_rejects_generators_that_are_not_unitary(monkeypatch):
    # a skewed, non-orthogonal labeled basis: B P_j B^-1 is still an
    # involution, so only the unitarity check can catch it
    tower = from_scs(prototypical(3))
    subspaces = labeled_subspaces(tower)
    first, second = list(subspaces)[:2]
    subspaces[second] = [tuple(x + y for x, y in zip(subspaces[first][0], subspaces[second][0]))]
    _claim_normal(monkeypatch, subspaces)
    with pytest.raises(InternalInconsistencyError, match="u_1 is not unitary"):
        build_symmetric_rep(tower)



def test_a_dependent_level_basis_is_a_precondition_error():
    # H_1 = span(e0, e1) given by e0, e1, e0 + e1: check_tower cannot tell,
    # the Gram inverse of level 1 fails
    tower = from_scs(prototypical(2))
    spanning = Matrix.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    dependent = replace(tower, level_bases=tower.level_bases[:2] + [spanning] + tower.level_bases[3:])
    assert check_tower(dependent).to_dict() == check_tower(tower).to_dict()
    for analysis in (check_normal, build_symmetric_rep, lambda t: unitary_equivalence(t, tower)):
        with pytest.raises(PreconditionError, match="^the level-1 basis has dependent columns$"):
            analysis(dependent)


def test_a_dependent_level_basis_stops_the_innovations():
    # H_1 = span(e0, e1) given by e0, e1, e0 + e1 below the top: the one
    # Gram–Schmidt pass still keeps dim H_3 vectors in all, so only a count
    # taken level by level sees that level 1 keeps two, not three
    tower = from_scs(prototypical(3))
    spanning = Matrix.from_columns([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    dependent = replace(tower, level_bases=tower.level_bases[:2] + [spanning] + tower.level_bases[3:])
    assert check_tower(dependent).ok
    assert root_dimension_sequence(tower) == (0, 1, 0, 0, 0)
    analyses = (innovation_bases, root_dimension_sequence, labeled_subspaces, check_toy_definetti)
    message = "^the level-1 basis has dependent columns or does not contain level 0$"
    for analysis in analyses:
        with pytest.raises(PreconditionError, match=message):
            analysis(dependent)
