"""Acceptance suite: one test per criterion, exact tolerances throughout.

Exact-mode assertions are bit-exact rational equalities; the floating path
uses the documented tolerance 1e-10.  Each test prints a single pass line
(visible with -s or in failure output).
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from cosimplex.cohomology import build_complex, cohomology, explicit_cocycles
from cosimplex.fixtures import (
    ell2_family,
    ell2_tower,
    example2_scs,
    figure2_scs,
    identity_shift_tower,
    layered_scs,
    prototypical,
    random_signed_permutation,
    rotate_tower,
)
from cosimplex.labels import Label, enumerate_labels, skeleton_dot
from cosimplex.linalg import Matrix, primitive, pseudo_inverse, subspace_equal
from cosimplex.normal_ext import (
    check_epsilon_lemma,
    is_isomorphic,
    is_normal_scs,
    minimal_normal_extension,
)
from cosimplex.scs import (
    check_saturation,
    check_toy_definetti_scs,
    fixed_set,
    from_ell,
    validate,
)
from cosimplex.spread import (
    check_theorem_C,
    float_check_theorem_C,
    float_from_contraction,
    float_operator_angle,
    from_contraction,
    operator_angle,
)
from cosimplex.tower import (
    HessenbergData,
    build_symmetric_rep,
    check_hessenberg,
    check_normal,
    check_toy_definetti,
    check_tower,
    fixed_space,
    from_scs,
    innovation_bases,
    permutation_unitary,
    unitary_equivalence,
)
from structures import coboundary_matrix, diag, dims_by_level, random_valid_ell

F = Fraction
TOL = 1e-10


def passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}", file=sys.stderr)


# -- criterion 1 --------------------------------------------------------------------


def test_criterion_01_cohomology_bottom_shifted_by_one():
    N = 8
    scs = from_ell([1 if n == 0 else n for n in range(N + 1)], N)
    report = cohomology(build_complex(scs))
    dims = dims_by_level(report)
    assert dims[1] == 1
    for k in range(-1, N - 1):
        if k != 1:
            assert dims[k] == 0, k
    entry = report.level(1)
    assert entry.dim_cocycles == 1
    vec = [Fraction(x) for x in entry.cocycle_basis[0]]
    assert primitive(tuple(vec)) == (F(1), F(-1))  # proportional to e_0 - e_1
    passed(1, "one-dimensional cohomology at level 1 spanned by e_0 - e_1, zero elsewhere")


# -- criterion 2 --------------------------------------------------------------------


def test_criterion_02_cohomology_bottom_shifted_by_two():
    N = 8
    scs = from_ell([2 if n == 0 else n for n in range(N + 1)], N)
    cx = build_complex(scs)
    report = cohomology(cx)
    dims = dims_by_level(report)
    for k in range(-1, 7):
        assert dims[k] == 0, k
    basis2 = cx.basis(2)
    e1 = tuple(F(1) if x == 1 else F(0) for x in basis2)
    assert subspace_equal(coboundary_matrix(cx, 2).kernel().columns(), [e1])
    assert subspace_equal(coboundary_matrix(cx, 1).columns(), [e1])
    passed(2, "trivial cohomology at all levels <= 6; image of d^1 = kernel of d^2 = level-1 line")


# -- criterion 3 --------------------------------------------------------------------


def test_criterion_03_saturated_structures_trivial_cohomology():
    for name, structure in (("prototypical", prototypical(8)), ("figure2", figure2_scs())):
        report = cohomology(build_complex(structure))
        for k, d in dims_by_level(report).items():
            assert d == 0, (name, k)
    passed(3, "prototypical and two-root fixtures have trivial cohomology at all computed levels")


# -- criterion 4 --------------------------------------------------------------------


def test_criterion_04_explicit_cocycle_formula_cross_check():
    for N in range(1, 9):
        scs = prototypical(N)
        cx = build_complex(scs)
        for k in range(0, N):
            vectors = explicit_cocycles(scs, k, cx)  # fails loudly on mismatch
            assert subspace_equal(vectors, coboundary_matrix(cx, k).kernel().columns())
    passed(4, "closed-form cocycles span elimination kernels on prototypical, N <= 8, every level")


# -- criterion 5 --------------------------------------------------------------------


def test_criterion_05_toy_definetti_dictionary():
    rng = random.Random(2024)
    for _ in range(200):
        N = rng.randint(1, 7)
        structure = from_ell(random_valid_ell(rng, N), N)
        report = check_toy_definetti_scs(structure)
        assert report.ok, report.bugs
        assert all(lv.equivalence_ok for lv in report.levels)

    # first counterexample: saturated at the bottom while a shift throws an
    # innovation two boxes back
    ex2 = example2_scs(5)
    assert fixed_set(ex2, 1) == {0}
    assert check_saturation(ex2, -1).holds
    # saturated at level 0 up to level 1: no witness of level <= 1
    assert all(ex2.levels[x] > 1 for x in check_saturation(ex2, 0).witnesses)
    assert ex2.levels[1] == 3  # element 1 is a level-3 innovation
    assert ex2.alpha(0, 1) == 2 and ex2.levels[2] == 2  # lands in D_2, not D_4
    report = check_toy_definetti_scs(ex2)
    witnesses = [w for w in report.converse_first_failures if w["n"] == 0]
    assert witnesses and witnesses[0]["k"] == 3
    assert witnesses[0]["x"] == 1 and witnesses[0]["image"] == 2
    assert witnesses[0]["image_level"] == 2

    # second counterexample: innovations shift at the bottom of the
    # identity-shift tower although its fixed space exceeds the bottom level
    tow = identity_shift_tower(4)
    rep = check_toy_definetti(tow)
    assert rep.ok
    basis, flag = fixed_space(tow, 0)
    assert basis and not flag  # fixed space is the whole line, exactly
    assert tow.dim(-1) == 0
    conv = [c for c in rep.checks if c["check"] == "converse-second-implication-fails"]
    assert any(c["n"] == 0 for c in conv)
    passed(5, "dictionary holds on 200 random families; both converse counterexamples reproduce")


# -- criterion 6 --------------------------------------------------------------------


def test_criterion_06_insertion_identity_for_labels():
    rng = random.Random(606)
    cases = 0
    for _ in range(500):
        roll = rng.random()
        if roll < 0.7:
            N = rng.randint(1, 6)
            structure = from_ell(random_valid_ell(rng, N), N)
        else:
            dims = [rng.randint(0, 2) for _ in range(3)]
            if sum(dims) == 0:
                dims[rng.randint(0, 2)] = 1
            structure = layered_scs(dims, rng.randint(1, 3))
        report = check_epsilon_lemma(structure)
        assert report.ok, report.failures
        cases += 1
    assert cases == 500
    passed(6, "label of a shifted element is the zero-inserted label, on 500 random structures")


# -- criterion 7 --------------------------------------------------------------------


def test_criterion_07_structure_theorem():
    ex2 = example2_scs(5)
    result = minimal_normal_extension(ex2)
    assert result.layer_ranks == [1]
    assert is_isomorphic(result.extension, prototypical(5))
    again = minimal_normal_extension(result.extension)
    assert is_isomorphic(again.extension, result.extension)

    proto = prototypical(5)
    ext_proto = minimal_normal_extension(proto)
    assert is_isomorphic(ext_proto.extension, proto)
    assert len(ext_proto.extension.levels) == len(proto.levels)

    fig2 = figure2_scs()
    ext = minimal_normal_extension(fig2)
    normal, _ = is_normal_scs(ext.extension)
    assert normal
    assert validate(ext.extension).ok
    # the original embeds as a sub-structure: injective, equivariant, level-dominated
    assert len(set(ext.embedding.values())) == len(fig2.levels)
    for i, mapping in enumerate(fig2.shifts):
        for x, y in mapping.items():
            assert ext.extension.alpha(i, ext.embedding[x]) == ext.embedding[y]
    for x, lv in fig2.levels.items():
        assert ext.extension.levels[ext.embedding[x]] <= lv
    passed(7, "minimal normal extensions: single layer for the ball-in-box family, idempotence, "
              "fixed point on the prototypical, embedding for the two-root fixture")


# -- criterion 8 --------------------------------------------------------------------


def test_criterion_08_normality_criteria_agree():
    rng = random.Random(888)
    for i in range(100):
        levels = rng.choice((2, 3))
        if levels == 3:
            dims = [rng.randint(0, 2) for _ in range(4)]
        else:
            dims = [rng.randint(0, 3) for _ in range(3)]
        if sum(dims) == 0:
            dims[rng.randrange(len(dims))] = 1
        structure = layered_scs(dims, levels)
        tw = from_scs(structure)
        if i % 10 == 0:
            tw = rotate_tower(tw, random_signed_permutation(tw.ambient_dim, rng))
        report = check_normal(tw)
        assert report.criteria_agree, (dims, levels)
        assert report.normal
    fig2 = from_scs(figure2_scs())
    report = check_normal(fig2)
    assert report.criteria_agree
    assert not (report.adjoint_exchange or report.complement_shift or report.orthogonal_labels)
    passed(8, "three normality criteria agree on 100 random normal towers and the two-root fixture")


# -- criterion 9 --------------------------------------------------------------------


def test_criterion_09_symmetric_representation_identities():
    rng = random.Random(909)
    cases = [from_scs(prototypical(5)), from_scs(layered_scs([1, 1, 1], 3))]
    rotated = rotate_tower(cases[1], random_signed_permutation(cases[1].ambient_dim, rng))
    cases.append(rotated)
    for tw in cases:
        N = tw.max_level
        data = build_symmetric_rep(tw)
        I = Matrix.identity(tw.ambient_dim)
        for j in range(1, N + 1):
            assert data.u(j) * data.u(j) == I
        for j in range(1, N):
            lhs = data.u(j) * data.u(j + 1) * data.u(j)
            rhs = data.u(j + 1) * data.u(j) * data.u(j + 1)
            assert lhs == rhs  # full braid relation for the involutive generators
        for m in range(1, N + 1):
            for n in range(m + 2, N + 1):
                assert data.u(m) * data.u(n) == data.u(n) * data.u(m)
        # coface factorization through the generators
        for n in range(0, N):
            B = tw.basis(n - 1)
            for i in range(0, n + 1):
                prod = permutation_unitary(data, list(range(i + 1, n + 2)))
                assert prod * B == tw.coface(i, n, B), (i, n)
        report = check_hessenberg(data)
        assert report.ok, report.failures[:3]
        for name in ("shift-as-product", "relation-low", "relation-step-up",
                     "relation-step-down", "relation-high"):
            assert any(c["check"] == name for c in report.checks), name
    passed(9, "involutivity, braid and far commutation, coface factorizations, shift products "
              "and the four relation cases hold exactly on symmetric representations")


# -- criterion 10 -------------------------------------------------------------------


def test_criterion_10_root_dimension_invariant():
    rng = random.Random(1010)
    for _ in range(10):
        dims = [rng.randint(0, 2) for _ in range(3)]
        if sum(dims) == 0:
            dims[0] = 1
        a = from_scs(layered_scs(dims, 2))
        b = rotate_tower(
            from_scs(layered_scs(dims, 2)),
            random_signed_permutation(a.ambient_dim, rng),
        )
        result = unitary_equivalence(a, b)
        assert result.equivalent and result.verified
        assert result.intertwiner is not None

        other = list(dims)
        other[rng.randrange(len(other))] += 1
        c = from_scs(layered_scs(other, 2))
        result = unitary_equivalence(a, c)
        assert not result.equivalent
    passed(10, "equal root dimension sequences give verified intertwiners; unequal ones are rejected")


# -- criterion 11 -------------------------------------------------------------------


def test_criterion_11_sequence_space_example():
    fam = ell2_family(5)
    report = operator_angle(fam)
    assert report.operator_angle == Matrix([[F(1, 2)]])
    tw = ell2_tower(5)
    assert check_tower(tw).ok
    dim = tw.ambient_dim
    innov = innovation_bases(tw)
    for k in range(1, 5):
        vs = innov[k]
        assert len(vs) == 1
        expect = [F(1)] + [F(-1)] * k + [F(k + 1)] + [F(0)] * (dim - k - 2)
        assert primitive(vs[0]) == primitive(tuple(expect))
    g0, g1, g2 = (innov[k][0] for k in (0, 1, 2))
    # exact: the image lies in the span of g0, g1, g2
    sol = pseudo_inverse(Matrix.from_columns([g0, g1, g2])) * (tw.alpha(0) * g1)
    assert sol == (F(1, 2), F(-1, 6), F(2, 3))
    passed(11, "angle one half, staircase innovation generators, and the exact shift "
               "decomposition (1/2, -1/6, 2/3)")


# -- criterion 12 -------------------------------------------------------------------


def test_criterion_12_conditional_orthogonality():
    rng = np.random.default_rng(1212)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        raw = rng.normal(size=(k, k))
        sym = raw @ raw.T
        C = sym / (np.linalg.eigvalsh(sym).max() + float(rng.uniform(0.05, 1.0)))
        fam = float_from_contraction(C, int(rng.integers(2, 9)))
        _, deviation = float_operator_angle(fam, TOL)
        assert deviation <= TOL
        result = float_check_theorem_C(fam, TOL)
        assert result["ok"], result
        assert result["orthogonality_deviation"] <= TOL
        assert result["angle_identity_deviation"] <= TOL
    # exact lane for diagonal rational-square contractions
    squares = [F(0), F(9, 25), F(16, 25), F(144, 169), F(25, 169), F(1)]
    srng = random.Random(121212)
    for _ in range(10):
        k = srng.randint(1, 4)
        C = diag(*[srng.choice(squares) for _ in range(k)])
        fam = from_contraction(C, srng.randint(2, 6))
        assert operator_angle(fam).operator_angle == C
        rep = check_theorem_C(fam)
        assert rep.ok, rep.failures
    passed(12, "100 random positive contractions: constant angle, orthogonal complements and "
               "fixed-space identity within 1e-10; exact on rational-square diagonals")


# -- criterion 13 -------------------------------------------------------------------


def test_criterion_13_exchange_condition_verdicts():
    tw = from_scs(prototypical(5))
    data = build_symmetric_rep(tw)
    report = check_hessenberg(data)
    verdicts = {
        c["check"]: c["ok"] for c in report.checks if c["check"].startswith("exchange-condition-")
    }
    assert set(verdicts.values()) == {True}

    dim = tw.ambient_dim
    fixed = {(i, i): 1 for i in range(dim) if i not in (0, 4)}
    bad = Matrix.from_entries(dim, dim, {**fixed, (0, 4): 1, (4, 0): 1})
    control = HessenbergData(tw, [data.u(1), data.u(2), data.u(3), bad, data.u(5)])
    report = check_hessenberg(control)
    far = [c for c in report.failures if c["check"] == "far-commutation"]
    assert far and {"m", "n"} <= set(far[0])  # witness pair reported
    verdicts = {
        c["check"]: c["ok"] for c in report.checks if c["check"].startswith("exchange-condition-")
    }
    assert len(set(verdicts.values())) == 1  # identical verdicts on the control too
    passed(13, "the three exchange conditions agree on symmetric instances and on the "
               "far-commutation negative control, with a witness pair")


# -- criterion 14 -------------------------------------------------------------------


def test_criterion_14_label_combinatorics():
    # gap-encoding round trip on every label up to level 12
    for lab in enumerate_labels(12):
        assert Label.from_upsilon(lab.upsilon()) == lab

    # morphism decision against brute-force increasing-map search
    from itertools import combinations

    def brute(u, v):
        if u.rank != v.rank:
            return False
        if u.rank == 0:
            return True
        if v.level < u.level:
            return False
        for image in combinations(range(v.level + 1), u.level + 1):
            g = dict(zip(range(u.level + 1), image))
            if tuple(g[x] for x in u.support) == v.support:
                return True
        return False

    labels = [lab for lab in enumerate_labels(6) if lab.rank <= 3]
    for u in labels:
        for v in labels:
            assert u.leq(v) == brute(u, v), (u, v)

    golden = (Path(__file__).parent / "golden" / "lambda_skeleton_r2_l4.dot").read_text(
        encoding="utf-8"
    )
    assert skeleton_dot(2, 4) == golden
    assert skeleton_dot(2, 4) == skeleton_dot(2, 4)
    passed(14, "gap-encoding round trip to level 12, brute-force morphism agreement to rank 3 "
               "level 6, and a byte-stable skeleton export")
