"""Exact cochain cohomology: worked examples and identity suites."""

import random
from fractions import Fraction

import pytest

from cosimplex.cohomology import (
    build_complex,
    check_cocycle_identities,
    cohomology,
    explicit_cocycles,
    extended_coboundary,
)
from cosimplex.errors import InternalInconsistencyError, PreconditionError, TruncationError
from cosimplex.fixtures import example2_scs, figure2_scs, layered_scs
from cosimplex.linalg import Matrix, primitive, subspace_equal
from cosimplex.scs import TruncatedSCS, from_ell, prototypical


def random_valid_ell(rng, N):
    values = [rng.randint(0, N)]
    for n in range(1, N + 1):
        values.append(rng.randint(n, values[n - 1] + 1))
    return values


def dims_by_level(report):
    return {e.level: e.dim_cohomology for e in report.levels if e.kernel_known}


# -- coboundary matrices -----------------------------------------------------------


def test_prototypical_even_coboundary_formulas():
    # with n even: d^{n-1} sends sum x_i e_i to (x_0+x_1)e_1 + (x_2+x_3)e_3 + ...
    scs = prototypical(6)
    cx = build_complex(scs)
    n = 4
    src = cx.basis(n - 1)  # elements 0..3
    vec = [Fraction(p) for p in (2, 3, 5, 7)]
    image = cx.matrices[n - 1] * vec
    dst = cx.basis(n)
    expect = {1: Fraction(5), 3: Fraction(12)}
    assert {x: c for x, c in zip(dst, image) if c} == expect
    # d^n sends x to x_0 e_0 - x_0 e_1 + x_2 e_2 - x_2 e_3 + ...
    vec = [Fraction(p) for p in (2, 3, 5, 7, 11)]
    image = cx.matrices[n] * vec
    dst = cx.basis(n + 1)
    expect = {0: 2, 1: -2, 2: 5, 3: -5, 4: 11, 5: -11}
    assert {x: int(c) for x, c in zip(dst, image) if c} == expect


def test_bottom_coboundary_is_zero_for_ell_families():
    for values in ([1, 1, 2, 3], [2, 3, 2, 3]):
        cx = build_complex(from_ell(values, 3))
        assert cx.matrices[-1].ncols == 0  # the bottom level set is empty


def test_cochain_condition_on_random_structures():
    rng = random.Random(31)
    for _ in range(40):
        N = rng.randint(1, 7)
        build_complex(from_ell(random_valid_ell(rng, N), N))  # asserts d.d = 0


def reference_complex(scs):
    """The dense construction: Fraction sign sums through ``scs.alpha``."""
    N = scs.max_level
    bases = {n: sorted(scs.X(n), key=lambda x: (scs.levels[x], x)) for n in range(-1, N + 1)}
    matrices = {}
    for n in range(-1, N):
        index = {x: r for r, x in enumerate(bases[n + 1])}
        rows = [[Fraction(0)] * len(bases[n]) for _ in bases[n + 1]]
        for c, x in enumerate(bases[n]):
            for i in range(0, n + 2):
                rows[index[scs.alpha(i, x)]][c] += (-1) ** (n + 1 - i)
        matrices[n] = Matrix(rows, ncols=len(bases[n]))
    return bases, matrices


def test_build_complex_equals_the_fraction_reference():
    rng = random.Random(11)
    cases = [prototypical(N) for N in range(-1, 21)]
    cases += [from_ell(random_valid_ell(rng, N), N) for N in [rng.randint(0, 7) for _ in range(40)]]
    cases += [layered_scs([1, 1, 1], 5), layered_scs([0, 2, 1, 1], 4), example2_scs(5), figure2_scs()]
    for scs in cases:
        cx = build_complex(scs)
        bases, matrices = reference_complex(scs)
        assert cx.bases == bases
        assert cx.matrices == matrices
        for M in cx.matrices.values():
            assert all(type(M[i, j]) is Fraction for i in range(M.nrows) for j in range(M.ncols))


def test_build_complex_checks_the_cochain_condition():
    # swapping two targets of alpha_2 breaks d^1 d^0 = 0 (alpha_2 is the top
    # coface of d^1, so the broken map is read)
    scs = prototypical(3)
    shifts = [dict(m) for m in scs.shifts]
    shifts[2][0], shifts[2][1] = shifts[2][1], shifts[2][0]
    broken = TruncatedSCS(3, dict(scs.levels), tuple(shifts))
    with pytest.raises(InternalInconsistencyError, match=r"coboundary composition d\^1 d\^0 != 0"):
        build_complex(broken)


# -- the two level-function examples ---------------------------------------------------


def test_cohomology_example_shifted_bottom_by_one():
    # level function 1, 1, 2, 3, ...: one-dimensional cohomology at level 1
    N = 8
    scs = from_ell([1 if n == 0 else n for n in range(N + 1)], N)
    report = cohomology(build_complex(scs))
    dims = dims_by_level(report)
    assert dims[1] == 1
    for k in range(-1, N):
        if k != 1:
            assert dims[k] == 0, k
    entry = report.level(1)
    assert entry.dim_cocycles == 1
    basis = entry.cocycle_basis
    assert basis == [["1", "-1"]]  # proportional to e_0 - e_1


def test_cohomology_example_shifted_bottom_by_two():
    # level function 2, 1, 2, 3, ...: trivial cohomology at every level
    N = 7
    scs = from_ell([2 if n == 0 else n for n in range(N + 1)], N)
    cx = build_complex(scs)
    report = cohomology(cx)
    for k, d in dims_by_level(report).items():
        assert d == 0, k
    # image of d^1 = kernel of d^2 = the line through the level-1 element
    ker2 = cx.matrices[2].kernel()
    im1 = cx.matrices[1].column_space_basis()
    basis2 = cx.basis(2)
    e1 = [Fraction(1) if x == 1 else Fraction(0) for x in basis2]
    assert subspace_equal(ker2.columns(), [tuple(e1)])
    assert subspace_equal(im1.columns(), [tuple(e1)])


def test_saturated_structures_have_trivial_cohomology():
    for scs in (prototypical(7), figure2_scs()):
        report = cohomology(build_complex(scs))
        for k, d in dims_by_level(report).items():
            assert d == 0, (k, d)


def test_empty_structure():
    report = cohomology(build_complex(TruncatedSCS(2, {}, ({}, {}))))
    for entry in report.levels:
        assert entry.dim_space == 0


# -- the explicit cocycle formula ------------------------------------------------------


def test_explicit_cocycles_match_kernels_on_prototypical():
    N = 8
    scs = prototypical(N)
    cx = build_complex(scs)
    for k in range(0, N):
        vectors = explicit_cocycles(scs, k, cx)  # internally cross-checked
        assert subspace_equal(vectors, cx.matrices[k].kernel().columns())


def test_explicit_cocycle_level_one():
    scs = prototypical(4)
    vectors = explicit_cocycles(scs, 1)
    assert vectors == [primitive((Fraction(1), Fraction(-1)))]


def test_explicit_cocycles_empty_innovations():
    # a structure whose relevant innovations vanish has no cocycles there
    scs = from_ell([2 if n == 0 else n for n in range(5)], 4)
    assert explicit_cocycles(scs, 1) == []  # D_0 is empty


def test_explicit_cocycles_precondition():
    with pytest.raises(PreconditionError):
        explicit_cocycles(example2_scs(5), 3)


def test_extended_coboundary_matches_matrix():
    scs = prototypical(5)
    cx = build_complex(scs)
    for n in range(-1, 4):
        for x in cx.basis(n):
            vec = extended_coboundary(scs, n, {x: Fraction(1)})
            col = cx.matrices[n].column(cx.basis(n).index(x))
            expect = {y: c for y, c in zip(cx.basis(n + 1), col) if c}
            assert vec == expect


def test_extended_coboundary_int_and_fraction_coefficients_agree():
    rng = random.Random(23)
    for scs in (prototypical(6), example2_scs(5), layered_scs([1, 1, 1], 5)):
        N = scs.max_level
        for n in range(-1, N):
            vec = {x: rng.randint(-3, 3) for x, lv in scs.levels.items() if lv <= n}
            as_fractions = {x: Fraction(c) for x, c in vec.items()}
            assert extended_coboundary(scs, n, vec) == extended_coboundary(scs, n, as_fractions)


def test_extended_coboundary_rejects_a_top_level_element():
    scs = prototypical(3)
    for coeff in (1, Fraction(1)):
        with pytest.raises(TruncationError):
            extended_coboundary(scs, 2, {3: coeff})


# -- identity suites ---------------------------------------------------------------------


def test_cocycle_identities_hold():
    rng = random.Random(77)
    cases = [
        prototypical(6),
        from_ell([1, 1, 2, 3, 4, 5, 6], 6),
        example2_scs(5),
        figure2_scs(),
        TruncatedSCS(2, {}, ({}, {})),
    ]
    for _ in range(10):
        N = rng.randint(1, 6)
        cases.append(from_ell(random_valid_ell(rng, N), N))
    for scs in cases:
        report = check_cocycle_identities(scs)
        assert report.ok, report.failures


def test_sign_convention_invariance():
    # flipping the sign of every coboundary changes no kernel or image rank
    scs = from_ell([1, 1, 2, 3, 4, 5], 5)
    cx = build_complex(scs)
    for n, mat in cx.matrices.items():
        flipped = mat.scale((-1) ** (n + 1))
        assert flipped.kernel().ncols == mat.kernel().ncols
        assert flipped.rank() == mat.rank()


def test_report_flags_top_level():
    report = cohomology(build_complex(prototypical(4)))
    top = report.level(4)
    assert not top.kernel_known
    assert top.dim_cohomology is None
    assert report.truncation_caveats
