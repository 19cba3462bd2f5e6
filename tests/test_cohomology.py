"""Exact cochain cohomology: worked examples and identity suites."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from cosimplex import cohomology as cohomology_mod
from cosimplex.cohomology import (
    CochainComplex,
    CohomologyReport,
    LevelCohomology,
    build_complex,
    check_cocycle_identities,
    cohomology,
    explicit_cocycles,
)
from cosimplex.errors import (
    InternalInconsistencyError,
    InvalidStructureError,
    PreconditionError,
)
from cosimplex.fixtures import example2_scs, figure2_scs, layer_minus_root_scs, layered_scs
from cosimplex.linalg import Matrix, primitive, subspace_equal
from cosimplex.scs import CheckReport, TruncatedSCS, from_ell, prototypical


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


def test_build_complex_checks_the_cochain_condition(monkeypatch):
    # swapping two targets of alpha_2 breaks d^1 d^0 = 0 (alpha_2 is the top
    # coface of d^1, so the broken map is read); the swap breaks an exchange
    # relation, so the structure is rejected as invalid input
    scs = prototypical(3)
    shifts = [dict(m) for m in scs.shifts]
    shifts[2][0], shifts[2][1] = shifts[2][1], shifts[2][0]
    broken = TruncatedSCS(3, dict(scs.levels), tuple(shifts))
    with pytest.raises(InvalidStructureError, match="build_complex needs a valid structure"):
        build_complex(broken)
    # the d∘d self-check itself, on a structure that validation lets through
    monkeypatch.setattr(cohomology_mod, "require_valid", lambda scs, what: None)
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
    basis2 = cx.basis(2)
    e1 = [Fraction(1) if x == 1 else Fraction(0) for x in basis2]
    assert subspace_equal(ker2.columns(), [tuple(e1)])
    assert subspace_equal(cx.matrices[1].columns(), [tuple(e1)])


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


def extended_coboundary(scs: TruncatedSCS, n: int, vec: dict) -> dict:
    """d^n as an operator on formal element combinations.

    ``vec`` maps element ids to coefficients; every element must have level
    <= N-1 so that all shifts are evaluable.
    """
    out = {}
    for x, coeff in vec.items():
        if coeff == 0:
            continue
        for i in range(0, n + 2):
            target = scs.alpha(i, x)
            out[target] = out.get(target, 0) + (coeff if (n + 1 - i) % 2 == 0 else -coeff)
    return {x: c for x, c in out.items() if c != 0}


def test_extended_coboundary_matches_matrix():
    # the reference d^n above, through ``scs.alpha`` with a parity test, is
    # independent of the evaluator that builds the matrix columns
    rng = random.Random(29)
    cases = [prototypical(N) for N in range(-1, 9)]
    cases += [example2_scs(N) for N in (4, 5, 6)] + [figure2_scs()]
    cases += [layered_scs(d, N) for d, N in (([1, 1, 1], 5), ([0, 2, 1, 1], 4), ([1, 2], 4), ([2, 0, 1], 4))]
    cases += [from_ell(random_valid_ell(rng, N), N) for N in [rng.randint(0, 7) for _ in range(100)]]
    for scs in cases:
        cx = build_complex(scs)
        for n in range(-1, scs.max_level):
            for c, x in enumerate(cx.basis(n)):
                col = cx.matrices[n].column(c)
                expect = {y: a for y, a in zip(cx.basis(n + 1), col) if a}
                assert extended_coboundary(scs, n, {x: Fraction(1)}) == expect


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


def _truncation_pairs():
    """Each generator family built at N and at N+1, N <= 7, and 200 seeded
    level functions truncated at both."""
    families = [(prototypical, 0), (example2_scs, 0)]
    families += [(lambda N, r=r: layer_minus_root_scs(r, N), r) for r in (1, 2, 3)]
    families += [(lambda N, d=d: layered_scs(d, N), 0) for d in ([1, 1, 1], [0, 2, 1], [2, 0, 1])]
    for family, lowest in families:
        for N in range(lowest, 8):
            yield family(N), family(N + 1)
    rng = random.Random(2207)
    for _ in range(200):
        N = rng.randint(0, 7)
        values = random_valid_ell(rng, N + 1)
        yield from_ell(values, N), from_ell(values, N + 1)


def test_cohomology_known_at_n_is_unchanged_at_n_plus_one():
    # a level whose kernel is known at N reads only shifts that the N+1
    # truncation keeps, with the inclusion as the top coface; the larger
    # truncation may not change what the smaller one reports as known
    pairs = 0
    for low, high in _truncation_pairs():
        above = {e.level: e.to_dict() for e in cohomology(build_complex(high)).levels}
        for entry in cohomology(build_complex(low)).levels:
            if entry.kernel_known:
                assert entry.to_dict() == above[entry.level], (low.max_level, entry.level)
                pairs += 1
    assert pairs >= 300


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


# -- the Fraction-level reference, on an independent elimination ---------------------
#
# ``cohomology`` and ``check_cocycle_identities`` as they were before each
# coboundary was eliminated once on its integer rows: every kernel, column
# basis, intersection and span test here is a dense Fraction Gauss-Jordan
# elimination, and every d^n(e_x) is evaluated where it is used.


def _gauss_jordan(rows, ncols):
    """(reduced row echelon rows, pivot columns) of dense Fraction rows."""
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        if m[r][c] != 1:
            m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _ref_kernel(mat):
    R, pivots = _gauss_jordan([mat.row(i) for i in range(mat.nrows)], mat.ncols)
    out = []
    for f in range(mat.ncols):
        if f not in pivots:
            v = [Fraction(0)] * mat.ncols
            v[f] = Fraction(1)
            for row, p in zip(R, pivots):
                v[p] = -row[f]
            out.append(tuple(v))
    return out


def _ref_column_basis(mat):
    _, pivots = _gauss_jordan([mat.row(i) for i in range(mat.nrows)], mat.ncols)
    return [mat.column(j) for j in pivots]


def _ref_rank(vectors):
    return len(_gauss_jordan(vectors, len(vectors[0]))[1]) if vectors else 0


def _ref_leq(a, b):
    return _ref_rank(list(b)) == _ref_rank(list(a) + list(b))


def _ref_equal(a, b):
    return _ref_leq(a, b) and _ref_leq(b, a)


def _ref_intersection(a, b):
    """A x for the kernel vectors (x, y) of [A | -B]."""
    if not a or not b:
        return []
    stacked = Matrix.from_columns(list(a) + [tuple(-x for x in v) for v in b])
    return [
        tuple(sum(x[j] * a[j][i] for j in range(len(a))) for i in range(len(a[0])))
        for x in _ref_kernel(stacked)
    ]


def _ref_primitive_strings(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    if g and next(x for x in ints if x) < 0:
        g = -g
    return [str(x // g) if g else "0" for x in ints]


def reference_cohomology(cx):
    N = cx.max_level
    levels, caveats = [], []
    for k in range(-1, N + 1):
        dim = len(cx.basis(k))
        bound = _ref_column_basis(cx.coboundary(k - 1))
        if k <= N - 1:
            cyc = _ref_kernel(cx.coboundary(k))
            if not _ref_leq(bound, cyc):
                raise InternalInconsistencyError(f"coboundaries not inside cocycles at level {k}")
            entry = LevelCohomology(k, dim, len(cyc), len(bound), len(cyc) - len(bound), True,
                                    [_ref_primitive_strings(v) for v in cyc],
                                    [_ref_primitive_strings(v) for v in bound])
        else:
            caveats.append(
                f"level {k}: kernel of d^{k} needs data beyond the truncation; coboundaries only"
            )
            entry = LevelCohomology(k, dim, None, len(bound), None, False, [],
                                    [_ref_primitive_strings(v) for v in bound])
        levels.append(entry)
    return CohomologyReport(levels, caveats)


def reference_identities(scs):
    N = scs.max_level
    cx = build_complex(scs)
    report = CheckReport()

    def embed(vectors, dst_level):
        size = len(cx.basis(dst_level))
        return [tuple(v) + (Fraction(0),) * (size - len(v)) for v in vectors]

    def lower(src_level, dst_level):
        n = len(cx.basis(src_level))
        return embed([tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)], dst_level)

    cocycles = {k: _ref_kernel(cx.coboundary(k)) for k in range(0, N)}
    for k in range(0, N):
        Z_k = cocycles[k]
        B_k = _ref_column_basis(cx.coboundary(k - 1))
        lower_cols = lower(k - 1, k)
        report.record(
            "cocycles-meet-lower-equals-coboundaries-meet-lower",
            {"level": k},
            _ref_equal(_ref_intersection(Z_k, lower_cols), _ref_intersection(B_k, lower_cols)),
        )
        ok_fp = True
        for col in Z_k:
            vec = {x: c for x, c in zip(cx.basis(k), col) if c}
            if extended_coboundary(scs, k - 1, vec) != vec:
                ok_fp = False
        report.record("cocycles-are-coboundary-fixed-points", {"level": k}, ok_fp)
    for k in range(-1, N):
        for l in range(-1, k + 1):
            ok = True
            for x in cx.basis(l):
                if scs.levels[x] > N - 1:
                    continue
                vec = {x: 1}
                lhs = extended_coboundary(scs, k, vec)
                low = extended_coboundary(scs, l - 1, vec)
                if (k - l) % 2 == 0:
                    rhs = dict(vec)
                    for y, c in low.items():
                        rhs[y] = rhs.get(y, 0) - c
                    rhs = {y: c for y, c in rhs.items() if c}
                else:
                    rhs = low
                if lhs != rhs:
                    ok = False
            report.record("two-step-coboundary", {"k": k, "l": l}, ok)
    for k in range(0, N - 2):
        meet = _ref_intersection(cocycles[k + 2], lower(k, k + 2))
        report.record(
            "cocycle-stability-two-up", {"level": k}, _ref_equal(meet, embed(cocycles[k], k + 2))
        )
    return report


def _outcome(f, *args):
    """The JSON of the report, or the type and message of the error raised."""
    try:
        return json.dumps(f(*args).to_dict())
    except Exception as err:  # compared, not swallowed
        return (type(err).__name__, str(err))


def _oracle_structures():
    rng = random.Random(2201)
    cases = [prototypical(N) for N in range(1, 31)]
    cases += [from_ell(random_valid_ell(rng, N), N) for N in [rng.randint(0, 9) for _ in range(110)]]
    cases += [example2_scs(N) for N in (4, 5, 6)] + [figure2_scs()]
    cases += [layered_scs(d, N) for d, N in (([1, 1, 1], 5), ([0, 2, 1, 1], 4), ([1, 2], 4), ([2, 0, 1], 4))]
    cases += [TruncatedSCS(2, {}, ({}, {}))]
    return cases


def test_cohomology_equals_the_fraction_reference():
    for scs in _oracle_structures():
        cx = build_complex(scs)
        assert _outcome(cohomology, cx) == _outcome(reference_cohomology, cx)


def test_cocycle_identities_equal_the_fraction_reference():
    for scs in _oracle_structures():
        if scs.max_level <= 14:  # the reference identities grow steeply with N
            assert _outcome(check_cocycle_identities, scs) == _outcome(reference_identities, scs)


def _rational_change_of_basis(rng, n):
    """An invertible upper triangular matrix with small non-integer entries."""
    entries = {(i, i): Fraction(rng.choice([1, 2, 3, -2]), rng.choice([1, 3, 5])) for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                entries[i, j] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 7]))
    return Matrix.from_entries(n, n, entries)


def test_cohomology_on_rational_coboundaries_equals_the_fraction_reference():
    # d^n -> P_{n+1} d^n P_n^-1 keeps d d = 0 and gives entries with
    # denominators; a random matrix in place of one d^n breaks d d = 0, so
    # the self-check raises in both
    rng = random.Random(2202)
    verdicts = []
    denominators = 0
    for t in range(60):
        N = rng.randint(1, 6)
        cx = build_complex(from_ell(random_valid_ell(rng, N), N))
        P = {n: _rational_change_of_basis(rng, len(cx.basis(n))) for n in range(-1, N + 1)}
        matrices = {n: P[n + 1] * M * P[n].inverse() for n, M in cx.matrices.items()}
        if t % 4 == 3:
            n = rng.randrange(-1, N)
            M = matrices[n]
            matrices[n] = Matrix.from_entries(
                M.nrows, M.ncols,
                {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for i in range(M.nrows) for j in range(M.ncols)},
            )
        rational = CochainComplex(N, cx.bases, matrices)
        outcome = _outcome(cohomology, rational)
        assert outcome == _outcome(reference_cohomology, rational)
        verdicts.append(type(outcome) is str)
        denominators += any(M[i, j].denominator > 1 for M in matrices.values()
                            for i in range(M.nrows) for j in range(M.ncols))
    assert set(verdicts) == {True, False}
    assert denominators >= 30


def _mutants(rng, count):
    """Structures with one or two shift entries sent to another element, kept
    when ``build_complex`` accepts them.  Half the replacements move a fixed
    point of the shift one level up, which keeps d d = 0 more often than a
    uniform target but breaks the fixed-point identities."""
    bases = [prototypical(N) for N in (3, 4, 5)] + [example2_scs(5), figure2_scs()]
    bases += [layered_scs([1, 1, 1], 4), layered_scs([0, 2, 1], 4)]
    out = []
    while len(out) < count:
        N = rng.randint(2, 5)
        scs = rng.choice(bases + [from_ell(random_valid_ell(rng, N), N)])
        shifts = [dict(m) for m in scs.shifts]
        stored = [i for i, m in enumerate(shifts) if m]
        if not stored:
            continue
        for _ in range(rng.randint(1, 2)):
            i = rng.choice(stored)
            x = rng.choice(sorted(shifts[i]))
            up = [y for y, lv in scs.levels.items() if lv == scs.levels[x] + 1]
            if shifts[i][x] == x and up and rng.random() < 0.5:
                shifts[i][x] = rng.choice(sorted(up))
            else:
                shifts[i][x] = rng.choice(sorted(scs.levels))
        mutant = TruncatedSCS(scs.max_level, dict(scs.levels), tuple(shifts))
        try:
            build_complex(mutant)
        except (InvalidStructureError, InternalInconsistencyError):  # a target off the next level, or d d != 0
            continue
        out.append(mutant)
    return out


def test_identities_on_mutated_shifts_equal_the_fraction_reference():
    failed = set()
    for mutant in _mutants(random.Random(2203), 250):
        outcome = _outcome(check_cocycle_identities, mutant)
        assert outcome == _outcome(reference_identities, mutant)
        cx = build_complex(mutant)
        assert _outcome(cohomology, cx) == _outcome(reference_cohomology, cx)
        if type(outcome) is str:
            failed.update(f["check"] for f in json.loads(outcome)["failures"])
    # every kind of identity fails on some mutant
    assert failed == {
        "cocycles-meet-lower-equals-coboundaries-meet-lower",
        "cocycles-are-coboundary-fixed-points",
        "two-step-coboundary",
        "cocycle-stability-two-up",
    }
