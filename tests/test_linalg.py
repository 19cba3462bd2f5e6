"""Exact linear algebra: the access surface of ``Matrix``, the
pseudo-inverse and the partial isometries and projections built from it,
fixed vectors, column selection, the subspace tests, kernel and
inverse against the dense Gauss-Jordan reference ``rref`` and the
determinism conventions of the kernel basis; the integer kernels (products,
``dot``, ``gram_schmidt``, the fraction-free ``Echelon``) against dense
``Fraction`` references on large and mixed denominators, the cached integer
rows of a reused operand, the Fraction-only storage the benchmark reads, and
the few memos the package keeps."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosimplex.fixtures import random_rational_rotation
from cosimplex.linalg import (
    Matrix,
    _ints,
    dot,
    fixed_vectors,
    gram_schmidt,
    orthogonal,
    primitive,
    pseudo_inverse,
    span_basis,
    subspace_equal,
    subspace_leq,
)
from structures import rref, rref_kernel

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def column_lists(min_cols=0, max_cols=5, min_rows=1, max_rows=4):
    """Lists of same-length rational columns, zero and repeated ones included."""
    return st.integers(min_rows, max_rows).flatmap(
        lambda m: st.lists(
            st.one_of(
                st.lists(rationals, min_size=m, max_size=m).map(tuple),
                st.just(tuple(F(0) for _ in range(m))),
            ),
            min_size=min_cols,
            max_size=max_cols,
        ).map(lambda cols: (m, cols))
    )


def mat(rows):
    return Matrix([[F(x) for x in row] for row in rows])


# a 4x2 source with independent, non-orthogonal columns and a 4x2 target
B = mat([[1, 1], [2, 0], [0, 1], [1, 3]])
D = mat([[3, 0], [0, 1], [1, 1], [0, 2]])


def test_partial_isometry_maps_src_onto_dst():
    P = D * pseudo_inverse(B)
    assert P * B == D
    # the kernel of B^T is the orthogonal complement of span(B)
    complement = B.transpose().kernel().columns()
    assert len(complement) == 2
    for v in complement:
        assert P * v == (F(0),) * 4


def test_partial_isometry_of_a_basis_with_itself_is_the_projection():
    P = B * pseudo_inverse(B)
    assert P * P == P and P.transpose() == P and P * B == B
    for v in B.transpose().kernel().columns():
        assert P * v == (F(0),) * 4


def test_partial_isometry_of_an_empty_source_is_zero():
    src = Matrix.zeros(3, 0)
    dst = Matrix.zeros(5, 0)
    assert pseudo_inverse(src) == Matrix.zeros(0, 3)
    P = dst * pseudo_inverse(src)
    assert (P.nrows, P.ncols) == (5, 3)
    assert P.is_zero()


def test_transpose_matches_the_adjoint_formula_on_a_non_isometric_target():
    # D is no isometric image of B: D^T D differs from the Gram B^T B
    assert D.transpose() * D != B.transpose() * B
    G = B.transpose() * B
    reference = B * G.inverse() * D.transpose()
    assert (D * pseudo_inverse(B)).transpose() == reference


def test_pseudo_inverse_rejects_dependent_columns():
    dependent = mat([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    with pytest.raises(ValueError):
        pseudo_inverse(dependent)
    assert pseudo_inverse(B) * B == Matrix.identity(2)


def test_fixed_vectors_span_the_fixed_part_of_the_basis():
    swap = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    basis = mat([[1, 0], [0, 1], [0, 0]])
    assert fixed_vectors(swap, basis) == [(F(1), F(1), F(0))]
    assert fixed_vectors(swap, Matrix.zeros(3, 0)) == []
    full = fixed_vectors(swap, Matrix.identity(3))
    assert subspace_equal(full, [(1, 1, 0), (0, 0, 1)])


@settings(max_examples=60, deadline=None)
@given(column_lists())
def test_independent_columns_is_the_greedy_span_basis_selection(data):
    m, cols = data
    greedy = []
    chosen = []
    for idx, col in enumerate(cols):
        if span_basis(chosen + [col]) != span_basis(chosen):
            greedy.append(idx)
            chosen.append(col)
    assert Matrix.from_columns(cols, nrows=m).independent_columns() == tuple(greedy)


def test_kernel_basis_sets_one_free_variable_in_ascending_order():
    A = mat([[1, 2, 0, 3], [0, 0, 1, 4]])
    K = A.kernel()
    # pivots 0 and 2; free variables 1 and 3, in that order
    assert K.columns() == [
        (F(-2), F(1), F(0), F(0)),
        (F(-3), F(0), F(-4), F(1)),
    ]


@settings(max_examples=60, deadline=None)
@given(column_lists(min_cols=1))
def test_kernel_basis_convention_on_random_matrices(data):
    m, cols = data
    A = Matrix.from_columns(cols, nrows=m)
    pivots = set(A.independent_columns())
    free = [c for c in range(A.ncols) if c not in pivots]
    K = A.kernel()
    assert K.ncols == len(free)
    for j, fc in enumerate(free):
        col = K.column(j)
        assert [col[c] for c in free] == [F(1) if c == fc else F(0) for c in free]
        assert A * col == (F(0),) * m


@pytest.mark.parametrize("op", ["__add__", "__sub__"])
def test_add_and_sub_reject_operands_of_different_shapes(op):
    A = mat([[1, 2], [3, 4]])
    for other in (mat([[1]]), mat([[1, 2]]), mat([[1], [2]]), Matrix.zeros(2, 3)):
        with pytest.raises(ValueError, match="shape mismatch"):
            getattr(A, op)(other)
    assert getattr(A, op)(A) == (A.scale(2) if op == "__add__" else Matrix.zeros(2, 2))


def test_from_entries_places_the_entries_and_zeros_elsewhere():
    M = Matrix.from_entries(2, 3, {(0, 2): F(1, 2), (1, 0): -3})
    assert M == mat([[0, 0, F(1, 2)], [-3, 0, 0]])
    assert (M[0, 2], M[1, 0], M[1, 1]) == (F(1, 2), F(-3), F(0))
    assert isinstance(M[1, 0], Fraction)
    assert M.row(1) == (F(-3), F(0), F(0))
    assert Matrix.from_entries(3, 0, {}) == Matrix.zeros(3, 0)
    assert Matrix.identity(3) == mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("ij", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_from_entries_rejects_an_index_outside_the_shape(ij):
    with pytest.raises(ValueError, match="outside a 2x3 matrix"):
        Matrix.from_entries(2, 3, {ij: 1})


def test_from_columns_of_empty_columns_keeps_the_column_count():
    M = Matrix.from_columns([(), ()], nrows=0)
    assert (M.nrows, M.ncols) == (0, 2)
    assert M == Matrix.zeros(0, 2)
    assert Matrix.from_columns([], nrows=2) == Matrix.zeros(2, 0)


def test_from_columns_rejects_columns_of_another_length():
    with pytest.raises(ValueError, match="columns of length 5"):
        Matrix.from_columns([(1,), (2,)], nrows=5)
    with pytest.raises(ValueError, match="columns of length 2"):
        Matrix.from_columns([(1, 2), (3,)])
    assert Matrix.from_columns([(1,), (2,)], nrows=1) == mat([[1, 2]])


def test_no_module_outside_linalg_touches_matrix_storage():
    """Only ``linalg`` reads or writes ``Matrix.rows``: everything else goes
    through ``from_entries``, ``M[i, j]``, ``row`` and ``column``."""
    package = Path(__file__).resolve().parents[1] / "src" / "cosimplex"
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert sites == []


def test_only_the_generators_and_the_angle_invert_outside_linalg():
    """Outside ``linalg``, every Gram inverse goes through
    ``pseudo_inverse``: ``.inverse()`` is called only on the square labeled
    basis of ``tower.build_symmetric_rep`` and on the K Gram of
    ``spread._angle``."""
    package = Path(__file__).resolve().parents[1] / "src" / "cosimplex"
    callers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inverse"
            ):
                # the innermost function around the call, or the module
                around = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                callers.append(f"{path.stem}.{around[-1] if around else '<module>'}")
    assert sorted(callers) == ["spread._angle", "tower.build_symmetric_rep"]


def _scoped(tree):
    """Every node of ``tree`` but contexts and operators, with the names of
    the classes and functions around it (a decorator counts as inside its
    function)."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        for field in node._fields:
            if field in ("ctx", "op"):
                continue
            value = getattr(node, field, None)
            for child in value if isinstance(value, list) else (value,):
                if isinstance(child, ast.AST):
                    yield child, scope
                    stack.append((child, scope))


def _written_name(expr):
    """The module-level name an expression may stand for: a bare name or
    ``globals()``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and expr.func.id == "globals":
        return "globals()"
    return None


def test_every_memo_in_the_package_is_one_of_the_reviewed_few():
    """A memo makes a result depend on what ran before, so each one is pinned
    here: ``functools`` caches, ``self`` attributes written outside
    ``__init__`` and ``__post_init__``, and module-level names written or
    mutated inside a function.  There are three kinds: the integer rows of a
    ``Matrix``, what a ``SpreadableFamily`` derives from itself, and the
    names ``cosimplex`` binds on first use (PEP 562)."""
    package = Path(__file__).resolve().parents[1] / "src" / "cosimplex"
    caches = {"cache", "lru_cache", "cached_property"}
    mutators = {"append", "extend", "insert", "add", "update", "setdefault", "__setitem__"}
    memos = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names = {"globals()"} | {
            t.id for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign))
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Name)
        }
        for node, scope in _scoped(tree):
            # writes at import, and to an instance while it is built, keep
            # nothing from one call to the next
            built = bool(scope) and scope[-1] not in ("__init__", "__post_init__")
            found = None
            if isinstance(node, ast.Name):
                if node.id in caches:
                    found = node.id
            elif isinstance(node, ast.Attribute):
                if node.attr in caches or node.attr == "__dict__":
                    found = f".{node.attr}"
                elif built and isinstance(node.ctx, ast.Store) and _written_name(node.value) == "self":
                    found = f"self.{node.attr}"
            elif isinstance(node, ast.alias):
                if node.name in caches - {"cached_property"}:
                    found = f"import {node.name}"
            elif isinstance(node, ast.Subscript):
                if scope and isinstance(node.ctx, ast.Store) and _written_name(node.value) in module_names:
                    found = f"{_written_name(node.value)}[...] ="
            elif scope and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = _written_name(node.func.value)
                if built and node.func.attr == "__setattr__" and owner == "object":
                    found = "object.__setattr__"
                elif node.func.attr in mutators and owner in module_names:
                    found = f"{owner}.{node.func.attr}"
            elif isinstance(node, ast.Global):
                found = "global"
            if found:
                memos.add(f"{path.stem}.{'.'.join(scope)}: {found}")
    assert sorted(memos) == [
        "__init__.__getattr__: globals()[...] =",
        "linalg.Matrix._int_form: self._int_rows",
        "spread.SpreadableFamily._angle_report: cached_property",
        "spread.SpreadableFamily._bare_angle: cached_property",
        "spread.SpreadableFamily._q0: cached_property",
        "spread.SpreadableFamily._tower: cached_property",
    ]


# -- the subspace tests against rref, an independent elimination -----------------


def rref_pivots(m, cols):
    return rref(Matrix.from_columns(cols, nrows=m))[1]


@settings(max_examples=80, deadline=None)
@given(column_lists())
def test_span_basis_keeps_the_rref_pivot_columns(data):
    m, cols = data
    assert span_basis(cols) == [cols[j] for j in rref_pivots(m, cols)]


@settings(max_examples=80, deadline=None)
@given(column_lists(min_cols=1))
def test_subspace_contains_exactly_when_the_system_is_solvable(data):
    m, cols = data
    total = tuple(sum(col, F(0)) for col in zip(*cols))
    for j, v in enumerate(cols + [total]):
        rest = cols[:j] + cols[j + 1 :]
        # consistent exactly when the right-hand side is no pivot column
        solvable = len(rest) not in rref_pivots(m, rest + [v])
        assert subspace_leq([v], rest) == solvable
        assert subspace_leq([v, v], rest) == solvable
    assert subspace_leq([total], cols)


@settings(max_examples=80, deadline=None)
@given(column_lists(max_cols=8), st.integers(0, 8))
def test_subspace_equal_exactly_when_the_three_ranks_agree(data, cut):
    m, cols = data
    a, b = cols[:cut], cols[cut:]
    for x, y in ((a, b), (a, a[::-1] + b[:1]), (cols, cols[::-1])):
        rx, ry, rxy = (len(rref_pivots(m, vs)) for vs in (x, y, x + y))
        assert subspace_equal(x, y) == (rx == ry == rxy)
        assert subspace_equal(y, x) == subspace_equal(x, y)


@settings(max_examples=80, deadline=None)
@given(column_lists())
def test_rank_independent_columns_and_kernel_agree_with_rref(data):
    m, cols = data
    A = Matrix.from_columns(cols, nrows=m)
    pivots = rref(A)[1]
    assert A.independent_columns() == pivots
    assert A.rank() == len(pivots) == A.transpose().rank()
    assert A.kernel().ncols == A.ncols - len(pivots)


@settings(max_examples=80, deadline=None)
@given(column_lists())
def test_kernel_equals_the_reference_reduced_form(data):
    m, cols = data
    A = Matrix.from_columns(cols, nrows=m)
    assert A.kernel().columns() == rref_kernel(A)


@settings(max_examples=80, deadline=None)
@given(column_lists(min_cols=4, max_cols=4))
def test_inverse_equals_the_reference_inverse(data):
    m, cols = data
    A = Matrix.from_columns(cols[:m], nrows=m)
    R, pivots = rref(A.hstack(Matrix.identity(m)))
    if pivots[:m] != tuple(range(m)):
        with pytest.raises(ValueError, match="matrix is singular"):
            A.inverse()
        return
    assert A.inverse() == Matrix([row[m:] for row in R])
    assert A * A.inverse() == Matrix.identity(m)


# -- the integer kernels against dense Fraction references ------------------------

# large and mixed denominators, negative values and zeros
wide = st.one_of(
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6),
    st.integers(-3, 3).map(F),
    st.just(F(0)),
)


def wide_matrices(m, n):
    """m x n matrices of ``wide`` entries, with zero rows drawn on purpose."""
    row = st.one_of(st.lists(wide, min_size=n, max_size=n), st.just([F(0)] * n))
    return st.lists(row, min_size=m, max_size=m).map(lambda rows: Matrix(rows, ncols=n))


shapes = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def entries(M):
    return [x for i in range(M.nrows) for x in M.row(i)]


def ref_product(A, B):
    return [
        [sum((A[i, t] * B[t, j] for t in range(A.ncols)), F(0)) for j in range(B.ncols)]
        for i in range(A.nrows)
    ]


@settings(max_examples=80, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    wide_matrices(s[0], s[1]),
    wide_matrices(s[1], s[2]),
    st.lists(wide, min_size=s[1], max_size=s[1]).map(tuple),
    st.lists(wide, min_size=s[1], max_size=s[1]).map(tuple),
)))
def test_products_and_dot_equal_the_dense_fraction_reference(data):
    A, B, u, v = data
    AB = A * B
    assert (AB.nrows, AB.ncols) == (A.nrows, B.ncols)
    assert [list(AB.row(i)) for i in range(AB.nrows)] == ref_product(A, B)
    assert A * u == tuple(sum((a * b for a, b in zip(A.row(i), u)), F(0)) for i in range(A.nrows))
    assert dot(u, v) == sum((a * b for a, b in zip(u, v)), F(0))
    assert dot(u, v) == dot(v, u)
    assert all(type(x) is Fraction for x in entries(AB) + list(A * u) + [dot(u, v)])


@settings(max_examples=80, deadline=None)
@given(column_lists(max_cols=4).flatmap(lambda mc: st.tuples(
    st.just(mc[1]),
    st.lists(st.lists(rationals, min_size=mc[0], max_size=mc[0]).map(tuple), max_size=4),
    st.booleans(),
)))
def test_orthogonal_is_the_pairwise_dot_test(data):
    a, pool, perp = data
    # half the cases project b onto the complement of a, so both verdicts occur
    b = pool
    if perp and pool:
        A = Matrix.from_columns(span_basis(a), nrows=len(pool[0]))
        b = ((Matrix.identity(A.nrows) - A * pseudo_inverse(A)) * Matrix.from_columns(pool)).columns()
    expected = all(dot(x, y) == 0 for x in a for y in b)
    assert orthogonal(a, b) == orthogonal(b, a) == expected
    if perp:
        assert expected


def dense_rows(M):
    return [list(M.row(i)) for i in range(M.nrows)]


@settings(max_examples=80, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(
    wide_matrices(s[0], s[1]),
    wide_matrices(s[1], s[2]),
    wide_matrices(s[2], s[0]),
    st.lists(wide, min_size=s[1], max_size=s[1]).map(tuple),
)))
def test_cached_integer_rows_stay_equal_to_the_stored_rows(data):
    """A matrix used again and again as left operand, right operand and in
    matrix-vector products keeps its rows, fills its cached integer form
    once, and every product still equals the dense Fraction reference."""
    dense, B, A, u = data
    # built as zeros plus entry writes, the path that writes rows in place
    M = Matrix.from_entries(dense.nrows, dense.ncols, {
        (i, j): x for i, row in enumerate(dense_rows(dense)) for j, x in enumerate(row) if x
    })
    rows = dense_rows(M)
    assert rows == dense_rows(dense) and M._int_rows is None
    ref = {"MB": ref_product(M, B), "AM": ref_product(A, M), "BA": ref_product(B, A)}
    ref_Mu = tuple(sum((a * b for a, b in zip(row, u)), F(0)) for row in rows)
    cached = None
    for _ in range(3):
        products = {"MB": M * B, "AM": A * M, "BA": B * A}
        Mu = M * u
        if cached is None:
            cached = M._int_rows
        assert M._int_rows is cached
        assert cached == [_ints(row) for row in rows]
        assert dense_rows(M) == rows
        assert {k: dense_rows(P) for k, P in products.items()} == ref
        assert Mu == ref_Mu
        read = [x for P in products.values() for x in entries(P)] + list(Mu)
        assert all(type(x) is Fraction for x in read)


def ref_gram_schmidt(vectors):
    """Rational Gram-Schmidt on Fractions, each vector made primitive."""
    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = sum((a * b for a, b in zip(w, u)), F(0))
            if c:
                uu = sum((a * a for a in u), F(0))
                w = [a - c / uu * b for a, b in zip(w, u)]
        if any(w):
            den = 1
            for x in w:
                den = den * x.denominator // gcd(den, x.denominator)
            ints = [int(x * den) for x in w]
            g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
            out.append(tuple(F(x // g) for x in ints))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.one_of(
        st.lists(wide, min_size=m, max_size=m).map(tuple),
        st.just((F(0),) * m),
    ), max_size=5),
)))
def test_gram_schmidt_is_orthogonal_primitive_and_spans_the_input(data):
    m, vectors = data
    out = gram_schmidt(vectors)
    assert out == ref_gram_schmidt(vectors)
    for a, u in enumerate(out):
        assert all(type(x) is Fraction and x.denominator == 1 for x in u)
        assert gcd(*(int(x) for x in u)) == 1
        assert next(x for x in u if x) > 0
        assert all(dot(u, w) == 0 for w in out[a + 1 :])
    rank = len(rref_pivots(m, vectors))
    assert len(out) == rank == len(rref_pivots(m, vectors + out))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(lambda s: st.tuples(
    wide_matrices(*s),
    wide_matrices(s[0], s[0]),
)))
def test_echelon_answers_equal_rref_on_wide_entries(data):
    A, S = data
    pivots = rref(A)[1]
    assert A.independent_columns() == pivots
    assert A.rank() == len(pivots)
    K = A.kernel()
    assert (K.nrows, K.columns()) == (A.ncols, rref_kernel(A))
    n = S.nrows
    Ri, pi = rref(S.hstack(Matrix.identity(n)))
    if pi[:n] != tuple(range(n)):
        with pytest.raises(ValueError, match="matrix is singular"):
            S.inverse()
    else:
        assert S.inverse() == Matrix([row[n:] for row in Ri], ncols=n)


# -- the benchmark's storage contract: Matrix.rows holds only Fractions -----------


def test_every_stored_entry_is_a_fraction():
    """``bench/workloads.py`` reads ``rows`` and hashes ``repr`` of them into
    job keys, so an ``int`` in a result would change those keys."""
    A = Matrix.from_entries(3, 3, {(0, 0): 2, (0, 1): F(1, 3), (1, 2): -1, (2, 0): 5, (2, 2): 1})
    C = Matrix.from_columns([(1, 0, 2), (0, 1, 1)])
    Q = random_rational_rotation(5, random.Random(0), 4)
    results = [
        A, C, Q, A * A, A * C, C.transpose(), A.transpose() * C, A.inverse(), Q * Q.transpose(),
        A.kernel(), C.transpose().kernel(), Matrix.identity(2), Matrix.zeros(2, 2),
        Matrix.from_columns([], nrows=2), mat([[1, 2], [2, 4]]).kernel(),
    ]
    for M in results:
        assert all(type(x) is Fraction for x in entries(M)), M
    vectors = [A * (1, 2, 3), pseudo_inverse(C) * (1, 1, 0), primitive((F(2), F(0), F(4, 3)))]
    vectors += gram_schmidt([(1, 2, 0), (F(1, 2), 0, 1)]) + span_basis([(1, 2), (0, 1)])
    assert all(type(x) is Fraction for v in vectors for x in v)
