"""Shared generators and references of the test suite.

Not collected by pytest (no ``test_`` prefix).  Test modules import from it
by name, ``from structures import random_valid_ell``: pytest puts the test
directory on ``sys.path``, whichever directory it is started from.  Each
helper is defined here once, and a test that draws from one keeps its own
seed, size and draw order.
"""

from dataclasses import replace
from fractions import Fraction

from cosimplex.linalg import Matrix


def random_valid_ell(rng, N):
    """A level function accepted by ``from_ell``: ell(0) in 0..N, then each
    ell(n) in n..ell(n-1)+1."""
    values = [rng.randint(0, N)]
    for n in range(1, N + 1):
        values.append(rng.randint(n, values[n - 1] + 1))
    return values


def diag(*entries):
    k = len(entries)
    return Matrix.from_entries(k, k, {(i, i): Fraction(x) for i, x in enumerate(entries)})


def dims_by_level(report):
    return {e.level: e.dim_cohomology for e in report.levels if e.kernel_known}


def coboundary_matrix(cx, n):
    """d^n of the ``CochainComplex`` as a Matrix from ``cx.basis(n)`` to
    ``cx.basis(n + 1)``, read off its columns; d^{-2} is the zero map from
    the zero space."""
    index = {y: r for r, y in enumerate(cx.basis(n + 1))}
    src = cx.basis(n)
    entries = {(index[y], c): a for c, x in enumerate(src) for y, a in cx.columns[n][x].items()}
    return Matrix.from_entries(len(index), len(src), entries)


def rref(A):
    """Reduced row echelon form of the Matrix ``A`` by dense Fraction
    Gauss-Jordan elimination: (its nonzero rows, pivot column tuple)."""
    m = [list(A.row(i)) for i in range(A.nrows)]
    pivots = []
    for c in range(A.ncols):
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
    return m[: len(pivots)], tuple(pivots)


def rref_kernel(A):
    """The kernel basis read off ``rref(A)``: for each free column f, the
    vector with x[f] = 1, x[p] = -R[p, f] at the pivots and 0 elsewhere."""
    R, pivots = rref(A)
    out = []
    for f in range(A.ncols):
        if f not in pivots:
            v = [Fraction(0)] * A.ncols
            v[f] = Fraction(1)
            for row, p in zip(R, pivots):
                v[p] = -row[f]
            out.append(tuple(v))
    return out


def with_last_shift_broken(t):
    """``t`` with its last shift composed with a coordinate swap: the
    exchange relations fail, so images depend on the insertion word taken."""
    d = t.ambient_dim
    swap = {(i, i): 1 for i in range(1, d - 1)}
    swap.update({(0, d - 1): 1, (d - 1, 0): 1} if d > 1 else {(0, 0): -1})
    return replace(t, shifts=t.shifts[:-1] + [t.shifts[-1] * Matrix.from_entries(d, d, swap)])
