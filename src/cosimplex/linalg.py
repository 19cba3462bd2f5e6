"""Exact linear algebra over the rationals.

Matrices are stored as dense ``fractions.Fraction`` entries, so ranks,
kernels and orthogonal complements are computed without any floating
tolerance.  The inner loops run on Python ``int``s: a product, ``dot``,
``gram_schmidt`` and ``Echelon`` clear the denominators of each operand row
once (``_ints``), do every multiply-add on integers and build one
``Fraction`` per nonzero result entry, so every value returned is the same
``Fraction`` a pure ``Fraction`` computation gives.
Determinism conventions used throughout the package:

* ``Echelon`` is the one Gaussian elimination, fraction-free: it caches, for
  a growing set of vectors, one (pivot column, primitive integer row) pair
  per independent vector, with the pivot on the first nonzero column, so each
  further vector is reduced once and never rescanned for pivots; rank,
  containment, subspace comparison and greedy column selection go through it;
* ``Echelon._rref`` back-substitutes the stored rows in integers, giving
  the reduced row echelon form with each row scaled to primitive integers
  and a positive pivot, which is unique for a given row space; kernel and
  inverse read their answers off it, and inverse divides by the pivot only
  in the columns it returns;
* a matrix is eliminated by feeding ``Echelon`` its rows in ``_ints`` form
  (``_echelon``): ``rank`` and ``independent_columns`` read the pivots, and
  ``_pivots_and_kernel`` is the one routine that reads the pivot columns
  and the primitive integer kernel vectors off one ``_rref`` pass, before
  any division; ``Matrix.kernel`` is its Fraction view on the cached
  integer rows, and the cohomology layer hands it integer rows of its own;
* kernel bases set one free variable to 1 in ascending index order;
* fixed vectors and the complements the tower layer cuts out are the images
  B x of those kernel vectors x (``_kernel_image``), each rescaled by
  ``primitive``;
* ``pseudo_inverse`` is the one routine here that inverts a Gram matrix:
  for a basis B with independent columns it is B⁺ = (BᵀB)⁻¹Bᵀ, so the
  partial isometry taking the columns of B to those of D, and zero on the
  complement of span(B), is D B⁺, and the orthogonal projection onto
  span(B) is B B⁺;
* Gram-Schmidt processes vectors in the given order and keeps unnormalized
  vectors, rescaled to primitive integer form with positive leading entry.

``Matrix.rows`` (dense lists of Fractions) is private storage of this module.
Matrices are built with ``from_entries``, ``from_columns``, ``zeros`` and
``identity`` (or from a list of rows), and read with ``M[i, j]``, ``row`` and
``column``; no code outside this module changes a matrix in place.

A matrix caches the ``_ints`` form of its rows in the ``_int_rows`` slot:
``None`` when built, filled from ``rows`` the first time the matrix is a
product operand or is eliminated, then only read; it is both the product
input and the elimination input.  So ``rows`` is written only before first
use, or the cache goes stale: ``from_entries`` writes into a fresh ``zeros``,
and so does the benchmark's ``_diag`` (``bench/workloads.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

Vector = tuple  # tuple of Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _ints(v):
    """(pairs, den): the nonzero entries of the sequence ``v`` as ``(index,
    integer)`` pairs over ``den``, the least common denominator of ``v``, so
    ``v[j] == Fraction(x, den)`` for every pair ``(j, x)``.

    Each entry is read once, through the ``_numerator`` and ``_denominator``
    slots of ``Fraction``: the public properties are a method call each, and
    on the 0/1 matrices of integer towers that call costs more than the
    integer arithmetic it feeds.  A sequence of ``int``s is read as it is;
    other entries that are not Fractions are converted first.
    """
    try:
        nonzero = []
        den = 1
        for j, x in enumerate(v):
            n = x._numerator
            if n:
                d = x._denominator
                if den % d:
                    den = den // gcd(den, d) * d
                nonzero.append((j, n, d))
    except AttributeError:
        pairs = [(j, x) for j, x in enumerate(v) if x]
        if all(type(x) is int for _, x in pairs):
            return pairs, 1
        return _ints([_frac(x) for x in v])
    if den == 1:
        return [(j, n) for j, n, _ in nonzero], 1
    return [(j, n * (den // d)) for j, n, d in nonzero], den


def _fractions(ints, den) -> list:
    """Dense Fraction row of ``ints / den``; zeros are the shared ``_F0``."""
    if den == 1:
        return [Fraction(x) if x else _F0 for x in ints]
    return [Fraction(x, den) if x else _F0 for x in ints]


def _ratio(s, d) -> Fraction:
    """``s / d`` for integers; zero is the shared ``_F0``."""
    if not s:
        return _F0
    return Fraction(s) if d == 1 else Fraction(s, d)


def _dense(pairs, n) -> list:
    out = [0] * n
    for j, x in pairs:
        out[j] = x
    return out


def _content(ints) -> int:
    """gcd of the integers, signed like the first nonzero one: dividing by it
    gives the primitive vector with a positive leading entry."""
    g = gcd(*ints)
    return -g if next(x for x in ints if x) < 0 else g


class Matrix:
    """Dense rational matrix; rows are lists of Fractions."""

    __slots__ = ("rows", "nrows", "ncols", "_int_rows")

    def __init__(self, rows, ncols=None):
        self.rows = [[_frac(x) for x in row] for row in rows]
        self._int_rows = None
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @staticmethod
    def _of(rows, ncols):
        """Matrix over ``rows`` as given: fresh, rectangular lists of
        Fractions, ``ncols`` wide, as this module's own operations build."""
        out = Matrix.__new__(Matrix)
        out.rows, out.nrows, out.ncols = rows, len(rows), ncols
        out._int_rows = None
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(m, n):
        return Matrix._of([[_F0] * n for _ in range(m)], n)

    @staticmethod
    def identity(n):
        return Matrix.from_entries(n, n, {(i, i): _F1 for i in range(n)})

    @staticmethod
    def from_entries(nrows, ncols, entries):
        """The ``nrows`` x ``ncols`` matrix with the given ``{(i, j): value}``
        entries and zeros elsewhere; an index outside the shape, negative
        ones included, raises ``ValueError``."""
        out = Matrix.zeros(nrows, ncols)
        for (i, j), x in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            out.rows[i][j] = _frac(x)
        return out

    @staticmethod
    def from_columns(cols, nrows=None):
        """The matrix with the given columns; ``nrows`` is required for no
        columns, and a column of another length raises ``ValueError``."""
        cols = list(cols)
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        if any(len(col) != nrows for col in cols):
            raise ValueError(f"columns of length {nrows} expected")
        return Matrix([[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

    # -- basic access ------------------------------------------------------

    def column(self, j) -> Vector:
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def row(self, i) -> Vector:
        return tuple(self.rows[i])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other, op):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} {op} {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        self._check_same_shape(other, "+")
        return Matrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other, "-")
        return Matrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c):
        c = _frac(c)
        return Matrix._of([[c * x for x in row] for row in self.rows], self.ncols)

    def _int_form(self) -> list:
        """``_ints`` of each row, computed the first time the matrix is a
        product operand or is eliminated, and kept; shared, so read it and
        never write it."""
        if self._int_rows is None:
            self._int_rows = [_ints(row) for row in self.rows]
        return self._int_rows

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            # row k of other is right[k] / L, row i of self is pairs / d_i
            right = other._int_form()
            L = 1
            for _, d in right:
                if L % d:
                    L = L // gcd(L, d) * d
            right = [pairs if d == L else [(j, x * (L // d)) for j, x in pairs] for pairs, d in right]
            nc = other.ncols
            out = []
            for pairs, d in self._int_form():
                acc = [0] * nc
                for k, a in pairs:
                    for j, b in right[k]:
                        acc[j] += a * b
                out.append(_fractions(acc, d * L))
            return Matrix._of(out, nc)
        vec = list(other)
        if self.ncols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        pv, dv = _ints(vec)
        v = _dense(pv, len(vec))
        out = []
        for pairs, d in self._int_form():
            s = 0
            for j, x in pairs:
                s += x * v[j]
            out.append(_ratio(s, d * dv))
        return tuple(out)

    def transpose(self):
        return Matrix._of([list(col) for col in zip(*self.rows)], self.nrows) if self.rows else Matrix.zeros(self.ncols, 0)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._of([ra + rb for ra, rb in zip(self.rows, other.rows)], self.ncols + other.ncols)

    # -- elimination -------------------------------------------------------

    def rank(self):
        return len(_echelon(self._int_form(), self.ncols))

    def kernel(self):
        """Columns form a deterministic basis of the null space: the
        ``_pivots_and_kernel`` vectors, each divided by its free entry."""
        pivots, kernel = _pivots_and_kernel(self._int_form(), self.ncols)
        free = sorted(set(range(self.ncols)).difference(pivots))
        cols = [_fractions(x, x[f]) for f, x in zip(free, kernel)]
        return Matrix.from_columns(cols, nrows=self.ncols)

    def independent_columns(self):
        """Indices of a greedy (first-come) maximal independent column set;
        they are the pivot columns of the reduced row echelon form."""
        return tuple(sorted(c for c, _, _ in _echelon(self._int_form(), self.ncols)._rows))

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have inverses")
        n = self.nrows
        R = _echelon(self.hstack(Matrix.identity(n))._int_form(), 2 * n)._rref(2 * n)
        if any(c != i for i, (c, _) in enumerate(R)):
            raise ValueError("matrix is singular")
        return Matrix._of([_fractions(row[n:], row[c]) for c, row in R], n)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


# -- vector helpers ---------------------------------------------------------


def dot(u, v) -> Fraction:
    pu, du = _ints(u)
    pv, dv = _ints([v[j] for j, _ in pu])  # v at the nonzero columns of u
    s = 0
    for t, b in pv:
        s += pu[t][1] * b
    return _ratio(s, du * dv)


def orthogonal(a_vectors, b_vectors) -> bool:
    """Whether every vector of ``a_vectors`` is orthogonal to every vector of
    ``b_vectors``.  Each vector is cleared of denominators once: scaling by a
    positive integer moves no inner product to or from zero."""
    b = [_ints(w)[0] for w in b_vectors]
    for u in a_vectors:
        pairs, _ = _ints(u)
        dense = _dense(pairs, len(u))
        if any(sum(dense[j] * x for j, x in w) for w in b):
            return False
    return True


def primitive(v) -> Vector:
    """Rescale to a coprime integer vector whose first nonzero entry is positive."""
    return tuple(_fractions(_primitive_ints(tuple(v)), 1))


def _primitive_ints(v) -> list:
    """``primitive(v)`` as a dense list of ``int``s."""
    pairs, _ = _ints(v)
    out = [0] * len(v)
    if pairs:
        g = _content([x for _, x in pairs])
        for j, x in pairs:
            out[j] = x // g
    return out


# -- subspace utilities ------------------------------------------------------


class Echelon:
    """Row echelon form of the vectors added so far, grown one vector at a time.

    Each independent vector is stored as its pivot column (the first nonzero
    entry left after reduction), its pivot entry and its reduced row, scaled
    to a primitive integer row (coprime entries, positive pivot) and kept as
    its nonzero ``(column, entry)`` pairs.  A stored row is zero at the pivot
    columns of every row stored before it, so reducing a vector against the
    rows in order clears every pivot column in one pass.

    The elimination is fraction-free: a vector is scaled to integers once,
    and a row with pivot ``p`` clears entry ``f`` by ``work <- (p/g) work -
    (f/g) row`` with ``g = gcd(p, f)``.  That is a positive multiple of the
    rational step ``work - (f/p) row``, so the zero pattern, and with it every
    pivot, is the one rational elimination gives.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows = []
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v) -> list:
        pairs, _ = _ints(v)
        return _eliminate(_dense(pairs, len(v)), self._rows)

    def add(self, v) -> bool:
        """Store ``v`` and return True when it is independent of the rows."""
        return self._keep(self._reduce(v))

    def _keep(self, work) -> bool:
        """Store the dense integer row ``work``, already reduced against the
        rows, when it is nonzero, and return whether it was."""
        for c, p in enumerate(work):
            if p:
                g = _content(work)
                entries = [(j, x // g) for j, x in enumerate(work[c:], c) if x]
                self._rows.append((c, p // g, entries))
                return True
        return False

    def contains(self, v) -> bool:
        """Whether ``v`` lies in the span of the rows."""
        return not any(self._reduce(v))

    def _rref(self, ncols) -> list:
        """Reduced row echelon form of the rows, ``ncols`` wide, before the
        division by the pivots: (pivot column, dense primitive integer row
        with a positive pivot) pairs in pivot order.

        A stored row is already zero at the pivots of the rows stored before
        it, so back-substituting from the last row up clears the rest.
        """
        done = []
        out = []
        for c, _, entries in reversed(self._rows):
            row = _eliminate(_dense(entries, ncols), done)
            g = _content(row)
            row = [x // g for x in row]
            done.append((c, row[c], [(j, x) for j, x in enumerate(row) if x]))
            out.append((c, row))
        return sorted(out, key=lambda t: t[0])


def _echelon(rows, ncols) -> Echelon:
    """``Echelon`` of the ``ncols`` wide rows given in ``_ints`` form: a row
    scaled by a positive integer spans the same line, so the pivots and the
    reduced row echelon form are those of the rows themselves."""
    ech = Echelon()
    for pairs, _ in rows:
        ech._keep(_eliminate(_dense(pairs, ncols), ech._rows))
    return ech


def _pivots_and_kernel(rows, ncols) -> tuple:
    """(pivot columns, kernel vectors) of the ``ncols`` wide rows given in
    ``_ints`` form, from one elimination and one ``_rref`` pass.

    The pivot columns, ascending, are those of the reduced row echelon form
    R, which are the greedy first-come independent columns.  There is one
    kernel vector per free column f, ascending: x[f] = 1 and x[p] = -R[p, f]
    at each pivot p, rescaled to a primitive list of ``int``s (coprime,
    first nonzero entry positive)."""
    R = _echelon(rows, ncols)._rref(ncols)
    pivots = [c for c, _ in R]
    taken = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in taken:
            continue
        hits = [(c, row) for c, row in R if row[f]]
        scale = lcm(*(row[c] for c, row in hits))
        x = [0] * ncols
        x[f] = scale
        for c, row in hits:
            x[c] = -row[f] * (scale // row[c])
        g = _content(x)
        kernel.append([a // g for a in x])
    return pivots, kernel


def _eliminate(work, rows) -> list:
    """``work`` with the pivot column of each ``(column, pivot, pairs)`` row
    cleared in turn, fraction-free; a positive multiple of the rational
    result."""
    for c, p, entries in rows:
        f = work[c]
        if f:
            g = gcd(p, f)
            if g != p:
                s = p // g
                work = [s * x for x in work]
            f //= g
            for j, x in entries:
                work[j] -= f * x
    return work


def span_basis(vectors):
    """Greedy independent subset of ``vectors``, kept in input order."""
    ech = Echelon()
    return [tuple(_frac(x) for x in v) for v in vectors if ech.add(v)]


def subspace_leq(a_vectors, b_vectors):
    b = Echelon(b_vectors)
    return all(b.contains(v) for v in a_vectors)


def subspace_equal(a_vectors, b_vectors):
    """Equal rank, and every vector that adds to the rank of ``a`` lies in
    span(b)."""
    a, b = Echelon(), Echelon(b_vectors)
    kept = [v for v in a_vectors if a.add(v)]
    return len(a) == len(b) and all(b.contains(v) for v in kept)


def _kernel_image(M: Matrix, B: Matrix) -> list:
    """Nonzero primitive vectors B x, one per kernel column x of M."""
    ker = M.kernel()
    vectors = (primitive(B * ker.column(j)) for j in range(ker.ncols))
    return [v for v in vectors if any(v)]


def gram_schmidt(vectors):
    """Exact orthogonalization, unnormalized primitive vectors, zeros dropped.

    Runs on integer vectors: ``w <- (u.u) w - (w.u) u`` (both coefficients
    divided by their gcd) is a positive multiple of the rational step
    ``w - (w.u)/(u.u) u``, so after ``primitive`` the vectors are the same.
    """
    return _gram_schmidt_groups([vectors])[0]


def _gram_schmidt_groups(groups) -> list:
    """One :func:`gram_schmidt` pass over the vectors of all ``groups`` in
    order: for each group, the vectors it added to the orthogonal basis."""
    done = []  # (primitive integer vector, its squared norm)
    cuts = [0]
    for vectors in groups:
        for v in vectors:
            v = tuple(v)
            pairs, _ = _ints(v)
            w = _dense(pairs, len(v))
            for u, uu in done:
                c = sum(map(mul, w, u))
                if c:
                    g = gcd(uu, c)
                    a, b = uu // g, c // g
                    w = [a * x - b * y for x, y in zip(w, u)]
            if any(w):
                g = _content(w)
                w = [x // g for x in w]
                done.append((w, sum(map(mul, w, w))))
        cuts.append(len(done))
    return [[tuple(_fractions(u, 1)) for u, _ in done[a:b]] for a, b in zip(cuts, cuts[1:])]


def pseudo_inverse(B: Matrix) -> Matrix:
    """The Moore-Penrose pseudo-inverse B⁺ = (BᵀB)⁻¹Bᵀ of a basis ``B``.

    ``B`` needs independent columns: dependent ones make the Gram matrix
    singular, and its ``inverse`` raises ``ValueError``.  With no columns,
    B⁺ is the 0 x n matrix, so D B⁺ and B B⁺ are zero maps.
    """
    Bt = B.transpose()
    return (Bt * B).inverse() * Bt


def fixed_vectors(A: Matrix, B: Matrix) -> list:
    """Nonzero primitive vectors B x, one per kernel column x of A B - B:
    they span the part of span(B) that A fixes."""
    return _kernel_image(A * B - B, B)


def fraction_sqrt(x) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    x = _frac(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def try_orthonormal_basis(vectors):
    """Orthonormal rational basis of the span, or None when norms are irrational."""
    out = []
    for v in gram_schmidt(vectors):
        r = fraction_sqrt(dot(v, v))
        if r is None:
            return None
        out.append(tuple(a / r for a in v))
    return out


def char_poly(mat: Matrix):
    """Characteristic polynomial coefficients c_0..c_n of det(xI - M).

    Uses the Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [_F1]  # leading coefficient of x^n
    Mk = Matrix.zeros(n, n)
    I = Matrix.identity(n)
    for k in range(1, n + 1):
        Mk = mat * Mk + I.scale(coeffs[-1])
        MMk = mat * Mk
        trace = sum(MMk.rows[i][i] for i in range(n))
        coeffs.append(-trace / k)
    return coeffs  # [1, c_{n-1}, ..., c_0]


def is_symmetric(mat: Matrix) -> bool:
    return mat == mat.transpose()


def is_psd(mat: Matrix) -> bool:
    """Exact positive-semidefiniteness test via pivoted LDL elimination."""
    if not is_symmetric(mat):
        return False
    a = [row[:] for row in mat.rows]
    n = mat.nrows
    active = list(range(n))
    while active:
        piv = max(active, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            # remaining diagonal is <= 0; PSD forces the whole block to vanish
            return all(a[i][j] == 0 for i in active for j in active)
        d = a[piv][piv]
        active.remove(piv)
        for i in active:
            f = a[i][piv] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[piv][j]
    return True
