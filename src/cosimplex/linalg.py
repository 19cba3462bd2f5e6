"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` entries, so ranks, kernels
and orthogonal complements are computed without any floating tolerance.
Determinism conventions used throughout the package:

* ``Echelon`` is the one Gaussian elimination: it caches, for a growing set of
  vectors, one (pivot column, reduced row) pair per independent vector, with
  the pivot on the first nonzero column, so each further vector is reduced
  once and never rescanned for pivots; rank, containment, subspace comparison
  and greedy column selection go through it;
* ``Echelon.reduced`` back-substitutes the stored rows into the reduced row
  echelon form, which is unique for a given row space; kernel, solve and
  inverse read their answers off it;
* kernel bases set one free variable to 1 in ascending index order, and
  ``solve`` sets every free variable to 0;
* intersections, orthogonal complements and fixed vectors are the images
  B x of those kernel vectors x, each rescaled by ``primitive``;
* Gram-Schmidt processes vectors in the given order and keeps unnormalized
  vectors, rescaled to primitive integer form with positive leading entry.

``Matrix.rows`` (dense lists of Fractions) is private storage of this module.
Matrices are built with ``from_entries``, ``from_columns``, ``zeros`` and
``identity`` (or from a list of rows), and read with ``M[i, j]``, ``row`` and
``column``; no code outside this module changes a matrix in place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

Vector = tuple  # tuple of Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Dense rational matrix; rows are lists of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [[_frac(x) for x in row] for row in rows]
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
        cols = list(cols)
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for an empty column list")
            return Matrix([[] for _ in range(nrows)], ncols=0)
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))])

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

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            nc = other.ncols
            out = []
            for row in self.rows:
                acc = [_F0] * nc
                for k, a in enumerate(row):
                    if a:
                        other_row = other.rows[k]
                        for j, b in enumerate(other_row):
                            if b:
                                acc[j] += a * b
                out.append(acc)
            return Matrix._of(out, nc)
        # matrix * vector
        vec = list(other)
        if self.ncols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(
            sum((a * b for a, b in zip(row, vec) if a and b), _F0) for row in self.rows
        )

    def transpose(self):
        return Matrix._of([list(col) for col in zip(*self.rows)], self.nrows) if self.rows else Matrix.zeros(self.ncols, 0)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._of([ra + rb for ra, rb in zip(self.rows, other.rows)], self.ncols + other.ncols)

    # -- elimination -------------------------------------------------------

    def rank(self):
        return len(Echelon(self.rows))

    def kernel(self):
        """Columns form a deterministic basis of the null space."""
        R = Echelon(self.rows).reduced(self.ncols)
        pivots = {pc for pc, _ in R}
        cols = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v = [_F0] * self.ncols
            v[fc] = _F1
            for pc, row in R:
                v[pc] = -row[fc]
            cols.append(tuple(v))
        return Matrix.from_columns(cols, nrows=self.ncols)

    def independent_columns(self):
        """Indices of a greedy (first-come) maximal independent column set;
        they are the pivot columns of the reduced row echelon form."""
        ech = Echelon()
        return tuple(j for j, col in enumerate(zip(*self.rows)) if ech.add(col))

    def column_space_basis(self):
        return Matrix.from_columns([self.column(j) for j in self.independent_columns()], nrows=self.nrows)

    def solve(self, b):
        """One solution of ``self * x = b``, or None when inconsistent.

        Free variables are set to zero, which makes the answer deterministic.
        """
        n = self.ncols
        aug = self.hstack(Matrix.from_columns([tuple(b)], nrows=self.nrows))
        R = Echelon(aug.rows).reduced(n + 1)
        if R and R[-1][0] == n:
            return None
        x = [_F0] * n
        for pc, row in R:
            x[pc] = row[n]
        return tuple(x)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have inverses")
        n = self.nrows
        R = Echelon(self.hstack(Matrix.identity(n)).rows).reduced(2 * n)
        if any(pc != i for i, (pc, _) in enumerate(R)):
            raise ValueError("matrix is singular")
        return Matrix._of([row[n:] for _, row in R], n)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


# -- vector helpers ---------------------------------------------------------


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), _F0)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    c = _frac(c)
    return tuple(c * a for a in u)


def is_zero_vector(v):
    return all(x == 0 for x in v)


def primitive(v) -> Vector:
    """Rescale to a coprime integer vector whose first nonzero entry is positive."""
    v = tuple(_frac(x) for x in v)
    if is_zero_vector(v):
        return v
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


# -- subspace utilities ------------------------------------------------------


class Echelon:
    """Row echelon form of the vectors added so far, grown one vector at a time.

    Each independent vector is stored as its pivot column (the first nonzero
    entry left after reduction) and its reduced row, scaled to 1 at the pivot
    and kept as its nonzero ``(column, entry)`` pairs.  A stored row is zero at
    the pivot columns of every row stored before it, so reducing a vector
    against the rows in order clears every pivot column in one pass.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows = []
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v) -> list:
        work = list(v)
        for c, entries in self._rows:
            f = work[c]
            if f:
                for j, x in entries:
                    work[j] -= f * x
        return work

    def add(self, v) -> bool:
        """Store ``v`` and return True when it is independent of the rows."""
        work = self._reduce(v)
        for c, p in enumerate(work):
            if p:
                inv = _F1 / p
                self._rows.append((c, [(j, x * inv) for j, x in enumerate(work[c:], c) if x]))
                return True
        return False

    def contains(self, v) -> bool:
        """Whether ``v`` lies in the span of the rows."""
        return not any(self._reduce(v))

    def reduced(self, ncols) -> list:
        """Reduced row echelon form of the rows, ``ncols`` wide: (pivot
        column, dense row) pairs in pivot order.

        A stored row is already zero at the pivots of the rows stored before
        it, so back-substituting from the last row up clears the rest.
        """
        out = []
        for c, entries in reversed(self._rows):
            row = [_F0] * ncols
            for j, x in entries:
                row[j] = x
            for p, _, later in out:
                f = row[p]
                if f:
                    for j, x in later:
                        row[j] -= f * x
            out.append((c, row, [(j, x) for j, x in enumerate(row) if x]))
        return [(c, row) for c, row, _ in sorted(out, key=lambda t: t[0])]


def span_basis(vectors):
    """Greedy independent subset of ``vectors``, kept in input order."""
    ech = Echelon()
    return [tuple(_frac(x) for x in v) for v in vectors if ech.add(v)]


def subspace_rank(vectors):
    return len(Echelon(vectors))


def subspace_contains(basis, v):
    return Echelon(basis).contains(v)


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
    return [v for v in vectors if not is_zero_vector(v)]


def subspace_intersection(a_vectors, b_vectors):
    """Basis of span(a) ∩ span(b): A x for the kernel vectors (x, y) of
    [A | -B]."""
    a = span_basis(a_vectors)
    b = span_basis(b_vectors)
    if not a or not b:
        return []
    stacked = Matrix.from_columns(a + [vec_scale(-1, v) for v in b])
    A_0 = Matrix.from_columns(a).hstack(Matrix.zeros(len(a[0]), len(b)))
    return span_basis(_kernel_image(stacked, A_0))


def orthogonal_complement_within(perp_to, within):
    """Vectors of span(within) orthogonal to every vector of ``perp_to``."""
    within_basis = span_basis(within)
    if not within_basis:
        return []
    constraints = span_basis(perp_to)
    if not constraints:
        return within_basis
    W = Matrix.from_columns(within_basis)
    return _kernel_image(Matrix.from_columns(constraints).transpose() * W, W)


def gram_schmidt(vectors):
    """Exact orthogonalization, unnormalized primitive vectors, zeros dropped."""
    out = []
    for v in vectors:
        w = tuple(_frac(x) for x in v)
        for u in out:
            c = dot(w, u)
            if c:
                w = vec_sub(w, vec_scale(c / dot(u, u), u))
        if not is_zero_vector(w):
            out.append(primitive(w))
    return out


def partial_isometry(src: Matrix, dst: Matrix) -> Matrix:
    """The map dst (srcᵀ src)⁻¹ srcᵀ: column j of ``src`` goes to column j of
    ``dst`` and the orthogonal complement of span(src) to zero.

    ``src`` needs independent columns; with none it is the zero map.
    """
    if src.ncols == 0:
        return Matrix.zeros(dst.nrows, src.nrows)
    G = src.transpose() * src
    return dst * G.inverse() * src.transpose()


def projection_matrix(basis_vectors, dim):
    """Orthogonal projection onto span of the given ambient vectors."""
    B = Matrix.from_columns(span_basis(basis_vectors), nrows=dim)
    return partial_isometry(B, B)


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
        out.append(vec_scale(1 / r, v))
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
