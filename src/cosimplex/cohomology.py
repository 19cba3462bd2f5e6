"""Exact cochain cohomology of a truncated semi-cosimplicial set.

The coboundary out of level n is the alternating sum of the cofaces,

    d^n = sum_{i=0}^{n+1} (-1)^{n+1-i} delta_i      (n >= -1),

with the top coface the inclusion and d^{-2} = 0 on the zero space below the
bottom level.  All arithmetic is exact over the rationals: cocycle and
coboundary dimensions are rank computations, where a floating tolerance could
manufacture or destroy cohomology.  One evaluator, ``_coboundary``, gives
d^n(e_x) as a sparse ``{element: int}`` sign sum.  Its values are the columns
of the coboundary matrices (d^{n+1} d^n = 0 is checked on them before each
matrix is built once, with Fraction entries) and the extended values that
the cocycle identities and the closed-form cocycles read.
Each d^n is eliminated once, fraction-free, on its integer rows
(``Matrix._pivots_and_kernel`` in ``linalg``): the kernel vectors span Z^n
and the columns at the pivots span B^{n+1}.  Both stay primitive ``int``
lists until the report writes them as strings.

Levels -1..N-1 of a level-N truncation carry full information (both the
kernel of d^k and the image of d^{k-1} are computable); at level N only the
coboundaries are known, and the report flags that entry instead of guessing a
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, PreconditionError
from .linalg import Matrix, _primitive_ints, primitive, subspace_equal, subspace_leq
from .scs import CheckReport, Report, TruncatedSCS, innovation_shift_failures, require_valid


@dataclass
class CochainComplex:
    """Coboundary matrices of a truncated structure of level ``max_level`` (N).

    bases[n] is the ordered element basis of the level-n cochain space
    (elements of level <= n, sorted by level then id); matrices[n] is d^n as a
    matrix from bases[n] to bases[n+1], for n = -1..N-1.
    """

    max_level: int
    bases: dict
    matrices: dict

    def basis(self, n: int):
        return self.bases.get(n, [])

    def coboundary(self, n: int) -> Matrix:
        """d^n for -2 <= n <= N-1 (the zero map below the bottom level)."""
        if n == -2:
            return Matrix.zeros(len(self.basis(-1)), 0)
        return self.matrices[n]


def _coboundary(scs: TruncatedSCS, n: int, x) -> dict:
    """d^n(e_x) as ``{element: int}`` with zero coefficients dropped: the
    signed sum of α_0(x)..α_{n+1}(x), α_i the inclusion for i >= N.  A shift
    not stored at x raises ``KeyError``."""
    N = scs.max_level
    out = {}
    sign = (-1) ** (n + 1)
    for i in range(n + 2):
        y = scs.shifts[i][x] if i < N else x
        out[y] = out.get(y, 0) + sign
        sign = -sign
    return {y: c for y, c in out.items() if c}


def build_complex(scs: TruncatedSCS) -> CochainComplex:
    """Assemble the coboundary matrices from the columns d^n(e_x) after
    checking d∘d = 0 on them.

    Valid input is not validated: a failed lookup or a failed d∘d check
    first validates, so an invalid structure raises
    ``InvalidStructureError`` and only a valid one an internal error."""
    N = scs.max_level
    bases = {}
    for n in range(-1, N + 1):
        bases[n] = sorted(scs.X(n), key=lambda x: (scs.levels[x], x))
    try:  # a shift entry missing, or a target off the next level, is a KeyError
        columns = {n: {x: _coboundary(scs, n, x) for x in bases[n]} for n in range(-1, N)}
        for n in range(-1, N - 1):
            upper = columns[n + 1]
            for col in columns[n].values():
                acc = {}
                for y, a in col.items():
                    for z, b in upper[y].items():
                        acc[z] = acc.get(z, 0) + a * b
                if any(acc.values()):
                    require_valid(scs, "build_complex")
                    raise InternalInconsistencyError(f"coboundary composition d^{n + 1} d^{n} != 0")
        matrices = {}
        for n in range(-1, N):
            index = {y: r for r, y in enumerate(bases[n + 1])}
            cols = columns.pop(n)
            entries = {(index[y], c): a for c, x in enumerate(bases[n]) for y, a in cols[x].items()}
            matrices[n] = Matrix.from_entries(len(bases[n + 1]), len(bases[n]), entries)
    except KeyError:
        require_valid(scs, "build_complex")
        raise
    return CochainComplex(N, bases, matrices)


@dataclass
class LevelCohomology(Report):
    level: int
    dim_space: int
    dim_cocycles: int | None
    dim_coboundaries: int
    dim_cohomology: int | None
    kernel_known: bool
    cocycle_basis: list
    coboundary_basis: list


@dataclass
class CohomologyReport(Report):
    levels: list
    truncation_caveats: list

    def level(self, k: int) -> LevelCohomology:
        for entry in self.levels:
            if entry.level == k:
                return entry
        raise KeyError(k)


def _solved(mat: Matrix) -> tuple:
    """(image basis, kernel basis) of one coboundary from one elimination:
    the primitive integer columns at its pivots and its primitive integer
    kernel vectors."""
    pivots, kernel = mat._pivots_and_kernel()
    return [_primitive_ints(mat.column(j)) for j in pivots], kernel


def _strings(vectors) -> list:
    return [list(map(str, v)) for v in vectors]


def cohomology(cx: CochainComplex) -> CohomologyReport:
    """Exact cocycle/coboundary/cohomology dimensions with rational bases."""
    N = cx.max_level
    solved = {n: _solved(cx.coboundary(n)) for n in range(-2, N)}
    levels = []
    caveats = []
    for k in range(-1, N + 1):
        bound = solved[k - 1][0]
        kernel_known = k <= N - 1
        if kernel_known:
            cyc = solved[k][1]
            if not subspace_leq(bound, cyc):
                raise InternalInconsistencyError(f"coboundaries not inside cocycles at level {k}")
        else:
            cyc = []
            caveats.append(
                f"level {k}: kernel of d^{k} needs data beyond the truncation; "
                "coboundaries only"
            )
        entry = LevelCohomology(
            level=k,
            dim_space=len(cx.basis(k)),
            dim_cocycles=len(cyc) if kernel_known else None,
            dim_coboundaries=len(bound),
            dim_cohomology=len(cyc) - len(bound) if kernel_known else None,
            kernel_known=kernel_known,
            cocycle_basis=_strings(cyc),
            coboundary_basis=_strings(bound),
        )
        levels.append(entry)
    return CohomologyReport(levels, caveats)


def explicit_cocycles(scs: TruncatedSCS, k: int, cx: CochainComplex | None = None):
    """Closed-form cocycle basis at level k for structures whose innovations
    shift below k.

    The basis consists of (id - d^{l-1}) applied to the innovations at the
    levels l < k of opposite parity; its span is cross-checked against the
    elimination kernel of d^k and the call fails loudly on any mismatch.
    Returns primitive coefficient vectors over the level-k element basis.
    """
    require_valid(scs, "explicit_cocycles")
    N = scs.max_level
    if not (0 <= k <= N - 1):
        raise PreconditionError(f"explicit cocycles need 0 <= k <= {N - 1}, got {k}")
    bad = sorted({l for _, l in innovation_shift_failures(scs) if l <= k})
    if bad:
        raise PreconditionError(
            f"innovations do not shift at levels {bad}; the closed form does not apply"
        )
    cx = cx or build_complex(scs)
    basis_k = cx.basis(k)
    index = {x: r for r, x in enumerate(basis_k)}
    D = scs.innovation_sets()
    vectors = []
    for l in range(-1, k):
        if (k - l) % 2 == 0:
            continue
        for d in sorted(D[l]):
            col = [0] * len(basis_k)
            col[index[d]] = 1
            for x, c in _coboundary(scs, l - 1, d).items():
                col[index[x]] -= c
            vectors.append(primitive(tuple(col)))
    if not subspace_equal(vectors, cx.coboundary(k)._pivots_and_kernel()[1]):
        raise InternalInconsistencyError(
            f"closed-form cocycles at level {k} do not span the elimination kernel"
        )
    return vectors


def _meet_prefix(vectors, m: int) -> list:
    """Vectors spanning span(vectors) ∩ the first m coordinates, written on
    those m coordinates: V c for each kernel vector c of the rows of V past
    the first m, V having the given vectors as columns."""
    if not vectors:
        return []
    tail = Matrix.from_columns([v[m:] for v in vectors], nrows=len(vectors[0]) - m)
    out = []
    for c in tail._pivots_and_kernel()[1]:
        w = [0] * m
        for a, v in zip(c, vectors):
            if a:
                for i in range(m):
                    w[i] += a * v[i]
        out.append(w)
    return out


def check_cocycle_identities(scs: TruncatedSCS) -> CheckReport:
    """Verify the general cocycle identities as exact subspace statements.

    Checked at every computable level: cocycles meeting a lower cochain space
    are coboundaries there; the two-step identity d^k(x) = x - d^{l-1}(x) or
    d^{l-1}(x) for x at level l (parity of k-l); stability of cocycles two
    levels up; and the fixed-point description x = d^{k-1}(x) of cocycles.

    The bases are level-ordered, so each lower cochain space is a coordinate
    prefix of the next, and the cocycles and coboundaries are met with it
    there.  Each d^n(e_x) is evaluated once per call.
    """
    N = scs.max_level
    cx = build_complex(scs)
    report = CheckReport()
    images = {}

    def image(n: int, x) -> dict:
        """d^n(e_x) as {element: coefficient}."""
        if (n, x) not in images:
            images[n, x] = _coboundary(scs, n, x)
        return images[n, x]

    solved = {n: _solved(cx.coboundary(n)) for n in range(-1, N)}
    cocycles = {k: solved[k][1] for k in range(0, N)}
    for k in range(0, N):
        Z_k = cocycles[k]
        m = len(cx.basis(k - 1))
        report.record(
            "cocycles-meet-lower-equals-coboundaries-meet-lower",
            {"level": k},
            subspace_equal(_meet_prefix(Z_k, m), _meet_prefix(solved[k - 1][0], m)),
        )
        # fixed-point description of cocycles: x in ker d^k iff x = d^{k-1} x
        ok_fp = True
        for col in Z_k:
            vec = {x: c for x, c in zip(cx.basis(k), col) if c}
            img = {}
            for x, c in vec.items():
                for y, a in image(k - 1, x).items():
                    img[y] = img.get(y, 0) + c * a
            if {y: c for y, c in img.items() if c} != vec:
                ok_fp = False
        report.record("cocycles-are-coboundary-fixed-points", {"level": k}, ok_fp)

    # two-step evaluation d^k on lower-level cochains
    for k in range(-1, N):
        for l in range(-1, k + 1):
            ok = True
            for x in cx.basis(l):
                lhs = image(k, x)
                low = image(l - 1, x)
                if (k - l) % 2 == 0:
                    rhs = {x: 1}
                    for y, c in low.items():
                        rhs[y] = rhs.get(y, 0) - c
                    rhs = {y: c for y, c in rhs.items() if c}
                else:
                    rhs = low
                if lhs != rhs:
                    ok = False
            report.record("two-step-coboundary", {"k": k, "l": l}, ok)

    # cocycles two levels up restrict to the same cocycles
    for k in range(0, N - 2):
        meet = _meet_prefix(cocycles[k + 2], len(cx.basis(k)))
        report.record("cocycle-stability-two-up", {"level": k}, subspace_equal(meet, cocycles[k]))

    return report
