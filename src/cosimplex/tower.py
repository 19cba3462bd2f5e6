"""Finite-dimensional towers of inner-product spaces with isometric shifts.

A tower is a nested chain H_{-1} ⊆ H_0 ⊆ ... ⊆ H_N of subspaces of one
rational coordinate space, together with shift matrices α_0..α_{N-1} that act
isometrically on H_{N-1}, satisfy the exchange relations α_j α_i = α_i α_{j-1}
(i < j) where both sides are defined, map each H_k into H_{k+1}, and fix
H_{n-1} pointwise (for α_n).  Ambient coordinates are assumed orthonormal, so
adjoints are transposes.  Level bases are rational and need not be
orthogonal, but their columns must be independent, as the JSON loader
demands.  ``check_tower`` does not test this; ``innovation_bases`` and
``check_normal``, and everything built on them, raise ``PreconditionError``
naming the first level where that fails.

On top of the raw structure this module computes innovation subspaces, fixed
spaces of shifts (replacing ergodic averaging by exact kernel computations),
labeled subspaces, the three equivalent normality criteria, the unitary
generators of the induced symmetric-group action on a normal tower, and the
factorization checks for towers presented by localized unitaries.

All innovations come from one Gram–Schmidt pass over the level bases,
lowest level first.  Each labeled subspace is one shift of its parent
label's (see ``labels``).

The normality criteria take one pseudo-inverse B⁺ = (BᵀB)⁻¹Bᵀ per level:
every coface adjoint into H_k is (B⁺)ᵀ D_iᵀ for the basis B of H_{k-1} and
D_i = δ_i B.  The projections onto fixed spaces are F F⁺ for a fixed basis
F, and root spaces are kernel images inside the innovations.  The
generators come from the labeled basis, the columns of the labeled
subspaces in label order: u_j permutes its columns, so all of them need one
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    InternalInconsistencyError,
    InvalidStructureError,
    NotNormalError,
    PreconditionError,
)
from .labels import Label, enumerate_labels
from .linalg import (
    Matrix,
    _gram_schmidt_groups,
    _kernel_image,
    dot,
    fixed_vectors,
    orthogonal,
    pseudo_inverse,
    span_basis,
    subspace_equal,
    subspace_leq,
    try_orthonormal_basis,
)
from .scs import CheckReport, Report, TruncatedSCS, require_valid


@dataclass
class HilbertTower:
    """max_level N; level_bases[k+1] spans H_k; shifts[i] acts on H_{N-1}."""

    max_level: int
    ambient_dim: int
    level_bases: list  # list of Matrix, index k+1 for level k, k = -1..N
    shifts: list  # list of Matrix (ambient x ambient), i = 0..N-1
    coordinate_names: list | None = None

    def basis(self, k: int) -> Matrix:
        """Basis matrix of H_k (columns); empty below the bottom level."""
        if k < -1:
            return Matrix.zeros(self.ambient_dim, 0)
        if k > self.max_level:
            raise ValueError(f"level {k} beyond truncation {self.max_level}")
        return self.level_bases[k + 1]

    def dim(self, k: int) -> int:
        return self.basis(k).ncols if k >= -1 else 0

    def alpha(self, i: int) -> Matrix:
        """Shift matrix; identity for indices at or beyond the truncation."""
        if i < 0:
            raise ValueError("shift index must be >= 0")
        if i <= self.max_level - 1:
            return self.shifts[i]
        return Matrix.identity(self.ambient_dim)

    def coface(self, i: int, n: int, M):
        """The coface H_{n-1} -> H_n applied to ``M``: the shift for i < n,
        the inclusion (``M`` itself) above."""
        return M if i >= n else self.alpha(i) * M


def check_tower(tower: HilbertTower) -> CheckReport:
    """Verify nesting, isometry, exchange relations, adaptedness and fixed
    action on the truncated data."""
    report = CheckReport()
    N = tower.max_level
    for k in range(-1, N):
        report.record(
            "nesting",
            {"level": k},
            subspace_leq(tower.basis(k).columns(), tower.basis(k + 1).columns()),
        )
    dom = tower.basis(N - 1) if N >= 0 else Matrix.zeros(tower.ambient_dim, 0)
    for i in range(max(0, N)):
        A = tower.shifts[i]
        img = A * dom
        report.record(
            "isometry",
            {"i": i},
            img.transpose() * img == dom.transpose() * dom,
        )
    deep = [tower.alpha(i) * tower.basis(N - 2) for i in range(N - 1)]  # α_i H_{N-2}
    for j in range(1, N):
        for i in range(j):
            lhs = tower.alpha(j) * deep[i]
            report.record("exchange", {"i": i, "j": j}, lhs == tower.alpha(i) * deep[j - 1])
    for i in range(max(0, N)):
        for k in range(-1, N):
            img = tower.alpha(i) * tower.basis(k)
            report.record(
                "adaptedness",
                {"i": i, "level": k},
                subspace_leq(img.columns(), tower.basis(k + 1).columns()),
            )
        low = tower.basis(i - 1)
        report.record("fixed-action", {"i": i}, tower.alpha(i) * low == low)
    return report


# -- construction from a set-level structure -------------------------------------


def from_scs(scs: TruncatedSCS) -> HilbertTower:
    """Interpret elements as orthonormal basis vectors; shifts become 0/1
    matrices.  Columns of level-N basis vectors stay zero: the shift is only
    defined on H_{N-1}.

    Coordinates are ordered by level, so H_k is spanned by the first dim(H_k)
    of them."""
    require_valid(scs, "from_scs")
    N = scs.max_level
    order = sorted(scs.levels, key=lambda x: (scs.levels[x], x))
    index = {x: i for i, x in enumerate(order)}
    dim = len(order)
    level_bases = []
    for k in range(-1, N + 1):
        n_k = sum(1 for x in order if scs.levels[x] <= k)
        level_bases.append(Matrix.from_entries(dim, n_k, {(r, r): 1 for r in range(n_k)}))
    shifts = [
        Matrix.from_entries(
            dim, dim, {(index[y], index[x]): 1 for x, y in scs.shifts[i].items()}
        )
        for i in range(max(0, N))
    ]
    names = [scs.name(x) for x in order]
    return HilbertTower(N, dim, level_bases, shifts, names)


# -- innovation and fixed subspaces ------------------------------------------------


def innovation_bases(tower: HilbertTower) -> dict:
    """k -> orthogonal (unnormalized, primitive rational) basis of H_k ⊖ H_{k-1}
    for k = -1..N: what one Gram–Schmidt pass over the level bases in level
    order adds at level k.  ``PreconditionError`` at the first level where
    that is not dim H_k - dim H_{k-1} vectors (dependent or unnested bases)."""
    levels = range(-1, tower.max_level + 1)
    innov = dict(zip(levels, _gram_schmidt_groups(tower.basis(k).columns() for k in levels)))
    for k in levels:
        if len(innov[k]) != tower.dim(k) - tower.dim(k - 1):
            raise PreconditionError(
                f"the level-{k} basis has dependent columns or does not contain level {k - 1}"
            )
    return innov


def fixed_space(tower: HilbertTower, n: int):
    """(basis, truncation_flag): solutions of α_n x = x inside H_{N-1}.

    The flag warns that fixed vectors of the untruncated object could extend
    beyond the stored ambient whenever the top innovation is nonzero.
    """
    N = tower.max_level
    if not (0 <= n <= N - 1):
        raise ValueError(f"fixed_space needs 0 <= n <= {N - 1}, got {n}")
    vectors = fixed_vectors(tower.alpha(n), tower.basis(N - 1))
    flag = tower.dim(N) > tower.dim(N - 1)
    return span_basis(vectors), flag


# -- saturation dictionary at the matrix level ---------------------------------------


def check_toy_definetti(tower: HilbertTower) -> CheckReport:
    """Matrix-level saturation dictionary.

    Verifies, with truncation caveats where exactness is impossible: the
    innovation-shift inclusions, their equivalence with fixed spaces pinning
    down the tower levels, the single-shift reduction, and the projection
    intertwining relation P̂_n α_i = α_i P̂_{n-1} for i <= n.  Every
    statement reads one table ``into``, which decides α_i(D_k) ⊆ D_{k+1}
    once for each pair 0 <= i <= k <= N-1.
    """
    report = CheckReport()
    N = tower.max_level
    innov = innovation_bases(tower)
    # into[i, k]: α_i(D_k) ⊆ D_{k+1}, decided once for each 0 <= i <= k <= N-1
    into = {
        (i, k): subspace_leq([tower.alpha(i) * v for v in innov[k]], innov[k + 1])
        for k in range(0, N)
        for i in range(0, k + 1)
    }
    shifts_innov = [all(into[i, n] for i in range(0, n + 1)) for n in range(0, N)]
    for n in range(0, N):
        # observation, not an invariant: records whether innovations shift
        report.record("innovations-shift", {"n": n, "holds": shifts_innov[n]}, True)
        # single top shift forces all lower ones (exactly decidable per level)
        report.record("one-for-all", {"n": n}, (not into[n, n]) or shifts_innov[n])
    fixed = [fixed_space(tower, n) for n in range(0, N)]
    for n, (fix, flag) in enumerate(fixed):
        sat = subspace_equal(fix, tower.basis(n - 1).columns())
        report.record(  # informational
            "saturated-at-level",
            {"level": n - 1, "holds": sat, "truncation_limited": flag},
            True,
        )
        if sat and not shifts_innov[n]:
            report.record("saturation-implies-innovation-shift", {"n": n}, False)
        if shifts_innov[n] and not sat:
            # failure of the converse implication: not a violation, recorded
            report.record("converse-second-implication-fails", {"n": n}, True)
        top_hypothesis = all(into[n, k] for k in range(n, N))
        if sat and not top_hypothesis:
            report.record("converse-first-implication-fails-or-truncation", {"n": n}, True)
        if top_hypothesis and not sat:
            report.record(
                "top-hypothesis-holds-but-unsaturated-on-truncation", {"n": n}, True
            )
    # projection intertwining: the projection onto the fixed space of a shift
    # commutes past lower shifts one level down, tested on H_{N-2}
    if N >= 2:
        dom = tower.basis(N - 2)
        bases = [Matrix.from_columns(fix, nrows=tower.ambient_dim) for fix, _ in fixed]
        projections = [F * pseudo_inverse(F) for F in bases]
        for n in range(0, N - 1):
            for i in range(0, n + 1):
                left = projections[n + 1] * (tower.alpha(i) * dom)
                right = tower.alpha(i) * (projections[n] * dom)
                report.record("projection-intertwining", {"n": n, "i": i}, left == right)
    return report


# -- labeled subspaces ------------------------------------------------------------------


def root_space(tower: HilbertTower, k: int, innov: dict) -> list:
    """Vectors of the level-k innovation orthogonal to every shifted copy of
    the previous innovation (level-k root vectors), from the innovation
    bases ``innov`` by level."""
    if k <= 0:
        return innov[k]
    shifted = [tower.alpha(i) * v for i in range(0, k) for v in innov[k - 1]]
    # W x is orthogonal to every shifted copy exactly when x is in the kernel
    # of the matrix whose rows are the shifted copies, times W
    W = Matrix.from_columns(innov[k], nrows=tower.ambient_dim)
    return _kernel_image(Matrix(shifted, ncols=tower.ambient_dim) * W, W)


def _label_images(tower: HilbertTower, k: int, vectors):
    """(label, images) for each rank-(k+1) label of the tower, in
    ``enumerate_labels`` order: the level-k root ``vectors`` at the root
    label, which comes first, and α_i of the parent's images elsewhere."""
    images = {}
    for lab in enumerate_labels(tower.max_level, rank=k + 1):
        if lab.is_root:
            images[lab] = vectors
        else:
            i, parent = lab.last_insertion()
            images[lab] = [tower.alpha(i) * v for v in images[parent]]
        yield lab, images[lab]


def labeled_subspaces(tower: HilbertTower, innov: dict | None = None) -> dict:
    """Label -> basis (list of ambient vectors) of the labeled subspace.

    Root spaces are cut out by orthogonality inside each innovation; every
    other labeled subspace is the shift of its parent label's.  Only labels
    whose root space is nonzero appear.
    ``innov`` may pass in the innovation bases by level, if already built.
    """
    N = tower.max_level
    out = {}
    innov = innovation_bases(tower) if innov is None else innov
    for k in range(-1, N + 1):
        basis = root_space(tower, k, innov)
        if basis:
            out.update(_label_images(tower, k, basis))
    # every level is spanned by its labeled subspaces
    for k in range(-1, N + 1):
        spanned = [v for lab, vs in out.items() if lab.level <= k for v in vs]
        if not subspace_leq(tower.basis(k).columns(), spanned):
            raise InvalidStructureError(
                f"labeled subspaces up to level {k} do not span the level"
            )
    return out


@dataclass
class NormalityReport(Report):
    adjoint_exchange: bool  # (c)
    complement_shift: bool  # (d)
    orthogonal_labels: bool  # (e)
    criteria_agree: bool
    normal: bool
    details: dict


def check_normal(tower: HilbertTower) -> NormalityReport:
    """Evaluate the three normality criteria and assert they agree.

    (c) the adjoint exchange relation δ_{j-1} δ_i* = δ_i* δ_j on every level;
    (d) shifts map complements of coface images into the next complements;
    (e) pairwise orthogonality of the labeled subspaces.
    """
    return _check_normal(tower, details=True)[0]


def _check_normal(tower: HilbertTower, details: bool) -> tuple:
    """(``check_normal`` report, the labeled subspaces it built)."""
    N = tower.max_level
    info = {}

    def adjoints(n: int) -> list:
        """Adjoints of the cofaces into H_n, i = 0..n, as ambient matrices
        P D_iᵀ, extended by zero off H_n: P = (B⁺)ᵀ = B (BᵀB)⁻¹ for the
        basis B of H_{n-1}, and D_i = δ_i B, which is B for the inclusion
        i = n.  That is the transpose of the partial isometry D_i B⁺ from B
        to D_i; the one D_i -> B would need D_iᵀ D_i, which equals BᵀB only
        on towers that pass the isometry check."""
        B = tower.basis(n - 1)
        try:
            P = pseudo_inverse(B).transpose()
        except ValueError:
            raise PreconditionError(f"the level-{n - 1} basis has dependent columns") from None
        return [P * tower.coface(i, n, B).transpose() for i in range(n + 1)]

    ok_c = True
    adj_low = adjoints(0) if N > 0 else []
    for k in range(0, N):
        Bk = tower.basis(k)
        adj_high = adjoints(k + 1)
        low = [adj * Bk for adj in adj_low]
        for j in range(1, k + 2):
            pushed = tower.coface(j, k + 1, Bk)
            for i in range(0, j):
                if tower.coface(j - 1, k, low[i]) != adj_high[i] * pushed:
                    ok_c = False
                    info.setdefault("adjoint_witness", {"i": i, "j": j, "k": k})
        adj_low = adj_high

    ok_d = True
    for k in range(0, N):
        prev, Bk = tower.basis(k - 1), tower.basis(k)
        # columns spanning H_k ⊖ δ_i H_{k-1}: B_k times the kernel of (δ_i B_{k-1})ᵀ B_k
        comp = [Bk * (tower.coface(i, k, prev).transpose() * Bk).kernel() for i in range(k + 1)]
        img_cur = [tower.coface(i, k + 1, Bk).columns() for i in range(k + 1)]
        for j in range(1, k + 2):
            for i in range(0, j):
                if not orthogonal(tower.coface(j, k + 1, comp[i]).columns(), img_cur[i]):
                    ok_d = False
                    info.setdefault("complement_witness", {"i": i, "j": j, "k": k})

    innov = innovation_bases(tower)
    subspaces = labeled_subspaces(tower, innov=innov)
    ok_e = True
    labs = sorted(subspaces, key=lambda l: l.sort_key())
    # one Gram matrix of the labeled basis, whose columns spans[a] are label a's
    W = Matrix.from_columns([v for lab in labs for v in subspaces[lab]], nrows=tower.ambient_dim)
    G = W.transpose() * W
    offsets = [0, *accumulate(len(subspaces[lab]) for lab in labs)]
    spans = [range(a, b) for a, b in zip(offsets, offsets[1:])]
    for a_idx in range(len(labs)):
        for b_idx in range(a_idx + 1, len(labs)):
            if any(G[r, c] for r in spans[a_idx] for c in spans[b_idx]):
                ok_e = False
                info.setdefault(
                    "overlap_witness",
                    {"labels": [str(labs[a_idx]), str(labs[b_idx])]},
                )

    agree = ok_c == ok_d == ok_e
    normal = ok_c and agree
    if normal and details:
        info["decomposition"] = _normal_decomposition_details(tower, subspaces, innov)
    return NormalityReport(ok_c, ok_d, ok_e, agree, normal, info), subspaces


def _normal_decomposition_details(tower: HilbertTower, subspaces: dict, innov: dict) -> dict:
    """Dimension bookkeeping and operational characterization on a normal tower."""
    N = tower.max_level
    out = {"level_dims_match": True, "innovation_split": True, "range_split": True, "operational": True}
    for k in range(-1, N + 1):
        total = sum(len(vs) for lab, vs in subspaces.items() if lab.level <= k)
        if total != tower.dim(k):
            out["level_dims_match"] = False
        level_vs = [v for lab, vs in subspaces.items() if lab.level == k for v in vs]
        if not subspace_equal(innov[k], level_vs):
            out["innovation_split"] = False
    for i in range(0, max(0, N)):
        rng = (tower.alpha(i) * tower.basis(N - 1)).columns()
        # inside the top level, the range of a shift is the zero-bit part
        zero_bit = [
            v for lab, vs in subspaces.items() if lab.bit(i) == 0 for v in vs
        ]
        if not subspace_leq(rng, zero_bit):
            out["range_split"] = False
        # orthocomplement of the range inside H_N = one-bit labels
        one_bit = [
            v for lab, vs in subspaces.items() if lab.bit(i) == 1 for v in vs
        ]
        if not orthogonal(rng, one_bit):
            out["range_split"] = False
    # operational characterization on each labeled subspace
    for lab, vs in subspaces.items():
        if lab.level > N - 1:
            continue
        for i in range(0, max(0, N - 1)):
            ai = tower.alpha(i)
            ai1 = tower.alpha(i + 1)
            for v in vs:
                u, w = ai * v, ai1 * v
                same, orth = u == w, dot(u, w) == 0
                if lab.bit(i) == 0 and not same:
                    out["operational"] = False
                if lab.bit(i) == 1 and not (orth and not same):
                    out["operational"] = False
    return out


# -- symmetric-group generators on a normal tower ---------------------------------------


@dataclass
class HessenbergData:
    """A tower together with localized unitaries u_1..u_M on its ambient."""

    tower: HilbertTower
    unitaries: list  # Matrix, index m-1 for u_m

    def u(self, m: int) -> Matrix:
        return self.unitaries[m - 1]

    @property
    def count(self) -> int:
        return len(self.unitaries)


def build_symmetric_rep(tower: HilbertTower) -> HessenbergData:
    """Unitaries u_j permuting the labeled subspaces by adjacent transposition.

    Requires a normal tower whose top level is the whole ambient.  The
    labeled subspaces, in label order, give a basis B of the ambient, column
    (χ, r) being the copy at label χ of root vector r; u_j sends it to column
    (τ_j χ, r), so u_j = (B P_j) B⁻¹ with one inverse for all j.  Each u_j is
    verified to be an involution and orthogonal.
    """
    rep, subspaces = _check_normal(tower, details=False)
    if not rep.normal:
        raise NotNormalError("symmetric generators need a normal tower")
    N = tower.max_level
    permuted = []  # for each j, the columns of B P_j
    for j in range(1, N + 1):
        cols = []
        for lab in subspaces:
            target = lab.transpose(j)
            if target.level > N:
                raise PreconditionError(
                    f"generator u_{j} leaves the truncation on label {lab}"
                )
            cols.extend(subspaces[target])
        permuted.append(cols)
    if not permuted:
        return HessenbergData(tower, [])
    if tower.dim(N) != tower.ambient_dim:
        raise PreconditionError("symmetric generators need the ambient to equal the top level")
    basis = [v for vs in subspaces.values() for v in vs]
    if len(basis) != tower.ambient_dim:
        raise InternalInconsistencyError("the labeled subspaces are not a basis of the ambient")
    inverse = Matrix.from_columns(basis, nrows=tower.ambient_dim).inverse()
    unitaries = [Matrix.from_columns(cols, nrows=tower.ambient_dim) * inverse for cols in permuted]
    identity = Matrix.identity(tower.ambient_dim)
    for j, U in enumerate(unitaries, 1):
        if U * U != identity:
            raise InternalInconsistencyError(f"generator u_{j} is not an involution")
        if U.transpose() * U != identity:
            raise InternalInconsistencyError(f"generator u_{j} is not unitary")
    return HessenbergData(tower, unitaries)


def permutation_unitary(data: HessenbergData, word) -> Matrix:
    """Product of generators u_{word[0]} u_{word[1]} ... (left to right)."""
    out = Matrix.identity(data.tower.ambient_dim)
    for j in word:
        out = out * data.u(j)
    return out


# -- checks for localized-unitary factorizations ---------------------------------------


def check_hessenberg(data: HessenbergData) -> CheckReport:
    """Verify the localized-unitary axioms and the induced shift structure.

    Covers: fixity of two-levels-down spaces, invariance of higher levels,
    far commutation, the containment u_{k+1} H_k ⊆ H_{k+1} used by the
    factorization argument, the finite products recovering the shifts, the
    staircase block pattern of shifts on innovations, the three equivalent
    exchange conditions (verdicts compared), the generator-shift relation
    table, fixed spaces as joint fixed spaces, and the adjoint intertwining
    on saturated instances.  Conditions 1 and 2 are read off the table: 1 at
    (i, j) compares u_{j+1} α_i and α_i u_j on H_{N-2}, the same matrices as
    ``relation-low`` at (i, j + 1), and 2 is its i = j - 1 subset.
    """
    report = CheckReport()
    tower = data.tower
    N = tower.max_level
    M = data.count

    for k in range(1, min(M, N + 2) + 1):
        B = tower.basis(k - 2)
        report.record("fixes-two-below", {"k": k}, data.u(k) * B == B)
    for k in range(1, M + 1):
        for l in range(k, N + 1):
            B = tower.basis(l)
            img = (data.u(k) * B).columns()
            report.record(
                "level-invariance",
                {"k": k, "level": l},
                subspace_equal(img, B.columns()),
            )
    for m in range(1, M + 1):
        for n in range(m + 2, M + 1):
            report.record(
                "far-commutation",
                {"m": m, "n": n},
                data.u(m) * data.u(n) == data.u(n) * data.u(m),
            )
    for k in range(0, min(N, M)):
        img = (data.u(k + 1) * tower.basis(k)).columns()
        report.record(
            "step-containment",
            {"k": k},
            subspace_leq(img, tower.basis(k + 1).columns()),
        )

    # alpha_n restricted to H_k as the product u_{n+1} ... u_{k+1}, grown by
    # one factor per level
    for n in range(0, N):
        product = None
        for k in range(n, min(N, M)):
            product = data.u(k + 1) if product is None else product * data.u(k + 1)
            B = tower.basis(k)
            report.record(
                "shift-as-product",
                {"n": n, "k": k},
                product * B == tower.alpha(n) * B,
            )
        for k in range(-1, n):
            B = tower.basis(k)
            report.record("shift-fixes-low", {"n": n, "k": k}, tower.alpha(n) * B == B)

    # staircase block pattern: innovation components vanish above one step down
    innov = innovation_bases(tower)
    for n in range(0, N):
        ok = True
        for l in range(-1, N):
            img = [tower.alpha(n) * v for v in innov[l]]
            for m in range(l + 2, N + 1):
                if not orthogonal(img, innov[m]):
                    ok = False
        report.record("staircase-blocks", {"n": n}, ok)

    # generator-shift relation table on H_{N-2}, from each α_i H_{N-2}
    # (α_N fixes it) and each u_j H_{N-2} formed once
    dom = tower.basis(N - 2)
    shifted = [tower.alpha(i) * dom for i in range(N)] + [dom]
    moved = {j: data.u(j) * dom for j in range(1, min(M, N) + 1)}
    relations = []  # (name, j, i, verdict) in table order
    for j in range(1, min(M, N) + 1):
        for i in range(0, N):
            lhs = data.u(j) * shifted[i]
            if i < j - 1:
                name, rhs = "relation-low", tower.alpha(i) * moved[j - 1]
            elif i == j - 1:
                name, rhs = "relation-step-up", shifted[j]
            elif i == j:
                name, rhs = "relation-step-down", shifted[j - 1]
            else:
                name, rhs = "relation-high", tower.alpha(i) * moved[j]
            relations.append((name, j, i, lhs == rhs))

    # three equivalent exchange conditions: 1 and 2 from the relation table
    low = [(j, i, ok) for name, j, i, ok in relations if name == "relation-low"]
    cond1 = all(ok for _, _, ok in low)
    cond2 = all(ok for j, i, ok in low if i == j - 2)
    cond3 = True
    for j in range(1, min(M, N)):
        rng = tower.alpha(j + 1) * tower.basis(N - 1)
        u, v = data.u(j), data.u(j + 1)
        if u * (v * (u * rng)) != v * (u * (v * rng)):
            cond3 = False
    report.record("exchange-condition-1", {}, cond1)
    report.record("exchange-condition-2", {}, cond2)
    report.record("exchange-condition-3", {}, cond3)
    report.record(
        "exchange-conditions-agree",
        {"verdicts": [cond1, cond2, cond3]},
        cond1 == cond2 == cond3,
    )

    for name, j, i, ok in relations:
        report.record(name, {"j": j, "i": i}, ok)

    # fixed space of alpha_n = joint fixed space J_n of the generators above
    # n, built downward: J_n = Fix(u_{n+1}) ∩ J_{n+1} from J_M = H_{N-1}, each
    # independent (innovation_bases counted H_{N-1} above; fixed_vectors keeps it)
    joint = [tower.basis(N - 1).columns()] * (max(N, M) + 1)
    for n in range(M - 1, -1, -1):
        B = Matrix.from_columns(joint[n + 1], nrows=tower.ambient_dim)
        joint[n] = fixed_vectors(data.u(n + 1), B)
    for n in range(0, N):
        fix, _ = fixed_space(tower, n)
        report.record("fixed-space-joint", {"n": n}, subspace_equal(fix, joint[n]))
    return report


def check_adjoint_intertwining(data: HessenbergData) -> CheckReport:
    """On a saturated instance, α_i* u_{j+1} = u_j α_i* for i < j.

    Saturation makes the adjoint of a shift computable within the truncation
    (it maps each level into the one below), so the identity can be tested on
    the full top level.
    """
    report = CheckReport()
    tower = data.tower
    N = tower.max_level
    for n in range(0, N):
        fix, _ = fixed_space(tower, n)
        if not subspace_equal(fix, tower.basis(n - 1).columns()):
            raise PreconditionError("adjoint intertwining check needs a saturated tower")
    top = tower.basis(N)
    for j in range(1, data.count):
        for i in range(0, min(j, N)):
            adjoint = tower.alpha(i).transpose()
            lhs = adjoint * (data.u(j + 1) * top)
            rhs = data.u(j) * (adjoint * top)
            report.record("adjoint-intertwining", {"i": i, "j": j}, lhs == rhs)
    return report


# -- complete invariant: root dimensions and explicit intertwiners ----------------------


@dataclass
class EquivalenceResult:
    equivalent: bool
    root_dims_a: tuple
    root_dims_b: tuple
    intertwiner: Matrix | None
    verified: bool

    def to_dict(self):
        return {
            "equivalent": self.equivalent,
            "root_dims_a": list(self.root_dims_a),
            "root_dims_b": list(self.root_dims_b),
            "intertwiner_verified": self.verified,
        }


def root_dimension_sequence(tower: HilbertTower) -> tuple:
    innov = innovation_bases(tower)
    return tuple(len(root_space(tower, k, innov)) for k in range(-1, tower.max_level + 1))


def intertwines(U: Matrix, a: HilbertTower, b: HilbertTower) -> bool:
    """Whether U α_i = α_i' U on H_{N-1} of ``a`` for every shift α_i of
    ``a`` and α_i' of ``b``."""
    dom = a.basis(a.max_level - 1)
    U_dom = U * dom
    return all(U * (a.alpha(i) * dom) == b.alpha(i) * U_dom for i in range(max(0, a.max_level)))


def unitary_equivalence(a: HilbertTower, b: HilbertTower) -> EquivalenceResult:
    """Decide unitary equivalence of two normal towers by their root
    dimension sequences; when equal, build the intertwiner from adapted
    orthonormal bases and verify it intertwines levels and shifts.

    The intertwiner needs rational orthonormal root bases; if normalization
    is irrational the decision still stands but no explicit matrix is
    produced.
    """
    if a.max_level != b.max_level:
        raise ValueError("compare towers at the same truncation level")
    N = a.max_level
    roots = []  # per tower, the level-k root space at index k + 1
    for t in (a, b):
        rep, subspaces = _check_normal(t, details=False)
        if not rep.normal:
            raise NotNormalError("unitary equivalence classification needs normal towers")
        # the root label of rank k + 1 holds the level-k root space
        roots.append([subspaces.get(Label([1] * (k + 1)), []) for k in range(-1, N + 1)])
    for t in (a, b):
        if t.dim(t.max_level) != t.ambient_dim:
            raise PreconditionError(
                "intertwiner construction needs the ambient to equal the top level"
            )
    roots_a, roots_b = roots
    da, db = tuple(map(len, roots_a)), tuple(map(len, roots_b))
    if da != db:
        return EquivalenceResult(False, da, db, None, False)
    cols_a = []
    cols_b = []
    for k in range(-1, N + 1):
        ra = try_orthonormal_basis(roots_a[k + 1])
        rb = try_orthonormal_basis(roots_b[k + 1])
        if ra is None or rb is None:
            return EquivalenceResult(True, da, db, None, False)
        pairs = zip(_label_images(a, k, ra), _label_images(b, k, rb))
        for (_, images_a), (_, images_b) in pairs:
            cols_a.extend(images_a)
            cols_b.extend(images_b)
    A = Matrix.from_columns(cols_a, nrows=a.ambient_dim)
    B = Matrix.from_columns(cols_b, nrows=b.ambient_dim)
    # U maps the adapted basis of a to that of b: U A = B, with A orthonormal
    U = B * A.transpose()
    verified = (
        U.transpose() * U == Matrix.identity(a.ambient_dim)
        and all(
            subspace_equal((U * a.basis(k)).columns(), b.basis(k).columns())
            for k in range(-1, N + 1)
        )
        and intertwines(U, a, b)
    )
    if not verified:
        raise InternalInconsistencyError("constructed intertwiner failed verification")
    return EquivalenceResult(True, da, db, U, True)
