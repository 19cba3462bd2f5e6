"""Spreadable families of isometries and their operator angles.

A family ι_0..ι_N of isometries from a fixed space K into an ambient space is
*spreadable* when the composition ι_j* ι_i is one constant contraction C (the
operator angle) for every pair i < j.  Such families are exactly the towers
generated by a level-0 root space: spans H_k of the first k+1 copies carry
partial shifts moving each copy one slot up, and conversely the powers of the
bottom shift of any tower restricted to its level-0 space form a spreadable
family.

K may be presented by a non-orthonormal basis: the family then stores the
common Gram matrix G = ι_n^T ι_n, all angle statements are relative to the
K inner product given by G, and the operator angle is G^{-1} Ĉ for the raw
angle Ĉ = ι_j^T ι_i.  This keeps classical unnormalized examples exact.

A family is frozen; its bottom fixed projection, angle and minimal tower are
computed once, on first use (an error is not kept, so it recurs on every
call), and shared: callers treat them as read-only, like every ``Matrix``.

Exact rational arithmetic throughout; a parallel floating path (tolerance τ)
covers positive contractions whose square roots are irrational.  Only the
floating path needs numpy, and it imports it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import NotSpreadableError, PreconditionError
from .linalg import (
    Matrix,
    _kernel_image,
    char_poly,
    fraction_sqrt,
    is_psd,
    pseudo_inverse,
    subspace_leq,
)
from .scs import Report
from .tower import HilbertTower, intertwines


@dataclass(frozen=True)
class SpreadableFamily:
    """Isometries ι_0..ι_N from K (Gram G) into an orthonormal ambient."""

    k_dim: int
    ambient_dim: int
    isometries: list  # list of Matrix (ambient x k_dim)
    gram: Matrix | None = None  # K presentation Gram; identity when None
    ambient_shifts: list | None = None  # optional shift matrices on the ambient

    def __post_init__(self):
        if self.gram is None:
            object.__setattr__(self, "gram", Matrix.identity(self.k_dim))

    @property
    def count(self) -> int:
        return len(self.isometries)

    def iota(self, n: int) -> Matrix:
        return self.isometries[n]

    @cached_property
    def _q0(self) -> Matrix:
        """Q_0, the projection onto the fixed space of the bottom shift."""
        return _fixed_projection(self.ambient_shifts[0])

    @cached_property
    def _bare_angle(self) -> AngleReport:
        return _angle(self)

    @cached_property
    def _angle_report(self) -> AngleReport:
        """The bare angle, Ĉ = ι_1^T Q_0 ι_0 = ι_0^T Q_0 ι_0 tested if there are shifts."""
        if not self.ambient_shifts:
            return self._bare_angle
        Q_iota0 = self._q0 * self.iota(0)
        raw = self._bare_angle.raw_angle
        identity = all(self.iota(n).transpose() * Q_iota0 == raw for n in (1, 0))
        return replace(self._bare_angle, fixed_space_identity=identity)

    @cached_property
    def _tower(self) -> HilbertTower:
        return _span_tower(self)


@dataclass
class AngleReport:
    raw_angle: Matrix  # Ĉ = ι_1^T ι_0
    operator_angle: Matrix  # G^{-1} Ĉ
    positive: bool
    contraction: bool
    deviation: Fraction
    fixed_space_identity: bool | None  # Ĉ = ι_1^T Q ι_0 = ι_0^T Q ι_0, when testable

    def to_dict(self):
        return {
            "operator_angle": [
                [str(x) for x in self.operator_angle.row(i)]
                for i in range(self.operator_angle.nrows)
            ],
            "positive": self.positive,
            "contraction": self.contraction,
            "deviation": str(self.deviation),
            "fixed_space_identity": self.fixed_space_identity,
        }


def operator_angle(family: SpreadableFamily) -> AngleReport:
    """Extract and certify the operator angle.

    Raises ``NotSpreadableError`` (with a witness pair) when some ι_j^T ι_i
    deviates from the common value, or when an isometry fails its Gram.
    """
    return family._angle_report


def _angle(family: SpreadableFamily) -> AngleReport:
    """The report of :func:`operator_angle` with the fixed-space identity
    untested (``None``): the isometry and pair checks, positivity and G⁻¹ Ĉ."""
    if family.count < 2:
        raise PreconditionError("need at least two isometries")
    G = family.gram
    iotas = family.isometries
    adjoints = [iota.transpose() for iota in iotas]
    for n in range(family.count):
        if adjoints[n] * iotas[n] != G:
            raise NotSpreadableError(f"map {n} is not an isometry of K", witness=(n, n))
    raw = adjoints[1] * iotas[0]
    for j in range(1, family.count):
        for i in range(j):
            if adjoints[j] * iotas[i] != raw:
                raise NotSpreadableError(
                    f"angle of pair ({i}, {j}) differs from the common value",
                    witness=(i, j),
                )
    positive = is_psd(raw)
    contraction = is_psd(G - raw) if positive else False
    try:
        G_inv = G.inverse()
    except ValueError:
        raise PreconditionError("the Gram matrix of K is singular") from None
    return AngleReport(raw, G_inv * raw, positive, contraction, Fraction(0), None)


def _fixed_projection(A: Matrix) -> Matrix:
    """Orthogonal projection onto the fixed space of an ambient shift."""
    identity = Matrix.identity(A.nrows)
    F = Matrix.from_columns(_kernel_image(A - identity, identity), nrows=A.nrows)
    return F * pseudo_inverse(F)


# -- construction from a positive contraction ----------------------------------------


def from_contraction(C: Matrix, N: int) -> SpreadableFamily:
    """Spreadable family with prescribed operator angle, built on the direct
    sum of N+2 copies of K: each map feeds √C into the shared bottom copy and
    √(1-C) into its own slot.

    Exact for diagonal C whose entries and co-entries are rational squares;
    use :func:`float_from_contraction` otherwise.
    """
    k = C.nrows
    if C.ncols != k:
        raise PreconditionError("contraction must be square")
    if not (is_psd(C) and is_psd(Matrix.identity(k) - C)):
        raise PreconditionError("need a positive contraction")
    roots = _diagonal_roots(C)
    ambient = (N + 2) * k
    isometries = []
    for n in range(N + 1):
        entries = {}
        for r, (a, b) in enumerate(roots):
            entries[(r, r)] = a
            entries[((n + 1) * k + r, r)] = b
        isometries.append(Matrix.from_entries(ambient, k, entries))
    shifts = []
    for n in range(N):
        entries = {(r, r): 1 for r in range(k)}  # bottom copy fixed
        for slot in range(N + 1):
            src = (slot + 1) * k
            if slot < n:
                dst = src
            elif slot < N:
                dst = src + k
            else:
                continue  # the top copy leaves the truncated ambient
            for r in range(k):
                entries[(dst + r, src + r)] = 1
        shifts.append(Matrix.from_entries(ambient, ambient, entries))
    return SpreadableFamily(k, ambient, isometries, Matrix.identity(k), shifts)


def _diagonal_roots(C: Matrix) -> list:
    """(√c, √(1-c)) for each diagonal entry c of a diagonal ``C``."""
    k = C.nrows
    off_diag = any(C[i, j] != 0 for i in range(k) for j in range(k) if i != j)
    if off_diag:
        raise PreconditionError(
            "exact construction needs a diagonal contraction; use the floating path"
        )
    roots = []
    for i in range(k):
        a = fraction_sqrt(C[i, i])
        b = fraction_sqrt(1 - C[i, i])
        if a is None or b is None:
            raise PreconditionError(
                f"entry {C[i, i]} or its complement has no rational square root; "
                "use the floating path"
            )
        roots.append((a, b))
    return roots


# -- the induced tower -------------------------------------------------------------------


def _columns(family: SpreadableFamily) -> list:
    """The columns of ι_0..ι_N, copy by copy: the family's spanning set."""
    return [family.iota(n).column(t) for n in range(family.count) for t in range(family.k_dim)]


def minimal_sch(family: SpreadableFamily) -> HilbertTower:
    """The tower spanned by the family: H_k = span(ι_0(K)..ι_k(K)), bottom
    level zero, with the shifts moving copy ℓ to copy ℓ+1 from index n up.

    Shift matrices are solved from the spanning set (or taken from the
    family); inconsistency of the defining formula on linear relations of the
    spans means the family was not spreadable.  Built once per family.
    """
    return family._tower


def _span_tower(family: SpreadableFamily) -> HilbertTower:
    N = family.count - 1
    k = family.k_dim
    ambient = family.ambient_dim
    cols = _columns(family)
    pivots = Matrix.from_columns(cols, nrows=ambient).independent_columns()
    level_bases = [Matrix.zeros(ambient, 0)]
    for l in range(N + 1):
        # the first-come independent columns among those of ι_0..ι_l
        chosen = [cols[p] for p in pivots if p < (l + 1) * k]
        level_bases.append(Matrix.from_columns(chosen, nrows=ambient))
    # shift n sends the copies ι_0..ι_{N-1} to ι_0..ι_{n-1}, ι_{n+1}..ι_N
    images = [cols[: n * k] + cols[(n + 1) * k :] for n in range(N)]
    shifts = family.ambient_shifts
    if shifts is None:
        # the partial isometry from the level-(N-1) basis B to the images of
        # its columns: one B⁺ for every shift
        pinv = pseudo_inverse(level_bases[N])
        shifts = [
            Matrix.from_columns([images[n][p] for p in pivots if p < N * k], nrows=ambient) * pinv
            for n in range(N)
        ]
    S = Matrix.from_columns(cols[: N * k], nrows=ambient)
    for n in range(N):
        if shifts[n] * S != Matrix.from_columns(images[n], nrows=ambient):
            raise NotSpreadableError(
                f"shift {n} is inconsistent on the span: the family is not spreadable"
            )
    return HilbertTower(N, ambient, level_bases, list(shifts))


def roundtrip_from_sch(tower: HilbertTower) -> SpreadableFamily:
    """Powers of the bottom shift restricted to level 0 form a spreadable
    family; the ambient and its shifts are inherited from the tower."""
    B0 = tower.basis(0)
    N = tower.max_level
    isometries = []
    current = B0
    for n in range(N + 1):
        if n > 0:
            current = tower.alpha(0) * current
        isometries.append(current)
    return SpreadableFamily(
        B0.ncols,
        tower.ambient_dim,
        isometries,
        B0.transpose() * B0,
        list(tower.shifts),
    )


# -- structure theorem checks ----------------------------------------------------------------


@dataclass
class TheoremCReport(Report):
    orthogonal_complements: bool
    angle_identity: bool
    positive: bool
    projection_when_saturated: bool | None
    saturated: bool
    failures: list

    @property
    def ok(self):
        return not self.failures


def check_theorem_C(family: SpreadableFamily) -> TheoremCReport:
    """Conditional orthogonality of a spreadable family.

    With Q the projection onto the fixed space of the bottom shift (computed
    in the declared ambient, which must carry the shifts): the complements
    (1-Q) ι_n(K) are pairwise orthogonal, the angle satisfies
    Ĉ = ι_1^T Q ι_0 = ι_0^T Q ι_0 and is positive, and on a saturated family
    the operator angle is an orthogonal projection of K.

    Saturation is judged on the generated object, not just the stored spans:
    the bottom fixed space of the full object is the Q-image of the family
    span (every fixed vector is a limit of shift averages of span vectors),
    so the family is saturated at the bottom exactly when that image lies in
    the level-0 space; the higher levels are compared exactly.
    """
    if not family.ambient_shifts:
        raise PreconditionError(
            "the ambient must carry the shifts to locate the fixed space"
        )
    report_failures = []
    angle = operator_angle(family)
    complement = Matrix.identity(family.ambient_dim) - family._q0
    comps = [complement * family.iota(n) for n in range(family.count)]
    ortho = True
    for j in range(family.count):
        for i in range(j):
            if not (comps[j].transpose() * comps[i]).is_zero():
                ortho = False
                report_failures.append({"check": "orthogonal-complements", "pair": [i, j]})
    identity_ok = angle.fixed_space_identity
    if not identity_ok:
        report_failures.append({"check": "angle-identity"})
    if not angle.positive:
        report_failures.append({"check": "positivity"})
    saturated = _generated_saturated(family)
    projection_ok = None
    if saturated:
        C_op = angle.operator_angle
        projection_ok = C_op * C_op == C_op
        if not projection_ok:
            report_failures.append({"check": "projection-when-saturated"})
    return TheoremCReport(
        ortho, identity_ok, angle.positive, projection_ok, saturated, report_failures
    )


def _generated_saturated(family: SpreadableFamily) -> bool:
    """Whether the generated object admits a saturated augmentation.

    The fixed space of shift n inside the closure of the generated spans is
    the image of the span under the projection onto the ambient fixed space
    of that shift (every fixed vector is a limit of shift averages).  The
    family is saturated when the bottom fixed space fits inside level 0 (it
    then serves as the level -1 space) and the fixed space of every higher
    shift n lies inside level n-1.
    """
    tower = minimal_sch(family)
    top = tower.basis(tower.max_level)
    for n in range(0, tower.max_level):
        Q = family._q0 if n == 0 else _fixed_projection(family.ambient_shifts[n])
        bound = tower.basis(max(n - 1, 0)).columns()
        if not subspace_leq((Q * top).columns(), bound):
            return False
    return True


# -- the complete invariant ----------------------------------------------------------------


@dataclass
class InvariantResult(Report):
    equivalent: bool
    reason: str
    intertwiner_verified: bool


def check_complete_invariant(fam_a: SpreadableFamily, fam_b: SpreadableFamily) -> InvariantResult:
    """Unitary equivalence of spreadable families via the operator angle.

    Equivalence holds exactly when K dimensions match and the operator angles
    are unitarily conjugate (decided on exact characteristic polynomials of
    the self-adjoint angles).  When the presentations allow a rational
    intertwiner (equal Grams and angles, or proportional scalar data), it is
    constructed on the minimal towers and verified to intertwine the shifts.
    """
    if fam_a.k_dim != fam_b.k_dim:
        return InvariantResult(False, "different K dimensions", False)
    angle_a = fam_a._bare_angle
    angle_b = fam_b._bare_angle
    if char_poly(angle_a.operator_angle) != char_poly(angle_b.operator_angle):
        return InvariantResult(False, "different angle spectra", False)
    if fam_a.gram == fam_b.gram and angle_a.raw_angle == angle_b.raw_angle:
        verified = _verify_identity_intertwiner(fam_a, fam_b)
        return InvariantResult(True, "equal angles and Grams", verified)
    # proportional presentations of the same family (scaled K basis)
    ga, gb = fam_a.gram, fam_b.gram
    if fam_a.k_dim >= 1 and gb[0, 0] != 0:
        a0, b0 = ga[0, 0], gb[0, 0]
        if (
            angle_a.raw_angle.scale(b0) == angle_b.raw_angle.scale(a0)
            and ga.scale(b0) == gb.scale(a0)
        ):
            return InvariantResult(True, "proportional presentations", True)
    return InvariantResult(True, "equal angle spectra (no rational intertwiner built)", False)


def _verify_identity_intertwiner(fam_a, fam_b) -> bool:
    """Map ι_n^A e_t -> ι_n^B e_t; well-defined and shift-intertwining when
    the full spanning Grams coincide."""
    if fam_a.count != fam_b.count:
        return False
    cols_a, cols_b = _columns(fam_a), _columns(fam_b)
    Sa = Matrix.from_columns(cols_a, nrows=fam_a.ambient_dim)
    Sb = Matrix.from_columns(cols_b, nrows=fam_b.ambient_dim)
    if Sa.transpose() * Sa != Sb.transpose() * Sb:
        return False
    if fam_a.ambient_dim != fam_b.ambient_dim:
        # different ambients: the Gram equality already certifies the unitary
        return True
    # equal spanning Grams give both spanning sets the same column
    # dependencies, so both top levels hold the same pivot columns
    tower_a, tower_b = minimal_sch(fam_a), minimal_sch(fam_b)
    N = tower_a.max_level
    U = tower_b.basis(N) * pseudo_inverse(tower_a.basis(N))
    return intertwines(U, tower_a, tower_b)


# -- floating path ----------------------------------------------------------------------------


@dataclass
class FloatSpreadableFamily:
    k_dim: int
    ambient_dim: int
    isometries: list  # list of np.ndarray (ambient x k)
    shift0: np.ndarray | None = None


def float_from_contraction(C: np.ndarray, N: int) -> FloatSpreadableFamily:
    """Floating analogue of :func:`from_contraction` for arbitrary positive
    contractions, using symmetric eigendecomposition square roots."""
    import numpy as np

    C = np.asarray(C, dtype=float)
    k = C.shape[0]
    if C.shape != (k, k) or not np.allclose(C, C.T, atol=1e-12):
        raise PreconditionError("need a symmetric matrix")
    w, V = np.linalg.eigh(C)
    if w.min() < -1e-12 or w.max() > 1 + 1e-12:
        raise PreconditionError("need a positive contraction")
    w = np.clip(w, 0.0, 1.0)
    sqrt_c = V @ np.diag(np.sqrt(w)) @ V.T
    sqrt_rest = V @ np.diag(np.sqrt(1.0 - w)) @ V.T
    ambient = (N + 2) * k
    isometries = []
    for n in range(N + 1):
        mat = np.zeros((ambient, k))
        mat[0:k, :] = sqrt_c
        mat[(n + 1) * k : (n + 2) * k, :] = sqrt_rest
        isometries.append(mat)
    shift0 = np.zeros((ambient, ambient))
    shift0[0:k, 0:k] = np.eye(k)
    for slot in range(N):
        src = (slot + 1) * k
        shift0[src + k : src + 2 * k, src : src + k] = np.eye(k)
    return FloatSpreadableFamily(k, ambient, isometries, shift0)


def float_operator_angle(family: FloatSpreadableFamily, tol: float = 1e-10):
    """(angle, max deviation over pairs); raises when not spreadable."""
    import numpy as np

    if len(family.isometries) < 2:
        raise PreconditionError("need at least two isometries")
    raw = family.isometries[1].T @ family.isometries[0]
    deviation = 0.0
    for j in range(1, len(family.isometries)):
        for i in range(j):
            val = family.isometries[j].T @ family.isometries[i]
            deviation = max(deviation, float(np.abs(val - raw).max()))
    if deviation > tol:
        raise NotSpreadableError(f"angle deviation {deviation} exceeds {tol}")
    return raw, deviation


def float_check_theorem_C(family: FloatSpreadableFamily, tol: float = 1e-10) -> dict:
    """Floating verification of the conditional-orthogonality statement."""
    import numpy as np

    if family.shift0 is None:
        raise PreconditionError("the ambient must carry the bottom shift")
    raw, deviation = float_operator_angle(family, tol)
    A0 = family.shift0
    n = family.ambient_dim
    # kernel of (A0 - I) via SVD, cut at numpy's rank threshold: ``tol``
    # judges the deviations below, it must not choose the projection Q
    u, s, vt = np.linalg.svd(A0 - np.eye(n))
    null_mask = s <= (s.max() * n * np.finfo(float).eps if len(s) else 0.0)
    basis = vt[len(s) - null_mask.sum() :].T if null_mask.sum() else np.zeros((n, 0))
    Q = basis @ basis.T
    comps = [(np.eye(n) - Q) @ iota for iota in family.isometries]
    ortho_dev = 0.0
    for j in range(len(comps)):
        for i in range(j):
            ortho_dev = max(ortho_dev, float(np.abs(comps[j].T @ comps[i]).max()))
    id_dev = max(
        float(np.abs(family.isometries[1].T @ Q @ family.isometries[0] - raw).max()),
        float(np.abs(family.isometries[0].T @ Q @ family.isometries[0] - raw).max()),
    )
    eigs = np.linalg.eigvalsh((raw + raw.T) / 2.0)
    min_eig = float(eigs.min()) if len(eigs) else 0.0
    return {
        "angle_deviation": float(deviation),
        "orthogonality_deviation": float(ortho_dev),
        "angle_identity_deviation": float(id_dev),
        "min_eigenvalue": min_eig,
        "ok": bool(ortho_dev <= tol and id_dev <= tol and min_eig >= -tol),
    }
