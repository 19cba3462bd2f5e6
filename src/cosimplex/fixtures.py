"""Built-in example structures used by the test suite and the CLI.

All builders are deterministic.  The set-level fixtures:

* ``prototypical(N)`` — levels X_k = {0..k} with the standard shifts;
* ``example2_scs(N)``  — the ball-in-box family with level function
  (2, 3, 2, 3, 4, 5, ...): saturated at the bottom yet with an innovation
  that a shift throws two boxes back;
* ``figure2_scs()``    — the rank-2 layer with its root removed: five named
  elements a, b (level 2) and x, y, z (level 3) whose labeled subsets
  overlap, the standard saturated-but-not-normal example;
* ``layered_scs(root_dims, N)`` — disjoint layers with prescribed
  multiplicities, the canonical normal structures;
* ``disjoint_union(a, b)`` — two structures side by side, b renumbered.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .linalg import Matrix
from .scs import TruncatedSCS, from_ell, prototypical

if TYPE_CHECKING:
    from .tower import HilbertTower

__all__ = [
    "prototypical",
    "example2_ell",
    "example2_scs",
    "figure2_scs",
    "layered_scs",
    "layer_minus_root_scs",
    "disjoint_union",
    "identity_shift_tower",
    "rotate_tower",
    "random_signed_permutation",
    "random_rational_rotation",
    "ell2_family",
    "ell2_tower",
]


def example2_ell(N: int = 5):
    """Level function (2, 3, 2, 3, 4, 5, ...) extended identically beyond 5."""
    base = [2, 3, 2, 3]
    return [base[n] if n < 4 else n for n in range(N + 1)]


def example2_scs(N: int = 5) -> TruncatedSCS:
    return from_ell(example2_ell(N), N)


def figure2_scs() -> TruncatedSCS:
    """Rank-2 layer minus its root, with the classical element names.

    Elements a = {1,2} and b = {0,2} sit at level 2; their images
    x = {2,3}, y = {1,3}, z = {0,3} at level 3.  The zero-insertion shifts
    give α_0: a->x, b->y; α_1: a->x, b->z; α_2: a->y, b->z, so the labeled
    subsets at level 3 are {x,y}, {x,z} and {y,z}: pairwise overlapping,
    hence not normal, while the structure is saturated.
    """
    a, b, x, y, z = range(5)
    levels = {a: 2, b: 2, x: 3, y: 3, z: 3}
    names = {a: "a", b: "b", x: "x", y: "y", z: "z"}
    shifts = (
        {a: x, b: y},  # alpha_0
        {a: x, b: z},  # alpha_1
        {a: y, b: z},  # alpha_2
    )
    return TruncatedSCS(3, levels, shifts, names)


def layer_minus_root_scs(rank: int, N: int) -> TruncatedSCS:
    """A single layer with its root element removed: saturated, not normal
    for rank >= 2 (the root's images share shift images pairwise)."""
    from .normal_ext import layer_scs
    layer = layer_scs(rank, N)
    root_id = next(
        i for i, lv in layer.levels.items() if lv == min(layer.levels.values())
    )
    levels = {i: lv for i, lv in layer.levels.items() if i != root_id}
    names = {i: n for i, n in layer.names.items() if i != root_id}
    shifts = tuple(
        {x: y for x, y in mapping.items() if x != root_id}
        for mapping in layer.shifts
    )
    return TruncatedSCS(N, levels, shifts, names)


def layered_scs(root_dims, N: int) -> TruncatedSCS:
    """Disjoint union of layers: root_dims[k] copies of the rank k+1 layer,
    with root_dims indexed from level -1 (rank 0) upward."""
    from .normal_ext import layer_union
    ranks = [rank for rank, mult in enumerate(root_dims) for _ in range(mult)]
    return layer_union([(rank, f"c{copy}:") for copy, rank in enumerate(ranks)], N)[0]


def disjoint_union(a: TruncatedSCS, b: TruncatedSCS) -> TruncatedSCS:
    """Side-by-side union; elements of b are renumbered above those of a."""
    if a.max_level != b.max_level:
        raise ValueError("disjoint_union needs equal truncation levels")
    offset = (max(a.levels) + 1) if a.levels else 0
    levels = dict(a.levels)
    names = dict(a.names)
    for x, lv in b.levels.items():
        levels[x + offset] = lv
        names[x + offset] = b.name(x)
    shifts = []
    for i in range(max(0, a.max_level)):
        m = dict(a.shifts[i])
        for x, y in b.shifts[i].items():
            m[x + offset] = y + offset
        shifts.append(m)
    return TruncatedSCS(a.max_level, levels, tuple(shifts), names)


# -- tower fixtures --------------------------------------------------------------


def identity_shift_tower(N: int) -> HilbertTower:
    """One-dimensional tower with H_{-1} = H_0 = 0, H_n the whole line for
    n >= 1 and every shift the identity: innovations shift correctly at the
    bottom although the tower is not saturated there."""
    from .tower import HilbertTower
    one = Matrix.identity(1)
    zero = Matrix.zeros(1, 0)
    level_bases = [zero, zero] + [one for _ in range(N)]
    shifts = [one for _ in range(N)]
    return HilbertTower(N, 1, level_bases, shifts, ["e"])


def rotate_tower(tower: HilbertTower, Q: Matrix) -> HilbertTower:
    """Conjugate every level and shift by an orthogonal rational matrix."""
    from .tower import HilbertTower
    Qt = Q.transpose()
    if Q * Qt != Matrix.identity(tower.ambient_dim):
        raise ValueError("rotation matrix must be orthogonal")
    return HilbertTower(
        tower.max_level,
        tower.ambient_dim,
        [Q * B for B in tower.level_bases],
        [Q * A * Qt for A in tower.shifts],
        tower.coordinate_names,
    )


def random_signed_permutation(dim: int, rng) -> Matrix:
    perm = list(range(dim))
    rng.shuffle(perm)
    return Matrix.from_entries(
        dim, dim, {(row, col): rng.choice((1, -1)) for col, row in enumerate(perm)}
    )


def ell2_family(N: int = 5):
    """The classical sequence-space example of a spreadable family.

    Ambient coordinates are slots -1..N; the generating vector is the
    unnormalized x_0 = (1, 1, 0, ...) (norms tracked through the Gram, which
    is [[2]]), and x_n arises by inserting zeros: slot -1 plus slot n.  The
    ambient carries the insert-a-zero shifts, whose bottom fixed space is the
    slot -1 line; the angle works out to one half.
    """
    from .spread import SpreadableFamily

    if N < 0:
        raise ValueError("N must be >= 0")
    dim = N + 2  # index s holds slot s-1
    isometries = [
        Matrix.from_entries(dim, 1, {(0, 0): 1, (n + 1, 0): 1}) for n in range(N + 1)
    ]
    shifts = []
    for n in range(N):
        # slot -1 stays put, slots below n too, and slots n..N-1 move one up
        entries = {(0, 0): 1}
        for idx in range(1, N + 1):
            entries[(idx if idx <= n else idx + 1, idx)] = 1
        shifts.append(Matrix.from_entries(dim, dim, entries))
    gram = Matrix([[Fraction(2)]])
    return SpreadableFamily(1, dim, isometries, gram, shifts)


def ell2_tower(N: int = 5):
    from .spread import minimal_sch

    return minimal_sch(ell2_family(N))


def random_rational_rotation(dim: int, rng, planes: int = 3) -> Matrix:
    """Product of exact plane rotations with 3-4-5 angles and a signed
    permutation; orthogonal with rational entries."""
    out = random_signed_permutation(dim, rng)
    c, s = Fraction(3, 5), Fraction(4, 5)
    for _ in range(planes):
        if dim < 2:
            break
        i, j = rng.sample(range(dim), 2)
        entries = {(r, r): 1 for r in range(dim)}
        entries.update({(i, i): c, (j, j): c, (i, j): -s, (j, i): s})
        out = Matrix.from_entries(dim, dim, entries) * out
    return out
