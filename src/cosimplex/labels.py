"""Combinatorics of labels: finite binary sequences ordered by strictly
increasing relabellings.

A label is a finite subset of the nonnegative integers, written as a binary
sequence in canonical form (empty, or ending in 1).  Its *rank* is the number
of 1-bits, its *level* the position of the last 1-bit (-1 for the empty
label), and the *root* of a label is the unique same-rank label whose support
is an initial segment.  Labels of a fixed rank k form a poset: u <= v exactly
when v is the image of u under some strictly increasing map of the
nonnegative integers; equivalently, coordinatewise order on the gap encoding
(v1, v2-v1-1, ..., vk-v_{k-1}-1).

Each non-root label has a parent, the label without its first 0-bit: with
that bit at position i, ``parent.insert_zero(i)`` is the label, parent ->
label is the skeleton edge of gap coordinate i + 1, and the insertion word
from the root is the parent's followed by i.  So each rank's labels form a
tree from its root, and images along insertion words grow one shift a step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError, MorphismError, RankMismatchError


class Label:
    """A canonical finite binary sequence; immutable and hashable."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        while bits and bits[-1] == 0:
            bits = bits[:-1]
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, *_):
        raise AttributeError("Label is immutable")

    @staticmethod
    def from_support(support) -> "Label":
        support = sorted(set(int(x) for x in support))
        if support and support[0] < 0:
            raise ValueError("support must be nonnegative")
        if not support:
            return Label()
        bits = [0] * (support[-1] + 1)
        for s in support:
            bits[s] = 1
        return Label(bits)

    @staticmethod
    def parse(text: str) -> "Label":
        text = text.strip().strip("()")
        if text == "0" or text == "":
            return Label()
        if any(ch not in "01" for ch in text):
            raise ValueError(f"not a label string: {text!r}")
        return Label(int(ch) for ch in text)

    # -- views ---------------------------------------------------------------

    @property
    def bits(self) -> tuple:
        return self._bits

    @property
    def support(self) -> tuple:
        return tuple(i for i, b in enumerate(self._bits) if b)

    @property
    def rank(self) -> int:
        return sum(self._bits)

    @property
    def level(self) -> int:
        return len(self._bits) - 1

    @property
    def is_root(self) -> bool:
        # all 1-bits form an initial segment
        return self.level == self.rank - 1

    def bit(self, i: int) -> int:
        return self._bits[i] if 0 <= i < len(self._bits) else 0

    def root(self) -> "Label":
        """The unique root of the same rank."""
        return Label([1] * self.rank)

    # -- operations ------------------------------------------------------------

    def insert_zero(self, i: int) -> "Label":
        """Insert a 0 at position i, shifting higher bits up (a no-op on the
        canonical form when i exceeds the level)."""
        if i < 0:
            raise ValueError("insertion position must be nonnegative")
        if i > self.level:
            return self
        return Label(self._bits[:i] + (0,) + self._bits[i:])

    def last_insertion(self) -> tuple:
        """(i, parent) with ``parent.insert_zero(i) == self``: i is the first
        0-bit and parent the label without it; a root raises ``ValueError``."""
        i = self._bits.index(0)
        return i, Label(self._bits[:i] + self._bits[i + 1 :])

    def transpose(self, j: int) -> "Label":
        """Swap bits at positions j-1 and j (the j-th adjacent transposition)."""
        if j < 1:
            raise ValueError("transposition index must be >= 1")
        bits = list(self._bits) + [0] * max(0, j + 1 - len(self._bits))
        bits[j - 1], bits[j] = bits[j], bits[j - 1]
        return Label(bits)

    def upsilon(self) -> tuple:
        """Gap encoding (v1, v2-v1-1, ...); () for the empty label."""
        sup = self.support
        return tuple(
            sup[0] if i == 0 else sup[i] - sup[i - 1] - 1 for i in range(len(sup))
        )

    @staticmethod
    def from_upsilon(coords) -> "Label":
        coords = tuple(int(c) for c in coords)
        if any(c < 0 for c in coords):
            raise ValueError("gap coordinates must be nonnegative")
        support = []
        pos = -1
        for i, c in enumerate(coords):
            pos = c if i == 0 else pos + 1 + c
            support.append(pos)
        return Label.from_support(support)

    # -- ordering ----------------------------------------------------------------

    def leq(self, other: "Label") -> bool:
        """True when some strictly increasing map sends this label onto other."""
        if self.rank != other.rank:
            return False
        offsets = [t - s for s, t in zip(self.support, other.support)]
        if any(o < 0 for o in offsets):
            return False
        return all(a <= b for a, b in zip(offsets, offsets[1:])) if offsets else True

    def __le__(self, other):
        return self.leq(other)

    def __lt__(self, other):
        return self != other and self.leq(other)

    def __eq__(self, other):
        return isinstance(other, Label) and self._bits == other._bits

    def __hash__(self):
        # ints hash alike in every process, so label sets iterate in one order
        return hash(self._bits)

    def __str__(self):
        return "".join(str(b) for b in self._bits) if self._bits else "0"

    def __repr__(self):
        return f"Label({str(self)!r})"

    def sort_key(self):
        return (self.level, self._bits)


EMPTY_LABEL = Label()


@dataclass(frozen=True)
class LambdaMorphism:
    """The unique strictly-increasing relabelling from source onto target."""

    source: Label
    target: Label

    def __post_init__(self):
        if self.source.rank != self.target.rank:
            raise RankMismatchError(
                f"rank {self.source.rank} != {self.target.rank}: no morphism "
                f"{self.source} -> {self.target}"
            )
        if not self.source.leq(self.target):
            raise MorphismError(f"no morphism {self.source} -> {self.target}")

    @property
    def rank(self) -> int:
        return self.source.rank

    @property
    def degree(self) -> tuple:
        """Coordinatewise gap increase; the multidegree of the morphism."""
        u, v = self.source.upsilon(), self.target.upsilon()
        return tuple(b - a for a, b in zip(u, v))


def join(a: Label, b: Label) -> Label:
    """Least common upper bound of two same-rank labels.

    Computed as the coordinatewise maximum of the gap encodings, where the
    order is the coordinatewise one.
    """
    if a.rank != b.rank:
        raise RankMismatchError(f"join needs equal ranks, got {a.rank} and {b.rank}")
    return Label.from_upsilon(
        tuple(max(x, y) for x, y in zip(a.upsilon(), b.upsilon()))
    )


def enumerate_labels(max_level: int, rank: int | None = None):
    """All canonical labels with level <= max_level, ordered by level then
    lexicographically on bits; optionally filtered by rank."""
    if max_level < -1:
        raise ValueError("max_level must be >= -1")
    out = []
    if rank is None or rank == 0:
        out.append(EMPTY_LABEL)
    for level in range(0, max_level + 1):
        batch = []
        for mask in range(2**level):
            bits = [(mask >> (level - 1 - i)) & 1 for i in range(level)] if level else []
            batch.append(Label(bits + [1]))
        batch.sort(key=lambda lab: lab.bits)
        for lab in batch:
            if rank is None or lab.rank == rank:
                out.append(lab)
    return out


def insertion_sequence(source: Label, target: Label):
    """Positions i_1, i_2, ... with ε_{i_m} ∘ ... ∘ ε_{i_1}(source) = target.

    Applying insert_zero at the returned positions in order transforms source
    into target, raising the level by one at every step.  Closed form, with s
    the support of source, k its rank and d the multidegree: gap coordinate
    c = k..1 grows d[c-1] times at position s[c-2] + 1 (0 for c = 1), highest
    first, so no insertion moves the bits below a later one.
    """
    s, d = source.support, LambdaMorphism(source, target).degree
    seq = []
    for c in range(len(s), 0, -1):  # gap coordinate, 1-indexed
        seq += [s[c - 2] + 1 if c >= 2 else 0] * d[c - 1]
    reached = source
    for i in seq:
        reached = reached.insert_zero(i)
    if reached != target:
        raise InternalInconsistencyError(f"insertion sequence failed for {source} -> {target}")
    return seq


# -- skeleton graph -----------------------------------------------------------


def skeleton_edges(max_rank: int, max_level: int):
    """Edges (source, target, coordinate) of the one-step insertion skeleton.

    Each vertex of rank k has one outgoing edge per gap coordinate c = 1..k,
    pointing at the label whose c-th gap coordinate is one larger.  The
    coordinate plays the role of an edge colour class.
    """
    edges = []
    for lab in enumerate_labels(max_level):
        if lab.rank > max_rank:
            continue
        ups = lab.upsilon()
        for c in range(1, lab.rank + 1):
            nxt = Label.from_upsilon(
                tuple(u + 1 if i == c - 1 else u for i, u in enumerate(ups))
            )
            if nxt.level <= max_level:
                edges.append((lab, nxt, c))
    return edges


_EDGE_COLORS = ("black", "red", "blue", "forestgreen", "orange", "purple")


def skeleton_dot(max_rank: int, max_level: int) -> str:
    """Deterministic DOT rendering of the insertion skeleton.

    Vertices are named by their bit strings, roots are bold, and every gap
    coordinate uses one colour class.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be >= 0")
    lines = [
        "digraph label_skeleton {",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10, width=0.3, fixedsize=false];',
    ]
    vertices = [lab for lab in enumerate_labels(max_level) if lab.rank <= max_rank]
    for lab in vertices:
        attrs = [f'label="({lab})"']
        if lab.is_root:
            attrs.append("style=bold")
            attrs.append("fontname=bold")
        lines.append(f'  "{lab}" [{", ".join(attrs)}];')
    for src, dst, c in skeleton_edges(max_rank, max_level):
        color = _EDGE_COLORS[(c - 1) % len(_EDGE_COLORS)]
        lines.append(f'  "{src}" -> "{dst}" [color={color}, tooltip="coordinate {c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
