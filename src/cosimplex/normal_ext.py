"""Normal labels, layers, minimal normal extensions and classification.

Every element y of a semi-cosimplicial set carries a *normal label*: the bit
sequence whose n-th bit records whether the adjacent partial shifts α_n and
α_{n+1} act differently on y.  Shifting an element inserts a zero into its
label, so labels organize the whole orbit structure.  A structure is *normal*
when every element lies in exactly one labeled subset; a normal structure
splits into layers, each isomorphic to the poset of all labels of one rank,
and the layer multiplicities classify it.  A general structure embeds into a
minimal normal extension built from one layer per equivalence class of
elements, where two elements are equivalent when pushing both to the join of
their labels lands on the same element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStructureError, TruncationError
from .labels import Label, enumerate_labels, insertion_sequence, join
from .scs import Report, TruncatedSCS, infer_normal_labels, normal_label_bits, preimages, require_valid


@dataclass
class NormalLabelTable:
    """Normal labels for all determinable elements.

    ``exact`` holds directly computed labels, ``inferred`` those propagated to
    boundary-level elements through the insertion identity, ``unknown`` the
    element ids the truncation cannot decide.
    """

    labels: dict
    inferred: frozenset
    unknown: frozenset

    def require(self, y) -> Label:
        if y not in self.labels:
            raise TruncationError(f"normal label of element {y} is undecidable", items=[y])
        return self.labels[y]


def normal_label_table(scs: TruncatedSCS) -> NormalLabelTable:
    labels, inferred, unknown = infer_normal_labels(scs)
    return NormalLabelTable(labels, frozenset(inferred), frozenset(unknown))


@dataclass
class EpsilonLemmaReport(Report):
    cases: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def check_epsilon_lemma(scs: TruncatedSCS) -> EpsilonLemmaReport:
    """Verify label(α_j y) = insert_zero_j(label y) wherever both sides are
    evaluable (elements of level <= N-2, every stored shift index)."""
    require_valid(scs, "check_epsilon_lemma")
    N = scs.max_level
    cases = 0
    failures = []
    for y, lv in scs.levels.items():
        if lv > N - 2:
            continue
        base = Label(normal_label_bits(scs, y))
        for j in range(0, max(0, N)):
            img = scs.alpha(j, y)
            cases += 1
            lhs = Label(normal_label_bits(scs, img))
            rhs = base.insert_zero(j)
            if lhs != rhs:
                failures.append(
                    {"y": y, "j": j, "image": img, "label_image": str(lhs), "expected": str(rhs)}
                )
    return EpsilonLemmaReport(cases, failures)


# -- labeled subsets and set-level normality -------------------------------------


def root_elements(scs: TruncatedSCS) -> frozenset:
    """Elements that are not shift images of strictly lower level.

    y is a root when y ∉ α_i(X_{level(y)-1}) for every i; these generate the
    structure level by level.
    """
    index = preimages(scs)
    return frozenset(
        y
        for y, lv in scs.levels.items()
        if not any(scs.levels[x] <= lv - 1 for _, x in index.get(y, ()))
    )


def labeled_subsets(scs: TruncatedSCS) -> dict:
    """The labeled subsets, keyed by label.

    Level-k roots form the subset of the root label of rank k+1; every other
    labeled subset is α_i of its parent's (``Label.last_insertion``), all
    below level N: a shift raises a level by at most one, so no member lies
    above its label's level.  Labels map to (possibly overlapping) element
    sets; they partition the elements exactly when the structure is normal.
    """
    require_valid(scs, "labeled_subsets")
    N = scs.max_level
    roots = root_elements(scs)
    out = {}
    for k in sorted({scs.levels[y] for y in roots}):
        for lab in enumerate_labels(N, rank=k + 1):
            if lab.is_root:
                out[lab] = frozenset(y for y in roots if scs.levels[y] == k)
            else:
                i, parent = lab.last_insertion()
                out[lab] = frozenset(scs.alpha(i, y) for y in out[parent])
    return out


def is_normal_scs(scs: TruncatedSCS):
    """(verdict, overlaps): normal means the labeled subsets are disjoint."""
    subsets = labeled_subsets(scs)
    seen = {}
    overlaps = []
    for lab in sorted(subsets, key=lambda l: l.sort_key()):
        for y in sorted(subsets[lab]):
            if y in seen:
                overlaps.append({"element": y, "labels": [str(seen[y]), str(lab)]})
            else:
                seen[y] = lab
    return (not overlaps), overlaps


# -- equivalence classes -----------------------------------------------------------


@dataclass
class ClassPartition:
    classes: list  # list of sorted element-id lists
    table: NormalLabelTable
    undecided_pairs: list


def equivalence_classes(scs: TruncatedSCS) -> ClassPartition:
    """Partition elements into classes destined for one layer each.

    Every shift image is equivalent to its source, which resolves all
    equivalences that are visible inside the truncation; remaining same-rank
    cross-class pairs are decided by pushing both elements to the join of
    their labels, and flagged undecided when the pushes run off the stored
    levels.
    """
    require_valid(scs, "equivalence_classes")
    parent = {y: y for y in scs.levels}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    table = normal_label_table(scs)
    for mapping in scs.shifts:
        for x, y in mapping.items():
            union(x, y)

    undecided = []
    reps = sorted({find(y) for y in scs.levels})
    for idx_a in range(len(reps)):
        for idx_b in range(idx_a + 1, len(reps)):
            a, b = reps[idx_a], reps[idx_b]
            if find(a) == find(b):
                continue
            la, lb = table.labels.get(a), table.labels.get(b)
            if la is None or lb is None:
                undecided.append({"pair": [a, b], "reason": "label undecidable"})
                continue
            if la.rank != lb.rank:
                continue
            target = join(la, lb)
            try:
                pa = scs.alpha_word(insertion_sequence(la, target), a)
                pb = scs.alpha_word(insertion_sequence(lb, target), b)
            except TruncationError:
                undecided.append({"pair": [a, b], "reason": "push exceeds truncation"})
                continue
            if pa == pb:
                union(a, b)

    groups = {}
    for y in scs.levels:
        groups.setdefault(find(y), []).append(y)
    classes = [sorted(v) for _, v in sorted(groups.items())]
    return ClassPartition(classes, table, undecided)


# -- layers and the minimal normal extension ------------------------------------------


def layer_union(specs, N: int):
    """The disjoint union of the layers ``layer_scs(rank, N, name_prefix)``
    for the (rank, name_prefix) pairs of ``specs``, built in one pass and
    numbered layer by layer, labels in ``enumerate_labels`` order; returned
    with each layer's label -> element-id map."""
    levels, names, label_ids = {}, {}, []
    shifts = tuple({} for _ in range(max(0, N)))
    for rank, name_prefix in specs:
        labs = enumerate_labels(N, rank=rank)
        ids = {lab: len(levels) + idx for idx, lab in enumerate(labs)}
        for lab in labs:
            levels[ids[lab]] = lab.level
            names[ids[lab]] = f"{name_prefix}{lab}"
            if lab.level <= N - 1:
                for i, mapping in enumerate(shifts):
                    mapping[ids[lab]] = ids[lab.insert_zero(i)]
        label_ids.append(ids)
    return TruncatedSCS(N, levels, shifts, names), label_ids


def layer_scs(rank: int, N: int, name_prefix: str = "") -> TruncatedSCS:
    """The truncated single-root layer of the given rank: elements are the
    labels of that rank up to level N, shifted by zero insertion."""
    return layer_union([(rank, name_prefix)], N)[0]


@dataclass
class ExtensionResult:
    extension: TruncatedSCS
    embedding: dict  # original id -> extension id
    layer_ranks: list  # rank of each layer, in construction order

    def to_dict(self):
        return {
            "layer_ranks": self.layer_ranks,
            "embedding": {str(k): v for k, v in sorted(self.embedding.items())},
        }


def minimal_normal_extension(scs: TruncatedSCS) -> ExtensionResult:
    """One layer per equivalence class; elements embed at their normal labels.

    The result is normal and saturated, contains the input as a
    sub-structure through the embedding, and is unique for the given input.
    Classes whose labels or equivalences are truncation-undecidable raise
    ``TruncationError``.
    """
    require_valid(scs, "minimal_normal_extension")
    part = equivalence_classes(scs)
    layer_ranks = _layer_ranks(scs, part)
    extension, label_ids = layer_union(
        [(rank, f"L{idx}:") for idx, rank in enumerate(layer_ranks)], scs.max_level
    )
    embedding = {
        y: ids[part.table.labels[y]] for ids, cls in zip(label_ids, part.classes) for y in cls
    }
    return ExtensionResult(extension, embedding, layer_ranks)


def _layer_ranks(scs: TruncatedSCS, part: ClassPartition) -> list:
    """The label rank of each class of ``part``, the partition of ``scs``:
    the rank of its layer in the minimal normal extension."""
    if part.table.unknown:
        raise TruncationError(
            "normal labels undecidable for: "
            + ", ".join(scs.name(y) for y in sorted(part.table.unknown)),
            items=sorted(part.table.unknown),
        )
    if part.undecided_pairs:
        raise TruncationError(
            f"{len(part.undecided_pairs)} element pairs undecidable at this truncation",
            items=[tuple(p["pair"]) for p in part.undecided_pairs],
        )
    layer_ranks = []
    for idx, cls in enumerate(part.classes):
        labels_here = {y: part.table.require(y) for y in cls}
        ranks = {lab.rank for lab in labels_here.values()}
        if len(ranks) != 1:
            raise InvalidStructureError(
                f"class {idx} mixes label ranks {sorted(ranks)}"
            )
        by_label = {}
        for y, lab in labels_here.items():
            if lab in by_label:
                raise InvalidStructureError(
                    f"elements {scs.name(by_label[lab])} and {scs.name(y)} share the "
                    f"normal label {lab} inside one class"
                )
            by_label[lab] = y
        layer_ranks.append(ranks.pop())
    return layer_ranks


# -- classification ----------------------------------------------------------------------


def _minimal_labels(labels):
    return sorted(
        (a for a in labels if not any(b != a and b.leq(a) for b in labels)),
        key=lambda l: l.sort_key(),
    )


@dataclass(frozen=True)
class LayerInvariant:
    rank: int
    root_labels: tuple  # label strings of the original root elements, sorted
    minimal_root_labels: tuple

    @property
    def is_antichain(self) -> bool:
        return self.root_labels == self.minimal_root_labels


@dataclass(frozen=True)
class SCSInvariant:
    """Layer multiplicities together with per-layer root-label data."""

    layers: tuple  # sorted tuple of LayerInvariant

    def multiplicities(self) -> dict:
        out = {}
        for layer in self.layers:
            out[layer.rank] = out.get(layer.rank, 0) + 1
        return out

    def to_dict(self):
        return {
            "layers": [
                {
                    "rank": l.rank,
                    "root_labels": list(l.root_labels),
                    "minimal_root_labels": list(l.minimal_root_labels),
                    "is_antichain": l.is_antichain,
                }
                for l in self.layers
            ],
            "multiplicities": {str(k): v for k, v in sorted(self.multiplicities().items())},
        }


def classify(scs: TruncatedSCS) -> SCSInvariant:
    """Layer multiplicities of the minimal normal extension plus, per layer,
    the normal labels of the original root elements landing in it."""
    require_valid(scs, "classify")
    part = equivalence_classes(scs)
    layer_ranks = _layer_ranks(scs, part)
    roots = root_elements(scs)
    layers = []
    for idx, cls in enumerate(part.classes):
        labels_here = sorted(
            (part.table.require(y) for y in cls if y in roots),
            key=lambda l: l.sort_key(),
        )
        layers.append(
            LayerInvariant(
                rank=layer_ranks[idx],
                root_labels=tuple(str(l) for l in labels_here),
                minimal_root_labels=tuple(str(l) for l in _minimal_labels(labels_here)),
            )
        )
    return SCSInvariant(tuple(sorted(layers, key=lambda l: (l.rank, l.root_labels))))


def is_isomorphic(a: TruncatedSCS, b: TruncatedSCS) -> bool:
    """Equality of classification invariants at a common truncation level."""
    if a.max_level != b.max_level:
        raise ValueError("compare structures at the same truncation level")
    return classify(a) == classify(b)
