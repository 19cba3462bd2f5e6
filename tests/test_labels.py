"""Label combinatorics against brute-force oracles."""

import random
from itertools import combinations

import pytest

from cosimplex.errors import MorphismError, RankMismatchError
from cosimplex.labels import (
    EMPTY_LABEL,
    Label,
    LambdaMorphism,
    enumerate_labels,
    insertion_sequence,
    join,
    skeleton_dot,
    skeleton_edges,
)


def brute_is_morphism(u: Label, v: Label) -> bool:
    """Oracle: search all strictly increasing maps on a window containing u."""
    if u.rank != v.rank:
        return False
    if u.rank == 0:
        return True
    lu, lv = u.level, v.level
    if lv < lu:
        return False
    # a strictly increasing g: [0..lu] -> [0..lv] is a (lu+1)-subset of [0..lv]
    for image in combinations(range(lv + 1), lu + 1):
        g = dict(zip(range(lu + 1), image))
        if tuple(g[x] for x in u.support) == v.support:
            return True
    return False


def brute_leq_upper_bounds(a: Label, b: Label, max_level: int):
    return [
        w
        for w in enumerate_labels(max_level, rank=a.rank)
        if brute_is_morphism(a, w) and brute_is_morphism(b, w)
    ]


# -- canonical form and basic views ------------------------------------------


def test_canonical_form_strips_trailing_zeros():
    assert Label([1, 0, 1, 0, 0]).bits == (1, 0, 1)
    assert Label([0, 0]).bits == ()
    assert str(Label()) == "0"
    assert str(Label([1, 0, 1, 0, 1])) == "10101"


def test_support_round_trip():
    lab = Label.from_support([0, 2, 4])
    assert str(lab) == "10101"
    assert lab.support == (0, 2, 4)
    assert lab.rank == 3
    assert lab.level == 4


def test_rank_level_root_relation():
    for lab in enumerate_labels(6):
        assert lab.rank - 1 <= lab.level
        assert (lab.rank - 1 == lab.level) == lab.is_root


def test_parse():
    assert Label.parse("0") == EMPTY_LABEL
    assert Label.parse("(101)") == Label([1, 0, 1])


# -- insert_zero ----------------------------------------------------------------


def test_insert_zero_examples():
    assert Label.parse("11").insert_zero(0) == Label.parse("011")
    assert Label.parse("101").insert_zero(1) == Label.parse("1001")
    assert Label.parse("11").insert_zero(2) == Label.parse("11")  # beyond the level


def test_insert_zero_rank_and_level():
    for lab in enumerate_labels(5):
        for i in range(8):
            out = lab.insert_zero(i)
            assert out.rank == lab.rank
            expected = lab.level + 1 if i <= lab.level else lab.level
            assert out.level == expected


def test_insertion_exchange_identity():
    rng = random.Random(7)
    for _ in range(300):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        lab = Label(bits)
        i = rng.randint(0, 7)
        j = rng.randint(i + 1, 8)
        assert lab.insert_zero(i).insert_zero(j) == lab.insert_zero(j - 1).insert_zero(i)


def test_adjacent_insertions_equal_iff_bit_zero():
    for lab in enumerate_labels(5):
        for i in range(7):
            same = lab.insert_zero(i) == lab.insert_zero(i + 1)
            assert same == (lab.bit(i) == 0)


# -- roots ------------------------------------------------------------------------


def test_root_examples():
    assert Label.parse("10101").root() == Label.parse("111")
    assert EMPTY_LABEL.root() == EMPTY_LABEL
    # brute-force rank count
    lab = Label.parse("1001")
    assert sum(lab.bits) == 2
    assert lab.root() == Label.parse("11")


# -- morphisms ----------------------------------------------------------------------


def test_is_morphism_examples():
    assert Label.from_support([0, 2]).leq(Label.from_support([0, 3]))
    assert not Label.from_support([0, 2]).leq(Label.from_support([1, 2]))
    for lab in enumerate_labels(4):
        assert lab.leq(lab)


def test_is_morphism_matches_brute_force():
    labels = [lab for lab in enumerate_labels(6) if lab.rank <= 3]
    for u in labels:
        for v in labels:
            assert u.leq(v) == brute_is_morphism(u, v), (u, v)


def test_singleton_needs_nonnegative_offset():
    assert not Label.from_support([1]).leq(Label.from_support([0]))


def test_morphism_object_validates():
    LambdaMorphism(Label.parse("11"), Label.parse("101"))
    with pytest.raises(MorphismError):
        LambdaMorphism(Label.from_support([0, 2]), Label.from_support([1, 2]))
    with pytest.raises(RankMismatchError):
        LambdaMorphism(Label.parse("1"), Label.parse("11"))


def test_degree_functor_factorisation():
    # every splitting of the degree factors uniquely through a middle label
    labels = [lab for lab in enumerate_labels(5) if 1 <= lab.rank <= 2]
    for u in labels:
        for v in labels:
            if not u.leq(v):
                continue
            d = LambdaMorphism(u, v).degree
            # enumerate all componentwise splittings d = p + q
            def splittings(d):
                if not d:
                    yield (), ()
                    return
                for p0 in range(d[0] + 1):
                    for p_rest, q_rest in splittings(d[1:]):
                        yield (p0,) + p_rest, (d[0] - p0,) + q_rest

            for p, q in splittings(d):
                middles = [
                    w
                    for w in enumerate_labels(v.level, rank=u.rank)
                    if u.leq(w)
                    and w.leq(v)
                    and LambdaMorphism(u, w).degree == q
                    and LambdaMorphism(w, v).degree == p
                ]
                assert len(middles) == 1, (u, v, p, q)


# -- join ------------------------------------------------------------------------------


def test_join_examples():
    assert join(Label.parse("011"), Label.parse("101")) == Label.parse("0101")
    assert join(Label.parse("1"), Label.parse("01")) == Label.parse("01")
    for lab in enumerate_labels(4):
        assert join(lab, lab) == lab
    with pytest.raises(RankMismatchError):
        join(Label.parse("1"), Label.parse("11"))


def test_join_is_least_upper_bound_by_brute_force():
    labels = [lab for lab in enumerate_labels(4) if lab.rank == 2]
    for a in labels:
        for b in labels:
            j = join(a, b)
            ubs = brute_leq_upper_bounds(a, b, a.level + b.level + 1)
            assert j in ubs
            assert all(j.leq(w) for w in ubs)


# -- gap encoding -------------------------------------------------------------------------


def test_upsilon_round_trip_to_level_12():
    for lab in enumerate_labels(12):
        assert Label.from_upsilon(lab.upsilon()) == lab
    assert EMPTY_LABEL.upsilon() == ()


def test_upsilon_example():
    assert Label.from_support([0, 2, 4]).upsilon() == (0, 1, 1)


# -- transpositions --------------------------------------------------------------------------


def test_transpose_examples():
    assert Label.parse("1").transpose(1) == Label.parse("01")
    assert Label.parse("11").transpose(2) == Label.parse("101")
    lab = Label.parse("1001")
    assert lab.transpose(2) == lab  # equal bits at positions 1,2


def test_transpose_involution_and_rank():
    rng = random.Random(11)
    for _ in range(200):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        lab = Label(bits)
        j = rng.randint(1, 9)
        out = lab.transpose(j)
        assert out.rank == lab.rank
        assert out.transpose(j) == lab


# -- insertion sequences ------------------------------------------------------------------------


def test_insertion_sequence_reaches_target():
    labels = [lab for lab in enumerate_labels(5) if lab.rank <= 3]
    for u in labels:
        for v in labels:
            if not u.leq(v):
                continue
            seq = insertion_sequence(u, v)
            cur = u
            for i in seq:
                cur = cur.insert_zero(i)
            assert cur == v
            assert len(seq) == v.level - u.level


def gap_walk_insertion_sequence(source: Label, target: Label):
    """Reference: widen one gap coordinate at a time, from the highest down,
    inserting a zero right after the bit below it until the coordinate
    reaches the target's."""
    seq = []
    cur = list(source.support)
    tgt = target.upsilon()
    for c in range(len(cur), 0, -1):  # gap coordinate, 1-indexed
        while True:
            gap = cur[c - 1] - cur[c - 2] - 1 if c >= 2 else cur[0]
            if gap >= tgt[c - 1]:
                break
            i = cur[c - 2] + 1 if c >= 2 else 0
            cur = [x if x < i else x + 1 for x in cur]
            seq.append(i)
    assert cur == list(target.support)
    return seq


def test_insertion_sequence_from_the_multidegree_equals_the_gap_walk():
    labels = enumerate_labels(7)
    pairs = 0
    for u in labels:
        for v in labels:
            if u.leq(v):
                pairs += 1
                assert insertion_sequence(u, v) == gap_walk_insertion_sequence(u, v)
    assert pairs > 1000


# -- enumeration and skeleton --------------------------------------------------------------------


def test_enumeration_order_and_counts():
    assert [str(x) for x in enumerate_labels(0)] == ["0", "1"]
    assert [str(x) for x in enumerate_labels(1, rank=1)] == ["1", "01"]
    assert len(enumerate_labels(2)) == 8  # all subsets of {0,1,2}
    assert len(enumerate_labels(12)) == 2**13


def test_skeleton_rank2_component_shape():
    # the rank-2 component up to level 3: two colour classes of edges
    edges = [
        (str(a), str(b), c)
        for a, b, c in skeleton_edges(2, 3)
        if a.rank == 2
    ]
    assert ("11", "011", 1) in edges
    assert ("11", "101", 2) in edges
    assert ("011", "0011", 1) in edges
    assert ("011", "0101", 2) in edges
    assert ("101", "0101", 1) in edges
    assert ("101", "1001", 2) in edges
    # each rank-2 vertex has exactly two outgoing colours when room remains
    outgoing = {}
    for a, b, c in edges:
        outgoing.setdefault(a, set()).add(c)
    assert outgoing["11"] == {1, 2}


def test_skeleton_dot_contains_bold_roots():
    dot = skeleton_dot(2, 4)
    assert '"11" [label="(11)", style=bold, fontname=bold];' in dot
    assert '"011" [label="(011)"];' in dot
    assert dot == skeleton_dot(2, 4)  # deterministic
