"""Algebraic laws of the label poset under randomized inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cosimplex.labels import Label, join

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=10)
labels = bits.map(Label)
positions = st.integers(min_value=0, max_value=10)


def same_rank_pairs():
    # build both labels from gap tuples of one common length
    def pair_for_rank(rank):
        gaps = st.lists(
            st.integers(min_value=0, max_value=4), min_size=rank, max_size=rank
        )
        return st.tuples(gaps, gaps).map(
            lambda gg: (Label.from_upsilon(gg[0]), Label.from_upsilon(gg[1]))
        )

    return st.integers(min_value=0, max_value=4).flatmap(pair_for_rank)


@given(labels, positions, positions)
def test_insertion_exchange_law(lab, i, j):
    i, j = sorted((i, j))
    if i == j:
        j += 1
    assert lab.insert_zero(i).insert_zero(j) == lab.insert_zero(j - 1).insert_zero(i)


@given(labels, positions)
def test_insertion_keeps_rank(lab, i):
    assert lab.insert_zero(i).rank == lab.rank


@given(labels, st.integers(min_value=1, max_value=10))
def test_transposition_involution(lab, j):
    out = lab.transpose(j)
    assert out.transpose(j) == lab
    assert out.rank == lab.rank


@settings(max_examples=200)
@given(same_rank_pairs())
def test_join_is_an_upper_bound(pair):
    a, b = pair
    c = join(a, b)
    assert a.leq(c) and b.leq(c)
    assert join(a, b) == join(b, a)
    assert join(a, a) == a


@settings(max_examples=200)
@given(same_rank_pairs(), labels)
def test_join_is_least(pair, other):
    a, b = pair
    if other.rank != a.rank:
        return
    if a.leq(other) and b.leq(other):
        assert join(a, b).leq(other)


@given(labels, labels, labels)
def test_order_is_transitive(a, b, c):
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(labels)
def test_gap_encoding_round_trip(lab):
    assert Label.from_upsilon(lab.upsilon()) == lab


@given(labels, positions)
def test_insertion_adjacent_collision(lab, i):
    assert (lab.insert_zero(i) == lab.insert_zero(i + 1)) == (lab.bit(i) == 0)
