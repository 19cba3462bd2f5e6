"""The labeled decomposition, grown once, against the constructions it replaced.

Each reference below is the older, longer way of building the same object:
the innovations orthogonalized one level at a time, and the labeled subsets
and subspaces as walks of every root along its whole insertion word.  They
run on every fixture, as built and under a seeded rotation (a seeded
renumbering of the elements at the set level), and on seeded ball-in-box
structures.  The call counts pin that each analysis orthogonalizes once.
"""

import random

import pytest

from cosimplex import tower as tower_mod
from cosimplex.fixtures import (
    disjoint_union,
    ell2_tower,
    example2_scs,
    figure2_scs,
    identity_shift_tower,
    layer_minus_root_scs,
    layered_scs,
    prototypical,
    random_rational_rotation,
    rotate_tower,
)
from cosimplex.labels import enumerate_labels, insertion_sequence, skeleton_edges
from cosimplex.linalg import Matrix, gram_schmidt, primitive, span_basis
from cosimplex.normal_ext import labeled_subsets, root_elements
from cosimplex.scs import TruncatedSCS, from_ell
from cosimplex.tower import (
    build_symmetric_rep,
    check_hessenberg,
    from_scs,
    innovation_bases,
    labeled_subspaces,
    root_dimension_sequence,
)
from structures import random_valid_ell, with_last_shift_broken

# -- references -----------------------------------------------------------------------


def per_level_innovations(tower):
    """H_k ⊖ H_{k-1} for each k, orthogonalizing H_{k-1} and H_k afresh."""
    out = {}
    for k in range(-1, tower.max_level + 1):
        prev = tower.basis(k - 1).columns() if k >= 0 else []
        ortho = gram_schmidt(list(prev) + list(tower.basis(k).columns()))
        out[k] = ortho[len(span_basis(prev)):]
    return out


def walked_subsets(scs):
    """Labeled subsets by walking every root along the insertion word from
    its root label; a label is left out once a walk meets a level-N element."""
    N = scs.max_level
    roots_at = {}
    for y in root_elements(scs):
        roots_at.setdefault(scs.levels[y], set()).add(y)
    out = {}
    for k in sorted(roots_at):
        root_label = enumerate_labels(N, rank=k + 1)[0]
        out[root_label] = frozenset(roots_at[k])
        for lab in enumerate_labels(N, rank=k + 1)[1:]:
            word = insertion_sequence(root_label, lab)
            members = set()
            ok = True
            for y in roots_at[k]:
                cur = y
                for i in word:
                    if scs.levels[cur] > N - 1:
                        ok = False
                        break
                    cur = scs.alpha(i, cur)
                if not ok:
                    break
                members.add(cur)
            if ok:
                out[lab] = frozenset(members)
    return out


def walked_subspaces(tower):
    """Labeled subspaces from the per-level innovations: root spaces as the
    innovation vectors orthogonal to every shifted lower innovation, then each
    root vector pushed along the whole insertion word of every label."""
    N, d = tower.max_level, tower.ambient_dim
    innov = per_level_innovations(tower)
    out = {}
    for k in range(-1, N + 1):
        roots = innov[k]
        if k > 0:
            shifted = [tower.alpha(i) * v for i in range(k) for v in innov[k - 1]]
            W = Matrix.from_columns(innov[k], nrows=d)
            kernel = (Matrix(shifted, ncols=d) * W).kernel()
            roots = [v for v in (primitive(W * x) for x in kernel.columns()) if any(v)]
        if not roots:
            continue
        labels = enumerate_labels(N, rank=k + 1)
        for lab in labels:
            images = roots
            for i in insertion_sequence(labels[0], lab):
                images = [tower.alpha(i) * v for v in images]
            out[lab] = images
    return out


# -- inputs ---------------------------------------------------------------------------


def fixture_structures():
    out = [prototypical(N) for N in range(-1, 6)]
    out += [example2_scs(N) for N in range(2, 6)]
    out += [figure2_scs()]
    out += [layer_minus_root_scs(r, N) for r, N in ((1, 3), (2, 3), (2, 4), (3, 4))]
    out += [
        layered_scs(dims, N)
        for dims, N in (([1, 1], 3), ([0, 1, 1], 3), ([1, 0, 1], 3), ([1, 1, 1], 3),
                        ([2, 1], 3), ([0, 0, 1], 4), ([1, 1, 1], 4))
    ]
    return out


def ell_structures(count=100):
    rng = random.Random(4242)
    out = []
    for t in range(count):
        N = rng.randint(1, 5)
        s = from_ell(random_valid_ell(rng, N), N)
        out.append(disjoint_union(s, from_ell(random_valid_ell(rng, N), N)) if t % 3 == 2 else s)
    return out


def renumbered(scs, rng):
    ids = list(range(50, 50 + len(scs.levels)))
    rng.shuffle(ids)
    new = dict(zip(sorted(scs.levels), ids))
    return TruncatedSCS(
        scs.max_level,
        {new[x]: lv for x, lv in scs.levels.items()},
        tuple({new[x]: new[y] for x, y in m.items()} for m in scs.shifts),
    )


def oracle_towers():
    towers = [from_scs(s) for s in fixture_structures() + ell_structures()]
    towers += [identity_shift_tower(3), ell2_tower(3)]
    rotated = [
        rotate_tower(t, random_rational_rotation(t.ambient_dim, random.Random(seed)))
        for seed, t in enumerate(towers)
    ]
    return towers + rotated


# -- oracles --------------------------------------------------------------------------


def test_the_parent_rule_ends_every_insertion_word_from_a_root():
    edges = set(skeleton_edges(8, 8))
    checked = 0
    for lab in enumerate_labels(8):
        if lab.is_root:
            with pytest.raises(ValueError):
                lab.last_insertion()
            continue
        i, parent = lab.last_insertion()
        root = lab.root()
        assert parent.insert_zero(i) == lab
        assert parent.level == lab.level - 1
        assert (parent, lab, i + 1) in edges
        assert insertion_sequence(root, lab) == insertion_sequence(root, parent) + [i]
        checked += 1
    assert checked == 2**9 - 10  # the labels of level <= 8 but the ten roots, empty one included


def test_one_pass_innovations_equal_the_per_level_ones():
    towers = oracle_towers()
    assert len(towers) >= 2 * 100
    for t in towers:
        assert innovation_bases(t) == per_level_innovations(t)


def test_labeled_subsets_equal_the_root_walks():
    structures = fixture_structures() + ell_structures()
    rng = random.Random(7)
    checked = 0
    for scs in structures + [renumbered(s, rng) for s in structures]:
        got = labeled_subsets(scs)
        assert list(got.items()) == list(walked_subsets(scs).items())
        checked += len(got)
    assert checked > 1000


def test_labeled_subspaces_equal_the_root_walks():
    towers = oracle_towers()
    for t in towers + [with_last_shift_broken(t) for t in towers if t.shifts]:
        got = labeled_subspaces(t)
        assert list(got.items()) == list(walked_subspaces(t).items())


# -- one pass per call ------------------------------------------------------------------


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("analysis", [root_dimension_sequence, labeled_subspaces])
def test_each_analysis_orthogonalizes_once(monkeypatch, analysis):
    """One Gram–Schmidt pass, fed each level's columns once, in level order."""
    tower = from_scs(layered_scs([1, 1, 1], 4))
    fed = []
    orthogonalize = tower_mod._gram_schmidt_groups

    def counted(groups):
        groups = [list(vectors) for vectors in groups]
        fed.append(groups)
        return orthogonalize(groups)

    monkeypatch.setattr(tower_mod, "_gram_schmidt_groups", counted)
    analysis(tower)
    assert fed == [[tower.basis(k).columns() for k in range(-1, tower.max_level + 1)]]


def test_hessenberg_forms_each_shifted_domain_once(monkeypatch):
    data = build_symmetric_rep(from_scs(layered_scs([1, 1, 1], 4)))
    calls = _count(monkeypatch, Matrix, "__mul__")
    assert check_hessenberg(data).ok
    assert len(calls) == 194
