"""Normal labels, equivalence classes, extensions and classification."""

import random
from itertools import product

import pytest

from cosimplex import normal_ext
from cosimplex.cohomology import build_complex, check_cocycle_identities, explicit_cocycles
from cosimplex.errors import InvalidStructureError, TruncationError
from cosimplex.fixtures import (
    disjoint_union,
    example2_scs,
    figure2_scs,
    layer_minus_root_scs,
    layered_scs,
    prototypical,
)
from cosimplex.labels import Label, enumerate_labels
from cosimplex.normal_ext import (
    check_epsilon_lemma,
    classify,
    equivalence_classes,
    is_isomorphic,
    is_normal_scs,
    labeled_subsets,
    layer_scs,
    minimal_normal_extension,
    normal_label_table,
    root_elements,
)
from cosimplex.scs import (
    TruncatedSCS,
    check_saturation,
    check_toy_definetti_scs,
    from_ell,
    normal_label_bits,
    saturate,
    validate,
)
from cosimplex.tower import from_scs
from structures import random_valid_ell


# -- normal labels ------------------------------------------------------------------


def test_normal_labels_prototypical():
    scs = prototypical(6)
    for n in range(6):
        assert Label(normal_label_bits(scs, n)) == Label.from_support([n])


def test_normal_labels_example2():
    scs = example2_scs(5)
    assert Label(normal_label_bits(scs, 1)) == Label.from_support([1])
    table = normal_label_table(scs)
    assert table.labels[5] == Label.from_support([5])  # inferred through a shift
    assert 5 in table.inferred
    assert not table.unknown


def test_normal_labels_figure2():
    scs = figure2_scs()
    ids = {name: x for x, name in scs.names.items()}
    assert Label(normal_label_bits(scs, ids["a"])) == Label.parse("011")
    assert Label(normal_label_bits(scs, ids["b"])) == Label.parse("101")
    table = normal_label_table(scs)
    assert table.labels[ids["x"]] == Label.parse("0011")
    assert table.labels[ids["y"]] == Label.parse("0101")
    assert table.labels[ids["z"]] == Label.parse("1001")
    assert table.inferred == {ids["x"], ids["y"], ids["z"]}


# -- the insertion identity for labels of shift images ----------------------------------


def test_epsilon_lemma_fixtures():
    for scs in (prototypical(6), example2_scs(5), figure2_scs(), layered_scs([1, 2, 1], 4)):
        report = check_epsilon_lemma(scs)
        assert report.ok, report.failures


def test_epsilon_lemma_random():
    rng = random.Random(13)
    for _ in range(80):
        N = rng.randint(1, 6)
        scs = from_ell(random_valid_ell(rng, N), N)
        report = check_epsilon_lemma(scs)
        assert report.ok, report.failures


def test_epsilon_lemma_counts_cases():
    report = check_epsilon_lemma(prototypical(4))
    assert report.cases > 0


# -- saturation criterion through labels ---------------------------------------------------


def test_saturated_iff_elements_sit_at_label_level():
    rng = random.Random(3)
    for _ in range(40):
        N = rng.randint(2, 6)
        scs = from_ell(random_valid_ell(rng, N), N)
        table = normal_label_table(scs)
        sits = all(
            scs.levels[y] <= table.labels[y].level
            for y in scs.levels
            if y in table.labels
        )
        saturated = all(check_saturation(scs, n).holds for n in range(-1, N - 1))
        if not sits:
            assert not saturated
        if saturated and not table.unknown:
            assert sits


# -- labeled subsets and set-level normality ---------------------------------------------------


def test_labeled_subsets_figure2():
    scs = figure2_scs()
    ids = {name: x for x, name in scs.names.items()}
    subsets = {str(lab): set(v) for lab, v in labeled_subsets(scs).items()}
    assert subsets["111"] == {ids["a"], ids["b"]}
    assert subsets["0111"] == {ids["x"], ids["y"]}
    assert subsets["1011"] == {ids["x"], ids["z"]}
    assert subsets["1101"] == {ids["y"], ids["z"]}
    normal, overlaps = is_normal_scs(scs)
    assert not normal
    assert any(o["element"] == ids["x"] for o in overlaps)


def test_prototypical_is_normal():
    normal, overlaps = is_normal_scs(prototypical(5))
    assert normal and not overlaps


def test_layered_is_normal():
    normal, _ = is_normal_scs(layered_scs([1, 2], 4))
    assert normal


def test_root_elements_example2():
    assert root_elements(example2_scs(5)) == {0, 2}
    assert root_elements(prototypical(5)) == {0}


# -- equivalence classes -------------------------------------------------------------------------


def test_equivalence_classes_prototypical():
    part = equivalence_classes(prototypical(5))
    assert len(part.classes) == 1
    assert not part.undecided_pairs


def test_equivalence_classes_figure2():
    scs = figure2_scs()
    part = equivalence_classes(scs)
    assert len(part.classes) == 1
    assert sorted(part.classes[0]) == sorted(scs.levels)


def test_equivalence_classes_disjoint_union():
    scs = disjoint_union(prototypical(4), prototypical(4))
    part = equivalence_classes(scs)
    assert len(part.classes) == 2


def _shift_closure(scs, seeds):
    """The sub-structure on ``seeds`` and every element their shifts reach."""
    keep, todo = set(), list(seeds)
    while todo:
        x = todo.pop()
        if x not in keep:
            keep.add(x)
            todo += [m[x] for m in scs.shifts if x in m]
    shifts = tuple({x: y for x, y in m.items() if x in keep} for m in scs.shifts)
    return TruncatedSCS(scs.max_level, {x: scs.levels[x] for x in keep}, shifts)


def _shift_components(scs):
    """Connected components of the undirected graph x -- alpha_i(x)."""
    edges = {x: set() for x in scs.levels}
    for m in scs.shifts:
        for x, y in m.items():
            edges[x].add(y)
            edges[y].add(x)
    out, seen = [], set()
    for x in sorted(scs.levels):
        if x not in seen:
            component, todo = set(), [x]
            while todo:
                y = todo.pop()
                if y not in component:
                    component.add(y)
                    todo += edges[y]
            seen |= component
            out.append(sorted(component))
    return out


def test_equivalence_classes_are_the_shift_graph_components():
    # a push to the join of two labels applies stored shifts only, so it
    # never joins two components; the pushes only flag undecided pairs
    rng = random.Random(2301)
    bases = [layered_scs(d, N) for d, N in (([1, 1, 1], 5), ([0, 2, 1], 4), ([2, 0, 1], 4), ([1, 1, 1, 1], 4))]
    split = undecided = 0
    for _ in range(1000):
        scs = rng.choice(bases)
        sub = _shift_closure(scs, rng.sample(sorted(scs.levels), rng.randint(1, 4)))
        part = equivalence_classes(sub)
        assert part.classes == _shift_components(sub)
        split += len(part.classes) > 1
        undecided += bool(part.undecided_pairs)
    assert split >= 300 and undecided >= 100


# -- minimal normal extension ----------------------------------------------------------------------


def assert_extension_well_formed(scs, result):
    ext = result.extension
    assert validate(ext).ok
    normal, _ = is_normal_scs(ext)
    assert normal
    for n in range(-1, ext.max_level - 1):
        assert check_saturation(ext, n).holds
    # embedding is injective and shift equivariant
    assert len(set(result.embedding.values())) == len(result.embedding)
    for i, mapping in enumerate(scs.shifts):
        for x, y in mapping.items():
            assert ext.alpha(i, result.embedding[x]) == result.embedding[y]
    # the input is a sub-structure: levels can only drop
    for x, lv in scs.levels.items():
        assert ext.levels[result.embedding[x]] <= lv


def test_extension_of_prototypical_is_itself():
    scs = prototypical(5)
    result = minimal_normal_extension(scs)
    assert_extension_well_formed(scs, result)
    assert result.layer_ranks == [1]
    assert len(result.extension.levels) == len(scs.levels)
    assert is_isomorphic(result.extension, scs)


def test_extension_of_example2_is_the_rank1_layer():
    scs = example2_scs(5)
    result = minimal_normal_extension(scs)
    assert_extension_well_formed(scs, result)
    assert result.layer_ranks == [1]
    assert is_isomorphic(result.extension, prototypical(5))
    # the embedding sends element n to the label {n}
    ext = result.extension
    for n in range(6):
        assert ext.levels[result.embedding[n]] == n


def test_extension_of_figure2():
    scs = figure2_scs()
    result = minimal_normal_extension(scs)
    assert_extension_well_formed(scs, result)
    assert result.layer_ranks == [2]
    assert len(result.extension.levels) == len(layer_scs(2, 3).levels)


def test_extension_idempotent():
    for scs in (prototypical(4), example2_scs(5), figure2_scs()):
        once = minimal_normal_extension(scs).extension
        twice = minimal_normal_extension(once).extension
        assert is_isomorphic(once, twice)


def test_extension_distinct_labels_within_class():
    # within one class all normal labels are distinct
    for scs in (prototypical(5), example2_scs(5), figure2_scs()):
        part = equivalence_classes(scs)
        for cls in part.classes:
            labels = [part.table.require(y) for y in cls]
            assert len(set(labels)) == len(labels)


def test_extension_truncation_error_on_undecidable():
    # an isolated top-level element has no inferable label
    from cosimplex.scs import TruncatedSCS

    scs = TruncatedSCS(1, {7: 1}, ({},))
    assert validate(scs).ok
    with pytest.raises(TruncationError):
        minimal_normal_extension(scs)


def reference_layer(rank, N, name_prefix):
    """Reference: one single-root layer numbered from 0, and its label ->
    element-id map."""
    labs = enumerate_labels(N, rank=rank)
    ids = {lab: idx for idx, lab in enumerate(labs)}
    levels = {ids[lab]: lab.level for lab in labs}
    names = {ids[lab]: f"{name_prefix}{lab}" for lab in labs}
    shifts = []
    for i in range(max(0, N)):
        mapping = {}
        for lab in labs:
            if lab.level <= N - 1:
                mapping[ids[lab]] = ids[lab.insert_zero(i)]
        shifts.append(mapping)
    return TruncatedSCS(N, levels, tuple(shifts), names), ids


def reference_union(specs, N):
    """Reference: the (rank, name_prefix) layers folded pairwise by
    ``disjoint_union``, with each layer's label map moved by its offset."""
    result, label_ids = None, []
    for rank, name_prefix in specs:
        layer, ids = reference_layer(rank, N, name_prefix)
        offset = (max(result.levels) + 1) if result and result.levels else 0
        label_ids.append({lab: idx + offset for lab, idx in ids.items()})
        result = layer if result is None else disjoint_union(result, layer)
    if result is None:
        result = TruncatedSCS(N, {}, tuple({} for _ in range(max(0, N))), {})
    return result, label_ids


def reference_extension(scs):
    """Reference: ``minimal_normal_extension`` with its layers folded
    pairwise, as (extension, embedding, layer ranks)."""
    part = equivalence_classes(scs)
    if part.table.unknown:
        raise TruncationError("labels undecidable")
    if part.undecided_pairs:
        raise TruncationError("pairs undecidable")
    classes = [{y: part.table.require(y) for y in cls} for cls in part.classes]
    ranks = [next(iter(labels.values())).rank for labels in classes]
    for labels, rank in zip(classes, ranks):
        assert {lab.rank for lab in labels.values()} == {rank}
        assert len(set(labels.values())) == len(labels)
    extension, label_ids = reference_union(
        [(rank, f"L{idx}:") for idx, rank in enumerate(ranks)], scs.max_level
    )
    embedding = {}
    for labels, ids in zip(classes, label_ids):
        for y, lab in labels.items():
            embedding[y] = ids[lab]
    return extension, embedding, ranks


def items(scs):
    """Every part of a structure, each dict as its items in order."""
    return (
        scs.max_level,
        list(scs.levels.items()),
        list(scs.names.items()),
        [list(mapping.items()) for mapping in scs.shifts],
    )


def test_layered_structures_equal_the_pairwise_fold():
    for length in range(4):
        for dims in product((0, 1, 2), repeat=length):
            for N in range(-1, 6):
                specs = [
                    (rank, f"c{copy}:")
                    for copy, rank in enumerate(r for r, m in enumerate(dims) for _ in range(m))
                ]
                assert items(layered_scs(list(dims), N)) == items(reference_union(specs, N)[0])


def assert_extension_equals_the_pairwise_fold(scs) -> bool:
    """Compare with the reference; False when both find it undecidable."""
    try:
        expected = reference_extension(scs)
    except TruncationError:
        with pytest.raises(TruncationError):
            minimal_normal_extension(scs)
        return False
    result = minimal_normal_extension(scs)
    assert items(result.extension) == items(expected[0])
    assert list(result.embedding.items()) == list(expected[1].items())
    assert result.layer_ranks == expected[2]
    return True


def test_minimal_normal_extension_equals_the_pairwise_fold():
    fixtures = [prototypical(N) for N in range(0, 6)]
    fixtures += [example2_scs(N) for N in range(2, 7)]
    fixtures += [figure2_scs(), layer_minus_root_scs(2, 3), layer_minus_root_scs(3, 4)]
    fixtures += [layered_scs(dims, N) for dims, N in (([1, 1, 1], 3), ([0, 2, 1], 4), ([2, 0, 1], 3))]
    for scs in fixtures:
        assert_extension_equals_the_pairwise_fold(scs)
    rng = random.Random(29)
    built = 0
    for t in range(180):
        N = rng.randint(1, 5)
        scs = from_ell(random_valid_ell(rng, N), N)
        if t % 3 == 2:
            scs = disjoint_union(scs, from_ell(random_valid_ell(rng, N), N))
        built += assert_extension_equals_the_pairwise_fold(scs)
    assert built >= 100


# -- classification -----------------------------------------------------------------------------------


def test_classify_prototypical():
    inv = classify(prototypical(5))
    assert len(inv.layers) == 1
    layer = inv.layers[0]
    assert layer.rank == 1
    assert layer.root_labels == ("1",)
    assert layer.is_antichain


def test_classify_of_an_invalid_structure_names_its_first_violation():
    # level 5 is out of range, and both shifts then lift 1 by more than one level
    bad = TruncatedSCS(2, {0: 0, 1: 1, 2: 5}, ({0: 1, 1: 2}, {0: 0, 1: 2}))
    with pytest.raises(InvalidStructureError) as info:
        classify(bad)
    assert str(info.value) == "classify needs a valid structure: element 2 has level 5"


def _with_alpha(scs, i, x, y):
    """``scs`` with α_i(x) set to y, which need not be an element."""
    shifts = [dict(m) for m in scs.shifts]
    shifts[i][x] = y
    return TruncatedSCS(scs.max_level, dict(scs.levels), tuple(shifts))


@pytest.mark.parametrize(
    "name, analysis",
    [
        ("check_toy_definetti_scs", check_toy_definetti_scs),
        ("explicit_cocycles", lambda scs: explicit_cocycles(scs, 1)),
        ("from_scs", from_scs),
        ("labeled_subsets", labeled_subsets),
        ("check_epsilon_lemma", check_epsilon_lemma),
        ("equivalence_classes", equivalence_classes),
        ("minimal_normal_extension", minimal_normal_extension),
        ("classify", classify),
    ],
)
def test_analyses_reject_an_invalid_structure_by_its_first_violation(name, analysis):
    bad = _with_alpha(prototypical(3), 0, 0, 99)
    with pytest.raises(InvalidStructureError) as info:
        analysis(bad)
    assert str(info.value) == f"{name} needs a valid structure: alpha_0(0) is not an element"


@pytest.mark.parametrize(
    "name, analysis, x",
    [
        ("build_complex", build_complex, 0),
        ("build_complex", check_cocycle_identities, 0),
        # alpha_0(2) is read only by the top coboundary d^2, whose targets
        # no d∘d composition looks up
        ("build_complex", build_complex, 2),
        ("build_complex", check_cocycle_identities, 2),
    ],
)
def test_analyses_without_validation_reject_a_dangling_target_where_they_meet_it(name, analysis, x):
    # valid input is not validated: the first lookup that fails validates,
    # so the error names the function that made it
    bad = _with_alpha(prototypical(3), 0, x, 99)
    with pytest.raises(InvalidStructureError) as info:
        analysis(bad)
    assert str(info.value) == f"{name} needs a valid structure: alpha_0({x}) is not an element"


@pytest.mark.parametrize("analysis", [build_complex, check_cocycle_identities])
def test_cohomology_rejects_a_broken_exchange_relation_as_invalid_input(analysis):
    # every target lies on the next level, so only the d∘d check meets the
    # fault, and it names the violation instead of reporting an internal bug
    bad = _with_alpha(prototypical(3), 0, 1, 0)
    with pytest.raises(InvalidStructureError) as info:
        analysis(bad)
    assert str(info.value) == (
        "build_complex needs a valid structure: alpha_1 alpha_0 != alpha_0 alpha_0 at 0"
    )


def test_equivalence_classes_rejects_a_broken_exchange_relation():
    bad = _with_alpha(prototypical(3), 0, 1, 0)
    with pytest.raises(InvalidStructureError) as info:
        equivalence_classes(bad)
    assert str(info.value) == (
        "equivalence_classes needs a valid structure: alpha_1 alpha_0 != alpha_0 alpha_0 at 0"
    )


def test_classify_two_copies():
    inv = classify(disjoint_union(prototypical(4), prototypical(4)))
    assert inv.multiplicities() == {1: 2}


def test_classify_example2_roots():
    inv = classify(example2_scs(5))
    assert len(inv.layers) == 1
    layer = inv.layers[0]
    assert layer.rank == 1
    assert layer.root_labels == ("1", "001")
    assert layer.minimal_root_labels == ("1",)
    assert not layer.is_antichain


def test_classify_figure2_antichain():
    inv = classify(figure2_scs())
    (layer,) = inv.layers
    assert layer.rank == 2
    assert layer.root_labels == ("011", "101")
    assert layer.is_antichain


def test_isomorphism_decisions():
    proto = prototypical(5)
    ex2 = example2_scs(5)
    assert is_isomorphic(proto, saturate(ex2))
    assert not is_isomorphic(proto, ex2)
    for scs in (proto, ex2, figure2_scs()):
        assert is_isomorphic(scs, scs)


def test_antichain_finiteness_small_layers():
    # sub-structure roots inside one layer form a finite antichain; check
    # against brute enumeration for small ranks
    rng = random.Random(23)
    for rank in (1, 2, 3):
        scs = layer_minus_root_scs(rank, 5)
        inv = classify(scs)
        for layer in inv.layers:
            mins = [Label.parse(s) for s in layer.minimal_root_labels]
            assert mins
            for a in mins:
                for b in mins:
                    if a != b:
                        assert not a.leq(b)


# -- shared label inference ------------------------------------------------------------


def test_conflicting_inference_raises_the_same_error_everywhere():
    # element 3 is α_0(1) and α_1(2), whose labels insert to 011 and 101
    scs = TruncatedSCS(
        2,
        {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2},
        ({0: 1, 1: 3, 2: 5}, {0: 0, 1: 4, 2: 3}),
    )
    messages = []
    for compute in (saturate, normal_label_table):
        with pytest.raises(InvalidStructureError) as info:
            compute(scs)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "['011', '101']" in messages[0]


@pytest.mark.parametrize(
    "scs",
    [
        example2_scs(5),
        figure2_scs(),
        layered_scs([1, 1, 1], 5),
        layered_scs([0, 1, 2], 4),
        from_ell([2, 3, 2, 3, 4, 5], 5),
        from_ell([1, 1, 2, 3, 4], 4),
    ],
)
def test_saturate_levels_agree_with_the_label_table(scs):
    N = scs.max_level
    table = normal_label_table(scs)
    sat = saturate(scs)
    checked = 0
    for y, lab in table.labels.items():
        if y not in table.inferred or lab.level == N:
            assert sat.levels[y] == lab.level
            checked += 1
    assert checked == len(scs.levels)


def test_inferred_label_below_the_top_level_is_undeterminable():
    # α_0 moves element 0 (label 1) up to element 1, whose inferred label 01
    # has level 1 < N = 2: its shifts were never stored
    scs = TruncatedSCS(2, {0: 1, 1: 2}, ({0: 1}, {0: 0}))
    assert validate(scs).ok
    table = normal_label_table(scs)
    assert table.inferred == {1}
    assert table.labels[1] == Label([0, 1])
    with pytest.raises(TruncationError) as info:
        saturate(scs)
    assert info.value.items == (1,)


def test_classify_builds_the_class_partition_once(monkeypatch):
    calls = []
    compute = normal_ext.equivalence_classes

    def counted(scs):
        calls.append(scs)
        return compute(scs)

    monkeypatch.setattr(normal_ext, "equivalence_classes", counted)
    structure = figure2_scs()
    assert classify(structure).multiplicities() == {2: 1}
    assert calls == [structure]


def test_classify_builds_no_extension(monkeypatch):
    # classify reads only the layer ranks; the extension itself is built by
    # minimal_normal_extension alone, once
    structures = [layered_scs([1, 1, 1, 1], 6), example2_scs(6), figure2_scs()]
    calls = []
    build = normal_ext.layer_union

    def counted(specs, N):
        calls.append(N)
        return build(specs, N)

    monkeypatch.setattr(normal_ext, "layer_union", counted)
    for structure in structures:
        calls.clear()
        classify(structure)
        assert calls == []
        minimal_normal_extension(structure)
        assert calls == [structure.max_level]
