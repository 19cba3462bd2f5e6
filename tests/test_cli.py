"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosimplex.cohomology
import cosimplex.spread
from cosimplex.cli import main
from cosimplex.errors import InternalInconsistencyError
from cosimplex.fixtures import example2_scs, figure2_scs, layered_scs, prototypical
from cosimplex.io_json import (
    dump_json,
    family_from_dict,
    family_to_dict,
    load_json,
    scs_from_dict,
    scs_to_dict,
    tower_from_dict,
    tower_to_dict,
)
from cosimplex.fixtures import ell2_family
from cosimplex.scs import from_ell
from cosimplex.tower import from_scs

GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(dump_json(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- round trips -----------------------------------------------------------------


def test_scs_json_round_trip():
    for structure in (prototypical(4), example2_scs(5), figure2_scs()):
        again = scs_from_dict(json.loads(dump_json(scs_to_dict(structure))))
        assert again == structure


def test_tower_json_round_trip():
    t = from_scs(figure2_scs())
    again = tower_from_dict(json.loads(dump_json(tower_to_dict(t))))
    assert again.level_bases == t.level_bases
    assert again.shifts == t.shifts


def test_family_json_round_trip():
    fam = ell2_family(4)
    again = family_from_dict(json.loads(dump_json(family_to_dict(fam))))
    assert again.isometries == fam.isometries
    assert again.gram == fam.gram
    assert again.ambient_shifts == fam.ambient_shifts


# -- commands --------------------------------------------------------------------------


def test_validate_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", scs_to_dict(prototypical(3)))
    code, out, _ = run(capsys, "scs", "validate", good)
    assert code == 0
    assert json.loads(out)["ok"] is True

    payload = scs_to_dict(prototypical(3))
    payload["shifts"][0]["map"][0][1] = 99  # dangling target
    bad = write(tmp_path, "bad.json", payload)
    code, out, _ = run(capsys, "scs", "validate", bad)
    assert code == 1
    assert json.loads(out)["ok"] is False


def _scs_missing_shift_entry(tmp_path):
    """prototypical(2) with alpha_0 stored as {0: 1} only: element 1 of its
    domain has no image."""
    payload = scs_to_dict(prototypical(2))
    payload["shifts"][0]["map"] = [[0, 1]]
    return write(tmp_path, "missing.json", payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["scs", "cohomology"],
        ["scs", "saturate"],
        ["scs", "innovations"],
        ["scs", "definetti"],
        ["scs", "labels"],
        ["scs", "extend"],
        ["scs", "classify"],
        ["scs", "dot"],
        ["tower", "from-scs"],
    ],
)
def test_invalid_structure_is_rejected_before_analysis(tmp_path, capsys, argv):
    path = _scs_missing_shift_entry(tmp_path)
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == ""
    assert err == "input error: invalid structure: alpha_0 domain mismatch (missing [1], extra [])\n"


def test_invalid_structure_keeps_the_validate_report(tmp_path, capsys):
    path = _scs_missing_shift_entry(tmp_path)
    good = write(tmp_path, "good.json", scs_to_dict(prototypical(2)))
    code, out, _ = run(capsys, "scs", "validate", path)
    assert code == 1
    assert [v["kind"] for v in json.loads(out)["violations"]] == ["shift-domain"]
    for a, b in ((path, good), (good, path)):
        code, out, err = run(capsys, "scs", "isomorphic", a, b)
        assert code == 2 and out == ""
        assert err.startswith("input error: invalid structure: ")


def test_internal_inconsistency_is_code_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInconsistencyError("coboundary composition d^1 d^0 != 0")

    path = write(tmp_path, "proto.json", scs_to_dict(prototypical(3)))
    monkeypatch.setattr(cosimplex.cohomology, "explicit_cocycles", broken)
    code, out, err = run(capsys, "scs", "cohomology", "--explicit", path)
    assert (code, out) == (3, "")
    assert err == "internal error: coboundary composition d^1 d^0 != 0\n"
    monkeypatch.setattr(cosimplex.cohomology, "build_complex", broken)
    code, out, err = run(capsys, "scs", "cohomology", path)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ")


def test_malformed_json_is_code_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"max_level": 2,,}', encoding="utf-8")
    code, _, err = run(capsys, "scs", "validate", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_is_code_2(capsys):
    code, _, err = run(capsys, "scs", "validate", "no-such-file.json")
    assert code == 2


# "1,1 5": two values for ell(0..5) are too few, and none is filled in
@pytest.mark.parametrize("arg", ["0,5,2", "0,x", "1,1 5"])
def test_gen_ell_bad_level_function_is_code_2(capsys, arg):
    code, out, err = run(capsys, "scs", "gen", "ell", *arg.split())
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_gen_prototypical_takes_no_level_function_bound(capsys):
    code, out, err = run(capsys, "scs", "gen", "prototypical", "2", "7")
    message = "scs gen prototypical 2: N does not apply to prototypical"
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_isomorphic_at_different_truncation_levels_is_code_2(tmp_path, capsys):
    a = write(tmp_path, "a.json", scs_to_dict(prototypical(3)))
    b = write(tmp_path, "b.json", scs_to_dict(prototypical(4)))
    message = "scs isomorphic: compare structures at the same truncation level"
    for pair in ((a, b), (b, a)):
        code, out, err = run(capsys, "scs", "isomorphic", *pair)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_tower_basis_index_out_of_range_is_code_2(tmp_path, capsys):
    payload = {
        "max_level": 0,
        "ambient_dim": 2,
        "levels": [
            {"level": -1, "basis_indices": []},
            {"level": 0, "basis_indices": [5]},
        ],
    }
    for indices in ([5], [-1], [0, 2]):
        payload["levels"][1]["basis_indices"] = indices
        path = write(tmp_path, "tower.json", payload)
        code, out, err = run(capsys, "tower", "check", path)
        assert code == 2
        assert out == ""
        assert "outside range(2)" in err
    payload["levels"][1]["basis_indices"] = [1]
    code, out, _ = run(capsys, "tower", "check", write(tmp_path, "tower.json", payload))
    assert code == 0


def _set(path, value):
    """Edit setting payload[path[0]][path[1]]... to ``value``."""

    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _append_level(k, indices):
    def edit(payload):
        payload["levels"].append({"level": k, "basis_indices": indices})
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(("shifts", 0, "matrix"), [["1"]]), "shift 0: matrix is 1x1, expected 3x3"),
        (_set(("shifts", 1, "matrix"), [["1", "0", "0"]] * 2), "shift 1: matrix is 2x3, expected 3x3"),
        (_set(("levels", 2), {"level": 1, "basis": [["1", "0"]]}), "level 1: basis has 1 rows, expected 3"),
        (_set(("levels", 0), {"level": -1, "basis": []}), "level -1: basis has 0 rows, expected 3"),
        (_set(("shifts", 0, "matrix", 1), ["1"]), "bad tower payload: ragged rows"),
        (lambda payload: payload["shifts"].pop(1), "missing shift blocks [1]"),
        (_set(("shifts", 1, "i"), 0), "duplicate shift block 0"),
        (_set(("shifts", 1, "i"), -1), "shift index -1 out of range for max_level 2"),
        (_set(("shifts", 1, "i"), 2), "shift index 2 out of range for max_level 2"),
        (_append_level(0, [0, 1, 2]), "duplicate level 0"),
        (_append_level(7, []), "level 7 out of range for max_level 2"),
        (_append_level(-2, []), "level -2 out of range for max_level 2"),
        (_set(("levels", 3, "basis_indices"), [0, 1, 2, 2]), "level 2: repeated basis indices [2]"),
        (
            _set(("levels", 2), {"level": 1, "basis": [["1", "1"], ["0", "0"], ["0", "0"]]}),
            "level 1: basis columns are linearly dependent",
        ),
    ],
)
def test_malformed_tower_file_is_code_2(tmp_path, capsys, edit, message):
    payload = tower_to_dict(from_scs(prototypical(2)))
    edit(payload)
    path = write(tmp_path, "tower.json", payload)
    for command in ("check", "labels", "normal"):
        code, out, err = run(capsys, "tower", command, path)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_tower_without_shift_blocks_is_code_2(tmp_path, capsys):
    payload = tower_to_dict(from_scs(prototypical(2)))
    del payload["shifts"]
    code, out, err = run(capsys, "tower", "labels", write(tmp_path, "tower.json", payload))
    assert (code, out, err) == (2, "", "input error: missing shift blocks [0, 1]\n")
    payload = tower_to_dict(from_scs(prototypical(0)))
    assert payload["shifts"] == []
    del payload["shifts"]
    code, _, _ = run(capsys, "tower", "labels", write(tmp_path, "tower.json", payload))
    assert code == 0


def test_tower_max_level_below_minus_one_is_code_2(tmp_path, capsys):
    path = write(tmp_path, "tower.json", {"max_level": -3, "ambient_dim": 2, "levels": []})
    for command in ("check", "labels", "normal"):
        code, out, err = run(capsys, "tower", command, path)
        assert (code, out, err) == (2, "", "input error: max_level -3 is below -1\n")


def test_structure_max_level_below_minus_one_is_code_2(tmp_path, capsys):
    path = write(tmp_path, "scs.json", {"max_level": -2, "elements": [], "shifts": []})
    for argv in (["scs", "validate"], ["scs", "cohomology"], ["tower", "from-scs"]):
        code, out, err = run(capsys, *argv, path)
        assert (code, out, err) == (2, "", "input error: max_level -2 is below -1\n")


def test_non_square_contraction_is_code_2(tmp_path, capsys):
    path = write(tmp_path, "c.json", [["1", "0"]])
    for scalar in ("exact", "float"):
        code, out, err = run(capsys, "--scalar", scalar, "spread", "from-c", path, "-n", "2")
        assert (code, out, err) == (2, "", "input error: contraction is 1x2, expected a square matrix\n")


def test_family_matrix_with_the_wrong_column_count_is_code_2(tmp_path, capsys):
    payload = family_to_dict(ell2_family(3))
    payload["isometries"][1] = [row + ["0"] for row in payload["isometries"][1]]
    code, out, err = run(capsys, "spread", "angle", write(tmp_path, "family.json", payload))
    assert (code, out, err) == (2, "", "input error: matrix has 2 columns, expected 1\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: payload["elements"].append({"id": 0, "level": 1}), "duplicate element id 0"),
        (
            lambda payload: payload["shifts"].append({"i": 0, "map": payload["shifts"][1]["map"]}),
            "duplicate shift block 0",
        ),
        (lambda payload: payload["shifts"][0]["map"].append([0, 2]), "shift 0: element 0 is mapped twice"),
    ],
)
def test_duplicate_entries_in_a_structure_file_are_code_2(tmp_path, capsys, edit, message):
    payload = scs_to_dict(prototypical(2))
    edit(payload)
    path = write(tmp_path, "scs.json", payload)
    for argv in (["scs", "validate"], ["scs", "cohomology"], ["tower", "from-scs"]):
        code, out, err = run(capsys, *argv, path)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def _drop_last_row(key, n):
    def edit(payload):
        payload[key][n] = payload[key][n][:-1]
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_last_row("isometries", 1), "isometry 1 is 3x1, expected 4x1"),
        (
            lambda payload: payload["ambient_shifts"].pop(),
            "1 ambient shifts for 3 isometries, expected 2",
        ),
        (
            lambda payload: payload["ambient_shifts"].append(payload["ambient_shifts"][0]),
            "3 ambient shifts for 3 isometries, expected 2",
        ),
        (_drop_last_row("ambient_shifts", 0), "ambient shift 0 is 3x4, expected 4x4"),
        (_set(("gram",), [["2"], ["0"]]), "gram is 2x1, expected 1x1"),
    ],
)
def test_family_file_with_the_wrong_shapes_is_code_2(tmp_path, capsys, edit, message):
    payload = family_to_dict(ell2_family(2))
    edit(payload)
    path = write(tmp_path, "family.json", payload)
    for argv in (["angle", path], ["minsch", path], ["theoremC", path], ["equiv", path, path]):
        code, out, err = run(capsys, "spread", *argv)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("gram", [[["1", "0"], ["0", "0"]], [["1", "1"], ["0", "1"]]])
def test_a_gram_that_is_not_positive_definite_is_code_2(tmp_path, capsys, gram):
    # a singular Gram once crashed angle, theoremC and equiv with a traceback
    # and passed minsch
    iota = [["1", "0"], ["0", "0"]]
    payload = {
        "k_dim": 2,
        "ambient_dim": 2,
        "gram": gram,
        "isometries": [iota, iota],
        "ambient_shifts": [[["1", "0"], ["0", "1"]]],
    }
    path = write(tmp_path, "family.json", payload)
    for argv in (["angle", path], ["theoremC", path], ["minsch", path], ["equiv", path, path]):
        code, out, err = run(capsys, "spread", *argv)
        assert (code, out, err) == (2, "", "input error: gram is not symmetric positive definite\n")


# Prints, as JSON, the cosimplex modules loaded after `import cosimplex`, after
# `import cosimplex.cli` and after running the command in argv, and whether
# numpy was loaded after the import of the CLI.
_MODULE_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cosimplex."))

import cosimplex
stages = {"package": loaded()}
import cosimplex.cli
stages["cli"] = loaded()
stages["numpy"] = "numpy" in sys.modules
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        stages["code"] = cosimplex.cli.main(sys.argv[1:])
    stages["command"] = loaded()
print(json.dumps(stages))
"""


def _fresh_python(code, *argv, env=None):
    """stdout of ``code`` run in a new interpreter that imports from src/,
    with the variables of ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


def _fresh_modules(*argv):
    return json.loads(_fresh_python(_MODULE_PROBE, *argv))


def test_exact_cli_import_leaves_numpy_unloaded():
    stages = _fresh_modules()
    assert stages["package"] == []
    assert stages["cli"] == ["cli", "errors", "io_json"]
    assert stages["numpy"] is False


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (
            ["scs", "validate", "structure.json"],
            {"linalg", "tower", "spread", "cohomology", "normal_ext", "fixtures"},
        ),
        (["tower", "check", "tower.json"], {"spread", "cohomology", "normal_ext", "fixtures"}),
        (["fixture", "figure2"], {"tower", "spread", "cohomology", "normal_ext", "labels"}),
        (["scs", "classify", "structure.json"], {"linalg", "tower", "spread", "cohomology", "fixtures"}),
        (["tower", "normal", "tower.json"], {"spread", "cohomology", "normal_ext", "fixtures"}),
        (["spread", "theoremC", "family.json"], {"cohomology", "normal_ext", "fixtures"}),
    ],
)
def test_a_command_loads_only_the_modules_it_calls(tmp_path, argv, unloaded):
    write(tmp_path, "structure.json", scs_to_dict(prototypical(3)))
    write(tmp_path, "tower.json", tower_to_dict(from_scs(prototypical(3))))
    write(tmp_path, "family.json", family_to_dict(ell2_family(3)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    stages = _fresh_modules(*argv)
    assert stages["code"] == 0
    assert not unloaded & set(stages["command"]), stages["command"]


def test_package_names_resolve_on_first_use():
    probe = (
        "import cosimplex\n"
        "from cosimplex import prototypical, validate\n"
        "names = {n: getattr(cosimplex, n).__module__ for n in cosimplex.__all__}\n"
        "assert validate(prototypical(2)).ok\n"
        "try:\n"
        "    cosimplex.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(sorted(set(names.values())))\n"
        "print(all(n in vars(cosimplex) for n in cosimplex.__all__))\n"
    )
    assert _fresh_python(probe).splitlines() == [
        "module 'cosimplex' has no attribute 'no_such_name'",
        "['cosimplex.labels', 'cosimplex.scs', 'cosimplex.tower']",
        "True",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fixture", "prototypical", "-N", "-5"], "fixture prototypical: N must be >= -1"),
        (["fixture", "example2", "-N", "-3"], "fixture example2: max_level must be >= -1"),
        (["fixture", "ell2", "-N", "-1"], "fixture ell2: N must be >= 0"),
        (["graph", "dot", "--level", "-2"], "graph dot: max_level must be >= -1"),
        (["graph", "dot", "--rank", "-1"], "graph dot: max_rank must be >= 0"),
        (["--scalar", "float", "spread", "from-c", "c.json", "-n", "-1"], "spread from-c: -n must be >= 0, got -1"),
        (["spread", "from-c", "c.json", "-n", "-2"], "spread from-c: -n must be >= 0, got -2"),
    ],
)
def test_negative_size_arguments_are_code_2(tmp_path, capsys, argv, message):
    path = write(tmp_path, "c.json", [["9/25"]])
    argv = [path if a == "c.json" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("level", ["99", "5", "-2", "-5"])
def test_cohomology_level_outside_the_structure_is_code_2(tmp_path, capsys, level):
    path = write(tmp_path, "scs.json", scs_to_dict(prototypical(4)))
    code, out, err = run(capsys, "scs", "cohomology", path, "--level", level)
    assert (code, out, err) == (2, "", f"input error: --level {level} is outside -1..4\n")


@pytest.mark.parametrize("level", [-1, 4])
def test_cohomology_level_at_either_end_is_reported(tmp_path, capsys, level):
    path = write(tmp_path, "scs.json", scs_to_dict(prototypical(4)))
    code, out, _ = run(capsys, "scs", "cohomology", path, "--level", str(level))
    assert code == 0
    assert [entry["level"] for entry in json.loads(out)["levels"]] == [level]


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["spread", "angle"], {"k_dim": -1, "ambient_dim": 0, "isometries": [[], []]}, "k_dim -1 is below 0"),
        (["spread", "minsch"], {"k_dim": 1, "ambient_dim": -3, "isometries": []}, "ambient_dim -3 is below 0"),
        (
            ["tower", "check"],
            {"max_level": -1, "ambient_dim": -2, "levels": [{"level": -1, "basis_indices": []}]},
            "ambient_dim -2 is below 0",
        ),
    ],
)
def test_negative_sizes_in_a_file_are_code_2(tmp_path, capsys, argv, payload, message):
    code, out, err = run(capsys, *argv, write(tmp_path, "input.json", payload))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("names", ["abc", [1], ["a", "b"], ["a", "b", 3], {"0": "a"}])
def test_malformed_coordinate_names_are_code_2(tmp_path, capsys, names):
    payload = tower_to_dict(from_scs(prototypical(2)))
    payload["coordinate_names"] = names
    path = write(tmp_path, "tower.json", payload)
    for command in ("check", "labels", "normal"):
        code, out, err = run(capsys, "tower", command, path)
        assert (code, out, err) == (2, "", "input error: coordinate_names must be a list of 3 strings\n")


# Runs the CLI on argv and prints its exit code, its stderr and whether numpy
# was loaded, as JSON.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from cosimplex.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, err.getvalue(), "numpy" in sys.modules]))
"""


def test_float_lane_with_an_output_file_is_code_2_before_numpy_loads(tmp_path):
    path = write(tmp_path, "c.json", [["9/25"]])
    target = tmp_path / "family.json"
    argv = ["--scalar", "float", "spread", "from-c", path, "-n", "3", "-o", str(target)]
    message = "spread from-c: -o does not apply to --scalar float, whose report goes to stdout"
    assert json.loads(_fresh_python(_NUMPY_PROBE, *argv)) == [2, f"input error: {message}\n", False]
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scs", "validate", "structure.json"],
        ["tower", "check", "tower.json"],
        ["spread", "theoremC", "family.json"],
        ["graph", "dot"],
        ["fixture", "figure2"],
    ],
)
def test_float_scalar_outside_from_c_is_code_2(tmp_path, capsys, argv):
    write(tmp_path, "structure.json", scs_to_dict(prototypical(2)))
    write(tmp_path, "tower.json", tower_to_dict(from_scs(prototypical(2))))
    write(tmp_path, "family.json", family_to_dict(ell2_family(2)))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, "--scalar", "float", *argv)
    assert (code, out, err) == (2, "", "input error: --scalar float applies only to spread from-c\n")


def test_float_scalar_outside_from_c_is_rejected_before_numpy_loads(tmp_path):
    path = write(tmp_path, "family.json", family_to_dict(ell2_family(2)))
    # the probe's own JSON line is all of stdout, so the command printed nothing
    (line,) = _fresh_python(_NUMPY_PROBE, "--scalar", "float", "spread", "theoremC", path).splitlines()
    message = "--scalar float applies only to spread from-c"
    assert json.loads(line) == [2, f"input error: {message}\n", False]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tol", "0.5", "scs", "validate", "structure.json"],
         "--tol applies only to --scalar float spread from-c"),
        (["--tol", "0.5", "spread", "from-c", "c.json", "-n", "3"],
         "--tol applies only to --scalar float spread from-c"),
        (["--scalar", "float", "--tol", "nan", "spread", "from-c", "c.json", "-n", "3"],
         "--tol must be finite and positive, got nan"),
        (["--scalar", "float", "--tol", "0", "spread", "from-c", "c.json", "-n", "3"],
         "--tol must be finite and positive, got 0.0"),
        (["--scalar", "float", "--tol", "-1", "spread", "from-c", "c.json", "-n", "3"],
         "--tol must be finite and positive, got -1.0"),
    ],
)
def test_tol_outside_the_float_lane_or_not_positive_is_code_2(tmp_path, capsys, argv, message):
    write(tmp_path, "structure.json", scs_to_dict(prototypical(2)))
    write(tmp_path, "c.json", [["9/25", "0"], ["0", "16/25"]])
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"input error: {message}\n")


def test_tol_in_the_float_lane_is_used(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.json", [["9/25", "0"], ["0", "16/25"]])
    argv = ["--scalar", "float", "spread", "from-c", path, "-n", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["theorem_checks"]["orthogonality_deviation"] == 0.0
    # the default is the float functions' own 1e-10
    assert run(capsys, "--tol", "1e-10", *argv) == (0, out, "")
    # a coarse tolerance reaches the check, and only as its pass threshold
    seen = []
    check = cosimplex.spread.float_check_theorem_C
    monkeypatch.setattr(
        cosimplex.spread, "float_check_theorem_C", lambda fam, tol: seen.append(tol) or check(fam, tol)
    )
    assert run(capsys, "--tol", "0.5", *argv) == (0, out, "")
    assert seen == [0.5]


@pytest.mark.parametrize("tol", ["0.5", "0.9"])
def test_coarse_tol_leaves_the_float_fixed_space_alone(tmp_path, capsys, tol):
    path = write(tmp_path, "c.json", [["9/25", "0"], ["0", "16/25"]])
    code, out, err = run(capsys, "--scalar", "float", "--tol", tol, "spread", "from-c", path, "-n", "3")
    assert (code, err) == (0, "")
    checks = json.loads(out)["theorem_checks"]
    assert checks["orthogonality_deviation"] == checks["angle_identity_deviation"] == 0.0


_HASH_PROBE = """
import contextlib, io, json, sys
from cosimplex.cli import main
from cosimplex.labels import Label
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps([hash(Label("101")), runs]))
"""


def test_label_commands_print_the_same_bytes_under_every_hash_seed(tmp_path):
    fig2 = write(tmp_path, "fig2.json", scs_to_dict(figure2_scs()))
    ex2 = write(tmp_path, "ex2.json", scs_to_dict(example2_scs(4)))
    tower = write(tmp_path, "tower.json", tower_to_dict(from_scs(figure2_scs())))
    commands = [
        ["scs", "labels", fig2],
        ["scs", "classify", fig2],
        ["scs", "extend", fig2],
        ["scs", "classify", ex2],
        ["tower", "labels", tower],
        ["tower", "normal", tower],
    ]
    seen = [
        json.loads(_fresh_python(_HASH_PROBE, json.dumps(commands), env={"PYTHONHASHSEED": seed}))
        for seed in ("0", "1")
    ]
    assert seen[0] == seen[1]
    assert [code for code, _ in seen[0][1]] == [0] * len(commands)


@pytest.mark.parametrize("name", ["prototypical", "example2"])
def test_set_level_fixtures_at_level_minus_one_are_empty(capsys, name):
    code, out, err = run(capsys, "fixture", name, "-N", "-1")
    assert (code, err) == (0, "")
    assert json.loads(out) == scs_to_dict(prototypical(-1))


def test_float_lane_with_one_map_is_a_precondition_error(tmp_path, capsys):
    path = write(tmp_path, "c.json", [["9/25"]])
    code, out, err = run(capsys, "--scalar", "float", "spread", "from-c", path, "-n", "0")
    assert (code, out, err) == (1, "", "error: need at least two isometries\n")


def test_gen_and_cohomology_example(tmp_path, capsys):
    code, out, _ = run(capsys, "scs", "gen", "ell", "1,1,2,3,4,5,6,7,8", "8")
    assert code == 0
    path = write(tmp_path, "ell01.json", json.loads(out))
    code, out, _ = run(capsys, "scs", "cohomology", path)
    assert code == 0
    levels = {e["level"]: e["dim_cohomology"] for e in json.loads(out)["levels"]}
    assert levels[1] == 1
    assert levels[0] == 0 and levels[2] == 0


def test_cohomology_explicit_flag(tmp_path, capsys):
    path = write(tmp_path, "proto.json", scs_to_dict(prototypical(5)))
    code, out, _ = run(capsys, "scs", "cohomology", path, "--explicit")
    assert code == 0
    checks = json.loads(out)["explicit_formula"]
    assert all(v == "match" for v in checks.values())


def test_tower_normal_on_figure2(tmp_path, capsys):
    path = write(tmp_path, "fig2.json", tower_to_dict(from_scs(figure2_scs())))
    code, out, _ = run(capsys, "tower", "normal", path)
    payload = json.loads(out)
    assert payload["normal"] is False
    assert payload["criteria_agree"] is True
    assert code == 0  # criteria agreement is the property; normality is data


def _broken_alpha_1_tower(tmp_path):
    """The ball-in-box tower of ell = (1, 2, 2) with its alpha_1 block
    replaced by a map that is no isometry."""
    payload = tower_to_dict(from_scs(from_ell([1, 2, 2], 2)))
    payload["shifts"][1]["matrix"] = [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    return write(tmp_path, "broken.json", payload)


@pytest.mark.parametrize("command", ["labels", "normal", "symrep", "hessenberg", "definetti"])
def test_tower_analysis_of_an_invalid_tower_is_code_2(tmp_path, capsys, command):
    path = _broken_alpha_1_tower(tmp_path)
    assert run(capsys, "tower", command, path) == (2, "", "input error: invalid tower: isometry fails at i=1\n")


def test_tower_check_still_reports_an_invalid_tower(tmp_path, capsys):
    code, out, err = run(capsys, "tower", "check", _broken_alpha_1_tower(tmp_path))
    assert (code, err) == (1, "")
    assert json.loads(out)["failures"][0] == {"check": "isometry", "i": 1}


def test_tower_symrep_below_the_ambient_is_a_precondition_error(tmp_path, capsys):
    # a normal tower with one zero coordinate appended to every basis and shift
    payload = tower_to_dict(from_scs(layered_scs([1, 1], 2)))
    d = payload["ambient_dim"]
    payload["ambient_dim"] = d + 1
    del payload["coordinate_names"]
    for block in payload["shifts"]:
        block["matrix"] = [row + ["0"] for row in block["matrix"]] + [["0"] * (d + 1)]
    path = write(tmp_path, "padded.json", payload)
    assert run(capsys, "tower", "check", path)[0] == 0
    code, out, _ = run(capsys, "tower", "normal", path)
    assert code == 0 and json.loads(out)["normal"] is True
    for command in ("symrep", "hessenberg"):
        assert run(capsys, "tower", command, path) == (
            1, "", "error: symmetric generators need the ambient to equal the top level\n"
        )


def test_tower_symrep(tmp_path, capsys):
    path = write(tmp_path, "proto.json", tower_to_dict(from_scs(prototypical(3))))
    code, out, _ = run(capsys, "tower", "symrep", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["ok"] is True
    assert len(payload["generators"]) == 3


def test_spread_pipeline(tmp_path, capsys):
    cpath = write(tmp_path, "c.json", [["9/25"]])
    code, out, _ = run(capsys, "spread", "from-c", cpath, "-n", "4")
    assert code == 0
    fam_path = write(tmp_path, "fam.json", json.loads(out))
    code, out, _ = run(capsys, "spread", "angle", fam_path)
    assert code == 0
    assert json.loads(out)["operator_angle"] == [["9/25"]]
    code, out, _ = run(capsys, "spread", "theoremC", fam_path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_spread_float_mode(tmp_path, capsys):
    cpath = write(tmp_path, "c.json", [["1/2", "1/8"], ["1/8", "1/3"]])
    code, out, _ = run(capsys, "--scalar", "float", "spread", "from-c", cpath, "-n", "5")
    assert code == 0
    assert json.loads(out)["theorem_checks"]["ok"] is True


def test_spread_equiv(tmp_path, capsys):
    cpath = write(tmp_path, "c.json", [["9/25"]])
    code, out, _ = run(capsys, "spread", "from-c", cpath, "-n", "3")
    fam = write(tmp_path, "fam.json", json.loads(out))
    code, out, _ = run(capsys, "spread", "equiv", fam, fam)
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_scs_extend_and_isomorphic(tmp_path, capsys):
    ex2 = write(tmp_path, "ex2.json", scs_to_dict(example2_scs(5)))
    proto = write(tmp_path, "proto.json", scs_to_dict(prototypical(5)))
    out_path = str(tmp_path / "ext.json")
    code, _, _ = run(capsys, "scs", "extend", ex2, "-o", out_path)
    assert code == 0
    extension = load_json(out_path)
    extension.pop("embedding")
    extension.pop("layer_ranks")
    ext_path = write(tmp_path, "ext_clean.json", extension)
    code, out, _ = run(capsys, "scs", "isomorphic", ext_path, proto)
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = run(capsys, "scs", "isomorphic", ex2, proto)
    assert code == 1


def test_graph_dot_matches_golden(capsys):
    code, out, _ = run(capsys, "graph", "dot", "--rank", "2", "--level", "4")
    assert code == 0
    golden = (GOLDEN / "lambda_skeleton_r2_l4.dot").read_text(encoding="utf-8")
    assert out == golden
    # byte-for-byte determinism across runs
    code, out2, _ = run(capsys, "graph", "dot", "--rank", "2", "--level", "4")
    assert out2 == out


def test_fixture_command(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "figure2")
    assert code == 0
    assert json.loads(out)["max_level"] == 3
    code, _, err = run(capsys, "fixture", "nonsense")
    assert code == 2
    for N in ("9", "3"):  # figure2 has no size, so -N is never silently dropped
        code, out, err = run(capsys, "fixture", "figure2", "-N", N)
        message = "fixture figure2: -N does not apply, its max_level is fixed at 3"
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_determinism_of_reports(tmp_path, capsys):
    path = write(tmp_path, "ex2.json", scs_to_dict(example2_scs(5)))
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "scs", "definetti", path)
        outputs.add(out)
    assert len(outputs) == 1


def test_text_format(tmp_path, capsys):
    path = write(tmp_path, "proto.json", scs_to_dict(prototypical(3)))
    code, out, _ = run(capsys, "--format", "text", "scs", "validate", path)
    assert code == 0
    assert out.strip() == "valid"
