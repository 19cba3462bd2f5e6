"""Replay of every CLI command against recorded digests.

tests/golden/cli_replay.json holds, for each argv, the exit code and the
sha256 of stdout, of stderr and of the file written by ``-o``.  The argv
cover every subcommand on one small input each, the ``--format text`` forms,
malformed input, each group's usage error and each parser's ``--help``, so a
change in how the parser or the dispatch is built shows up as a digest
mismatch.  Input files are written under relative names in a fresh
directory, so no report or message depends on where the test runs.

Usage errors and ``--help`` go through argparse, whose wording and layout
change between Python versions; off the recorded version only their exit
codes are compared.  To re-record after an intended output change, run
``python tests/test_cli_replay.py`` from the repository root with src/ on
PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from random import Random

from cosimplex.cli import main
from cosimplex.fixtures import (
    ell2_family,
    example2_scs,
    figure2_scs,
    layered_scs,
    prototypical,
    random_rational_rotation,
    rotate_tower,
)
from cosimplex.io_json import dump_json, family_to_dict, scs_to_dict, tower_to_dict
from cosimplex.tower import from_scs

GOLDEN = Path(__file__).parent / "golden" / "cli_replay.json"


def _input_files() -> dict:
    """File name -> JSON payload of every input the replay reads."""
    invalid = scs_to_dict(prototypical(2))
    invalid["shifts"][0]["map"] = [[0, 1]]  # alpha_0 leaves element 1 out
    # ambient 11, with labels two insertions away from their root
    layered = from_scs(layered_scs([1, 1, 1], 3))
    rotated = rotate_tower(layered, random_rational_rotation(11, Random(0), 3))
    return {
        "proto.json": scs_to_dict(prototypical(3)),
        "ex2.json": scs_to_dict(example2_scs(3)),
        "ex2-5.json": scs_to_dict(example2_scs(5)),
        "fig2.json": scs_to_dict(figure2_scs()),
        "invalid.json": invalid,
        "tower.json": tower_to_dict(from_scs(prototypical(3))),
        "tower-fig2.json": tower_to_dict(from_scs(figure2_scs())),
        "tower-ex2.json": tower_to_dict(from_scs(example2_scs(5))),
        "tower-layered.json": tower_to_dict(layered),
        "tower-layered-rot.json": tower_to_dict(rotated),
        "c.json": [["9/25"]],
        "family.json": family_to_dict(ell2_family(3)),
    }


_SUBCOMMANDS = {
    "scs": ("validate", "saturate", "innovations", "definetti", "labels", "extend",
            "classify", "dot", "cohomology", "isomorphic", "gen"),
    "tower": ("check", "labels", "normal", "symrep", "hessenberg", "definetti", "from-scs"),
    "spread": ("from-c", "angle", "theoremC", "minsch", "equiv"),
    "graph": ("dot",),
}


def _argvs() -> list:
    argvs = [
        ["scs", "validate", "proto.json"],
        ["scs", "validate", "invalid.json"],
        ["--format", "text", "scs", "validate", "proto.json"],
        ["--format", "text", "scs", "validate", "invalid.json"],
        ["scs", "saturate", "ex2.json"],
        ["scs", "saturate", "ex2-5.json"],
        ["scs", "saturate", "fig2.json", "-o", "out.json"],
        ["scs", "innovations", "ex2.json"],
        ["scs", "definetti", "ex2.json"],
        ["scs", "definetti", "ex2-5.json"],
        ["scs", "labels", "ex2.json"],
        ["scs", "extend", "ex2.json"],
        ["scs", "extend", "ex2-5.json"],
        ["scs", "extend", "fig2.json", "--output", "out.json"],
        ["scs", "classify", "fig2.json"],
        ["scs", "dot", "fig2.json"],
        ["scs", "cohomology", "proto.json"],
        ["scs", "cohomology", "proto.json", "--basis", "--explicit"],
        ["scs", "cohomology", "proto.json", "--level", "1", "--basis"],
        ["scs", "isomorphic", "ex2.json", "proto.json"],
        ["scs", "isomorphic", "proto.json", "proto.json"],
        ["--format", "text", "scs", "isomorphic", "ex2.json", "proto.json"],
        ["--format", "text", "scs", "isomorphic", "proto.json", "proto.json"],
        ["scs", "gen", "prototypical", "3"],
        ["scs", "gen", "ell", "1,1,2,3", "3"],
        ["scs", "gen", "ell", "0,1,1"],
        ["scs", "gen", "ell", "1,1,2", "-o", "out.json"],
        ["tower", "check", "tower.json"],
        ["tower", "labels", "tower.json"],
        ["tower", "normal", "tower.json"],
        ["tower", "normal", "tower-fig2.json"],
        ["--format", "text", "tower", "normal", "tower.json"],
        ["--format", "text", "tower", "normal", "tower-fig2.json"],
        ["tower", "symrep", "tower.json"],
        ["tower", "hessenberg", "tower.json"],
        ["tower", "labels", "tower-layered.json"],
        ["tower", "labels", "tower-layered-rot.json"],
        ["tower", "symrep", "tower-layered.json"],
        ["tower", "symrep", "tower-layered-rot.json"],
        ["tower", "hessenberg", "tower-layered.json"],
        ["tower", "hessenberg", "tower-layered-rot.json"],
        ["tower", "definetti", "tower.json"],
        ["tower", "definetti", "tower-ex2.json"],
        ["tower", "definetti", "tower-fig2.json"],
        ["tower", "from-scs", "fig2.json"],
        ["tower", "from-scs", "fig2.json", "-o", "out.json"],
        ["spread", "from-c", "c.json", "-n", "3"],
        ["spread", "from-c", "c.json", "-n", "2", "-o", "out.json"],
        ["spread", "angle", "family.json"],
        ["spread", "theoremC", "family.json"],
        ["spread", "minsch", "family.json"],
        ["spread", "minsch", "family.json", "-o", "out.json"],
        ["spread", "equiv", "family.json", "family.json"],
        ["graph", "dot", "--rank", "1", "--level", "2"],
        ["fixture", "prototypical", "-N", "2"],
        ["fixture", "example2", "-N", "2"],
        ["fixture", "figure2"],
        ["fixture", "ell2", "-N", "2", "-o", "out.json"],
        ["fixture", "nonsense"],
        ["--format", "text", "scs", "classify", "fig2.json"],
        ["scs", "validate", "missing.json"],
        ["spread", "equiv", "family.json", "missing.json"],
        ["tower", "check", "proto.json"],
        ["scs", "classify", "invalid.json"],
        ["scs", "extend", "invalid.json", "-o", "out.json"],
        # usage errors
        [],
        ["nonsense"],
        ["scs"],
        ["tower"],
        ["spread"],
        ["graph"],
        ["fixture"],
        ["scs", "nonsense"],
        ["scs", "validate"],
        ["scs", "gen", "ell"],
        ["spread", "from-c", "c.json"],
        ["--format", "xml", "scs", "validate", "proto.json"],
        ["graph", "dot", "--rank", "two"],
        # help
        ["--help"],
        ["fixture", "--help"],
    ]
    for group, names in _SUBCOMMANDS.items():
        argvs.append([group, "--help"])
        argvs.extend([group, name, "--help"] for name in names)
    return argvs


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _replay(argv) -> dict:
    """Exit code and digests of one ``main(argv)`` run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    parser_exit = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, parser_exit = exc.code, True
    record = {
        "argv": list(argv),
        "exit": code,
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
        "argparse": parser_exit,
    }
    written = Path("out.json")
    if written.exists():
        record["output"] = _digest(written.read_text(encoding="utf-8"))
        written.unlink()
    return record


def _replay_all(directory: Path) -> list:
    for name, payload in _input_files().items():
        (directory / name).write_text(dump_json(payload), encoding="utf-8")
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [_replay(argv) for argv in _argvs()]
    finally:
        os.chdir(here)


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_every_command_replays_its_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = golden["runs"]
    actual = _replay_all(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    if golden["python"] != _python():
        strip = ("stdout", "stderr")
        expected = [{k: v for k, v in r.items() if not (r["argparse"] and k in strip)} for r in expected]
        actual = [{k: v for k, v in r.items() if not (r["argparse"] and k in strip)} for r in actual]
    for want, got in zip(expected, actual):
        assert got == want, want["argv"]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        runs = _replay_all(Path(scratch))
    lines = ",\n".join(json.dumps(run) for run in runs)
    GOLDEN.write_text(f'{{"python": "{_python()}", "runs": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"recorded {len(runs)} runs in {GOLDEN}")
