"""The committed broken copies in ``tools/mutants.json`` still apply: each
snippet occurs exactly once in its file, so a refactor that removes a
mutant's target has to retire or restate the mutant.  Running the mutants is
``python3 tools/mutants.py``, outside this suite."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_snippet_occurs_exactly_once():
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        source = (ROOT / m["file"]).read_text(encoding="utf-8")
        assert source.count(m["snippet"]) == 1, m["id"]
        assert m["replacement"] != m["snippet"] and m["tests"] and m["reason"], m["id"]
        for test in m["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (m["id"], test)
