"""Run the committed broken copies of the package against the tests that must
catch them.

    python3 tools/mutants.py [ID ...]

Each entry of ``tools/mutants.json`` names a file, an exact snippet of it,
the snippet's replacement, the test node ids expected to fail and a one-line
reason.  The script copies ``src`` and ``tests`` into a temporary directory,
checks that the unmutated copy passes every named test, then applies one
mutant at a time and runs only its named tests against the copy; every one
of them must fail.  It prints one line per mutant and exits 1 if any mutant
is missed or any snippet does not occur exactly once.  Not part of the test
suite: each mutant costs one pytest process.  The tests run under the
``mutants`` hypothesis profile of ``tests/conftest.py``, which does not
shrink a failing example.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().with_name("mutants.json")


def failed_tests(copy: Path, tests) -> set:
    """The node ids among ``tests`` that fail or error in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONHASHSEED": "0",
           "PYTHONDONTWRITEBYTECODE": "1"}  # a same-size mutant must not meet a stale .pyc
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=600,
    )
    out = set()
    for line in result.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            out.add(rest.split(" - ")[0])
    if result.returncode not in (0, 1) or (result.returncode == 1 and not out):
        raise RuntimeError(f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}")
    return out


def main(argv) -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    if argv:
        mutants = [m for m in mutants if m["id"] in argv]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({t for m in mutants for t in m["tests"]})
        broken = failed_tests(copy, named)
        if broken:
            print(f"unmutated copy fails {len(broken)} named tests: {sorted(broken)}")
            return 1
        missed = 0
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            count = original.count(m["snippet"])
            if count != 1:
                print(f"STALE   {m['id']}: snippet occurs {count} times in {m['file']}")
                missed += 1
                continue
            path.write_text(original.replace(m["snippet"], m["replacement"]), encoding="utf-8")
            start = time.perf_counter()
            try:
                failed = failed_tests(copy, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            passed = [t for t in m["tests"] if t not in failed]
            verdict = "caught " if not passed else "MISSED "
            missed += bool(passed)
            print(
                f"{verdict} {m['id']}: {len(m['tests']) - len(passed)}/{len(m['tests'])} tests fail"
                f" ({time.perf_counter() - start:.1f} s)" + (f"; still pass: {passed}" if passed else "")
            )
    print(f"{len(mutants) - missed}/{len(mutants)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
