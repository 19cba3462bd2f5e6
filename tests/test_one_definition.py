"""Each module-level function under ``tests/`` is defined once, in one file:
a generator or reference that two test modules share lives in
``tests/structures.py`` and is imported from there.  Compiled, not imported,
like ``test_public_surface``, so the check costs no test module's imports."""

from collections import defaultdict
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

TESTS = Path(__file__).resolve().parent


def test_no_module_level_function_is_defined_twice():
    places = defaultdict(list)
    for path in sorted(TESTS.rglob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)
        for code in module.co_consts:
            # a function body, not a class body, lambda or comprehension
            if isinstance(code, CodeType) and code.co_flags & CO_OPTIMIZED and code.co_name[0] != "<":
                places[code.co_name].append(f"{path.relative_to(TESTS)}:{code.co_firstlineno}")
    assert {name: where for name, where in places.items() if len(where) > 1} == {}
