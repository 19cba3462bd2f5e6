"""Every public name of the package is reached by the program: each public
top-level function and class, and each public method, is read by package
code, named as a command target in ``cli._COMMANDS`` or used by the
benchmark.  A name only the tests reach is a second spelling or a test-only
primitive, and is deleted instead."""

import re
from functools import cached_property
from importlib import import_module
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType, FunctionType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cosimplex"
MODULES = [
    import_module(f"cosimplex.{path.stem}")
    for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "fixtures")  # fixtures: the examples module
]

# public, yet reached by no command so far: label parsing and roots, and
# paper concepts that wait for a command
ALLOWED = {
    "labels.Label.parse",
    "labels.Label.root",
    "normal_ext.check_epsilon_lemma",
    "normal_ext.is_normal_scs",
    "spread.roundtrip_from_sch",
    "tower.permutation_unitary",
    "tower.check_adjoint_intertwining",
    "tower.root_dimension_sequence",
    "tower.unitary_equivalence",
}


def _read(path) -> tuple:
    """(names, strings) of the compiled source at ``path``: the global and
    attribute names its code reads, and its string constants.  A module or
    class body also stores the names it defines, so those are left out of
    its names.  Compiling is about as fast as parsing and leaves no tree to
    walk."""
    names, strings = set(), set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec", dont_inherit=True)]
    while stack:
        code = stack.pop()
        inner = [c for c in code.co_consts if isinstance(c, CodeType)]
        read = set(code.co_names)
        if not code.co_flags & CO_OPTIMIZED:  # a module or class body
            read -= {c.co_name for c in inner}
        names |= read
        consts = list(code.co_consts)
        while consts:  # a constant tuple holds its strings inside
            c = consts.pop()
            if isinstance(c, str):
                strings.add(c)
            elif isinstance(c, tuple):
                consts.extend(c)
        stack.extend(inner)
    return names, strings


def _targets(strings) -> set:
    """The name after the last dot of each dotted string, such as the
    ``_COMMANDS`` target ``"scs.validate"`` or the traced ``"Matrix.kernel"``."""
    return {s.rsplit(".", 1)[1] for s in strings if re.fullmatch(r"\w+(\.\w+)+", s)}


def _public_definitions(module):
    """(qualified name, name) of each public function and class ``module``
    defines, and of each public method of those classes."""
    short = module.__name__.rsplit(".", 1)[1]
    methods = (FunctionType, staticmethod, classmethod, property, cached_property)
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, (FunctionType, type)):
            yield f"{short}.{name}", name
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(member, methods):
                    yield f"{short}.{name}.{attr}", attr


def test_every_public_name_is_reached_by_the_program():
    reached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, strings = _read(path)
        reached |= names
        if path.stem == "cli":  # the dotted target strings of the command rows
            reached |= _targets(strings)
    # the handlers of the command rows, which only the table reads
    reached |= {row[-1].__name__ for row in import_module("cosimplex.cli")._COMMANDS}
    for path in sorted((ROOT / "bench").glob("*.py")):
        names, strings = _read(path)
        reached |= names | strings | _targets(strings)
    unreached = [
        qualified
        for module in MODULES
        for qualified, name in _public_definitions(module)
        if name not in reached and qualified not in ALLOWED
    ]
    assert unreached == []
