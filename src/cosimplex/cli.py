"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 on property failures or
truncation insufficiency, 2 on malformed input (an invalid structure or tower
included), 3 when a self-check on a computed result fails.  Reports are
deterministic byte streams for identical inputs (sorted JSON keys, no
timestamps).

Each subcommand is one row of ``_COMMANDS``: group, name, arguments and
handler, in the order of the usage text; the parser and the dispatch are
built from that table.  A command that only loads its operands, runs one
analysis and emits the report (``_report``) or writes the converted result
(``_convert``) is a row with no function of its own.  Handlers import the
modules they call when they run, so a process compiles only what its
command runs.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from . import io_json
from .errors import CosimplexError, FormatError, InternalInconsistencyError
from .errors import InvalidStructureError, TruncationError

if TYPE_CHECKING:
    from . import scs, spread, tower
    from .linalg import Matrix


def _emit(args, payload: dict, text_lines=None) -> None:
    if args.format == "text" and text_lines is not None:
        sys.stdout.write("\n".join(text_lines) + "\n")
    else:
        if isinstance(payload, dict):
            payload.setdefault("truncation_caveats", [])
        sys.stdout.write(io_json.dump_json(payload))


def _write_or_print(args, payload: dict) -> None:
    text = io_json.dump_json(payload)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_scs(path: str) -> scs.TruncatedSCS:
    return io_json.scs_from_dict(io_json.load_json(path))


def _load_scs(path: str) -> scs.TruncatedSCS:
    """Read a structure for analysis; an invalid one is rejected as input."""
    from . import scs
    structure = _read_scs(path)
    report = scs.validate(structure)
    if not report.ok:
        raise FormatError(f"invalid structure: {report.violations[0].message}")
    return structure


def _read_tower(path: str) -> tower.HilbertTower:
    return io_json.tower_from_dict(io_json.load_json(path))


def _load_tower(path: str) -> tower.HilbertTower:
    """Read a tower for analysis; one that fails ``check_tower`` is rejected
    as input, with its first failed check and that check's witness."""
    from . import tower
    t = _read_tower(path)
    report = tower.check_tower(t)
    if not report.ok:
        failure = dict(report.failures[0])
        kind = failure.pop("check")
        witness = ", ".join(f"{key}={value}" for key, value in failure.items())
        raise FormatError(f"invalid tower: {kind} fails at {witness}")
    return t


def _load_family(path: str) -> spread.SpreadableFamily:
    return io_json.family_from_dict(io_json.load_json(path))


def _call(target: str, *operands):
    """Run ``module.function`` of this package, importing the module now."""
    module, function = target.split(".")
    return getattr(import_module(f".{module}", __package__), function)(*operands)


def _report(target: str, load, exit_field=None, text=None, operands=("file",)):
    """Handler that loads the operands, runs ``target`` on them and emits its
    report; it exits 1 when ``exit_field`` of the report is false."""

    def handler(args) -> int:
        report = _call(target, *(load(getattr(args, name)) for name in operands))
        _emit(args, report.to_dict(), text(report) if text else None)
        return 0 if exit_field is None or getattr(report, exit_field) else 1
    return handler


def _convert(target: str, load, encode):
    """Handler that loads the file, runs ``target`` on it and writes ``encode``
    of the result."""

    def handler(args) -> int:
        _write_or_print(args, encode(_call(target, load(args.file))))
        return 0
    return handler


# -- commands with a body of their own ---------------------------------------------------


def cmd_scs_innovations(args) -> int:
    structure = _load_scs(args.file)
    D = structure.innovation_sets()
    payload = {str(k): sorted(D[k]) for k in sorted(D)}
    _emit(args, payload)
    return 0


def cmd_scs_gen(args) -> int:
    from . import scs
    try:
        if args.kind == "prototypical":
            if args.N is not None:
                raise ValueError("N does not apply to prototypical")
            structure = scs.prototypical(int(args.arg))
        else:
            values = [int(v) for v in args.arg.split(",")]
            N = int(args.N) if args.N is not None else len(values) - 1
            structure = scs.from_ell(values, N)
    except ValueError as exc:
        raise FormatError(f"scs gen {args.kind} {args.arg}: {exc}") from None
    _write_or_print(args, io_json.scs_to_dict(structure))
    return 0


def cmd_scs_cohomology(args) -> int:
    from . import cohomology as coh
    structure = _load_scs(args.file)
    if args.level is not None and not -1 <= args.level <= structure.max_level:
        raise FormatError(f"--level {args.level} is outside -1..{structure.max_level}")
    cx = coh.build_complex(structure)
    report = coh.cohomology(cx)
    payload = report.to_dict()
    if not args.basis:
        for entry in payload["levels"]:
            entry.pop("cocycle_basis", None)
            entry.pop("coboundary_basis", None)
    if args.level is not None:
        payload["levels"] = [e for e in payload["levels"] if e["level"] == args.level]
    if args.explicit:
        checks = {}
        for k in range(0, structure.max_level):
            try:
                coh.explicit_cocycles(structure, k, cx)
                checks[str(k)] = "match"
            except InternalInconsistencyError:
                raise
            except CosimplexError as exc:
                checks[str(k)] = f"precondition: {exc}"
        payload["explicit_formula"] = checks
    _emit(args, payload)
    return 0


def cmd_scs_labels(args) -> int:
    from . import normal_ext
    structure = _load_scs(args.file)
    table = normal_ext.normal_label_table(structure)
    payload = {
        "labels": {
            structure.name(y): str(table.labels[y]) for y in sorted(table.labels)
        },
        "inferred": sorted(structure.name(y) for y in table.inferred),
        "undecidable": sorted(structure.name(y) for y in table.unknown),
        "level_bounds_respected": all(
            table.labels[y].level <= structure.levels[y] for y in table.labels
        ),
    }
    _emit(args, payload)
    return 0 if not table.unknown else 1


def cmd_scs_isomorphic(args) -> int:
    from . import normal_ext
    a, b = _load_scs(args.a), _load_scs(args.b)
    try:
        verdict = normal_ext.is_isomorphic(a, b)
    except ValueError as exc:
        raise FormatError(f"scs isomorphic: {exc}") from None
    _emit(args, {"isomorphic": verdict}, ["isomorphic" if verdict else "not isomorphic"])
    return 0 if verdict else 1


def cmd_scs_dot(args) -> int:
    from . import scs
    sys.stdout.write(scs.shift_graph_dot(_load_scs(args.file)))
    return 0


def cmd_tower_labels(args) -> int:
    from . import tower
    subs = tower.labeled_subspaces(_load_tower(args.file))
    payload = {
        str(lab): [[str(x) for x in v] for v in vs]
        for lab, vs in sorted(subs.items(), key=lambda kv: kv[0].sort_key())
    }
    _emit(args, payload)
    return 0


def cmd_tower_symrep(args, generators=True) -> int:
    """The Hessenberg checks of the symmetric representation, under the
    generators unless ``generators`` is false (``tower hessenberg``)."""
    from . import tower
    data = tower.build_symmetric_rep(_load_tower(args.file))
    report = tower.check_hessenberg(data)
    payload = report.to_dict()
    if generators:
        payload = {
            "generators": [io_json.matrix_to_json(u) for u in data.unitaries],
            "checks": payload,
        }
    _emit(args, payload)
    return 0 if report.ok else 1


def _parse_contraction(path: str) -> Matrix:
    data = io_json.load_json(path)
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    C = io_json.matrix_from_json(data)
    if C.nrows != C.ncols:
        raise FormatError(f"contraction is {C.nrows}x{C.ncols}, expected a square matrix")
    return C


def cmd_spread_from_c(args) -> int:
    from . import spread
    if args.n < 0:
        raise FormatError(f"spread from-c: -n must be >= 0, got {args.n}")
    if args.scalar == "float" and args.output:
        raise FormatError("spread from-c: -o does not apply to --scalar float, whose report goes to stdout")
    C = _parse_contraction(args.file)
    if args.scalar == "float":
        import numpy as np

        fam = spread.float_from_contraction(
            np.array([[float(x) for x in C.row(i)] for i in range(C.nrows)]), args.n
        )
        check = spread.float_check_theorem_C
        result = check(fam) if args.tol is None else check(fam, args.tol)
        _emit(args, {"mode": "float", "theorem_checks": result})
        return 0 if result["ok"] else 1
    fam = spread.from_contraction(C, args.n)
    _write_or_print(args, io_json.family_to_dict(fam))
    return 0


def cmd_graph_dot(args) -> int:
    from . import labels
    try:
        dot = labels.skeleton_dot(args.rank, args.level)
    except ValueError as exc:
        raise FormatError(f"graph dot: {exc}") from None
    sys.stdout.write(dot)
    return 0


def _figure2(fx, n):
    if n is not None:
        raise ValueError("-N does not apply, its max_level is fixed at 3")
    return io_json.scs_to_dict(fx.figure2_scs())


# Builders take the fixtures module, so defining the table imports nothing.
_FIXTURES = {
    "prototypical": lambda fx, n: io_json.scs_to_dict(fx.prototypical(n if n is not None else 5)),
    "example2": lambda fx, n: io_json.scs_to_dict(fx.example2_scs(n if n is not None else 5)),
    "figure2": _figure2,
    "ell2": lambda fx, n: io_json.family_to_dict(fx.ell2_family(n if n is not None else 5)),
}


def cmd_fixture(args) -> int:
    from . import fixtures
    builder = _FIXTURES.get(args.name)
    if builder is None:
        raise FormatError(f"unknown fixture {args.name!r}; choose from {sorted(_FIXTURES)}")
    try:
        payload = builder(fixtures, args.N)
    except (ValueError, InvalidStructureError) as exc:
        raise FormatError(f"fixture {args.name}: {exc}") from None
    _write_or_print(args, payload)
    return 0


# -- command table ---------------------------------------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


_FILE = (_arg("file"),)
_FILE_OUT = (_arg("file"), _arg("-o", "--output"))
_PAIR = (_arg("a"), _arg("b"))

_GROUPS = {
    "scs": "set-level structures",
    "tower": "inner-product towers",
    "spread": "spreadable isometry families",
    "graph": "label skeleton export",
    "fixture": "emit a built-in example structure",
}

# One row per subcommand, in the order of the usage text: group, name (None
# for a group without subcommands), arguments, handler.
_COMMANDS = (
    ("scs", "validate", _FILE, _report(
        "scs.validate", _read_scs, "ok", lambda r: ["valid" if r.ok else "invalid"])),
    ("scs", "saturate", _FILE_OUT, _convert("scs.saturate", _load_scs, io_json.scs_to_dict)),
    ("scs", "innovations", _FILE, cmd_scs_innovations),
    ("scs", "definetti", _FILE, _report("scs.check_toy_definetti_scs", _load_scs, "ok")),
    ("scs", "labels", _FILE, cmd_scs_labels),
    ("scs", "extend", _FILE_OUT, _convert(
        "normal_ext.minimal_normal_extension", _load_scs,
        lambda result: {**io_json.scs_to_dict(result.extension), **result.to_dict()})),
    ("scs", "classify", _FILE, _report("normal_ext.classify", _load_scs)),
    ("scs", "dot", _FILE, cmd_scs_dot),
    ("scs", "cohomology", (
        _arg("file"),
        _arg("--level", type=int),
        _arg("--basis", action="store_true"),
        _arg("--explicit", action="store_true"),
    ), cmd_scs_cohomology),
    ("scs", "isomorphic", _PAIR, cmd_scs_isomorphic),
    ("scs", "gen", (
        _arg("kind", choices=("prototypical", "ell")),
        _arg("arg", help="truncation level, or comma-separated level function"),
        _arg("N", nargs="?", help="truncation level for the level function"),
        _arg("-o", "--output"),
    ), cmd_scs_gen),
    ("tower", "check", _FILE, _report("tower.check_tower", _read_tower, "ok")),
    ("tower", "labels", _FILE, cmd_tower_labels),
    ("tower", "normal", _FILE, _report(
        "tower.check_normal", _load_tower, "criteria_agree",
        lambda r: ["normal" if r.normal else "non-normal", f"criteria agree: {r.criteria_agree}"])),
    ("tower", "symrep", _FILE, cmd_tower_symrep),
    ("tower", "hessenberg", _FILE, lambda args: cmd_tower_symrep(args, generators=False)),
    ("tower", "definetti", _FILE, _report("tower.check_toy_definetti", _load_tower, "ok")),
    ("tower", "from-scs", _FILE_OUT, _convert("tower.from_scs", _load_scs, io_json.tower_to_dict)),
    ("spread", "from-c", (
        _arg("file", help="JSON matrix of the contraction"),
        _arg("-n", type=int, required=True, help="number of maps minus one"),
        _arg("-o", "--output"),
    ), cmd_spread_from_c),
    ("spread", "angle", _FILE, _report("spread.operator_angle", _load_family)),
    ("spread", "theoremC", _FILE, _report("spread.check_theorem_C", _load_family, "ok")),
    ("spread", "minsch", _FILE_OUT, _convert("spread.minimal_sch", _load_family, io_json.tower_to_dict)),
    ("spread", "equiv", _PAIR, _report(
        "spread.check_complete_invariant", _load_family, "equivalent", operands=("a", "b"))),
    ("graph", "dot", (
        _arg("--rank", type=int, default=2),
        _arg("--level", type=int, default=4),
    ), cmd_graph_dot),
    ("fixture", None, (
        _arg("name", help="prototypical | example2 | figure2 | ell2"),
        _arg("-N", type=int, default=None),
        _arg("-o", "--output"),
    ), cmd_fixture),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosimplex",
        description="Truncated semi-cosimplicial structures: validation, "
        "cohomology, labels, normal extensions, spreadability.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--scalar", choices=("exact", "float"), default="exact")
    parser.add_argument("--tol", type=float, help="float-mode tolerance")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {name: sub.add_parser(name, help=text) for name, text in _GROUPS.items()}
    subcommands = {}
    for group, name, arguments, handler in _COMMANDS:
        p = groups[group]
        if name is not None:
            if group not in subcommands:
                subcommands[group] = p.add_subparsers(dest="subcommand", required=True)
            p = subcommands[group].add_parser(name)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.scalar == "float" and args.func is not cmd_spread_from_c:
            raise FormatError("--scalar float applies only to spread from-c")
        if args.tol is not None and args.scalar != "float":
            raise FormatError("--tol applies only to --scalar float spread from-c")
        if args.tol is not None and not 0 < args.tol < float("inf"):
            raise FormatError(f"--tol must be finite and positive, got {args.tol}")
        return args.func(args)
    except (FormatError, FileNotFoundError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except TruncationError as exc:
        sys.stderr.write(f"truncation insufficiency: {exc}\n")
        return 1
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except CosimplexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
