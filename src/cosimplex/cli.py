"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 on property failures or
truncation insufficiency, 2 on malformed input (an invalid structure
included), 3 when a self-check on a computed result fails.  Reports are
deterministic byte streams for identical inputs (sorted JSON keys, no
timestamps).

Each command imports the modules it calls, so a process compiles only what
its command runs; a new command does the same.
"""

from __future__ import annotations

import argparse
import sys
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


def _load_tower(path: str) -> tower.HilbertTower:
    return io_json.tower_from_dict(io_json.load_json(path))


def _load_family(path: str) -> spread.SpreadableFamily:
    return io_json.family_from_dict(io_json.load_json(path))


# -- scs subcommands ----------------------------------------------------------------


def cmd_scs_validate(args) -> int:
    from . import scs
    report = scs.validate(_read_scs(args.file))
    _emit(args, report.to_dict(), ["valid" if report.ok else "invalid"])
    return 0 if report.ok else 1


def cmd_scs_saturate(args) -> int:
    from . import scs
    structure = _load_scs(args.file)
    saturated = scs.saturate(structure)
    _write_or_print(args, io_json.scs_to_dict(saturated))
    return 0


def cmd_scs_innovations(args) -> int:
    structure = _load_scs(args.file)
    D = structure.innovation_sets()
    payload = {str(k): sorted(D[k]) for k in sorted(D)}
    _emit(args, payload)
    return 0


def cmd_scs_definetti(args) -> int:
    from . import scs
    report = scs.check_toy_definetti_scs(_load_scs(args.file))
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_scs_gen(args) -> int:
    from . import scs
    try:
        if args.kind == "prototypical":
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


def cmd_scs_extend(args) -> int:
    from . import normal_ext
    structure = _load_scs(args.file)
    result = normal_ext.minimal_normal_extension(structure)
    payload = io_json.scs_to_dict(result.extension)
    payload["embedding"] = {str(k): v for k, v in sorted(result.embedding.items())}
    payload["layer_ranks"] = result.layer_ranks
    _write_or_print(args, payload)
    return 0


def cmd_scs_classify(args) -> int:
    from . import normal_ext
    invariant = normal_ext.classify(_load_scs(args.file))
    _emit(args, invariant.to_dict())
    return 0


def cmd_scs_isomorphic(args) -> int:
    from . import normal_ext
    verdict = normal_ext.is_isomorphic(_load_scs(args.a), _load_scs(args.b))
    _emit(args, {"isomorphic": verdict}, ["isomorphic" if verdict else "not isomorphic"])
    return 0 if verdict else 1


def cmd_scs_dot(args) -> int:
    from . import scs
    sys.stdout.write(scs.shift_graph_dot(_load_scs(args.file)))
    return 0


# -- tower subcommands ------------------------------------------------------------------


def cmd_tower_check(args) -> int:
    from . import tower
    report = tower.check_tower(_load_tower(args.file))
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_tower_labels(args) -> int:
    from . import tower
    t = _load_tower(args.file)
    subs = tower.labeled_subspaces(t)
    payload = {
        str(lab): [[str(x) for x in v] for v in vs]
        for lab, vs in sorted(subs.items(), key=lambda kv: kv[0].sort_key())
    }
    _emit(args, payload)
    return 0


def cmd_tower_normal(args) -> int:
    from . import tower
    report = tower.check_normal(_load_tower(args.file))
    _emit(
        args,
        report.to_dict(),
        ["normal" if report.normal else "non-normal", f"criteria agree: {report.criteria_agree}"],
    )
    return 0 if report.criteria_agree else 1


def cmd_tower_symrep(args) -> int:
    from . import tower
    t = _load_tower(args.file)
    data = tower.build_symmetric_rep(t)
    report = tower.check_hessenberg(data)
    payload = {
        "generators": [io_json.matrix_to_json(u) for u in data.unitaries],
        "checks": report.to_dict(),
    }
    _emit(args, payload)
    return 0 if report.ok else 1


def cmd_tower_hessenberg(args) -> int:
    from . import tower
    t = _load_tower(args.file)
    data = tower.build_symmetric_rep(t)
    report = tower.check_hessenberg(data)
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_tower_definetti(args) -> int:
    from . import tower
    report = tower.check_toy_definetti(_load_tower(args.file))
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_tower_from_scs(args) -> int:
    from . import tower
    structure = _load_scs(args.file)
    _write_or_print(args, io_json.tower_to_dict(tower.from_scs(structure)))
    return 0


# -- spreadability subcommands ------------------------------------------------------------------


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
        result = spread.float_check_theorem_C(fam, args.tol)
        _emit(args, {"mode": "float", "theorem_checks": result})
        return 0 if result["ok"] else 1
    fam = spread.from_contraction(C, args.n)
    _write_or_print(args, io_json.family_to_dict(fam))
    return 0


def cmd_spread_angle(args) -> int:
    from . import spread
    report = spread.operator_angle(_load_family(args.file))
    _emit(args, report.to_dict())
    return 0


def cmd_spread_minsch(args) -> int:
    from . import spread
    t = spread.minimal_sch(_load_family(args.file))
    _write_or_print(args, io_json.tower_to_dict(t))
    return 0


def cmd_spread_theorem_c(args) -> int:
    from . import spread
    report = spread.check_theorem_C(_load_family(args.file))
    _emit(args, report.to_dict())
    return 0 if report.ok else 1


def cmd_spread_equiv(args) -> int:
    from . import spread
    result = spread.check_complete_invariant(_load_family(args.a), _load_family(args.b))
    _emit(args, result.to_dict())
    return 0 if result.equivalent else 1


# -- graph and fixtures ------------------------------------------------------------------------------


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


# -- parser ----------------------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosimplex",
        description="Truncated semi-cosimplicial structures: validation, "
        "cohomology, labels, normal extensions, spreadability.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--scalar", choices=("exact", "float"), default="exact")
    parser.add_argument("--tol", type=float, default=1e-10, help="float-mode tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scs = sub.add_parser("scs", help="set-level structures")
    scs_sub = p_scs.add_subparsers(dest="subcommand", required=True)
    for name, fn, needs_out in (
        ("validate", cmd_scs_validate, False),
        ("saturate", cmd_scs_saturate, True),
        ("innovations", cmd_scs_innovations, False),
        ("definetti", cmd_scs_definetti, False),
        ("labels", cmd_scs_labels, False),
        ("extend", cmd_scs_extend, True),
        ("classify", cmd_scs_classify, False),
        ("dot", cmd_scs_dot, False),
    ):
        p = scs_sub.add_parser(name)
        p.add_argument("file")
        if needs_out:
            p.add_argument("-o", "--output")
        p.set_defaults(func=fn)
    p = scs_sub.add_parser("cohomology")
    p.add_argument("file")
    p.add_argument("--level", type=int)
    p.add_argument("--basis", action="store_true")
    p.add_argument("--explicit", action="store_true")
    p.set_defaults(func=cmd_scs_cohomology)
    p = scs_sub.add_parser("isomorphic")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_scs_isomorphic)
    p = scs_sub.add_parser("gen")
    p.add_argument("kind", choices=("prototypical", "ell"))
    p.add_argument("arg", help="truncation level, or comma-separated level function")
    p.add_argument("N", nargs="?", help="truncation level for the level function")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_scs_gen)

    p_tower = sub.add_parser("tower", help="inner-product towers")
    tower_sub = p_tower.add_subparsers(dest="subcommand", required=True)
    for name, fn, needs_out in (
        ("check", cmd_tower_check, False),
        ("labels", cmd_tower_labels, False),
        ("normal", cmd_tower_normal, False),
        ("symrep", cmd_tower_symrep, False),
        ("hessenberg", cmd_tower_hessenberg, False),
        ("definetti", cmd_tower_definetti, False),
        ("from-scs", cmd_tower_from_scs, True),
    ):
        p = tower_sub.add_parser(name)
        p.add_argument("file")
        if needs_out:
            p.add_argument("-o", "--output")
        p.set_defaults(func=fn)

    p_spread = sub.add_parser("spread", help="spreadable isometry families")
    spread_sub = p_spread.add_subparsers(dest="subcommand", required=True)
    p = spread_sub.add_parser("from-c")
    p.add_argument("file", help="JSON matrix of the contraction")
    p.add_argument("-n", type=int, required=True, help="number of maps minus one")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spread_from_c)
    for name, fn, needs_out in (
        ("angle", cmd_spread_angle, False),
        ("theoremC", cmd_spread_theorem_c, False),
        ("minsch", cmd_spread_minsch, True),
    ):
        p = spread_sub.add_parser(name)
        p.add_argument("file")
        if needs_out:
            p.add_argument("-o", "--output")
        p.set_defaults(func=fn)
    p = spread_sub.add_parser("equiv")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_spread_equiv)

    p_graph = sub.add_parser("graph", help="label skeleton export")
    graph_sub = p_graph.add_subparsers(dest="subcommand", required=True)
    p = graph_sub.add_parser("dot")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--level", type=int, default=4)
    p.set_defaults(func=cmd_graph_dot)

    p_fix = sub.add_parser("fixture", help="emit a built-in example structure")
    p_fix.add_argument("name", help="prototypical | example2 | figure2 | ell2")
    p_fix.add_argument("-N", type=int, default=None)
    p_fix.add_argument("-o", "--output")
    p_fix.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
