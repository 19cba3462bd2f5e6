"""Seeded job lists for the three benchmark workloads.

A job is one instance taken through its whole pipeline.  ``make_jobs``
builds the job list of a workload from its seed; the program only ever sees
the generated inputs.  Each job carries:

* ``key``    — a description that fixes the job's inputs, used to look up
  the golden digest recorded for the default seed;
* ``run``    — the timed pipeline, returning the stage results;
* ``encode`` — the stage results as JSON (reports' ``to_dict()``), hashed
  into the job's digest outside the timed section;
* ``check``  — verdicts known by construction, returning a list of problems.

The size of every job slot is fixed; the seed picks the presentation (level
functions, element order, rotations, contraction entries) and the small
normal-extension inputs.  So the seed changes the inputs but hardly the
amount of work in a pass, which keeps the spread of the timings across seeds
small.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Job:
    key: str
    run: Callable
    encode: Callable
    check: Callable


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_jobs(workload: str, seed: int, work_dir=None, cli=None) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integer":
        jobs = _cochain_jobs(rng) + _tower_jobs(rng)
        rng.shuffle(jobs)
        return jobs
    if workload == "rational":
        return _rational_jobs(rng)
    if workload == "cli":
        return _cli_jobs(rng, work_dir, cli)
    raise ValueError(f"unknown workload {workload!r}")


def _matrix_strings(mat):
    return [[str(x) for x in row] for row in mat.rows]


def _random_valid_ell(rng, N, top_offset):
    """Level function with ell(0) = top_offset and n <= ell(n) <= ell(n-1)+1."""
    values = [top_offset]
    for n in range(1, N + 1):
        values.append(rng.randint(n, values[n - 1] + 1))
    return values


# -- integer, part 1: set-level pipeline -------------------------------------------

# (N, run check_cocycle_identities).  The identities grow steeply with N, so
# they run on the small part of the ladder only.  The ladder stops at N = 30
# so that the integer workload's pass stays near two seconds and every job
# repeats about fifteen times in a run.
COCHAIN_LADDER = [(n, True) for n in range(6, 13)] + [(n, False) for n in range(16, 31, 2)]
NORMAL_EXT_SLOTS = 5


def _cochain_jobs(rng):
    from cosimplex import cohomology as coh
    from cosimplex import fixtures, normal_ext, scs

    def cohomology_job(structure, key, ident, trivial):
        def run():
            out = {
                "validate": scs.validate(structure),
                "saturate": scs.saturate(structure),
            }
            out["cohomology"] = coh.cohomology(coh.build_complex(structure))
            if ident:
                out["identities"] = coh.check_cocycle_identities(structure)
            return out

        def encode(res):
            sat = res["saturate"]
            payload = {k: v.to_dict() for k, v in res.items() if k != "saturate"}
            payload["saturate"] = sorted(sat.levels.items())
            return payload

        def check(res):
            problems = []
            if not res["validate"].ok:
                problems.append("generated structure failed validation")
            sat = res["saturate"]
            if set(sat.levels) != set(structure.levels) or sat.shifts != structure.shifts:
                problems.append("saturate changed the elements or the shifts")
            for lv in res["cohomology"].levels:
                if lv.kernel_known:
                    if lv.dim_cohomology != lv.dim_cocycles - lv.dim_coboundaries:
                        problems.append(f"level {lv.level}: dim H != dim Z - dim B")
                    if trivial and lv.dim_cohomology != 0:
                        problems.append(f"level {lv.level}: saturated input has cohomology")
            if ident and not res["identities"].ok:
                problems.append("cocycle identities failed")
            return problems

        return Job(key, run, encode, check)

    def normal_ext_job(structure, key, multiplicities):
        def run():
            return {
                "labels": normal_ext.normal_label_table(structure),
                "classify": normal_ext.classify(structure),
                "extension": normal_ext.minimal_normal_extension(structure),
            }

        def encode(res):
            table = res["labels"]
            return {
                "labels": sorted((y, str(lab)) for y, lab in table.labels.items()),
                "unknown": sorted(table.unknown),
                "classify": res["classify"].to_dict(),
                "extension": res["extension"].to_dict(),
            }

        def check(res):
            problems = []
            if res["labels"].unknown:
                problems.append("undecidable labels")
            if multiplicities is not None:
                if res["classify"].multiplicities() != multiplicities:
                    problems.append("layer multiplicities differ from the construction")
                ranks = sorted(r for r, m in multiplicities.items() for _ in range(m))
                if sorted(res["extension"].layer_ranks) != ranks:
                    problems.append("extension layer ranks differ from the construction")
            return problems

        return Job(key, run, encode, check)

    jobs = []
    for N, ident in COCHAIN_LADDER:
        if rng.random() < 0.3:
            structure = scs.prototypical(N)
            jobs.append(cohomology_job(structure, f"coh prototypical N={N} ident={ident}", ident, True))
        else:
            # a top offset of 3 would drop a third of a small ladder's elements
            ell = _random_valid_ell(rng, N, rng.randint(0, 3 if N >= 12 else 1))
            structure = scs.from_ell(ell, N)
            key = f"coh from_ell {','.join(map(str, ell))} N={N} ident={ident}"
            jobs.append(cohomology_job(structure, key, ident, False))
    for _ in range(NORMAL_EXT_SLOTS):
        kind = rng.choices(("layered", "example2", "figure2"), (5, 3, 2))[0]
        if kind == "layered":
            dims = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
            if not any(dims):
                dims[-1] = 1
            N = rng.randint(3, 5)
            structure = fixtures.layered_scs(dims, N)
            expect = {r: m for r, m in enumerate(dims) if m}
            jobs.append(normal_ext_job(structure, f"ne layered {dims} N={N}", expect))
        elif kind == "example2":
            N = rng.randint(4, 6)
            jobs.append(normal_ext_job(fixtures.example2_scs(N), f"ne example2 N={N}", None))
        else:
            jobs.append(normal_ext_job(fixtures.figure2_scs(), "ne figure2", {2: 1}))
    return jobs


# -- integer, part 2, and rational: tower checks ------------------------------------

# Tower specs: ("layered", dims, N) is from_scs(layered_scs(dims, N)), normal
# by construction; "lmr" (layer minus root, rank >= 2) and figure2 are not
# normal; example2 is checked by its golden digest and criteria agreement
# only.  The ladder is fixed so that a pass costs the same on every seed; the
# seed picks the order of the elements, hence of the tower's coordinates.
# Ambient dimensions run from 4 to 9: a dimension-22 tower alone costs two
# seconds, as much as a whole pass.
SMALL_TOWERS = [
    ("layered", (1, 1), 2), ("layered", (1, 1, 0, 1), 2), ("layered", (0, 1, 1), 2),
    ("layered", (0, 2), 2), ("layered", (0, 1), 3), ("layered", (3, 1), 2),
    ("layered", (1, 1), 3), ("layered", (1, 2), 2), ("layered", (1, 1, 1), 2),
    ("layered", (1, 0, 1), 3), ("layered", (0, 2, 1), 2), ("layered", (2, 1), 3),
    ("layered", (0, 0, 1), 3),
]
TOWER_LADDER = SMALL_TOWERS + [
    ("lmr", 2, 3), ("figure2",), ("lmr", 3, 4), ("example2", 4),
    ("layered", (1, 1), 4), ("layered", (0, 2), 3), ("layered", (1, 2), 3),
]

# Rotated towers: every spec once with 3, 8 and 20 planes (entries of about
# 5, 14 and 28 bits); the seed picks the planes and the signed permutation.
# Rotations by 20 planes multiply the cost of a tower up to fifteenfold and
# the cost depends on the planes drawn, so the rational workload keeps to the
# smallest towers.
RATIONAL_TOWERS = [
    ("layered", (1, 1), 2), ("layered", (0, 1, 1), 2), ("figure2",), ("lmr", 2, 3),
    ("example2", 4),
]
PLANES = (3, 8, 20)

# Spread slots: ("contraction", k, N) or ("ell2", N).
SPREAD_SLOTS = ([("contraction", 1, 4)] * 6 + [("contraction", 1, 5)] * 5
                + [("contraction", 2, 4)] * 5 + [("contraction", 2, 5)]
                + [("contraction", 3, 4)] + [("ell2", n) for n in (4, 4, 5, 5, 6, 7, 8)])

# Pythagorean triples (a, b, c): a²/c² and b²/c² are rational squares summing
# to 1.  Slot i, entry j uses triple i + j, so the slot's entry sizes are fixed
# and the seed picks a or b and the order of the entries.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (12, 35, 37))


def _relabel(structure, rng):
    """The same structure with its element ids permuted."""
    from cosimplex.scs import TruncatedSCS

    ids = sorted(structure.levels)
    new = ids[:]
    rng.shuffle(new)
    m = dict(zip(ids, new))
    return TruncatedSCS(
        structure.max_level,
        {m[x]: lv for x, lv in structure.levels.items()},
        tuple({m[a]: m[b] for a, b in shift.items()} for shift in structure.shifts),
        {m[x]: name for x, name in structure.names.items()},
    )


def _short_hash(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:12]


def _structure_key(structure):
    return _short_hash((sorted(structure.levels.items()), [sorted(m.items()) for m in structure.shifts]))


def _diag(entries):
    from cosimplex.linalg import Matrix

    C = Matrix.zeros(len(entries), len(entries))
    for i, x in enumerate(entries):
        C.rows[i][i] = x
    return C


def _contraction_entries(rng, k, first):
    """k diagonal entries, entry j a²/c² or b²/c² of triple first + j."""
    entries = []
    for j in range(k):
        a, b, c = TRIPLES[(first + j) % len(TRIPLES)]
        entries.append(Fraction(rng.choice((a, b)) ** 2, c * c))
    return entries


def _spec_structure(spec):
    from cosimplex import fixtures

    if spec[0] == "layered":
        return fixtures.layered_scs(list(spec[1]), spec[2])
    if spec[0] == "lmr":
        return fixtures.layer_minus_root_scs(spec[1], spec[2])
    if spec[0] == "figure2":
        return fixtures.figure2_scs()
    return fixtures.example2_scs(spec[1])


def _spec_key(spec):
    if spec[0] == "layered":
        return f"layered {list(spec[1])} N={spec[2]}"
    return " ".join(map(str, spec))


def _expected_normal(spec):
    if spec[0] == "layered":
        return True
    if spec[0] in ("lmr", "figure2"):
        return False
    return None


def _tower_job(tower_mod, T, key, expect_normal):
    def run():
        out = {"check_tower": tower_mod.check_tower(T), "check_normal": tower_mod.check_normal(T)}
        if out["check_normal"].normal:
            data = tower_mod.build_symmetric_rep(T)
            out["symrep"] = data
            out["hessenberg"] = tower_mod.check_hessenberg(data)
            out["definetti"] = tower_mod.check_toy_definetti(T)
        return out

    def encode(res):
        payload = {k: v.to_dict() for k, v in res.items() if k != "symrep"}
        if "symrep" in res:
            payload["symrep"] = [_matrix_strings(u) for u in res["symrep"].unitaries]
        return payload

    def check(res):
        problems = []
        if not res["check_tower"].ok:
            problems.append("check_tower failed")
        normal = res["check_normal"]
        if not normal.criteria_agree:
            problems.append("normality criteria disagree")
        if expect_normal is not None and normal.normal != expect_normal:
            problems.append(f"normal={normal.normal}, expected {expect_normal}")
        if normal.normal:
            if not res["hessenberg"].ok:
                problems.append("check_hessenberg failed")
            if not res["definetti"].ok:
                problems.append("check_toy_definetti failed")
        return problems

    return Job(key, run, encode, check)


def _tower_jobs(rng):
    from cosimplex import tower as tower_mod

    jobs = []
    for spec in TOWER_LADDER:
        structure = _relabel(_spec_structure(spec), rng)
        T = tower_mod.from_scs(structure)
        key = f"tower {_spec_key(spec)} ids={_structure_key(structure)}"
        jobs.append(_tower_job(tower_mod, T, key, _expected_normal(spec)))
    return jobs


def _rational_jobs(rng):
    from cosimplex import fixtures
    from cosimplex import spread
    from cosimplex import tower as tower_mod
    from cosimplex.linalg import Matrix

    jobs = []
    for spec in RATIONAL_TOWERS:
        T = tower_mod.from_scs(_spec_structure(spec))
        for p in PLANES:
            Q = fixtures.random_rational_rotation(T.ambient_dim, rng, p)
            key = f"rotated {_spec_key(spec)} planes={p} Q={_short_hash(Q.rows)}"
            jobs.append(_tower_job(tower_mod, fixtures.rotate_tower(T, Q), key, _expected_normal(spec)))

    def spread_job(key, build, C_expected, build_partner):
        def run():
            fam = build()
            out = {
                "angle": spread.operator_angle(fam),
                "minimal_sch": spread.minimal_sch(fam),
                "theorem_c": spread.check_theorem_C(fam),
            }
            out["invariant"] = spread.check_complete_invariant(fam, build_partner())
            return out

        def encode(res):
            T = res["minimal_sch"]
            return {
                "angle": res["angle"].to_dict(),
                "minimal_sch": {
                    "levels": [_matrix_strings(B) for B in T.level_bases],
                    "shifts": [_matrix_strings(A) for A in T.shifts],
                },
                "theorem_c": res["theorem_c"].to_dict(),
                "invariant": res["invariant"].to_dict(),
            }

        def check(res):
            problems = []
            if not res["theorem_c"].ok:
                problems.append("check_theorem_C failed")
            if res["angle"].operator_angle != C_expected:
                problems.append("operator angle differs from the construction")
            if not res["invariant"].equivalent:
                problems.append("family not equivalent to its permuted presentation")
            return problems

        return Job(key, run, encode, check)

    for slot, spec in enumerate(SPREAD_SLOTS):
        if spec[0] == "ell2":
            N = spec[1]
            jobs.append(spread_job(
                f"spread ell2 N={N}",
                lambda N=N: fixtures.ell2_family(N),
                Matrix([[Fraction(1, 2)]]),
                lambda N=N: fixtures.ell2_family(N),
            ))
            continue
        _, k, N = spec
        entries = _contraction_entries(rng, k, slot)
        perm = list(range(k))
        rng.shuffle(perm)
        C = _diag(entries)
        C_perm = _diag([entries[i] for i in perm])
        jobs.append(spread_job(
            f"spread contraction {','.join(map(str, entries))} perm={perm} N={N}",
            lambda C=C, N=N: spread.from_contraction(C, N),
            C,
            lambda C=C_perm, N=N: spread.from_contraction(C, N),
        ))
    rng.shuffle(jobs)
    return jobs


# -- cli: one child process per job ------------------------------------------------------


def _cli_jobs(rng, work_dir, cli):
    """Fixture files are written to ``work_dir`` during set-up; each job runs
    one command through ``cli.run(argv)``, which returns (exit code, stdout)."""
    from cosimplex import fixtures, io_json, scs, spread
    from cosimplex import tower as tower_mod

    def write(name, payload):
        (work_dir / name).write_text(io_json.dump_json(payload), encoding="utf-8")
        return name

    scs_files = []
    N = rng.randint(5, 9)
    scs_files.append((write(f"scs-prototypical-N{N}.json", io_json.scs_to_dict(scs.prototypical(N))), {1: 1}))
    N = rng.randint(5, 9)
    ell = _random_valid_ell(rng, N, rng.randint(0, 2))
    name = f"scs-ell-{'_'.join(map(str, ell))}.json"
    scs_files.append((write(name, io_json.scs_to_dict(scs.from_ell(ell, N))), None))
    N = rng.randint(4, 8)
    scs_files.append((write(f"scs-example2-N{N}.json", io_json.scs_to_dict(fixtures.example2_scs(N))), None))
    scs_files.append((write("scs-figure2.json", io_json.scs_to_dict(fixtures.figure2_scs())), {2: 1}))
    dims = rng.choice(([1, 1], [0, 1, 1], [2, 1], [1, 0, 1], [0, 2]))
    N = rng.randint(3, 5)
    name = f"scs-layered-{'_'.join(map(str, dims))}-N{N}.json"
    expect = {r: m for r, m in enumerate(dims) if m}
    scs_files.append((write(name, io_json.scs_to_dict(fixtures.layered_scs(dims, N))), expect))

    tower_files = []
    for _ in range(2):
        spec = rng.choice(SMALL_TOWERS)
        T = tower_mod.from_scs(_spec_structure(spec))
        name = "tower-" + _spec_key(spec).replace(" ", "-").replace(",", "_").replace("[", "").replace("]", "") + ".json"
        tower_files.append((write(name, io_json.tower_to_dict(T)), True))
    N = rng.randint(4, 5)
    T = tower_mod.from_scs(fixtures.layer_minus_root_scs(2, N))
    tower_files.append((write(f"tower-lmr-2-N{N}.json", io_json.tower_to_dict(T)), False))
    T = tower_mod.from_scs(fixtures.figure2_scs())
    tower_files.append((write("tower-figure2.json", io_json.tower_to_dict(T)), False))

    family_files = []
    for slot, k in enumerate((1, 2)):
        entries = _contraction_entries(rng, k, slot)
        N = rng.randint(3, 5)
        name = f"family-{'_'.join(str(x).replace('/', 'o') for x in entries)}-N{N}.json"
        family_files.append(write(name, io_json.family_to_dict(spread.from_contraction(_diag(entries), N))))
    N = rng.randint(3, 7)
    family_files.append(write(f"family-ell2-N{N}.json", io_json.family_to_dict(fixtures.ell2_family(N))))

    # 20 commands, so that a pass of child processes fits three times into a
    # run; scs_files is [prototypical, ell, example2, figure2, layered], and
    # classify gets the two files whose layer multiplicities are known.
    commands = []
    for fixture_name in ("example2", rng.choice(("prototypical", "ell2"))):
        commands.append((["fixture", fixture_name, "-N", str(rng.randint(4, 9))], None))
    for name, mult in scs_files[:2]:
        commands.append((["scs", "validate", name], "valid"))
    for name, mult in scs_files[:3]:
        commands.append((["scs", "cohomology", "--basis", name], "cohomology"))
    for name, mult in scs_files[3:]:
        commands.append((["scs", "classify", name], ("classify", mult)))
    for name, mult in scs_files[1:3]:
        commands.append((["tower", "from-scs", name], "from-scs"))
    for name, normal in tower_files[:3]:
        commands.append((["tower", "check", name], "tower-ok"))
    for name, normal in tower_files[1:]:
        commands.append((["tower", "normal", name], ("normal", normal)))
    for name in family_files:
        commands.append((["spread", "theoremC", name], "theoremC"))

    def cli_job(argv, expect):
        def run():
            return cli.run(argv)

        def encode(res):
            code, out = res
            return {"exit": code, "stdout": hashlib.sha256(out).hexdigest()}

        def check(res):
            code, out = res
            if code != 0:
                return [f"exit code {code}"]
            try:
                data = json.loads(out)
            except ValueError:
                return ["stdout is not JSON"]
            kind = expect[0] if isinstance(expect, tuple) else expect
            problems = []
            if kind == "valid" and not data.get("ok"):
                problems.append("structure reported invalid")
            if kind == "cohomology":
                for lv in data["levels"]:
                    if lv["kernel_known"] and lv["dim_cohomology"] != lv["dim_cocycles"] - lv["dim_coboundaries"]:
                        problems.append(f"level {lv['level']}: dim H != dim Z - dim B")
            if kind == "classify" and expect[1] is not None:
                if data["multiplicities"] != {str(r): m for r, m in expect[1].items()}:
                    problems.append("layer multiplicities differ from the construction")
            if kind == "from-scs" and data["ambient_dim"] != len(data["coordinate_names"]):
                problems.append("ambient dimension differs from the element count")
            if kind == "tower-ok" and not data.get("ok"):
                problems.append("check_tower failed")
            if kind == "normal" and (data["normal"] != expect[1] or not data["criteria_agree"]):
                problems.append("normality verdict differs from the construction")
            if kind == "theoremC" and not data.get("ok"):
                problems.append("check_theorem_C failed")
            return problems

        return Job("cli " + " ".join(argv), run, encode, check)

    jobs = [cli_job(argv, expect) for argv, expect in commands]
    rng.shuffle(jobs)
    return jobs
