"""JSON (de)serialization for structures, towers and families.

Rational entries travel as strings like "3/2" or "-1"; matrices as lists of
rows.  Set-level structures use the element/shift-map format; towers accept
either explicit rational column bases per level or ambient coordinate index
sets (the common case for towers of set origin).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import FormatError

if TYPE_CHECKING:
    from .linalg import Matrix
    from .scs import TruncatedSCS
    from .spread import SpreadableFamily
    from .tower import HilbertTower


def _str_to_frac(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {s!r}: {exc}") from None


def matrix_to_json(mat: Matrix) -> list:
    return [[str(x) for x in mat.row(i)] for i in range(mat.nrows)]


def matrix_from_json(data, ncols=None) -> Matrix:
    from .linalg import Matrix
    if not isinstance(data, list):
        raise FormatError("matrix must be a list of rows")
    mat = Matrix([[_str_to_frac(x) for x in row] for row in data], ncols=ncols)
    if ncols is not None and mat.ncols != ncols:
        raise FormatError(f"matrix has {mat.ncols} columns, expected {ncols}")
    return mat


def _at_least(data, key, low) -> int:
    """The integer ``data[key]``, which must be at least ``low``."""
    n = int(data[key])
    if n < low:
        raise FormatError(f"{key} {n} is below {low}")
    return n


def _sized(data, nrows, ncols, what) -> Matrix:
    """A matrix that must be ``nrows`` x ``ncols``; ``what`` names it in the error."""
    mat = matrix_from_json(data, ncols=ncols)
    if mat.nrows != nrows:
        raise FormatError(f"{what} is {mat.nrows}x{mat.ncols}, expected {nrows}x{ncols}")
    return mat


# -- set-level structures ------------------------------------------------------------


def scs_to_dict(scs: TruncatedSCS) -> dict:
    elements = []
    for x in scs.elements():
        entry = {"id": x, "level": scs.levels[x]}
        if x in scs.names:
            entry["name"] = scs.names[x]
        elements.append(entry)
    return {
        "max_level": scs.max_level,
        "elements": elements,
        "shifts": [
            {"i": i, "map": [[x, mapping[x]] for x in sorted(mapping)]}
            for i, mapping in enumerate(scs.shifts)
        ],
    }


def scs_from_dict(data: dict) -> TruncatedSCS:
    from .scs import TruncatedSCS
    try:
        N = _at_least(data, "max_level", -1)
        levels = {}
        names = {}
        for entry in data["elements"]:
            x = int(entry["id"])
            if x in levels:
                raise FormatError(f"duplicate element id {x}")
            levels[x] = int(entry["level"])
            if "name" in entry:
                names[x] = str(entry["name"])
        shifts = [dict() for _ in range(max(0, N))]
        seen = set()
        for block in data.get("shifts", []):
            i = int(block["i"])
            if not (0 <= i < max(0, N)):
                raise FormatError(f"shift index {i} out of range for max_level {N}")
            if i in seen:
                raise FormatError(f"duplicate shift block {i}")
            seen.add(i)
            for a, b in block["map"]:
                a = int(a)
                if a in shifts[i]:
                    raise FormatError(f"shift {i}: element {a} is mapped twice")
                shifts[i][a] = int(b)
        return TruncatedSCS(N, levels, tuple(shifts), names)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad structure payload: {exc}") from None


# -- towers ---------------------------------------------------------------------------


def tower_to_dict(tower: HilbertTower) -> dict:
    levels = []
    for k in range(-1, tower.max_level + 1):
        B = tower.basis(k)
        indices = _as_index_set(B)
        if indices is not None:
            levels.append({"level": k, "basis_indices": indices})
        else:
            levels.append({"level": k, "basis": matrix_to_json(B)})
    out = {
        "max_level": tower.max_level,
        "ambient_dim": tower.ambient_dim,
        "levels": levels,
        "shifts": [
            {"i": i, "matrix": matrix_to_json(tower.shifts[i])}
            for i in range(len(tower.shifts))
        ],
    }
    if tower.coordinate_names:
        out["coordinate_names"] = list(tower.coordinate_names)
    return out


def _as_index_set(B: Matrix):
    indices = []
    for j in range(B.ncols):
        col = B.column(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if len(nz) != 1 or col[nz[0]] != 1:
            return None
        indices.append(nz[0])
    return indices


def tower_from_dict(data: dict) -> HilbertTower:
    from .linalg import Matrix
    from .tower import HilbertTower
    try:
        N = _at_least(data, "max_level", -1)
        dim = _at_least(data, "ambient_dim", 0)
        by_level = {}
        for entry in data["levels"]:
            k = int(entry["level"])
            if not -1 <= k <= N:
                raise FormatError(f"level {k} out of range for max_level {N}")
            if k in by_level:
                raise FormatError(f"duplicate level {k}")
            if "basis_indices" in entry:
                indices = entry["basis_indices"]
                bad = [idx for idx in indices if not 0 <= idx < dim]
                if bad:
                    raise FormatError(
                        f"level {k}: basis indices {bad} outside range({dim})"
                    )
                repeated = sorted({idx for idx in indices if indices.count(idx) > 1})
                if repeated:
                    raise FormatError(f"level {k}: repeated basis indices {repeated}")
                B = Matrix.from_entries(
                    dim, len(indices), {(idx, c): 1 for c, idx in enumerate(indices)}
                )
            else:
                B = matrix_from_json(entry["basis"])
                if B.nrows != dim:
                    raise FormatError(f"level {k}: basis has {B.nrows} rows, expected {dim}")
                if B.rank() != B.ncols:
                    raise FormatError(f"level {k}: basis columns are linearly dependent")
            by_level[k] = B
        level_bases = []
        for k in range(-1, N + 1):
            if k not in by_level:
                raise FormatError(f"missing level {k}")
            level_bases.append(by_level[k])
        n_shifts = max(0, N)
        shifts = {}
        for block in data.get("shifts", []):
            i = int(block["i"])
            if not 0 <= i < n_shifts:
                raise FormatError(f"shift index {i} out of range for max_level {N}")
            if i in shifts:
                raise FormatError(f"duplicate shift block {i}")
            A = shifts[i] = matrix_from_json(block["matrix"])
            if (A.nrows, A.ncols) != (dim, dim):
                raise FormatError(f"shift {i}: matrix is {A.nrows}x{A.ncols}, expected {dim}x{dim}")
        missing = [i for i in range(n_shifts) if i not in shifts]
        if missing:
            raise FormatError(f"missing shift blocks {missing}")
        shifts = [shifts[i] for i in range(n_shifts)]
        names = data.get("coordinate_names")
        if names is not None and not (
            isinstance(names, list) and len(names) == dim and all(isinstance(x, str) for x in names)
        ):
            raise FormatError(f"coordinate_names must be a list of {dim} strings")
        return HilbertTower(N, dim, level_bases, shifts, names)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"bad tower payload: {exc}") from None


# -- spreadable families ------------------------------------------------------------------


def family_to_dict(family: SpreadableFamily) -> dict:
    from .linalg import Matrix
    out = {
        "k_dim": family.k_dim,
        "ambient_dim": family.ambient_dim,
        "isometries": [matrix_to_json(m) for m in family.isometries],
    }
    if family.gram != Matrix.identity(family.k_dim):
        out["gram"] = matrix_to_json(family.gram)
    if family.ambient_shifts:
        out["ambient_shifts"] = [matrix_to_json(m) for m in family.ambient_shifts]
    return out


def family_from_dict(data: dict) -> SpreadableFamily:
    from .linalg import is_psd
    from .spread import SpreadableFamily
    try:
        k = _at_least(data, "k_dim", 0)
        dim = _at_least(data, "ambient_dim", 0)
        isometries = [_sized(m, dim, k, f"isometry {n}") for n, m in enumerate(data["isometries"])]
        gram = _sized(data["gram"], k, k, "gram") if "gram" in data else None
        # is_psd tests symmetry too; full rank makes it positive definite
        if gram is not None and not (is_psd(gram) and gram.rank() == k):
            raise FormatError("gram is not symmetric positive definite")
        shifts = None
        if "ambient_shifts" in data:
            shifts = [
                _sized(m, dim, dim, f"ambient shift {i}")
                for i, m in enumerate(data["ambient_shifts"])
            ]
            if len(shifts) != len(isometries) - 1:
                raise FormatError(
                    f"{len(shifts)} ambient shifts for {len(isometries)} isometries, "
                    f"expected {len(isometries) - 1}"
                )
        return SpreadableFamily(k, dim, isometries, gram, shifts)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad family payload: {exc}") from None


# -- file helpers ------------------------------------------------------------------------------


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
