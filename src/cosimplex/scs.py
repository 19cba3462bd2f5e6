"""Truncated semi-cosimplicial sets.

A semi-cosimplicial set is a tower of sets X_{-1} ⊂ X_0 ⊂ X_1 ⊂ ... together
with injective coface maps δ_i: X_{n-1} → X_n (i = 0..n) obeying the exchange
identities δ_j δ_i = δ_i δ_{j-1} for i < j.  Interpreting the top coface as an
inclusion, the cofaces glue to *partial shifts* α_i on the union, each acting
identically on X_{i-1}.

This module stores level-N truncations: every element carries its least level,
and the shifts α_0..α_{N-1} are recorded on all elements of level <= N-1.
Queries that would need deeper data raise ``TruncationError`` or flag their
result as truncation limited instead of guessing.

Every verdict report derives from ``Report``, whose ``to_dict()`` gives ``ok``
first where the class has it, then each dataclass field in order, shallow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import InvalidStructureError, TruncationError


@dataclass(frozen=True)
class TruncatedSCS:
    """A semi-cosimplicial set truncated at ``max_level``.

    levels maps element id -> least level (in -1..max_level); shifts[i] is the
    map α_i on elements of level <= max_level-1.  Instances are treated as
    immutable; all operations are pure functions.
    """

    max_level: int
    levels: dict
    shifts: tuple
    names: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_level < -1:
            raise InvalidStructureError("max_level must be >= -1")
        if len(self.shifts) != max(0, self.max_level):
            raise InvalidStructureError(
                f"expected {max(0, self.max_level)} shift maps, got {len(self.shifts)}"
            )

    # -- basic views ---------------------------------------------------------

    def elements(self):
        return sorted(self.levels)

    def name(self, x) -> str:
        return self.names.get(x, str(x))

    def X(self, k: int) -> frozenset:
        """The level-k set {x : level(x) <= k}."""
        return frozenset(x for x, lv in self.levels.items() if lv <= k)

    def innovation_sets(self) -> dict:
        """D_k = X_k \\ X_{k-1}, keyed by level (all keys -1..max_level present)."""
        out = {k: set() for k in range(-1, self.max_level + 1)}
        for x, lv in self.levels.items():
            out[lv].add(x)
        return {k: frozenset(v) for k, v in out.items()}

    def shift_domain(self) -> frozenset:
        return frozenset(x for x, lv in self.levels.items() if lv <= self.max_level - 1)

    def alpha(self, i: int, x):
        """α_i(x); identity for i beyond the stored range, error on level-N input."""
        if i < 0:
            raise ValueError("shift index must be >= 0")
        if self.levels[x] > self.max_level - 1:
            raise TruncationError(
                f"alpha_{i} is not stored on level-{self.levels[x]} element {self.name(x)}",
                items=[x],
            )
        if i <= self.max_level - 1:
            return self.shifts[i][x]
        return x  # acts identically on X_{i-1} ⊇ X_{max_level-1}

    def alpha_word(self, word, x):
        """Apply α_{word[0]} first, then α_{word[1]}, and so on."""
        for i in word:
            x = self.alpha(i, x)
        return x


# -- reports and validation ---------------------------------------------------


class Report:
    """Base of the verdict reports.

    ``to_dict()`` gives ``ok`` first when the class has that verdict, then every
    dataclass field in order.  A list of reports becomes the list of their
    dicts; any other value is the report's own object, shared, not copied.
    """

    def to_dict(self) -> dict:
        out = {"ok": self.ok} if hasattr(type(self), "ok") else {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list) and value and all(isinstance(v, Report) for v in value):
                value = [v.to_dict() for v in value]
            out[f.name] = value
        return out


@dataclass
class Violation(Report):
    kind: str
    message: str
    witness: dict


@dataclass
class ValidationReport(Report):
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CheckReport(Report):
    """Named checks in the order run; ``failures`` repeats the failed ones."""

    checks: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name, info, ok):
        self.checks.append({"check": name, **info, "ok": ok})
        if not ok:
            self.failures.append({"check": name, **info})


def validate(scs: TruncatedSCS) -> ValidationReport:
    """Check every defining invariant of a truncated structure.

    Reported kinds: level-range, shift-domain, shift-target, adaptedness,
    fixed-point, injectivity, exchange (the last only where both sides of
    α_j α_i = α_i α_{j-1} are evaluable, i.e. on elements of level <= N-2).
    """
    v = []

    def fail(kind, message, **witness):
        v.append(Violation(kind, message, witness))

    N = scs.max_level
    domain = scs.shift_domain()
    for x, lv in scs.levels.items():
        if not (-1 <= lv <= N):
            fail("level-range", f"element {scs.name(x)} has level {lv}", x=x)
    for i, mapping in enumerate(scs.shifts):
        if set(mapping) != set(domain):
            missing = sorted(domain - set(mapping))
            extra = sorted(set(mapping) - domain)
            fail("shift-domain", f"alpha_{i} domain mismatch (missing {missing}, extra {extra})",
                 i=i, missing=missing, extra=extra)
            continue
        seen = {}
        for x, y in mapping.items():
            if y not in scs.levels:
                fail("shift-target", f"alpha_{i}({scs.name(x)}) is not an element", i=i, x=x, to=y)
                continue
            if scs.levels[y] > scs.levels[x] + 1:
                fail("adaptedness",
                     f"alpha_{i}({scs.name(x)}) has level {scs.levels[y]} > {scs.levels[x]} + 1",
                     i=i, x=x, to=y)
            if scs.levels[x] <= i - 1 and y != x:
                fail("fixed-point",
                     f"alpha_{i} must fix level-{scs.levels[x]} element {scs.name(x)}",
                     i=i, x=x, to=y)
            if y in seen:
                fail("injectivity",
                     f"alpha_{i} sends both {scs.name(seen[y])} and {scs.name(x)} to {scs.name(y)}",
                     i=i, x1=seen[y], x2=x, to=y)
            seen[y] = x
    if not v:
        # exchange identities need valid shift maps first; with them every
        # lookup below is stored, as x has level <= N-2 and shifts add <= 1
        deep = [x for x in domain if scs.levels[x] <= N - 2]
        for j in range(1, N):
            a_j, a_jm1 = scs.shifts[j], scs.shifts[j - 1]
            for i in range(j):
                a_i = scs.shifts[i]
                for x in deep:
                    if a_j[a_i[x]] != a_i[a_jm1[x]]:
                        fail("exchange",
                             f"alpha_{j} alpha_{i} != alpha_{i} alpha_{j-1} at {scs.name(x)}",
                             i=i, j=j, x=x)
    return ValidationReport(v)


def require_valid(scs: TruncatedSCS, what: str) -> None:
    """Raise ``InvalidStructureError`` naming ``what`` and the first violation
    of ``validate`` unless the structure is valid."""
    violations = validate(scs).violations
    if violations:
        raise InvalidStructureError(f"{what} needs a valid structure: {violations[0].message}")


# -- generators ---------------------------------------------------------------


def prototypical(N: int) -> TruncatedSCS:
    """The standard example: X_k = {0..k} and α_i(n) = n+1 for i <= n, n else."""
    if N < -1:
        raise ValueError("N must be >= -1")
    levels = {n: n for n in range(0, N + 1)}
    shifts = tuple(
        {n: (n + 1 if i <= n else n) for n in range(0, N)} for i in range(max(0, N))
    )
    return TruncatedSCS(N, levels, shifts)


def ell_violation_index(values) -> int | None:
    """First index violating n <= ell(n) <= ell(n-1)+1 (ell(0) only needs >= 0)."""
    values = list(values)
    if values and values[0] < 0:
        return 0
    for n in range(1, len(values)):
        if not (n <= values[n] <= values[n - 1] + 1):
            return n
    return None


def from_ell(values, N: int) -> TruncatedSCS:
    """The ball-in-box family: element n placed at level ell(n), with the
    prototypical shifts.  Elements whose level exceeds N fall outside the
    truncation and are omitted.
    """
    values = list(values)
    if len(values) < N + 1:
        raise ValueError(f"need ell(0..{N}), got {len(values)} values")
    bad = ell_violation_index(values[: N + 1])
    if bad is not None:
        raise ValueError(f"invalid level function at index {bad}: value {values[bad]}")
    levels = {n: values[n] for n in range(0, N + 1) if values[n] <= N}
    domain = [n for n, lv in levels.items() if lv <= N - 1]
    shifts = tuple(
        {n: (n + 1 if i <= n else n) for n in domain} for i in range(max(0, N))
    )
    return TruncatedSCS(N, levels, shifts)


# -- fixed sets and saturation ---------------------------------------------------


def fixed_set(scs: TruncatedSCS, n: int) -> frozenset:
    """Elements of level <= N-1 fixed by α_n."""
    if not (0 <= n <= scs.max_level - 1):
        raise ValueError(f"fixed_set needs 0 <= n <= {scs.max_level - 1}, got {n}")
    return frozenset(x for x in scs.shift_domain() if scs.alpha(n, x) == x)


@dataclass
class SaturationResult(Report):
    """Outcome of a saturation test at one level.

    ``holds`` is exact for elements of level <= N-1; when the comparison had
    to skip level-N elements the result is flagged truncation limited.
    """

    level: int
    holds: bool
    truncation_limited: bool
    witnesses: list

    def __bool__(self):
        return self.holds


def check_saturation(scs: TruncatedSCS, n: int) -> SaturationResult:
    """Is X_n exactly the α_{n+1}-fixed part?

    X_n ⊆ fixed(α_{n+1}) always holds in a valid structure, so the content is
    the reverse inclusion.  Level-N elements cannot be tested for fixedness
    and only contribute a truncation caveat.
    """
    N = scs.max_level
    if not (-1 <= n <= N - 2):
        raise ValueError(f"check_saturation needs -1 <= n <= {N - 2}, got {n}")
    fixed = fixed_set(scs, n + 1)
    witnesses = []
    limited = False
    for x in scs.elements():
        if scs.levels[x] <= n:
            continue  # in X_n already
        if scs.levels[x] > N - 1:
            limited = True
            continue
        if x in fixed:
            witnesses.append(x)
    return SaturationResult(n, not witnesses, limited, witnesses)


# -- normal labels (used by saturation; full treatment in normal_ext) -----------


def normal_label_bits(scs: TruncatedSCS, y) -> tuple:
    """The bit sequence recording where adjacent shifts act differently on y.

    Bit n is 0 iff α_n(y) = α_{n+1}(y); bits vanish above level(y).  Only
    evaluable for elements of level <= N-1.
    """
    lv = scs.levels[y]
    if lv > scs.max_level - 1:
        raise TruncationError(
            f"normal label of level-{lv} element {scs.name(y)} is not computable "
            f"at truncation {scs.max_level}",
            items=[y],
        )
    bits = []
    for n in range(0, lv + 1):
        bits.append(0 if scs.alpha(n, y) == scs.alpha(n + 1, y) else 1)
    while bits and bits[-1] == 0:
        bits.pop()
    return tuple(bits)


def preimages(scs: TruncatedSCS) -> dict:
    """Reverse shift index: y -> [(i, x), ...] for every stored α_i(x) = y,
    in shift order, then in the order of each shift map."""
    out = {}
    for i, mapping in enumerate(scs.shifts):
        for x, y in mapping.items():
            out.setdefault(y, []).append((i, x))
    return out


def infer_normal_labels(scs: TruncatedSCS):
    """Normal labels of every determinable element: (labels, inferred, unknown).

    Labels of elements of level <= N-1 are computed directly.  A level-N
    element that is the image of such an element under some shift inherits
    its label through the insertion identity (``inferred``); one that is no
    such image stays ``unknown``.  Conflicting inferences expose an
    inconsistent structure.
    """
    from .labels import Label  # local import to keep module load cheap

    N = scs.max_level
    exact = {
        y: Label(normal_label_bits(scs, y)) for y, lv in scs.levels.items() if lv <= N - 1
    }
    labels = dict(exact)
    inferred = set()
    unknown = set()
    index = preimages(scs)
    for y, lv in scs.levels.items():
        if lv <= N - 1:
            continue
        candidates = {exact[x].insert_zero(i) for i, x in index.get(y, ()) if x in exact}
        if not candidates:
            unknown.add(y)
        elif len(candidates) > 1:
            raise InvalidStructureError(
                f"conflicting inferred labels {sorted(map(str, candidates))} for "
                f"element {scs.name(y)}: not a truncation of any semi-cosimplicial set"
            )
        else:
            labels[y] = candidates.pop()
            inferred.add(y)
    return labels, inferred, unknown


def saturate(scs: TruncatedSCS) -> TruncatedSCS:
    """Re-level every element to the level of its normal label.

    The result has the same elements and shifts and is saturated at every
    fully computable level; the input is a sub-structure of it (X_k ⊆ X̂_k).
    Level-N elements whose new level cannot be determined raise
    ``TruncationError``.
    """
    labels, inferred, unknown = infer_normal_labels(scs)
    new_levels = dict(scs.levels)
    for y, lab in labels.items():
        if y in inferred and lab.level < scs.max_level:
            # the element would enter the shift domain, but its shifts were
            # never stored: the truncation cannot represent this
            unknown.add(y)
        else:
            new_levels[y] = lab.level
    if unknown:
        raise TruncationError(
            "cannot determine saturated levels for: "
            + ", ".join(scs.name(y) for y in sorted(unknown)),
            items=sorted(unknown),
        )
    return TruncatedSCS(scs.max_level, new_levels, scs.shifts, scs.names)


# -- the saturation / innovation-shift dictionary -------------------------------


@dataclass
class DeFinettiLevel(Report):
    n: int
    shifts_innovations: bool  # α_i(D_n) ⊆ D_{n+1} for all i <= n
    saturated_up_to_next: bool  # X_{n-1} = fixed(α_n) ∩ X_n
    equivalence_ok: bool
    saturated: bool  # unrestricted saturation at level n-1
    saturated_exact: bool
    top_shift_hypothesis: bool  # α_n(D_k) ⊆ D_{k+1} for all computable k >= n
    one4all_ok: bool


@dataclass
class DeFinettiReport(Report):
    levels: list
    bugs: list
    converse_first_failures: list
    converse_second_failures: list
    truncation_caveats: list

    @property
    def ok(self):
        return not self.bugs


def innovation_shift_failures(scs: TruncatedSCS) -> dict:
    """(i, k) -> the first x of sorted(D_k) with α_i(x) outside D_{k+1}, for
    each pair 0 <= i <= k <= N-1 where the inclusion α_i(D_k) ⊆ D_{k+1} fails.

    Every statement of the saturation dictionary reads this one table.
    """
    D = scs.innovation_sets()
    failures = {}
    for k in range(0, scs.max_level):
        for x in sorted(D[k]):
            for i in range(0, k + 1):
                if scs.levels[scs.alpha(i, x)] != k + 1:
                    failures.setdefault((i, k), x)
    return failures


def check_toy_definetti_scs(scs: TruncatedSCS) -> DeFinettiReport:
    """Evaluate the saturation dictionary level by level.

    For each n the exact equivalence tested is: saturated at level n-1 up to
    level n  <=>  α_i(D_n) ⊆ D_{n+1} for all 0 <= i <= n.  On top of that the
    two one-directional implications (top-shift hypothesis => saturated at
    n-1 => innovations shift) and the single-shift-suffices reduction are
    evaluated; any violation of a proven statement is reported as a bug.
    Failures of the converses are recorded as observations, not bugs.
    Every statement reads the one table of ``innovation_shift_failures``,
    and both saturation verdicts come from one saturation scan per level.
    """
    require_valid(scs, "check_toy_definetti_scs")
    N = scs.max_level
    failures = innovation_shift_failures(scs)
    levels = []
    bugs = []
    conv1 = []
    conv2 = []
    caveats = []
    for n in range(0, N):
        shifts_innov = not any((i, n) in failures for i in range(0, n + 1))
        sat_res = check_saturation(scs, n - 1)
        sat = sat_res.holds
        sat_exact = not sat_res.truncation_limited
        # saturated up to level n: no witness of level n
        sat_upto = all(scs.levels[x] != n for x in sat_res.witnesses)
        if sat_upto != shifts_innov:
            bugs.append(
                f"level {n}: saturated-up-to-next is {sat_upto} but innovation "
                f"shift condition is {shifts_innov}"
            )
        # hypothesis of the first implication, truncation restricted
        hyp1_k = next((k for k in range(n, N) if (n, k) in failures), None)
        hyp1 = hyp1_k is None
        # one-for-all reduction: top shift alone forces all lower ones
        one4all_ok = (n, n) in failures or shifts_innov
        if not one4all_ok:
            bugs.append(f"level {n}: top shift maps D_{n} into D_{n+1} but a lower shift does not")
        if hyp1 and not sat:
            # the hypothesis quantifies over all higher innovations, so a
            # truncation can never refute the implication itself
            caveats.append(
                f"level {n}: top-shift hypothesis holds on the truncation but "
                f"saturation at {n - 1} fails; undecidable beyond level {N - 1}"
            )
        if sat and sat_exact and not shifts_innov:
            bugs.append(f"level {n}: saturated at {n - 1} but some shift leaves D_{n + 1}")
        if sat and not hyp1:
            x = failures[n, hyp1_k]
            img = scs.alpha(n, x)
            conv1.append(
                {"n": n, "k": hyp1_k, "x": x, "image": img, "image_level": scs.levels[img]}
            )
        if shifts_innov and not sat:
            conv2.append({"n": n, "saturated_exact": sat_exact})
        levels.append(
            DeFinettiLevel(
                n=n,
                shifts_innovations=shifts_innov,
                saturated_up_to_next=sat_upto,
                equivalence_ok=sat_upto == shifts_innov,
                saturated=sat,
                saturated_exact=sat_exact,
                top_shift_hypothesis=hyp1,
                one4all_ok=one4all_ok,
            )
        )
    return DeFinettiReport(levels, bugs, conv1, conv2, caveats)


# -- DOT export ------------------------------------------------------------------


def shift_graph_dot(scs: TruncatedSCS) -> str:
    """DOT rendering of the shift action: one node per element, one edge per
    proper shift image, labeled by the shift index."""
    lines = ["digraph shift_action {", "  rankdir=LR;"]
    for x in scs.elements():
        lines.append(f'  "{scs.name(x)}" [label="{scs.name(x)} (lv {scs.levels[x]})"];')
    for i, mapping in enumerate(scs.shifts):
        for x in sorted(mapping):
            y = mapping[x]
            if y != x:
                lines.append(f'  "{scs.name(x)}" -> "{scs.name(y)}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
