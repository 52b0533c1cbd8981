"""Market and allocation primitives shared by every mechanism.

Students and schools are dense indices: students 0..n-1, schools 0..m-1.
Market files may use arbitrary integer ids; the loader maps them onto
indices (ascending id order) and keeps the original ids for round-tripping
and reporting.  All algorithmic code works on indices.

A market stores its lists as read-only int64 arrays padded with -1,
which mechanisms and metrics read directly and through ``rank_table``
and ``priority_table``; tuple views are built only when first read.

Markets and allocations are immutable after construction and every
operation here is a pure function, so instances can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "UNASSIGNED",
    "Market",
    "Allocation",
    "MarketFormatError",
    "UndersuppliedMarketError",
    "UnrankedSchoolError",
    "rank_of",
    "effective_ranks",
    "validate_market",
    "validate_allocation",
    "balance_capacities",
    "load_market",
    "save_market",
]

#: Sentinel used in ``Allocation.assignment`` for students without a seat.
UNASSIGNED = -1


class MarketFormatError(ValueError):
    """Market file cannot be parsed, or the parsed market is invalid."""


class UndersuppliedMarketError(ValueError):
    """Total school capacity cannot seat the student population."""


class UnrankedSchoolError(ValueError):
    """A school was used where the student never ranked it."""


def _as_padded(lists) -> tuple[np.ndarray, np.ndarray]:
    """Nested sequences, or a 2-D integer array of full-length lists, as
    (read-only int64 array padded with -1, read-only list lengths)."""
    if isinstance(lists, np.ndarray) and lists.ndim == 2:
        padded = lists.astype(np.int64)  # a copy the caller cannot write to
        lengths = np.full(padded.shape[0], padded.shape[1], dtype=np.int64)
    else:
        rows = list(lists)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        padded = np.full((len(rows), lengths.max(initial=0)), -1, dtype=np.int64)
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum())
        )
    padded.setflags(write=False)
    lengths.setflags(write=False)
    return padded, lengths


def _lookup_table(lists: np.ndarray, lengths: np.ndarray, width: int,
                  owner: str, item: str) -> np.ndarray:
    """(rows, width) read-only table of each id's 1-based position in the
    row's list, or width + 2 where the list leaves it out.  Raises
    ValueError naming the first row that lists an id outside 0..width-1,
    so no mechanism reads such an id as another index."""
    listed = np.arange(lists.shape[1]) < lengths[:, None]
    unknown = np.argwhere(listed & ((lists < 0) | (lists >= width)))
    if unknown.size:
        row, col = unknown[0]
        raise ValueError(f"{owner} {row}: unknown {item} id {lists[row, col]}")
    # The -1 padding lands in a spill column past the last id.
    table = np.full((lists.shape[0], width + 1), width + 2, dtype=np.int64)
    np.put_along_axis(table, lists, np.arange(1, lists.shape[1] + 1)[None, :], axis=1)
    table = table[:, :width]
    table.setflags(write=False)
    return table


@dataclass(frozen=True, init=False, eq=False)
class Market:
    """A school choice market.

    capacities: seats per school.
    prefs: per student, school indices from most to least preferred.
        Lists may be partial; schools left out are unacceptable to the
        student.
    priorities: per school, student indices from highest to lowest
        priority.  Students left out are unacceptable to the school.
    student_ids / school_ids: external labels (strictly increasing),
        defaulting to 0..n-1 and 0..m-1.

    prefs and priorities may be nested sequences or 2-D integer arrays
    (full lists).  They are stored as ``pref_array``/``list_lengths`` and
    ``priority_array``/``priority_lengths`` (read-only int64, rows padded
    with -1); ``prefs`` and ``priorities`` are tuple views built on first
    access.  Construction checks nothing: ``validate_market`` reports
    problems, and the table builds refuse ids out of range.
    """

    capacities: tuple[int, ...]
    pref_array: np.ndarray
    list_lengths: np.ndarray
    priority_array: np.ndarray
    priority_lengths: np.ndarray
    student_ids: tuple[int, ...]
    school_ids: tuple[int, ...]

    def __init__(self, capacities, prefs, priorities, student_ids=(), school_ids=()) -> None:
        capacities = tuple(int(c) for c in capacities)
        prefs, priorities = _as_padded(prefs), _as_padded(priorities)
        student_ids = tuple(int(i) for i in student_ids or range(len(prefs[1])))
        school_ids = tuple(int(i) for i in school_ids or range(len(capacities)))
        stored = (capacities, *prefs, *priorities, student_ids, school_ids)
        vars(self).update(zip([f.name for f in fields(self)], stored))

    def _replace(self, **changes) -> Market:
        """A copy with ``changes`` in stored form; other fields are shared."""
        market = object.__new__(Market)
        vars(market).update({f.name: getattr(self, f.name) for f in fields(self)}, **changes)
        return market

    def _value(self) -> tuple:
        return self.capacities, self.prefs, self.priorities, self.student_ids, self.school_ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Market) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __reduce__(self):
        return Market, self._value()  # copies and unpickled markets are read-only too

    @property
    def n_students(self) -> int:
        return len(self.list_lengths)

    @property
    def n_schools(self) -> int:
        return len(self.capacities)

    @property
    def total_seats(self) -> int:
        return sum(self.capacities)

    @property
    def is_balanced(self) -> bool:
        """Total capacity equals the number of students."""
        return self.total_seats == self.n_students

    @property
    def has_full_lists(self) -> bool:
        """Every student ranks every school."""
        return bool((self.list_lengths == self.n_schools).all())

    # Cached derived views.  cached_property writes straight into
    # __dict__, which is fine on a frozen dataclass; the arrays are
    # marked read-only so sharing them cannot break immutability.

    @cached_property
    def prefs(self) -> tuple[tuple[int, ...], ...]:
        """Per student, the preference list as a tuple of school indices."""
        rows = zip(self.pref_array.tolist(), self.list_lengths.tolist())
        return tuple(tuple(row[:k]) for row, k in rows)

    @cached_property
    def priorities(self) -> tuple[tuple[int, ...], ...]:
        """Per school, the priority list as a tuple of student indices."""
        rows = zip(self.priority_array.tolist(), self.priority_lengths.tolist())
        return tuple(tuple(row[:k]) for row, k in rows)

    @cached_property
    def rank_table(self) -> np.ndarray:
        """(n, m) 1-based rank of each school for each student.

        Unranked schools get the sentinel m + 2, strictly above every
        effective rank (the worst effective rank is m + 1).  Raises
        ValueError if a list names a school outside 0..m-1.
        """
        return _lookup_table(self.pref_array, self.list_lengths, self.n_schools,
                             "student", "school")

    @cached_property
    def priority_table(self) -> np.ndarray:
        """(m, n) 1-based priority position of each student at each school.

        Students a school does not rank get the sentinel n + 2, strictly
        above the n + 1 cutoff used for vacant seats.  Raises ValueError
        if a list names a student outside 0..n-1.
        """
        return _lookup_table(self.priority_array, self.priority_lengths, self.n_students,
                             "school", "student")


@dataclass(frozen=True)
class Allocation:
    """Per-student school index, or UNASSIGNED."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(int(s) for s in self.assignment))

    @property
    def n_students(self) -> int:
        return len(self.assignment)

    @property
    def unassigned_count(self) -> int:
        return sum(1 for s in self.assignment if s == UNASSIGNED)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.assignment, dtype=np.int64)


def rank_of(market: Market, student: int, school: int) -> int:
    """1-based rank of ``school`` in the student's list.

    ``UNASSIGNED`` gets list length + 1 (the convention used throughout
    the statistics: being unassigned is one worse than the last ranked
    school).  Asking about a school the student never ranked raises
    UnrankedSchoolError; callers must treat such schools as unacceptable.
    """
    length = int(market.list_lengths[student])
    if school == UNASSIGNED:
        return length + 1
    if 0 <= school < market.n_schools and market.rank_table[student, school] <= length:
        return int(market.rank_table[student, school])
    raise UnrankedSchoolError(f"student {student} does not rank school {school}")


def effective_ranks(market: Market, allocation: Allocation) -> np.ndarray:
    """(n,) effective rank per student: realized rank, or k+1 if unassigned."""
    a = allocation.as_array()
    ranks = market.list_lengths + 1
    assigned = np.nonzero(a >= 0)[0]
    ranks[assigned] = market.rank_table[assigned, a[assigned]]
    return ranks


def _list_problems(lists: np.ndarray, lengths: np.ndarray, bound: int,
                   owner: str, item: str, list_name: str) -> list[str]:
    """Unknown and repeated ids, row by row in list order."""
    problems = []
    for i, (row, k) in enumerate(zip(lists.tolist(), lengths.tolist())):
        seen: set[int] = set()
        for x in row[:k]:
            if not 0 <= x < bound:
                problems.append(f"{owner} {i}: unknown {item} id {x}")
            elif x in seen:
                problems.append(f"{owner} {i}: duplicate {item} {x} in {list_name}")
            seen.add(x)
    return problems


def validate_market(market: Market) -> list[str]:
    """Every invariant violation with its location; empty list means ok.

    Violations are data, not errors: a malformed market is still a value
    you can inspect.
    """
    n, m = market.n_students, market.n_schools
    problems: list[str] = []
    for s, cap in enumerate(market.capacities):
        if cap < 1:
            problems.append(f"school {s}: capacity must be at least 1, got {cap}")
    problems += _list_problems(market.pref_array, market.list_lengths, m,
                               "student", "school", "preference list")
    if len(market.priority_lengths) != m:
        problems.append(f"priorities cover {len(market.priority_lengths)} schools, expected {m}")
    problems += _list_problems(market.priority_array, market.priority_lengths, n,
                               "school", "student", "priority list")
    for ids, count, name in ((market.student_ids, n, "student"), (market.school_ids, m, "school")):
        if len(ids) != count:
            problems.append(f"{name}_ids length does not match number of {name}s")
        elif any(a >= b for a, b in zip(ids, ids[1:])):
            problems.append(f"{name}_ids must be strictly increasing")
    return problems


def validate_allocation(market: Market, allocation: Allocation) -> list[str]:
    """Violations of the allocation invariants against ``market``."""
    problems: list[str] = []
    if allocation.n_students != market.n_students:
        problems.append(
            f"allocation covers {allocation.n_students} students, "
            f"market has {market.n_students}"
        )
        return problems
    filled = [0] * market.n_schools
    for t, s in enumerate(allocation.assignment):
        if s == UNASSIGNED:
            continue
        if not 0 <= s < market.n_schools:
            problems.append(f"student {t}: unknown school id {s}")
            continue
        filled[s] += 1
        if s not in market.prefs[t]:
            problems.append(f"student {t}: assigned school {s} they never ranked")
    for s, count in enumerate(filled):
        if count > market.capacities[s]:
            problems.append(
                f"school {s}: {count} students assigned, capacity {market.capacities[s]}"
            )
    return problems


def balance_capacities(market: Market) -> Market:
    """Shrink capacities until total seats equal the student count.

    Surplus seats are removed one at a time from the school with the
    largest remaining capacity (lowest index on ties), never reducing a
    school below one seat unless total demand forces it.  Preferences
    and priorities are untouched; the operation is idempotent.
    """
    surplus = market.total_seats - market.n_students
    if surplus < 0:
        raise UndersuppliedMarketError(
            f"undersupplied market: {market.total_seats} seats for "
            f"{market.n_students} students"
        )
    if surplus == 0:
        return market
    caps = list(market.capacities)
    for _ in range(surplus):
        pool = [s for s, c in enumerate(caps) if c > 1]
        if not pool:
            pool = [s for s, c in enumerate(caps) if c > 0]
        target = max(pool, key=lambda s: (caps[s], -s))
        caps[target] -= 1
    return market._replace(capacities=tuple(caps))


# Market file format (UTF-8 text):
#   [schools]     lines "school_id,capacity"
#   [students]    lines "student_id,pref1;pref2;..."
#   [priorities]  lines "school_id,stud1;stud2;..."   (section optional)
# save_market emits canonical ordering: ids ascending within each section.


def load_market(path: str | Path) -> Market:
    """Parse a market file; raises MarketFormatError with a line number."""
    # utf-8-sig: tolerate (and strip) a byte-order mark
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    schools: dict[int, int] = {}
    students: dict[int, list[int]] = {}
    priorities: dict[int, list[int]] = {}
    sections = {"[schools]": (schools, "school"), "[students]": (students, "student"),
                "[priorities]": (priorities, "priorities")}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line in sections:
            section = sections[line]
            continue
        if section is None:
            raise MarketFormatError(f"line {lineno}: content before any section header")
        head, sep, tail = line.partition(",")
        if not sep:
            raise MarketFormatError(f"line {lineno}: expected 'id,...', got {line!r}")
        try:
            ident = int(head)
        except ValueError:
            raise MarketFormatError(f"line {lineno}: bad id {head!r}") from None
        rows, label = section
        if ident in rows:
            raise MarketFormatError(f"line {lineno}: duplicate {label} row {ident}")
        try:
            rows[ident] = (int(tail) if rows is schools
                           else [int(tok) for tok in tail.split(";") if tok.strip()])
        except ValueError as exc:
            raise MarketFormatError(f"line {lineno}: {exc}") from None

    if not students:
        raise MarketFormatError("no students")
    if not schools:
        raise MarketFormatError("no schools")

    school_ids = sorted(schools)
    student_ids = sorted(students)
    for sid in priorities:
        if sid not in schools:
            raise MarketFormatError(f"priorities given for unknown school id {sid}")

    market = Market(
        capacities=[schools[sid] for sid in school_ids],
        prefs=_indices([students[tid] for tid in student_ids], student_ids, school_ids,
                       "student", "school"),
        priorities=_indices([priorities.get(sid, []) for sid in school_ids], school_ids,
                            student_ids, "school", "student"),
        student_ids=student_ids,
        school_ids=school_ids,
    )
    problems = validate_market(market)
    if problems:
        raise MarketFormatError("invalid market: " + "; ".join(problems))
    return market


def _indices(rows: list[list[int]], owners: list[int], ids: list[int],
             owner: str, item: str) -> list[list[int]]:
    """Lists of external ids mapped onto their positions in ``ids``."""
    position = {x: i for i, x in enumerate(ids)}
    try:
        return [[position[x] for x in row] for row in rows]
    except KeyError as exc:
        # the first unknown id stops the mapping inside the first row holding one
        bad = exc.args[0]
        who = next(w for w, row in zip(owners, rows) if bad in row)
        raise MarketFormatError(f"{owner} {who}: unknown {item} id {bad}") from None


def save_market(market: Market, path: str | Path) -> None:
    """Write ``market`` in the canonical file format (ids ascending)."""
    out = ["[schools]", *(f"{sid},{cap}" for sid, cap in zip(market.school_ids, market.capacities))]
    for header, owners, lists, ids in (
        ("[students]", market.student_ids, market.prefs, market.school_ids),
        ("[priorities]", market.school_ids, market.priorities, market.student_ids),
    ):
        out.append(header)
        out += [f"{who}," + ";".join(str(ids[x]) for x in row) for who, row in zip(owners, lists)]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
