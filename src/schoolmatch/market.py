"""Market and allocation primitives shared by every mechanism.

Students and schools are dense indices: students 0..n-1, schools 0..m-1.
Market files may use arbitrary integer ids; the loader maps them onto
indices (ascending id order) and keeps the original ids for round-tripping
and reporting.  All algorithmic code works on indices.

A market stores its lists as read-only int32 arrays padded with -1,
which mechanisms and metrics read directly and through the int32
``rank_table`` and ``priority_table``, and an allocation one read-only
int64 array; tuple views of both are built only when first read.  The
lists and tables of an n-student uniform market take 16 n^2 bytes.  A
list or assignment entry that does not convert exactly (a fraction, or
an id the narrower type would wrap) raises ValueError.

Each list is screened once per market, and its screen is both its
lookup table and its problems: the lookups raise the first problem and
``validate_market`` reports them all, so a loaded market hands the
mechanisms the tables its validation built.  The priority screen also
refuses priorities that do not cover exactly one list per school.
Ranks are read from ``rank_table``, ``effective_ranks`` and
``validate_allocation``; there is no per-student ``rank_of``.

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


def _exact(values: np.ndarray, dtype, owner: str, item: str, row_of) -> np.ndarray:
    """``values`` cast to a new ``dtype`` array.  An entry the cast would
    change (a fraction, or an id outside ``dtype``'s range) raises
    ValueError naming the first one in C order, whose owner is row
    ``row_of(flat index)``."""
    numbers = values if values.dtype.kind in "biuf" else values.astype(np.float64)
    with np.errstate(invalid="ignore"):
        cast = numbers.astype(dtype)
    changed = np.flatnonzero(cast != numbers)
    if changed.size:
        i = int(changed[0])
        raise ValueError(f"{owner} {row_of(i)}: {item} id {values.item(i)} "
                         f"does not convert exactly to {np.dtype(dtype)}")
    return cast


def _as_padded(lists, owner: str, item: str) -> tuple[np.ndarray, np.ndarray]:
    """Nested sequences, or a 2-D array of full-length lists, as
    (read-only int32 array padded with -1, read-only int64 list
    lengths).  A read-only int32 array over read-only memory is kept as
    it is; anything else is copied, so the caller cannot write to what
    the market stores, and an entry that is not an exact int32 raises
    ValueError naming its ``owner`` row."""
    if isinstance(lists, np.ndarray) and lists.ndim == 2:
        # a read-only view of an array the caller can still write is copied
        base = lists.base if isinstance(lists.base, np.ndarray) else lists
        keep = lists.dtype == np.int32 and not (lists.flags.writeable or base.flags.writeable)
        padded = lists if keep else _exact(lists, np.int32, owner, item,
                                           lambda i: i // lists.shape[1])
        lengths = np.full(padded.shape[0], padded.shape[1], dtype=np.int64)
    else:
        rows = list(lists)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        flat = _exact(np.array(list(chain.from_iterable(rows))), np.int32, owner, item,
                      lambda i: int(np.searchsorted(np.cumsum(lengths), i, side="right")))
        padded = np.full((len(rows), lengths.max(initial=0)), -1, dtype=np.int32)
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = flat
    padded.setflags(write=False)
    lengths.setflags(write=False)
    return padded, lengths


def _screen(lists: np.ndarray, lengths: np.ndarray, width: int,
            owner: str, item: str, list_name: str) -> tuple[np.ndarray, list[str]]:
    """(rows, width) int32 table of each id's 1-based position in the row's
    list, or width + 2 where the list leaves it out; and the unknown and
    repeated ids, row by row in list order.  Positions are scattered
    into a zeroed table, so a clean list fills one cell per entry and one
    count of nonzero cells screens every list.  Padding and unknown ids,
    when one reduction finds any, land in a spill column.  The table is
    read-only."""
    # negative ids (padding included) read as huge unsigned ones, so one
    # max finds every id outside 0..width-1
    spill = int(lists.view(np.uint32).max(initial=0) >= width)
    ids = np.where(lists.view(np.uint32) < width, lists, width) if spill else lists
    table = np.zeros((lists.shape[0], width + spill), dtype=np.int32)
    positions = np.arange(1, lists.shape[1] + 1, dtype=np.int32)
    np.put_along_axis(table, ids, positions[None, :], axis=1)
    table = table[:, :width]
    filled = np.count_nonzero(table)
    problems: list[str] = []
    if filled != lengths.sum():
        for i in np.flatnonzero(np.count_nonzero(table, axis=1) < lengths).tolist():
            seen: set[int] = set()
            for x in lists[i, :lengths[i]].tolist():
                if not 0 <= x < width:
                    problems.append(f"{owner} {i}: unknown {item} id {x}")
                elif x in seen:
                    problems.append(f"{owner} {i}: duplicate {item} {x} in {list_name}")
                seen.add(x)
    if filled < table.size:
        table[table == 0] = width + 2
    table.setflags(write=False)
    return table, problems


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
    (full lists).  They are stored as ``pref_array`` and
    ``priority_array`` (read-only int32, rows padded with -1) with
    ``list_lengths`` and ``priority_lengths`` (read-only int64).  A
    read-only int32 array over read-only memory is adopted without a
    copy; anything else is copied.  ``prefs`` and ``priorities`` are
    tuple views built on first access.  Construction refuses only an
    entry that does not convert exactly to int32 (ValueError); each
    list's screen, cached on first use, finds its other problems, which
    ``validate_market`` reports and the table lookups refuse, together
    with negative capacities.
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
        prefs = _as_padded(prefs, "student", "school")
        priorities = _as_padded(priorities, "school", "student")
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
    def _pref_screen(self) -> tuple[np.ndarray, list[str]]:
        """``_screen`` of the preference lists: rank table and problems."""
        return _screen(self.pref_array, self.list_lengths, self.n_schools,
                       "student", "school", "preference list")

    @cached_property
    def _priority_screen(self) -> tuple[np.ndarray, list[str]]:
        """``_screen`` of the priority lists, led by a wrong school count."""
        table, problems = _screen(self.priority_array, self.priority_lengths, self.n_students,
                                  "school", "student", "priority list")
        if len(self.priority_lengths) != self.n_schools:
            problems.insert(0, f"priorities cover {len(self.priority_lengths)} schools, "
                               f"expected {self.n_schools}")
        return table, problems

    @cached_property
    def rank_table(self) -> np.ndarray:
        """(n, m) int32 1-based rank of each school for each student.

        Unranked schools get the sentinel m + 2, strictly above every
        effective rank (the worst effective rank is m + 1).  Every
        mechanism reads it, so it raises ValueError for a negative
        capacity (zero seats are allowed) and for a list naming a school
        outside 0..m-1, or one twice, in ``validate_market``'s words.
        """
        for s, cap in enumerate(self.capacities):
            if cap < 0:
                raise ValueError(f"school {s}: negative capacity {cap}")
        table, problems = self._pref_screen
        if problems:
            raise ValueError(problems[0])
        return table

    @cached_property
    def priority_table(self) -> np.ndarray:
        """(m, n) int32 1-based priority position of each student at each school.

        Students a school does not rank get the sentinel n + 2, strictly
        above the n + 1 cutoff used for vacant seats.  Raises ValueError
        if the priorities do not cover exactly m schools, or a list names
        a student outside 0..n-1 or one twice.
        """
        table, problems = self._priority_screen
        if problems:
            raise ValueError(problems[0])
        return table


@dataclass(frozen=True, init=False, eq=False)
class Allocation:
    """Per-student school index, or UNASSIGNED.

    Any sequence or array is stored as ``assignment_array``, a read-only
    int64 copy; an entry that is not an exact int64 raises ValueError.
    ``assignment``, the tuple view through which allocations compare and
    hash, is built on first access."""

    assignment_array: np.ndarray

    def __init__(self, assignment) -> None:
        array = _exact(np.asarray(assignment), np.int64, "student", "school", lambda t: t)
        array.setflags(write=False)
        object.__setattr__(self, "assignment_array", array)

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash(self.assignment)

    def __reduce__(self):
        return Allocation, (self.assignment,)  # copies and unpickled ones are read-only too

    @cached_property
    def assignment(self) -> tuple[int, ...]:
        return tuple(self.assignment_array.tolist())

    @property
    def n_students(self) -> int:
        return len(self.assignment_array)


def effective_ranks(market: Market, allocation: Allocation) -> np.ndarray:
    """(n,) effective rank per student: realized rank, or k+1 if unassigned."""
    a = allocation.assignment_array
    ranks = market.list_lengths + 1
    assigned = np.nonzero(a >= 0)[0]
    ranks[assigned] = market.rank_table[assigned, a[assigned]]
    return ranks


def validate_market(market: Market) -> list[str]:
    """Every invariant violation with its location; empty list means ok.

    Violations are data, not errors: a malformed market is still a value
    you can inspect.
    """
    n, m = market.n_students, market.n_schools
    problems = [f"school {s}: capacity must be at least 1, got {cap}"
                for s, cap in enumerate(market.capacities) if cap < 1]
    problems += market._pref_screen[1] + market._priority_screen[1]
    for ids, count, name in ((market.student_ids, n, "student"), (market.school_ids, m, "school")):
        if len(ids) != count:
            problems.append(f"{name}_ids length does not match number of {name}s")
        elif any(a >= b for a, b in zip(ids, ids[1:])):
            problems.append(f"{name}_ids must be strictly increasing")
    return problems


def validate_allocation(market: Market, allocation: Allocation) -> list[str]:
    """Violations of the allocation invariants against ``market``, in
    student order and then school order.  Reads ``rank_table``, so a
    market whose own lists are flawed raises ValueError."""
    if allocation.n_students != market.n_students:
        return [f"allocation covers {allocation.n_students} students, "
                f"market has {market.n_students}"]
    a = allocation.assignment_array
    m = market.n_schools
    known = (a >= 0) & (a < m)
    seated = np.flatnonzero(known)
    unranked = seated[market.rank_table[seated, a[seated]] > market.list_lengths[seated]]
    flagged = np.union1d(np.flatnonzero(~known & (a != UNASSIGNED)), unranked).tolist()
    problems = [f"student {t}: unknown school id {a[t]}" if not known[t]
                else f"student {t}: assigned school {a[t]} they never ranked" for t in flagged]
    filled = np.bincount(a[seated], minlength=m).tolist()
    return problems + [f"school {s}: {count} students assigned, capacity {cap}"
                       for s, (count, cap) in enumerate(zip(filled, market.capacities))
                       if count > cap]


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
