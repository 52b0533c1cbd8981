"""Market and allocation primitives shared by every mechanism.

Students and schools are dense indices: students 0..n-1, schools 0..m-1.
Market files may use arbitrary integer ids; the loader maps them onto
indices (ascending id order) and keeps the original ids for round-tripping
and reporting.  All algorithmic code works on indices.

A market stores its lists only as read-only arrays padded with -1 and
as wide as the longest list, which mechanisms and metrics read directly
and through ``rank_table`` and ``priority_table``, and which copies and
pickles carry as they are.
An allocation is one read-only int64 array.  Each list array and
table is int16 when every value it holds fits, else int32, so the lists
and tables of an n-student uniform market take 8 n^2 bytes up to
n = 32 765.  A list or assignment entry, capacity or id that does not
convert exactly (a fraction, or an id the narrower type would wrap)
raises ValueError.

Each list is screened once per market, and its screen is both its
lookup table and its problems: the lookups raise the first problem and
``validate_market`` reports them all, so a loaded market hands the
mechanisms the tables its validation built.  The preference screen also
refuses a negative capacity (zero seats are allowed), and the priority
screen priorities that do not cover exactly one list per school.

``load_market`` parses list rows in blocks of about 32 K characters, and
``save_market`` writes them 4 K cells at a time, so no temporary spans
a file.

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
    "effective_ranks",
    "validate_market",
    "validate_allocation",
    "load_market",
    "save_market",
]

#: Sentinel used in ``Allocation.assignment`` for students without a seat.
UNASSIGNED = -1


class MarketFormatError(ValueError):
    """Market file cannot be parsed, or the parsed market is invalid."""


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


def _exact_int(value) -> int | None:
    """``value`` as a Python int, or None when int() refuses or changes it
    (a fraction, nan, inf or None)."""
    try:
        exact = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return exact if exact == value else None


def _exact_ints(values, owner: str, item: str) -> tuple[int, ...]:
    """``values`` as Python ints; the first one ``_exact_int`` refuses
    raises ValueError naming its ``owner`` index."""
    ints = []
    for i, v in enumerate(values):
        ints.append(_exact_int(v))
        if ints[-1] is None:
            raise ValueError(f"{owner} {i}: {item} {v} does not convert exactly to int")
    return tuple(ints)


def _int_type(largest: int) -> type:
    """The narrower of int16 and int32 that holds every value from
    -1 - ``largest`` to ``largest``: int16 while ``largest`` < 2**15."""
    return np.int16 if largest < 2**15 else np.int32


def _list_type(entries: np.ndarray) -> type:
    """``_int_type`` of int32-exact list ``entries`` and the -1 padding.
    int16 is the narrowest type, so int16 entries are not scanned."""
    if entries.dtype == np.int16:
        return np.int16
    return _int_type(max(int(entries.max(initial=0)), -1 - int(entries.min(initial=-1))))


def _as_padded(lists, owner: str, item: str) -> tuple[np.ndarray, np.ndarray]:
    """Nested sequences, or a 2-D array of full-length lists, as (array
    padded with -1 and as wide as the longest list, int64 list lengths).
    An entry that is not an exact int32 raises ValueError naming its
    ``owner`` row; the rest are stored in ``_list_type``.  A read-only
    array of that type over read-only memory an array owns is kept as
    it is; anything else is copied, so the caller cannot write to what
    the market stores.  A 2-D array with no rows is no lists, 0 wide."""
    if isinstance(lists, np.ndarray) and lists.ndim == 2 and len(lists):
        # copied: a read-only view of writable memory, or of a buffer no array owns
        base = lists.base if isinstance(lists.base, np.ndarray) else lists
        writable = lists.flags.writeable or base.flags.writeable or not base.flags.owndata
        exact = lists if lists.dtype in (np.int16, np.int32) else _exact(
            lists, np.int32, owner, item, lambda i: i // lists.shape[1])
        padded = exact.astype(_list_type(exact), copy=writable and exact is lists)
        lengths = np.full(padded.shape[0], padded.shape[1], dtype=np.int64)
        return padded, lengths
    rows = list(lists)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return _pad(_exact(np.array(list(chain.from_iterable(rows))), np.int32, owner, item,
                       lambda i: int(np.searchsorted(np.cumsum(lengths), i, side="right"))),
                lengths)


def _pad(flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lists laid end to end in int32-exact ``flat``, row i
    ``lengths[i]`` long, as (``_list_type`` array padded with -1 and as
    wide as the longest list, ``lengths``)."""
    padded = np.full((lengths.size, lengths.max(initial=0)), -1, dtype=_list_type(flat))
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = flat
    return padded, lengths


def _screen(lists: np.ndarray, lengths: np.ndarray, width: int,
            owner: str, item: str, list_name: str) -> tuple[np.ndarray, list[str]]:
    """(rows, width) table of each id's 1-based position in the row's
    list, or width + 2 where the list leaves it out, in the ``_int_type``
    of the larger of width + 2 and the list width; and the unknown and
    repeated ids, row by row in list order.  Positions are scattered
    into a zeroed table, so a clean list fills one cell per entry and one
    count of nonzero cells screens every list.  Padding and unknown ids,
    when one reduction finds any, land in a spill column.  The table is
    read-only."""
    # negative ids (padding included) read as unsigned ones of at least
    # 2**15 (int16) or 2**31 (int32), so one max against a bound capped
    # there finds every id outside 0..width-1, however wide the table
    unsigned = lists.view(f"u{lists.itemsize}")
    limit = min(width, np.iinfo(lists.dtype).max + 1)
    spill = int(unsigned.max(initial=0) >= limit)
    dtype = _int_type(max(width + 2, lists.shape[1]))
    ids = np.where(unsigned < limit, lists, dtype(width)) if spill else lists
    table = np.zeros((lists.shape[0], width + spill), dtype=dtype)
    positions = np.arange(1, lists.shape[1] + 1, dtype=dtype)
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
        defaulting, when empty, to 0..n-1 and 0..m-1.

    prefs and priorities may be nested sequences or 2-D integer arrays
    (full lists).  They are stored as ``pref_array`` and
    ``priority_array`` (rows padded with -1, as wide as the longest
    list; int16 when every entry fits, else int32) with ``list_lengths``
    and ``priority_lengths`` (int64), all read-only.  A read-only array
    already in that type over read-only memory is adopted without a
    copy; anything else is copied.  Construction refuses only a list
    entry, capacity or id that does not convert exactly to int32 or int
    (ValueError); each list's screen, cached on first use, finds its
    other problems, which ``validate_market`` reports and the table
    lookups refuse, together with negative capacities.
    """

    capacities: tuple[int, ...]
    pref_array: np.ndarray
    list_lengths: np.ndarray
    priority_array: np.ndarray
    priority_lengths: np.ndarray
    student_ids: tuple[int, ...]
    school_ids: tuple[int, ...]

    def __init__(self, capacities, prefs, priorities, student_ids=(), school_ids=()) -> None:
        capacities = _exact_ints(capacities, "school", "capacity")
        prefs = _as_padded(prefs, "student", "school")
        priorities = _as_padded(priorities, "school", "student")
        student_ids = _exact_ints(student_ids, "student", "id") or tuple(range(len(prefs[1])))
        school_ids = _exact_ints(school_ids, "school", "id") or tuple(range(len(capacities)))
        stored = (capacities, *prefs, *priorities, student_ids, school_ids)
        self.__setstate__(dict(zip([f.name for f in fields(self)], stored)))

    @classmethod
    def _of(cls, **stored) -> Market:
        """A market holding ``stored``, every field already in stored form:
        list arrays as wide as their longest list, in their ``_list_type``."""
        market = object.__new__(cls)
        market.__setstate__(stored)
        return market

    def _replace(self, **changes) -> Market:
        """A copy with ``changes`` in ``_of``'s stored form (list arrays as
        wide as their longest list); other fields are shared."""
        return Market._of(**{f.name: getattr(self, f.name) for f in fields(self)} | changes)

    def __eq__(self, other) -> bool:
        """Whether both hold the same capacities, ids and lists, whatever
        the arrays' integer types: stored lists are as wide as the longest
        one, so the same lists are equal arrays."""
        return isinstance(other, Market) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __hash__(self) -> int:
        return hash((self.capacities, self.student_ids, self.school_ids,
                     self.list_lengths.tobytes(), self.priority_lengths.tobytes()))

    def __reduce__(self):
        return Market._of, (), {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, stored: dict) -> None:
        """The one place a market's fields are set: each stored array is made read-only."""
        for value in stored.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(stored)

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
    def has_full_lists(self) -> bool:
        """Every student ranks every school."""
        return bool((self.list_lengths == self.n_schools).all())

    # Cached derived views.  cached_property writes straight into
    # __dict__, which is fine on a frozen dataclass; the arrays are
    # marked read-only so sharing them cannot break immutability.

    @cached_property
    def _pref_screen(self) -> tuple[np.ndarray, list[str]]:
        """``_screen`` of the preference lists, led by negative capacities
        (zero seats are allowed): rank table and problems."""
        table, problems = _screen(self.pref_array, self.list_lengths, self.n_schools,
                                  "student", "school", "preference list")
        return table, [f"school {s}: negative capacity {cap}"
                       for s, cap in enumerate(self.capacities) if cap < 0] + problems

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
        """(n, m) 1-based rank of each school for each student.

        Unranked schools get the sentinel m + 2, strictly above every
        effective rank (the worst effective rank is m + 1).  The table
        is int16 while m + 2 and the list width are below 2**15, else
        int32.  Every mechanism reads it, so it raises ValueError for a
        negative capacity (zero seats are allowed) and for a list naming
        a school outside 0..m-1, or one twice, in ``validate_market``'s
        words.
        """
        table, problems = self._pref_screen
        if problems:
            raise ValueError(problems[0])
        return table

    @cached_property
    def priority_table(self) -> np.ndarray:
        """(m, n) 1-based priority position of each student at each school.

        Students a school does not rank get the sentinel n + 2, strictly
        above the n + 1 cutoff used for vacant seats.  The table is int16
        while n + 2 and the list width are below 2**15, else int32.
        Raises ValueError if the priorities do not cover exactly m
        schools, or a list names a student outside 0..n-1 or one twice.
        """
        table, problems = self._priority_screen
        if problems:
            raise ValueError(problems[0])
        return table


@dataclass(frozen=True, init=False, eq=False)
class Allocation:
    """Per-student school index, or UNASSIGNED.

    Any sequence or array is stored as ``assignment``, a read-only int64
    copy through which allocations compare and hash; an entry that is
    not an exact int64 raises ValueError."""

    assignment: np.ndarray

    def __init__(self, assignment) -> None:
        array = _exact(np.asarray(assignment), np.int64, "student", "school", lambda t: t)
        array.setflags(write=False)
        object.__setattr__(self, "assignment", array)

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and np.array_equal(self.assignment, other.assignment)

    def __hash__(self) -> int:
        return hash(self.assignment.tobytes())

    def __reduce__(self):
        return Allocation, (self.assignment,)  # copies and unpickled ones are read-only too

    @property
    def n_students(self) -> int:
        return len(self.assignment)


def effective_ranks(market: Market, allocation: Allocation) -> np.ndarray:
    """(n,) effective rank per student: realized rank, or k+1 if unassigned.
    A wrong size or a school id outside 0..m-1 other than UNASSIGNED raises
    ValueError in ``validate_allocation``'s words; other flaws are scored."""
    a = allocation.assignment
    if allocation.n_students != market.n_students:
        raise ValueError(f"allocation covers {allocation.n_students} students, "
                         f"market has {market.n_students}")
    if a.min(initial=0) < UNASSIGNED or a.max(initial=UNASSIGNED) >= market.n_schools:
        t = int(np.argmax((a < UNASSIGNED) | (a >= market.n_schools)))
        raise ValueError(f"student {t}: unknown school id {a[t]}")
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
    problems = market._pref_screen[1] + market._priority_screen[1]
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
    a = allocation.assignment
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


# Market file format (UTF-8 text):
#   [schools]     lines "school_id,capacity"
#   [students]    lines "student_id,pref1;pref2;..."
#   [priorities]  lines "school_id,stud1;stud2;..."   (section optional)
# An id is what int() reads: an integer with an optional sign and
# surrounding spaces; blank list tokens are skipped.
# save_market emits canonical ordering: ids ascending within each section.


#: List characters parsed (a longer row is a block of its own), and list
#: cells written, at a time: no temporary of a load or save spans a file.
_BLOCK_CHARS, _BLOCK_CELLS = 1 << 15, 1 << 12


def load_market(path: str | Path) -> Market:
    """Parse a market file; raises MarketFormatError naming the first
    problem in file order, with its line number where it has one.  Each
    whole-file copy goes once it has been read: the bytes once decoded,
    each line once the line loop has taken its tail.  The loop keeps each
    list row's text for ``_read_lists`` to parse in blocks."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")  # tolerate a byte-order mark
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "|").splitlines())
        raise MarketFormatError(f"line {lineno}: not UTF-8 text "
                                f"(byte 0x{data[exc.start]:02x}: {exc.reason})") from None
    del data  # before the lines are split: at most two copies of the file at once
    lines = text.splitlines()
    del text
    schools: dict[int, int] = {}
    students: dict[int, tuple[int, str]] = {}  # id -> (line number, list text)
    priorities: dict[int, tuple[int, str]] = {}
    sections = {"[schools]": (schools, "school"), "[students]": (students, "student"),
                "[priorities]": (priorities, "priorities")}
    section = None
    try:
        for lineno, raw in enumerate(lines, start=1):
            lines[lineno - 1] = None  # the line goes once its tail is taken
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
            if rows is not schools:
                rows[ident] = (lineno, tail)
                continue
            try:
                rows[ident] = int(tail)
            except ValueError as exc:
                raise MarketFormatError(f"line {lineno}: {exc}") from None
        if not students:
            raise MarketFormatError("no students")
        if not schools:
            raise MarketFormatError("no schools")
        for sid in priorities:
            if sid not in schools:
                raise MarketFormatError(f"priorities given for unknown school id {sid}")
    except MarketFormatError:
        rows = [*students.values(), *priorities.values()]
        if bad := [problem for *_, found in _list_blocks(rows) for problem in found]:
            raise MarketFormatError("line {}: {}".format(*min(bad)))  # an earlier bad token wins
        raise

    school_ids = sorted(schools)
    student_ids = sorted(students)
    bad: list[tuple[int, str]] = []
    # popped, so that each section's text goes once it has been parsed
    prefs = _read_lists([students.pop(tid) for tid in student_ids], school_ids,
                        student_ids, "student", "school", bad)
    prios = _read_lists([priorities.pop(sid, (0, "")) for sid in school_ids], student_ids,
                        school_ids, "school", "student", bad)
    if bad:
        raise MarketFormatError("line {}: {}".format(*min(bad)))
    for *_, unknown in (prefs, prios):
        if unknown:
            raise MarketFormatError(unknown)

    market = Market._of(capacities=tuple(schools[sid] for sid in school_ids),
                        pref_array=prefs[0], list_lengths=prefs[1],
                        priority_array=prios[0], priority_lengths=prios[1],
                        student_ids=tuple(student_ids), school_ids=tuple(school_ids))
    problems = validate_market(market)
    if problems:
        raise MarketFormatError("invalid market: " + "; ".join(problems))
    return market


def _list_blocks(rows: list[tuple[int, str]]):
    """Per block of (line number, text) list ``rows`` (the rows whose
    text starts in one ``_BLOCK_CHARS`` window of the rows laid end
    to end, so at most about that long, or one longer row): (first row,
    ids laid end to end, list lengths, bad tokens), each token read as
    int() reads it, blank ones skipped.  Bad tokens are (line number,
    message) of each row holding a token int() refuses; a block with one
    reads no ids (None).

    One C-level parse reads every row, but on its own it would read a
    blank token as 0 and cap a 20-digit id at the int64 maximum.  So a
    row that is not 1- to 18-digit ASCII tokens joined by single ';'
    (which int64 holds exactly) is first read token by token and written
    back as its ids' decimal strings; if one of those needs 19 digits or
    more, the block's ids are read as Python ints instead.
    """
    chars = np.fromiter((len(text) + 1 for _, text in rows), dtype=np.int64, count=len(rows))
    cuts = (np.flatnonzero(np.diff((np.cumsum(chars) - chars) // _BLOCK_CHARS)) + 1).tolist()
    for start, stop in zip([0, *cuts], [*cuts, len(rows)]):
        texts = [text for _, text in rows[start:stop]]
        # every token ends at a ';' or at its row's '\n'
        raw = np.frombuffer("\n".join([*texts, ""]).encode(), dtype=np.uint8)
        newlines = np.flatnonzero(raw == ord("\n"))
        ends = np.flatnonzero((raw == ord(";")) | (raw == ord("\n")))
        sizes = np.diff(ends, prepend=-1) - 1
        odd = np.flatnonzero((raw - ord("0") > 9) & (raw != ord(";")) & (raw != ord("\n")))
        suspects = np.append(odd, ends[(sizes < 1) | (sizes > 18)])
        lengths = np.diff(np.searchsorted(ends, newlines, side="right"), prepend=0)
        bad, huge = [], False
        # sorted(set()), not np.unique: np.unique imports numpy.ma on first use
        for i in sorted(set(np.searchsorted(newlines, suspects).tolist())):
            lineno, text = rows[start + i]
            try:
                ints = [int(tok) for tok in text.split(";") if tok.strip()]
            except ValueError as exc:
                bad.append((lineno, str(exc)))
                continue
            texts[i], lengths[i] = ";".join(map(str, ints)), len(ints)
            huge = huge or max(map(abs, ints), default=0) >= 10**18
        joined = ";".join(filter(None, texts))
        if bad:
            ids = None
        elif huge:
            ids = np.array([int(tok) for tok in joined.split(";")], dtype=object)
        else:
            ids = np.fromstring(joined, dtype=np.int64, sep=";")
        yield start, ids, lengths, bad


def _read_lists(rows: list[tuple[int, str]], ids: list[int], owners: list[int],
                owner: str, item: str, bad: list) -> tuple[np.ndarray, np.ndarray, str | None]:
    """(array padded with -1 and as wide as the longest list, int64
    lengths, the first unknown id's message or None) of the (line
    number, text) list ``rows`` of ``owners``, each id mapped onto its
    position in the sorted, non-empty ``ids``, in the ``_list_type`` of
    the positions.  Each ``_list_blocks`` block is mapped through one
    lookup of ``ids`` straight into the array, which is widened when a
    block holds a longer list than any before it.  Bad tokens are added
    to ``bad``; once there is one, blocks are only screened."""
    padded = np.full((len(rows), 0), -1, dtype=_int_type(len(ids) - 1))
    lengths = np.zeros(len(rows), dtype=np.int64)
    lo, hi = ids[0], ids[-1]
    keys = np.array(ids, dtype=np.int64 if -2**63 <= lo and hi < 2**63 else object)
    if dense := keys.dtype == np.int64 and hi - lo < 8 * keys.size:  # one table lookup
        table = np.full(hi - lo + 1, -1, dtype=np.intp)
        table[keys - lo] = np.arange(keys.size)
    unknown = None
    for start, values, counts, block_bad in _list_blocks(rows):
        bad += block_bad
        if bad:
            continue
        k = keys if values.dtype == keys.dtype else keys.astype(object)  # ids past int64
        values = values.astype(k.dtype, copy=False)
        if dense and k is keys:
            found = table[np.clip(values, lo, hi) - lo]
        else:
            found = np.minimum(np.searchsorted(k, values), k.size - 1)
        found[k[found] != values] = -1
        lengths[start : start + counts.size] = counts
        if counts.max(initial=0) > padded.shape[1]:
            wider = np.full((len(rows), counts.max()), -1, dtype=padded.dtype)
            wider[:, : padded.shape[1]] = padded
            padded = wider
        width = padded.shape[1]
        heads = np.cumsum(counts) - counts  # each row's first token in the block
        if unknown is None and found.size and found.min() < 0:
            first = int(np.argmin(found))
            row = start + int(np.searchsorted(heads, first, side="right")) - 1
            unknown = f"{owner} {owners[row]}: unknown {item} id {values[first]}"
        # token j of row r goes to flat cell r * width + j
        offsets = np.arange(start, start + counts.size) * width - heads
        padded.reshape(-1)[np.arange(found.size) + np.repeat(offsets, counts)] = found
    padded = padded.astype(_list_type(padded), copy=False)
    return padded, lengths, unknown


def save_market(market: Market, path: str | Path) -> None:
    """Write ``market`` in the canonical file format (ids ascending),
    from the stored arrays ``_BLOCK_CELLS`` list cells at a time.  A
    market that ``validate_market`` flags, or with no students or no
    schools (which ``load_market`` refuses), raises ValueError unwritten."""
    empty = [f"no {who}" for who, count in (("students", market.n_students),
                                            ("schools", market.n_schools)) if not count]
    if problems := empty + validate_market(market):
        raise ValueError("cannot save an invalid market: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as out:
        out.write("[schools]\n")
        out.writelines(f"{sid},{cap}\n" for sid, cap in zip(market.school_ids, market.capacities))
        for header, owners, lists, lengths, ids in (
            ("[students]", market.student_ids, market.pref_array, market.list_lengths,
             market.school_ids),
            ("[priorities]", market.school_ids, market.priority_array, market.priority_lengths,
             market.student_ids),
        ):
            names, step = list(map(str, ids)), max(1, _BLOCK_CELLS // max(1, lists.shape[1]))
            out.write(header + "\n")
            for i in range(0, len(owners), step):
                rows = zip(owners[i : i + step], lists[i : i + step].tolist(),
                           lengths[i : i + step].tolist())
                out.write("".join([f"{who}," + ";".join(map(names.__getitem__, row[:k])) + "\n"
                                   for who, row, k in rows]))
