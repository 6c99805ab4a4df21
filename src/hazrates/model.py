"""Irreversible illness-death model and subject-level data tables.

States are 0 (alive, untreated), 1 (alive, treated) and 2 (dead).
Treatment initiation is the 0 -> 1 transition and is never reversed, so
a subject's treatment history is summarized by the initiation time u.
The 1 -> 2 hazard may depend on u, which is exactly what makes the
model non-Markov.

A simulated cohort and its counting-process rows are column tables
(``Cohort``, ``CountingTable``): one numpy array per field, validated
once per column when the table is built.  A table copies the arrays a
caller gives it, so the caller cannot change it afterwards; the tables
the package builds itself (the simulator's cohort and its rows) adopt
their freshly made columns without that copy.  Iterating a table yields
its record type (``Trajectory``, ``CountingRow``), made on demand a chunk
of columns at a time and not kept; a table supports no indexing, no
slicing and no equality with a list.  Wherever a table is taken, a list
of records is accepted too and made into a table by ``coerce``.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import NODE_TOL, GridFunction
from .kernels import HazardKernel

__all__ = [
    "IllnessDeathModel",
    "TreatmentPath",
    "Trajectory",
    "CountingRow",
    "Cohort",
    "CountingTable",
    "write_counting_rows",
    "read_counting_rows",
]

COUNTING_HEADER = ["id", "start", "stop", "treat", "event"]
_CSV_DTYPE = np.dtype(
    [("id", "i8"), ("start", "f8"), ("stop", "f8"), ("treat", "i8"), ("event", "i8")]
)

# Rows converted from the columns to Python values at a time: records
# when a table is iterated, CSV lines when write_csv writes rows.csv or
# one of the CLI's tables (a rows block formats its distinct times once).
_CHUNK = 4096

# The end of a counting-row CSV line, indexed by 2 * treat + event.
_TAILS = np.array([",0,0\r\n", ",0,1\r\n", ",1,0\r\n", ",1,1\r\n"], dtype=object)


@dataclass(frozen=True)
class IllnessDeathModel:
    """Transition hazards of the illness-death model on a common grid.

    lambda01: treatment initiation hazard (state 0 -> 1)
    lambda02: death hazard while untreated (state 0 -> 2)
    lambda12: death hazard after initiation at u (state 1 -> 2), a kernel
    """

    lambda01: GridFunction
    lambda02: GridFunction
    lambda12: HazardKernel

    def __post_init__(self) -> None:
        if not self.lambda01.same_grid(self.lambda02):
            raise ValueError("lambda01 and lambda02 must share the same grid")
        spec = self.lambda12.grid_spec()
        if spec is not None:
            k_tmax, k_step = spec
            if abs(k_step - self.step) > NODE_TOL or abs(k_tmax - self.t_max) > NODE_TOL:
                raise ValueError(
                    f"kernel grid ({k_tmax}, {k_step}) does not match "
                    f"hazard grid ({self.t_max}, {self.step})"
                )
        if np.any(self.lambda01.values < 0) or np.any(self.lambda02.values < 0):
            raise ValueError("transition hazards must be nonnegative")

    @property
    def t_max(self) -> float:
        return self.lambda01.t_max

    @property
    def step(self) -> float:
        return self.lambda01.step

    @property
    def times(self) -> np.ndarray:
        return self.lambda01.times


@dataclass(frozen=True)
class TreatmentPath:
    """Deterministic irreversible treatment history a(t) = 1{t >= u_init}.

    ``u_init=None`` is the never-treated path and ``u_init=0`` the
    always-treated one.
    """

    u_init: Optional[float]

    def __post_init__(self) -> None:
        u = self.u_init
        if u is not None and not (np.isfinite(u) and u >= 0):
            raise ValueError(f"u_init must be nonnegative, got {u!r}")

    @staticmethod
    def never() -> "TreatmentPath":
        return TreatmentPath(u_init=None)

    @staticmethod
    def always() -> "TreatmentPath":
        return TreatmentPath(u_init=0.0)

    @staticmethod
    def initiate_at(u: float) -> "TreatmentPath":
        return TreatmentPath(u_init=float(u))

    def level(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        if self.u_init is None:
            out = np.zeros(t_arr.shape, dtype=int)
        else:
            out = (t_arr >= self.u_init).astype(int)
        return int(out) if t_arr.ndim == 0 else out

    def load(self, cum0: GridFunction, kernel: HazardKernel, t):
        """Hazard integrated along the path, H0(min(t, u)) + K(u, max(t, u)).

        ``cum0`` is the untreated cumulative H0 and ``kernel.cumulative``
        gives K.  An initiation past the horizon of ``cum0`` counts as
        never treated.
        """
        u = self.u_init
        if u is None or u > cum0.t_max:
            return cum0(t)
        return cum0(np.minimum(t, u)) + kernel.cumulative(u, np.maximum(t, u))


@dataclass(frozen=True)
class Trajectory:
    """One simulated subject.

    ``u_init`` is None when the subject was never treated before leaving
    observation.  ``event`` is False for administrative censoring.
    ``frailty`` records the subject's multiplicative frailty draw when
    one was used.
    """

    id: int
    u_init: Optional[float]
    t_event: float
    event: bool
    frailty: Optional[float] = None

    def __post_init__(self) -> None:
        # a record holds exactly what its table would hold
        Cohort.coerce([self])


@dataclass(frozen=True)
class CountingRow:
    """One at-risk interval (start, stop] in counting-process form.

    ``treat`` is the treatment level carried on the interval; ``event``
    marks a death at ``stop``.
    """

    id: int
    start: float
    stop: float
    treat: int
    event: bool

    def __post_init__(self) -> None:
        # a record holds exactly what its table would hold
        CountingTable.coerce([self])


def _first_violation(rules):
    """(index, message) of the first item that breaks a rule, or None.

    ``rules`` pairs a boolean mask of the offending items with a function
    of an item's index that returns its message.  Of the rules that item
    breaks, the first listed gives the message.
    """
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(message(i) for mask, message in rules if mask[i])


class _Table:
    """Equal-length columns that iterate as records.

    Subclasses are frozen dataclasses whose fields are the columns, in
    the record type's field order.  ``_record`` is that type,
    ``_dtypes`` maps each column to its dtype, ``_optional`` names the
    float columns where NaN stands for a record field that is None, and
    ``_rules(columns)`` lists the per-record checks for
    ``_first_violation``.  The constructor copies its columns;
    ``_adopt`` takes the package's own without the copy.
    """

    _record: type
    _dtypes: dict
    _optional: tuple = ()

    def __post_init__(self) -> None:
        self._take_columns(copy=True)

    @classmethod
    def _adopt(cls, **columns):
        """A table of columns the package has just built for it.

        They run the constructor's checks, but a column that already has
        its dtype is taken as it is, not copied, and made read-only: the
        caller hands it over and must not write to it again.
        """
        table = object.__new__(cls)
        for name in cls._dtypes:
            object.__setattr__(table, name, columns[name])
        table._take_columns(copy=False)
        return table

    def _take_columns(self, copy: bool) -> None:
        """Cast, check and freeze the columns; copy them if ``copy``."""
        n = None
        for name, dtype in self._dtypes.items():
            given = np.asarray(getattr(self, name))
            col = np.array(given, dtype=dtype) if copy else np.asarray(given, dtype=dtype)
            if col.ndim != 1 or (n is not None and col.size != n):
                raise ValueError("columns must be 1-d arrays of equal length")
            # a cast to int or bool must not change a value (0.5 -> 0, 2 -> True)
            if given.dtype != col.dtype and col.dtype.kind in "bi" and np.any(col != given):
                bad = given[np.argmax(col != given)].item()
                raise ValueError(f"{name} must hold {col.dtype} values, got {bad!r}")
            n = col.size
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        found = _first_violation(self._rules(self.columns))
        if found is not None:
            raise ValueError(found[1])

    @classmethod
    def coerce(cls, items):
        """``items`` itself when it is this table, else a table of its records' fields."""
        if isinstance(items, cls):
            return items
        items = list(items)
        columns = {}
        for name in cls._dtypes:
            values = [getattr(x, name) for x in items]
            if name in cls._optional:
                values = [np.nan if v is None else v for v in values]
            columns[name] = values
        return cls(**columns)

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The table's own (read-only) column arrays, by field name."""
        return {name: getattr(self, name) for name in self._dtypes}

    def __len__(self) -> int:
        return self.id.size

    def _cached(self, name: str, make):
        """``make()``, computed on the first call for ``name`` and kept.

        Tables are immutable, so what is derived from the columns stays
        valid for the table's life.  Only tuples of column-derived arrays
        are kept this way (the estimators' risk table), made read-only;
        records never are.
        """
        value = self.__dict__.get(name)
        if value is None:
            value = make()
            for a in value:
                a.flags.writeable = False
            object.__setattr__(self, name, value)
        return value

    def __iter__(self):
        """Yield the records, made from Python values of the columns.

        The columns were validated when the table was built, so records
        are made without running their __init__ and its checks again.
        Values are converted a chunk at a time and no record is kept:
        each pass makes new ones.
        """
        record, names, n = self._record, tuple(self._dtypes), len(self)
        # object.__setattr__ keeps the fields inline, as __init__ does;
        # filling obj.__dict__ instead would give each record a dict.
        new, set_field = object.__new__, object.__setattr__
        for first in range(0, n, _CHUNK):
            values = []
            for name, col in self.columns.items():
                col = col[first:min(first + _CHUNK, n)]
                if name in self._optional:
                    boxed = col.astype(object)
                    boxed[np.isnan(col)] = None
                    col = boxed
                values.append(col.tolist())
            for fields in zip(*values):
                obj = new(record)
                for name, value in zip(names, fields):
                    set_field(obj, name, value)
                yield obj

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return all(
                _same_column(col, getattr(other, name), name in self._optional)
                for name, col in self.columns.items()
            )
        return NotImplemented


def _same_column(a: np.ndarray, b: np.ndarray, equal_nan: bool) -> bool:
    """Equal columns, zeros of a float column with the same sign too:
    -0.0 == 0.0, but the rows CSV writes them differently."""
    if not np.array_equal(a, b, equal_nan=equal_nan):
        return False
    if a.dtype.kind != "f":
        return True
    zero = a == 0
    return np.array_equal(np.signbit(a[zero]), np.signbit(b[zero]))


@dataclass(frozen=True, eq=False)
class Cohort(_Table):
    """Simulated subjects as columns; iterating it yields Trajectory records.

    ``u_init`` is NaN for a subject never treated and ``frailty`` is NaN
    when no frailty was drawn; the records carry None there.
    """

    id: np.ndarray
    u_init: np.ndarray
    t_event: np.ndarray
    event: np.ndarray
    frailty: np.ndarray

    _record = Trajectory
    _dtypes = {"id": np.int64, "u_init": float, "t_event": float, "event": bool, "frailty": float}
    _optional = ("u_init", "frailty")

    @staticmethod
    def _rules(col):
        u, t = col["u_init"], col["t_event"]
        treated = ~np.isnan(u)
        return [
            (
                ~(np.isfinite(t) & (t > 0)),
                lambda i: f"t_event must be positive and finite, got {float(t[i])!r}",
            ),
            (
                treated & ~(np.isfinite(u) & (u >= 0)),
                lambda i: f"u_init must be nonnegative, got {float(u[i])!r}",
            ),
            (
                treated & ~(u < t),
                lambda i: f"u_init={float(u[i])!r} must precede t_event={float(t[i])!r}",
            ),
        ]


@dataclass(frozen=True, eq=False)
class CountingTable(_Table):
    """Counting-process rows as columns; iterating it yields CountingRow records."""

    id: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    treat: np.ndarray
    event: np.ndarray

    _record = CountingRow
    _dtypes = {"id": np.int64, "start": float, "stop": float, "treat": np.int64, "event": bool}

    @staticmethod
    def _rules(col):
        start, stop, treat = col["start"], col["stop"], col["treat"]
        return [
            (~(np.isfinite(start) & np.isfinite(stop)), lambda i: "start and stop must be finite"),
            (
                ~(start < stop),
                lambda i: f"need start < stop, got ({float(start[i])!r}, {float(stop[i])!r}]",
            ),
            (start < 0, lambda i: f"start must be nonnegative, got {float(start[i])!r}"),
            ((treat != 0) & (treat != 1), lambda i: f"treat must be 0 or 1, got {int(treat[i])!r}"),
        ]


def _history_rules(col):
    """Checks that each subject's rows form one history.

    In start order a subject's intervals must not overlap, only the last
    may carry the event, and no untreated row may follow a treated one
    (initiation is irreversible).  Each rule flags the row that breaks
    it: the later of two overlapping rows, the row with the early event,
    the untreated row.  Rows already in (id, start) order, as written,
    skip the sort, whose stable result is then the identity.
    """
    ids, start, stop, treat, event = (col[name] for name in COUNTING_HEADER)
    ordered = (ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (start[1:] >= start[:-1]))
    order = np.arange(ids.size) if ordered.all() else np.lexsort((start, ids))
    prev, nxt = order[:-1], order[1:]
    same = ids[prev] == ids[nxt]

    def flag(rows: np.ndarray) -> np.ndarray:
        mask = np.zeros(ids.size, dtype=bool)
        mask[rows] = True
        return mask

    return [
        (
            flag(nxt[same & (start[nxt] < stop[prev])]),
            lambda i: f"subject {int(ids[i])}: interval ({float(start[i])!r}, "
            f"{float(stop[i])!r}] overlaps an earlier interval of the subject",
        ),
        (
            flag(prev[same & event[prev]]),
            lambda i: f"subject {int(ids[i])}: event at {float(stop[i])!r} is not on "
            "the subject's last row",
        ),
        (
            flag(nxt[same & (treat[prev] == 1) & (treat[nxt] == 0)]),
            lambda i: f"subject {int(ids[i])}: untreated row after a treated one "
            "(treatment is irreversible)",
        ),
    ]


def write_csv(path, header: list[str], line: str, n: int, block) -> None:
    """Write a new CSV at path: the header, then n rows as ``line % row``.

    ``line`` is a %-format template with one field per column and its
    own line end; ``block(lo, hi)`` returns the fields of rows lo..hi-1
    as one Python list per column.  One %-format runs per block of _CHUNK
    rows, and a block's strings are freed before the next block's are
    made, so Python values exist for at most one block at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CHUNK):
            fields = block(lo, min(lo + _CHUNK, n))
            k, m = len(fields), len(fields[0])
            flat = [None] * (k * m)
            for j in range(k):
                flat[j::k] = fields[j]
            del fields
            fh.write((line * m) % tuple(flat))
            del flat


def write_counting_rows(rows: CountingTable, path) -> None:
    """Write rows as CSV with header id,start,stop,treat,event.

    Times are written as the shortest decimal string that reads back to
    the same float (``%r``), so read_counting_rows returns the rows
    exactly and no short interval collapses to zero length; event is
    0/1.  Output is fully deterministic so rewriting the same rows is
    byte-identical.

    Most times repeat: every subject's first start is 0.0, a treated
    subject's second start is its first stop, and censored stops sit at
    the horizon.  So each block of _CHUNK rows reprs each distinct time
    once.  The block's starts and stops are made unique by their 64-bit
    patterns, not by value: two times with the same bits are the same
    double and have the same repr, so every row gets exactly the ``%r``
    string of its own time, and -0.0, whose bits differ from 0.0's,
    keeps its own "-0.0".  treat and event are written as one of four
    preformatted line tails.
    """
    col = CountingTable.coerce(rows).columns
    ids, start, stop, treat, event = (col[name] for name in COUNTING_HEADER)

    def block(lo: int, hi: int) -> list[list]:
        times = np.concatenate((start[lo:hi], stop[lo:hi]))
        bits, inverse = np.unique(times.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        text = text[inverse].tolist()
        m = hi - lo
        tails = _TAILS[2 * treat[lo:hi] + event[lo:hi]].tolist()
        return [ids[lo:hi].tolist(), text[:m], text[m:], tails]

    write_csv(path, COUNTING_HEADER, "%d,%s,%s%s", ids.size, block)


_INT64 = np.iinfo(np.int64)


def _parse_int64(field: str) -> int:
    """``int(field)``, rejecting values outside int64 as np.loadtxt does."""
    value = int(field)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{field.strip()} does not fit in a 64-bit integer")
    return value


def _data_lines(fh):
    """(line number, text) of each data line of the open CSV, blank ones too.

    Rereads the file from its start, splitting lines as np.loadtxt sees
    them; only the error paths call it, to name a line.
    """
    fh.seek(0)
    fh.readline()
    for lineno, line in enumerate(fh, start=2):
        yield lineno, line.rstrip("\r\n")


def _parse_error(fh, exc: ValueError) -> ValueError:
    """The error for the first data line that does not parse.

    Runs only after np.loadtxt has rejected the file, to name the line.
    """
    kinds = (_parse_int64, float, float, _parse_int64, _parse_int64)
    for lineno, line in _data_lines(fh):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(kinds):
            return ValueError(f"line {lineno}: expected {len(kinds)} fields, got {len(fields)}")
        try:
            for kind, field in zip(kinds, fields):
                # loadtxt strips what str.strip does, but unlike int and
                # float rejects digit separators and non-ASCII digits
                field = field.strip()
                if "_" in field or not field.isascii():
                    raise ValueError(f"could not convert string {field!r} to a number")
                kind(field)
        except ValueError as err:
            return ValueError(f"line {lineno}: {err}")
    return ValueError(f"cannot parse rows: {exc}")


def _load_rows(fh) -> np.ndarray:
    """The data rows after the header line of the open CSV.

    numpy reads them by the file's path, a chunk at a time, with no
    Python object per line.  The path is made absolute (not normalized:
    "link/.." is what the system resolves), so numpy cannot take it for
    a URL to fetch.  A file named by bytes or a descriptor, or whose name
    ends .gz, .bz2, .xz or .lzma, which numpy would decompress, is passed
    open instead and read a line at a time.  numpy skips every blank
    line, and a file with no rows reads as an empty table.
    """
    by_path = isinstance(fh.name, str) and not fh.name.endswith((".gz", ".bz2", ".xz", ".lzma"))
    source, skip = (os.path.join(os.getcwd(), fh.name), 1) if by_path else (fh, 0)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(source, dtype=_CSV_DTYPE, delimiter=",", comments=None, skiprows=skip, ndmin=1)
    except ValueError as exc:
        raise _parse_error(fh, exc) from exc


def read_counting_rows(path) -> CountingTable:
    """Read a counting-process CSV written by write_counting_rows.

    numpy reads the rows by the file's path, a chunk at a time, with no
    Python object per line (_load_rows names the exceptions).
    Each row must pass CountingRow's checks and have event 0 or 1, and
    each subject's rows must form one history (see _history_rules).
    Errors name the offending line as "line N: ...", counting blank
    lines.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        header = line.rstrip("\r\n").split(",") if line else None
        if header != COUNTING_HEADER:
            raise ValueError(
                f"unexpected header {header!r}; want {COUNTING_HEADER!r}"
            )
        rec = _load_rows(fh)
        col = {name: rec[name] for name in COUNTING_HEADER}
        event = col["event"]
        col["event"] = event == 1
        bad_event = (
            (event != 0) & (event != 1),
            lambda i: f"event must be 0 or 1, got {int(event[i])!r}",
        )
        found = _first_violation(CountingTable._rules(col) + [bad_event] + _history_rules(col))
        if found is not None:
            i, message = found
            # the i-th nonblank data line: loadtxt skips blank ones
            nonblank = (lineno for lineno, text in _data_lines(fh) if text)
            lineno = next(itertools.islice(nonblank, i, None))
            raise ValueError(f"line {lineno}: {message}")
    return CountingTable(**col)
