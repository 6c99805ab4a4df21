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

# Rows converted from the columns at a time: records when a table is
# iterated, and the lines of one block of bytes when write_csv writes
# rows.csv or one of the CLI's tables.
_CHUNK = 4096


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


# ---------------------------------------------------------------- CSV text
#
# numpy makes the text of a block of CSV rows: each field of a row is a few
# little-endian 64-bit words holding its text, NUL-padded, with room for its
# comma or line end in its last byte or two (_join puts them there and drops
# the NULs).  Three formatters make the words of a column: _int_words (%d),
# _float_words (%.6g) and _repr_words (repr); each leaves to Python's own
# formatting the values its fast path cannot prove.


def _words(strings: list[bytes], k: int = 1) -> np.ndarray:
    """(len(strings), k) little-endian 64-bit words holding each string,
    NUL-padded; no string may be longer than 8 * k.

    Byte j of a word is its bits 8j to 8j + 7, so shifting a word left by
    8 * j bits moves its text j places on.
    """
    return np.array(strings, dtype=f"S{8 * k}").view("<u8").reshape(len(strings), k)


def _width(text: list[bytes], longest: int = 0) -> int:
    """Words per field that hold the longest of text (at least ``longest``
    bytes) and a line end."""
    return (max([longest, *map(len, text)]) + 9) // 8


# The text of 0..999 in one word each: three digits, zero-padded, and
# its %d, whose length in bits is _INT_BITS; _ZEROS[v] counts the
# trailing zero digits of the three.  _DIGITS4 and _ZEROS4 are the same
# for the four digits of 0..9999.
_V = np.arange(1000)
_DIGITS = _words([b"%03d" % v for v in range(1000)])[:, 0].astype(np.uint64)
_INTS = _words([b"%d" % v for v in range(1000)])[:, 0]
_INT_BITS = (8 + 8 * (_V >= 10) + 8 * (_V >= 100)).astype(np.uint64)
_ZEROS = sum(_V % p == 0 for p in (10, 100, 1000))
_DIGITS4 = (_DIGITS[:, None] | (48 + _V[:10]).astype(np.uint64) << 24).ravel()
_ZEROS4 = ((1 + _ZEROS[:, None]).astype(np.uint8) * (_V[:10] == 0)).ravel()
_POW10 = 10.0 ** np.arange(21)  # exact doubles


def _int_words(v: np.ndarray) -> np.ndarray:
    """Words holding each of v's integers as %d, left-aligned, with room
    for a separator.

    A value 0 <= v < 10**9 is its leading group of one to three digits
    (_INTS) followed by its other groups of three (_DIGITS); any other
    value gets Python's own %d.
    """
    small = (v >= 0) & (v < 10**9)
    other = np.flatnonzero(~small)
    text = [b"%d" % i for i in v[other].tolist()]
    v = np.where(small, v, 0).astype(np.int64)
    k = _width(text, len(b"%d" % v.max(initial=0)))
    q = v // 1000
    top = q // 1000
    mid = q - 1000 * top
    low = v - 1000 * q
    millions, thousands = top > 0, q > 0
    lead = np.where(millions, top, np.where(thousands, mid, low))
    last = _DIGITS.take(low)
    tail = np.where(millions, _DIGITS.take(mid) | last << 24, np.where(thousands, last, 0))
    shift = _INT_BITS.take(lead)
    out = np.zeros((v.size, max(k, 2)), "<u8")
    out[:, 0] = _INTS.take(lead) | tail << shift
    out[:, 1] = tail >> 64 - shift
    out = out[:, :k]
    out[other] = _words(text, k)
    return out


def _kept_bytes(e: int, z: int) -> int:
    """How many bytes of six digits (the last z of them zeros), with the
    point after the first e + 1 of them when 0 <= e <= 4, %.6g writes at
    exponent e: no trailing zeros after the point, and no point with
    nothing after it."""
    digits = 6 - z
    if e < 0:
        return digits
    return digits + 1 if digits > e + 1 else e + 1


# Tables of the exponents e = -4..5 that %.6g writes in fixed notation.
# By e + 4: _LOW keeps the e + 1 digits before the point and _POINT puts
# the point after them (for e = 0..4; the six digits of another e hold
# no point).  By e + 4 + 10 * (x < 0): the text before the digits ("-",
# then "0." and -e - 1 zeros when e < 0) and its length in bits.  By
# 6 * (e + 4) + z: the mask of the _kept_bytes(e, z).
_LOW = np.array([(1 << 8 * e + 8) - 1 if 0 <= e <= 4 else 2**64 - 1 for e in range(-4, 6)], np.uint64)
_POINT = np.array([46 << 8 * e + 8 if 0 <= e <= 4 else 0 for e in range(-4, 6)], np.uint64)
_PREFIXES = [
    sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"") for sign in (b"", b"-") for e in range(-4, 6)
]
_PREFIX = _words(_PREFIXES)[:, 0].astype(np.uint64)
_SHIFT = np.array([8 * len(p) for p in _PREFIXES], np.uint64)
_KEEP = np.array([(1 << 8 * _kept_bytes(e, z)) - 1 for e in range(-4, 6) for z in range(6)], np.uint64)


def _float_words(x: np.ndarray) -> np.ndarray:
    """Two words holding each of x's values as %.6g, left-aligned: at most
    13 bytes, so a separator fits.

    A value of exponent e in -4..5 gets its six digits from rint(|x| *
    10**(5 - e)): the power of ten is exact, so the product is |x| *
    10**(5 - e) correctly rounded, and when it lies in [1e5, 999999.5)
    and more than 1e-7 from a half-integer (its rounding error is below
    1e-10 there) its rint is the digits %.6g rounds to.  They are laid
    out in fixed notation, trailing fraction zeros dropped.  Every other
    value (a near tie, exponent form, zero, nan, inf, a subnormal) gets
    Python's own %.6g.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        fast = (e >= -4) & (e <= 5)
        e = np.where(fast, e, 0).astype(np.intp)
        y = a * _POW10[5 - e]
        r = np.rint(y)
        fast &= (y >= 1e5) & (r < 1e6) & (np.abs(y - r) < 0.5 - 1e-7)
    n = np.where(fast, r, 1e5).astype(np.intp)
    hi = (n * 4294968) >> 32  # n // 1000 for n < 2**20
    lo = n - 1000 * hi
    digits = _DIGITS[hi] | (_DIGITS[lo] << np.uint64(24))
    i = e + 4
    low = _LOW[i]
    body = (digits & low) | _POINT[i] | ((digits & ~low) << np.uint64(8))
    body &= _KEEP[6 * i + _ZEROS[lo] + (lo == 0) * _ZEROS[hi]]
    i += 10 * (x < 0)
    shift = _SHIFT[i]
    out = np.empty((x.size, 2), "<u8")
    out[:, 0] = _PREFIX[i] | (body << shift)
    out[:, 1] = (body >> np.uint64(1)) >> (np.uint64(63) - shift)
    other = np.flatnonzero(~fast)
    out[other] = _words([b"%.6g" % v for v in x[other].tolist()], 2)
    return out


# Tables of the exponents e = -4..14 that repr writes in fixed notation,
# a column per e + 4: two words masking the digits before the point (e +
# 1 of them, none when e < 0), two words of the text put after them ("."
# when e >= 0, else "0." and -e - 1 zeros), its length in bytes, and the
# length of the shortest text (e + 1 digits and ".0"; none when e < 0).
# _BYTES[:, n] is the mask of the first n bytes of three words.
_E = np.arange(-4, 15)
_REPR = np.concatenate((
    _words([b"\xff" * (e + 1) for e in _E.tolist()], 2).T,
    _words([b"\0" * (e + 1) + b"." if e >= 0 else b"0." + b"0" * (-e - 1) for e in _E.tolist()], 2).T,
    np.array([np.where(_E >= 0, 1, 1 - _E), np.where(_E >= 0, _E + 3, 0)], np.uint64),
))
_BYTES = _words([b"\xff" * n for n in range(23)], 3).T.copy()
# 10**k = _POW10_HI[k] + _POW10_LO[k], halves of at most 26 bits (Veltkamp's split)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_FRACTION = np.uint64(2**52 - 1)


def _shortest_digits(x: np.ndarray):
    """(fast, e, s): where fast, x is positive with exponent e in -4..14,
    and s, zero-padded to 17 digits, holds the shortest digits that read
    back to x (the nearest such when several are shortest), as repr
    writes them.

    The digits come from the exact product x * 10**(16 - e) = hi + lo, a
    double-double (Dekker's TwoProduct with Veltkamp's split; the power
    of ten is exact), which lies in (1e16, 1e17) when e = floor(log10(x))
    is right.  Its integer part n and fraction f give its roundings to 17,
    16 and 15 digits.  A rounding d to 15 or 16 digits reads back exactly
    when d / 10**j == x: d is an exact double (d <= 2**53 or d even), so
    this one IEEE division is float() of its text.  The rounding interval
    of a value that is not a power of two is symmetric and narrower than
    the spacing of 15-digit decimals, so the shortest digits are the
    15-digit rounding if it reads back, else the 16-digit one if it reads
    back, else the 17-digit one.

    fast is false for zero, negatives, powers of two, subnormals, nan,
    inf, exponents outside -4..14 (repr writes some of them in exponent
    form), a wrong e, an exact tie of the 17- or 16-digit rounding, and
    an odd 16-digit rounding above 2**53.  f is exact except where lo is
    a small negative, and there it rounds monotonically, so no comparison
    of f (or of a remainder plus f) with a double lands on the wrong side
    of it, and an equal one falls back.  A 15-digit rounding needs no
    such fallback: a tie is 50 units of the 17th digit from both
    neighbours, and half the rounding interval spans at most 11 of them,
    so neither reads back.  No rounding carries into an 18th digit: a
    15- or 16-digit one of 10**(e + 1) reads back only from x = 10**(e +
    1), whose product is not below 1e17, and no double other than that
    lies within half a unit of the 17th digit of it.
    """
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(x))
    fast = (e >= -4) & (e <= 14) & (x.view(np.uint64) & _FRACTION != 0)
    e = np.where(fast, e, 0).astype(np.intp)
    x = np.where(fast, x, 1.5)
    k = 16 - e
    p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    hi = x * _POW10.take(k)
    split = x * 134217729.0
    x_hi = split - (split - x)
    x_lo = x - x_hi
    lo = x_hi * p_hi - hi + x_hi * p_lo + x_lo * p_hi + x_lo * p_lo
    fast &= (hi > 1e16) & (hi < 1e17)
    whole = np.floor(lo)
    f = lo - whole
    n = hi.astype(np.int64) + whole.astype(np.int64)
    q16 = n // 10
    q15 = n // 100
    r16 = (n - 10 * q16) + f
    fast &= (f != 0.5) & (r16 != 5)
    d15 = q15 + ((n - 100 * q15) + f > 50)
    d16 = q16 + (r16 > 5)
    short = d15 / _POW10.take(k - 2) == x
    fast &= short | (d16 <= 2**53) | (d16 & 1 == 0)
    s = np.where(short, 100 * d15, np.where(d16 / _POW10.take(k - 1) == x, 10 * d16, n + (f > 0.5)))
    return fast, e, np.where(fast, s, 10**16).astype(np.uint64)


def _digit_words(s: np.ndarray):
    """The 17 digits of each of s's values in three words, the first in
    byte 0, and how many of them are significant (trailing zeros
    dropped)."""
    first = s // 10**16
    upper = s // 10**8
    high = upper - first * 10**8
    low = s - upper * 10**8
    a = high // 10**4
    b = high - a * 10**4
    c = low // 10**4
    d = low - c * 10**4
    zeros = _ZEROS4.take(d)
    for group, full in ((c, 4), (b, 8), (a, 12)):
        zeros += (zeros == full) * _ZEROS4.take(group)
    w0 = _DIGITS4.take(a) | _DIGITS4.take(b) << 32
    w1 = _DIGITS4.take(c) | _DIGITS4.take(d) << 32
    return w0 << 8 | first + 48, w1 << 8 | w0 >> 56, w1 >> 56, 17 - zeros


def _repr_words(x: np.ndarray) -> np.ndarray:
    """Three or four words holding each of x's values as repr,
    left-aligned, with room for a separator.

    Where _shortest_digits finds repr's digits, they are laid out in
    fixed notation: the digits after those before the point move on to
    make room for the point, or for the "0." and zeros that lead a value
    below 1.  Every other value gets Python's own repr.
    """
    fast, e, s = _shortest_digits(x)
    t0, t1, t2, significant = _digit_words(s)
    low0, low1, put0, put1, put, shortest = (row.take(e + 4) for row in _REPR)
    moved0, moved1 = t0 & ~low0, t1 & ~low1
    bits = 8 * put
    back = 64 - bits
    keep0, keep1, keep2 = (row.take(np.maximum(significant + put, shortest)) for row in _BYTES)
    text = np.empty((x.size, 3), "<u8")
    text[:, 0] = (t0 & low0 | put0 | moved0 << bits) & keep0
    text[:, 1] = (t1 & low1 | put1 | moved1 << bits | moved0 >> back) & keep1
    text[:, 2] = (t2 << bits | moved1 >> back) & keep2

    other = np.flatnonzero(~fast)
    fallback = [b"%r" % v for v in x[other].tolist()]
    k = _width(fallback, 22)
    if k > 3:
        text = np.concatenate((text, np.zeros((x.size, k - 3), "<u8")), axis=1)
    text[other] = _words(fallback, k)
    return text


# a field's separator, in the last byte or two of its last word
_COMMA, _CRLF = np.uint64(44 << 56), np.uint64(13 << 48 | 10 << 56)


def _join(fields: list[np.ndarray]) -> bytearray:
    """The bytes of a block of CSV lines given as fields, one array of
    words per column: each field's comma or line end ORed into the last
    byte or two of its last word, then the NULs dropped.

    The words are joined into a bytearray's buffer, so the NULs are
    dropped from it with no copy of the words first.
    """
    ends = np.cumsum([w.shape[1] for w in fields]) - 1
    rows = fields[0].shape[0]
    buf = bytearray(8 * rows * (ends[-1] + 1))
    text = np.frombuffer(buf, "<u8").reshape(rows, -1)
    np.concatenate(fields, axis=1, out=text)
    del fields  # the only reference: the fields are freed once joined
    text[:, ends[:-1]] |= _COMMA
    text[:, ends[-1]] |= _CRLF
    return buf.translate(None, b"\0")


def write_csv(path, header: list[str], n: int, block) -> None:
    """Write a new CSV at path: the header line, then n rows.

    ``block(lo, hi)`` returns the fields of rows lo..hi-1 as a list with
    one array of words per column, as the formatters above make them, and
    _join makes their text.  block is called for one block of _CHUNK rows
    at a time, and a block's text is written before the next block's is
    made, so the text of at most one block exists at a time.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n, _CHUNK):
            fh.write(_join(block(lo, min(lo + _CHUNK, n))))


def write_counting_rows(rows: CountingTable, path) -> None:
    """Write rows as CSV with header id,start,stop,treat,event.

    Times are written as the shortest decimal string that reads back to
    the same float (repr), so read_counting_rows returns the rows
    exactly and no short interval collapses to zero length; ids, treat
    and event (0/1) are written as %d.  Output is fully deterministic so
    rewriting the same rows is byte-identical.

    Most times repeat: every subject's first start is 0.0, a treated
    subject's second start is its first stop, and censored stops sit at
    the horizon.  So each block of _CHUNK rows formats each distinct
    time once (_repr_words).  The block's starts and stops are made
    unique by their 64-bit patterns, not by value: two times with the
    same bits are the same double and have the same repr, so every row
    gets exactly the repr of its own time, and -0.0, whose bits differ
    from 0.0's, keeps its own "-0.0".
    """
    col = CountingTable.coerce(rows).columns
    ids, start, stop, treat, event = (col[name] for name in COUNTING_HEADER)

    def block(lo: int, hi: int) -> list[np.ndarray]:
        times = np.concatenate((start[lo:hi], stop[lo:hi]))
        bits, inverse = np.unique(times.view(np.int64), return_inverse=True)
        text = _repr_words(bits.view(np.float64))[inverse]
        m = hi - lo
        return [
            _int_words(ids[lo:hi]),
            text[:m],
            text[m:],
            _int_words(treat[lo:hi]),
            _int_words(event[lo:hi].view(np.uint8)),
        ]

    write_csv(path, COUNTING_HEADER, ids.size, block)


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
