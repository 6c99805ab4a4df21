import numpy as np
import pytest

from conftest import traced_peak

from hazrates.grid import GridFunction
from hazrates.kernels import MarkovKernel, TwoPieceKernel
from hazrates.model import (
    _CHUNK,
    COUNTING_HEADER,
    Cohort,
    CountingRow,
    CountingTable,
    IllnessDeathModel,
    Trajectory,
    read_counting_rows,
    write_counting_rows,
)


def test_model_grid_agreement():
    lam01 = GridFunction.constant(3.0, 0.005, 0.3)
    lam02 = GridFunction.constant(3.0, 0.005, 0.6)
    kernel = TwoPieceKernel(0.4, 0.2, 1.0)
    m = IllnessDeathModel(lam01, lam02, kernel)
    assert m.t_max == 3.0
    assert m.step == 0.005
    assert m.times.size == 601

    with pytest.raises(ValueError):
        IllnessDeathModel(lam01, GridFunction.constant(3.0, 0.01, 0.6), kernel)

    mismatched = MarkovKernel(GridFunction.constant(2.0, 0.005, 0.5))
    with pytest.raises(ValueError):
        IllnessDeathModel(lam01, lam02, mismatched)

    with pytest.raises(ValueError):
        IllnessDeathModel(lam01, GridFunction.constant(3.0, 0.005, -0.1), kernel)


def test_trajectory_validation():
    Trajectory(id=0, u_init=None, t_event=1.0, event=True)
    Trajectory(id=1, u_init=0.0, t_event=2.0, event=False, frailty=1.3)
    with pytest.raises(ValueError):
        Trajectory(id=2, u_init=None, t_event=0.0, event=True)
    with pytest.raises(ValueError):
        Trajectory(id=3, u_init=2.0, t_event=2.0, event=True)
    with pytest.raises(ValueError):
        Trajectory(id=4, u_init=-0.5, t_event=1.0, event=True)


def test_counting_row_validation():
    CountingRow(id=0, start=0.0, stop=1.0, treat=0, event=True)
    with pytest.raises(ValueError):
        CountingRow(id=0, start=1.0, stop=1.0, treat=0, event=False)
    with pytest.raises(ValueError):
        CountingRow(id=0, start=-0.1, stop=1.0, treat=0, event=False)
    with pytest.raises(ValueError):
        CountingRow(id=0, start=0.0, stop=1.0, treat=2, event=False)


def test_csv_round_trip(tmp_path):
    rows = [
        CountingRow(0, 0.0, 1.25, 0, False),
        CountingRow(0, 1.25, 2.875, 1, True),
        CountingRow(1, 0.0, 3.0, 0, False),
        # initiation at 3e-7 and a treated interval 1e-9 long: both
        # vanish if times are rounded to a fixed number of decimals
        CountingRow(2, 0.0, 3e-7, 0, False),
        CountingRow(2, 3e-7, 3e-7 + 1e-9, 1, True),
    ]
    path = tmp_path / "rows.csv"
    write_counting_rows(rows, path)
    back = read_counting_rows(path)
    assert list(back) == rows

    # rewriting must be byte-identical
    first = path.read_bytes()
    write_counting_rows(back, path)
    assert path.read_bytes() == first


def test_read_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("start,stop\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_counting_rows(path)

    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_counting_rows(path)

    path.write_text("id,start,stop,treat,event\n0,0.0,abc,0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_counting_rows(path)

    path.write_text("id,start,stop,treat,event\n0,2.0,1.0,0,1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_counting_rows(path)

    # each subject's rows must form one history: no overlapping
    # intervals, the event on the last row only, no untreated row after
    # a treated one
    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0,0\n0,0.5,2.0,1,1\n")
    with pytest.raises(ValueError, match="line 3: subject 0: .* overlaps"):
        read_counting_rows(path)

    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0,1\n0,1.0,2.0,1,0\n")
    with pytest.raises(ValueError, match="line 2: subject 0: event"):
        read_counting_rows(path)

    path.write_text("id,start,stop,treat,event\n0,1.0,2.0,0,0\n1,0.0,1.0,0,0\n0,0.0,1.0,1,0\n")
    with pytest.raises(ValueError, match="line 2: subject 0: untreated row after a treated"):
        read_counting_rows(path)

    # line numbers count blank lines
    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0,1\n\n1,2.0,1.0,0,1\n")
    with pytest.raises(ValueError, match="line 4"):
        read_counting_rows(path)


def test_rows_as_arrays():
    rows = [
        CountingRow(5, 0.0, 1.0, 0, False),
        CountingRow(5, 1.0, 1.5, 1, True),
    ]
    cols = CountingTable.coerce(rows).columns
    np.testing.assert_array_equal(cols["id"], [5, 5])
    np.testing.assert_allclose(cols["stop"], [1.0, 1.5])
    np.testing.assert_array_equal(cols["treat"], [0, 1])
    np.testing.assert_array_equal(cols["event"], [False, True])
    assert cols["event"].dtype == bool


def test_read_names_the_physical_line_of_a_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0,1\n\n\n1,0.0,abc,0,1\n")
    with pytest.raises(ValueError, match="line 5: could not convert string to float: 'abc'"):
        read_counting_rows(path)
    path.write_text("id,start,stop,treat,event\n0,0.0,1.0,0,1\n\n1,0.0,1.0,0\n")
    with pytest.raises(ValueError, match="line 4: expected 5 fields, got 4"):
        read_counting_rows(path)


def test_read_gives_a_table_of_exact_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("id,start,stop,treat,event\r\n7,0.0,0.1,0,0\r\n\r\n7,0.1,0.3,1,1\r\n")
    table = read_counting_rows(path)
    assert isinstance(table, CountingTable)
    assert list(table) == [CountingRow(7, 0.0, 0.1, 0, False), CountingRow(7, 0.1, 0.3, 1, True)]
    path.write_text("id,start,stop,treat,event\n")
    assert list(read_counting_rows(path)) == []


def _error(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


def test_table_columns_are_validated_like_records():
    ok = dict(id=[0, 1], u_init=[np.nan, 0.5], t_event=[1.0, 2.0], event=[True, False],
              frailty=[np.nan, np.nan])
    Cohort(**ok)
    for column, values, record in [
        ("t_event", [1.0, 0.0], lambda: Trajectory(1, 0.5, 0.0, False)),
        ("u_init", [np.nan, 2.0], lambda: Trajectory(1, 2.0, 2.0, False)),
        ("u_init", [np.nan, -0.5], lambda: Trajectory(1, -0.5, 2.0, False)),
    ]:
        assert _error(lambda: Cohort(**{**ok, column: values})) == _error(record)

    ok = dict(id=[0, 0], start=[0.0, 1.0], stop=[1.0, 2.0], treat=[0, 1], event=[False, True])
    CountingTable(**ok)
    for column, values, record in [
        ("stop", [1.0, 1.0], lambda: CountingRow(0, 1.0, 1.0, 1, True)),
        ("start", [-0.1, 1.0], lambda: CountingRow(0, -0.1, 1.0, 0, False)),
        ("start", [np.nan, 1.0], lambda: CountingRow(0, np.nan, 1.0, 0, False)),
        ("treat", [0, 2], lambda: CountingRow(0, 1.0, 2.0, 2, True)),
    ]:
        assert _error(lambda: CountingTable(**{**ok, column: values})) == _error(record)
    with pytest.raises(ValueError, match="equal length"):
        CountingTable(**{**ok, "treat": [0]})


def test_table_columns_reject_values_the_cast_would_change():
    ok = dict(id=[0, 0], start=[0.0, 1.0], stop=[1.0, 2.0], treat=[0, 1], event=[False, True])
    for column, values in [("id", [0.7, 0.0]), ("treat", [0.5, 1.0]), ("event", [0, 2])]:
        with pytest.raises(ValueError, match=f"{column} must hold"):
            CountingTable(**{**ok, column: values})
    with pytest.raises(ValueError, match="event must hold bool"):
        Cohort(id=[0], u_init=[np.nan], t_event=[1.0], event=[0.5], frailty=[np.nan])
    # values the cast keeps exactly are accepted from any dtype
    table = CountingTable(**{**ok, "id": [0.0, 0.0], "treat": [0.0, 1.0], "event": [0, 1]})
    assert table == CountingTable(**ok)


def test_records_reject_values_their_table_rejects():
    for build, message in [
        (lambda: CountingRow(0, 0.0, 1.0, 0, 2), "event must hold bool values, got 2"),
        (lambda: CountingRow(1.5, 0.0, 1.0, 0, True), "id must hold int64 values, got 1.5"),
        (lambda: Trajectory(0, None, 1.0, 3), "event must hold bool values, got 3"),
    ]:
        assert _error(build) == message


def test_tables_iterate_as_records():
    rows = [
        CountingRow(5, 0.0, 1.0, 0, False),
        CountingRow(5, 1.0, 1.5, 1, True),
        CountingRow(6, 0.0, 2.0, 0, False),
    ]
    table = CountingTable.coerce(rows)
    assert CountingTable.coerce(table) is table
    assert len(table) == 3
    assert list(table) == rows
    assert table == CountingTable.coerce(rows) and table != CountingTable.coerce(rows[:2])
    first = next(iter(table))
    assert type(first.id) is int and type(first.event) is bool
    # a table's columns are its own read-only arrays
    cols = table.columns
    assert cols["start"] is table.start
    assert not table.start.flags.writeable

    trajectories = [Trajectory(0, None, 1.0, True), Trajectory(1, 0.25, 2.0, False, frailty=1.5)]
    cohort = Cohort.coerce(trajectories)
    assert list(cohort) == trajectories and cohort == Cohort.coerce(trajectories)
    first, last = cohort
    assert first.u_init is None and first.frailty is None
    assert last.u_init == 0.25 and last.frailty == 1.5


HEADER = "id,start,stop,treat,event"


def _old_write_counting_rows(rows, path):
    # the whole-file f-string writer the block writer replaced: the oracle
    col = CountingTable.coerce(rows).columns
    columns = (col["id"], col["start"], col["stop"], col["treat"], col["event"].astype(np.int64))
    text = "".join([
        f"{i},{start!r},{stop!r},{treat},{event}\r\n"
        for i, start, stop, treat, event in zip(*(c.tolist() for c in columns))
    ])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COUNTING_HEADER) + "\r\n")
        fh.write(text)


def _random_rows(n, seed):
    """n rows, one per subject, with times over many orders of magnitude."""
    rng = np.random.default_rng(seed)
    start = rng.exponential(size=n) * 10.0 ** rng.integers(-9, 3, n)
    start[::3] = 0.0
    stop = start + rng.exponential(size=n) * 10.0 ** rng.integers(-9, 3, n)
    stop = np.maximum(stop, np.nextafter(start, np.inf))
    return CountingTable(
        id=rng.permutation(np.arange(n) * 7919 - 2**62),
        start=start,
        stop=stop,
        treat=rng.integers(0, 2, n),
        event=rng.integers(0, 2, n).astype(bool),
    )


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_block_writer_matches_the_whole_file_writer(tmp_path, n):
    table = _random_rows(n, seed=n)
    write_counting_rows(table, tmp_path / "new.csv")
    _old_write_counting_rows(table, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert read_counting_rows(tmp_path / "new.csv") == table


def test_block_writer_keeps_short_intervals(tmp_path):
    # the 3e-7 initiation and 1e-9 interval of test_csv_round_trip, at a block edge
    short = [CountingRow(2, 0.0, 3e-7, 0, False), CountingRow(2, 3e-7, 3e-7 + 1e-9, 1, True)]
    rows = list(_random_rows(_CHUNK - 1, seed=3)) + short
    write_counting_rows(rows, tmp_path / "new.csv")
    _old_write_counting_rows(rows, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert list(read_counting_rows(tmp_path / "new.csv")) == rows


def _edge_rows():
    """_CHUNK + 2 one-row subjects whose times repeat, within a block, across
    the block edge and between starts and stops, with a start of -0.0."""
    n = _CHUNK + 2
    col = {name: c.copy() for name, c in _random_rows(n, seed=11).columns.items()}
    ids, start, stop, treat, event = (col[name] for name in COUNTING_HEADER)
    start[0], start[1] = -0.0, 0.0
    # a start equal to another subject's stop, in the same block
    start[2] = stop[5]
    stop[2] = start[2] + 1.0
    # one time repeated within the first block, on both sides of the edge
    # between rows _CHUNK - 1 and _CHUNK, and as a start in the second block
    t = 1.2345678901234567
    for i in (3, 4, _CHUNK - 1, _CHUNK):
        start[i], stop[i] = t / 3, t
    start[_CHUNK + 1], stop[_CHUNK + 1] = t, 2 * t
    treat[:4], event[:4] = [0, 0, 1, 1], [False, True, False, True]
    ids[0], ids[1] = 2**62 + 1, -(2**62) - 1
    return CountingTable(**col)


def test_block_writer_writes_repeated_and_signed_times_as_repr(tmp_path):
    table = _edge_rows()
    assert len(set(zip(table.treat.tolist(), table.event.tolist()))) == 4
    write_counting_rows(table, tmp_path / "new.csv")
    _old_write_counting_rows(table, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a table read back from the file writes the same bytes again
    back = read_counting_rows(tmp_path / "new.csv")
    write_counting_rows(back, tmp_path / "back.csv")
    _old_write_counting_rows(back, tmp_path / "old_back.csv")
    assert (tmp_path / "back.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "old_back.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_a_start_of_minus_zero_reads_back_with_its_sign(tmp_path):
    rows = CountingTable(
        id=np.array([1, 2]),
        start=np.array([-0.0, 0.0]),
        stop=np.array([1.0, 1.0]),
        treat=np.array([0, 0]),
        event=np.array([False, True]),
    )
    path = tmp_path / "rows.csv"
    write_counting_rows(rows, path)
    assert path.read_text().splitlines()[1:] == ["1,-0.0,1.0,0,0", "2,0.0,1.0,0,1"]
    back = read_counting_rows(path)
    # table equality compares values, and -0.0 == 0.0: compare the bits
    assert np.array_equal(back.start.view(np.int64), rows.start.view(np.int64))
    assert np.signbit(back.start).tolist() == [True, False]


def test_tables_that_differ_only_in_the_sign_of_a_zero_are_unequal():
    # the two write different rows.csv bytes: 1,-0.0,... against 1,0.0,...
    def table(start):
        return CountingTable(
            id=np.array([1, 2]),
            start=np.array([start, 0.0]),
            stop=np.array([1.0, 1.0]),
            treat=np.array([0, 0]),
            event=np.array([False, True]),
        )

    assert table(-0.0) != table(0.0)
    assert table(-0.0) == table(-0.0)
    assert table(0.0) == table(0.0)


@pytest.mark.parametrize(
    "text",
    [
        f"{HEADER}\n7,0.0,0.1,0,0\n7,0.1,0.3,1,1\n",
        f"{HEADER}\r\n7,0.0,0.1,0,0\r\n7,0.1,0.3,1,1\r\n",
        f"{HEADER}\r7,0.0,0.1,0,0\r7,0.1,0.3,1,1\r",
        f"{HEADER}\r\n\r\n\n7,0.0,0.1,0,0\r\n\n\r\n7,0.1,0.3,1,1\r\n\r\n\n",
        f"{HEADER}\n7,0.0,0.1,0,0\n7,0.1,0.3,1,1",
    ],
    ids=["lf", "crlf", "cr", "blank-lines", "no-final-newline"],
)
def test_read_accepts_line_ends_and_blank_lines(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    assert list(read_counting_rows(path)) == [
        CountingRow(7, 0.0, 0.1, 0, False),
        CountingRow(7, 0.1, 0.3, 1, True),
    ]


@pytest.mark.parametrize(
    "text",
    [HEADER, f"{HEADER}\n", f"{HEADER}\r\n\r\n\n"],
    ids=["no-line-end", "line-end", "blank-lines"],
)
def test_read_of_a_file_without_rows_gives_an_empty_table(tmp_path, text):
    # the warnings gate in pyproject.toml turns loadtxt's "no data" warning into an error
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    table = read_counting_rows(path)
    assert isinstance(table, CountingTable) and len(table) == 0


@pytest.mark.parametrize(
    "data, message",
    [
        ("0,0.0,1.0,0\n", "line 2: expected 5 fields, got 4"),
        ("0,0.0,abc,0,1\n", "line 2: could not convert string to float: 'abc'"),
        ("0,0.0,1.0,x,1\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("0,2.0,1.0,0,1\n", "line 2: need start < stop, got (2.0, 1.0]"),
        ("0,0.0,inf,0,1\n", "line 2: start and stop must be finite"),
        ("0,-0.5,1.0,0,1\n", "line 2: start must be nonnegative, got -0.5"),
        ("0,0.0,1.0,2,1\n", "line 2: treat must be 0 or 1, got 2"),
        (
            "0,0.0,1.0,0,0\n0,0.5,2.0,1,1\n",
            "line 3: subject 0: interval (0.5, 2.0] overlaps an earlier interval of the subject",
        ),
        (
            "0,0.0,1.0,0,1\n0,1.0,2.0,1,0\n",
            "line 2: subject 0: event at 1.0 is not on the subject's last row",
        ),
        (
            "0,1.0,2.0,0,0\n0,0.0,1.0,1,0\n",
            "line 2: subject 0: untreated row after a treated one (treatment is irreversible)",
        ),
        # rows that parse but hold an event other than 0/1 or an integer past int64
        ("0,0.0,1.0,0,0\n\n1,0.0,1.0,0,2\n", "line 4: event must be 0 or 1, got 2"),
        ("0,0.0,1.0,0,0\n\n1,0.0,1.0,0,-1\n", "line 4: event must be 0 or 1, got -1"),
        # fields Python's int and float read but loadtxt does not: digit
        # separators and non-ASCII digits
        *[
            (
                "0,0.0,1.0,0,1\n\n" + bad + "\n",
                f"line 4: could not convert string {field!r} to a number",
            )
            for bad, field in [
                ("1,0.0,1_0.0,0,1", "1_0.0"),
                ("1_0,0.0,1.0,0,1", "1_0"),
                ("1,0.0,\uff11.0,0,1", "\uff11.0"),
            ]
        ],
        # loadtxt takes a field padded with whitespace that float alone does not
        (
            "0,0.0,1.0\x1c,0,1\n\n1,0.0,abc,0,1\n",
            "line 4: could not convert string to float: 'abc'",
        ),
        *[
            (
                "0,0.0,1.0,0,1\n\n" + bad + "\n",
                "line 4: 99999999999999999999 does not fit in a 64-bit integer",
            )
            for bad in [
                "99999999999999999999,0.0,1.0,0,1",
                "1,0.0,1.0,99999999999999999999,1",
                "1,0.0,1.0,0,99999999999999999999",
            ]
        ],
    ],
)
def test_read_error_messages(tmp_path, data, message):
    path = tmp_path / "rows.csv"
    path.write_text(f"{HEADER}\n{data}")
    with pytest.raises(ValueError) as info:
        read_counting_rows(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "bad, message",
    [("0.0,1.0,2,0", "treat must be 0 or 1, got 2"), ("0.0,abc,0,0", "could not convert")],
)
def test_read_names_the_line_of_an_error_past_the_first_block(tmp_path, bad, message):
    n, k = 3 * _CHUNK, 2 * _CHUNK + 5
    lines = [f"{i},0.0,1.0,0,0" for i in range(n)]
    lines[k] = f"{k},{bad}"
    path = tmp_path / "rows.csv"
    # three blank lines up front and one after each block of rows
    blocks = ["\n".join(lines[lo:lo + _CHUNK]) for lo in range(0, n, _CHUNK)]
    path.write_text(HEADER + "\n\n\n\n" + "\n\n".join(blocks) + "\n")
    lineno = 1 + 3 + k + 1 + k // _CHUNK
    with pytest.raises(ValueError, match=f"^line {lineno}: {message}"):
        read_counting_rows(path)


def test_write_of_1e5_subjects_runs_in_bounded_memory(rows_100k, tmp_path):
    _, peak = traced_peak(lambda: write_counting_rows(rows_100k, tmp_path / "rows.csv"))
    # one block of rows at a time: the whole file's text would take about 28 MB
    assert peak < 4e6, f"write peaked at {peak / 1e6:.1f} MB"


def test_read_of_1e5_subjects_runs_in_bounded_memory(rows_100k, tmp_path):
    path = tmp_path / "rows.csv"
    write_counting_rows(rows_100k, path)
    back, peak = traced_peak(lambda: read_counting_rows(path))
    # the parsed rows and the table's columns, never the file's text (about 23 MB with its lines)
    assert peak < 16e6, f"read peaked at {peak / 1e6:.1f} MB"
    assert back == rows_100k
