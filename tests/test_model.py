import tracemalloc

import numpy as np
import pytest

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
    rows_as_arrays,
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
    assert back == rows

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
    cols = rows_as_arrays(rows)
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
    assert table == [CountingRow(7, 0.0, 0.1, 0, False), CountingRow(7, 0.1, 0.3, 1, True)]
    path.write_text("id,start,stop,treat,event\n")
    assert read_counting_rows(path) == []


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


def test_tables_read_as_record_sequences():
    rows = [
        CountingRow(5, 0.0, 1.0, 0, False),
        CountingRow(5, 1.0, 1.5, 1, True),
        CountingRow(6, 0.0, 2.0, 0, False),
    ]
    table = CountingTable.coerce(rows)
    assert CountingTable.coerce(table) is table
    assert len(table) == 3
    assert table[0] == rows[0] and table[-1] == rows[-1] and table[-3] == rows[0]
    assert table[1:] == rows[1:]
    assert list(table) == rows and table == rows and rows == table
    assert table != rows[:2] and table != CountingTable.coerce(rows[:2])
    assert table + rows[:1] == rows + rows[:1]
    assert type(table[0].id) is int and type(table[0].event) is bool
    with pytest.raises(IndexError):
        table[3]
    # rows_as_arrays hands out the table's own read-only arrays
    cols = rows_as_arrays(table)
    assert cols["start"] is table.start
    assert not table.start.flags.writeable

    trajectories = [Trajectory(0, None, 1.0, True), Trajectory(1, 0.25, 2.0, False, frailty=1.5)]
    cohort = Cohort.coerce(trajectories)
    assert cohort == trajectories and cohort == Cohort.coerce(trajectories)
    assert cohort[0].u_init is None and cohort[0].frailty is None
    assert cohort[-1].u_init == 0.25 and cohort[-1].frailty == 1.5


HEADER = "id,start,stop,treat,event"


def _old_write_counting_rows(rows, path):
    # the whole-file f-string writer the block writer replaced: the oracle
    col = rows_as_arrays(rows)
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
    assert read_counting_rows(tmp_path / "new.csv") == rows


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
    assert read_counting_rows(path) == [
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


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_write_of_1e5_subjects_runs_in_bounded_memory(rows_100k, tmp_path):
    _, peak = _traced_peak(lambda: write_counting_rows(rows_100k, tmp_path / "rows.csv"))
    # one block of rows at a time: the whole file's text would take about 28 MB
    assert peak < 4e6, f"write peaked at {peak / 1e6:.1f} MB"


def test_read_of_1e5_subjects_runs_in_bounded_memory(rows_100k, tmp_path):
    path = tmp_path / "rows.csv"
    write_counting_rows(rows_100k, path)
    back, peak = _traced_peak(lambda: read_counting_rows(path))
    # the parsed rows and the table's columns, never the file's text (about 23 MB with its lines)
    assert peak < 16e6, f"read peaked at {peak / 1e6:.1f} MB"
    assert back == rows_100k
