import numpy as np
import pytest

from hazrates.grid import GridFunction
from hazrates.kernels import MarkovKernel, TwoPieceKernel
from hazrates.model import (
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
