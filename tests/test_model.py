import numpy as np
import pytest

from hazrates.grid import GridFunction
from hazrates.kernels import MarkovKernel, TwoPieceKernel
from hazrates.model import (
    CountingRow,
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
