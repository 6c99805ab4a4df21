import re

import numpy as np
import pytest

from hazrates.grid import MAX_NODES, NODE_TOL, GridFunction, cumulative, n_intervals


def test_constant_samples_all_nodes():
    f = GridFunction.constant(2.0, 0.5, 0.3)
    assert f.n_nodes == 5
    np.testing.assert_array_equal(f.values, np.full(5, 0.3))
    np.testing.assert_allclose(f.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_call_interpolates_linearly():
    f = GridFunction(1.0, 0.5, np.array([0.0, 1.0, 4.0]))
    assert f(0.25) == pytest.approx(0.5)
    assert f(0.75) == pytest.approx(2.5)
    out = f(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out, [0.0, 1.0, 4.0])


def test_call_rejects_out_of_range():
    f = GridFunction.constant(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        f(-0.1)
    with pytest.raises(ValueError):
        f(1.2)


def test_array_call_names_its_range_and_a_0d_array_gives_a_float():
    f = GridFunction.constant(3.0, 0.005, 1.0)
    message = "evaluation outside [0, 3.0]: got range [3.5, 3.5]"
    with pytest.raises(ValueError, match=re.escape(message)):
        f(np.array([3.5]))
    out = f(np.array(1.0))
    assert type(out) is float and out == 1.0


def test_call_clamps_past_last_node_when_tmax_off_grid():
    # t_max = 1.2 with step 0.5 has nodes at 0, 0.5, 1.0 only
    f = GridFunction(1.2, 0.5, np.array([1.0, 2.0, 3.0]))
    assert f(1.1) == pytest.approx(3.0)


def test_values_are_immutable_and_copied():
    vals = np.array([1.0, 2.0, 3.0])
    f = GridFunction(1.0, 0.5, vals)
    vals[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_validation_errors():
    with pytest.raises(ValueError):
        GridFunction(1.0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(1.0, 0.5, np.array([1.0, 2.0]))  # wrong length
    with pytest.raises(ValueError):
        GridFunction(1.0, 0.5, np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        GridFunction(-1.0, 0.5, np.array([1.0]))


def test_node_index():
    f = GridFunction.constant(2.0, 0.25, 0.0)
    assert f.node_index(0.0) == 0
    assert f.node_index(1.5) == 6
    with pytest.raises(ValueError):
        f.node_index(0.1)
    with pytest.raises(ValueError):
        f.node_index(2.25)


def test_cumulative_of_constant_is_linear():
    f = GridFunction.constant(2.0, 0.5, 0.4)
    c = cumulative(f)
    np.testing.assert_allclose(c.values, 0.4 * f.times)
    assert c.values[0] == 0.0


def test_cumulative_rejects_negative_values():
    f = GridFunction(1.0, 0.5, np.array([0.1, -0.2, 0.3]))
    with pytest.raises(ValueError):
        cumulative(f)


def test_node_limit():
    # counted from t_max / step: the refused grids are never made
    assert n_intervals(3.0, 1e-4) + 1 == 30_001
    assert n_intervals(MAX_NODES - 1, 1.0) + 1 == MAX_NODES
    for t_max, step in ((float(MAX_NODES), 1.0), (3.0, 1e-6), (3.0, 1e-9)):
        limit = f"t_max={t_max!r} at step={step!r} needs "
        with pytest.raises(ValueError, match=re.escape(limit) + f".* limit of {MAX_NODES}$"):
            n_intervals(t_max, step)
        with pytest.raises(ValueError, match=re.escape(limit)):
            GridFunction.constant(t_max, step, 0.3)


@pytest.mark.parametrize("t_max, step", [(3.0, 0.005), (3.0013, 0.005), (2.0, 0.1)])
def test_cell_read_is_np_interp_bit_for_bit(t_max, step):
    # 2e5 unsorted times, every node and one ulp either side of it, times
    # within NODE_TOL outside [0, t_max] (clipped, as callers clip) and
    # NaN; values of both signs and -0.0, which np.interp returns as it is
    # on a node; with t_max off the step, times past the last node
    rng = np.random.default_rng(8)
    f = GridFunction.constant(t_max, step, 0.0)
    values = rng.normal(size=f.n_nodes)
    values[rng.integers(0, f.n_nodes, size=f.n_nodes // 4)] = -0.0
    values[-1] = -0.0
    f = f.with_values(values)
    x = f.times
    t = np.concatenate([
        rng.uniform(-NODE_TOL, t_max + NODE_TOL, size=200_000),
        x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
        [-NODE_TOL, -0.0, t_max + NODE_TOL, np.nan],
    ])
    rng.shuffle(t)
    t = np.clip(t, 0.0, t_max)
    got = f.in_cell(f.cell_of(t), t)
    assert np.array_equal(got.view(np.int64), np.interp(t, x, f.values).view(np.int64))
    assert np.any((got == 0) & np.signbit(got)) and np.isnan(got).sum() == 1
    assert np.any(t > x[-1]) == (t_max > x[-1])
