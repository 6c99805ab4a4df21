import numpy as np
import pytest

from conftest import searchsorted_crossing

from hazrates.numerics import _BLOCK, SolverConfig, first_crossing


def _invert(values, step, e):
    t, _ = first_crossing(lambda node, rows: values[node], values.size, step, e)
    return t


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, max_iter=0)


def test_invert_monotone_vectorized():
    values = np.array([0.0, 1.0, 1.0, 2.0])
    out = _invert(values, 0.5, np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]))
    np.testing.assert_allclose(out[:2], [0.0, 0.25])
    # first crossing of the flat stretch at exactly 1.0 is its left edge
    assert out[2] == pytest.approx(0.5)
    assert out[3] == pytest.approx(1.25)
    assert out[4] == pytest.approx(1.5)  # reached only at the last node
    assert np.isnan(out[5])


def test_crossing_time_at_the_edges():
    values = np.array([0.5, 1.0, 2.0, 4.0])
    e = np.array([0.0, 0.5, 1.0, 1.5, 4.0, 4.5])
    out = _invert(values, 0.25, e)
    # node 0 already reaches 0 and 0.5; a node value gives that node's
    # time exactly; a value past the last node gives NaN
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == 0.25 and out[4] == 0.75
    assert out[3] == pytest.approx(0.375, abs=1e-15)
    assert np.isnan(out[5])


@pytest.mark.parametrize("n_nodes", [1, 2, 601, 1025])
def test_first_crossing_matches_searchsorted(n_nodes):
    rng = np.random.default_rng(n_nodes)
    for _ in range(50):
        steps = rng.exponential(size=n_nodes)
        steps[rng.random(n_nodes) < 0.3] = 0.0  # plateaus
        values = np.cumsum(steps) + rng.normal()
        e = np.concatenate([
            rng.uniform(values[0] - 1.0, values[-1] + 1.0, size=200),  # also outside the range
            rng.choice(values, size=50),  # on node values
            [values[0], values[-1], np.nextafter(values[-1], np.inf)],
        ])
        step = rng.uniform(0.001, 0.1)
        want = searchsorted_crossing(values, step, e)
        t, cell = first_crossing(lambda node, rows: values[node], values.size, step, e)
        assert np.array_equal(t, want, equal_nan=True)
        want_cell = np.clip(np.searchsorted(values, e, side="left"), 1, n_nodes - 1) - 1
        assert np.array_equal(cell, want_cell)


def test_first_crossing_reads_each_block_of_entries_at_its_rows():
    # e spans two whole blocks and a remainder; each entry has its own
    # node function values + z * slope, with z read at [rows], and every
    # entry must get the crossing of its own function
    rng = np.random.default_rng(18)
    n_nodes, step = 601, 0.005
    values = np.cumsum(rng.exponential(size=n_nodes))
    slope = np.cumsum(rng.exponential(size=n_nodes))
    levels = np.array([0.0, 0.5, 1.0, 2.5])
    z = rng.choice(levels, size=2 * _BLOCK + 123)
    e = rng.uniform(values[0] - 1.0, values[-1] + 2.0 * slope[-1], size=z.size)
    t, cell = first_crossing(
        lambda node, rows: values[node] + z[rows] * slope[node], n_nodes, step, e
    )
    for level in levels:
        own = values + level * slope
        at = z == level
        assert np.array_equal(t[at], searchsorted_crossing(own, step, e[at]), equal_nan=True)
        want_cell = np.clip(np.searchsorted(own, e[at], side="left"), 1, n_nodes - 1) - 1
        assert np.array_equal(cell[at], want_cell)
