import numpy as np
import pytest

from conftest import searchsorted_crossing

from hazrates.grid import NODE_TOL, GridFunction, n_intervals
from hazrates.kernels import (
    GridKernel,
    HazardKernel,
    MarkovKernel,
    TwoPieceKernel,
)


@pytest.fixture
def two_piece():
    return TwoPieceKernel(early=0.4, late=0.2, lag=1.0)


class TestTwoPiece:
    def test_value_switches_after_lag(self, two_piece):
        assert two_piece.value(1.5, 1.0) == 0.4
        assert two_piece.value(2.5, 1.0) == 0.2
        # elapsed duration equal to the lag still counts as early
        assert two_piece.value(2.0, 1.0) == 0.4

    def test_value_vectorized(self, two_piece):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(
            two_piece.value(t, 0.0), [0.4, 0.4, 0.4, 0.2]
        )

    def test_value_rejects_t_before_u(self, two_piece):
        with pytest.raises(ValueError):
            two_piece.value(0.5, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPieceKernel(early=-0.1, late=0.2, lag=1.0)
        with pytest.raises(ValueError):
            TwoPieceKernel(early=0.4, late=np.inf, lag=1.0)

    def test_cumulative_closed_form(self, two_piece):
        assert two_piece.cumulative(0.0, 0.5) == pytest.approx(0.2)
        assert two_piece.cumulative(0.0, 1.0) == pytest.approx(0.4)
        assert two_piece.cumulative(0.0, 3.0) == pytest.approx(0.8)
        assert two_piece.cumulative(1.2, 1.2) == 0.0
        np.testing.assert_allclose(
            two_piece.cumulative(1.0, np.array([1.5, 2.0, 2.5])),
            [0.2, 0.4, 0.5],
        )

    def test_invert_cumulative(self, two_piece):
        assert two_piece.invert_cumulative(0.0, 0.4) == pytest.approx(1.0)
        assert two_piece.invert_cumulative(0.0, 0.8) == pytest.approx(3.0)
        assert two_piece.invert_cumulative(1.0, 0.3) == pytest.approx(1.75)
        assert two_piece.invert_cumulative(0.7, 0.0) == 0.7
        with pytest.raises(ValueError):
            two_piece.invert_cumulative(0.0, -0.1)

    def test_invert_round_trip(self, two_piece):
        e = np.linspace(0.0, 1.2, 25)
        t = two_piece.invert_cumulative(0.3, e)
        np.testing.assert_allclose(
            two_piece.cumulative(0.3, t), e, atol=1e-12
        )

    def test_zero_early_piece(self):
        k = TwoPieceKernel(early=0.0, late=0.2, lag=1.0)
        assert k.invert_cumulative(0.5, 0.1) == pytest.approx(2.0)
        assert k.cumulative(0.5, 2.0) == pytest.approx(0.1)

    def test_zero_late_piece_can_never_reach(self):
        k = TwoPieceKernel(early=0.4, late=0.0, lag=1.0)
        assert k.invert_cumulative(0.0, 0.39) == pytest.approx(0.975)
        assert k.invert_cumulative(0.0, 0.5) == np.inf

    def test_huge_lag_does_not_warn_on_the_late_branch(self):
        # the late branch overflows, and is not the one returned
        assert TwoPieceKernel(0.4, 0.2, 1e308).invert_cumulative(0.5, 0.1) == 0.75

    def test_subnormal_late_piece_reaches_past_the_float_range(self):
        # 0.6 / 1e-310 exceeds the largest float, so the crossing is at inf
        assert TwoPieceKernel(0.4, 1e-310, 1.0).invert_cumulative(0.0, 1.0) == np.inf

    def test_grids_match_elementwise_calls(self, two_piece):
        times = np.arange(7) * 0.5
        vg = two_piece.value_grid(times)
        cg = two_piece.cumulative_grid(times)
        for i, t in enumerate(times):
            for j, u in enumerate(times):
                if t < u:
                    continue
                assert vg[i, j] == two_piece.value(t, u)
                assert cg[i, j] == pytest.approx(two_piece.cumulative(u, t))

    def test_no_grid_spec(self, two_piece):
        assert two_piece.grid_spec() is None

    @pytest.mark.parametrize("step", [0.005, 0.001])
    def test_lag_on_a_grid_node_is_early_at_every_node_pair(self, two_piece, step):
        # t_i - t_j rounds to either side of lag = 200 (or 1000) steps;
        # the boundary is early, in the grid forms and the scalar form
        times = np.arange(n_intervals(3.0, step) + 1) * step
        k = np.subtract.outer(np.arange(times.size), np.arange(times.size))
        within = (k >= 0) & (k <= round(two_piece.lag / step))
        assert np.all(two_piece.value_grid(times)[within] == two_piece.early)
        np.testing.assert_allclose(
            two_piece.cumulative_grid(times)[within],
            two_piece.early * k[within] * step,
            rtol=1e-14,
        )
        i, j = np.nonzero(k == round(two_piece.lag / step))
        assert np.all(two_piece.value(times[i], times[j]) == two_piece.early)


class TestMarkov:
    @pytest.fixture
    def markov(self):
        times = GridFunction.constant(3.0, 0.05, 0.0).times
        rate = GridFunction(3.0, 0.05, 0.1 + 0.2 * times)
        return MarkovKernel(rate)

    def test_value_ignores_initiation_time(self, markov):
        assert markov.value(2.0, 0.0) == markov.value(2.0, 1.7)
        assert markov.value(2.0, 0.0) == pytest.approx(0.5)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            MarkovKernel(GridFunction.constant(1.0, 0.5, -0.2))

    def test_cumulative_matches_closed_form(self, markov):
        # rate is linear in t, so the grid trapezoid is exact
        want = 0.1 * (2.5 - 0.5) + 0.1 * (2.5**2 - 0.5**2)
        assert markov.cumulative(0.5, 2.5) == pytest.approx(want, abs=1e-12)
        with pytest.raises(ValueError):
            markov.cumulative(2.0, 1.0)

    def test_invert_cumulative_round_trip(self, markov):
        u = np.array([0.0, 0.5, 1.0])
        e = np.array([0.3, 0.2, 0.6])
        t = markov.invert_cumulative(u, e)
        np.testing.assert_allclose(markov.cumulative(u, t), e, atol=1e-10)
        assert markov.invert_cumulative(0.0, 0.0) == 0.0

    def test_invert_past_grid_end_is_inf(self, markov):
        assert markov.invert_cumulative(0.0, 100.0) == np.inf

    def test_grid_spec_and_matrices(self, markov):
        assert markov.grid_spec() == (3.0, 0.05)
        times = np.arange(4) * 1.0
        vg = markov.value_grid(times)
        assert np.all(vg == vg[:, :1])
        cg = markov.cumulative_grid(times)
        assert cg[3, 1] == pytest.approx(markov.cumulative(1.0, 3.0))
        assert np.all(cg[np.triu_indices(4, k=1)] == 0.0)


class TestGridKernel:
    @pytest.fixture
    def linear_kernel(self):
        # truth is bilinear on the whole square, so node sampling plus
        # interpolation reproduces point values exactly
        t_max, step = 2.0, 0.1
        n = int(round(t_max / step)) + 1
        tt = np.arange(n) * step
        vals = 0.3 + 0.1 * (tt[:, None] - tt[None, :])
        return GridKernel(t_max, step, vals), t_max, step

    def test_shape_and_sign_validation(self):
        with pytest.raises(ValueError):
            GridKernel(1.0, 0.5, np.zeros((2, 2)))
        bad = np.zeros((3, 3))
        bad[2, 0] = -1.0
        with pytest.raises(ValueError):
            GridKernel(1.0, 0.5, bad)
        # negative entries above the diagonal are dead storage, keep them legal
        above = np.zeros((3, 3))
        above[0, 2] = -5.0
        GridKernel(1.0, 0.5, above)

    def test_values_are_frozen(self, linear_kernel):
        kernel, _, _ = linear_kernel
        with pytest.raises(ValueError):
            kernel.values[0, 0] = 9.0

    def test_value_interpolates_bilinearly(self, linear_kernel):
        kernel, _, _ = linear_kernel
        for t, u in [(0.5, 0.5), (1.23, 0.41), (2.0, 0.0), (1.77, 1.77)]:
            assert kernel.value(t, u) == pytest.approx(0.3 + 0.1 * (t - u), abs=1e-12)

    def test_cumulative_matches_closed_form(self, linear_kernel):
        kernel, _, _ = linear_kernel
        for u, t in [(0.0, 2.0), (0.5, 1.3), (0.41, 1.87), (1.2, 1.2)]:
            want = 0.3 * (t - u) + 0.05 * (t - u) ** 2
            assert kernel.cumulative(u, t) == pytest.approx(want, abs=2e-3)
        with pytest.raises(ValueError):
            kernel.cumulative(1.0, 0.5)

    def test_invert_round_trip(self, linear_kernel):
        kernel, _, _ = linear_kernel
        u = np.array([0.0, 0.3, 1.0])
        e = np.array([0.25, 0.4, 0.2])
        t = kernel.invert_cumulative(u, e)
        np.testing.assert_allclose(kernel.cumulative(u, t), e, atol=1e-10)
        assert kernel.invert_cumulative(0.0, 50.0) == np.inf
        assert kernel.invert_cumulative(0.7, 0.0) == pytest.approx(0.7)

    def test_cumulative_grid_matches_columns(self, linear_kernel):
        kernel, t_max, step = linear_kernel
        times = kernel._times
        cg = kernel.cumulative_grid(times)
        for j in [0, 7, 15]:
            want = kernel.cumulative(times[j], times[j:])
            np.testing.assert_allclose(cg[j:, j], want, atol=1e-12)

    def test_grid_mismatch_raises(self, linear_kernel):
        kernel, _, _ = linear_kernel
        with pytest.raises(ValueError):
            kernel.value_grid(np.arange(5) * 0.1)
        with pytest.raises(ValueError):
            kernel.cumulative_grid(np.arange(5) * 0.1)


def _kernels():
    """One kernel of each kind on a coarse grid over [0, 2].  The Markov
    rate vanishes on [1, 1.5], where a sign test on the cumulative
    cannot see u > t."""
    times = GridFunction.constant(2.0, 0.05, 0.0).times
    rate = GridFunction(2.0, 0.05, np.where((times >= 1.0) & (times <= 1.5), 0.0, 0.3))
    return {
        "two_piece": TwoPieceKernel(early=0.4, late=0.2, lag=1.0),
        "markov": MarkovKernel(rate),
        "grid": GridKernel(2.0, 0.05, np.full((rate.n_nodes, rate.n_nodes), 0.3)),
    }


each_kernel = pytest.mark.parametrize("name", ["two_piece", "markov", "grid"])


@each_kernel
def test_invert_cumulative_rejects_a_nan_threshold(name):
    # a NaN threshold is no death time; the grid kernels used to return
    # u, a death at the initiation instant, and the closed form NaN
    kernel = _kernels()[name]
    for e in (np.nan, np.array([0.2, np.nan])):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            kernel.invert_cumulative(0.5, e)
    assert kernel.invert_cumulative(0.5, np.inf) == np.inf


@each_kernel
def test_value_rejects_t_before_u(name):
    # the Markov and grid kernels used to return a number here, the grid
    # one read from the upper triangle that holds no hazard
    kernel = _kernels()[name]
    for t in (0.5, np.array([1.5, 0.5])):
        with pytest.raises(ValueError, match="kernel evaluated at t < u"):
            kernel.value(t, 1.0)
    assert kernel.value(0.5 - 0.5 * NODE_TOL, 0.5) == pytest.approx(kernel.value(0.5, 0.5))


@each_kernel
def test_cumulative_rejects_u_after_t(name):
    kernel = _kernels()[name]
    for u in (1.5, np.array([1.0, 1.5])):
        with pytest.raises(ValueError, match="kernel cumulative needs u <= t"):
            kernel.cumulative(u, 1.2)
    assert kernel.cumulative(1.2 + 0.5 * NODE_TOL, 1.2) == 0.0


@each_kernel
def test_times_off_the_grid_raise_and_closed_forms_extend(name):
    # a grid-backed kernel raises in all three methods, where the grid
    # kernel used to clamp to its ends; the closed form holds everywhere
    kernel = _kernels()[name]
    calls = [
        lambda: kernel.value(-1.0, -2.0),
        lambda: kernel.value(2.5, 1.0),
        lambda: kernel.cumulative(0.0, 5.0),
        lambda: kernel.cumulative(np.array([-0.5, 0.0]), 1.0),
        lambda: kernel.invert_cumulative(-1.0, 0.1),
        lambda: kernel.invert_cumulative(np.array([0.5, 2.5]), 0.1),
    ]
    if kernel.grid_spec() is None:
        assert [f() for f in calls[::2]] == pytest.approx([0.4, 1.2, -0.75])
    else:
        for f in calls:
            with pytest.raises(ValueError, match=r"kernel evaluated outside its grid \[0, 2.0\]"):
                f()
    # the grid ends count within NODE_TOL
    edge = kernel.value(2.0 + 0.5 * NODE_TOL, -0.5 * NODE_TOL)
    assert edge == pytest.approx(kernel.value(2.0, 0.0))
    assert kernel.cumulative(-0.5 * NODE_TOL, 2.0 + 0.5 * NODE_TOL) == pytest.approx(
        kernel.cumulative(0.0, 2.0)
    )


@each_kernel
def test_scalar_arguments_give_a_float_and_arrays_broadcast(name):
    kernel = _kernels()[name]
    for out in (
        kernel.value(1.5, 0.5),
        kernel.cumulative(0.5, 1.5),
        kernel.invert_cumulative(0.5, 0.1),
        kernel.value(np.float64(1.5), np.array(0.5)),
    ):
        assert type(out) is float
    # the Markov kernel used to return value(t, u) in the shape of t alone
    assert kernel.value(1.5, np.array([0.0, 0.5])).shape == (2,)
    assert kernel.cumulative(np.array([[0.0], [0.5]]), np.array([1.0, 1.5, 2.0])).shape == (2, 3)
    assert kernel.invert_cumulative(np.array([0.0, 0.5]), 0.1).shape == (2,)


@pytest.mark.parametrize("name", ["two_piece", "markov", "grid", "two_piece_lag_off_by_5e-10"])
def test_grid_arrays_are_the_pointwise_forms_at_the_nodes(name):
    # a lag 5e-10 below node 200 of the step-0.005 grid is within NODE_TOL
    # of it, so every form reads that node as early; the grid forms used
    # an integer offset rule that called it late
    kernels = {**_kernels(), "two_piece_lag_off_by_5e-10": TwoPieceKernel(0.4, 0.2, 1 - 5e-10)}
    kernel = kernels[name]
    t_max, step = kernel.grid_spec() or (2.0, 0.005)
    times = GridFunction.constant(t_max, step, 0.0).times
    i, j = np.tril_indices(times.size)
    np.testing.assert_allclose(
        kernel.value_grid(times)[i, j], kernel.value(times[i], times[j]), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        kernel.cumulative_grid(times)[i, j], kernel.cumulative(times[j], times[i]), rtol=0, atol=1e-12
    )
    offsets = kernel.offset_grid(times.size, step)
    if isinstance(kernel, TwoPieceKernel):
        d = np.arange(times.size) * step
        assert np.array_equal(offsets[0], kernel.value(d, 0.0))
        assert np.array_equal(offsets[1], kernel.cumulative(0.0, d))
    else:
        assert offsets is None


def test_sampled_grid_kernel_tracks_its_source(two_piece):
    # crossing the lag discontinuity costs one half jump cell,
    # 0.5 * (0.4 - 0.2) * step = 5e-3; elsewhere the copy is exact
    t_max, step = 3.0, 0.05
    n = int(round(t_max / step)) + 1
    tt = np.arange(n) * step
    sampled = GridKernel(t_max, step, two_piece.value_grid(tt))
    for u, t in [(0.0, 0.6), (0.5, 2.8), (1.3, 2.9)]:
        assert sampled.cumulative(u, t) == pytest.approx(
            two_piece.cumulative(u, t), abs=6e-3
        )
    assert isinstance(sampled, HazardKernel)


class _LoopGridKernel:
    """Per-element reference for GridKernel's value, cumulative and inverse."""

    def __init__(self, kernel):
        self.values, self.step, self.times = kernel.values, kernel.step, kernel._times

    def column(self, u):
        pos = u / self.step
        j0 = min(max(int(np.floor(pos + NODE_TOL)), 0), self.values.shape[1] - 1)
        frac = pos - j0
        if frac <= NODE_TOL or j0 + 1 >= self.values.shape[1]:
            return self.values[:, j0]
        return (1 - frac) * self.values[:, j0] + frac * self.values[:, j0 + 1]

    def cum_column(self, u):
        col = self.column(u)
        cum = np.zeros_like(col)
        cum[1:] = np.cumsum(0.5 * (col[1:] + col[:-1]) * self.step)
        out = np.maximum(cum - np.interp(u, self.times, cum), 0.0)
        out[self.times < u - NODE_TOL] = 0.0
        return out

    def value(self, t, u):
        return np.array([np.interp(a, self.times, self.column(b)) for a, b in zip(t, u)])

    def cumulative(self, u, t):
        return np.array([np.interp(b, self.times, self.cum_column(a)) for a, b in zip(u, t)])

    def invert_cumulative(self, u, e):
        out = []
        for a, b in zip(u, e):
            t = searchsorted_crossing(self.cum_column(a), self.step, np.asarray([b]))[0]
            out.append(np.inf if np.isnan(t) else max(t, a))
        return np.array(out)


def test_vectorized_grid_kernel_matches_the_loop():
    rng = np.random.default_rng(7)
    t_max, step = 2.0, 0.05
    n = n_intervals(t_max, step) + 1
    tt = np.arange(n) * step
    vals = np.abs(rng.normal(0.5, 0.3, size=(n, n))) * (1 + (tt[:, None] > tt[None, :] + 0.7))
    kernel = GridKernel(t_max, step, vals)
    ref = _LoopGridKernel(kernel)
    m = 400
    # off-node, on-node and within-NODE_TOL-of-node initiation times
    u = rng.uniform(0.0, t_max, size=m)
    u[::4] = tt[rng.integers(0, n, size=u[::4].size)]
    u[1::8] = u[1::8].round(1) + rng.choice([-1, 1], size=u[1::8].size) * 1e-11
    u = np.clip(u, 0.0, t_max)
    t = np.minimum(u + rng.exponential(0.5, size=m), t_max)
    t[::5] = u[::5]
    np.testing.assert_allclose(kernel.value(t, u), ref.value(t, u), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        kernel.cumulative(u, t), ref.cumulative(u, t), rtol=1e-12, atol=1e-12
    )
    e = rng.exponential(0.8, size=m)
    e[::7] = 0.0
    got, want = kernel.invert_cumulative(u, e), ref.invert_cumulative(u, e)
    assert np.array_equal(np.isinf(got), np.isinf(want)) and np.any(np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)
    assert kernel.cumulative(0.3, 1.7) == pytest.approx(ref.cumulative([0.3], [1.7])[0], abs=1e-12)
