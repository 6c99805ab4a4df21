import numpy as np
import pytest

from hazrates.grid import GridFunction
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


class TestMarkov:
    @pytest.fixture
    def markov(self):
        rate = GridFunction.from_callable(lambda t: 0.1 + 0.2 * t, 3.0, 0.05)
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
