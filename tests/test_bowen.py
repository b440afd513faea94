"""Bowen balls and separated nets on unstable leaves."""

import numpy as np
import pytest

import eqmeas
from oracles import check_separation, is_spanning

LAM = (3 + np.sqrt(5.0)) / 2

# maximal-net sizes on a unit-length leaf window at r=0.05
NET_COUNTS = {4: 359, 5: 940, 6: 2460, 7: 6440, 8: 16860, 9: 44140,
              10: 115560, 11: 302540}


@pytest.fixture(scope="module")
def sysm(cat):
    return cat.system


# Search-based oracles for the closed forms of eqmeas.bowen: they find
# balls and nets by evaluating d_n along the leaf.

def bisect_width(sysm, x, n, r, iters=60):
    """Half-width of the d_n ball on the leaf by bisection on |t|."""
    # d_n along the leaf is monotone in |t| for dominated expansion
    if eqmeas.dyn_metric(sysm, x, eqmeas.leaf_point(sysm, x, 1.0), n) < r:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if eqmeas.dyn_metric(sysm, x, eqmeas.leaf_point(sysm, x, mid), n) < r:
            lo = mid
        else:
            hi = mid
    return lo


def greedy_sweep(sysm, x, n, r, leaf_radius, step):
    """Greedy (n, r)-separated net over a candidate grid of spacing step."""
    grid = np.arange(-leaf_radius, leaf_radius + step / 2, step)
    kept = [grid[0]]
    pts = eqmeas.leaf_point(sysm, x, grid)
    last = pts[0]
    for t, p in zip(grid[1:], pts[1:]):
        # the tiny slack keeps exact-threshold pairs on the kept side
        # when rounding puts their d_n a few ulps under r
        if eqmeas.dyn_metric(sysm, last, p, n) >= r * (1.0 - 1e-10):
            kept.append(t)
            last = p
    return np.asarray(kept)


class TestUBowenBall:
    """The trace of the unstable Bowen ball B_n^u(x, r): an interval of
    half-width ball_width(sysm, n, r) around x on its leaf."""

    def test_closed_form_width(self, sysm):
        width = eqmeas.ball_width(sysm, 4, 0.05)
        assert width == pytest.approx(0.05 * LAM ** -3, rel=1e-12)
        assert width == pytest.approx(0.002786404500042061, rel=1e-12)

    def test_bisection_agrees_with_closed_form(self, sysm):
        slow = bisect_width(sysm, np.zeros(2), 4, 0.05)
        assert slow == pytest.approx(eqmeas.ball_width(sysm, 4, 0.05), rel=1e-9)

    def test_membership_in_dynamic_metric(self, sysm):
        x = np.array([0.3, 0.3])
        n, r = 6, 0.05
        width = eqmeas.ball_width(sysm, n, r)
        inside = eqmeas.leaf_point(sysm, x, 0.95 * width)
        outside = eqmeas.leaf_point(sysm, x, 1.2 * width)
        assert eqmeas.dyn_metric(sysm, x, inside, n) <= r + 1e-12
        assert eqmeas.dyn_metric(sysm, x, outside, n) > r


class TestSeparatedNet:
    def test_frozen_counts(self, sysm):
        for n, want in NET_COUNTS.items():
            net = eqmeas.separated_net(sysm, np.zeros(2), n, 0.05,
                                       leaf_radius=0.5)
            assert len(net) == want
            assert eqmeas.net_size(sysm, n, 0.05, 0.5) == want

    def test_count_growth_rate(self, sysm):
        counts = [len(eqmeas.separated_net(sysm, np.zeros(2), n, 0.05,
                                           leaf_radius=0.5))
                  for n in range(6, 11)]
        ratios = np.array(counts[1:]) / np.array(counts[:-1])
        assert ratios == pytest.approx(LAM, rel=1e-3)

    def test_params_equally_spaced(self, sysm):
        net = eqmeas.separated_net(sysm, np.array([0.2, 0.7]), 7, 0.05,
                                   leaf_radius=0.5)
        gaps = np.diff(net.params)
        assert gaps == pytest.approx(net.spacing, rel=1e-12)
        assert net.spacing == pytest.approx(0.05 * LAM ** -6, rel=1e-12)

    def test_grid_method_matches_arithmetic(self, sysm):
        a = eqmeas.separated_net(sysm, np.zeros(2), 6, 0.05, leaf_radius=0.5)
        b = greedy_sweep(sysm, np.zeros(2), 6, 0.05, 0.5,
                         0.05 * sysm.leaf_rate ** -5 / 4.0)
        assert len(a) == len(b)
        assert a.params == pytest.approx(b, abs=1e-12)

    def test_points_lie_on_leaf(self, sysm):
        x = np.array([0.2, 0.7])
        net = eqmeas.separated_net(sysm, x, 5, 0.05, leaf_radius=0.3)
        pts = net.points()
        want = eqmeas.leaf_point(sysm, x, net.params)
        assert np.abs(eqmeas.wrap(pts - want)).max() < 1e-12

    def test_separation_certificate(self, sysm):
        net = eqmeas.separated_net(sysm, np.array([0.2, 0.7]), 6, 0.05,
                                   leaf_radius=0.5)
        worst = check_separation(net)
        assert worst >= 0.05 * (1 - 1e-9)

    def test_spanning_certificate(self, sysm):
        net = eqmeas.separated_net(sysm, np.array([0.2, 0.7]), 6, 0.05,
                                   leaf_radius=0.5)
        ok, worst = is_spanning(net)
        assert ok
        assert worst <= 0.05

    def test_spanning_holds_for_skew(self, skew):
        net = eqmeas.separated_net(skew.system, np.array([0.2, 0.7, 0.37]),
                                   6, 0.05, leaf_radius=0.5)
        assert len(net) == NET_COUNTS[6]
        ok, _ = is_spanning(net)
        assert ok
        assert check_separation(net) >= 0.05 * (1 - 1e-9)
