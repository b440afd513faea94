"""Cover costs, the critical exponent, and leaf reference measures."""

import numpy as np
import pytest

import eqmeas
from eqmeas import caratheodory
from oracles import mass_diagnostics_masses_oracle

LAM = (3 + np.sqrt(5.0)) / 2
H = np.log(LAM)
X0 = np.array([0.2, 0.7])
SEG = (-0.1, 0.1)


def chain_costs(sysm, phi, alpha, orders, **kw):
    return [eqmeas.cover_cost(sysm, phi, X0, SEG, alpha, n, **kw).cost
            for n in orders]


class TestChainCosts:
    def test_frozen_cost_below_critical(self, cat, phi0):
        sol = eqmeas.cover_cost(cat.system, phi0, X0, SEG, 0.7, 4)
        assert sol.cost == pytest.approx(2.189162254507847, rel=1e-10)
        assert sol.strategy == "chain"

    def test_frozen_cost_at_critical(self, cat, phi0):
        sol = eqmeas.cover_cost(cat.system, phi0, X0, SEG, H, 4)
        assert sol.cost == pytest.approx(0.7639320453825098, rel=1e-10)

    def test_trend_slopes(self, cat, phi0):
        orders = range(4, 9)
        for alpha, want in ((0.7, 0.26175943440457317),
                            (H, 0.0),
                            (1.2, -0.2375763562964533)):
            costs = chain_costs(cat.system, phi0, alpha, orders)
            slope = np.polyfit(list(orders), np.log(costs), 1)[0]
            assert slope == pytest.approx(want, abs=1e-7)

    def test_cost_decreasing_in_alpha(self, cat, phi0):
        for n in (4, 6, 8):
            costs = [eqmeas.cover_cost(cat.system, phi0, X0, SEG, a, n).cost
                     for a in (0.5, 0.8, 1.1, 1.4)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_lower_bound_is_a_bound(self, cat, phi0):
        for alpha in (0.7, H, 1.2):
            sol = eqmeas.cover_cost(cat.system, phi0, X0, SEG, alpha, 5)
            assert sol.lower_bound is not None
            assert sol.lower_bound <= sol.cost + 1e-12

    def test_log_costs_finite_at_extreme_alpha(self, cat, phi0):
        # exp(-20 * 40) underflows in linear scale
        low = eqmeas.cover_cost(cat.system, phi0, X0, SEG, -5.0, 20)
        high = eqmeas.cover_cost(cat.system, phi0, X0, SEG, 40.0, 20)
        assert np.isfinite(low.log_cost) and np.isfinite(high.log_cost)
        assert np.isfinite(high.log_lower_bound)
        assert high.log_lower_bound <= high.log_cost < -700 < low.log_cost
        n, k, log_price = high.table[-1]
        assert high.log_cost == log_price == pytest.approx(np.log(k) - 40.0 * n)


def min_cover_dp(lo, hi, w, a, b):
    """Optimal cost to cover [a, b] with closed weighted intervals.

    Classic sweep over right endpoints with a range-min tree over reached
    positions: dp[p] = cheapest cover of [a, p], extended by any interval
    whose left end touches a reached position.
    """
    reach = np.minimum(hi, b)
    keep = (lo < b) & (reach > a) & (reach > lo)
    lo, reach, w = lo[keep], reach[keep], w[keep]
    if len(lo) == 0:
        return np.inf
    order = np.argsort(reach, kind="stable")
    lo, reach, w = lo[order], reach[order], w[order]
    pos = np.unique(np.concatenate([[a], reach]))
    size = 1
    while size < len(pos):
        size *= 2
    tree = np.full(2 * size, np.inf)

    def update(i, v):
        i += size
        if v < tree[i]:
            tree[i] = v
            i >>= 1
            while i:
                tree[i] = min(tree[2 * i], tree[2 * i + 1])
                i >>= 1

    def query_from(i0):
        res, l, r = np.inf, i0 + size, len(pos) + size
        while l < r:
            if l & 1:
                res = min(res, tree[l])
                l += 1
            if r & 1:
                r -= 1
                res = min(res, tree[r])
            l >>= 1
            r >>= 1
        return res

    update(int(np.searchsorted(pos, a)), 0.0)
    best = np.inf
    right_idx = np.searchsorted(pos, reach)
    left_idx = np.searchsorted(pos, lo - 1e-12, side="left")
    for j in range(len(lo)):
        m = query_from(left_idx[j])
        if not np.isfinite(m):
            continue
        v = m + w[j]
        update(right_idx[j], v)
        if reach[j] >= b - 1e-12:
            best = min(best, v)
    return best


def dp_cover_cost(sysm, phi, alpha, order_min, span=6, r=0.05):
    """Optimal mixed-order cover of SEG over the order window: the oracle.

    Candidate intervals of every order sit on a grid of half-width steps,
    which contains the centers of the arithmetic single-order covers.
    """
    a, b = SEG
    los, his, ws = [], [], []
    for n in range(order_min, order_min + span + 1):
        w = r * sysm.leaf_rate ** (-(n - 1))
        centers = np.arange(a - w / 2, b + w / 2 + w / 4, w / 2)
        sn = eqmeas.birkhoff_sum(sysm, phi, eqmeas.leaf_point(sysm, X0, centers), n)
        los.append(centers - w)
        his.append(centers + w)
        ws.append(np.exp(sn - n * alpha))
    return min_cover_dp(np.concatenate(los), np.concatenate(his),
                        np.concatenate(ws), a, b)


class TestStrategies:
    """The single-order cover against the optimal mixed-order cover."""

    @pytest.mark.parametrize("order", [4, 5])
    def test_dp_matches_chain_for_constants(self, cat, phi0, order):
        ch = eqmeas.cover_cost(cat.system, phi0, X0, SEG, H, order)
        dp = dp_cover_cost(cat.system, phi0, H, order)
        assert dp == pytest.approx(ch.cost, rel=1e-9)
        assert ch.lower_bound <= dp + 1e-12

    def test_chain_upper_bounds_dp(self, cat):
        phi = eqmeas.base_cosine_potential(0.05)
        for order in (4, 5):
            ch = eqmeas.cover_cost(cat.system, phi, X0, SEG, H, order)
            dp = dp_cover_cost(cat.system, phi, H, order)
            assert dp - 1e-12 <= ch.cost <= 1.1 * dp


class TestCriticalExponent:
    def test_cat_dimension_matches_entropy(self, cat, phi0):
        out = eqmeas.caratheodory_dim(cat.system, phi0, X0, SEG)
        assert out["hi"] - out["lo"] <= out["tol"] + 1e-12
        assert abs(out["dim"] - H) < 0.07

    def test_skew_dimension(self, skew, phi0):
        out = eqmeas.caratheodory_dim(skew.system, phi0,
                                      np.array([0.2, 0.7, 0.37]), SEG)
        assert abs(out["dim"] - H) < 0.07

    def test_shift_by_constant_moves_dimension(self, cat, phi0):
        base = eqmeas.caratheodory_dim(cat.system, phi0, X0, SEG)["dim"]
        shifted = eqmeas.caratheodory_dim(
            cat.system, eqmeas.constant_potential(-0.4), X0, SEG)["dim"]
        assert shifted == pytest.approx(base - 0.4, abs=0.03)

    def test_trend_signs_bracket_root(self, cat, phi0):
        out = eqmeas.caratheodory_dim(cat.system, phi0, X0, SEG)
        evals = dict(out["evals"])
        assert evals[out["lo"]] > 0
        assert evals[out["hi"]] < 0

    def test_bracket_widens_to_a_pressure_above_it(self, cat):
        # amplitude 5 is past the CLI schema's 0.5: the pressure lies above
        # the starting bracket's hi, which is doubled until the trend turns
        phi = eqmeas.base_cosine_potential(5.0)
        start_hi = 2 * H + 0.5
        est = eqmeas.estimate_pressure(cat.system, phi, X0)
        assert start_hi == pytest.approx(2.42, abs=0.01) and start_hi < est.value
        out = eqmeas.caratheodory_dim(cat.system, phi, X0, SEG)
        assert out["evals"][1][0] == pytest.approx(9.70, abs=0.01)
        assert abs(out["dim"] - est.value) < 0.07


class TestReferenceMeasure:
    def test_frozen_mass(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 6)
        assert lm.mass() == pytest.approx(1.5279650474497934, rel=1e-10)

    def test_mass_stable_in_order(self, cat, phi0):
        masses = [eqmeas.reference_measure(cat.system, phi0, H, X0, n).mass()
                  for n in range(6, 13)]
        assert max(masses) / min(masses) < 1.001

    def test_weights_match_birkhoff_formula(self, cat):
        phi = eqmeas.base_cosine_potential(0.05)
        lm = eqmeas.reference_measure(cat.system, phi, H, X0, 5)
        s5 = eqmeas.birkhoff_sum(cat.system, phi, lm.points(), 5)
        assert lm.weights == pytest.approx(np.exp(s5 - 5 * H))

    @pytest.mark.parametrize("make", [
        lambda sysm: eqmeas.zero_potential(),
        lambda sysm: eqmeas.constant_potential(0.3),
        lambda sysm: eqmeas.geometric_potential(sysm, 0.5),
    ], ids=["zero", "const", "geom"])
    @pytest.mark.parametrize("order", [1, 6, 12])
    def test_constant_potential_reads_no_leaf_points(self, cat, monkeypatch,
                                                     make, order):
        phi = make(cat.system)

        def refuse(net):
            raise AssertionError("leaf points built for a constant potential")

        monkeypatch.setattr(eqmeas.SeparatedNet, "points", refuse)
        lm = eqmeas.reference_measure(cat.system, phi, H, X0, order)
        c = phi.constant_value
        expect = np.exp(np.full(lm.params.shape, order * c) - order * H)
        assert np.array_equal(lm.weights.view(np.int64), expect.view(np.int64))

    def test_segment_mass_adds_up(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 8)
        total = lm.segment_mass(-0.1, 0.1)
        left = lm.segment_mass(-0.1, 0.0)
        right = lm.segment_mass(0.0, 0.1)
        # the param 0 atom is counted once in each closed segment
        assert left + right == pytest.approx(
            total + lm.weights[np.abs(lm.params) < 1e-15].sum())

    def test_cell_masses_partition_total(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 8)
        edges = np.linspace(-0.1, 0.1, 17)
        cells = lm.cell_masses(edges)
        assert cells.shape == (16,)
        assert cells.sum() == pytest.approx(lm.mass(), rel=1e-9)

    def test_overlap_consistency(self, cat, phi0):
        # measures seeded at two points of one leaf agree on the shared
        # window once parameters are shifted to the same origin
        t0 = 0.03
        y = eqmeas.leaf_point(cat.system, X0, t0)
        mx = eqmeas.reference_measure(cat.system, phi0, H, X0, 10)
        my = eqmeas.reference_measure(cat.system, phi0, H, y, 10)
        a = mx.segment_mass(-0.04, 0.04)
        b = my.segment_mass(-0.04 - t0, 0.04 - t0)
        assert b == pytest.approx(a, rel=1e-9)


class TestMassDiagnostics:
    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_bounded_and_trend_free(self, key, phi0):
        ent = eqmeas.get_system(key)
        rng = np.random.default_rng(0)
        bases = rng.random((8, ent.system.dim))
        diag = eqmeas.mass_diagnostics(ent.system, phi0, H, bases)
        assert diag["ratio"] < 1.001
        assert diag["worst_slope"] <= 1e-4
        assert diag["masses"].shape == (8, 7)

    @pytest.mark.parametrize("key,phi", [
        ("cat", eqmeas.zero_potential()), ("skew", eqmeas.constant_potential(0.3)),
        ("skew", eqmeas.base_cosine_potential())])
    def test_masses_match_per_base_oracle(self, key, phi):
        sysm = eqmeas.get_system(key).system
        bases = np.random.default_rng(1).random((5, sysm.dim))
        kw = dict(orders=range(4, 8), r=0.1, leaf_radius=0.05)
        diag = eqmeas.mass_diagnostics(sysm, phi, H, bases, **kw)
        ref = mass_diagnostics_masses_oracle(sysm, phi, H, bases, **kw)
        assert np.array_equal(diag["masses"], ref)

    def test_constant_potential_prices_each_order_once(self, cat, phi0, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return eqmeas.reference_measure(*args, **kwargs)

        monkeypatch.setattr(caratheodory, "reference_measure", counted)
        bases = np.random.default_rng(0).random((20, 2))
        diag = eqmeas.mass_diagnostics(cat.system, phi0, H, bases)
        assert calls == list(range(6, 13))
        assert diag["masses"].shape == (20, 7)
