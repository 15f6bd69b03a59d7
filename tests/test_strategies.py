"""Removal orderings, cumulative curves, and rank-decay regime fits."""
from __future__ import annotations

import numpy as np
import pytest

from esri_net import (
    Heuristic,
    InsufficientPoints,
    batch_indices,
    fit_rank_regimes,
    rank_firms,
    run_heuristic,
    run_strategy,
)


@pytest.fixture()
def fig1_table(fig1_net, fig1_pf):
    return batch_indices(fig1_net, fig1_pf, list("abcde"), workers=1)


# -- orderings ---------------------------------------------------------------


def test_heuristic_names():
    assert Heuristic("emitters") is Heuristic.LARGEST_EMITTERS_FIRST
    assert Heuristic("risk") is Heuristic.LEAST_RISKY_FIRST
    assert Heuristic("ratio") is Heuristic.OPTIMAL_RATIO
    with pytest.raises(ValueError):
        Heuristic("hope")


def test_rankings_on_bundled_example(fig1_table):
    assert rank_firms(fig1_table, Heuristic.LARGEST_EMITTERS_FIRST) == list("dabce")
    assert rank_firms(fig1_table, Heuristic.LEAST_RISKY_FIRST) == list("abdec")
    assert rank_firms(fig1_table, Heuristic.OPTIMAL_RATIO) == list("abdce")


# -- curves --------------------------------------------------------------------


def test_ratio_strategy_on_bundled_example(fig1_net, fig1_pf, fig1_table):
    curve = run_heuristic(
        fig1_net, fig1_pf, fig1_table, Heuristic.OPTIMAL_RATIO, target=0.5, workers=1
    )
    s = curve.summary()
    assert s["heuristic"] == "ratio"
    assert s["benchmark_rank"] == 2
    assert s["firms_removed"] == 2
    assert s["co2_reduction"] == pytest.approx(0.50, abs=1e-9)
    assert s["expected_job_loss"] == pytest.approx(0.30, abs=1e-9)
    assert s["target_reached"] is True


def test_emitters_strategy_on_bundled_example(fig1_net, fig1_pf, fig1_table):
    curve = run_heuristic(
        fig1_net, fig1_pf, fig1_table, Heuristic.LARGEST_EMITTERS_FIRST, target=0.5, workers=1
    )
    s = curve.summary()
    assert s["benchmark_rank"] == 1
    assert s["co2_reduction"] == pytest.approx(0.50, abs=1e-9)
    assert s["expected_job_loss"] == pytest.approx(0.70, abs=1e-9)


def test_curve_points_are_cumulative(fig1_net, fig1_pf, fig1_table):
    curve = run_heuristic(
        fig1_net, fig1_pf, fig1_table, Heuristic.LEAST_RISKY_FIRST, target=0.2, workers=1
    )
    assert [p.rank for p in curve.points] == [1, 2, 3, 4, 5]
    saved = [p.cum_co2_saved for p in curve.points]
    assert all(b >= a - 1e-12 for a, b in zip(saved, saved[1:]))
    assert saved[-1] == pytest.approx(1.0, abs=1e-9)  # everything gone


def test_curves_share_their_endpoint(fig1_net, fig1_pf, fig1_table):
    finals = []
    for h in Heuristic:
        curve = run_heuristic(fig1_net, fig1_pf, fig1_table, h, target=0.9, workers=1)
        last = curve.points[-1]
        finals.append((last.cum_co2_saved, last.cum_job_loss))
    for a, b in zip(finals, finals[1:]):
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)


def test_zero_target_is_met_before_any_removal(fig1_net, fig1_pf):
    curve = run_strategy(fig1_net, fig1_pf, list("abcde"), target=0.0, workers=1)
    assert curve.benchmark_rank == 0
    assert curve.benchmark_point is None
    s = curve.summary()
    assert s["heuristic"] == "custom"
    assert s["firms_removed"] == 0 and s["target_reached"] is True


def test_unreachable_target_logs_and_returns(fig1_net, fig1_pf, caplog):
    # candidates a+b eliminate at most half the emissions
    with caplog.at_level("WARNING"):
        curve = run_strategy(fig1_net, fig1_pf, ["a", "b"], target=0.9, workers=1)
    assert curve.benchmark_rank is None
    assert curve.summary()["target_reached"] is False
    assert len(curve.points) == 2
    assert any("target" in r.getMessage() for r in caplog.records)


def test_ordering_validation(fig1_net, fig1_pf):
    with pytest.raises(ValueError):
        run_strategy(fig1_net, fig1_pf, ["a", "a"], target=0.1, workers=1)
    with pytest.raises(ValueError):
        run_strategy(fig1_net, fig1_pf, ["a"], target=-0.5, workers=1)
    with pytest.raises(ValueError):
        run_strategy(fig1_net, fig1_pf, ["a"], target=float("nan"), workers=1)


def test_benchmark_is_first_reaching_prefix(fig1_net, fig1_pf):
    # ordering e, d: prefix {e} saves 1/10 + spillovers; {e, d} reaches half
    curve = run_strategy(fig1_net, fig1_pf, ["e", "d"], target=0.5, workers=1)
    assert curve.benchmark_rank is not None
    prior = curve.points[: curve.benchmark_rank - 1]
    assert all(p.cum_co2_saved < 0.5 - 1e-12 for p in prior)
    assert curve.benchmark_point.cum_co2_saved >= 0.5 - 1e-12


# -- regime fits -----------------------------------------------------------------


def planted_ratios(noise_rng=None, sigma=0.0):
    r1 = np.arange(1, 13)
    r2 = np.arange(13, 95)
    vals = np.concatenate([np.exp(12.5 - 0.41 * r1), np.exp(7.2 - 0.05 * r2)])
    if noise_rng is not None:
        vals = vals * np.exp(noise_rng.normal(0.0, sigma, vals.size))
    return vals


def test_regime_fit_recovers_planted_slopes_exactly():
    fit = fit_rank_regimes(planted_ratios())
    assert fit.lambda1 == pytest.approx(-0.41, abs=1e-12)
    assert fit.lambda2 == pytest.approx(-0.05, abs=1e-12)
    assert fit.r2_1 == pytest.approx(1.0, abs=1e-12)
    assert fit.r2_2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n1 == 12 and fit.n2 == 82


def test_regime_fit_tolerates_noise():
    for k in range(10):
        rng = np.random.default_rng([888, k])
        fit = fit_rank_regimes(planted_ratios(rng, sigma=0.03))
        assert fit.lambda1 == pytest.approx(-0.41, rel=0.05)
        assert fit.lambda2 == pytest.approx(-0.05, rel=0.05)


def test_regime_fit_uses_global_ranks():
    # shifting regime-2 points to ranks 13.. must be reflected in the
    # intercept, not the slope; a fit that re-ranked regime 2 from 1
    # would recover the same slope but fail on fully planted values
    vals = planted_ratios()
    fit = fit_rank_regimes(vals)
    # reconstruct regime-2 values from the fitted line at global ranks
    ranks = np.arange(13, 95)
    np.testing.assert_allclose(
        np.log(vals[12:]), fit.lambda2 * ranks + (7.2), rtol=0, atol=1e-9
    )


def test_regime_fit_input_validation():
    with pytest.raises(ValueError):
        fit_rank_regimes([1.0, 2.0], hi=10.0, lo=10.0)
    with pytest.raises(ValueError):
        fit_rank_regimes([1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_rank_regimes([1.0, float("inf"), 3.0])


def test_regime_fit_needs_three_points_per_regime():
    with pytest.raises(InsufficientPoints):
        fit_rank_regimes([2000.0, 1500.0, 500.0, 400.0, 300.0])  # regime 1 thin
    with pytest.raises(InsufficientPoints):
        fit_rank_regimes([4000.0, 3000.0, 2000.0, 500.0, 400.0])  # regime 2 thin
    # values at or below lo are outside both regimes
    with pytest.raises(InsufficientPoints):
        fit_rank_regimes([4000.0, 3000.0, 2000.0, 9.0, 8.0, 7.0])
