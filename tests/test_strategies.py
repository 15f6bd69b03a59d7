"""Removal orderings, cumulative curves, and rank-decay regime fits."""
from __future__ import annotations

import numpy as np
import pytest

from esri_net import (
    EssentialityMatrix,
    Heuristic,
    InsufficientPoints,
    InvalidScenario,
    SynthParams,
    batch_indices,
    calibrate,
    classify_inputs,
    fit_rank_regimes,
    generate,
    propagate,
    rank_firms,
    run_heuristic,
    run_heuristics,
    run_strategy,
)
import esri_net.strategies as strategies_module
from esri_net.propagation import _engine


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
    # a heuristic may be given by its value, and an unknown value is rejected
    assert rank_firms(fig1_table, "emitters") == list("dabce")
    assert rank_firms(fig1_table, "risk") == list("abdec")
    assert rank_firms(fig1_table, "ratio") == list("abdce")
    with pytest.raises(ValueError):
        rank_firms(fig1_table, "hope")


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


def test_capped_prefixes_log_their_ranks(fig1_net, fig1_pf, caplog):
    # one step is too few for every prefix but the full removal
    with caplog.at_level("WARNING"):
        run_strategy(fig1_net, fig1_pf, ["d", "a", "c"], target=0.5, workers=1, max_iter=1)
    capped = [r.getMessage() for r in caplog.records if "iteration cap" in r.getMessage()]
    assert len(capped) == 1
    assert "3 curve prefix(es)" in capped[0]
    assert "rank 1 (d), rank 2 (a), rank 3 (c)" in capped[0]
    assert [r.name for r in caplog.records if "iteration cap" in r.getMessage()] == ["esri_net.strategies"]


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


# -- curves from shared solves ------------------------------------------------------


@pytest.fixture(scope="module")
def synth_case():
    net = generate(SynthParams(300, 1500, n_ets=12, seed=4))
    matrix = EssentialityMatrix.default()
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    return net, matrix, ets


def synth_pf(net, matrix):
    return calibrate(net, classify_inputs(net, matrix), gamma=0.5)


@pytest.fixture()
def spy(monkeypatch):
    """The scenario lists that strategies.evaluate_scenarios is called with."""
    calls = []
    original = strategies_module.evaluate_scenarios

    def recording(net, pf, scenarios, *args, **kwargs):
        calls.append([frozenset(s) for s in scenarios])
        return original(net, pf, scenarios, *args, **kwargs)

    monkeypatch.setattr(strategies_module, "evaluate_scenarios", recording)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_curves_equal_the_per_heuristic_curves(synth_case, workers):
    net, matrix, ets = synth_case
    pf = synth_pf(net, matrix)
    table = batch_indices(net, pf, ets, workers=workers)
    heuristics = list(Heuristic)
    batched = run_heuristics(net, pf, table, heuristics, 0.3, workers=workers)
    one_by_one = [run_heuristic(net, pf, table, h, 0.3, workers=workers) for h in heuristics]
    fresh = [
        run_strategy(net, pf, rank_firms(table, h), 0.3, workers=workers, heuristic=h)
        for h in heuristics
    ]
    assert batched == one_by_one == fresh
    assert [c.heuristic for c in batched] == heuristics
    # the order given is the order returned
    assert run_heuristics(net, pf, table, heuristics[::-1], 0.3, workers=workers) == batched[::-1]
    # curves requested by value are the curves requested by enum
    values = [h.value for h in heuristics]
    assert run_heuristics(net, pf, table, values, 0.3, workers=workers) == batched
    by_value = [run_heuristic(net, pf, table, v, 0.3, workers=workers) for v in values]
    assert by_value == batched
    assert [c.heuristic for c in by_value] == heuristics
    assert [c.summary()["heuristic"] for c in by_value] == values


def test_every_index_table_is_a_valid_ordering(fig1_net, fig1_pf):
    # batch_indices rejects what a curve would reject: no table it returns repeats a firm
    accepted = 0
    for candidates in (["d", "a"], ["d", "d"], ["a", "d", "a"], list("abcde"), list("edcba") * 2):
        try:
            table = batch_indices(fig1_net, fig1_pf, candidates, workers=1)
        except InvalidScenario:
            continue
        accepted += 1
        assert len(run_heuristics(fig1_net, fig1_pf, table, list(Heuristic), 0.5, workers=1)) == 3
    assert accepted == 2


def test_one_call_over_the_distinct_prefixes(synth_case, spy):
    net, matrix, ets = synth_case
    pf = synth_pf(net, matrix)
    table = batch_indices(net, pf, ets, workers=1)
    run_heuristics(net, pf, table, list(Heuristic), 0.3, workers=1)
    orderings = [rank_firms(table, h) for h in Heuristic]
    distinct = {frozenset(o[:k]) for o in orderings for k in range(1, len(o) + 1)}
    assert len(spy) == 1
    assert len(spy[0]) == len(set(spy[0]))
    assert set(spy[0]) == distinct
    assert len(distinct) < 3 * len(ets)  # the full set at least is shared


@pytest.mark.parametrize("workers", [1, 2])
def test_a_curve_solves_its_first_rank_as_the_table_did(synth_case, workers):
    # rank 1 is solved again in the curve's batch, to the table's bits
    net, matrix, ets = synth_case
    pf = synth_pf(net, matrix)
    table = batch_indices(net, pf, ets, workers=workers)
    curves = run_heuristics(net, pf, table, list(Heuristic), 0.3, workers=workers)
    for h, curve in zip(Heuristic, curves):
        first = curve.points[0]
        assert first.firm_id == rank_firms(table, h)[0]
        assert first.cum_job_loss.hex() == table.row(first.firm_id).ew_esri.hex()


def test_one_engine_per_calibration(synth_case):
    net, matrix, ets = synth_case
    pf = synth_pf(net, matrix)
    engine = _engine(net, pf)
    propagate(net, pf, ets[:2])
    assert _engine(net, pf) is engine
    for workers in (1, 2):
        table = batch_indices(net, pf, ets, workers=workers)
        assert _engine(net, pf) is engine
        run_heuristics(net, pf, table, list(Heuristic), 0.3, workers=workers)
        assert _engine(net, pf) is engine


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
