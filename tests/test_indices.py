"""Risk indices: output- and employment-weighted shortfalls, CO2 shares."""
from __future__ import annotations

import itertools
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from esri_net import (
    EssentialityMatrix,
    Firm,
    InvalidScenario,
    MissingTotal,
    NoEmploymentData,
    ProductionNetwork,
    SupplyEdge,
    SynthParams,
    batch_indices,
    calibrate,
    classify_inputs,
    co2_shares,
    esri,
    ew_esri,
    generate,
    propagate,
    validate,
)
from esri_net import indices
from esri_net.indices import ets_total_co2, evaluate_scenarios, resolve_total_co2
from esri_net.propagation import DEFAULT_MAX_ITER, ScenarioResult, ShockScenario, _Engine

import oracle
from conftest import FIG1, RandomCase


def tiny_net(firms, edges):
    net = ProductionNetwork(firms, edges)
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    return net, pf


# -- bundled example values ----------------------------------------------------


def test_esri_on_bundled_example(fig1_net, fig1_pf):
    # removing d zeroes d (s_out 100) and e (s_out 10) out of 160 total
    assert esri(fig1_net, fig1_pf, ["d"]) == pytest.approx(0.6875, abs=1e-12)
    assert esri(fig1_net, fig1_pf, ["a"]) == pytest.approx(0.15625, abs=1e-12)
    assert esri(fig1_net, fig1_pf, ()) == 0.0
    assert esri(fig1_net, fig1_pf, "d") == esri(fig1_net, fig1_pf, ["d"])  # a lone id is one firm


def test_ew_esri_on_bundled_example(fig1_net, fig1_pf):
    assert ew_esri(fig1_net, fig1_pf, ["d"]) == pytest.approx(0.70, abs=1e-12)
    assert ew_esri(fig1_net, fig1_pf, ["a", "b"]) == pytest.approx(0.30, abs=1e-12)
    assert ew_esri(fig1_net, fig1_pf, ["a"]) == pytest.approx(0.15, abs=1e-12)


def test_co2_shares_on_bundled_example(fig1_net, fig1_pf):
    total, ets = co2_shares(fig1_net, fig1_pf, ["d"])
    assert total == pytest.approx(0.50, abs=1e-12)
    assert ets == pytest.approx(0.50, abs=1e-12)
    total, ets = co2_shares(fig1_net, fig1_pf, ["a", "b"])
    assert total == pytest.approx(0.50, abs=1e-12)


def test_partial_shortfalls_count_toward_eliminated_co2(fig1_net, fig1_pf):
    # c is halved when d is removed, so c contributes half its emissions
    total, _ = co2_shares(fig1_net, fig1_pf, ["d"])
    hand = (3 * 1.0 + 1 * 1.0 + 2 * 0.5) / 10.0
    assert total == pytest.approx(hand, abs=1e-12)


# -- one propagation, one scorer ---------------------------------------------------


def assert_one_path(net, pf, scenarios, total_co2=None):
    """The public indices equal the batch rows of the same scenarios exactly,
    read from each row by name."""
    total = resolve_total_co2(net, total_co2)
    ets_total = ets_total_co2(net)
    rows = evaluate_scenarios(net, pf, scenarios, workers=1)
    for ids, row in zip(scenarios, rows):
        esri_v, ew_v, elim, _, _ = row
        assert (row.esri, row.ew_esri, row.eliminated_co2) == (esri_v, ew_v, elim)
        assert esri(net, pf, ids) == row.esri
        assert ew_esri(net, pf, ids) == row.ew_esri
        assert co2_shares(net, pf, ids, total_co2=total_co2) == (
            row.eliminated_co2 / total, row.eliminated_co2 / ets_total if ets_total > 0.0 else 0.0
        )
        eq = propagate(net, pf, ids)
        assert (row.iterations, row.converged) == (eq.iterations, eq.converged)


def test_public_indices_match_batch_rows(fig1_net, fig1_pf):
    assert_one_path(fig1_net, fig1_pf, [(), ("a",), ("d",), ("a", "b"), ("c", "d", "e")])
    rng = np.random.default_rng(52)
    for _ in range(20):
        case = RandomCase(rng)
        total = None if any(c is not None for c in case.co2) else 1.0
        scenarios = [(), (case.ids[0],), case.scenario_ids(rng), case.scenario_ids(rng)]
        assert_one_path(case.net, case.pf(0.5), scenarios, total_co2=total)


# -- employment weighting --------------------------------------------------------


def test_missing_employment_excluded_from_both_sides():
    net, pf = tiny_net(
        [Firm("a", "G46", employees=8), Firm("b", "G47", employees=None), Firm("c", "G48", employees=2)],
        [SupplyEdge("a", "c", 1.0), SupplyEdge("b", "c", 1.0)],
    )
    # removing a zeroes a; b's fate is invisible to the employment index
    val = ew_esri(net, pf, ["a"])
    eq = propagate(net, pf, ["a"])
    expect = (8 * (1 - eq.of("a")) + 2 * (1 - eq.of("c"))) / 10.0
    assert val == pytest.approx(expect, abs=1e-12)


def test_ew_esri_requires_some_employment_data():
    net, pf = tiny_net(
        [Firm("a", "G46"), Firm("b", "G47")], [SupplyEdge("a", "b", 1.0)]
    )
    with pytest.raises(NoEmploymentData):
        ew_esri(net, pf, ["a"])
    with pytest.raises(NoEmploymentData):
        batch_indices(net, pf, ["a"])


def test_zero_employment_total_is_no_employment_data():
    # every known count is 0: the shares have no denominator, as with no counts
    employees = [0, None, 0]
    net, pf = tiny_net(
        [Firm(fid, "G46", employees=e, co2=1.0) for fid, e in zip("abc", employees)],
        [SupplyEdge("a", "b", 1.0), SupplyEdge("b", "c", 2.0)],
    )
    h = propagate(net, pf, ["a"]).h.tolist()
    assert math.isnan(oracle.dense_ew_esri(employees, h))
    for workers in (1, 2):
        (_, ew, _, _, _), = evaluate_scenarios(net, pf, [("a",)], workers=workers)
        assert math.isnan(ew)
    with pytest.raises(NoEmploymentData):
        ew_esri(net, pf, ["a"])
    with pytest.raises(NoEmploymentData):
        batch_indices(net, pf, ["a"])


def test_indices_match_dense_reference():
    rng = np.random.default_rng(50)
    for _ in range(15):
        case = RandomCase(rng)
        pf = case.pf(0.5)
        ids = case.scenario_ids(rng)
        removed_idx = {case.ids.index(i) for i in ids}
        _, _, ref_h = oracle.dense_equilibrium(
            case.dense, case.sectors, case.ess, 0.5, removed_idx
        )
        assert esri(case.net, pf, ids, tol=1e-12, max_iter=20000) == pytest.approx(
            oracle.dense_esri(case.dense, ref_h), abs=1e-10
        )
        assert ew_esri(case.net, pf, ids, tol=1e-12, max_iter=20000) == pytest.approx(
            oracle.dense_ew_esri(case.employees, ref_h), abs=1e-10
        )


# -- totals ----------------------------------------------------------------------


def test_total_co2_resolution(fig1_net):
    assert resolve_total_co2(fig1_net, None) == pytest.approx(10.0)
    assert resolve_total_co2(fig1_net, 40.0) == pytest.approx(40.0)
    assert ets_total_co2(fig1_net) == pytest.approx(10.0)
    bare = ProductionNetwork(
        [Firm("a", "G46"), Firm("b", "G47")], [SupplyEdge("a", "b", 1.0)]
    )
    with pytest.raises(MissingTotal):
        resolve_total_co2(bare, None)
    with pytest.raises(ValueError):
        resolve_total_co2(fig1_net, -1.0)
    with pytest.raises(ValueError):
        resolve_total_co2(fig1_net, float("nan"))
    with pytest.raises(ValueError):
        resolve_total_co2(fig1_net, math.inf)


def test_zero_co2_total_is_missing():
    net, pf = tiny_net(
        [Firm("a", "G46", employees=3, co2=0.0), Firm("b", "G47", employees=5, co2=0.0)],
        [SupplyEdge("a", "b", 1.0)],
    )
    with pytest.raises(MissingTotal):
        batch_indices(net, pf, ["a", "b"], workers=1)
    with pytest.raises(MissingTotal):
        co2_shares(net, pf, ["a"])
    # a configured total still divides: every share is 0
    table = batch_indices(net, pf, ["a", "b"], workers=1, total_co2=4.0)
    assert [r.co2_share_total for r in table.rows] == [0.0, 0.0]


def test_validate_reports_the_totals_the_shares_divide_by():
    # on this network a sum over the whole CO2 column with NaN read as 0
    # rounds one ulp away from a sum over the known values alone
    net = generate(SynthParams(600, 3000, n_ets=12, seed=7))
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    table = batch_indices(net, pf, ets, workers=1)
    report = validate(net)
    assert report.co2_total_known.hex() == table.total_co2.hex()
    assert report.ets_co2_total.hex() == table.ets_total_co2.hex()


def test_explicit_total_rescales_share(fig1_net, fig1_pf):
    total, _ = co2_shares(fig1_net, fig1_pf, ["d"], total_co2=20.0)
    assert total == pytest.approx(0.25, abs=1e-12)


def test_ets_share_zero_without_ets_emissions():
    net, pf = tiny_net(
        [Firm("a", "G46", employees=1, co2=5.0), Firm("b", "G47", employees=1)],
        [SupplyEdge("a", "b", 1.0)],
    )
    _, ets = co2_shares(net, pf, ["a"])
    assert ets == 0.0


# -- batch tables ----------------------------------------------------------------


def test_batch_on_bundled_example(fig1_net, fig1_pf):
    table = batch_indices(fig1_net, fig1_pf, list("abcde"), workers=1)
    assert table.total_co2 == pytest.approx(10.0)
    assert table.ets_total_co2 == pytest.approx(10.0)
    d = table.row("d")
    assert d.esri == pytest.approx(0.6875, abs=1e-12)
    assert d.ew_esri == pytest.approx(0.70, abs=1e-12)
    assert d.co2_share_total == pytest.approx(0.30, abs=1e-12)  # d's own emissions
    assert d.co2_share_ets == pytest.approx(0.30, abs=1e-12)
    assert d.ratio == pytest.approx(0.30 / 0.70, abs=1e-12)
    a = table.row("a")
    assert a.ew_esri == pytest.approx(0.15, abs=1e-12)
    assert a.ratio == pytest.approx(0.20 / 0.15, abs=1e-12)


def test_batch_ets_shares_sum_to_one(fig1_net, fig1_pf):
    table = batch_indices(fig1_net, fig1_pf, list("abcde"), workers=1)
    assert sum(r.co2_share_ets for r in table.rows) == pytest.approx(1.0, abs=1e-12)


def test_batch_rejects_unknown_ids(fig1_net, fig1_pf):
    with pytest.raises(InvalidScenario, match=r"^unknown candidate id\(s\): zz, yy$"):
        batch_indices(fig1_net, fig1_pf, ["d", "zz", "a", "yy"], workers=1)


@pytest.mark.parametrize(
    "candidates, named",
    [(["d", "a", "d"], "d"), (["d", "zz", "d"], "d"), ([7, 7], "7"), (list("adada"), "a, d")],
)
def test_batch_rejects_repeated_ids_before_any_propagation(
    fig1_net, fig1_pf, monkeypatch, candidates, named
):
    # a repeat is named before an unknown id, each repeated id once, in input order
    calls = []
    original = indices.evaluate_scenarios

    def recording(net, pf, scenarios, *args, **kwargs):
        calls.append(scenarios)
        return original(net, pf, scenarios, *args, **kwargs)

    monkeypatch.setattr(indices, "evaluate_scenarios", recording)
    with pytest.raises(InvalidScenario, match=rf"^repeated candidate id\(s\): {named}$"):
        batch_indices(fig1_net, fig1_pf, candidates, workers=1)
    assert calls == []


def test_index_table_row_lookup(fig1_net, fig1_pf):
    table = batch_indices(fig1_net, fig1_pf, ["d", "a"], workers=1)
    assert table.row("d") is table.rows[0]
    assert table.row("a") is table.rows[1]
    with pytest.raises(KeyError, match=r"no index row for firm 'b'"):
        table.row("b")


def test_infinite_ratio_for_jobless_emitter():
    # x burns a lot, employs nobody on record, and supplies nobody
    net, pf = tiny_net(
        [
            Firm("a", "G46", employees=5, co2=1.0, ets_member=True),
            Firm("b", "G47", employees=5),
            Firm("x", "C10", employees=None, co2=9.0, ets_member=True),
        ],
        [SupplyEdge("a", "b", 1.0)],
    )
    table = batch_indices(net, pf, ["a", "x"], workers=1)
    row = table.row("x")
    assert row.ew_esri == 0.0
    assert math.isinf(row.ratio) and row.ratio > 0
    finite = table.finite_ratios_descending()
    assert finite == sorted(finite, reverse=True)
    assert all(math.isfinite(v) for v in finite)


def test_nonconverged_rows_keep_values(fig1_net, fig1_pf, caplog):
    with caplog.at_level("WARNING"):
        table = batch_indices(fig1_net, fig1_pf, ["d"], workers=1, max_iter=1)
    d = table.row("d")
    assert all(math.isfinite(v) for v in (d.esri, d.ew_esri, d.co2_share_total, d.ratio))
    assert any("iteration cap" in r.getMessage() for r in caplog.records)
    [capped] = [r for r in caplog.records if "iteration cap" in r.getMessage()]
    assert capped.getMessage() == "1 candidate scenario(s) hit the iteration cap before tol: d"
    assert capped.name == "esri_net.indices"


def test_capped_scenario_indices_log_the_cap(fig1_net, fig1_pf, caplog):
    for score in (esri, ew_esri, co2_shares):
        caplog.clear()
        with caplog.at_level("WARNING"):
            score(fig1_net, fig1_pf, ["e", "d"])
        assert not caplog.records  # a converged scenario is not logged
        with caplog.at_level("WARNING"):
            score(fig1_net, fig1_pf, ["e", "d"], max_iter=1)
        [record] = caplog.records
        assert record.getMessage() == "1 scenario(s) hit the iteration cap before tol: removing d, e"
        assert record.name == "esri_net.indices"


# -- parallel evaluation ----------------------------------------------------------


def test_worker_counts_agree_bitwise(fig1_net, fig1_pf):
    singles = [("a",), ("b",), ("c",), ("d",), ("e",), ("a", "b"), ("d", "e")]
    # every subset of the firms, twice: shares of 22 scenarios at 3 workers
    # overflow a 16-column block, so ended columns refill, and the cap of 2
    # steps ends some columns capped and others converged; eight times over,
    # each worker's share of 85 or 86 refills its block several times
    subsets = [tuple(c) for k in range(6) for c in itertools.combinations("abcde", k)] * 2
    for scenarios, max_iter in ((singles, DEFAULT_MAX_ITER), (subsets, 2), (subsets * 4, 2)):
        seq = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=1, max_iter=max_iter)
        par = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=3, max_iter=max_iter)
        assert seq == par
    assert {converged for *_, converged in seq} == {True, False}


def test_batch_worker_counts_agree_bitwise():
    rng = np.random.default_rng(51)
    case = RandomCase(rng, n_max=12)
    pf = case.pf(0.5)
    if not any(c is not None for c in case.co2):
        pytest.skip("case lacks emissions data")
    one = batch_indices(case.net, pf, case.ids, workers=1)
    two = batch_indices(case.net, pf, case.ids, workers=2)
    for r1, r2 in zip(one.rows, two.rows):
        assert r1 == r2


def synthetic_case(seed: int, n_scenarios: int = 20):
    net = generate(SynthParams(500, 2500, n_ets=12, seed=seed))
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    return net, pf, [(fid,) for fid in net.ids[:n_scenarios]]


def test_concurrent_single_worker_calls_keep_their_own_state():
    # two threads, each evaluating its own network in this process at once
    cases = [synthetic_case(seed) for seed in (1, 2)]
    expected = [evaluate_scenarios(net, pf, scenarios, workers=1) for net, pf, scenarios in cases]
    barrier = threading.Barrier(len(cases))
    outcomes: list[object] = [None] * len(cases)

    def run(k: int) -> None:
        net, pf, scenarios = cases[k]
        try:
            barrier.wait(timeout=60)
            outcomes[k] = [evaluate_scenarios(net, pf, scenarios, workers=1) for _ in range(3)]
        except Exception as fault:  # reported below, on the test's own thread
            outcomes[k] = fault

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that shared state would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(outcomes, expected):
        assert got == [want] * 3


def test_pooled_unknown_id_raises_and_the_next_pool_is_clean(fig1_net, fig1_pf):
    # pooled calls from several threads at once are not tested: each would
    # fork a multi-threaded process
    with pytest.raises(InvalidScenario, match="zz"):
        evaluate_scenarios(fig1_net, fig1_pf, [("a",), ("zz",), ("d",)], workers=2)
    net, pf, scenarios = synthetic_case(3, n_scenarios=6)
    assert evaluate_scenarios(net, pf, scenarios, workers=2) == evaluate_scenarios(
        net, pf, scenarios, workers=1
    )


def test_a_failing_worker_share_raises_and_the_next_pool_is_clean(fig1_net, fig1_pf, monkeypatch):
    solve = _Engine.results

    def failing(self, part, tol, max_iter):
        if ShockScenario("d") in part:
            raise RuntimeError("share failed")
        return solve(self, part, tol, max_iter)

    with monkeypatch.context() as patched:
        patched.setattr(_Engine, "results", failing)  # before the pool forks, so workers inherit it
        patched.setattr(indices.os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="^share failed$"):
            evaluate_scenarios(fig1_net, fig1_pf, [("a",), ("b",), ("d",)], workers=2)
    net, pf, scenarios = synthetic_case(3, n_scenarios=6)
    assert evaluate_scenarios(net, pf, scenarios, workers=2) == evaluate_scenarios(
        net, pf, scenarios, workers=1
    )


def test_results_cross_the_pool_as_named_records(fig1_net, fig1_pf, monkeypatch):
    # perfbench reads iterations and converged at positions 3 and 4
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    scenarios = [("a",), ("d",), ("c", "d", "e"), ()]
    for max_iter in (1, DEFAULT_MAX_ITER):
        pooled = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=2, max_iter=max_iter)
        assert pooled == evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=1, max_iter=max_iter)
        for r in pooled:
            assert type(r) is ScenarioResult
            assert r._fields == ("esri", "ew_esri", "eliminated_co2", "iterations", "converged")
            assert (r[3], r[4]) == (r.iterations, r.converged)
        assert {r.converged for r in pooled} == ({False, True} if max_iter == 1 else {True})


_KILL_A_WORKER = """
import multiprocessing, os, signal, sys
from concurrent.futures.process import BrokenProcessPool
from esri_net import EssentialityMatrix, calibrate, classify_inputs, indices, load_network
from esri_net.propagation import ShockScenario, _Engine

fig1 = sys.argv[1]
net = load_network(os.path.join(fig1, "firms.csv"), os.path.join(fig1, "edges.csv"))
matrix = EssentialityMatrix.from_csv(os.path.join(fig1, "essentiality.csv"))
pf = calibrate(net, classify_inputs(net, matrix), gamma=0.0)
solve = _Engine.results

def dying(self, part, tol, max_iter):
    if ShockScenario("d") in part:
        os.kill(os.getpid(), signal.SIGKILL)
    return solve(self, part, tol, max_iter)

_Engine.results = dying
indices.os.cpu_count = lambda: 2
try:
    indices.evaluate_scenarios(net, pf, [("a",), ("b",), ("d",)], workers=2)
except BrokenProcessPool:
    print("broken", len(multiprocessing.active_children()))
"""


def test_a_dead_worker_raises_and_the_next_pool_is_clean():
    # in a child interpreter with its own process group, so a pool that
    # waits forever for the lost share is killed with its workers
    env = dict(os.environ)
    src = str(Path(indices.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-c", _KILL_A_WORKER, str(FIG1)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the pool still waited for the dead worker's share after 60 s")
    assert (child.returncode, out) == (0, "broken 0\n"), err
    net, pf, scenarios = synthetic_case(3, n_scenarios=6)
    assert evaluate_scenarios(net, pf, scenarios, workers=2) == evaluate_scenarios(
        net, pf, scenarios, workers=1
    )


@pytest.fixture
def stub_pool(monkeypatch):
    """A stub pool on a 2-core host: it records the worker count asked for
    and maps in this process, so no worker process is started.  Returns the
    counts asked for and what each map was given."""
    asked = []
    dealt = []

    class StubPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            dealt.append(list(iterable))
            return list(map(fn, dealt[-1]))

    monkeypatch.setattr(indices, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(indices, "_task", None)
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    return asked, dealt


def test_pool_is_capped_at_the_core_count(fig1_net, fig1_pf, stub_pool, monkeypatch, caplog):
    asked, dealt = stub_pool
    scenarios = [(fid,) for fid in "abcde"]
    expected = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=1)
    with caplog.at_level("INFO", logger="esri_net.indices"):
        assert evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=500) == expected
    assert asked == [2]
    assert any("500 workers" in r.getMessage() and r.levelname == "INFO" for r in caplog.records)
    caplog.clear()
    assert evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=2) == expected
    assert asked == [2, 2]
    assert not caplog.records  # a request within the core count is not logged
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 8)
    evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=500)
    evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=3)
    assert asked == [2, 2, 5, 3]  # the scenario count caps too
    # one share per worker, however many scenarios there are
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    subsets = [tuple(c) for k in range(6) for c in itertools.combinations("abcde", k)]
    many = (subsets * 5)[:150]
    dealt.clear()
    assert evaluate_scenarios(fig1_net, fig1_pf, many, workers=2) == evaluate_scenarios(
        fig1_net, fig1_pf, many, workers=1
    )
    assert dealt == [[0, 1]]


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_unknown_scenario_is_named_before_any_pool(fig1_net, fig1_pf, stub_pool, workers):
    # at two workers the shares are [a, yy] and [zz]; the stub maps the first share first
    asked, _ = stub_pool
    with pytest.raises(InvalidScenario, match=r"in scenario: zz$"):
        evaluate_scenarios(fig1_net, fig1_pf, [("a",), ("zz",), ("yy",)], workers=workers)
    assert asked == []


@pytest.mark.parametrize("workers", [1, 2])
def test_scenarios_given_as_iterators_are_read_once(fig1_net, fig1_pf, monkeypatch, workers):
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    removals = [("d",), ("a", "b"), ("e",)]
    got = evaluate_scenarios(fig1_net, fig1_pf, [iter(r) for r in removals], workers=workers)
    assert got == evaluate_scenarios(fig1_net, fig1_pf, removals, workers=workers)
    assert got != evaluate_scenarios(fig1_net, fig1_pf, [()] * 3, workers=1)


def test_no_fork_falls_back_to_one_worker(fig1_net, fig1_pf, monkeypatch, caplog):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    scenarios = [tuple(c) for k in range(1, 4) for c in itertools.combinations("abcde", k)]
    expected = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=1)
    monkeypatch.setattr(indices.multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    with caplog.at_level("WARNING", logger="esri_net.indices"):
        got = evaluate_scenarios(fig1_net, fig1_pf, scenarios, workers=2)
    assert repr(got) == repr(expected)  # repr tells every float bit apart, -0.0 from 0.0 too
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "fork unavailable" in warnings[0].getMessage()
