"""Shock propagation: bundled example exactness, invariants, oracle checks."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from esri_net import (
    EssentialityMatrix,
    Firm,
    InvalidScenario,
    LevelState,
    ProductionNetwork,
    ShockScenario,
    SupplyEdge,
    SynthParams,
    batch_indices,
    calibrate,
    classify_inputs,
    compute_strengths,
    generate,
    initial_state,
    load_network,
    production_step,
    propagate,
    run_strategy,
    write_network,
)
from esri_net import indices
from esri_net.indices import evaluate_scenarios
from esri_net.propagation import DEFAULT_MAX_ITER, DEFAULT_TOL, _block_width, _engine

import oracle
from conftest import RandomCase


# -- scenarios ---------------------------------------------------------------


def test_scenario_deduplicates_and_sorts():
    s = ShockScenario(["b", "a", "b"])
    assert s.removed == frozenset({"a", "b"})
    assert sorted(s.removed) == ["a", "b"]
    assert len(s) == 2
    assert len(ShockScenario()) == 0


def test_string_scenario_is_one_firm(fig1_net, fig1_pf, multi_group_model):
    eq = propagate(fig1_net, fig1_pf, "d")
    assert eq.of("d") == 0.0
    with pytest.raises(InvalidScenario):
        propagate(fig1_net, fig1_pf, "nope")
    # the scenario itself reads a lone string as one id, not as firms a and b
    assert ShockScenario("ab").removed == frozenset({"ab"})
    with pytest.raises(InvalidScenario, match=r"in scenario: ab$"):
        propagate(fig1_net, fig1_pf, ShockScenario("ab"))
    # so do batch candidates and a strategy's ordering: "de" is not firms d and e
    with pytest.raises(InvalidScenario, match=r"^unknown candidate id\(s\): de$"):
        batch_indices(fig1_net, fig1_pf, "de", workers=1)
    with pytest.raises(InvalidScenario, match=r"^unknown firm id\(s\) in scenario: de$"):
        run_strategy(fig1_net, fig1_pf, "de", 0.5, workers=1)
    # and a scenario list: "de" is one scenario, not the scenarios {d} and {e}
    for workers in (1, 2):
        with pytest.raises(InvalidScenario, match=r"in scenario: de$"):
            evaluate_scenarios(fig1_net, fig1_pf, "de", workers=workers)
    net, pf = multi_group_model
    fid = net.ids[16]
    assert len(fid) > 1
    assert batch_indices(net, pf, fid, workers=1) == batch_indices(net, pf, [fid], workers=1)
    assert run_strategy(net, pf, fid, 0.5, workers=1) == run_strategy(net, pf, [fid], 0.5, workers=1)
    for workers in (1, 2):
        assert evaluate_scenarios(net, pf, fid, workers=workers) == evaluate_scenarios(
            net, pf, [(fid,)], workers=workers
        )


def test_unknown_ids_rejected(fig1_net, fig1_pf):
    with pytest.raises(InvalidScenario):
        propagate(fig1_net, fig1_pf, ["a", "zz"])


def test_non_string_unknown_ids_are_named(fig1_net, fig1_pf):
    # each id is named by its text: sorted in a scenario, in input order
    # among batch candidates
    scenario = r"^unknown firm id\(s\) in scenario: 7, zz$"
    with pytest.raises(InvalidScenario, match=scenario):
        propagate(fig1_net, fig1_pf, ["a", "zz", 7])
    for workers in (1, 2):
        with pytest.raises(InvalidScenario, match=scenario):
            evaluate_scenarios(fig1_net, fig1_pf, [("d",), ("a", "zz", 7)], workers=workers)
    with pytest.raises(InvalidScenario, match=r"^unknown firm id\(s\) in scenario: 7$"):
        run_strategy(fig1_net, fig1_pf, ["a", 7], 0.5, workers=1)
    with pytest.raises(InvalidScenario, match=r"^unknown candidate id\(s\): zz, 7$"):
        batch_indices(fig1_net, fig1_pf, ["a", "zz", 7], workers=1)


def test_argument_validation(fig1_net, fig1_pf, fig1_matrix, tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        propagate(fig1_net, fig1_pf, ["a"], tol=0.0)
    with pytest.raises(ValueError):
        propagate(fig1_net, fig1_pf, ["a"], tol=float("nan"))
    with pytest.raises(ValueError):
        propagate(fig1_net, fig1_pf, ["a"], max_iter=0)
    # a calibration belongs to its network object, not to an equal copy
    write_network(fig1_net, tmp_path)
    copy = load_network(tmp_path / "firms.csv", tmp_path / "edges.csv")
    assert copy == fig1_net and copy is not fig1_net
    copy_pf = calibrate(copy, classify_inputs(copy, fig1_matrix), gamma=0.0)
    # a stub context records any pool asked for, so none is started
    contexts = []
    monkeypatch.setattr(indices, "multiprocessing", SimpleNamespace(get_context=contexts.append))
    monkeypatch.setattr(indices.os, "cpu_count", lambda: 2)
    mismatch = "^production functions were calibrated for a different network$"
    with pytest.raises(ValueError, match=mismatch):
        propagate(fig1_net, copy_pf, ["a"])
    with pytest.raises(ValueError, match=mismatch):
        production_step(initial_state(fig1_net, ["a"]), fig1_net, copy_pf, ["a"])
    for workers in (1, 2):
        with pytest.raises(ValueError, match=mismatch):
            evaluate_scenarios(fig1_net, copy_pf, [("a",), ("d",)], workers=workers)
    for workers in (0, -1):  # checked before the engine, which copy_pf would refuse
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            evaluate_scenarios(fig1_net, copy_pf, [("a",), ("d",)], workers=workers)
    assert contexts == []  # raised before any pool was built
    # a level state belongs to its network's firm order, held by an equal copy too
    state = initial_state(fig1_net, ["a"])
    other = "^level state was built for a different network$"
    with pytest.raises(ValueError, match=other):
        production_step(LevelState(state.ids[::-1], state.h_d, state.h_u), fig1_net, fig1_pf, ["a"])
    with pytest.raises(ValueError, match=other):
        production_step(LevelState(state.ids[:3], state.h_d[:3], state.h_u[:3]), fig1_net, fig1_pf, ["a"])
    with pytest.raises(ValueError, match=other):
        production_step(LevelState(state.ids, state.h_d[:3], state.h_u), fig1_net, fig1_pf, ["a"])
    with pytest.raises(ValueError, match=other):
        production_step(LevelState(state.ids, state.h_d, state.h_u[:3]), fig1_net, fig1_pf, ["a"])
    copied = production_step(LevelState(copy.ids, state.h_d, state.h_u), fig1_net, fig1_pf, ["a"])
    assert np.array_equal(copied.h, production_step(state, fig1_net, fig1_pf, ["a"]).h)


# -- bundled 5-firm example ----------------------------------------------------


def test_empty_scenario_converges_immediately(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, ())
    assert eq.converged and eq.iterations == 1
    npt.assert_allclose(eq.h, 1.0, rtol=0, atol=0)


def test_remove_d(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, ["d"])
    assert eq.converged
    by = {i: eq.of(i) for i in "abcde"}
    assert by == pytest.approx({"a": 1.0, "b": 1.0, "c": 0.5, "d": 0.0, "e": 0.0})


def test_remove_a_and_b(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, ["a", "b"])
    assert eq.converged
    by = {i: eq.of(i) for i in "abcde"}
    assert by == pytest.approx({"a": 0.0, "b": 0.0, "c": 0.5, "d": 1.0, "e": 1.0})


def test_first_step_by_hand(fig1_net, fig1_pf):
    # after one step with d removed: c loses half its inputs on the supply
    # side, e loses its only essential input, d's absence leaves a and b
    # without customers on the demand side of c only via c's purchases
    state = initial_state(fig1_net, ["d"])
    npt.assert_allclose(state.h, [1, 1, 1, 0, 1][: state.h.size], rtol=0, atol=0)
    assert state.of("d") == 0.0
    nxt = production_step(state, fig1_net, fig1_pf, ["d"])
    h_d = dict(zip(nxt.ids, nxt.h_d))
    h_u = dict(zip(nxt.ids, nxt.h_u))
    assert h_d["c"] == pytest.approx(0.5)   # 50 of 100 input value gone
    assert h_d["e"] == pytest.approx(0.0)   # essential supplier lost
    assert h_d["a"] == pytest.approx(1.0)
    assert h_u["e"] == pytest.approx(0.0)   # only customer removed
    assert h_u["a"] == pytest.approx(1.0)   # c still buying at full level
    assert h_u["c"] == pytest.approx(1.0)   # no customers, demand unaffected


# -- invariants ----------------------------------------------------------------


def test_levels_stay_in_unit_interval():
    rng = np.random.default_rng(40)
    for _ in range(30):
        case = RandomCase(rng)
        pf = case.pf(float(rng.choice([0.0, 0.5, 1.0])))
        eq = propagate(case.net, pf, case.scenario_ids(rng))
        for arr in (eq.h_d, eq.h_u, eq.h):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


def test_iteration_descends_monotonically():
    rng = np.random.default_rng(41)
    for _ in range(15):
        case = RandomCase(rng)
        pf = case.pf(0.5)
        ids = case.scenario_ids(rng)
        state = initial_state(case.net, ids)
        for _ in range(8):
            nxt = production_step(state, case.net, pf, ids)
            assert np.all(nxt.h_d <= state.h_d + 1e-12)
            assert np.all(nxt.h_u <= state.h_u + 1e-12)
            state = nxt


def test_larger_scenarios_hit_harder():
    rng = np.random.default_rng(42)
    for _ in range(15):
        case = RandomCase(rng)
        pf = case.pf(0.5)
        small = set(case.scenario_ids(rng))
        big = small | set(case.scenario_ids(rng))
        # both runs stop above their true fixed points; the stopping gap can
        # exceed the per-step tol, so compare with headroom
        h_small = propagate(case.net, pf, small, tol=1e-12, max_iter=20000).h
        h_big = propagate(case.net, pf, big, tol=1e-12, max_iter=20000).h
        assert np.all(h_big <= h_small + 1e-8)


def test_weight_scale_invariance():
    rng = np.random.default_rng(43)
    for _ in range(10):
        case = RandomCase(rng)
        scale = float(rng.uniform(0.01, 100.0))
        scaled_edges = [
            SupplyEdge(e.supplier_id, e.buyer_id, e.weight * scale)
            for e in case.net.edges()
        ]
        scaled = ProductionNetwork(case.net.firms, scaled_edges)
        from esri_net import classify_inputs, calibrate

        pf_a = case.pf(0.5)
        pf_b = calibrate(scaled, classify_inputs(scaled, case.matrix), gamma=0.5)
        ids = case.scenario_ids(rng)
        npt.assert_allclose(
            propagate(case.net, pf_a, ids).h,
            propagate(scaled, pf_b, ids).h,
            rtol=0,
            atol=1e-12,
        )


def test_propagate_is_deterministic():
    rng = np.random.default_rng(44)
    case = RandomCase(rng)
    pf = case.pf(0.5)
    ids = case.scenario_ids(rng)
    a = propagate(case.net, pf, ids)
    b = propagate(case.net, pf, ids)
    assert np.array_equal(a.h, b.h) and a.iterations == b.iterations


def test_iteration_cap_reports_nonconvergence(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, ["d"], max_iter=1)
    assert not eq.converged
    assert eq.iterations == 1
    assert eq.max_delta > 0.0


def test_removing_everything_zeroes_the_economy(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, list("abcde"))
    npt.assert_allclose(eq.h, 0.0, rtol=0, atol=0)


def test_isolated_firm_is_untouched():
    firms = [Firm("a", "C10"), Firm("b", "G46"), Firm("x", "A01")]
    net = ProductionNetwork(firms, [SupplyEdge("a", "b", 1.0)])
    from esri_net import EssentialityMatrix, classify_inputs, calibrate

    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    eq = propagate(net, pf, ["a"])
    assert eq.of("x") == 1.0
    assert eq.of("b") < 1.0


def test_empty_network():
    net = ProductionNetwork([], [])
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    eq = propagate(net, pf, ())
    assert eq.converged and eq.ids == () and eq.h.shape == (0,)
    with pytest.raises(InvalidScenario, match=r"in scenario: x$"):
        propagate(net, pf, ["x"])


# -- agreement with the dense reference ----------------------------------------


def test_matches_dense_reference():
    rng = np.random.default_rng(45)
    for _ in range(20):
        case = RandomCase(rng)
        gamma = float(rng.choice([0.0, 0.5, 1.0]))
        pf = case.pf(gamma)
        ids = case.scenario_ids(rng)
        eq = propagate(case.net, pf, ids, tol=1e-12, max_iter=20000)
        removed_idx = {case.ids.index(i) for i in ids}
        ref_d, ref_u, ref_h = oracle.dense_equilibrium(
            case.dense, case.sectors, case.ess, gamma, removed_idx
        )
        npt.assert_allclose(eq.h_d, ref_d, rtol=0, atol=1e-10)
        npt.assert_allclose(eq.h_u, ref_u, rtol=0, atol=1e-10)
        npt.assert_allclose(eq.h, ref_h, rtol=0, atol=1e-10)


# -- bit-identity with the previous step ---------------------------------------


class _ReferenceStep:
    """Frozen copy of the step the engine replaced, kept as a reference.

    Three operators (essential groups E, non-essential averages N, upstream
    U), a per-firm group minimum by reduceat, and boolean masks for the
    non-essential firms, the firms without customers and the removed ones.
    """

    def __init__(self, net, pf):
        n = net.n_firms
        self.n = n
        self.gamma = pf.gamma
        n_groups = pf.es_group_owner.size
        if n_groups:
            rows = np.repeat(np.arange(n_groups), np.diff(pf.es_group_ptr))
            data = pf.es_weight / pf.es_group_weight[rows]
            self.E = sp.csr_matrix((data, (rows, pf.es_supplier)), shape=(n_groups, n))
        else:
            self.E = None
        self.group_firms = np.flatnonzero(np.diff(pf.firm_group_ptr) > 0)
        self.group_starts = pf.firm_group_ptr[self.group_firms]
        if pf.ne_supplier.size:
            data = pf.ne_weight / pf.ne_firm_weight[pf.ne_buyer]
            self.N = sp.csr_matrix((data, (pf.ne_buyer, pf.ne_supplier)), shape=(n, n))
        else:
            self.N = None
        self.has_ne = pf.has_ne
        s_out = compute_strengths(net).s_out
        if net.n_edges:
            data = net.weights / s_out[net.supplier_idx]
            self.U = sp.csr_matrix((data, (net.supplier_idx, net.buyer_idx)), shape=(n, n))
        else:
            self.U = None
        self.no_customers = ~(s_out > 0.0)

    def step(self, h_d, h_u, removed):
        new_d = np.ones(self.n)
        if self.E is not None:
            avail = self.E @ h_d
            new_d[self.group_firms] = np.minimum.reduceat(avail, self.group_starts)
        if self.N is not None:
            nu = self.N @ h_d
            ne_term = self.gamma + (1.0 - self.gamma) * nu[self.has_ne]
            np.minimum(new_d[self.has_ne], ne_term, out=ne_term)
            new_d[self.has_ne] = ne_term
        np.clip(new_d, 0.0, 1.0, out=new_d)
        new_d[removed] = 0.0
        if self.U is not None:
            new_u = self.U @ h_u
            np.clip(new_u, 0.0, 1.0, out=new_u)
            new_u[self.no_customers] = 1.0
        else:
            new_u = np.ones(self.n)
        new_u[removed] = 0.0
        return new_d, new_u


def _reference_mask(net, ids):
    mask = np.zeros(net.n_firms, dtype=bool)
    for fid in ids:
        mask[net.index_of(fid)] = True
    return mask


def _reference_propagate(net, pf, ids, tol=1e-9, max_iter=1000):
    ref = _ReferenceStep(net, pf)
    removed = _reference_mask(net, ids)
    h_d = np.where(removed, 0.0, np.ones(net.n_firms))
    h_u = h_d.copy()
    iterations, max_delta, converged = 0, np.inf, False
    while iterations < max_iter:
        new_d, new_u = ref.step(h_d, h_u, removed)
        iterations += 1
        max_delta = max(
            float(np.max(np.abs(new_d - h_d), initial=0.0)),
            float(np.max(np.abs(new_u - h_u), initial=0.0)),
        )
        h_d, h_u = new_d, new_u
        if max_delta <= tol:
            converged = True
            break
    return h_d, h_u, iterations, max_delta, converged


def _assert_same_as_reference(net, pf, ids, **kw):
    eq = propagate(net, pf, ids, **kw)
    h_d, h_u, iterations, max_delta, converged = _reference_propagate(net, pf, ids, **kw)
    assert np.array_equal(eq.h_d, h_d)
    assert np.array_equal(eq.h_u, h_u)
    assert np.array_equal(eq.h, np.minimum(h_d, h_u))
    assert eq.iterations == iterations
    assert eq.max_delta == max_delta
    assert eq.converged == converged


def test_bit_identical_to_reference_on_fig1(fig1_net, fig1_pf):
    for ids in ((), ("d",), ("a", "b"), ("c", "e"), tuple("abcde")):
        _assert_same_as_reference(fig1_net, fig1_pf, ids)
    _assert_same_as_reference(fig1_net, fig1_pf, ("d",), max_iter=1)


def test_bit_identical_to_reference_on_random_cases():
    rng = np.random.default_rng(46)
    for _ in range(20):
        case = RandomCase(rng)
        pf = case.pf(float(rng.choice([0.0, 0.3, 0.5, 1.0])))
        _assert_same_as_reference(case.net, pf, case.scenario_ids(rng))
        _assert_same_as_reference(case.net, pf, case.scenario_ids(rng), tol=1e-13, max_iter=5000)


@pytest.fixture(scope="module")
def multi_group_model():
    net = generate(SynthParams(n_firms=2_000, n_edges=12_000, n_ets=40, seed=9))
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    return net, pf


def test_bit_identical_to_reference_on_a_generated_network(multi_group_model):
    net, pf = multi_group_model
    groups_per_firm = np.bincount(np.diff(pf.firm_group_ptr))
    assert groups_per_firm.size >= 4 and groups_per_firm[2] > 0 and groups_per_firm[3] > 0
    assert (compute_strengths(net).s_out == 0.0).any()  # firms without customers
    ets = [f.id for f in net.firms if f.ets_member]
    for fid in ets[:6]:
        _assert_same_as_reference(net, pf, (fid,))
    for k in (2, 5, 12):
        _assert_same_as_reference(net, pf, tuple(ets[:k]))
    _assert_same_as_reference(net, pf, ())
    _assert_same_as_reference(net, pf, tuple(ets[:3]), max_iter=7)


def test_bit_identical_to_reference_on_corner_networks():
    rng = np.random.default_rng(47)
    case = RandomCase(rng)
    while case.n < 8:
        case = RandomCase(rng)
    all_essential = EssentialityMatrix(
        pairs={pair: True for pair in case.ess}, default_rule="non-essential"
    )
    none_essential = EssentialityMatrix(pairs={}, default_rule="non-essential")
    edgeless = ProductionNetwork(case.net.firms, [])
    corners = ((edgeless, none_essential), (case.net, none_essential), (case.net, all_essential))
    for net, matrix in corners:
        pf = calibrate(net, classify_inputs(net, matrix), gamma=0.5)
        assert pf.es_supplier.size == 0 or pf.ne_supplier.size == 0
        for ids in ((), case.ids[:1], case.ids[1:4], tuple(case.ids)):
            _assert_same_as_reference(net, pf, ids)


def test_production_step_matches_reference_from_a_mixed_state(multi_group_model):
    net, pf = multi_group_model
    rng = np.random.default_rng(48)
    ids = tuple(f.id for f in net.firms if f.ets_member)[:4]
    h_d = rng.uniform(0.0, 1.0, net.n_firms)
    h_u = rng.uniform(0.0, 1.0, net.n_firms)
    given = h_d.copy(), h_u.copy()
    nxt = production_step(LevelState(net.ids, h_d, h_u), net, pf, ids)
    # the given state is read, never written, removed firms included
    assert np.array_equal(h_d, given[0]) and np.array_equal(h_u, given[1])
    removed = _reference_mask(net, ids)
    ref_d, ref_u = _ReferenceStep(net, pf).step(
        np.where(removed, 0.0, h_d), np.where(removed, 0.0, h_u), removed
    )
    assert np.array_equal(nxt.h_d, ref_d)
    assert np.array_equal(nxt.h_u, ref_u)


def test_bit_identical_to_reference_with_shuffled_edges(multi_group_model):
    # generated edges come supplier-sorted within each buyer; shuffled, the
    # calibrated edge order no longer matches ascending firm order in a row
    net, _ = multi_group_model
    perm = np.random.default_rng(49).permutation(net.n_edges)
    shuffled = ProductionNetwork.from_arrays(
        net.table, net.supplier_idx[perm], net.buyer_idx[perm], net.weights[perm]
    )
    pf = calibrate(shuffled, classify_inputs(shuffled, EssentialityMatrix.default()), gamma=0.5)
    assert not np.array_equal(pf.es_supplier, calibrate(
        net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5
    ).es_supplier)
    ets = [f.id for f in shuffled.firms if f.ets_member]
    for fid in ets[:4]:
        _assert_same_as_reference(shuffled, pf, (fid,))
    _assert_same_as_reference(shuffled, pf, tuple(ets[:5]))
    _assert_same_as_reference(shuffled, pf, tuple(ets[:3]), max_iter=7)


def _interleaved_network():
    """Twelve firms whose order mixes every downstream class and the firms
    without customers: (essential groups, non-essential inputs) per firm is
    r0 (0, no), m2 (2, no), s0 (0, yes), c1 (1, no), z (0, no), b2 (2, yes),
    d1 (0, yes), m1 (1, yes), k1 (1, no), w (0, yes), c2 (2, no), t (1, yes);
    m2, z, b2 and t have no customers."""
    sectors = {
        "r0": "A01", "m2": "G46", "s0": "G46", "c1": "C10", "z": "G46", "b2": "G46",
        "d1": "D35", "m1": "G46", "k1": "C20", "w": "G46", "c2": "C10", "t": "G46",
    }
    edges = [
        ("c1", "m2", 1.7), ("c2", "m2", 0.3), ("d1", "m2", 2.9),
        ("r0", "s0", 0.7), ("w", "s0", 1.1),
        ("d1", "c1", 3.3),
        ("c1", "b2", 0.9), ("k1", "b2", 1.3), ("r0", "b2", 0.1),
        ("r0", "d1", 5.0),
        ("d1", "m1", 0.6), ("s0", "m1", 1.9),
        ("c1", "k1", 2.2),
        ("m1", "w", 0.4),
        ("d1", "c2", 1.4), ("k1", "c2", 0.8),
        ("c2", "t", 2.6), ("r0", "t", 0.2),
    ]
    firms = [Firm(fid, sector) for fid, sector in sectors.items()]
    return ProductionNetwork(firms, [SupplyEdge(s, b, w) for s, b, w in edges])


def test_bit_identical_to_reference_on_an_interleaved_network():
    net = _interleaved_network()
    for gamma in (0.0, 0.3, 0.5):
        pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=gamma)
        classes = list(zip(np.diff(pf.firm_group_ptr).tolist(), pf.has_ne.tolist()))
        assert classes == [(0, False), (2, False), (0, True), (1, False), (0, False), (2, True),
                           (0, True), (1, True), (1, False), (0, True), (2, False), (1, True)]
        no_customers = compute_strengths(net).s_out == 0.0
        assert np.flatnonzero(no_customers).tolist() == [1, 4, 5, 11]
        for fid in net.ids:
            _assert_same_as_reference(net, pf, (fid,))
        for ids in ((), ("r0", "w"), ("d1", "k1"), ("c1", "c2", "m1"), net.ids):
            _assert_same_as_reference(net, pf, ids)
        _assert_same_as_reference(net, pf, ("r0",), max_iter=2)


def test_production_step_matches_reference_on_an_interleaved_network():
    net = _interleaved_network()
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.3)
    rng = np.random.default_rng(50)
    for ids in ((), ("d1",), ("c1", "s0")):
        h_d = rng.uniform(0.0, 1.0, net.n_firms)
        h_u = rng.uniform(0.0, 1.0, net.n_firms)
        nxt = production_step(LevelState(net.ids, h_d, h_u), net, pf, ids)
        removed = _reference_mask(net, ids)
        ref_d, ref_u = _ReferenceStep(net, pf).step(
            np.where(removed, 0.0, h_d), np.where(removed, 0.0, h_u), removed
        )
        assert np.array_equal(nxt.h_d, ref_d)
        assert np.array_equal(nxt.h_u, ref_u)


def test_equilibrium_lookup_by_id(fig1_net, fig1_pf):
    eq = propagate(fig1_net, fig1_pf, ["d"])
    assert isinstance(eq, LevelState)  # an equilibrium is a level state plus the solve's counts
    assert [eq.of(fid) for fid in fig1_net.ids] == eq.h.tolist()
    with pytest.raises(ValueError, match="'zz'"):
        eq.of("zz")


# -- scenario blocks ---------------------------------------------------------------


def _assert_block_same_as_propagate(net, pf, scenarios, width, **kw):
    """Every equilibrium of a block run equals propagate's bit for bit;
    returns the (position, equilibrium) pairs in the order they ended."""
    ended = list(_engine(net, pf).solve(scenarios, width, **kw))
    assert sorted(k for k, _ in ended) == list(range(len(scenarios)))
    for k, eq in ended:
        ref = propagate(net, pf, scenarios[k], **kw)
        assert np.array_equal(eq.h_d, ref.h_d)
        assert np.array_equal(eq.h_u, ref.h_u)
        assert np.array_equal(eq.h, ref.h)
        assert eq.iterations == ref.iterations
        assert eq.max_delta == ref.max_delta
        assert eq.converged == ref.converged
    return ended


def test_block_same_as_propagate_on_a_generated_network(multi_group_model):
    net, pf = multi_group_model
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    scenarios = [(fid,) for fid in ets[:20]] + [tuple(ets[:k]) for k in (2, 5, 12)] + [()]
    # one block: each column ends at its own step, so they end in step order
    ended = _assert_block_same_as_propagate(net, pf, scenarios, len(scenarios))
    steps = [eq.iterations for _, eq in ended]
    assert steps == sorted(steps) and steps[0] == 1 and len(set(steps)) > 5
    # narrower blocks refill ended columns, then drop them; 6 is the width at 100k firms
    for width in (1, 4, 6):
        _assert_block_same_as_propagate(net, pf, scenarios, width)
    # a cap inside the spread of step counts ends some columns capped
    ended = _assert_block_same_as_propagate(net, pf, scenarios, 4, max_iter=int(np.median(steps)))
    assert {eq.converged for _, eq in ended} == {True, False}


def test_block_same_as_propagate_on_small_networks(fig1_net, fig1_pf):
    # ("d",) twice: two live records with the same removed firms
    _assert_block_same_as_propagate(fig1_net, fig1_pf, [(), ("d",), ("a", "b"), ("d",), tuple("abcde")], 3)
    _assert_block_same_as_propagate(fig1_net, fig1_pf, [("d",), ("c", "e"), ()], 2, max_iter=1)
    rng = np.random.default_rng(50)
    for _ in range(10):
        case = RandomCase(rng)
        pf = case.pf(float(rng.choice([0.0, 0.5, 1.0])))
        scenarios = [case.scenario_ids(rng) for _ in range(5)]
        _assert_block_same_as_propagate(case.net, pf, scenarios, 2)
        _assert_block_same_as_propagate(case.net, pf, scenarios, 5, tol=1e-13, max_iter=5000)


def _count_column_steps(engine, monkeypatch):
    """Wraps the engine's channel steps on the instance; returns the count of
    column-steps each has taken, by method name."""
    counts = {"step_down": 0, "step_up": 0}
    for name in counts:
        step = getattr(engine, name)

        def counted(x, out, step=step, name=name):
            counts[name] += 1 if x.ndim == 1 else x.shape[1]
            step(x, out)

        monkeypatch.setattr(engine, name, counted)
    return counts


def test_a_channel_leaves_its_block_when_its_step_changes_nothing(fig1_net, fig1_pf, monkeypatch):
    counts = _count_column_steps(_engine(fig1_net, fig1_pf), monkeypatch)
    # c has no customers, so no h_d moves after step 1, while h_u settles
    # through the d-e loop; a has no suppliers, so no h_u moves after step 1
    eq = propagate(fig1_net, fig1_pf, ("c",))
    assert counts == {"step_down": 1, "step_up": eq.iterations} and eq.iterations > 2
    counts.update(step_down=0, step_up=0)
    eq = propagate(fig1_net, fig1_pf, ("a",))
    assert counts == {"step_down": eq.iterations, "step_up": 1} and eq.iterations > 1
    # in a block, slots whose channels have left are refilled and dropped
    scenarios = [("c",), ("a",), ("d",), ("e",), (), ("c", "e"), ("a", "b")]
    for width in (1, 2, 3, len(scenarios)):
        _assert_block_same_as_propagate(fig1_net, fig1_pf, scenarios, width)
    _assert_block_same_as_propagate(fig1_net, fig1_pf, scenarios, 2, max_iter=2)


def test_supply_columns_step_less_than_demand_columns(multi_group_model, monkeypatch):
    net, pf = multi_group_model
    engine = _engine(net, pf)
    counts = _count_column_steps(engine, monkeypatch)
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    steps = sum(eq.iterations for _, eq in engine.solve([(fid,) for fid in ets[:20]]))
    assert counts["step_down"] < counts["step_up"] <= steps


def _settling_steps(net, pf, ids, tol=DEFAULT_TOL, max_iter=1000):
    """(iterations, iterations_d, iterations_u) of a plain production_step loop."""
    state = initial_state(net, ids)
    settled = [None, None]
    for step in range(1, max_iter + 1):
        nxt = production_step(state, net, pf, ids)
        changes = (
            float(np.max(np.abs(nxt.h_d - state.h_d), initial=0.0)),
            float(np.max(np.abs(nxt.h_u - state.h_u), initial=0.0)),
        )
        settled = [s if s is not None or d > tol else step for s, d in zip(settled, changes)]
        state = nxt
        if max(changes) <= tol:
            break
    return step, *settled


def test_per_channel_steps_match_a_production_step_loop(fig1_net, fig1_pf, multi_group_model):
    cases = [(fig1_net, fig1_pf, [(), ("a",), ("c",), ("d",), ("e",), ("c", "e")])]
    rng = np.random.default_rng(53)
    for _ in range(6):
        case = RandomCase(rng)
        cases.append((case.net, case.pf(0.5), [case.scenario_ids(rng) for _ in range(4)]))
    net, pf = multi_group_model
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    cases.append((net, pf, [(fid,) for fid in ets[:3]]))
    for net, pf, scenarios in cases:
        for kw in ({}, {"max_iter": 3}):
            blocked = dict(_engine(net, pf).solve(scenarios, len(scenarios), **kw))
            for k, ids in enumerate(scenarios):
                eq = propagate(net, pf, ids, **kw)
                counts = (eq.iterations, eq.iterations_d, eq.iterations_u)
                assert counts == _settling_steps(net, pf, ids, **kw)
                assert (blocked[k].iterations, blocked[k].iterations_d, blocked[k].iterations_u) == counts
    # the demand channel of ("c",) settles last; capped before it, it has no count
    eq = propagate(fig1_net, fig1_pf, ("c",), max_iter=3)
    assert (eq.converged, eq.iterations_d, eq.iterations_u) == (False, 1, None)


def test_block_rejects_what_propagate_rejects(fig1_net, fig1_pf):
    with pytest.raises(ValueError):
        list(_engine(fig1_net, fig1_pf).solve([("a",)], 1, tol=0.0))
    with pytest.raises(ValueError):
        list(_engine(fig1_net, fig1_pf).solve([("a",)], 1, max_iter=0))
    with pytest.raises(InvalidScenario):
        list(_engine(fig1_net, fig1_pf).solve([("a",), ("zz",)], 2))
    with pytest.raises(InvalidScenario):  # met as it enters a column
        list(_engine(fig1_net, fig1_pf).solve([("a",), ("zz",)], 1))
    for width in (0, -3):
        with pytest.raises(ValueError, match=f"got {width}$"):
            list(_engine(fig1_net, fig1_pf).solve([("a",)], width))
    # no scenarios: nothing to step, nothing yielded
    assert list(_engine(fig1_net, fig1_pf).solve([])) == []
    assert _engine(fig1_net, fig1_pf).results([], DEFAULT_TOL, DEFAULT_MAX_ITER) == []


def _column_bytes(n_firms, d_rows, u_rows):
    # each channel's two n-float buffers and the D and U product outputs,
    # 8 bytes a value
    return 8 * (4 * n_firms + d_rows + u_rows)


def test_block_width_rule(multi_group_model):
    net, pf = multi_group_model
    ops = _engine(net, pf)
    assert ops.column_bytes == _column_bytes(net.n_firms, ops.D.shape[0], ops.U.shape[0])
    # at most 32 MiB of columns and no more columns than scenarios; the D and
    # U rows are those of the generated 100k-firm (seed 7) and 10k-firm
    # (seed 5) networks
    at_100k = _column_bytes(100_000, 149_958, 92_473)
    at_10k = _column_bytes(10_000, 15_169, 9_242)
    assert _block_width(at_100k, 24) == 6
    assert _block_width(at_100k, 4) == 4
    assert _block_width(at_10k, 200) == 65
    assert _block_width(at_10k, 24) == 24
    assert _block_width(at_10k, 5) == 5
    assert _block_width(_column_bytes(5, 5, 4), 64) == 64
    assert _block_width(_column_bytes(1_000_000, 2_000_000, 1_000_000), 24) == 1


def _assert_descends(net, pf, scenarios, steps):
    """Steps the scenarios as one block per channel, as the block loop does,
    and checks new <= old, element by element, at every step: the spent
    buffer, which holds the step change new - old, is never positive."""
    ops = _engine(net, pf)
    entering = [
        (slot, np.array([net.index_of(fid) for fid in ids], dtype=np.int64), 1.0)
        for slot, ids in enumerate(scenarios)
    ]
    for columns in ops.channels(len(scenarios)):
        columns.update([], entering)
        for _ in range(steps):
            columns.advance()
            assert (columns.block(1) <= 0.0).all()


def test_levels_descend_exactly(multi_group_model):
    rng = np.random.default_rng(51)
    for _ in range(8):
        case = RandomCase(rng)
        for gamma in (0.0, 0.3, 0.5, 1.0):
            scenarios = [case.scenario_ids(rng) for _ in range(3)] + [()]
            _assert_descends(case.net, case.pf(gamma), scenarios, 30)
    net, _ = multi_group_model
    ets = [fid for fid, member in zip(net.ids, net.ets_mask()) if member]
    cls = classify_inputs(net, EssentialityMatrix.default())
    for gamma in (0.0, 0.3, 0.5, 1.0):
        pf = calibrate(net, cls, gamma=gamma)
        _assert_descends(net, pf, [(fid,) for fid in ets[:5]] + [tuple(ets[:12])], 100)
        # a scenario that moves nothing ends after one step with a change of +0.0
        for width in (1, 2):
            _, eq = next(_engine(net, pf).solve([(), (ets[0],)], width))
            assert eq.iterations == 1 and math.copysign(1.0, eq.max_delta) == 1.0
