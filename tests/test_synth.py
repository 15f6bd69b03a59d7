"""Synthetic network generation: determinism, validity, tail structure."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from esri_net import (
    EssentialityMatrix,
    Firm,
    InfeasibleParams,
    ProductionNetwork,
    SynthParams,
    compute_strengths,
    essentiality_rows,
    generate,
    tail_exponent_estimate,
    top_strength_share,
    validate,
    write_essentiality,
    write_network,
)
from esri_net.synth import DEFAULT_SECTOR_WEIGHTS


BASE = SynthParams(n_firms=400, n_edges=2400, n_ets=30, seed=9)


# -- validity -------------------------------------------------------------------


def test_generated_network_is_well_formed():
    net = generate(BASE)
    assert net.n_firms == 400
    assert 0 < net.n_edges <= 2400
    assert net.firms[0].id == "F001"
    assert net.firms[-1].id == "F400"
    assert np.all(net.weights > 0)
    assert np.all(net.supplier_idx != net.buyer_idx)
    keys = net.supplier_idx * net.n_firms + net.buyer_idx
    assert np.unique(keys).size == keys.size  # no parallel edges
    rep = validate(net)
    assert rep.n_ets == 30
    assert rep.employment_known_firms == 400


def test_employment_and_emissions():
    net = generate(BASE)
    assert all(f.employees is not None and f.employees >= 1 for f in net.firms)
    ets = [f for f in net.firms if f.ets_member]
    assert len(ets) == 30
    assert all(f.co2 is not None and f.co2 > 0 for f in ets)
    assert all(f.co2 is None for f in net.firms if not f.ets_member)


def test_sectors_come_from_configured_pool():
    net = generate(SynthParams(n_firms=100, n_edges=300, seed=4))
    assert {f.sector for f in net.firms} <= set(DEFAULT_SECTOR_WEIGHTS)


# -- determinism ------------------------------------------------------------------


def test_same_seed_same_network():
    assert generate(BASE) == generate(BASE)


def test_different_seed_different_network():
    other = SynthParams(n_firms=400, n_edges=2400, n_ets=30, seed=10)
    assert generate(other) != generate(BASE)


@pytest.mark.parametrize(
    "params, digest",
    [
        (
            SynthParams(2000, 10000, n_ets=20, seed=9),
            "b090cd33e3bb0de979da611df2fcb2280447df36d04ad983fd514bd889c03087",
        ),
        (
            SynthParams(10000, 50000, n_ets=20, seed=5),
            "e8b592b7e06b6cbca82320f7150c6ebf544736ecab167a18ac98d819be9f966e",
        ),
    ],
)
def test_edge_arrays_are_pinned(params, digest):
    # sha256 over the supplier, buyer and weight arrays of earlier releases
    net = generate(params)
    h = hashlib.sha256()
    for arr in (net.supplier_idx, net.buyer_idx, net.weights):
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_written_files_are_pinned(tmp_path):
    # sha256 of write_network's firms.csv and edges.csv of earlier releases
    write_network(generate(SynthParams(n_firms=2000, n_edges=10000, n_ets=40, seed=9)), tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("firms.csv", "edges.csv")
    }
    assert digests == {
        "firms.csv": "825b06b51dbd39b8067d1c44118bde8ba53fc1c1022698c891280b12a93a4559",
        "edges.csv": "c5114f8869e2d62e491fe62c07c036267765f0c7c4301590458b39e5a722fdd6",
    }


def test_stages_draw_from_independent_streams():
    # adding emissions data must not perturb the wiring or the weights
    with_ets = generate(BASE)
    without = generate(SynthParams(n_firms=400, n_edges=2400, n_ets=0, seed=9))
    assert np.array_equal(with_ets.supplier_idx, without.supplier_idx)
    assert np.array_equal(with_ets.buyer_idx, without.buyer_idx)
    assert np.array_equal(with_ets.weights, without.weights)
    assert [f.employees for f in with_ets.firms] == [f.employees for f in without.firms]
    assert [f.sector for f in with_ets.firms] == [f.sector for f in without.firms]


# -- parameter validation ------------------------------------------------------------


def test_infeasible_params():
    with pytest.raises(InfeasibleParams):
        generate(SynthParams(n_firms=0, n_edges=0))
    with pytest.raises(InfeasibleParams):
        generate(SynthParams(n_firms=3, n_edges=7))  # > n*(n-1)
    with pytest.raises(InfeasibleParams):
        generate(SynthParams(n_firms=3, n_edges=2, n_ets=4))
    with pytest.raises(InfeasibleParams):
        generate(SynthParams(n_firms=3, n_edges=2, degree_exponent=1.0))
    # NaN fails every comparison, so the check must be written to reject it
    with pytest.raises(InfeasibleParams):
        generate(SynthParams(50, 100, degree_exponent=float("nan")))


# -- tail structure ---------------------------------------------------------------


def test_out_strength_tail_matches_requested_exponent():
    net = generate(SynthParams(n_firms=1000, n_edges=5000, seed=42))
    st = compute_strengths(net)
    est = tail_exponent_estimate(st.s_out)
    assert est == pytest.approx(2.5, abs=0.3)
    with pytest.raises(ValueError, match="^too few positive values"):
        tail_exponent_estimate(np.array([2.0, 1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match="^tail is not decaying"):
        tail_exponent_estimate(np.ones(20))


def test_strength_is_concentrated_at_the_top():
    net = generate(SynthParams(n_firms=1000, n_edges=5000, seed=42))
    assert top_strength_share(net, 0.10) > 0.25
    assert top_strength_share(ProductionNetwork([Firm("a", "C10"), Firm("b", "G46")], []), 0.5) == 0.0


# -- essentiality helpers -----------------------------------------------------------


def test_essentiality_rows_cover_observed_pairs(tmp_path):
    net = generate(SynthParams(n_firms=100, n_edges=400, seed=3))
    rows = essentiality_rows(net)
    observed = {
        (net.firms[i].sector, net.firms[j].sector)
        for i, j in zip(net.supplier_idx, net.buyer_idx)
    }
    assert {(s, b) for s, b, _ in rows} == observed
    for s, _, flag in rows:
        assert flag == (1 if s[:1] in {"B", "C", "D"} else 0)

    path = tmp_path / "ess.csv"
    write_essentiality(rows, path)
    matrix = EssentialityMatrix.from_csv(path)
    for s, b, flag in rows:
        assert matrix.is_essential(s, b) is bool(flag)
