"""Essentiality resolution and production-function calibration."""
from __future__ import annotations

import numpy as np
import pytest

from esri_net import (
    EssentialityMatrix,
    Firm,
    FirmTable,
    LevelState,
    MissingFile,
    ProductionNetwork,
    SchemaError,
    SupplyEdge,
    SynthParams,
    calibrate,
    classify_inputs,
    compute_strengths,
    generate,
    production_step,
)

from conftest import FIG1, RandomCase


# -- essentiality lookup -----------------------------------------------------


def test_from_csv_reads_pairs(fig1_matrix):
    assert fig1_matrix.is_essential("D35", "C23") is True
    assert fig1_matrix.is_essential("G46", "C25") is False
    # unknown pairs fall back to non-essential
    assert fig1_matrix.is_essential("A01", "A01") is False


def test_from_csv_schema_errors(tmp_path):
    p = tmp_path / "ess.csv"
    p.write_text("supplier_sector,buyer_sector\nA,B\n")
    with pytest.raises(Exception):
        EssentialityMatrix.from_csv(p)
    p.write_text("supplier_sector,buyer_sector,essential\nA,B,2\n")
    with pytest.raises(Exception):
        EssentialityMatrix.from_csv(p)
    # a repeated pair would silently overwrite the earlier row's flag
    p.write_text("supplier_sector,buyer_sector,essential\nD35,C25,1\nD35,C25,0\n")
    with pytest.raises(SchemaError, match=r"^ess\.csv row 3: repeated sector pair"):
        EssentialityMatrix.from_csv(p)
    p.write_text("supplier_sector,buyer_sector,essential\nD35,C25,1\nD35, ,1\n")
    with pytest.raises(SchemaError, match=r"^ess\.csv row 3: empty sector code$"):
        EssentialityMatrix.from_csv(p)
    with pytest.raises(MissingFile, match="^missing input file: "):
        EssentialityMatrix.from_csv(tmp_path / "none.csv")


def test_default_matrix_uses_supplier_letter():
    m = EssentialityMatrix.default()
    # mining, manufacturing, and utilities supply essential inputs
    assert m.is_essential("B05", "G46") is True
    assert m.is_essential("C25", "A01") is True
    assert m.is_essential("D35", "C25") is True
    assert m.is_essential("G46", "C25") is False
    assert m.is_essential("A01", "D35") is False


def test_exact_pair_overrides_letter_rule():
    m = EssentialityMatrix(pairs={("C25", "G46"): False}, default_rule="supplier-letter")
    assert m.is_essential("C25", "G46") is False  # exact pair wins
    assert m.is_essential("C25", "G47") is True   # letter rule for the rest


def test_unknown_default_rule_rejected():
    # an unlisted pair must never fall through to an unnamed rule
    with pytest.raises(ValueError, match="default_rule"):
        EssentialityMatrix(pairs={}, default_rule="strict")


# -- input classification ----------------------------------------------------


def test_fig1_partition(fig1_net, fig1_matrix):
    pf = calibrate(fig1_net, classify_inputs(fig1_net, fig1_matrix))
    # the only essential supply relation is d -> e
    groups = pf.function_of("e").essential_groups
    assert [(g.sector, list(g.members)) for g in groups] == [("D35", ["d"])]
    assert pf.function_of("c").essential_groups == ()
    assert set(pf.function_of("c").nonessential) == {"a", "b", "d"}
    assert list(pf.function_of("d").nonessential) == ["e"]


def test_partition_groups_by_supplier_sector():
    firms = [
        Firm("s1", "C10"),
        Firm("s2", "C10"),
        Firm("s3", "D35"),
        Firm("buyer", "G46"),
    ]
    edges = [
        SupplyEdge("s1", "buyer", 1.0),
        SupplyEdge("s2", "buyer", 2.0),
        SupplyEdge("s3", "buyer", 4.0),
    ]
    net = ProductionNetwork(firms, edges)
    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()))
    groups = pf.function_of("buyer").essential_groups
    assert [(g.sector, g.members) for g in groups] == [
        ("C10", {"s1": 1.0, "s2": 2.0}),
        ("D35", {"s3": 4.0}),
    ]


def _relabelled(n_codes: int) -> ProductionNetwork:
    """A synthetic network with its firms spread at random over n_codes sector codes."""
    net = generate(SynthParams(n_firms=3000, n_edges=15000, seed=3))
    codes = [f"{'ABCDGM'[k % 6]}{k:03d}" for k in range(n_codes)]
    pick = np.random.default_rng(n_codes).integers(0, n_codes, size=net.n_firms).tolist()
    t = net.table
    table = FirmTable.build(t.index, [codes[k] for k in pick], t.employees, t.co2, t.ets)
    return ProductionNetwork.from_arrays(table, net.supplier_idx, net.buyer_idx, net.weights)


def test_partition_matches_a_per_edge_lookup(fig1_net, fig1_matrix):
    rng = np.random.default_rng(12)
    cases = [("fig1", fig1_net, fig1_matrix)]
    for k in range(30):
        case = RandomCase(rng)
        cases += [(f"random {k}", case.net, case.matrix),
                  (f"random {k}, default", case.net, EssentialityMatrix.default())]
    net = _relabelled(300)
    assert len(net.table.sector_names) >= 250
    # exact pairs (two seen on edges), letter pairs and the letter rule all decide
    names, code = net.table.sector_names, net.table.sector_code
    seen = [(names[code[net.supplier_idx[e]]], names[code[net.buyer_idx[e]]]) for e in (0, 1)]
    pairs = {seen[0]: True, seen[1]: False, ("G", "A"): True, ("B", "C"): False}
    cases.append(("300 codes", net, EssentialityMatrix(pairs=pairs, default_rule="supplier-letter")))

    for name, net, matrix in cases:
        sector = [net.table.sector_names[c] for c in net.table.sector_code.tolist()]
        reference = [
            matrix.is_essential(sector[s], sector[b])
            for s, b in zip(net.supplier_idx.tolist(), net.buyer_idx.tolist())
        ]
        flags = classify_inputs(net, matrix).edge_essential
        assert flags.dtype == bool and np.array_equal(flags, reference), name


# -- calibrated functions ----------------------------------------------------


def test_x0_rules(fig1_net, fig1_matrix):
    part = classify_inputs(fig1_net, fig1_matrix)
    st = compute_strengths(fig1_net)
    out = calibrate(fig1_net, part, gamma=0.5, x0_rule="out")
    mx = calibrate(fig1_net, part, gamma=0.5, x0_rule="max")
    for i, firm in enumerate(fig1_net.firms):
        s_out, s_in = st.s_out[i], st.s_in[i]
        expect_out = s_out if s_out > 0 else s_in
        assert out.x0[i] == pytest.approx(expect_out)
        assert mx.x0[i] == pytest.approx(max(s_in, s_out))
    with pytest.raises(ValueError):
        calibrate(fig1_net, part, x0_rule="median")


def test_gamma_bounds(fig1_net, fig1_matrix):
    part = classify_inputs(fig1_net, fig1_matrix)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            calibrate(fig1_net, part, gamma=bad)


def test_partition_must_match_network(fig1_net, fig1_matrix):
    other = RandomCase(np.random.default_rng(3))
    part = classify_inputs(other.net, other.matrix)
    with pytest.raises(ValueError, match="^input partition was built for a different network$"):
        calibrate(fig1_net, part)


def test_beta_is_gamma_share_of_baseline(fig1_net, fig1_matrix):
    part = classify_inputs(fig1_net, fig1_matrix)
    pf = calibrate(fig1_net, part, gamma=0.25)
    for firm_id in ("c", "d"):  # firms with non-essential inputs
        f = pf.function_of(firm_id)
        assert f.beta == pytest.approx(0.25 * f.x0)
    # e buys only essential inputs, so beta plays no role and stays at x0
    assert pf.function_of("e").beta == pytest.approx(pf.function_of("e").x0)


def test_x0_positive_wherever_a_firm_has_inputs(fig1_net, fig1_matrix):
    rng = np.random.default_rng(36)
    cases = [RandomCase(rng) for _ in range(30)]
    for net, matrix in [(c.net, c.matrix) for c in cases] + [(fig1_net, fig1_matrix)]:
        part = classify_inputs(net, matrix)
        s_in = compute_strengths(net).s_in
        for rule in ("out", "max"):
            x0 = calibrate(net, part, x0_rule=rule).x0
            assert np.all(x0[s_in > 0.0] > 0.0)


# -- the production function, one step in relative levels ----------------------
#
# production_step evaluates every firm's production function at its
# suppliers' levels h_d, relative to the reference output: x0 maps to 1
# and beta to gamma.


def step_output(case, pf, levels: np.ndarray) -> np.ndarray:
    """Relative output of every firm at the given supplier levels."""
    state = LevelState(ids=case.net.ids, h_d=levels, h_u=np.ones(case.n))
    return production_step(state, case.net, pf, ()).h_d


def test_full_supply_reproduces_baseline():
    rng = np.random.default_rng(30)
    for _ in range(20):
        case = RandomCase(rng)
        for gamma in (0.0, 0.5, 1.0):
            full = step_output(case, case.pf(gamma), np.ones(case.n))
            for i in range(case.n):
                assert full[i] == pytest.approx(1.0, abs=1e-12)


def test_losing_any_essential_group_kills_output():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(30):
        case = RandomCase(rng)
        pf = case.pf(0.5)
        for i, firm in enumerate(case.net.firms):
            for group in pf.function_of(firm.id).essential_groups:
                levels = np.ones(case.n)
                for member in group.members:
                    levels[case.ids.index(member)] = 0.0
                assert step_output(case, pf, levels)[i] == pytest.approx(0.0, abs=1e-12)
                checked += 1
    assert checked > 20


def test_losing_all_nonessential_inputs_floors_at_beta():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(30):
        case = RandomCase(rng)
        pf = case.pf(0.4)
        for i, firm in enumerate(case.net.firms):
            f = pf.function_of(firm.id)
            if not f.nonessential or f.essential_groups:
                continue
            levels = np.ones(case.n)
            for member in f.nonessential:
                levels[case.ids.index(member)] = 0.0
            assert step_output(case, pf, levels)[i] == pytest.approx(0.4, abs=1e-12)
            checked += 1
    assert checked > 5


def test_gamma_one_ignores_nonessential_inputs():
    rng = np.random.default_rng(33)
    case = RandomCase(rng)
    pf = case.pf(1.0)
    out = step_output(case, pf, np.zeros(case.n))
    for i, firm in enumerate(case.net.firms):
        if pf.function_of(firm.id).essential_groups:
            continue
        assert out[i] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_is_monotone_in_each_supplier():
    rng = np.random.default_rng(34)
    for _ in range(10):
        case = RandomCase(rng)
        pf = case.pf(0.5)
        for i, firm in enumerate(case.net.firms):
            f = pf.function_of(firm.id)
            base = np.array([float(rng.uniform(0.0, 1.0)) for _ in case.ids])
            lo = step_output(case, pf, base)[i]
            for supplier in list(f.nonessential) + [
                m for g in f.essential_groups for m in g.members
            ]:
                bumped = base.copy()
                j = case.ids.index(supplier)
                bumped[j] = min(1.0, base[j] + 0.3)
                assert step_output(case, pf, bumped)[i] >= lo - 1e-12


def test_output_is_capped_at_baseline():
    rng = np.random.default_rng(35)
    case = RandomCase(rng)
    pf = case.pf(0.5)
    over = step_output(case, pf, np.full(case.n, 2.0))  # oversupply cannot beat x0
    for i in range(case.n):
        assert over[i] <= 1.0 + 1e-12


def test_audit_rows_cover_all_firms(fig1_net, fig1_matrix):
    pf = calibrate(fig1_net, classify_inputs(fig1_net, fig1_matrix), gamma=0.0)
    rows = list(zip(*pf.audit_columns()))
    assert [r[0] for r in rows] == ["a", "b", "c", "d", "e"]
    by = {r[0]: r for r in rows}
    assert by["c"][1] == pytest.approx(100.0)  # x0 from in-strength fallback
    assert by["e"][3] == 1 and by["e"][4] == 0  # one essential group, no others
    assert by["c"][3] == 0 and by["c"][4] == 3
