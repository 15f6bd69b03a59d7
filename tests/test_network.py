"""Ingestion, validation, and strength accounting."""
from __future__ import annotations

import gc
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from esri_net import (
    DanglingEdge,
    DuplicateFirmId,
    EssentialityMatrix,
    Firm,
    FirmTable,
    MissingFile,
    NetworkError,
    NonPositiveWeight,
    ProductionNetwork,
    SchemaError,
    SelfLoop,
    SupplyEdge,
    compute_strengths,
    load_network,
    validate,
    write_network,
)

import esri_net.network as network_module

from conftest import FIG1, RandomCase


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


FIRM_HEADER = ["id", "sector", "employees", "co2", "ets_member"]
EDGE_HEADER = ["supplier_id", "buyer_id", "weight"]

GOOD_FIRMS = [
    ["a", "G46", 1, 2.0, 1],
    ["b", "C25", "", "", 0],
]
GOOD_EDGES = [["a", "b", 3.5]]


def write_pair(tmp_path, firms=None, edges=None):
    fp = tmp_path / "firms.csv"
    ep = tmp_path / "edges.csv"
    write_csv(fp, FIRM_HEADER, GOOD_FIRMS if firms is None else firms)
    write_csv(ep, EDGE_HEADER, GOOD_EDGES if edges is None else edges)
    return fp, ep


# -- loading ---------------------------------------------------------------


def test_load_fig1_fixture(fig1_net):
    assert fig1_net.n_firms == 5
    assert fig1_net.n_edges == 5
    a = fig1_net.firm("a")
    assert a.sector == "G46"
    assert a.employees == 1
    assert a.co2 == 2.0
    assert a.ets_member is True
    with pytest.raises(KeyError, match="unknown firm id 'zz'"):
        fig1_net.index_of("zz")


def test_load_parses_missing_fields(tmp_path):
    fp, ep = write_pair(tmp_path)
    net = load_network(fp, ep)
    b = net.firm("b")
    assert b.employees is None
    assert b.co2 is None
    assert b.ets_member is False


def test_missing_file(tmp_path):
    fp, ep = write_pair(tmp_path)
    with pytest.raises(MissingFile):
        load_network(tmp_path / "nope.csv", ep)
    with pytest.raises(MissingFile):
        load_network(fp, tmp_path / "nope.csv")


def test_bad_header_rejected(tmp_path):
    fp, ep = write_pair(tmp_path)
    (tmp_path / "badf.csv").write_text("id,sector,employees\n")
    with pytest.raises(SchemaError):
        load_network(tmp_path / "badf.csv", ep)
    (tmp_path / "bade.csv").write_text("src,dst,weight\na,b,1\n")
    with pytest.raises(SchemaError):
        load_network(fp, tmp_path / "bade.csv")


def test_non_utf8_input_is_a_schema_error_at_its_byte(tmp_path):
    fp, ep = write_pair(tmp_path)
    good = fp.read_bytes()
    fp.write_bytes(good + b"c\xff,C25,,,0\n")
    with pytest.raises(SchemaError, match=f"^firms.csv byte {len(good) + 1}: not UTF-8 text$"):
        load_network(fp, ep)
    write_pair(tmp_path)
    # past the first read buffer, so the offset counts from the start of the file
    rows = b"".join(b"a,b,1\n" for _ in range(3000))
    head = b"supplier_id,buyer_id,weight\n" + rows
    ep.write_bytes(head + b"a,\xe9,1\n")
    with pytest.raises(SchemaError, match=f"^edges.csv byte {len(head) + 2}: not UTF-8 text$"):
        load_network(fp, ep)
    matrix = tmp_path / "essentiality.csv"
    matrix.write_bytes(b"\x80supplier_sector,buyer_sector,essential\n")
    with pytest.raises(SchemaError, match="^essentiality.csv byte 0: not UTF-8 text$"):
        EssentialityMatrix.from_csv(matrix)


def test_load_pauses_gc_and_restores_it_after_a_fault(tmp_path, monkeypatch):
    seen = []
    append = network_module._append_firm_row

    def spy(row, *columns):
        seen.append(gc.isenabled())
        return append(row, *columns)

    monkeypatch.setattr(network_module, "_append_firm_row", spy)
    fp, ep = write_pair(tmp_path, edges=GOOD_EDGES + [["a", "b", "x"]])
    assert gc.isenabled()
    with pytest.raises(SchemaError, match=r"^edges\.csv row 3: "):
        load_network(fp, ep)
    assert seen == [False, False]
    assert gc.isenabled()


def test_load_leaves_gc_disabled_when_the_caller_disabled_it(tmp_path):
    bad_fp, bad_ep = write_pair(tmp_path, edges=GOOD_EDGES + [["a", "b", "x"]])
    (tmp_path / "good").mkdir()
    fp, ep = write_pair(tmp_path / "good")
    gc.disable()
    try:
        with pytest.raises(SchemaError):
            load_network(bad_fp, bad_ep)
        assert not gc.isenabled()
        assert load_network(fp, ep).n_edges == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


GOOD_FIRM = ["g", "C10", 3, 1.5, 1]


def test_firm_row_errors(tmp_path):
    cases = [
        (["", "G46", 1, 2.0, 1], SchemaError),              # empty id
        (["a", "", 1, 2.0, 1], SchemaError),                # empty sector
        (["a", "G46", "x", 2.0, 1], SchemaError),           # bad employees
        (["a", "G46", -1, 2.0, 1], SchemaError),            # negative employees
        (["a", "G46", 1.5, 2.0, 1], SchemaError),           # fractional employees
        (["a", "G46", 1, "x", 1], SchemaError),             # bad co2
        (["a", "G46", 1, "inf", 1], SchemaError),           # infinite co2
        (["a", "G46", 1, -1, 1], SchemaError),              # negative co2
        (["a", "G46", 1, 2.0, 2], SchemaError),             # ets flag not 0/1
        (["a", "G46", 1, "", 1], SchemaError),              # ets member needs co2
        (["a", "G46", 1, 2.0], SchemaError),                # wrong cell count
        (GOOD_FIRM, DuplicateFirmId),
    ]
    for row, exc in cases:
        fp, ep = write_pair(tmp_path, firms=[GOOD_FIRM, row], edges=[])
        with pytest.raises(exc, match=r"^firms\.csv row 3: "):
            load_network(fp, ep)


def test_duplicate_firm_id_is_reported_at_its_own_row(tmp_path):
    # the repeat at row 3 comes before the bad ets flag at row 4
    firms = [["a", "G46", 1, 2.0, 1], ["a", "G46", 1, 2.0, 1], ["b", "C25", 1, 2.0, 7]]
    fp, ep = write_pair(tmp_path, firms=firms, edges=[])
    with pytest.raises(DuplicateFirmId, match=r"^firms\.csv row 3: duplicate firm id 'a'$"):
        load_network(fp, ep)
    # within a row, the repeat is checked last
    fp, ep = write_pair(tmp_path, firms=firms[:1] + [["a", "G46", 1, 2.0, 7]], edges=[])
    with pytest.raises(SchemaError, match=r"^firms\.csv row 3: ets_member must be 0 or 1"):
        load_network(fp, ep)


def test_first_faulty_firm_row_wins(tmp_path):
    firms = [GOOD_FIRM, ["a", "G46", "x", "y", 1], ["", "", "", "", 9], ["a", "G46", 1]]
    fp, ep = write_pair(tmp_path, firms=firms, edges=[])
    with pytest.raises(SchemaError, match=r"^firms\.csv row 3: co2 must be a number, got 'y'$"):
        load_network(fp, ep)


def test_employee_counts_stay_integer_exact(tmp_path):
    fp, ep = write_pair(tmp_path, firms=[GOOD_FIRM, ["a", "G46", 2**53, "", 0]], edges=[])
    net = load_network(fp, ep)
    assert net.firm("a").employees == 2**53
    assert net.employees_array()[1] == 2.0**53
    fp, ep = write_pair(tmp_path, firms=[GOOD_FIRM, ["a", "G46", 2**53 + 1, "", 0]], edges=[])
    with pytest.raises(SchemaError, match=r"^firms\.csv row 3: employees must be at most 2\*\*53"):
        load_network(fp, ep)


def test_edge_row_errors(tmp_path):
    cases = [
        ([["a", "b"]], SchemaError),
        ([["a", "b", 0.0]], NonPositiveWeight),
        ([["a", "b", -1.0]], NonPositiveWeight),
        ([["a", "b", "nan"]], NonPositiveWeight),
        ([["a", "b", "inf"]], NonPositiveWeight),
        ([["a", "b", "x"]], SchemaError),
        ([["a", "a", 1.0]], SelfLoop),
        ([["z", "b", 1.0]], DanglingEdge),
        ([["a", "z", 1.0]], DanglingEdge),
    ]
    for rows, exc in cases:
        fp, ep = write_pair(tmp_path, edges=GOOD_EDGES + rows)
        with pytest.raises(exc, match=r"^edges\.csv row 3: "):
            load_network(fp, ep)


def test_first_faulty_edge_row_wins(tmp_path):
    # a later row's fault never wins, whatever its kind
    fp, ep = write_pair(tmp_path, edges=[["a", "b", 1.0], ["a", "z", 1.0], ["a", "b", "x"]])
    with pytest.raises(DanglingEdge, match=r"^edges\.csv row 3: unknown buyer id 'z'$"):
        load_network(fp, ep)
    fp, ep = write_pair(tmp_path, edges=[["a", "b", "x"], ["a", "z", 1.0], ["a", "a"]])
    with pytest.raises(SchemaError, match=r"^edges\.csv row 2: weight must be a number"):
        load_network(fp, ep)


def test_first_faulty_edge_row_wins_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(network_module, "_EDGE_BLOCK_ROWS", 2)
    edges = [["a", "b", 1.0]] * 3 + [["b", "y", 1.0], ["a", "b", 1.0], ["a", "a", 1.0]]
    fp, ep = write_pair(tmp_path, edges=edges)
    with pytest.raises(DanglingEdge, match=r"^edges\.csv row 5: unknown buyer id 'y'$"):
        load_network(fp, ep)


def test_two_different_unknown_ids_are_dangling_not_a_self_loop(tmp_path):
    fp, ep = write_pair(tmp_path, edges=[["y", "z", 1.0]])
    with pytest.raises(DanglingEdge, match=r"^edges\.csv row 2: unknown supplier id 'y'$"):
        load_network(fp, ep)


def test_same_unknown_id_at_both_ends_is_a_self_loop(tmp_path):
    fp, ep = write_pair(tmp_path, edges=[["z", "z", 1.0]])
    with pytest.raises(SelfLoop, match=r"^edges\.csv row 2: self-loop on firm 'z'$"):
        load_network(fp, ep)


def test_padded_cells_are_stripped(tmp_path):
    fp, ep = write_pair(
        tmp_path,
        firms=[[" a ", " G46", "1 ", " 2.0 ", " 1"], ["b", "C25", "", "", "0"]],
        edges=[[" a", "b ", " 3.5 "]],
    )
    net = load_network(fp, ep)
    assert net.ids == ("a", "b")
    assert net.firm("a") == Firm("a", "G46", 1, 2.0, True)
    assert net.edges() == [SupplyEdge("a", "b", 3.5)]


def test_interleaved_parallel_edges_keep_first_occurrence_order(tmp_path):
    fp, ep = write_pair(tmp_path, edges=[["a", "b", 1.0], ["b", "a", 2.0], ["a", "b", 2.5]])
    net = load_network(fp, ep)
    assert net.supplier_idx.tolist() == [0, 1]
    assert net.buyer_idx.tolist() == [1, 0]
    assert net.weights.tolist() == [1.0 + 2.5, 2.0]
    # first-occurrence order, not the sorted order of the pairs
    fp, ep = write_pair(tmp_path, edges=[["b", "a", 2.0], ["a", "b", 1.0], ["b", "a", 2.5]])
    net = load_network(fp, ep)
    assert net.supplier_idx.tolist() == [1, 0]
    assert net.buyer_idx.tolist() == [0, 1]
    assert net.weights.tolist() == [2.0 + 2.5, 1.0]
    # weights add in file order: (1e16 + 1) + 1 rounds to 1e16 twice
    fp, ep = write_pair(tmp_path, edges=[["a", "b", 1e16], ["a", "b", 1.0], ["a", "b", 1.0]])
    assert load_network(fp, ep).weights.tolist() == [(1e16 + 1.0) + 1.0]


def test_parallel_edges_are_summed(tmp_path, caplog):
    fp, ep = write_pair(tmp_path, edges=[["a", "b", 1.0], ["a", "b", 2.5]])
    with caplog.at_level("WARNING"):
        net = load_network(fp, ep)
    assert net.n_edges == 1
    assert net.weights[0] == pytest.approx(3.5)
    assert any("parallel" in r.message for r in caplog.records)


def test_parallel_merge_matches_row_by_row_reference(tmp_path, monkeypatch):
    # reference: the row-by-row dict merge, first-occurrence order, += in file order
    monkeypatch.setattr(network_module, "_EDGE_BLOCK_ROWS", 7)
    rng = np.random.default_rng(23)
    ids = [f"f{k}" for k in range(6)]
    firms = [[fid, "C25", "", "", 0] for fid in ids]
    rows = []
    while len(rows) < 200:
        s, b = rng.choice(6, size=2)
        if s != b:
            rows.append([ids[s], ids[b], repr(float(rng.lognormal(0.0, 3.0)))])
    merged: dict[tuple[int, int], float] = {}
    for s, b, w in rows:
        key = (ids.index(s), ids.index(b))
        merged[key] = merged[key] + float(w) if key in merged else float(w)
    fp, ep = write_pair(tmp_path, firms=firms, edges=rows)
    net = load_network(fp, ep)
    assert list(zip(net.supplier_idx.tolist(), net.buyer_idx.tolist())) == list(merged)
    assert net.weights.tolist() == list(merged.values())


def test_constructor_rejects_bad_edges():
    firms = [Firm("a", "G46"), Firm("b", "C25")]
    with pytest.raises(SelfLoop):
        ProductionNetwork(firms, [SupplyEdge("a", "a", 1.0)])
    with pytest.raises(DanglingEdge):
        ProductionNetwork(firms, [SupplyEdge("a", "z", 1.0)])
    with pytest.raises(NonPositiveWeight):
        ProductionNetwork(firms, [SupplyEdge("a", "b", 0.0)])
    with pytest.raises(DuplicateFirmId):
        ProductionNetwork(firms + [Firm("a", "C10")], [])


def test_constructor_applies_the_firm_row_rules(tmp_path):
    good = Firm("g", "C10", 3, 1.5, True)
    cases = [
        (Firm("a", "G46", -5), SchemaError, "employees must be non-negative, got -5"),
        (Firm("a", "G46", "x"), SchemaError, "employees must be an integer, got 'x'"),
        (Firm("a", "G46", 1, -1.0), SchemaError, "co2 must be finite and non-negative, got '-1.0'"),
        (Firm("a", "G46", 1, np.float64(-1.0)), SchemaError,
         "co2 must be finite and non-negative, got '-1.0'"),
        (Firm("a", "G46", 1, np.inf), SchemaError, "co2 must be finite and non-negative, got 'inf'"),
        (Firm("a", "G46", 1, None, True), SchemaError, "ets_member=1 requires a co2 value"),
        (Firm("a", ""), SchemaError, "empty sector code"),
        (Firm("", "G46"), SchemaError, "empty firm id"),
        (Firm("g", "G46"), DuplicateFirmId, "duplicate firm id 'g'"),
        # each field is judged as the cell it would be written as
        (Firm("a", "G46", None, 1.0, "x"), SchemaError, "ets_member must be 0 or 1, got 'x'"),
        (Firm("a", "G46", ets_member=None), SchemaError, "ets_member must be 0 or 1, got ''"),
        (Firm("a", "G46", ets_member=2), SchemaError, "ets_member must be 0 or 1, got '2'"),
        (Firm("a", None), SchemaError, "empty sector code"),
        (Firm(None, "G46"), SchemaError, "empty firm id"),
        (Firm(1, "G46", 1.5), SchemaError, "employees must be an integer, got '1.5'"),
        (Firm(np.int64(1), 7, None, "x"), SchemaError, "co2 must be a number, got 'x'"),
    ]
    for firm, exc, message in cases:
        with pytest.raises(exc, match=f"^firm 1: {re.escape(message)}$"):
            ProductionNetwork([good, firm], [])

    # numpy scalars are taken as the numbers they hold, bools as 1 and 0
    firms = [
        good,
        Firm("a", "G46", np.int64(7), np.float64(0.1), np.True_),
        Firm("b", "A01", 0, 0.0),
        Firm(1, "C25", np.int32(4), None, np.False_),
    ]
    net = ProductionNetwork(firms, [SupplyEdge("a", "b", 1.0), SupplyEdge(1, "a", np.float32(0.5))])
    assert net.firms == (
        good,
        Firm("a", "G46", 7, 0.1, True),
        Firm("b", "A01", 0, 0.0, False),
        Firm("1", "C25", 4, None, False),
    )
    write_network(net, tmp_path)
    assert load_network(tmp_path / "firms.csv", tmp_path / "edges.csv") == net


def test_constructor_applies_the_edge_row_rules(tmp_path):
    # each edge against the edges.csv row with its weight written as this cell
    firms = [Firm("a", "G46", 1, 2.0, True), Firm("b", "C25")]
    cases = [
        (SupplyEdge("a", "z", 1.0), "1.0"),
        (SupplyEdge("a", "a", -1.0), "-1.0"),
        (SupplyEdge("z", "z", 1.0), "1.0"),
        (SupplyEdge(" a", "a ", 1.0), "1.0"),
        (SupplyEdge("a", "b", math.nan), "nan"),
        (SupplyEdge("a", "b", None), ""),
        (SupplyEdge("a", "b", "x"), "x"),
        (SupplyEdge(1, "b", 1.0), "1.0"),
        (SupplyEdge("a", np.int64(2), 1.0), "1.0"),
        (SupplyEdge("a", "b", np.False_), "0"),
        (SupplyEdge("a", "b", -3), "-3"),
    ]
    for edge, weight in cases:
        fp, ep = write_pair(tmp_path, edges=[GOOD_EDGES[0], [edge.supplier_id, edge.buyer_id, weight]])
        with pytest.raises(NetworkError) as from_file:
            load_network(fp, ep)
        with pytest.raises(NetworkError) as in_memory:
            ProductionNetwork(firms, [SupplyEdge("a", "b", 3.5), edge])
        assert type(in_memory.value) is type(from_file.value)
        tail = str(from_file.value).removeprefix("edges.csv row 3: ")
        assert str(in_memory.value) == f"edge 1: {tail}"

    # ids are stripped as file cells are
    net = ProductionNetwork(firms, [SupplyEdge(" a", "b ", 2.0)])
    assert net.edges() == [SupplyEdge("a", "b", 2.0)]


def test_constructor_matches_from_arrays():
    firms = [Firm("a", "G46"), Firm("b", "C25"), Firm("c", "C10")]
    edges = [SupplyEdge("a", "b", 1.0), SupplyEdge("c", "a", 2.0), SupplyEdge("a", "b", 2.5)]
    net = ProductionNetwork(firms, edges)
    table = FirmTable.of(firms)
    assert net == ProductionNetwork.from_arrays(
        table, np.array([0, 2, 0]), np.array([1, 0, 1]), np.array([1.0, 2.0, 2.5])
    )
    assert net.edges() == [SupplyEdge("a", "b", 3.5), SupplyEdge("c", "a", 2.0)]
    assert net.ids == ("a", "b", "c")
    with pytest.raises(DanglingEdge):
        ProductionNetwork.from_arrays(table, np.array([0]), np.array([3]), np.array([1.0]))
    with pytest.raises(NonPositiveWeight):
        ProductionNetwork.from_arrays(table, np.array([0]), np.array([1]), np.array([np.inf]))


def test_every_constructor_applies_the_edge_rules_in_one_order(tmp_path):
    # weight, self-loop, supplier, buyer: each edge breaks two rules, or one
    firms = [Firm("a", "G46"), Firm("b", "C25")]
    table = FirmTable.of(firms)
    position = {"a": 0, "b": 1, "z": 2}  # 'z' names no firm, nor does index 2
    cases = [
        ("z", "b", 0.0, NonPositiveWeight),
        ("a", "a", -1.0, NonPositiveWeight),
        ("z", "z", 1.0, SelfLoop),
        ("z", "z", math.inf, NonPositiveWeight),
        ("z", "a", 1.0, DanglingEdge),
        ("a", "z", 1.0, DanglingEdge),
    ]
    for supplier, buyer, weight, exc in cases:
        fp, ep = write_pair(tmp_path, edges=[[supplier, buyer, weight]])
        with pytest.raises(exc):
            load_network(fp, ep)
        with pytest.raises(exc):
            ProductionNetwork(firms, [SupplyEdge(supplier, buyer, weight)])
        with pytest.raises(exc, match="^edge 0: "):
            ProductionNetwork.from_arrays(table, [position[supplier]], [position[buyer]], [weight])


# -- round trip ------------------------------------------------------------


def test_write_network_round_trip(tmp_path, fig1_net):
    write_network(fig1_net, tmp_path)
    again = load_network(tmp_path / "firms.csv", tmp_path / "edges.csv")
    assert again == fig1_net


def test_failed_write_leaves_the_target_alone(tmp_path):
    target = tmp_path / "out.csv"
    network_module._write_csv(target, ("x",), [("1",)])
    before = target.read_bytes()

    def rows():
        yield ("2",)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="^row source failed$"):
        network_module._write_csv(target, ("x",), rows())
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]  # no .out.csv.<pid>.tmp


def test_round_trip_random_networks(tmp_path):
    rng = np.random.default_rng(20)
    for k in range(10):
        case = RandomCase(rng)
        out = tmp_path / f"case{k}"
        out.mkdir()
        write_network(case.net, out)
        again = load_network(out / "firms.csv", out / "edges.csv")
        assert again == case.net


def test_edge_blocks_do_not_change_the_written_bytes(tmp_path, monkeypatch):
    net = RandomCase(np.random.default_rng(24), n_max=12).net
    write_network(net, tmp_path / "whole")
    monkeypatch.setattr(network_module, "_EDGE_BLOCK_ROWS", 5)  # several blocks and a short last one
    assert net.n_edges > 10 and net.n_edges % 5
    write_network(net, tmp_path / "blocks")
    for name in ("firms.csv", "edges.csv"):
        assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


# -- strengths and matrix --------------------------------------------------


def test_fig1_strengths(fig1_net):
    st = compute_strengths(fig1_net)
    by = {i: (si, so) for i, si, so in zip(fig1_net.ids, st.s_in, st.s_out)}
    assert by["a"] == (0.0, 25.0)
    assert by["b"] == (0.0, 25.0)
    assert by["c"] == (100.0, 0.0)
    assert by["d"] == (10.0, 100.0)
    assert by["e"] == (50.0, 10.0)


def test_strengths_match_dense_mirror():
    rng = np.random.default_rng(21)
    for _ in range(25):
        case = RandomCase(rng)
        st = compute_strengths(case.net)
        s_out = [sum(row) for row in case.dense]
        s_in = [sum(case.dense[i][j] for i in range(case.n)) for j in range(case.n)]
        npt.assert_allclose(st.s_out, s_out, rtol=0, atol=1e-12)
        npt.assert_allclose(st.s_in, s_in, rtol=0, atol=1e-12)


def test_matrix_matches_dense_mirror():
    rng = np.random.default_rng(22)
    for _ in range(10):
        case = RandomCase(rng)
        net = case.net
        dense = np.zeros((case.n, case.n))
        dense[net.supplier_idx, net.buyer_idx] = net.weights
        npt.assert_allclose(dense, case.dense, rtol=0, atol=0)


# -- validation ------------------------------------------------------------


def test_validate_fig1(fig1_net):
    rep = validate(fig1_net)
    assert rep.n_firms == 5
    assert rep.n_edges == 5
    assert rep.n_isolated == 0
    assert rep.n_zero_out_strength == 1  # firm c sells nothing
    assert rep.n_ets == 5
    assert rep.total_weight == pytest.approx(160.0)
    assert rep.employment_known_firms == 5
    assert rep.employees_total_known == 10
    assert rep.co2_total_known == pytest.approx(10.0)
    assert rep.ets_co2_total == pytest.approx(10.0)
    assert len(rep.summary_lines()) >= 5


def test_validate_flags_isolated_firm():
    firms = [Firm("a", "G46"), Firm("b", "C25"), Firm("x", "C10")]
    net = ProductionNetwork(firms, [SupplyEdge("a", "b", 1.0)])
    rep = validate(net)
    assert rep.n_isolated == 1
    assert rep.isolated_ids == ("x",)
    assert any("isolated" in w for w in rep.warnings)


def test_firm_attribute_vectors_are_built_once_and_read_only():
    firms = [Firm("a", "C10", 3, 1.5, True), Firm("b", "G46"), Firm("c", "A01", None, 0.25)]
    net = ProductionNetwork(firms, [SupplyEdge("a", "b", 1.0)])
    expect = {
        net.employees_array: [3.0, np.nan, np.nan],
        net.co2_array: [1.5, np.nan, 0.25],
        net.ets_mask: [True, False, False],
    }
    for get, values in expect.items():
        arr = get()
        assert arr is get() and not arr.flags.writeable
        npt.assert_array_equal(arr, values)
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert net.table.sector_names == ("A01", "C10", "G46")
    npt.assert_array_equal(net.table.sector_code, [1, 2, 0])
    assert not net.table.sector_code.flags.writeable
