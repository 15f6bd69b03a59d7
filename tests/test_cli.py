"""Command-line entry points: exit codes and output files."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import stat

import pytest

from esri_net import (
    EssentialityMatrix,
    Firm,
    ProductionNetwork,
    SupplyEdge,
    SynthParams,
    batch_indices,
    calibrate,
    classify_inputs,
    essentiality_rows,
    generate,
    load_network,
    propagate,
    write_essentiality,
    write_network,
)
from esri_net.cli import build_parser, main
from esri_net.propagation import DEFAULT_MAX_ITER, DEFAULT_TOL

from conftest import FIG1


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["validate"])  # --net is required
    assert exc.value.code == 2

    out = tmp_path / "o"
    for argv in (
        ["strategy", "--heuristic", "ratio", "--target", "-0.5"],
        ["strategy", "--heuristic", "ratio", "--target", "nan"],
        ["report", "--target", "inf"],
        ["simulate", "--remove", "d", "--max-iter", "0"],
        ["simulate", "--remove", "d", "--tol", "nan"],
        ["esri", "--total-co2", "nan"],
        ["esri", "--total-co2", "inf"],
        ["esri", "--threads", "0"],
        ["esri", "--threads", "-1"],
        ["esri", "--gamma", "2"],
        ["fit-regimes", "--hi", "5", "--lo", "10"],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--net", FIG1, "--out", out])
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err
        assert not out.exists(), argv


def test_data_errors_exit_3(tmp_path, capsys):
    assert run(["validate", "--net", tmp_path]) == 3
    assert "MissingFile" in capsys.readouterr().err

    (tmp_path / "firms.csv").write_text("id,sector\n")
    (tmp_path / "edges.csv").write_text("supplier_id,buyer_id,weight\n")
    assert run(["validate", "--net", tmp_path]) == 3
    assert "SchemaError" in capsys.readouterr().err

    (tmp_path / "firms.csv").write_text("id,sector,employees,co2,ets_member\na,C,1,,0\nb,G,1,,0\n")
    (tmp_path / "edges.csv").write_text("supplier_id,buyer_id,weight\na,b,1\nb,a,-2\n")
    assert run(["validate", "--net", tmp_path]) == 3
    assert "NonPositiveWeight: edges.csv row 3:" in capsys.readouterr().err

    code = run(
        ["simulate", "--net", FIG1, "--remove", "zz", "--out", tmp_path / "o"]
    )
    assert code == 3
    assert "InvalidScenario" in capsys.readouterr().err

    missing = tmp_path / "missing.txt"
    assert run(["esri", "--net", FIG1, "--candidates", missing, "--out", tmp_path / "o"]) == 3
    assert f"InvalidScenario: candidate file not found: {missing}" in capsys.readouterr().err
    assert run(["fit-regimes", "--indices", missing]) == 3
    assert "MissingUpstream: indices file not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    # a network with no firms loads, and no scenario on it names a known firm
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "firms.csv").write_text("id,sector,employees,co2,ets_member\n")
    (empty / "edges.csv").write_text("supplier_id,buyer_id,weight\n")
    assert run(["validate", "--net", empty]) == 0
    capsys.readouterr()
    assert run(["simulate", "--net", empty, "--remove", "x", "--out", tmp_path / "e"]) == 3
    err = capsys.readouterr().err
    assert "InvalidScenario: unknown firm id(s) in scenario: x" in err and "Traceback" not in err

    # strategy curves need every candidate known and listed once; esri warns and skips
    cand, out = tmp_path / "cand.txt", tmp_path / "curve"
    for ids, message in (("d\nzz\na\n", "unknown candidate id(s): zz"),
                         ("d\na\nd\n", "repeated candidate id(s): d")):
        cand.write_text(ids)
        for command in (["strategy", "--heuristic", "ratio", "--target", "0.2"], ["report"]):
            assert run([*command, "--net", FIG1, "--candidates", cand, "--out", out]) == 3
            assert f"InvalidScenario: {message}" in capsys.readouterr().err
            assert not out.exists(), command


def test_zero_co2_total_exit_3(tmp_path, capsys):
    net = tmp_path / "net"
    net.mkdir()
    (net / "firms.csv").write_text("id,sector,employees,co2,ets_member\na,C10,3,0,1\nb,G46,5,0,0\n")
    (net / "edges.csv").write_text("supplier_id,buyer_id,weight\na,b,1\n")
    out = tmp_path / "o"
    assert run(["esri", "--net", net, "--threads", 1, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "MissingTotal: no firm has emissions above 0" in err and "Traceback" not in err
    assert not out.exists()


def test_propagation_defaults_come_from_the_library():
    args = build_parser().parse_args(["simulate", "--net", str(FIG1), "--remove", "a", "--out", "x"])
    assert (args.tol, args.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)


def test_validate_prints_report(capsys):
    assert run(["validate", "--net", FIG1]) == 0
    out = capsys.readouterr().out
    assert "5 firms" in out or "firms: 5" in out


def test_validate_rejects_model_options(capsys):
    # validate reads the network only, so calibration options are usage errors
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--net", FIG1, "--gamma", 0.3])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err


# -- synth ------------------------------------------------------------------------


def test_synth_writes_loadable_network(tmp_path, capsys):
    out = tmp_path / "net"
    code = run(
        ["synth", "--out", out, "--n-firms", 50, "--n-edges", 200,
         "--n-ets", 5, "--seed", 3]
    )
    assert code == 0
    net = load_network(out / "firms.csv", out / "edges.csv")
    assert net.n_firms == 50
    assert (out / "essentiality.csv").is_file()
    assert json.loads((out / "config.json").read_text())["command"] == "synth"


def test_synth_fixture_copy(tmp_path):
    out = tmp_path / "net"
    assert run(["synth", "--out", out, "--fixture", FIG1]) == 0
    net = load_network(out / "firms.csv", out / "edges.csv")
    assert net.n_firms == 5
    for name in ("firms.csv", "edges.csv", "essentiality.csv"):
        assert (out / name).read_bytes() == (FIG1 / name).read_bytes()


def test_synth_fixture_missing_source_exit_3(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    for name in ("firms.csv", "edges.csv"):
        (src / name).write_bytes((FIG1 / name).read_bytes())
    out = tmp_path / "x"
    assert run(["synth", "--out", out, "--fixture", src]) == 3
    assert f"MissingFile: missing input file: {src / 'essentiality.csv'}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_fixture_non_utf8_source_exit_3(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    for name in ("firms.csv", "edges.csv"):
        (src / name).write_bytes((FIG1 / name).read_bytes())
    (src / "essentiality.csv").write_bytes(b"supplier_sector,buyer_sector,essential\nC\xc3,G,1\n")
    out = tmp_path / "x"
    assert run(["synth", "--out", out, "--fixture", src]) == 3
    assert "SchemaError: essentiality.csv byte 40: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_have_plain_file_modes(tmp_path):
    # outputs are written atomically, yet get the mode a plain open gives
    dirs = [tmp_path / d for d in ("idx", "net", "copy")]
    old = os.umask(0o027)
    try:
        assert run(["esri", "--net", FIG1, "--out", dirs[0], "--threads", 1]) == 0
        assert run(["synth", "--out", dirs[1], "--n-firms", 50, "--n-edges", 200]) == 0
        assert run(["synth", "--out", dirs[2], "--fixture", FIG1]) == 0
        for d in dirs:
            (d / "probe").write_text("")
    finally:
        os.umask(old)
    for d in dirs:
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in d.iterdir()}
        assert len(modes) > 2 and set(modes.values()) == {modes["probe"]}, modes
        assert not any(name.startswith(".") for name in modes), modes  # no temporary left


def test_synth_infeasible_params_exit_3(tmp_path, capsys):
    base = ["synth", "--out", tmp_path / "x", "--n-firms", 50, "--n-edges", 100]
    for extra in (["--n-firms", 3], ["--degree-exponent", "nan"], ["--seed", -1]):
        assert run([*base, *extra]) == 3, extra
        assert "InfeasibleParams" in capsys.readouterr().err


# -- simulate -----------------------------------------------------------------------


def test_simulate_matches_library(tmp_path, fig1_net, fig1_pf, capsys):
    out = tmp_path / "sim"
    code = run(
        ["simulate", "--net", FIG1, "--gamma", 0, "--remove", "d", "--out", out]
    )
    assert code == 0
    eq = propagate(fig1_net, fig1_pf, ["d"])
    rows = {r["firm_id"]: r for r in read_csv(out / "equilibrium.csv")}
    for i, fid in enumerate(fig1_net.ids):
        assert float(rows[fid]["h"]) == eq.h[i]
        assert float(rows[fid]["h_d"]) == eq.h_d[i]
        assert float(rows[fid]["h_u"]) == eq.h_u[i]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["converged"] is True
    assert meta["removed"] == ["d"]
    assert (out / "calibration_audit.csv").is_file()
    assert (out / "config.json").is_file()
    # a capped run still writes its levels, and says so
    capsys.readouterr()
    assert run(["simulate", "--net", FIG1, "--gamma", 0, "--remove", "d", "--max-iter", 1, "--out", out]) == 0
    assert "warning: not converged after 1 iterations" in capsys.readouterr().err
    assert json.loads((out / "metadata.json").read_text())["converged"] is False


def test_audit_bytes_match_a_csv_writer_reference(tmp_path):
    quoted = 'acme, "north"'  # needs quoting in CSV
    firms = [Firm("a", "C10"), Firm(quoted, "G46"), Firm("b", "A01"), Firm("c", "G46")]
    edges = [
        SupplyEdge("a", quoted, 1.5),
        SupplyEdge("b", quoted, 0.7),
        SupplyEdge("b", "a", 2.0),
        SupplyEdge(quoted, "c", 0.1),
    ]
    net = ProductionNetwork(firms, edges)
    write_network(net, tmp_path / "net")
    out = tmp_path / "sim"
    assert run(["simulate", "--net", tmp_path / "net", "--remove", "b", "--out", out]) == 0

    pf = calibrate(net, classify_inputs(net, EssentialityMatrix.default()), gamma=0.5)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("firm_id", "x0", "beta", "n_essential_groups", "n_nonessential"))
    for fid in net.ids:
        f = pf.function_of(fid)
        writer.writerow((fid, repr(f.x0), repr(f.beta), len(f.essential_groups), len(f.nonessential)))
    expected = buf.getvalue().encode("utf-8")
    assert b'"acme, ""north"""' in expected
    assert (out / "calibration_audit.csv").read_bytes() == expected


def test_simulate_removal_file(tmp_path):
    removal = tmp_path / "ids.txt"
    out = tmp_path / "sim"
    # a repeated id is removed, and listed, once
    for text in ("a\nb\n", "a\nb\na\n"):
        removal.write_text(text)
        assert run(["simulate", "--net", FIG1, "--remove", removal, "--out", out]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["removed"] == ["a", "b"]


# -- esri ---------------------------------------------------------------------------


def test_esri_table_matches_library(tmp_path, fig1_net, fig1_pf):
    out = tmp_path / "idx"
    code = run(
        ["esri", "--net", FIG1, "--gamma", 0, "--out", out, "--threads", 1]
    )
    assert code == 0
    table = batch_indices(fig1_net, fig1_pf, list("abcde"), workers=1)
    rows = {r["firm_id"]: r for r in read_csv(out / "indices.csv")}
    assert set(rows) == set("abcde")
    for fid, row in rows.items():
        ref = table.row(fid)
        assert float(row["esri"]) == ref.esri
        assert float(row["ew_esri"]) == ref.ew_esri
        assert float(row["ratio"]) == ref.ratio


def test_esri_candidate_file_and_bad_ids(tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("d\nd\nzz\nzz\n")  # each id counts once
    out = tmp_path / "idx"
    code = run(
        ["esri", "--net", FIG1, "--candidates", cands, "--out", out, "--threads", 1]
    )
    assert code == 0
    assert "warning: 1 candidate(s) failed: zz\n" in capsys.readouterr().err
    rows = read_csv(out / "indices.csv")
    assert [r["firm_id"] for r in rows] == ["d"]


def test_non_utf8_id_files_exit_3(tmp_path, capsys):
    ids = tmp_path / "ids.txt"
    ids.write_bytes(b"d\n\xe9\n")
    out = tmp_path / "o"
    for command in (["esri", "--candidates", ids], ["simulate", "--remove", ids]):
        assert run([*command, "--net", FIG1, "--out", out]) == 3
        assert "SchemaError: ids.txt byte 2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists(), command


def test_oversized_csv_field_exit_3(tmp_path, capsys):
    # an unmatched quote makes the rest of a large file one field, over the csv module's limit
    tail = "\n".join(f"x{k},G46,1,,0" for k in range(20_000))
    net = tmp_path / "net"
    net.mkdir()
    (net / "firms.csv").write_text((FIG1 / "firms.csv").read_text() + '"' + tail)
    (net / "edges.csv").write_bytes((FIG1 / "edges.csv").read_bytes())
    essentiality = tmp_path / "ess.csv"
    essentiality.write_text("supplier_sector,buyer_sector,essential\n" + '"' + tail)
    indices = tmp_path / "indices.csv"
    indices.write_text("firm_id,ratio\n" + '"' + tail)
    out = tmp_path / "o"
    for argv, name in (
        (["validate", "--net", net], "firms.csv row 7"),
        (["simulate", "--net", FIG1, "--essentiality", essentiality, "--remove", "d", "--out", out],
         "ess.csv row 2"),
        (["fit-regimes", "--indices", indices, "--out", out], "indices.csv row 2"),
    ):
        assert run(argv) == 3
        assert f"SchemaError: {name}: field larger than field limit (131072)\n" in capsys.readouterr().err
        assert not out.exists()


def test_byte_order_marks_are_dropped(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    net = tmp_path / "net"
    net.mkdir()
    for name in ("firms.csv", "edges.csv", "essentiality.csv"):
        (net / name).write_bytes(bom + (FIG1 / name).read_bytes())
    ids = tmp_path / "ids.txt"
    ids.write_bytes(bom + b"d\n")
    assert run(["esri", "--net", net, "--gamma", 0, "--candidates", ids, "--out", tmp_path / "a",
                "--threads", 1]) == 0
    ids.write_bytes(b"d\n")
    assert run(["esri", "--net", FIG1, "--gamma", 0, "--candidates", ids, "--out", tmp_path / "b",
                "--threads", 1]) == 0
    assert (tmp_path / "a" / "indices.csv").read_bytes() == (tmp_path / "b" / "indices.csv").read_bytes()

    ids.write_bytes(bom + b"d\n")
    assert run(["simulate", "--net", net, "--remove", ids, "--out", tmp_path / "sim"]) == 0
    assert json.loads((tmp_path / "sim" / "metadata.json").read_text())["removed"] == ["d"]
    indices = tmp_path / "indices.csv"
    indices.write_bytes(bom + b"ratio\n" + b"".join(b"%r\n" % r for r in (5e3, 3e3, 2e3, 500.0, 200.0, 50.0)))
    assert run(["fit-regimes", "--indices", indices]) == 0
    # the fixture copy keeps the mark: it is byte for byte its source
    assert run(["synth", "--fixture", net, "--out", tmp_path / "copy"]) == 0
    for name in ("firms.csv", "edges.csv", "essentiality.csv"):
        assert (tmp_path / "copy" / name).read_bytes() == (net / name).read_bytes()
    capsys.readouterr()


# -- strategy -------------------------------------------------------------------------


def test_strategy_transcript_case(tmp_path, capsys):
    out = tmp_path / "strat"
    code = run(
        ["strategy", "--net", FIG1, "--gamma", 0, "--heuristic", "ratio",
         "--target", 0.5, "--out", out, "--threads", 1]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "firms_removed=2" in stdout
    assert "co2_reduction=0.5000" in stdout
    assert "expected_job_loss=0.3000" in stdout

    summary = json.loads((out / "summary.json").read_text())
    assert summary["heuristic"] == "ratio"
    assert summary["benchmark_rank"] == 2
    curve = read_csv(out / "curve.csv")
    assert [r["firm_id"] for r in curve] == list("abdce")
    assert [r["benchmark_flag"] for r in curve] == ["0", "1", "0", "0", "0"]


def test_strategy_unreachable_target_warns(tmp_path, capsys, caplog):
    out = tmp_path / "strat"
    cands = tmp_path / "cands.txt"
    cands.write_text("a\nb\n")
    with caplog.at_level("WARNING", logger="esri_net.strategies"):
        code = run(
            ["strategy", "--net", FIG1, "--gamma", 0, "--heuristic", "emitters",
             "--target", 0.9, "--candidates", cands, "--out", out, "--threads", 1]
        )
    assert code == 0
    # the library's warning is the one report; the command adds no second line
    warned = [r for r in caplog.records if "TargetUnreachable" in r.getMessage()]
    assert [(r.name, r.levelname) for r in warned] == [("esri_net.strategies", "WARNING")]
    assert "warning: target" not in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["target_reached"] is False


# -- fit-regimes ------------------------------------------------------------------------


def test_fit_regimes_from_indices_csv(tmp_path, capsys):
    import numpy as np

    r1 = np.arange(1, 13)
    r2 = np.arange(13, 95)
    vals = np.concatenate([np.exp(12.5 - 0.41 * r1), np.exp(7.2 - 0.05 * r2)])
    path = tmp_path / "indices.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["firm_id", "ratio"])
        for k, v in enumerate(vals):
            w.writerow([f"f{k}", repr(float(v))])

    out = tmp_path / "fit"
    code = run(["fit-regimes", "--indices", path, "--out", out])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda1"] == pytest.approx(-0.41, abs=1e-9)
    assert payload["lambda2"] == pytest.approx(-0.05, abs=1e-9)
    on_disk = json.loads((out / "regimes.json").read_text())
    assert on_disk == payload


def test_fit_regimes_non_utf8_indices_exit_3(tmp_path, capsys):
    path = tmp_path / "indices.csv"
    path.write_bytes(b"firm_id,ratio\nf0,2.5\nf\xfe1,3.5\n")
    out = tmp_path / "fit"
    assert run(["fit-regimes", "--indices", path, "--out", out]) == 3
    assert "SchemaError: indices.csv byte 22: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_fit_regimes_short_row_exit_3(tmp_path, capsys):
    path = tmp_path / "indices.csv"
    path.write_text("firm_id,esri,ew_esri,co2_share_total,co2_share_ets,ratio\n"
                    "a,0.1,0.1,0.2,0.2,2.0\n\nb,0.1\n")
    assert run(["fit-regimes", "--indices", path]) == 3
    assert "SchemaError: indices.csv row 4: expected 6 or more cells, got 2\n" in capsys.readouterr().err


def test_fit_regimes_bad_ratio_cell_exit_3(tmp_path, capsys):
    # inf and nan parse and are dropped as ratios that are not finite and
    # positive; blank lines are skipped; a typo is a fault at its row
    ratios = ["800.0", "400.0", "inf", "200.0", "", "100.0", "nan", "50.0", "40.0", "35.0", "12.5"]
    rows = "".join(f"f{k},{v}\n" if v else "\n" for k, v in enumerate(ratios))
    path = tmp_path / "indices.csv"
    path.write_text("firm_id,ratio\n" + rows)
    assert run(["fit-regimes", "--indices", path, "--hi", 150.0, "--lo", 30.0]) == 0
    assert json.loads(capsys.readouterr().out)["n2"] == 4
    path.write_text("firm_id,ratio\n" + rows.replace("50.0", "5O.0"))
    assert run(["fit-regimes", "--indices", path, "--hi", 150.0, "--lo", 30.0]) == 3
    assert "SchemaError: indices.csv row 9: ratio must be a number, got '5O.0'\n" in capsys.readouterr().err


def test_fit_regimes_strips_header_cells(tmp_path, capsys):
    # header cells are stripped, as in every other input file
    path = tmp_path / "indices.csv"
    header = ("firm_id", "esri", "ew_esri", "co2_share_total", "co2_share_ets", "ratio")
    rows = "".join(f"f{k},0.1,0.1,0.2,0.2,{v}\n" for k, v in enumerate([800, 400, 200, 100, 50, 40]))
    fits = []
    for sep in (",", ", "):
        path.write_text(sep.join(header) + "\n" + rows)
        assert run(["fit-regimes", "--indices", path, "--hi", 150.0, "--lo", 30.0]) == 0
        fits.append(json.loads(capsys.readouterr().out))
    assert fits[0] == fits[1]


def test_fit_regimes_requires_a_source(capsys):
    assert run(["fit-regimes"]) == 3
    assert "MissingUpstream" in capsys.readouterr().err


def test_fit_regimes_from_net_honours_total_co2(tmp_path, capsys):
    # ratio scales with 1/total, so the total decides which regime a firm is in
    net_dir = tmp_path / "net"
    assert run(["synth", "--out", net_dir, "--n-firms", 300, "--n-edges", 1200,
                "--n-ets", 60, "--seed", 2]) == 0
    total = ["--total-co2", 1e7]
    regimes = ["--hi", 1.0, "--lo", 0.01]
    assert run(["esri", "--net", net_dir, *total, "--out", tmp_path / "idx", "--threads", 1]) == 0
    capsys.readouterr()
    assert run(["fit-regimes", "--indices", tmp_path / "idx" / "indices.csv", *regimes]) == 0
    from_indices = json.loads(capsys.readouterr().out)
    assert run(["fit-regimes", "--net", net_dir, *total, *regimes, "--threads", 1]) == 0
    assert json.loads(capsys.readouterr().out) == from_indices


def test_fit_regimes_thin_regime_exit_3(tmp_path, capsys):
    path = tmp_path / "indices.csv"
    path.write_text("firm_id,ratio\nf1,2000\nf2,500\nf3,400\nf4,300\n")
    assert run(["fit-regimes", "--indices", path]) == 3
    assert "InsufficientPoints" in capsys.readouterr().err


# -- report -------------------------------------------------------------------------------


def test_report_writes_all_series(tmp_path):
    out = tmp_path / "report"
    code = run(
        ["report", "--net", FIG1, "--gamma", 0, "--target", 0.5,
         "--out", out, "--threads", 1]
    )
    assert code == 0
    scatter = read_csv(out / "scatter_co2_vs_ew_esri.csv")
    assert len(scatter) == 5
    assert {r["firm_id"] for r in scatter} == set("abcde")
    for h in ("emitters", "risk", "ratio"):
        curve = read_csv(out / f"strategy_curve_{h}.csv")
        assert len(curve) == 5
        ranks = read_csv(out / f"co2_rank_{h}.csv")
        assert [r["firm_id"] for r in ranks] == list("dabce")
        assert sum(int(r["removed"]) for r in ranks) >= 1
    # emitters strategy hits 50% with d alone
    emit = read_csv(out / "co2_rank_emitters.csv")
    assert emit[0]["removed"] == "1"


def test_curve_files_are_the_same_bytes_at_any_thread_count(tmp_path):
    net = generate(SynthParams(300, 1500, n_ets=10, seed=6))
    net_dir = tmp_path / "net"
    write_network(net, net_dir)
    write_essentiality(essentiality_rows(net), net_dir / "essentiality.csv")
    written = {}
    for threads in (1, 2):
        report = tmp_path / f"report{threads}"
        assert run(["report", "--net", net_dir, "--target", 0.3, "--out", report,
                    "--threads", threads]) == 0
        files = {f.name: f.read_bytes() for f in report.iterdir() if f.name != "config.json"}
        for h in ("emitters", "risk", "ratio"):
            strategy = tmp_path / f"strategy{threads}{h}"
            assert run(["strategy", "--net", net_dir, "--heuristic", h, "--target", 0.3,
                        "--out", strategy, "--threads", threads]) == 0
            curve = (strategy / "curve.csv").read_bytes()
            assert curve == files[f"strategy_curve_{h}.csv"]  # the same curve on both paths
            files[f"{h}/curve.csv"] = curve
            files[f"{h}/summary.json"] = (strategy / "summary.json").read_bytes()
        written[threads] = files
    assert len(written[1]) == 13
    assert written[1] == written[2]


def test_report_without_candidates_exit_3(tmp_path, capsys):
    net_dir = tmp_path / "net"
    net_dir.mkdir()
    (net_dir / "firms.csv").write_text(
        "id,sector,employees,co2,ets_member\na,G46,1,,0\nb,C25,1,,0\n"
    )
    (net_dir / "edges.csv").write_text("supplier_id,buyer_id,weight\na,b,1.0\n")
    code = run(["report", "--net", net_dir, "--out", tmp_path / "rep"])
    assert code == 3
    assert "MissingUpstream" in capsys.readouterr().err
