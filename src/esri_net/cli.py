"""Command-line interface.

Subcommands cover the full pipeline: validate ingested data, generate
synthetic networks, propagate removal scenarios, compute per-firm risk
indices, evaluate removal strategies against a CO2 target, fit the
two-regime rank decay, and emit figure-ready CSV series.

Every run that produces files writes them atomically and drops a
config.json with the resolved options next to the outputs.  Exit codes:
0 on success (including reported-but-non-fatal conditions like an
unreachable target), 2 on usage errors, 3 on data errors.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from itertools import compress
from pathlib import Path

from . import __version__
from .calibration import EssentialityMatrix, ProductionFunctionSet, calibrate, classify_inputs
from .indices import MissingTotal, NoEmploymentData, _finite_positive_descending, batch_indices
from .network import (MissingFile, NetworkError, ProductionNetwork, SchemaError, _atomic_open, _numbered,
                      _open_text, _read_text, _write_csv, load_network, validate, write_network)
from .propagation import DEFAULT_MAX_ITER, DEFAULT_TOL, InvalidScenario, propagate
from .strategies import (Heuristic, InsufficientPoints, StrategyCurve, fit_rank_regimes, rank_firms,
                         run_heuristics)
from .synth import InfeasibleParams, SynthParams, essentiality_rows, generate, write_essentiality

log = logging.getLogger(__name__)


class MissingUpstream(Exception):
    """Report requested but there are no candidate results to report on."""


DATA_ERRORS = (
    NetworkError,
    InvalidScenario,
    NoEmploymentData,
    MissingTotal,
    InsufficientPoints,
    InfeasibleParams,
    MissingUpstream,
)

INDEX_COLUMNS = ("firm_id", "esri", "ew_esri", "co2_share_total", "co2_share_ets", "ratio")
CURVE_COLUMNS = ("rank", "firm_id", "cum_firms", "cum_co2_saved", "cum_job_loss", "benchmark_flag")


# -- small output helpers ----------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_config(out_dir: Path, command: str, args: argparse.Namespace) -> None:
    options = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    _write_json(out_dir / "config.json", {
        "command": command,
        "options": options,
        "version": __version__,
    })


def _fmt(value: float) -> str:
    return repr(float(value))


# -- shared pipeline pieces -------------------------------------------------------


def _load_net(args: argparse.Namespace) -> ProductionNetwork:
    root = Path(args.net)
    return load_network(root / "firms.csv", root / "edges.csv")


def _essentiality(args: argparse.Namespace) -> EssentialityMatrix:
    if args.essentiality is not None:
        return EssentialityMatrix.from_csv(args.essentiality)
    default_path = Path(args.net) / "essentiality.csv"
    if default_path.is_file():
        return EssentialityMatrix.from_csv(default_path)
    log.info("no essentiality file found; using the bundled supplier-letter default")
    return EssentialityMatrix.default()


def _calibrated(args: argparse.Namespace, net: ProductionNetwork) -> ProductionFunctionSet:
    matrix = _essentiality(args)
    partition = classify_inputs(net, matrix)
    return calibrate(net, partition, gamma=args.gamma, x0_rule=args.x0_rule)


def _write_audit(out: Path, pf: ProductionFunctionSet) -> None:
    ids, x0, beta, n_groups, n_ne = pf.audit_columns()
    _write_csv(
        out / "calibration_audit.csv",
        ("firm_id", "x0", "beta", "n_essential_groups", "n_nonessential"),
        zip(ids, map(repr, x0), map(repr, beta), n_groups, n_ne),
    )


def _read_ids(path: Path) -> list[str]:
    """Non-blank lines of a file with one firm id per line."""
    ids = [line.strip() for line in _read_text(path).splitlines()]
    return [fid for fid in ids if fid]


def _ets_ids(net: ProductionNetwork) -> list[str]:
    return list(compress(net.ids, net.ets_mask().tolist()))


def _candidates(args: argparse.Namespace, net: ProductionNetwork) -> list[str]:
    spec = args.candidates
    if spec == "all-ets":
        return _ets_ids(net)
    path = Path(spec)
    if not path.is_file():
        raise InvalidScenario(f"candidate file not found: {spec}")
    return _read_ids(path)


def _removal_ids(spec: str) -> list[str]:
    path = Path(spec)
    if path.is_file():
        return _read_ids(path)
    return [fid.strip() for fid in spec.split(",") if fid.strip()]


def _solver_options(args: argparse.Namespace) -> dict:
    """The options that batch_indices and run_heuristics take from the command line."""
    return {"workers": args.threads, "total_co2": args.total_co2, "tol": args.tol, "max_iter": args.max_iter}


def _write_curve(path: Path, curve: StrategyCurve) -> None:
    _write_csv(
        path,
        CURVE_COLUMNS,
        [
            (p.rank, p.firm_id, p.rank, _fmt(p.cum_co2_saved), _fmt(p.cum_job_loss),
             int(curve.benchmark_rank is not None and p.rank == curve.benchmark_rank))
            for p in curve.points
        ],
    )


# -- subcommands --------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    net = _load_net(args)
    report = validate(net)
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.fixture is not None:
        sources = [Path(args.fixture) / name for name in ("firms.csv", "edges.csv", "essentiality.csv")]
        for src in sources:
            if not src.is_file():
                raise MissingFile(f"missing input file: {src}")
        # every source decodes before out is made; a byte-order mark is kept, so copies are exact
        texts = [_read_text(src, "utf-8") for src in sources]
        for src, text in zip(sources, texts):
            with _atomic_open(out / src.name) as copy:
                copy.write(text)
        _write_config(out, "synth", args)
        print(f"copied fixture network from {args.fixture} to {out}")
        return 0
    params = SynthParams(
        n_firms=args.n_firms,
        n_edges=args.n_edges,
        degree_exponent=args.degree_exponent,
        n_ets=args.n_ets,
        seed=args.seed,
    )
    net = generate(params)
    write_network(net, out)
    write_essentiality(essentiality_rows(net), out / "essentiality.csv")
    _write_config(out, "synth", args)
    print(f"generated {net.n_firms} firms, {net.n_edges} edges -> {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    net = _load_net(args)
    pf = _calibrated(args, net)
    removed = _removal_ids(args.remove)
    eq = propagate(net, pf, removed, tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    _write_csv(
        out / "equilibrium.csv",
        ("firm_id", "h_d", "h_u", "h"),
        [
            (fid, _fmt(eq.h_d[i]), _fmt(eq.h_u[i]), _fmt(eq.h[i]))
            for i, fid in enumerate(net.ids)
        ],
    )
    _write_json(out / "metadata.json", {
        "iterations": eq.iterations,
        "max_delta": eq.max_delta,
        "converged": eq.converged,
        "removed": sorted(set(removed)),
    })
    _write_audit(out, pf)
    _write_config(out, "simulate", args)
    if not eq.converged:
        print(
            f"warning: not converged after {eq.iterations} iterations "
            f"(max_delta={eq.max_delta:.3e})",
            file=sys.stderr,
        )
    print(f"equilibrium written to {out} ({eq.iterations} iterations)")
    return 0


def _cmd_esri(args: argparse.Namespace) -> int:
    net = _load_net(args)
    pf = _calibrated(args, net)
    candidates = list(dict.fromkeys(_candidates(args, net)))  # first occurrences, in order
    bad = [fid for fid in candidates if fid not in net]
    table = batch_indices(net, pf, [fid for fid in candidates if fid in net], **_solver_options(args))
    if bad:
        print(f"warning: {len(bad)} candidate(s) failed: {', '.join(bad[:5])}", file=sys.stderr)
    out = Path(args.out)
    _write_csv(
        out / "indices.csv",
        INDEX_COLUMNS,
        [
            (r.firm_id, _fmt(r.esri), _fmt(r.ew_esri), _fmt(r.co2_share_total),
             _fmt(r.co2_share_ets), _fmt(r.ratio))
            for r in table.rows
        ],
    )
    _write_audit(out, pf)
    _write_config(out, "esri", args)
    print(f"indices for {len(table.rows)} candidate(s) written to {out}")
    return 0


def _cmd_strategy(args: argparse.Namespace) -> int:
    net = _load_net(args)
    pf = _calibrated(args, net)
    table = batch_indices(net, pf, _candidates(args, net), **_solver_options(args))
    [curve] = run_heuristics(net, pf, table, [args.heuristic], args.target, **_solver_options(args))
    summary = curve.summary()
    out = Path(args.out)
    _write_curve(out / "curve.csv", curve)
    _write_json(out / "summary.json", summary)
    _write_audit(out, pf)
    _write_config(out, "strategy", args)
    print(
        f"{args.heuristic}: target {args.target} -> "
        f"firms_removed={summary['firms_removed']} "
        f"co2_reduction={summary['co2_reduction']:.4f} "
        f"expected_job_loss={summary['expected_job_loss']:.4f}"
    )
    return 0


def _cmd_fit_regimes(args: argparse.Namespace) -> int:
    if args.indices is not None:
        ratios = _read_ratio_column(Path(args.indices))
    else:
        if args.net is None:
            raise MissingUpstream("fit-regimes needs --indices or --net")
        net = _load_net(args)
        pf = _calibrated(args, net)
        table = batch_indices(net, pf, _ets_ids(net), **_solver_options(args))
        ratios = table.finite_ratios_descending()
    fit = fit_rank_regimes(ratios, hi=args.hi, lo=args.lo)
    payload = dataclasses.asdict(fit)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        _write_json(out / "regimes.json", payload)
        _write_config(out, "fit-regimes", args)
    return 0


def _read_ratio_column(path: Path) -> list[float]:
    """The finite positive ratios of an indices file, in descending order.
    A row that ends before the ratio column, or whose ratio cell is not a
    number, is a fault; inf and nan cells are dropped with the other
    ratios that are not finite and positive."""
    if not path.is_file():
        raise MissingUpstream(f"indices file not found: {path}")
    with _open_text(path) as fh:
        rows = csv.reader(fh)
        header = [cell.strip() for cell in next(rows, [])]
        if "ratio" not in header:
            raise MissingUpstream(f"{path.name} has no ratio column")
        col = header.index("ratio")
        values = []
        at_row = _numbered(f"{path.name} row")
        for row_no, row in enumerate(rows, start=2):
            if not row:  # a blank line
                continue
            if len(row) <= col:
                raise at_row(SchemaError(f"expected {col + 1} or more cells, got {len(row)}"), row_no)
            try:
                values.append(float(row[col]))
            except ValueError:
                fault = SchemaError(f"ratio must be a number, got {row[col]!r}")
                raise at_row(fault, row_no) from None
    return _finite_positive_descending(values)


def _cmd_report(args: argparse.Namespace) -> int:
    net = _load_net(args)
    pf = _calibrated(args, net)
    candidates = _candidates(args, net)
    if not candidates:
        raise MissingUpstream("no candidate firms to report on (is any firm an ETS member?)")
    out = Path(args.out)

    table = batch_indices(net, pf, candidates, **_solver_options(args))
    _write_csv(
        out / "scatter_co2_vs_ew_esri.csv",
        ("firm_id", "sector", "ew_esri", "co2_share_total", "co2_share_ets"),
        [
            (r.firm_id, net.table.sector_names[net.table.sector_code[net.index_of(r.firm_id)]],
             _fmt(r.ew_esri), _fmt(r.co2_share_total), _fmt(r.co2_share_ets))
            for r in table.rows
        ],
    )

    by_emissions = [table.row(fid) for fid in rank_firms(table, Heuristic.LARGEST_EMITTERS_FIRST)]
    for curve in run_heuristics(net, pf, table, Heuristic, args.target, **_solver_options(args)):
        _write_curve(out / f"strategy_curve_{curve.heuristic.value}.csv", curve)
        removed_at_benchmark = {p.firm_id for p in curve.points[: curve.benchmark_rank or 0]}
        _write_csv(
            out / f"co2_rank_{curve.heuristic.value}.csv",
            ("rank", "firm_id", "co2_share_total", "removed"),
            [
                (k + 1, r.firm_id, _fmt(r.co2_share_total), int(r.firm_id in removed_at_benchmark))
                for k, r in enumerate(by_emissions)
            ],
        )
    _write_config(out, "report", args)
    print(f"report series for {len(table.rows)} candidate(s) written to {out}")
    return 0


# -- parser -------------------------------------------------------------------------


def _gamma_type(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"gamma must be in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _share_type(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a non-negative finite share, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esri-net",
        description="Shock propagation and systemic-risk indices on firm-level "
                    "production networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    p_model = argparse.ArgumentParser(add_help=False)
    p_model.add_argument(
        "--essentiality",
        help="sector-pair essentiality CSV (default: <net>/essentiality.csv, "
             "else the bundled supplier-letter rule)",
    )
    p_model.add_argument("--gamma", type=_gamma_type, default=0.5,
                         help="output share attainable with no non-essential inputs (default 0.5)")
    p_model.add_argument("--x0-rule", choices=("out", "max"), default="out",
                         help="reference output rule (default out)")

    p_net = argparse.ArgumentParser(add_help=False)
    p_net.add_argument("--net", required=True, help="directory with firms.csv and edges.csv")

    p_prop = argparse.ArgumentParser(add_help=False)
    p_prop.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL,
                        help="sup-norm convergence tolerance (default %(default)s)")
    p_prop.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MAX_ITER,
                        help="iteration cap (default %(default)s)")

    p_par = argparse.ArgumentParser(add_help=False)
    p_par.add_argument("--threads", type=_positive_int, default=None,
                       help="worker processes for scenario batches (default: all cores)")
    p_par.add_argument("--total-co2", type=_positive_float, default=None,
                       help="economy-wide CO2 total (default: sum of known firm emissions)")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[p_net], help="structural and coverage checks")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("synth", help="generate a synthetic network")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-firms", type=int, default=1000)
    sp.add_argument("--n-edges", type=int, default=5000)
    sp.add_argument("--n-ets", type=int, default=0)
    sp.add_argument("--degree-exponent", type=float, default=2.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fixture", help="copy this fixture directory instead of sampling")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("simulate", parents=[p_net, p_model, p_prop],
                        help="propagate one removal scenario")
    sp.add_argument("--remove", required=True, help="comma-separated firm ids or a file")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("esri", parents=[p_net, p_model, p_prop, p_par],
                        help="single-firm-removal index table")
    sp.add_argument("--candidates", default="all-ets",
                    help="'all-ets' or a file with one firm id per line")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_esri)

    sp = sub.add_parser("strategy", parents=[p_net, p_model, p_prop, p_par],
                        help="evaluate a removal heuristic against a CO2 target")
    sp.add_argument("--heuristic", required=True, choices=[h.value for h in Heuristic])
    sp.add_argument("--target", type=_share_type, required=True,
                    help="CO2 savings target as a share of the economy-wide total")
    sp.add_argument("--candidates", default="all-ets")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_strategy)

    sp = sub.add_parser("fit-regimes", parents=[p_model, p_prop, p_par],
                        help="two-regime exponential fit of ratio vs rank")
    sp.add_argument("--indices", help="indices.csv from an esri run")
    sp.add_argument("--net", help="compute indices from this network directory instead")
    sp.add_argument("--hi", type=_positive_float, default=1000.0)
    sp.add_argument("--lo", type=_positive_float, default=10.0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_fit_regimes)

    sp = sub.add_parser("report", parents=[p_net, p_model, p_prop, p_par],
                        help="figure-ready CSV series (scatter, curves, CO2 ranks)")
    sp.add_argument("--candidates", default="all-ets")
    sp.add_argument("--target", type=_share_type, default=0.2)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit-regimes" and args.hi <= args.lo:
        parser.error(f"fit-regimes needs --hi > --lo, got --hi {args.hi:g} --lo {args.lo:g}")
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
