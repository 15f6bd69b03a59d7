"""The three workloads: set-up, the timed job, the CLI leg, and traced layers.

Every workload runs the same legs on its own network, so every end-to-end
metric exists on every workload; what differs is which leg is the timed
job that fills `--seconds`:

- index-100k: `batch_indices` over the run's candidate sample;
- curves-10k: the `report` pipeline (index table, then all three curves);
- cli-esri-100k: `python -m esri_net.cli esri` in a child process.

The network of a workload is fixed (the generator seed of the acceptance
gate with the same shape), because step counts, and with them scenario
times, differ by 10-40 % between generator seeds; a per-run network would
make run-to-run spread larger than any bound worth holding.  The run seed
draws the candidate sample and its order from the network's ETS firms, so
the inputs change with the seed and repeat for the same seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from esri_net import calibration, indices, network, propagation, strategies, synth
from esri_net.calibration import EssentialityMatrix
from esri_net.strategies import Heuristic

import reference
from reference import REF_TOL, Check, curve_values, table_values
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
NPROC = os.cpu_count() or 1
GAMMA = 0.5  # the acceptance gates calibrate their generated networks with 0.5
TARGET = 0.2  # the CLI's default report target
STEP_REPEATS = 21
IMPORT_REPEATS = 3


@dataclass(frozen=True)
class Shape:
    n_firms: int
    n_edges: int
    n_ets: int
    net_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    job: str  # "index", "report" or "cli": the leg that fills --seconds
    shape: Shape
    sample: int  # candidates the run seed draws for the timed job
    setups: int  # set-up repetitions in one run; setup_s is their median
    cli: str  # CLI subcommand of the CLI leg
    cli_sample: int  # leading candidates of the sample passed to the CLI
    subset: int  # leading candidates of the sample in the worker-count comparison
    curve_sample: int  # leading candidates of the sample in traced curves off the report job


# 100k / 503k edges is criterion 7's network, 10k / 50k criterion 5's.  A
# run samples most of a small ETS pool (24 of 32, 16 of 20): single-firm
# step counts spread widely (coefficient of variation about 0.36), and a
# sample that is most of its pool keeps the run's total work, and with it
# the run-to-run spread, small.  The CLI gets 8 ids, enough that the
# largest reference error of the run rarely misses the pool's top errors.
# A 100k set-up costs about 13 s, so it is done once per run there, which
# keeps a full round of runs (22 per workload) under an hour.
FULL = {
    w.name: w
    for w in (
        Workload("index-100k", "index", Shape(100_000, 503_000, 32, 7), 24, 1, "esri", 2, 8, 2),
        Workload("curves-10k", "report", Shape(10_000, 50_000, 20, 5), 16, 3, "report", 16, 8, 16),
        Workload("cli-esri-100k", "cli", Shape(100_000, 503_000, 32, 7), 8, 1, "esri", 8, 4, 2),
    )
}
# a tiny size of every workload, for the benchmark's own smoke test
TINY = {
    name: Workload(
        name, w.job, Shape(600, 3_000, 12, w.shape.net_seed), 6, 2, w.cli, 3, 3, 3
    )
    for name, w in FULL.items()
}


def median(values) -> float:
    return float(statistics.median(values))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fingerprint(net, shape: Shape) -> str:
    """Hash of the generated inputs; reference cache entries are keyed by it."""
    h = hashlib.sha256()
    h.update(json.dumps([shape.n_firms, shape.n_edges, shape.n_ets, shape.net_seed, GAMMA]).encode())
    for arr in (net.supplier_idx, net.buyer_idx, net.weights, net.co2_array(), net.employees_array()):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:20]


def work_counts(net, pf, l2_bytes: int | None) -> dict:
    """Computed (not measured) work of one Jacobi step, from public array sizes.

    The step multiplies three CSR matrices with a vector: the essential-group
    matrix E (groups x n), the non-essential average N (n x n) and the
    upstream average U (n x n).  Each stored entry moves 8 bytes of value,
    4 of column index and 8 of gathered input; each row 4 bytes of row
    pointer and 8 of output; about six n-vectors of glue are read or
    written.  The working set is the three matrices plus those vectors.
    """
    n = net.n_firms
    mats = [  # (rows, stored entries)
        (int(pf.es_group_owner.size), int(pf.es_supplier.size)),
        (n, int(pf.ne_supplier.size)),
        (n, net.n_edges),
    ]
    edges = sum(nnz for _, nnz in mats)
    glue = 6 * 8 * n
    traffic = sum(nnz * 20 + (rows + 1) * 4 + rows * 8 for rows, nnz in mats) + glue
    working_set = sum(nnz * 12 + (rows + 1) * 4 for rows, nnz in mats) + glue
    return {
        "computed": True,
        "edges_per_step": edges,
        "bytes_per_step": traffic,
        "working_set_bytes": working_set,
        "l2_bytes": l2_bytes,
        "fits_l2": None if l2_bytes is None else working_set <= l2_bytes,
    }


class Run:
    """One benchmark run: state shared by the legs and the result it builds."""

    def __init__(self, w: Workload, seed: int, seconds: float, traced: bool, size: str):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = size
        self.tracer = Tracer()
        self.tracer.active = traced
        self.check = Check()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.facts: dict = {}
        self.work_dir = WORK / f"{w.name}-{size}-{seed}-{os.getpid()}"
        self.shape = w.shape
        self.params = synth.SynthParams(
            n_firms=self.shape.n_firms,
            n_edges=self.shape.n_edges,
            n_ets=self.shape.n_ets,
            seed=self.shape.net_seed,
        )

    # -- helpers --------------------------------------------------------------

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(why)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @contextmanager
    def untraced(self):
        """Record no spans inside (reference solves and checks)."""
        was, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was

    def calibrated(self, net):
        part = calibration.classify_inputs(net, EssentialityMatrix.default())
        return calibration.calibrate(net, part, gamma=GAMMA)

    # -- set-up ---------------------------------------------------------------

    def set_up(self) -> None:
        """Seed to ready model (or to the CSV directory the CLI reads), timed."""
        times = []
        for _ in range(self.w.setups):
            self.net = self.pf = None
            t0 = time.perf_counter()
            net = synth.generate(self.params)
            if self.w.job == "cli":
                self.write_csv(net, self.work_dir / "net")
            else:
                pf = self.calibrated(net)
                propagation.propagate(net, pf, ())  # compiles the operators
                self.pf = pf
            times.append(time.perf_counter() - t0)
            self.net = net
        self.metric("setup_s", median(times), "s")
        self.facts["setup_s_each"] = times
        if self.pf is None:
            with self.untraced():
                self.pf = self.calibrated(self.net)
        self.fp = fingerprint(self.net, self.shape)
        self.facts["network"] = {"n_firms": self.net.n_firms, "n_edges": self.net.n_edges,
                                 "generator_seed": self.shape.net_seed,
                                 "n_ets": self.shape.n_ets, "fingerprint": self.fp}
        pool = [f.id for f in self.net.firms if f.ets_member]
        rng = np.random.default_rng(self.seed)
        self.sample = [pool[int(i)] for i in rng.choice(len(pool), size=self.w.sample, replace=False)]
        self.facts["sample"] = self.sample

    def write_csv(self, net, out: Path) -> None:
        network.write_network(net, out)
        synth.write_essentiality(synth.essentiality_rows(net), out / "essentiality.csv")

    # -- reference ------------------------------------------------------------

    def ref_singles(self, ids: list[str]) -> dict:
        store = self.ref_store
        missing = [fid for fid in ids if fid not in store["single"]]
        if missing:
            with self.untraced():
                table = indices.batch_indices(self.net, self.pf, missing, workers=NPROC, tol=REF_TOL)
            store["single"].update(table_values(table))
            self.save_ref()
        return {fid: store["single"][fid] for fid in ids}

    def ref_curve(self, ordering: list[str]) -> list:
        key = hashlib.sha256("\n".join(ordering).encode()).hexdigest()[:20]
        store = self.ref_store
        if key not in store["curve"]:
            with self.untraced():
                curve = strategies.run_strategy(
                    self.net, self.pf, ordering, TARGET, workers=NPROC, tol=REF_TOL
                )
            store["curve"][key] = curve_values(curve)
            self.save_ref()
        return store["curve"][key]

    def load_ref(self) -> None:
        self.ref_store = reference.load(self.fp)

    def save_ref(self) -> None:
        reference.save(self.fp, self.ref_store)

    def check_table(self, label: str, values: dict, ids: list[str]) -> int:
        """Compare index values with the reference; returns scenarios beyond the bound."""
        before = len(self.check.bad)
        self.check.tables(label, values, self.ref_singles(ids))
        return len(self.check.bad) - before

    def check_curves(self, label: str, curves: dict[str, tuple[list[str], list]]) -> int:
        before = len(self.check.bad)
        for name, (ordering, values) in curves.items():
            self.check.curves(f"{label}:{name}", values, self.ref_curve(ordering))
        return len(self.check.bad) - before

    # -- in-process legs ------------------------------------------------------

    def index_pass(self, ids: list[str], workers: int = NPROC):
        return indices.batch_indices(self.net, self.pf, ids, workers=workers)

    def report_pass(self, ids: list[str]):
        table = self.index_pass(ids)
        curves = {}
        for h in Heuristic:
            curve = strategies.run_heuristic(self.net, self.pf, table, h, TARGET, workers=NPROC)
            curves[h.value] = ([p.firm_id for p in curve.points], curve_values(curve))
        return table, curves

    def scenarios_of(self, ids: list[str]) -> int:
        return len(ids) if self.w.job != "report" else 4 * len(ids)

    def job_pass(self):
        """One pass of the in-process timed job; returns comparable output."""
        if self.w.job == "report":
            table, curves = self.report_pass(self.sample)
            return table_values(table), curves
        table = self.index_pass(self.sample)
        return table_values(table), {}

    def with_outcomes(self, fn):
        """Call fn and collect (iterations, converged) of every scenario it evaluates."""
        seen: list[tuple[int, bool]] = []
        originals = {}
        for mod in (indices, strategies):
            original = mod.evaluate_scenarios
            originals[mod] = original

            def counting(*args, _original=original, **kwargs):
                results = _original(*args, **kwargs)
                seen.extend((r[3], r[4]) for r in results)
                return results

            mod.evaluate_scenarios = counting
        try:
            out = fn()
        finally:
            for mod, original in originals.items():
                mod.evaluate_scenarios = original
        return out, seen

    def run_job(self) -> None:
        """Passes of the in-process timed job until --seconds have elapsed."""
        times, outputs, outcomes = [], [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < self.seconds:
            t0 = time.perf_counter()
            out, seen = self.with_outcomes(self.job_pass)
            times.append(time.perf_counter() - t0)
            outputs.append(out)
            outcomes.append(seen)
        self.job_times, self.job_outcomes = times, outcomes
        passes = len(times)
        per_pass = self.scenarios_of(self.sample)
        self.attempted += passes * per_pass
        self.metric("scenarios_per_s", passes * per_pass / sum(times), "1/s")
        self.metric("report_s", median(times), "s")
        self.facts["job_s_each"] = times

        first_table, first_curves = outputs[0]
        drift = sum(out != outputs[0] for out in outputs[1:])
        self.fail(drift * per_pass, f"{drift} pass(es) differ from the first pass")
        bad = self.check_table("job", first_table, self.sample)
        if first_curves:
            bad += self.check_curves("job", first_curves)
        self.fail(passes * bad, f"{bad} scenario(s) beyond the reference bound or in error")
        nonconv = sum(not conv for seen in outcomes for _, conv in seen)
        self.fail(nonconv, f"{nonconv} scenario(s) hit the iteration cap")
        self.facts["nonconverged"] = nonconv
        steps = [it for it, _ in outcomes[0]]
        k = len(self.sample)
        self.facts["job_steps"] = {"single_p50": pct(steps[:k], 50),
                                   "prefix_p50": pct(steps[k:], 50) if steps[k:] else None}

    def cli_equivalent(self, csv_dir: Path, ids: list[str], command: str):
        """In process, what the CLI command does apart from argument and output handling.

        Returns the wall seconds and the index table.
        """
        t0 = time.perf_counter()
        net = network.load_network(csv_dir / "firms.csv", csv_dir / "edges.csv")
        matrix = EssentialityMatrix.from_csv(csv_dir / "essentiality.csv")
        pf = calibration.calibrate(net, calibration.classify_inputs(net, matrix), gamma=GAMMA)
        table = indices.batch_indices(net, pf, ids, workers=NPROC)
        if command == "report":
            for h in Heuristic:
                strategies.run_heuristic(net, pf, table, h, TARGET, workers=NPROC)
        seconds = time.perf_counter() - t0
        if net != self.net:
            self.fail(1, "network read back from CSV differs from the generated one")
        return seconds, table_values(table)

    # -- CLI leg --------------------------------------------------------------

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.work_dir)
        return env

    def cli_csv(self) -> Path:
        """CSV directory of the workload network for the CLI leg.

        The cli job writes it in set-up.  The other jobs keep one copy per
        network under the cache directory, except in a traced run, which
        writes it afresh to time `write_network`.
        """
        if self.w.job == "cli":
            return self.work_dir / "net"
        if self.traced:
            out = self.work_dir / "net"
            self.write_csv(self.net, out)
            return out
        out = HERE / ".cache" / f"csv-{self.fp}"
        if not (out / "edges.csv").is_file():
            tmp = out.with_name(out.name + f".tmp{os.getpid()}")
            with self.untraced():
                self.write_csv(self.net, tmp)
            tmp.replace(out)
        return out

    def cli_run(self, csv_dir: Path, ids: list[str]) -> float:
        """One child-process CLI run, checked; returns its wall seconds."""
        cand = self.work_dir / "candidates.txt"
        cand.write_text("\n".join(ids) + "\n", encoding="utf-8")
        out = self.work_dir / "cli-out"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "esri_net.cli", self.w.cli, "--net", str(csv_dir),
               "--candidates", str(cand), "--threads", str(NPROC), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env(), capture_output=True, text=True,
                              timeout=170)
        seconds = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(1, f"CLI exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return seconds
        if self.w.cli == "esri":
            bad = self.check_table("cli", read_indices(out / "indices.csv"), ids)
        else:
            bad = self.check_curves("cli", read_curves(out))
        self.fail(int(bad > 0), f"CLI output: {bad} value row(s) beyond the reference bound")
        return seconds

    def run_cli_job(self) -> None:
        """Timed job of cli-esri-100k: CLI runs until --seconds have elapsed."""
        ids = self.sample[: self.w.cli_sample]
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < self.seconds:
            times.append(self.cli_run(self.work_dir / "net", ids))
        self.metric("cli_s", median(times), "s")
        self.metric("scenarios_per_s", len(ids) * len(times) / sum(times), "1/s")
        self.facts["cli_s_each"] = times
        self.cli_ids = ids
        # report_s here starts from the files the CLI reads, so that
        # cli_s - report_s is the CLI's own overhead
        seconds, table = self.cli_equivalent(self.work_dir / "net", ids, "esri")
        self.metric("report_s", seconds, "s")
        self.attempted += len(ids)
        bad = self.check_table("inproc", table, ids)
        self.fail(bad, f"{bad} in-process scenario(s) beyond the reference bound")

    def run_cli_leg(self) -> None:
        ids = self.sample[: self.w.cli_sample]
        self.cli_ids = ids
        self.cli_dir = self.cli_csv()
        self.metric("cli_s", self.cli_run(self.cli_dir, ids), "s")

    # -- traced layers --------------------------------------------------------

    def traced_layers(self, host: dict) -> None:
        t = self.tracer
        spans = lambda name: [s.seconds for s in t.named(name)]
        w, net, pf = self.w, self.net, self.pf

        if w.job == "cli":
            inproc = self.metrics["report_s"][0]
        else:
            inproc, _ = self.cli_equivalent(self.cli_dir, self.cli_ids, w.cli)
        self.metric("cli.residual_s", self.metrics["cli_s"][0] - inproc, "s")

        self.metric("synth.generate_s", median(spans("synth.generate")), "s")
        self.metric("network.write_network_s", median(spans("network.write_network")), "s")
        load = median(spans("network.load_network"))
        self.metric("network.load_network_s", load, "s")
        self.metric("network.edge_rows_per_s", net.n_edges / load, "rows/s")
        self.metric("calibration.classify_inputs_s", median(spans("calibration.classify_inputs")), "s")
        self.metric("calibration.calibrate_s", median(spans("calibration.calibrate")), "s")
        if w.job == "cli":  # set-up stops at the CSV here; compile once on a fresh model
            propagation.propagate(net, self.calibrated(net), ())
            compile_span = t.named("propagation.propagate")[-1]
        else:
            compile_span = t.named("propagation.propagate")[0]
        self.metric("propagation.compile_s", compile_span.seconds, "s")

        # one Jacobi step, on the first candidate's scenario
        scenario = [self.sample[0]]
        state = propagation.initial_state(net, scenario)
        mark = len(t.spans)
        for _ in range(STEP_REPEATS):
            state = propagation.production_step(state, net, pf, scenario)
        step_s = median([s.seconds for s in t.spans[mark:] if s.name == "propagation.production_step"])
        self.metric("propagation.step_s", step_s, "s")
        counts = work_counts(net, pf, host.get("l2_bytes"))
        self.facts["work"] = counts
        self.metric("propagation.edges_per_step", counts["edges_per_step"], "edges")
        self.metric("propagation.bytes_per_step", counts["bytes_per_step"], "bytes")
        self.metric("propagation.gbytes_per_s", counts["bytes_per_step"] / step_s / 1e9, "GB/s")
        self.metric("propagation.working_set_mb", counts["working_set_bytes"] / 1e6, "MB")

        # worker-count comparison on a subset; workers=1 keeps propagate in this process
        subset = self.sample[: w.subset]
        mark = len(t.spans)
        t0 = time.perf_counter()
        one = self.index_pass(subset, workers=1)
        w1 = time.perf_counter() - t0
        props = [s for s in t.spans[mark:] if s.name == "propagation.propagate"]
        t0 = time.perf_counter()
        many = self.index_pass(subset, workers=NPROC)
        wn = time.perf_counter() - t0
        # tracing overhead: the same call with spans off
        with self.untraced():
            t0 = time.perf_counter()
            self.index_pass(subset, workers=NPROC)
            self.metric("trace.overhead_s", wn - (time.perf_counter() - t0), "s")
        self.attempted += 1
        if table_values(one) != table_values(many):
            self.fail(1, f"workers=1 and workers={NPROC} results differ")
        self.metric("indices.batch_w1_s", w1, "s")
        self.metric("indices.batch_wN_s", wn, "s")
        self.metric("indices.pool_speedup", w1 / wn, "ratio")
        self.metric("indices.overhead_share", 1.0 - sum(s.seconds for s in props) / w1, "share")
        steps = [s.attrs["iterations"] for s in props]
        self.metric("propagation.steps_p50", pct(steps, 50), "steps")
        self.metric("propagation.steps_p90", pct(steps, 90), "steps")
        self.metric("propagation.scenario_s_p50", pct([s.seconds for s in props], 50), "s")
        self.metric("propagation.scenario_s_p90", pct([s.seconds for s in props], 90), "s")
        self.metric("indices.nonconverged", self.facts.get("nonconverged", 0)
                    + sum(not s.attrs["converged"] for s in props), "count")

        # strategy curves: from the job on curves-10k, else a short report here
        if w.job == "report":
            prefix_steps = [it for seen in self.job_outcomes for it, _ in seen[len(self.sample):]]
        else:
            (_, curves), seen = self.with_outcomes(lambda: self.report_pass(self.sample[: w.curve_sample]))
            prefix_steps = [it for it, _ in seen[w.curve_sample:]]
            self.attempted += 3 * w.curve_sample
            bad = self.check_curves("traced", curves)
            self.fail(bad, f"{bad} traced curve prefix(es) beyond the reference bound")
        by_heuristic: dict[str, list[float]] = {}
        for span in t.named("strategies.run_strategy"):
            by_heuristic.setdefault(span.attrs["heuristic"], []).append(span.seconds)
        for h in Heuristic:
            self.metric(f"strategies.run_strategy_s.{h.value}", median(by_heuristic[h.value]), "s")
        self.metric("strategies.prefix_steps_p50", pct(prefix_steps, 50), "steps")
        self.metric("strategies.prefix_steps_p90", pct(prefix_steps, 90), "steps")

        imports = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import esri_net"], cwd=ROOT, env=self.env(),
                           check=True, timeout=60)
            imports.append(time.perf_counter() - t0)
        self.metric("cli.import_s", median(imports), "s")

    # -- whole run ------------------------------------------------------------

    def execute(self, host: dict) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        try:
            with self.tracer.wrap():
                self.set_up()
                self.load_ref()
                if self.w.job == "cli":
                    self.run_cli_job()
                else:
                    self.run_job()
                    self.run_cli_leg()
                if self.traced:
                    self.traced_layers(host)
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)
        self_ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metric("peak_rss_mb", max(self_ru, child_ru) / 1024.0, "MB")
        self.metric("index_max_err", self.check.max_err, "abs")
        self.facts["failed_share"] = self.failed / max(1, self.attempted)
        if self.traced:
            self.metric("failed_share", self.facts["failed_share"], "share")
        self.facts["beyond_bound"] = self.check.bad[:50]


def read_indices(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            row["firm_id"]: [float(row[c]) for c in ("esri", "ew_esri", "co2_share_total", "co2_share_ets")]
            for row in csv.DictReader(fh)
        }


def read_curves(out: Path) -> dict:
    curves = {}
    for h in Heuristic:
        with open(out / f"strategy_curve_{h.value}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        curves[h.value] = (
            [r["firm_id"] for r in rows],
            [[float(r["cum_co2_saved"]), float(r["cum_job_loss"])] for r in rows],
        )
    return curves
