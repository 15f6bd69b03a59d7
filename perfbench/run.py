"""Benchmark entry point.

    python3 perfbench/run.py --workload index-100k --seed 1 --seconds 10 --trace 0

Runs one workload from the root of a checkout, writes a result file (and,
with --trace 1, a spans file) under perfbench/results/, and prints one JSON
line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The package is imported from the
checkout's src/; without it the run stops with exit code 2.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed job")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "esri_net" / "__init__.py").is_file():
        print(f"error: no esri_net package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import record
    import workloads

    table = workloads.TINY if args.size == "tiny" else workloads.FULL
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(table)}",
              file=sys.stderr)
        return 2

    host = record.host_record(ROOT)
    load_before = record.loadavg_1m()
    started = time.time()
    run = workloads.Run(table[args.workload], args.seed, args.seconds, bool(args.trace), args.size)
    run.execute(host)
    wall = time.time() - started
    load_after = record.loadavg_1m()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = run.metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out = HERE / "results"
    out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        run.tracer.dump(out / f"{stem}-spans.json")
    record_ = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "loadavg_1m": {"before": load_before, "after": load_after},
        "wall_s": wall,
        "result": result,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(run.metrics.items())},
        "self_s": run.tracer.self_times() if args.trace else None,
        "failures": run.notes,
        **run.facts,
    }
    (out / f"{stem}.json").write_text(json.dumps(record_, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
