#!/usr/bin/env python3
"""The volsched benchmark: one command, four workloads.

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 20 --trace 0

Run from the repository root.  On first use it builds the library and the
driver (CMake, Release) into the build directory named by CARGO_TARGET_DIR,
default .bench_build.  It then runs perfbench_driver, which generates the
workload from the seed, measures for --seconds and checks every output, and
reduces its samples to the metrics named in BENCHMARK.json.

It prints each metric by name with its unit, the fingerprints and the
failure count, and as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the span trace is written as Chrome trace-event JSON
next to the saved result.  The full result, fingerprints included, is saved
under <build dir>/results/ for compare.py.

Exit status is 0 only when a result was printed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# fleet is measured exactly like the others but is not in BENCHMARK.json:
# on the shared reference host its timings move with other tenants' load
# by up to 30%, past any bound a gate could hold (README.md, "fleet").
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["fleet"]
DRIVER_TIMEOUT_S = 170

# A seed never used while the benchmark or a change was tuned; re-check a
# claimed gain on it (README.md, "Seeds").
HELD_OUT_SEED = 918273645


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures once, then builds incrementally; all output to stderr."""
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return bdir / "perfbench_driver"


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def end_to_end(raw):
    p, tail_ms, n = benchstats.tail(raw["op_best_ms"])
    values = {
        "slots_per_s": raw["pass_slots"] / raw["best_seconds"],
        "instances_per_s": raw["instances"] / raw["best_seconds"],
        "op_ms_p50": benchstats.median(raw["op_best_ms"]),
        "op_ms_tail": tail_ms,
        "setup_s": benchstats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {"op_ms_tail": f"(p{p:g} of {n} operations)"}
    return values, notes


def per_layer(raw):
    values = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    values.update(raw.get("layers", {}))
    values["trace_overhead_frac"] = (
        1.0 - raw["best_seconds"] / raw["traced_best_seconds"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verify-only", action="store_true",
                    help="set up and check outputs without timing; prints "
                         "the reference digest (for reference.json)")
    args = ap.parse_args()

    bdir = build_dir()
    driver = build(bdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(bdir / "work")]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{tag}.trace.json")]
    if args.verify_only:
        cmd.append("--verify-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          cwd=ROOT, timeout=DRIVER_TIMEOUT_S, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"driver failed with status {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.verify_only:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "digest": raw["digest"], "failed": raw["failed"]}))
        return 0

    attempted, failed = raw["attempted"], raw["failed"]
    reasons = list(raw["fail_reasons"])
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    if expected is not None:
        attempted += 1
        if expected != raw["digest"]:
            failed += 1
            reasons.append(f"digest {raw['digest']} differs from the "
                           f"reference {expected} for seed {args.seed}")

    config = dict(raw["config"], seed=args.seed)
    host = raw["host"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": config,
        "config_fingerprint": benchstats.fingerprint(config),
        "host": host,
        "host_fingerprint": benchstats.fingerprint(host),
        "digest": raw["digest"],
        "counters": raw["counters"],
        "attempted": attempted,
        "failed": failed,
    }
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    if args.trace:
        values, notes = per_layer(raw), {}
    else:
        values, notes = end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    record["metrics"] = metrics
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {raw['passes']}")
    print(f"config_fingerprint {record['config_fingerprint']}  "
          f"host_fingerprint {record['host_fingerprint']}  "
          f"({host['nproc']} cpus, {host['compiler']}, {host['build_type']}, "
          f"{host['filesystem']})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:<22.10g} {m['unit']:10s} "
              f"{notes.get(name, '')}")
    print(f"  {'failed_frac':32s} {failed / attempted:<22.10g} ratio "
          f"     ({failed} of {attempted} operations)")
    print("  work counters: " + json.dumps(raw["counters"], sort_keys=True))
    for why in reasons:
        print(f"  FAILED: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
