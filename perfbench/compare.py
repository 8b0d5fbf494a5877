#!/usr/bin/env python3
"""Compare two sets of saved benchmark results (a parent and a change).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records run.py saves under <build dir>/results/.
Records are paired by workload and seed.  A pair whose workload, seed,
configuration fingerprint or host fingerprint differ is refused: the
command prints why and exits with status 2 instead of comparing numbers
measured on different inputs or machines.

For every workload and end-to-end metric it prints both medians with their
quartiles, the change as a share of the parent's median, and whether that
exceeds the metric's bound in BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(directory, trace=0):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        rec = json.loads(path.read_text())
        if rec.get("trace") == trace:
            records.append(rec)
    return records


def pair(base, change):
    """{workload: [(base, change), ...]} in seed order; raises
    FingerprintMismatch for a pair measured on different configurations or
    hosts, and for a record without a partner."""
    def index(records):
        return {(r["workload"], r["seed"]): r for r in records}
    a, b = index(base), index(change)
    if a.keys() != b.keys():
        raise benchstats.FingerprintMismatch(
            f"unpaired results: {sorted(a.keys() ^ b.keys())}")
    pairs = {}
    for key in sorted(a):
        benchstats.require_comparable(a[key], b[key])
        pairs.setdefault(key[0], []).append((a[key], b[key]))
    return pairs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        pairs = pair(load(sys.argv[1]), load(sys.argv[2]))
    except benchstats.FingerprintMismatch as err:
        print(f"refusing to compare: {err}", file=sys.stderr)
        return 2
    for workload, rows in pairs.items():
        print(f"{workload} ({len(rows)} seeds)")
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [r[0]["metrics"][name]["value"] for r in rows]
            change = [r[1]["metrics"][name]["value"] for r in rows]
            mb, mc = benchstats.median(base), benchstats.median(change)
            delta = (mc - mb) / mb
            worse = -delta if m["better"] == "higher" else delta
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            quart = ""
            if len(rows) >= 2:
                qb, qc = benchstats.quartiles(base), benchstats.quartiles(change)
                quart = (f"  base q [{qb[0]:.6g}, {qb[2]:.6g}]"
                         f"  change q [{qc[0]:.6g}, {qc[2]:.6g}]")
            print(f"  {name:18s} base {mb:<12.6g} change {mc:<12.6g} "
                  f"{delta:+.3%} (bound {m['bound']:.0%}) {verdict}{quart}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
