#!/usr/bin/env python3
"""Brief self-check of the served-path benchmark.

    python3 servebench/selfcheck.py

For every workload: two short end-to-end runs of one seed and one short
traced run.  Checks that each run verifies, prints exactly the metrics
BENCHMARK.json names with their units, repeats its deterministic metrics
exactly, and that the traced run confirms the workload's design (see
README.md, "Acceptance readings").  Exits 1 on any failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("model_miss_rate", "model_stall_frac")


def run(workload, trace, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "servebench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        first, _ = run(workload, 0, 2)
        second, _ = run(workload, 0, 2)
        traced, info = run(workload, 1, 1)
        for name, result, trace in (("run 1", first, 0), ("run 2", second, 0),
                                    ("traced", traced, 1)):
            check(result is not None and result["correct"]
                  and result["failed"] == 0,
                  f"{workload} {name}: verified, no failed requests")
            if result is not None:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace],
                      f"{workload} {name}: every named metric with its unit")
        if first is None or second is None or traced is None:
            continue
        for key in DETERMINISTIC:
            check(first["metrics"][key] == second["metrics"][key],
                  f"{workload}: {key} identical across runs")
        e2e = first["metrics"]
        if workload == "cad-batch":
            share = info["access_many_share_of_ingest"]
            check(share >= 0.8, f"cad-batch: access_many is {share:.0%} of "
                  "Session::ingest (>= 80%)")
        elif workload == "sitar-frames":
            share = info["engine_us_per_access_frame"] / (
                e2e["p50_ms"]["value"] * 1e3)
            check(share < 0.2, f"sitar-frames: engine calls are {share:.1%} "
                  "of p50_ms (< 20%)")
        elif workload == "snake-ship":
            share = info["snapshot_plus_restore_ms"] / e2e["ship_ms"]["value"]
            check(share >= 0.5, f"snake-ship: snapshot + restore are "
                  f"{share:.0%} of ship_ms (>= 50%)")
    print("selfcheck: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
