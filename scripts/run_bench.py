#!/usr/bin/env python3
"""Run the microbenchmarks and snapshot items/sec into BENCH_NN.json.

Runs build/bench/micro_benchmarks with --benchmark_format=json and distils
the result into a flat {benchmark name: items per second} snapshot at the
repo root, so every PR leaves a comparable perf-trajectory data point.
The snapshot context records host, CPU, git SHA and CMake build type so a
later reader can judge comparability.

Usage:
    scripts/run_bench.py                   # writes BENCH_01.json (default)
    scripts/run_bench.py --out BENCH_02.json
    scripts/run_bench.py --filter 'BM_Simulator.*'
    scripts/run_bench.py --min-time 1x     # quick smoke pass
    scripts/run_bench.py --compare BENCH_01.json   # diff, don't write
    scripts/run_bench.py --self-test       # exercise the compare logic
    scripts/run_bench.py --ab /path/to/baseline/micro_benchmarks \
        --filter 'BM_MarkovAccess.*' --pairs 10   # interleaved A/B

Comparisons print per-benchmark speedup of the fresh run over the named
snapshot and exit non-zero if any benchmark regressed by more than
--tolerance (default 10%), which makes the script usable as a local
regression gate: scripts/run_bench.py --compare BENCH_01.json
With --warn-only the comparison still prints every regression but always
exits 0 on regressions (config errors still exit 2) — for shared-runner
legs like the nightly, where timings inform but must not block.

Benchmarks missing from the baseline are warned about and skipped (new
benchmarks must be able to land without tripping the gate); a missing or
malformed baseline file still exits 2.

--ab <baseline-binary> measures a change against another build of the
benchmarks on the same host: it runs --pairs interleaved pairs of the
filtered rows, alternating which binary goes first (baseline/change,
then change/baseline, ...) so slow drift on a shared host lands on both
sides.  Each row's per-pair ratio is change items/s over baseline
items/s (> 1 means the change is faster); the report gives its median,
min and max, how many pairs the change won and each side's median
items/s.  Rows that report a cpu_ns_per_access counter (process CPU per
access, which co-tenant drift moves far less than wall time) also get
the median per-pair CPU ratio, baseline CPU over change CPU (> 1 means
the change uses less CPU).  Nothing is written.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BINARY = REPO_ROOT / "build" / "bench" / "micro_benchmarks"
DEFAULT_OUT = REPO_ROOT / "BENCH_01.json"


def run_benchmarks(binary: pathlib.Path, bench_filter: str | None,
                   min_time: str | None) -> dict:
    cmd = [str(binary), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    if min_time:
        cmd.append(f"--benchmark_min_time={min_time}")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        # e.g. a --filter that matches nothing makes the binary print a
        # warning instead of JSON (and still exit 0).
        print(proc.stdout.strip() or proc.stderr.strip(), file=sys.stderr)
        sys.exit(2)


def rows(raw: dict):
    """Yields (name[label], row) for each non-aggregate benchmark row."""
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        label = bench.get("label")
        if label:
            name = f"{name}[{label}]"
        yield name, bench


def snapshot(raw: dict) -> dict:
    """Flatten google-benchmark JSON to {name: items_per_second}."""
    out = {}
    for name, bench in rows(raw):
        ips = bench.get("items_per_second")
        if ips is None:
            # Fall back to inverse wall time so every benchmark lands in
            # the snapshot even if it forgot SetItemsProcessed.
            unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
                bench["time_unit"]
            ]
            ips = 1.0 / (bench["real_time"] * unit)
        out[name] = ips
    return out


def cpu_snapshot(raw: dict) -> dict:
    """{name: cpu_ns_per_access} for the rows that report the counter."""
    return {name: bench["cpu_ns_per_access"] for name, bench in rows(raw)
            if "cpu_ns_per_access" in bench}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def cmake_build_type(binary: pathlib.Path) -> str:
    """CMAKE_BUILD_TYPE from the build tree the binary came out of."""
    for parent in binary.resolve().parents:
        cache = parent / "CMakeCache.txt"
        if not cache.is_file():
            continue
        try:
            for line in cache.read_text().splitlines():
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    value = line.split("=", 1)[-1].strip()
                    return value or "unknown"
        except OSError:
            break
        break
    return "unknown"


def compare(fresh: dict, baseline_path: pathlib.Path, tolerance: float,
            warn_only: bool = False) -> int:
    if not baseline_path.exists():
        print(f"snapshot not found: {baseline_path}", file=sys.stderr)
        return 2
    try:
        payload = json.loads(baseline_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as err:
        print(f"snapshot {baseline_path} is not readable JSON: {err}",
              file=sys.stderr)
        return 2
    baseline = payload.get("items_per_second") if isinstance(payload, dict) \
        else None
    if not isinstance(baseline, dict):
        print(f"snapshot {baseline_path} has no 'items_per_second' table; "
              f"was it written by this script?", file=sys.stderr)
        return 2
    regressions = []
    skipped = []
    width = max(map(len, fresh), default=0)
    for name, ips in sorted(fresh.items()):
        base = baseline.get(name)
        if not isinstance(base, (int, float)) or base <= 0:
            # New benchmarks (or junk baseline rows) must not trip the
            # gate; they simply have no baseline to regress against.
            skipped.append(name)
            print(f"{name:{width}}  {ips:>14,.0f}  (not in baseline; "
                  f"skipped)")
            continue
        ratio = ips / base
        marker = ""
        if ratio < 1.0 - tolerance:
            marker = "  << REGRESSION"
            regressions.append(name)
        print(f"{name:{width}}  {ips:>14,.0f}  vs {base:>14,.0f}"
              f"  ({ratio:6.2%}){marker}")
    if skipped:
        print(f"warning: {len(skipped)} benchmark(s) not in "
              f"{baseline_path.name}, skipped: {', '.join(skipped)}",
              file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed more than "
              f"{tolerance:.0%}: {', '.join(regressions)}")
        if warn_only:
            print("(--warn-only: reporting, not failing)")
            return 0
        return 1
    return 0


def ab_schedule(pairs: int) -> list:
    """Run order for --ab: one (pair, side) per run, the first side
    alternating between pairs ("base" first in even pairs)."""
    order = []
    for pair in range(pairs):
        sides = ("base", "change") if pair % 2 == 0 else ("change", "base")
        order.extend((pair, side) for side in sides)
    return order


def summarize_ab(base_runs: list, change_runs: list,
                 base_cpu: list | None = None,
                 change_cpu: list | None = None) -> dict:
    """Per-row per-pair ratios (change / baseline items/s) summarized as
    {name: {median, min, max, wins, pairs, base, change, cpu}}, where base
    and change are each side's median items/s and cpu is the median
    per-pair baseline / change cpu_ns_per_access (None for rows that do
    not report it); rows absent from either side of a pair are left out
    of that pair."""
    pairs = {}
    for base, change in zip(base_runs, change_runs):
        for name, ips in change.items():
            ref = base.get(name)
            if isinstance(ref, (int, float)) and ref > 0:
                pairs.setdefault(name, []).append((ref, ips))
    cpu_ratios = {}
    for base, change in zip(base_cpu or [], change_cpu or []):
        for name, ns in change.items():
            ref = base.get(name)
            if isinstance(ref, (int, float)) and ns > 0:
                cpu_ratios.setdefault(name, []).append(ref / ns)
    summary = {}
    for name, sides in pairs.items():
        ratios = [ips / ref for ref, ips in sides]
        summary[name] = {
            "median": statistics.median(ratios),
            "min": min(ratios),
            "max": max(ratios),
            "wins": sum(1 for r in ratios if r > 1.0),
            "pairs": len(ratios),
            "base": statistics.median(ref for ref, _ in sides),
            "change": statistics.median(ips for _, ips in sides),
            "cpu": (statistics.median(cpu_ratios[name])
                    if name in cpu_ratios else None),
        }
    return summary


def run_ab(binary: pathlib.Path, baseline: pathlib.Path, pairs: int,
           bench_filter: str | None, min_time: str | None) -> int:
    if not baseline.exists():
        print(f"baseline binary not found: {baseline}", file=sys.stderr)
        return 2
    runs = {"base": [None] * pairs, "change": [None] * pairs}
    cpu = {"base": [None] * pairs, "change": [None] * pairs}
    for pair, side in ab_schedule(pairs):
        target = baseline if side == "base" else binary
        raw = run_benchmarks(target, bench_filter, min_time)
        runs[side][pair] = snapshot(raw)
        cpu[side][pair] = cpu_snapshot(raw)
        print(f"pair {pair + 1}/{pairs}: ran {side}", file=sys.stderr)
    summary = summarize_ab(runs["base"], runs["change"], cpu["base"],
                           cpu["change"])
    if not summary:
        print("no benchmark ran on both sides (bad --filter?)",
              file=sys.stderr)
        return 2
    print_ab(summary)
    return 0


def print_ab(summary: dict) -> None:
    width = max(map(len, summary))
    print(f"{'row':{width}}  median     min     max  wins"
          f"   base items/s  change items/s      cpu")
    for name, row in sorted(summary.items()):
        cpu = "-" if row["cpu"] is None else f"{row['cpu']:.3f}x"
        print(f"{name:{width}}  {row['median']:6.3f}x {row['min']:6.3f}x "
              f"{row['max']:6.3f}x  {row['wins']}/{row['pairs']}"
              f"  {row['base']:>13,.0f}  {row['change']:>14,.0f}"
              f"  {cpu:>7}")


def self_test() -> int:
    """Exercise compare()'s decision paths without the benchmark binary."""
    fresh = {"BM_A": 100.0, "BM_New": 5.0}
    failures = []

    def check(name: str, got: int, want: int) -> None:
        status = "ok" if got == want else f"FAIL (exit {got}, want {want})"
        print(f"self-test: {name}: {status}")
        if got != want:
            failures.append(name)

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = pathlib.Path(tmp)

        check("missing baseline file exits 2",
              compare(fresh, tmpdir / "absent.json", 0.10), 2)

        malformed = tmpdir / "malformed.json"
        malformed.write_text("{not json")
        check("malformed baseline exits 2", compare(fresh, malformed, 0.10), 2)

        wrong_shape = tmpdir / "wrong_shape.json"
        wrong_shape.write_text(json.dumps({"benchmarks": []}))
        check("baseline without items_per_second exits 2",
              compare(fresh, wrong_shape, 0.10), 2)

        partial = tmpdir / "partial.json"
        partial.write_text(json.dumps({"items_per_second": {"BM_A": 99.0}}))
        check("benchmark absent from baseline is skipped, exit 0",
              compare(fresh, partial, 0.10), 0)

        regressed = tmpdir / "regressed.json"
        regressed.write_text(json.dumps({"items_per_second": {"BM_A": 200.0}}))
        check("regression beyond tolerance exits 1",
              compare(fresh, regressed, 0.10), 1)

        check("warn-only reports the regression but exits 0",
              compare(fresh, regressed, 0.10, warn_only=True), 0)

        check("warn-only still exits 2 on a missing baseline",
              compare(fresh, tmpdir / "absent.json", 0.10, warn_only=True), 2)

        within = tmpdir / "within.json"
        within.write_text(json.dumps({"items_per_second": {"BM_A": 105.0}}))
        check("slowdown within tolerance exits 0",
              compare(fresh, within, 0.10), 0)

    def expect(name: str, ok: bool) -> None:
        print(f"self-test: {name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    expect("ab pairs alternate which side runs first",
           ab_schedule(3) == [(0, "base"), (0, "change"),
                              (1, "change"), (1, "base"),
                              (2, "base"), (2, "change")])
    summary = summarize_ab(
        [{"BM_A": 100.0, "BM_Gone": 1.0}, {"BM_A": 100.0},
         {"BM_A": 200.0}],
        [{"BM_A": 150.0, "BM_New": 3.0}, {"BM_A": 90.0},
         {"BM_A": 240.0}])
    expect("ab ratios are change over baseline, per pair",
           summary.get("BM_A") == {"median": 1.2, "min": 0.9, "max": 1.5,
                                   "wins": 2, "pairs": 3, "base": 100.0,
                                   "change": 150.0, "cpu": None})
    expect("ab leaves out rows missing on either side",
           set(summary) == {"BM_A"})
    cpu_summary = summarize_ab(
        [{"BM_A": 100.0, "BM_B": 1.0}, {"BM_A": 100.0, "BM_B": 1.0},
         {"BM_A": 100.0, "BM_B": 1.0}],
        [{"BM_A": 100.0, "BM_B": 1.0}, {"BM_A": 100.0, "BM_B": 1.0},
         {"BM_A": 100.0, "BM_B": 1.0}],
        [{"BM_A": 300.0}, {"BM_A": 100.0}, {}],
        [{"BM_A": 200.0}, {"BM_A": 125.0}, {"BM_A": 50.0}])
    expect("ab cpu ratio is the median of baseline over change cpu/access",
           cpu_summary["BM_A"]["cpu"] == statistics.median([1.5, 0.8]))
    expect("ab cpu ratio is None for rows that report no cpu counter",
           cpu_summary["BM_B"]["cpu"] is None)
    raw = {"benchmarks": [
        {"name": "BM_A", "label": "x", "run_type": "iteration",
         "items_per_second": 10.0, "cpu_ns_per_access": 42.0},
        {"name": "BM_B", "run_type": "iteration", "items_per_second": 5.0},
        {"name": "BM_A_mean", "run_type": "aggregate",
         "cpu_ns_per_access": 1.0}]}
    expect("cpu snapshot keys rows like the items/s snapshot",
           cpu_snapshot(raw) == {"BM_A[x]": 42.0}
           and set(snapshot(raw)) == {"BM_A[x]", "BM_B"})
    with tempfile.TemporaryDirectory() as tmp:
        expect("ab exits 2 on a missing baseline binary",
               run_ab(pathlib.Path(tmp) / "absent",
                      pathlib.Path(tmp) / "absent", 1, None, None) == 2)

    if failures:
        print(f"self-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", type=pathlib.Path, default=DEFAULT_BINARY,
                        help="micro_benchmarks binary (default: %(default)s)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="snapshot to write (default: %(default)s)")
    parser.add_argument("--filter", default=None,
                        help="google-benchmark regexp filter")
    parser.add_argument("--min-time", default=None,
                        help="forwarded as --benchmark_min_time "
                             "(e.g. '1x' for a smoke pass)")
    parser.add_argument("--compare", type=pathlib.Path, default=None,
                        help="compare against this snapshot instead of "
                             "writing one")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown before --compare "
                             "fails (default: %(default)s)")
    parser.add_argument("--warn-only", action="store_true",
                        help="with --compare: report regressions but exit 0 "
                             "(shared-runner legs where timings inform, "
                             "not block)")
    parser.add_argument("--ab", type=pathlib.Path, default=None,
                        metavar="BASELINE_BINARY",
                        help="interleaved A/B against this baseline build "
                             "of micro_benchmarks; prints per-row ratios, "
                             "writes nothing")
    parser.add_argument("--pairs", type=int, default=10,
                        help="with --ab: interleaved pairs to run "
                             "(default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the script's own compare-logic checks "
                             "and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not args.binary.exists():
        print(f"benchmark binary not found: {args.binary}\n"
              f"build it first: cmake -B build -S . && "
              f"cmake --build build -j", file=sys.stderr)
        return 2

    if args.ab is not None:
        if args.pairs < 1:
            print("--pairs must be at least 1", file=sys.stderr)
            return 2
        return run_ab(args.binary, args.ab, args.pairs, args.filter,
                      args.min_time)

    raw = run_benchmarks(args.binary, args.filter, args.min_time)
    fresh = snapshot(raw)
    if not fresh:
        print("no benchmarks ran (bad --filter?)", file=sys.stderr)
        return 2

    if args.compare is not None:
        return compare(fresh, args.compare, args.tolerance, args.warn_only)

    payload = {
        "context": {
            "host": raw.get("context", {}).get("host_name", "unknown"),
            "num_cpus": raw.get("context", {}).get("num_cpus"),
            "cpu_mhz": raw.get("context", {}).get("mhz_per_cpu"),
            "library_build_type":
                raw.get("context", {}).get("library_build_type"),
            "cmake_build_type": cmake_build_type(args.binary),
            "git_sha": git_sha(),
            "date": raw.get("context", {}).get("date"),
        },
        "items_per_second": fresh,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(fresh)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
