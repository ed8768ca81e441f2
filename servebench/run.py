#!/usr/bin/env python3
"""Served-path benchmark: builds pfp_server and the servebench client from
source, runs one workload, prints one JSON result line.

    python3 servebench/run.py --workload cad-batch --seed 1 --seconds 10 --trace 0

--trace 0 runs the end-to-end mode (pfp_server in its own process, closed
loop over PFP1); --trace 1 runs the traced per-layer mode in process and
writes a Chrome trace_event span file.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root; results and span files go
to its results/ directory.  See servebench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "servebench", "pfp_server_bin"])
    for cmd in steps:
        if run_logged(cmd, log_path, BUILD_TIMEOUT_S) != 0:
            tail = log_path.read_text(errors="replace").splitlines()[-25:]
            log("servebench: build failed:\n" + "\n".join(tail))
            if not (build_dir / "servebench").exists():
                # A failed configure leaves a cache that would skip it next time.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    return True


def cpu_sets():
    """Client and server CPU sets, disjoint when there are at least 2 CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def cache_value(build_dir, key):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return "unknown"


def source_digest():
    """sha256 over the program's sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_context(build_dir, client, server):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha or "unavailable",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "pfp_obs": cache_value(build_dir, "PFP_OBS"),
        "pmu": "present" if Path("/sys/bus/event_source/devices/cpu").exists()
               else "absent (software events only)",
        "client_cpus": client,
        "server_cpus": server,
    }


def run_bench(cmd):
    """Runs the client in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("servebench: run timed out")
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("servebench: unparseable result line: " + lines[-1])
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cad-batch", "sitar-frames", "snake-ship"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 1
    client, server = cpu_sets()
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(build_dir / "servebench"),
           "--mode", "traced" if args.trace else "drive",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--server", str(build_dir / "pfp" / "tools" / "pfp_server"),
           "--client-cpus", ",".join(map(str, client)),
           "--server-cpus", ",".join(map(str, server))]
    if args.trace:
        cmd += ["--trace-out", str(results / f"spans-{stem}.json")]
    result = run_bench(cmd)
    if result is None:
        return 1

    context = host_context(build_dir, client, server)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": context, **result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("host " + json.dumps(context))
    print("info " + json.dumps(result.get("info", {})))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
