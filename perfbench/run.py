#!/usr/bin/env python3
"""End-to-end benchmark runner for libtamper.

Run from the repository root:

    python3 perfbench/run.py --workload pcap_report --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles libtamper from src/) into .bench_build/,
runs one workload of the tamperbench binary, and prints three JSON lines on
stdout: the provenance of the run, the workload's input facts, and last the
result ({"correct", "attempted", "failed", "metrics"}), its metrics checked
against the catalog in BENCHMARK.json. Build output and check failures go
to stderr. Exits non-zero when the build fails, an output check fails, a
metric is missing, or the sources are missing.

Workloads: pcap_report, service_stream, fleet_merge (see perfbench/LAYERS.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tamperbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("pcap_report", "service_stream", "fleet_merge")
# Per-layer metrics a workload never calls into, by name prefix. A traced run
# prints them as 0; any other metric BENCHMARK.json names must be measured.
UNEXERCISED = {
    "pcap_report": ("service.", "fleet."),
    "service_stream": ("net.", "capture.", "fleet."),
    "fleet_merge": ("net.", "capture.", "service.", "analysis.trends_us_per_call"),
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no libtamper sources under {ROOT}/src; nothing to benchmark")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "tamperbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout
        return out.splitlines()[0] if out else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(state_dir):
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "state_dir_fs": first_line(["stat", "-f", "-c", "%T", state_dir]),
    }


def check_metrics(result, spec, workload, trace):
    """Holds the workload's metrics to the catalog in BENCHMARK.json: every
    metric it names is printed with its unit and no other. Zero-fills only
    the layers the workload does not exercise. Each catalog entry counts as
    one attempted check; a missing, unknown or mis-unit metric fails."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    metrics, problems = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                problems.append(f"{name} has unit {measured[name]['unit']}, expected {unit}")
            metrics[name] = measured[name]
        elif trace and name.startswith(UNEXERCISED[workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"{name} was not measured")
    problems += [f"{name} is not in BENCHMARK.json" for name in measured
                 if name not in metrics]
    for problem in problems:
        log(f"{workload}: {problem}")
    result["metrics"] = metrics
    result["attempted"] += len(wanted)
    result["failed"] += len(problems)
    result["correct"] = result["correct"] and not problems
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (the benchmark's test uses < 1)")
    parser.add_argument("--corrupt", default="none",
                        choices=("none", "drop-frame", "flip-partial"),
                        help="inject a fault the output checks must catch")
    args = parser.parse_args()

    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read the metric catalog: {e}")
        return 1
    if not build():
        return 1
    state_dir = os.path.join(ROOT, ".bench_build", "state", f"{args.workload}-{os.getpid()}")
    os.makedirs(state_dir, exist_ok=True)
    try:
        print(json.dumps({"provenance": provenance(state_dir)}), flush=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state-dir", state_dir, "--scale", str(args.scale),
               "--corrupt", args.corrupt]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
            return 1
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
            log(f"{args.workload} printed no result (exit code {proc.returncode})")
            return 1
        for line in lines[:-1]:
            print(line)
        result = check_metrics(result, spec, args.workload, args.trace)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] and proc.returncode == 0 else 1
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
