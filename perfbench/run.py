#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload,
check its outputs and print its metrics.

    python3 perfbench/run.py --workload cip_train|serve_open|wire_mixed \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test   # unit tests of the arithmetic

Run from the repository root. The first run configures and builds a Release
tree under .bench_build/. The program runs at its default thread budget
(CIP_* overrides are cleared). With --trace 0 the result carries the
end-to-end metrics of an untraced run; with --trace 1 the same workload also
runs traced and the result carries the per-layer metrics, plus the tracing
overhead in the report. The last line of stdout is the result as one JSON
object; everything before it is the human-readable report. A run whose
output checks fail, or that the workload marks invalid, exits non-zero and
reports no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cip_train", "serve_open", "wire_mixed")
RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 1) -> None:
    """Print why and exit; never returns."""
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_definitions() -> tuple[dict, dict]:
    """BENCHMARK.json (names, units, bounds) and metrics.json (per-workload
    definitions); they must name the same metrics."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        defs = json.loads((HERE / "metrics.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read the metric definitions: {e}", 2)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    if set(e2e) != set(defs["end_to_end"]) or set(layer) != set(
            defs["per_layer"]):
        fail("BENCHMARK.json and perfbench/metrics.json name different "
             "metrics", 2)
    return bench, defs


def build(target: str) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail("the benchmark build is not a Release build; refusing to "
             "report", 3)
    return BUILD / target


def source_hash() -> str:
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_program(binary: pathlib.Path, args: argparse.Namespace,
                deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIP_")}
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("the workload did not finish in time")
    if proc.returncode != 0:
        fail(f"the workload exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("the workload printed no report")
    return json.loads(lines[-1])


def fmt(v: float) -> str:
    return f"{v:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bench, defs = load_definitions()
    binary = build("perfbench")
    rep = run_program(binary, args, time.time() + RUN_TIMEOUT_S)
    w = args.workload

    prov = dict(rep["provenance"], source_hash=source_hash())
    print(f"== perfbench {w} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    attempted, failed = rep["attempted"], rep["failed"]
    print(f"operations: attempted {attempted}, succeeded {rep['succeeded']}, "
          f"failed {failed}, error_rate "
          f"{fmt(failed / attempted if attempted else 0.0)}")

    named = {v["name"]: v for v in rep["named"]}
    print("named end-to-end metrics (untraced):")
    for v in rep["named"]:
        print(f"  {v['name']:<22} {fmt(v['value']):>12} {v['unit']:<6} "
              f"{v['better']:<6} n={v['samples']}")
    if rep["traced_named"]:
        print("tracing overhead (traced vs untraced):")
        for v in rep["traced_named"]:
            base = named[v["name"]]["value"]
            share = (v["value"] - base) / base if base else 0.0
            print(f"  {v['name']:<22} {fmt(v['value']):>12} {v['unit']:<6} "
                  f"{100 * share:+.1f}%")
    for note in rep["notes"]:
        print(f"note: {note}")

    problems = ([f"CHECK FAILED: {why}" for why in rep["check_failures"]] +
                [f"INVALID RUN: {why}" for why in rep["invalid_reasons"]])
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    metrics = {}
    if args.trace == 0:
        gated = {v["name"]: v for v in rep["gated"]}
        if set(gated) != {m["name"] for m in bench["end_to_end"]}:
            fail(f"{w} gated {sorted(gated)}, BENCHMARK.json names "
                 f"{sorted(m['name'] for m in bench['end_to_end'])}")
        print("end-to-end metrics:")
        for m in bench["end_to_end"]:
            v = gated[m["name"]]
            metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
            print(f"  {m['name']:<18} {fmt(v['value']):>12} {m['unit']:<4} "
                  f"{m['better']:<6} n={v['samples']} = {v['from']}")
    else:
        layer = {v["name"]: v for v in rep["layer"]}
        print("per-layer metrics:")
        for m in bench["per_layer"]:
            if m["name"] in layer:
                v = layer[m["name"]]
                value, n = v["value"], v["samples"]
            elif w in defs["per_layer"][m["name"]]["on"]:
                fail(f"{w} did not report per-layer metric {m['name']}")
            else:
                value, n = 0.0, 0  # the layer does no work in this workload
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<32} {fmt(value):>12} {m['unit']:<6} "
                  f"{m['better']:<6} n={n}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
