"""classops benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload finite-classops --seed 1 --seconds 15 --trace 0

It generates the seeded request list of the workload, measures set-up time on
fresh interpreters, runs the list in a fresh worker process (``worker.py``),
checks every output, and prints one line per metric followed by a final JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into an
untraced and a traced half and the metrics are the per-layer ones.  The exit
status is 0 when every output is right, 1 when one is wrong and 2 when the
run could not be made.  ``--print-requests`` prints the generated inputs and
exits.  See README.md for the metrics, workloads and predictions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_PROBES = 5            # extra interpreters started only to time set-up
WORKER_TIMEOUT_S = 170.0    # the whole run must end within 180 s
TMP_DIR = Path(".bench_tmp")
STATE_DIR = Path(".bench_state")
OUT_DIR = Path(".bench_out")
IMPORT_CODE = (
    "import sys; sys.path.insert(0, 'src'); import classops.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Request times are reported in reference seconds: wall seconds scaled to a
# machine that runs worker.kernel() this many times per second.
REFERENCE_RATE = 3000.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/ref_s",
    "report_s.p50": "ref_s",
    "report_s.p90": "ref_s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict:
    """Environment of the interpreters the benchmark starts: classops from src
    only, and single-threaded BLAS (faster on these small matrices than two
    threads on two cores)."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("CLASSOPS_OUTPUT_DIR", None)
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def spawn_until_ready(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a fresh interpreter; return it and the seconds until it said ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env())
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"interpreter did not import classops.cli from src:\n{err[-2000:]}")
    return proc, elapsed


def run_key(inputs) -> str:
    """Names the program source together with the exact inputs of a run."""
    h = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rate(results: list[dict], key: str = "ref_seconds") -> float:
    busy = sum(r[key] for r in results)
    return sum(r["passed"] for r in results) / busy if busy > 0 else 0.0


def add_reference_seconds(result: dict) -> None:
    """Convert each timed request's wall time to reference seconds.

    A request's wall time is scaled by the reference kernel's rate around it
    (mean of the samples just before and just after) over REFERENCE_RATE, so
    the result reads as the time on a machine that runs the kernel
    REFERENCE_RATE times per second.
    """
    samples = result["calibration"]
    starts = [t for t, _ in samples]
    for r in (r for p in result["passes"] for r in p):
        i = bisect.bisect_right(starts, r["start"])
        before = samples[max(i - 1, 0)][1]
        after = samples[min(i, len(samples) - 1)][1]
        r["ref_seconds"] = r["seconds"] * (before + after) / 2 / REFERENCE_RATE


def digest_problems(result: dict, state_file: Path) -> list[str]:
    """Reports of the same request must be byte-identical across passes and runs."""
    problems = []
    seen: dict[str, str] = {}
    for r in [r for p in result["passes"] for r in p] + result["probe"]:
        if seen.setdefault(r["id"], r["digest"]) != r["digest"]:
            problems.append(f"{r['id']}: report differs between passes")
    if state_file.exists():
        before = json.loads(state_file.read_text(encoding="utf-8"))
        for rid, digest in seen.items():
            if rid in before and before[rid] != digest:
                problems.append(f"{rid}: report differs from an earlier run of this source")
    else:
        state_file.parent.mkdir(parents=True, exist_ok=True)
        state_file.write_text(json.dumps(seen, sort_keys=True, indent=0), encoding="utf-8")
    return problems


def mean_times(passes: list[list[dict]], key: str) -> list[float]:
    """Mean time of each passing request of the list over its repeats."""
    times: dict[str, list[float]] = {}
    for r in (r for p in passes for r in p if r["passed"]):
        times.setdefault(r["id"], []).append(r[key])
    return [sum(t) / len(t) for t in times.values()]


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    timed = [r for p in result["passes"] for r in p]
    passing = mean_times(result["passes"], "ref_seconds")
    wall = mean_times(result["passes"], "seconds")
    repeats = f"mean of {len(result['passes'])} repeats"
    values = {
        "setup_s": statistics.median(setup_times),
        "reports_per_s": rate(timed),
        "report_s.p50": quantile(passing, 50) if passing else 0.0,
        "report_s.p90": quantile(passing, 90) if passing else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_share": sum(r["passed"] for r in timed) / len(timed),
    }
    beyond = len(passing) - int(0.9 * len(passing))
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters, wall time",
        "reports_per_s": f"{sum(r['passed'] for r in timed)} passing of {len(timed)}; "
        f"wall {rate(timed, 'seconds'):.6g} 1/s",
        "report_s.p50": f"n={len(passing)} passing requests, {repeats}; "
        f"wall {quantile(wall, 50) if wall else 0.0:.6g} s",
        "report_s.p90": f"n={len(passing)}, {beyond} beyond; "
        f"wall {quantile(wall, 90) if wall else 0.0:.6g} s"
        + ("" if beyond >= 10 else " (fewer than 10: not a reliable p90)"),
        "peak_rss_mb": "getrusage of the worker",
        "pass_share": f"{sum(not r['passed'] for r in timed)} of {len(timed)} failed",
    }
    kernel = statistics.median(rate for _, rate in result["calibration"])
    lines = [f"reference kernel: median {kernel:.6g} runs/s over "
             f"{len(result['calibration'])} samples; reference {REFERENCE_RATE} runs/s"]
    lines += [f"{k} = {v:.6g} {END_TO_END_UNITS[k]}  ({notes[k]})" for k, v in values.items()]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, lines


def per_layer(result: dict, requests: list[dict], probe: list[dict]) -> tuple[dict, list[str]]:
    trace = result["trace"]
    k = result["traced_from"]
    untraced = [r for p in result["passes"][:k] for r in p]
    traced = [r for p in result["passes"][k:] for r in p]
    finite = {q["id"] for q in requests + probe if q["finite"]}
    finite_requests = sum(r["id"] in finite for r in traced + result["probe"])
    values: dict[str, tuple[float, str]] = {}
    for name, s in trace["stats"].items():
        values[f"{name}.calls"] = (s["calls"], "count")
        values[f"{name}.total_s"] = (s["total_s"], "s")
        values[f"{name}.self_s"] = (s["self_s"], "s")
    for layer, count in trace["errors"].items():
        values[f"{layer}.errors"] = (count, "count")
    table_calls = trace["stats"]["representations.character_table"]["calls"]
    values["representations.character_table.per_group"] = (
        table_calls / finite_requests if finite_requests else 0.0, "calls/group")
    values["representations.regular_representation.bytes"] = (trace["regular_bytes"], "B-computed")
    untraced_rate, traced_rate = rate(untraced), rate(traced)
    values["trace_overhead_share"] = (
        1.0 - traced_rate / untraced_rate if untraced_rate > 0 else 0.0, "share")
    values["probe.failed"] = (sum(not r["passed"] for r in result["probe"]), "count")

    busy = sum(r["seconds"] for r in traced + result["probe"])
    lines = [f"traced {len(traced)} requests + {len(result['probe'])} probe requests, "
             f"{busy:.3f} s, {trace['spans']} spans"]
    if trace["absent"]:
        lines.append("absent (reported as 0): " + ", ".join(trace["absent"]))
    layers: dict[str, float] = {}
    for name, s in trace["stats"].items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + s["self_s"]
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"layer {layer:16s} self {self_s:9.3f} s  {self_s / busy:6.1%}")
    top = sorted(trace["stats"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, s in top:
        lines.append(f"  {name:48s} self {s['self_s']:9.3f} s  {s['self_s'] / busy:6.1%}"
                     f"  calls {s['calls']}")
    lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in values.items() if v]
    return values, lines


def run(args, started: float) -> int:
    if not Path("src/classops/cli.py").is_file():
        raise BenchError("no src/classops/cli.py here: run from the root of a classops checkout")
    sys.path.insert(0, str(Path("src").resolve()))
    job_dir = TMP_DIR / f"{args.workload}-s{args.seed}"
    requests, documents = workloads.generate(args.workload, args.seed, str(job_dir))
    probe = workloads.probe(args.workload)
    if args.print_requests:
        print(json.dumps({"workload": args.workload, "why": workloads.WHY[args.workload],
                          "seed": args.seed, "requests": requests, "documents": documents,
                          "probe": probe}, indent=1, sort_keys=True))
        return 0

    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    try:
        for name, doc in documents.items():
            (job_dir / name).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
        job = {"requests": requests, "probe": probe, "seconds": args.seconds,
               "trace": bool(args.trace), "spans_path": str(spans_path)}
        (job_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")

        setup_times = []
        for _ in range(SETUP_PROBES):
            proc, elapsed = spawn_until_ready([sys.executable, "-c", IMPORT_CODE])
            proc.communicate()
            setup_times.append(elapsed)
        worker, elapsed = spawn_until_ready(
            [sys.executable, str(Path(__file__).parent / "worker.py"), str(job_dir / "job.json")])
        setup_times.append(elapsed)
        try:
            _, err = worker.communicate(timeout=WORKER_TIMEOUT_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish in time") from None
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.communicate()
        if worker.returncode != 0:
            raise BenchError(f"worker exited with {worker.returncode}:\n{err[-4000:]}")
        result = json.loads((job_dir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    if not Path(result["classops_file"]).resolve().is_relative_to(Path("src").resolve()):
        raise BenchError(f"worker imported classops from {result['classops_file']}, not src")
    print("env " + json.dumps(result["env"], sort_keys=True))
    problems = []
    for r in [r for p in result["passes"] for r in p] + result["probe"]:
        problems += [f"WRONG {r['id']}: {p}" for p in r["problems"]]
    key = run_key([requests, probe, documents])
    state = STATE_DIR / f"digests-{args.workload}-s{args.seed}-{key}.json"
    problems += [f"WRONG {p}" for p in digest_problems(result, state)]
    probe_argv = {q["id"]: " ".join(q["argv"]) for q in probe}
    for r in result["probe"]:
        print(f"probe {probe_argv[r['id']]} -> {'pass' if r['passed'] else 'FAIL'}"
              f" (status {r['status']})")
    for p in result["passes"]:
        for r in p:
            if not r["passed"]:
                print(f"failed {r['id']} (status {r['status']})")

    add_reference_seconds(result)
    if args.trace:
        values, lines = per_layer(result, requests, probe)
    else:
        values, lines = end_to_end(result, setup_times)
    for line in lines + problems:
        print(line)
    timed = [r for p in result["passes"] for r in p]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(timed),
        "failed": sum(not r["passed"] for r in timed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0 if not problems else 1


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--print-requests", action="store_true",
                        help="print the generated request list and exit")
    args = parser.parse_args()
    try:
        return run(args, started)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
