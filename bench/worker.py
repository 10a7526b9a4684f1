"""Benchmark worker: one fresh process, one client, a closed request loop.

Started by ``run.py`` from the checkout root as ``python bench/worker.py JOB``.
It imports ``classops.cli`` from ``src``, writes ``ready`` to stdout (the
parent times set-up up to that line), then sends the requests of JOB one
after another, each only after the previous one returned, and writes
``result.json`` next to JOB.

Every request starts with the program's ``functools`` caches cleared, as a new
CLI process would, so cold-cache costs stay inside the timed requests.
Checks run between requests, outside the timed region.
"""

import sys

sys.path.insert(0, "src")
import classops.cli  # noqa: E402  (set-up ends when this import returns)

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

# A run stops starting requests after this many seconds, whatever --seconds
# says, so that a run ends within its 180-second limit even on a slow program.
HARD_STOP_S = 140.0
# The speed of a shared machine changes by up to 2x within seconds.  Between
# requests, at least every CALIBRATE_EVERY_S, the worker times a fixed kernel
# for CALIBRATION_S; run.py converts request times to reference seconds with
# the kernel rates measured just before and just after each request.
CALIBRATE_EVERY_S = 0.4
CALIBRATION_S = 0.02
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def kernel() -> None:
    """Fixed reference work: a Python loop and a small symmetric eigenproblem,
    the two kinds of work the program spends its time on."""
    x = 0
    for k in range(3000):
        x += k
    np.linalg.eigh(_KERNEL_MATRIX + _KERNEL_MATRIX.T)


class Calibration:
    """Rates of the reference kernel (runs per second), sampled between requests."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, rate)

    def sample(self) -> None:
        start = time.perf_counter()
        runs = 0
        while time.perf_counter() - start < CALIBRATION_S:
            kernel()
            runs += 1
        self.samples.append((start, runs / (time.perf_counter() - start)))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.sample()


def _cache_clearers() -> list:
    clearers = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "classops" or name.startswith("classops.")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clearers.append(clear)
    return clearers


def run_cli(request: dict, out_path: Path):
    argv = list(request["argv"])
    if argv[0] == "export-tables":
        argv += ["--output", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = classops.cli.main(argv)
    except SystemExit as exc:
        status = f"SystemExit({exc.code})"
    except Exception as exc:  # the request failed; the loop goes on
        status = type(exc).__name__
    elapsed = time.perf_counter() - start
    text = stdout.getvalue()
    if argv[0] == "export-tables" and status == 0:
        text = out_path.read_text(encoding="utf-8")
    if status == 0 or status == 1:
        passed, problems = checks.judge_cli(request, status, text)
    else:
        passed, problems = False, []
        text = stderr.getvalue()
    return elapsed, status, passed, problems, text


def run_library(request: dict):
    """The SU(2) identities of acceptance criterion 6, called as it calls them."""
    coupling, su2 = classops.coupling, classops.su2
    sigma2 = request["sigma2"]
    samples = None
    if request["call"] == "product_expansion":
        samples = su2.haar_random(np.random.default_rng(request["haar_seed"]), request["samples"])
    start = time.perf_counter()
    try:
        table = coupling.su2_coupling_table(sigma2)
        if samples is not None:
            residual = coupling.product_expansion_residual_su2(table, samples)
        else:
            alpha2 = request["alpha2"]
            band = (alpha2 + 2 * sigma2) // 2 + 2
            angles, weights = su2.su2_haar_quadrature(2 * band + 3, band + 2, 4 * band + 6)
            residual = coupling.triple_product_residual_su2(table, alpha2, angles, weights)
        status = 0
    except Exception as exc:  # the request failed; the loop goes on
        residual, status = float("nan"), type(exc).__name__
    elapsed = time.perf_counter() - start
    passed, problems = checks.judge_identity(residual) if status == 0 else (False, [])
    return elapsed, status, passed, problems, repr(residual)


def run_request(request: dict, out_path: Path, clearers: list) -> dict:
    for clear in clearers:
        clear()
    runner = run_cli if request["kind"] == "cli" else run_library
    args = (request, out_path) if request["kind"] == "cli" else (request,)
    start = time.perf_counter()
    elapsed, status, passed, problems, text = runner(*args)
    return {
        "id": request["id"],
        "start": start,
        "seconds": elapsed,
        "status": status if isinstance(status, str) else int(status),
        "passed": passed,
        "problems": problems,
        "digest": hashlib.sha256(f"{status}\n{text}".encode()).hexdigest(),
    }


def run_passes(requests, seconds, min_passes, out_path, clearers, started, calibration,
               tracer=None) -> list:
    """Whole passes over the list: at least ``min_passes``, then as many more as
    fit in ``seconds`` at the pace of the passes so far."""
    passes = []
    begin = time.perf_counter()
    while True:
        results = []
        for request in requests:
            if time.perf_counter() - started > HARD_STOP_S:
                break
            if tracer is not None:
                tracer.request = request["id"]
            calibration.sample_if_due()
            results.append(run_request(request, out_path, clearers))
        calibration.sample()
        passes.append(results)
        elapsed = time.perf_counter() - begin
        if time.perf_counter() - started > HARD_STOP_S:
            break
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes


def blas_threads():
    """OpenBLAS thread count as the library reports it, or None."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(job_path: str) -> None:
    started = time.perf_counter()
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    job_dir = Path(job_path).parent
    out_path = job_dir / "export.json"
    clearers = _cache_clearers()
    requests = job["requests"]
    seconds = job["seconds"]
    result = {"classops_file": classops.cli.__file__, "env": environment()}

    tracer = None
    calibration = Calibration()
    loop = (out_path, clearers, started, calibration)
    if job["trace"]:
        untraced = run_passes(requests, seconds / 2, 1, *loop)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_passes(requests, seconds / 2, 1, *loop, tracer)
        result["passes"] = untraced + traced
        result["traced_from"] = len(untraced)
    else:
        result["passes"] = run_passes(requests, seconds, 2, *loop)
        result["traced_from"] = None
    result["calibration"] = calibration.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["probe"] = []
    for request in job["probe"]:
        if tracer is not None:
            tracer.request = request["id"]
        result["probe"].append(run_request(request, out_path, clearers))
    if tracer is not None:
        result["trace"] = {
            "stats": tracer.summary(),
            "errors": tracer.errors,
            "absent": tracer.absent,
            "regular_bytes": tracer.regular_bytes,
            "spans": len(tracer.spans),
        }
        tracer.write(job["spans_path"])
    (job_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
