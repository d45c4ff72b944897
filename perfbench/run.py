"""Benchmark of the wavemark command line, driven in-process.

    python3 perfbench/run.py --workload roundtrip-1024 --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process, one closed-loop client: each
``wavemark.cli.main(argv)`` call starts when the previous one and its
output checks are done.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result as one JSON object; the lines before it list
every metric with its unit, then an ``info`` object (environment, sample
counts, per-command latencies, output fingerprints, errors).
``--smoke`` runs the workload at 64x64 in a few seconds.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("roundtrip-1024", "bench-512", "ascii-256")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # confirm a gain here after developing it on DEFAULT_SEED
MIN_ITERS = 50  # so the p80 has at least ten samples beyond it
SETUP_REPEATS = 3
HARD_CAP_S = 150.0
MARK_SHAPE = (15, 64)
SMOKE = {"size": 64, "mark": (4, 16), "min_iters": 3}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="64x64 inputs, three iterations")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 40:
        p.error("--seed must lie in [0, 2**40)")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def import_program():
    """Import wavemark from this checkout's src/; exit 1 if it has none."""
    src = ROOT / "src"
    if not (src / "wavemark" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wavemark sources under {src}")
    sys.path.insert(0, str(src))
    import wavemark.cli

    if Path(wavemark.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: imported wavemark from {wavemark.cli.__file__}, not {src}")
    return wavemark.cli


def environment(seed, nproc):
    import numpy

    model, caches = "unknown", []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "blas_threads": os.environ[BLAS_THREAD_VARS[0]], "cpu_model": model,
            "caches": caches, "cpu_pinning": "none", "seed": seed,
            "holdout_seed": HOLDOUT_SEED}


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    cli = import_program()
    import tracer
    import workloads

    import_s = time.perf_counter() - _START
    size, mark, min_iters = (SMOKE["size"], SMOKE["mark"], SMOKE["min_iters"]) if args.smoke \
        else (0, MARK_SHAPE, MIN_ITERS)
    session = workloads.Session(cli, quality_iters=min_iters)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # set-up, repeated: inputs written afresh, then one untimed warm-up
        setup_s = []
        for rep in range(SETUP_REPEATS):
            os.chdir(work)
            shutil.rmtree(work / "inputs", ignore_errors=True)
            (work / "inputs").mkdir()
            os.chdir(work / "inputs")
            start = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](session, args.seed, size, mark)
            wl.prepare()
            session.begin_iteration(-1)
            wl.iterate(-1)
            setup_s.append(time.perf_counter() - start)

        trc = tracer.Tracer() if args.trace else None
        cycle = len(wl.hosts)
        session.recording = True
        start = time.perf_counter()
        deadline, cap = start + args.seconds, start + HARD_CAP_S
        i = 0
        while time.perf_counter() < cap:
            if time.perf_counter() >= deadline and (
                    i >= 2 * cycle if args.trace else len(session.iter_ms) >= min_iters):
                break
            # a traced run alternates whole host cycles untraced and traced
            traced = trc is not None and (i // cycle) % 2 == 1
            if traced and session.tracer is None:
                trc.install()
                session.tracer = trc
            elif not traced and session.tracer is not None:
                trc.uninstall()
                session.tracer = None
            session.begin_iteration(i)
            wl.iterate(i)
            session.end_iteration()
            i += 1
        if trc is not None:
            trc.uninstall()
            session.tracer = None
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    def rate(traced):
        return session.mpx[traced] / session.seconds[traced] if session.seconds[traced] else 0.0

    if args.trace:
        metrics = trc.metrics(rate(False), rate(True))
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        trc.write_spans(spans_path)
    else:
        mean_ber = statistics.fmean(session.ber) if session.ber else 100.0
        metrics = {
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "iter_ms_p80": (percentile(session.iter_ms, 80), "ms"),
            "mpix_per_s": (rate(False), "Mpx/s"),
            "psnr_db": (statistics.fmean(session.psnr) if session.psnr else 0.0, "dB"),
            "bit_accuracy_percent": (100.0 - mean_ber, "%"),
            "ok_ratio": ((session.attempted - session.failed) / max(session.attempted, 1), "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    info = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed, nproc),
        "iterations": i,
        "iteration_ms": {"n": len(session.iter_ms), "p50": percentile(session.iter_ms, 50),
                         "p80": percentile(session.iter_ms, 80)},
        "quality_iterations": min_iters,
        "setup_s": {"import": import_s, "repeats": setup_s},
        "command_ms": {kind: {"n": len(v), "p50": percentile(v, 50), "p80": percentile(v, 80)}
                       for kind, v in session.call_ms.items()},
        "fingerprints_sha256": session.fingerprints,
        "errors": session.errors,
    }
    if args.trace:
        info["spans"] = str(spans_path.relative_to(ROOT))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(json.dumps({"info": info}))
    correct = session.failed == 0 and session.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": session.attempted, "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
