"""The benchmark's workloads and the in-process CLI session that runs them.

Every workload drives ``wavemark.cli.main(argv)`` in this process with its
output captured, one call at a time (one closed-loop client).  Inputs are
generated from the workload seed and written with the benchmark's own
Netpbm codec; every call's output is checked before the next one starts.
"""

import contextlib
import csv
import hashlib
import io
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs

BENCH_THRESHOLDS = "3,5,7,40,80"
BENCH_HEADER = ["host", "scenario", "param", "psnr_db", "pearson", "nc", "ber_percent"]
BENCH_SCENARIOS = ["clean"] + ["compress"] * 5 + ["crop"] * 2


def iteration_seed(seed: int, i: int) -> int:
    """Embed seed of iteration ``i``, new per iteration; set-up calls use
    ``-16 <= i < 0``."""
    return (seed << 20) + 16 + i


class Session:
    """Runs CLI calls in-process, times them, and counts failed ops.

    A failed op is a non-zero exit (or an exception escaping ``main``) or a
    failed output check; each op counts at most once and is never dropped.
    """

    def __init__(self, cli, quality_iters: int):
        self.cli = cli
        self.quality_iters = quality_iters
        self.tracer = None  # set while a traced iteration runs
        self.recording = False  # False during set-up
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.iteration = -1
        self.call_ms = defaultdict(list)  # subcommand -> ms of its untraced calls
        self.iter_ms = []  # untraced iterations
        self.mpx = {False: 0.0, True: 0.0}  # traced? -> host megapixels done
        self.seconds = {False: 0.0, True: 0.0}  # traced? -> timed seconds
        self.psnr = []
        self.ber = []
        self.fingerprints = {}
        self._iter_s = 0.0

    def call(self, argv: list, mpx: float):
        """One timed CLI call; returns its stdout, or None if it failed."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code
        except Exception as exc:  # a traceback is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        traced = self.tracer is not None
        if traced:
            self.tracer.end_op(1e3 * elapsed)
        if self.recording:
            self.seconds[traced] += elapsed
            self.mpx[traced] += mpx
            self._iter_s += elapsed
            if not traced:
                self.call_ms[argv[0]].append(1e3 * elapsed)
        if rc != 0:
            self.fail(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def begin_iteration(self, i: int) -> None:
        self.iteration = i
        self._iter_s = 0.0

    def end_iteration(self) -> None:
        if self.recording and self.tracer is None:
            self.iter_ms.append(1e3 * self._iter_s)

    def quality(self, psnr=None, ber=()) -> None:
        """Record fidelity for the first ``quality_iters`` iterations only, so
        ``psnr_db`` and the BER are a function of the seed, not of run length."""
        if self.recording and 0 <= self.iteration < self.quality_iters:
            if psnr is not None:
                self.psnr.append(psnr)
            self.ber.extend(ber)

    def fingerprint(self, name: str, data: bytes) -> None:
        self.fingerprints.setdefault(name, hashlib.sha256(data).hexdigest())


class Workload:
    """Base: seeded inputs in a work directory, one iteration at a time."""

    hosts: tuple = ()
    size = 0

    def __init__(self, session: Session, seed: int, size: int, mark_shape: tuple):
        self.s = session
        self.seed = seed
        self.size = size or self.size
        self.mpx = self.size * self.size / 1e6
        self.mark = inputs.mark_bits(*mark_shape, np.random.default_rng([seed, 0]))
        self.pixels = [inputs.host_pixels(kind, self.size, np.random.default_rng([seed, k + 1]))
                       for k, kind in enumerate(self.hosts)]

    def prepare(self) -> None:
        """Write the inputs into the current directory."""
        raise NotImplementedError

    def iterate(self, i: int) -> None:
        raise NotImplementedError

    def host(self, i: int) -> int:
        return i % len(self.hosts)

    # -- shared checks -----------------------------------------------------

    def embed(self, host_path, mark_path, k, i, out="marked.ppm", key="marked.key"):
        """Timed embed, then: the written PPM reads back, its PSNR against the
        host matches the one the CLI printed."""
        argv = ["embed", host_path, mark_path, out, key, "--seed", str(iteration_seed(self.seed, i))]
        stdout = self.s.call(argv, self.mpx)
        if stdout is None:
            return False
        data = Path(out).read_bytes()
        try:
            marked = inputs.decode_p6(data)
        except ValueError as exc:
            self.s.fail(f"embed: {out} does not read back: {exc}")
            return False
        if marked.shape != self.pixels[k].shape:
            self.s.fail(f"embed: {out} has shape {marked.shape}, host {self.pixels[k].shape}")
            return False
        psnr = inputs.psnr_8bit(self.pixels[k], marked)
        fields = dict(item.partition("=")[::2] for item in stdout.split())
        try:
            printed = float(fields["psnr_db"])
        except (KeyError, ValueError):
            self.s.fail(f"embed: no psnr_db in output {stdout!r}")
            return False
        if not abs(printed - psnr) <= 1e-3:
            self.s.fail(f"embed: printed psnr_db={printed}, file gives {psnr:.4f}")
            return False
        self.s.quality(psnr=psnr)
        self.s.fingerprint("embed.marked_ppm", data)
        return True

    def extract(self, image_path, key_path):
        """Timed extract, then: the recovered mark is bit-exact (every
        workload extracts unattacked noise or checker hosts)."""
        if self.s.call(["extract", image_path, key_path, "recovered.pbm"], self.mpx) is None:
            return
        try:
            bits = inputs.decode_p4(Path("recovered.pbm").read_bytes())
        except ValueError as exc:
            self.s.fail(f"extract: recovered.pbm does not read back: {exc}")
            return
        if bits.shape != self.mark.shape:
            self.s.fail(f"extract: recovered mark has shape {bits.shape}, expected {self.mark.shape}")
            return
        errors = int(np.count_nonzero(bits != self.mark))
        if errors:
            self.s.fail(f"extract: clean extraction from {image_path} has {errors} bit errors")
            return
        self.s.quality(ber=[0.0])


class Roundtrip(Workload):
    """Embed into a noise P6 host, then extract from the file just written."""

    hosts = ("noise", "noise", "noise")
    size = 1024

    def prepare(self):
        for k, px in enumerate(self.pixels):
            Path(f"host{k}.ppm").write_bytes(inputs.encode_p6(px))
        Path("mark.pbm").write_bytes(inputs.encode_p4(self.mark))

    def iterate(self, i):
        k = self.host(i)
        if self.embed(f"host{k}.ppm", "mark.pbm", k, i):
            self.extract("marked.ppm", "marked.key")


class Bench(Workload):
    """One ``bench`` call per host, cycling noise, checker and gradient."""

    hosts = inputs.HOST_KINDS
    size = 512

    def prepare(self):
        for kind, px in zip(self.hosts, self.pixels):
            Path(f"{kind}.ppm").write_bytes(inputs.encode_p6(px))
        Path("mark.pbm").write_bytes(inputs.encode_p4(self.mark))

    def iterate(self, i):
        kind = self.hosts[self.host(i)]
        argv = ["bench", f"{kind}.ppm", "mark.pbm", "--seed", str(iteration_seed(self.seed, i)),
                "--thresholds", BENCH_THRESHOLDS, "--format", "csv"]
        stdout = self.s.call(argv, self.mpx)
        if stdout is None:
            return
        rows = list(csv.reader(io.StringIO(stdout)))
        problem = None
        if not rows or rows[0] != BENCH_HEADER:
            problem = f"unexpected header {rows[:1]}"
        elif any(len(r) != len(BENCH_HEADER) for r in rows[1:]):
            problem = "a row has the wrong number of columns"
        elif [r[1] for r in rows[1:]] != BENCH_SCENARIOS:
            problem = f"scenarios {[r[1] for r in rows[1:]]}, expected {BENCH_SCENARIOS}"
        elif any("FAILED" in row for row in rows[1:]):
            problem = "a scenario FAILED"
        elif kind != "gradient" and float(rows[1][6]) != 0.0:
            problem = f"clean extraction has ber_percent {rows[1][6]}"
        if problem is not None:
            self.s.fail(f"bench {kind}.ppm: {problem}")
            return
        self.s.quality(psnr=float(rows[1][3]), ber=[float(r[6]) for r in rows[1:]])
        self.s.fingerprint(f"bench.{kind}.csv", stdout.encode())


class Ascii(Workload):
    """Embed from a P3 host with a P1 mark; extract from a P3 marked copy."""

    hosts = ("noise", "checker", "noise")
    size = 256

    def prepare(self):
        Path("mark.pbm").write_bytes(inputs.encode_p1(self.mark))
        for k, px in enumerate(self.pixels):
            Path(f"host{k}.ppm").write_bytes(inputs.encode_p3(px))
            # the marked copy extract reads, written once with its key
            if self.embed(f"host{k}.ppm", "mark.pbm", k, -2 - k,
                          out=f"copy{k}.ppm", key=f"copy{k}.key"):
                marked = inputs.decode_p6(Path(f"copy{k}.ppm").read_bytes())
                Path(f"copy{k}.ppm").write_bytes(inputs.encode_p3(marked))

    def iterate(self, i):
        k = self.host(i)
        if self.embed(f"host{k}.ppm", "mark.pbm", k, i):
            self.extract(f"copy{k}.ppm", f"copy{k}.key")


WORKLOADS = {"roundtrip-1024": Roundtrip, "bench-512": Bench, "ascii-256": Ascii}
