"""Span tracer that times wavemark's layers from outside the program.

Each public function of a layer is replaced, at every name it is bound
under in a loaded ``wavemark`` module (``from .x import f`` makes several),
by a wrapper that records a span: name, start, end, parent span and the id
of the CLI call it belongs to.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.

Some spans carry a count computed by the benchmark, not reported by the
program: file bytes per read and write, samples per DWT or colour call.
Work the tracer itself does inside a traced call (computing those counts,
hashing DWT inputs) is recorded as a ``trace.capture`` span, so it never
lands in a layer's self time.
"""

import functools
import hashlib
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "image_io": ("read_image", "write_image", "read_watermark", "write_watermark",
                 "quantize", "PlanarImage.__post_init__"),
    "colorspace": ("rgb_to_jpeg_ycbcr", "jpeg_ycbcr_to_rgb"),
    "wavelet": ("dwt2_forward", "dwt2_inverse", "threshold_details"),
    "watermark": ("embed", "extract", "save_key", "load_key"),
    "attacks": ("wavelet_compress", "crop"),
    "metrics": ("psnr", "pearson", "nc", "ber"),
    "cli": ("main",),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
CAPTURE = "trace.capture"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (count name, function of (args, kwargs, result) giving the count)
_COUNTS = {
    "image_io.read_image": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "image_io.write_image": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "wavelet.dwt2_forward": ("samples", lambda a, k, r: np.size(_arg(a, k, 0, "channel"))),
    "wavelet.dwt2_inverse": ("samples", lambda a, k, r: np.size(r)),
    "colorspace.rgb_to_jpeg_ycbcr": ("samples", lambda a, k, r: np.size(_arg(a, k, 0, "img").data)),
}
_FINGERPRINTED = "wavelet.dwt2_forward"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)  # "<span>.<count>" -> total
        self.op_ms = []  # benchmark-measured wall time of each traced CLI call
        self._stack = []
        self._op = -1
        self._op_inputs = set()
        self._dwt_distinct = 0
        self._dwt_calls = 0
        self._installed = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every name it is bound under."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wavemark" or name.startswith("wavemark."))]
        for span in TRACED:
            mod_name, _, qual = span.partition(".")
            owner = importlib.import_module(f"wavemark.{mod_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # removed by a refactor: reported as never called
            wrapper = self._wrap(span, original)
            if path:  # a method: one binding, on its class
                self._bind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _bind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTS.get(name)
        fingerprint = name == _FINGERPRINTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append([name, 0.0, 0.0, parent, self._op])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None or fingerprint:
                self._capture(name, count, fingerprint, parent, args, kwargs, result)
            return result

        return wrapper

    def _capture(self, name, count, fingerprint, parent, args, kwargs, result) -> None:
        start = perf_counter()
        if count is not None:
            self.counts[f"{name}.{count[0]}"] += count[1](args, kwargs, result)
        if fingerprint:
            # hashed after the call: a transform that overwrote its input
            # would still map equal inputs to equal digests
            grid = np.ascontiguousarray(_arg(args, kwargs, 0, "channel"))
            digest = hashlib.sha1(memoryview(grid).cast("B"))
            digest.update(repr((grid.shape, grid.dtype.str)).encode())
            self._op_inputs.add(digest.digest())
            self._dwt_calls += 1
        self.spans.append([CAPTURE, start, perf_counter(), parent, self._op])

    # -- ops ---------------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self._op_inputs = set()

    def end_op(self, wall_ms: float) -> None:
        self.op_ms.append(wall_ms)
        self._dwt_distinct += len(self._op_inputs)
        self._op_inputs = set()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Total self time (s), inclusive time (s) and calls per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            incl_s[name] += end - start
            if name != CAPTURE:
                calls[name] += 1
        return self_s, incl_s, calls

    def metrics(self, untraced_mpix_per_s: float, traced_mpix_per_s: float) -> dict:
        """Per-op layer metrics, as {name: (value, unit)}."""
        ops = max(len(self.op_ms), 1)
        self_s, incl_s, calls = self.self_times()
        out = {}
        for name in TRACED:
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / ops, "ms")
            out[f"{name}.calls"] = (calls[name] / ops, "count")
        out[f"{CAPTURE}.self_ms"] = (1e3 * self_s[CAPTURE] / ops, "ms")

        def rate(name, count, scale):
            secs = incl_s[name]
            return self.counts[f"{name}.{count}"] / scale / secs if secs else 0.0

        out["image_io.read_image.mb_per_s"] = (rate("image_io.read_image", "bytes", 1e6), "MB/s")
        out["image_io.write_image.mb_per_s"] = (rate("image_io.write_image", "bytes", 1e6), "MB/s")
        for name in ("wavelet.dwt2_forward", "wavelet.dwt2_inverse",
                     "colorspace.rgb_to_jpeg_ycbcr"):
            out[f"{name}.msamples_per_s"] = (rate(name, "samples", 1e6), "Msamples/s")
        out["wavelet.dwt2_forward.distinct_input_ratio"] = (
            self._dwt_distinct / self._dwt_calls if self._dwt_calls else 0.0, "ratio")
        out["trace.overhead_ratio"] = (
            untraced_mpix_per_s / traced_mpix_per_s if traced_mpix_per_s else 0.0, "ratio")
        op_s = sum(self.op_ms) / 1e3
        out["trace.self_coverage_ratio"] = (sum(self_s.values()) / op_s if op_s else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start - t0, "end_s": end - t0,
                                     "parent": parent, "op": op}) + "\n")
