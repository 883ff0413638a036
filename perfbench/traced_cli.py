"""Run one reid-sgm CLI stage with spans around the public layer functions.

Usage: python traced_cli.py SPANS_OUT STAGE_ARGS...

Each wrapper is installed at the name its caller looks up (``descriptor``
imports ``convert``, ``fit_model`` and ``soft_map`` by name, ``soft_map``
finds ``pixel_likelihoods`` in ``sgm``'s globals, ``cli`` reaches the rest
through module attributes).  Spans are kept in memory as
(id, name, start, end, parent, thread, n) and written as JSON to SPANS_OUT
when the stage ends; ``n`` is a work count for the call (pixels, pairs,
score entries, ...) or 0.  Times are ``time.perf_counter`` values, the
same monotonic clock the parent process reads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

from reid_sgm import ccl, cli, descriptor, evalkit, imaging, sgm


class SpanRecorder:
    """In-memory span log with a per-thread stack for parent links."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, module, attr: str, name: str, work=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = work(args, kwargs, result) if work else 0
            self.spans.append((span_id, name, start, end, parent, threading.get_ident(), n))
            return result

        setattr(module, attr, traced)


def install(rec: SpanRecorder) -> None:
    rec.wrap(imaging, "load_image", "imaging.load")
    rec.wrap(imaging, "load_mask", "imaging.load")
    rec.wrap(descriptor, "convert", "imaging.convert")
    rec.wrap(descriptor, "fit_model", "sgm.fit")
    rec.wrap(descriptor, "soft_map", "sgm.soft_map",
             lambda args, kwargs, result: len(args[1]))
    rec.wrap(sgm, "pixel_likelihoods", "sgm.likelihoods")
    rec.wrap(descriptor, "extract_features", "descriptor.extract")
    rec.wrap(descriptor, "extract_sgm", "descriptor.sgm")
    rec.wrap(descriptor, "build_maps", "descriptor.build_maps")
    rec.wrap(descriptor, "max_pool", "descriptor.max_pool")
    rec.wrap(descriptor, "stripe_descriptor", "descriptor.stripe")
    rec.wrap(descriptor, "extract_color_histogram", "descriptor.ch")
    rec.wrap(descriptor, "extract_siltp", "descriptor.siltp")
    rec.wrap(descriptor, "fuse", "descriptor.fuse")
    rec.wrap(descriptor, "save_descriptors", "descriptor.save")
    rec.wrap(descriptor, "load_descriptors", "descriptor.load")
    rec.wrap(ccl, "accumulate_stats", "ccl.accumulate",
             lambda args, kwargs, result: len(args[0]))
    rec.wrap(ccl, "solve_subspace", "ccl.solve",
             lambda args, kwargs, result: int(args[0].dim))
    rec.wrap(ccl, "project", "ccl.project")
    rec.wrap(ccl, "score_matrix", "ccl.score",
             lambda args, kwargs, result: int(result.size))
    rec.wrap(ccl, "save_models", "ccl.save")
    rec.wrap(ccl, "load_models", "ccl.load")
    rec.wrap(evalkit, "load_manifest", "evalkit.manifest")
    rec.wrap(evalkit, "make_splits", "evalkit.splits")
    rec.wrap(evalkit, "cmc_single_shot", "evalkit.cmc")
    rec.wrap(evalkit, "cmc_multi_shot", "evalkit.cmc")
    rec.wrap(evalkit, "report", "evalkit.report")


def main(argv: list[str]) -> int:
    out_path, stage_args = argv[0], argv[1:]
    rec = SpanRecorder()
    install(rec)
    rec.wrap(cli, "main", f"cli.{stage_args[0]}")
    try:
        code = cli.main(stage_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
