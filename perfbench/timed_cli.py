"""Run one reid-sgm CLI stage under the host speed probe.

Usage: python timed_cli.py TIMES_OUT STAGE_ARGS...

A ``speed.SpeedProbe`` runs from before the package is imported until the
stage ends.  ``descriptor.extract_features``, at the name ``cli`` looks it
up, is wrapped with two ``time.thread_time`` reads; the probe's own time
inside a call is taken out.  Written as JSON to TIMES_OUT when the stage
ends: ``image_cpu_ms`` (one entry per extracted image, empty for other
stages), ``probe_ms`` (the probe's kernel samples) and ``probe_s`` (all the
CPU time the probe took).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

from speed import SpeedProbe


def main(argv: list[str]) -> int:
    out_path, stage_args = argv[0], argv[1:]
    probe = SpeedProbe()
    probe.start()
    times: list[float] = []
    try:
        from reid_sgm import cli, descriptor

        extract = descriptor.extract_features

        @functools.wraps(extract)
        def timed(*args, **kwargs):
            # The probe runs on the main thread only.
            on_main = threading.current_thread() is threading.main_thread()
            start, probed = time.thread_time(), probe.total_s
            try:
                return extract(*args, **kwargs)
            finally:
                spent = time.thread_time() - start
                if on_main:
                    spent -= probe.total_s - probed
                times.append(spent * 1e3)

        descriptor.extract_features = timed
        return cli.main(stage_args)
    finally:
        probe.stop()
        with open(out_path, "w") as fh:
            json.dump({"image_cpu_ms": times, "probe_ms": probe.samples_ms,
                       "probe_s": probe.total_s}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
