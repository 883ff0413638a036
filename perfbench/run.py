"""Benchmark of the reid-sgm CLI path: synth -> extract -> train -> eval.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client runs the stages back to back, each in its
own process running ``reid_sgm.cli`` through ``timed_cli.py``, on a seeded
synthetic corpus made in set-up by ``evalkit.synth_dataset``.  Every stage
runs on one thread, BLAS included.

``--trace 0`` measures the end-to-end metrics.  Their timings are CPU times
at reference speed: the CPU time of a stage process (user plus system, from
``os.wait4``) or of one ``extract_features`` call, less the probe's share,
times the factor ``speed.SpeedProbe`` measured meanwhile on the same thread.
On one thread a CPU time is the wall time the stage takes on an idle
machine; the factor takes out the 20-30 % by which a busy shared host slows
the same work (see ``speed.py``).  Raw CPU and wall times go to the details
record.  After one pass of the three stages it repeats stages (see
``measure``), so every timing is a median over the samples the ``--seconds``
budget allowed.

``--trace 1`` runs an untraced warm-up pass, then each stage once through
``traced_cli.py`` and once as the bare CLI, and reports the per-layer
metrics derived from the spans, plus the tracing overhead (traced minus
untraced pipeline wall time).
Per-layer times are self times (span duration less the part its child spans
cover), except ``descriptor.extract_s``, which is the inclusive busy time of
``extract_features``.

Every stage run is one attempted operation; it fails on a non-zero exit or a
failed output check.  The last stdout line is the result JSON; the line
before it is a JSON record of the machine, corpus spec, seed and sample
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS to one thread here and in every stage process: on a few shared
# cores, spinning BLAS workers make stage times track the host's load.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import speed  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "rank1_reference.json"
STAGES = ("extract", "train", "eval")
SETUP_REPEATS = 3
MIN_SAMPLES = 3
MIN_COVERAGE = 0.25
SPLITS = 10
NPROC = os.cpu_count() or 1

CORPUS = {"view_gain": 0.6, "noise": 80.0, "illum_jitter": 0.4}

# Why each workload exists is recorded in BENCHMARK.json.  multishot_pairs
# (thread pool, multi-shot CMC, 960 pairs) runs here but is not listed
# there: a third workload does not fit the benchmark's total time budget
# once viper_sgm's cheap stages are repeated for steady medians.
WORKLOADS = {
    "viper_sgm": {
        "spec": {"n_ids": 316, "images_per_view": 1, "height": 128, "width": 48},
        "features": "SGM", "dim": 1280, "threads": 1, "protocol": "single",
    },
    "fused_wide": {
        "spec": {"n_ids": 316, "images_per_view": 1, "height": 48, "width": 18},
        "features": "SGM,CH,SILTP", "dim": 6740, "threads": 1, "protocol": "single",
    },
    "multishot_pairs": {
        "spec": {"n_ids": 120, "images_per_view": 4, "height": 64, "width": 24},
        "features": "SGM", "dim": 1280, "threads": 2, "protocol": "multi",
    },
}

# Worker threads print these lines concurrently, so two can share a line.
VERBOSE_TIME = re.compile(r": dim=\d+ ([0-9.]+) ms")


class Failure(Exception):
    """A stage exited non-zero or its output failed a check."""


class Pipeline:
    """One workload's corpus plus the stage runs made on it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.cfg = WORKLOADS[name]
        self.corpus = work / "corpus"
        self.manifest = self.corpus / "manifest.csv"
        self.descriptors = work / "d.sgmd"
        self.model = work / "m.cclm"
        self.report = work / "report.csv"
        self.n_images = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Rank-1 the seed commit gives for this workload and seed, if recorded.
        self.reference = json.loads(REFERENCE.read_text())[name].get(str(seed))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("REID_SGM_THREADS", None)

    # -- set-up -----------------------------------------------------------
    def setup(self, repeats: int = SETUP_REPEATS) -> dict[str, list[float]]:
        """Generate the corpus ``repeats`` times; keep the first copy.

        Returns the seconds of each repeat: CPU at reference speed, raw CPU
        (both without the probe's share) and wall.
        """
        from reid_sgm import evalkit

        spec = evalkit.SynthSpec(**self.cfg["spec"], **CORPUS, seed=self.seed)
        times: dict[str, list[float]] = {"ref": [], "cpu": [], "wall": []}
        for rep in range(repeats):
            out = self.corpus if rep == 0 else self.work / f"corpus{rep}"
            probe = speed.SpeedProbe()
            cpu, wall = time.process_time(), time.perf_counter()
            probe.start()
            try:
                manifest = evalkit.synth_dataset(spec, out)
            finally:
                probe.stop()
            cpu = time.process_time() - cpu - probe.total_s
            times["wall"].append(time.perf_counter() - wall)
            times["cpu"].append(cpu)
            times["ref"].append(cpu * speed.factor(probe.samples_ms))
            if rep:
                shutil.rmtree(out)
        self.n_images = len(manifest.entries)
        return times

    def warm_up(self) -> None:
        """Import the package once, so no timed stage compiles its bytecode."""
        subprocess.run([sys.executable, "-c", "import reid_sgm.cli"], env=self.env,
                       cwd=self.work, check=True)

    # -- stages -----------------------------------------------------------
    def argv(self, stage: str, out: Path) -> list[str]:
        cfg = self.cfg
        if stage == "extract":
            return ["extract", str(self.manifest), "--out", str(out), "--features",
                    cfg["features"], "--threads", str(cfg["threads"]), "--verbose"]
        if stage == "train":
            return ["train", str(self.descriptors), str(self.manifest), "--out", str(out),
                    "--seed", str(self.seed)]
        return ["eval", str(self.descriptors), str(self.model), str(self.manifest),
                "--splits", str(SPLITS), "--protocol", cfg["protocol"],
                "--seed", str(self.seed), "--out", str(out)]

    def run(self, stage: str, first: bool, spans: Path | None = None,
            timed: bool = True) -> dict:
        """Run one stage process; return its times, peak RSS and output.

        The process runs under ``traced_cli.py`` when ``spans`` is given,
        else under ``timed_cli.py`` when ``timed``, else as the bare CLI.
        """
        out = {"extract": self.descriptors, "train": self.model, "eval": self.report}[stage]
        if not first:
            out = out.with_name("again_" + out.name)
        times = self.work / f"{stage}.times.json"
        if spans is not None:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        elif timed:
            cmd = [sys.executable, str(HERE / "timed_cli.py"), str(times)]
        else:
            cmd = [sys.executable, "-m", "reid_sgm.cli"]
        cmd += self.argv(stage, out)
        log = self.work / f"{stage}.log"
        self.attempted += 1
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text()
        result = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "stdout": text}
        if spans is None and timed and times.is_file():
            probed = json.loads(times.read_text())
            times.unlink()
            result["cpu"] = usage.ru_utime + usage.ru_stime - probed["probe_s"]
            result["image_cpu_ms"] = probed["image_cpu_ms"]
            result["probe_ms"] = probed["probe_ms"]
        try:
            if proc.returncode != 0:
                raise Failure(f"{stage} exited {proc.returncode}: {text[-500:]}")
            getattr(self, "check_" + stage)(out, first, result)
        except Failure as exc:
            self.failed += 1
            self.errors.append(str(exc))
            raise
        finally:
            if not first:
                out.unlink(missing_ok=True)
        return result

    # -- output checks ----------------------------------------------------
    def check_extract(self, out: Path, first: bool, result: dict) -> None:
        data = out.read_bytes()
        _, count, dim = struct.unpack("<HII", data[4:14])
        if data[:4] != b"SGMD" or count != self.n_images or dim != self.cfg["dim"]:
            raise Failure(f"extract wrote {count} x {dim}, expected "
                          f"{self.n_images} x {self.cfg['dim']}")
        values = np.frombuffer(data[14 : 14 + 4 * count * dim], dtype="<f4")
        if not np.isfinite(values).all():
            raise Failure("extract wrote non-finite values")
        if not first and data != self.descriptors.read_bytes():
            raise Failure("repeated extract is not bitwise identical to the first")
        ms = [float(v) for v in VERBOSE_TIME.findall(result["stdout"])]
        if len(ms) != self.n_images:
            raise Failure(f"extract printed {len(ms)} per-image lines for {self.n_images}")
        result["image_wall_ms"] = ms
        cpu_ms = result.get("image_cpu_ms")
        if cpu_ms is not None and len(cpu_ms) != self.n_images:
            raise Failure(f"extract timed {len(cpu_ms)} images of {self.n_images}")

    def check_train(self, out: Path, first: bool, result: dict) -> None:
        if not out.is_file() or out.read_bytes()[:4] != b"CCLM":
            raise Failure("train wrote no model file")

    def check_eval(self, out: Path, first: bool, result: dict) -> None:
        lines = out.read_text().splitlines()
        try:
            ranks = [int(v) for v in lines[0].split(",")]
            rates = [float(v) for v in lines[1].split(",")]
            rank1_text = lines[1].split(",")[ranks.index(1)]
        except (IndexError, ValueError) as exc:
            raise Failure(f"eval CSV does not parse: {exc}") from None
        if len(rates) != len(ranks) or not all(0.0 <= r <= 1.0 for r in rates):
            raise Failure(f"eval CSV holds rates {rates} for ranks {ranks}")
        if self.reference is not None and rank1_text != self.reference:
            raise Failure(f"rank1 {rank1_text} differs from the reference {self.reference}")
        result["rank1"] = rank1_text


def measure(pipe: Pipeline, seconds: float) -> dict[str, list[dict]]:
    """One pass of every stage, then repeats.

    A stage that takes at most a tenth of the budget is short enough for
    one noisy run to swing its time by 15 %, so it gets MIN_SAMPLES runs
    even past the budget.  Then the stage with the fewest samples that
    still fits in the remaining budget runs again, until none fits.
    """
    samples: dict[str, list[dict]] = {s: [] for s in STAGES}
    start = time.perf_counter()
    for stage in STAGES:
        samples[stage].append(pipe.run(stage, first=True))
    while True:
        remaining = seconds - (time.perf_counter() - start)
        cost = {s: statistics.median(r["wall"] for r in samples[s]) for s in STAGES}
        short = [s for s in STAGES
                 if cost[s] <= seconds / 10 and len(samples[s]) < MIN_SAMPLES]
        fits = short or [s for s in STAGES if cost[s] <= remaining]
        if not fits:
            return samples
        stage = min(fits, key=lambda s: (len(samples[s]), cost[s]))
        samples[stage].append(pipe.run(stage, first=False))


def to_reference_speed(samples) -> dict:
    """Give each stage run its ``ref`` times; return the factors used.

    A run is scaled by the factor of its own probe samples when they cover
    at least ``MIN_COVERAGE`` of its CPU time.  Otherwise it spends most of
    that time inside long BLAS calls (``fused_wide``'s ``train``, coverage
    about 0.1), which the probe does not see and which a busy host slowed
    far less than the kernel: its raw CPU time spread 2 % over ten runs,
    scaled by the other stages' factor 10 %.  Such a run is not scaled.
    """
    used: dict[str, list] = {}
    for stage in STAGES:
        for r in samples[stage]:
            seen = speed.coverage(r["probe_ms"], r["cpu"]) >= MIN_COVERAGE
            factor = speed.factor(r["probe_ms"]) if seen else 1.0
            r["ref"] = r["cpu"] * factor
            r["image_ref_ms"] = [ms * factor for ms in r["image_cpu_ms"]]
            used.setdefault(stage, []).append(round(factor, 4))
    return used


def end_to_end(pipe: Pipeline, setup: dict, samples) -> tuple[dict, dict, dict]:
    """The gated metrics, their sample counts, and the timings at reference
    speed, as raw CPU and as wall times.

    The per-image tail is gated at p90, not p98.  On ``fused_wide``'s 15 ms
    images the 13 slowest of 632 are the ones a short slow spell of the host
    hit; the stage's factor does not take that out, and p98 spread 27-31 %
    over ten runs of the same code, p90 9-15 %.  p98 is in the details.
    """
    factors = to_reference_speed(samples)

    def timings(kind: str, image_key: str, setup_key: str) -> dict[str, float]:
        med = {s: statistics.median(r[kind] for r in samples[s]) for s in STAGES}
        image_ms = [ms for r in samples["extract"] for ms in r[image_key]]
        return {
            "setup_s": statistics.median(setup[setup_key]),
            "pipeline_s": sum(med.values()),
            "extract_img_per_s": pipe.n_images / med["extract"],
            "extract_ms_p50": float(np.percentile(image_ms, 50)),
            "extract_ms_p90": float(np.percentile(image_ms, 90)),
            "extract_ms_p98": float(np.percentile(image_ms, 98)),
            "train_s": med["train"],
            "eval_s": med["eval"],
        }

    ref = timings("ref", "image_ref_ms", "ref")
    rss = max(statistics.median(r["rss_mb"] for r in samples[s]) for s in STAGES)
    metrics = {
        "setup_s": (ref["setup_s"], "s"),
        "pipeline_ref_s": (ref["pipeline_s"], "s"),
        "extract_img_per_ref_s": (ref["extract_img_per_s"], "1/s"),
        "extract_ref_ms_p50": (ref["extract_ms_p50"], "ms"),
        "extract_ref_ms_p90": (ref["extract_ms_p90"], "ms"),
        "train_ref_s": (ref["train_s"], "s"),
        "eval_ref_s": (ref["eval_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "rank1": (float(samples["eval"][0]["rank1"]), "fraction"),
    }
    counts = {"setup_s": len(setup["ref"]),
              "extract_ms": sum(len(r["image_ref_ms"]) for r in samples["extract"]),
              "probe": sum(len(r["probe_ms"]) for s in STAGES for r in samples[s])}
    counts.update({f"{s}_s": len(samples[s]) for s in STAGES})
    raw = {"ref": ref, "cpu": timings("cpu", "image_cpu_ms", "cpu"),
           "wall": timings("wall", "image_wall_ms", "wall"),
           "factors": factors}
    return metrics, counts, raw


# -- traced run -------------------------------------------------------------
LAYER_SPANS = {
    "imaging.load_s": "imaging.load",
    "imaging.convert_s": "imaging.convert",
    "sgm.fit_s": "sgm.fit",
    "sgm.likelihoods_s": "sgm.likelihoods",
    "sgm.soft_map_self_s": "sgm.soft_map",
    "descriptor.build_maps_self_s": "descriptor.build_maps",
    "descriptor.max_pool_s": "descriptor.max_pool",
    "descriptor.stripe_s": "descriptor.stripe",
    "descriptor.ch_s": "descriptor.ch",
    "descriptor.siltp_s": "descriptor.siltp",
    "descriptor.save_s": "descriptor.save",
    "descriptor.load_s": "descriptor.load",
    "ccl.accumulate_s": "ccl.accumulate",
    "ccl.solve_s": "ccl.solve",
    "ccl.project_s": "ccl.project",
    "ccl.score_s": "ccl.score",
    "evalkit.cmc_s": "evalkit.cmc",
    "evalkit.splits_s": "evalkit.splits",
}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration less the part its child spans cover."""
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered(children.get(sid, []))
            for sid, _, start, end, _, _, _ in spans}


def stage_layers(stage: str, spans: list, wall: float, threads: int) -> dict:
    """Per-layer sums for one traced stage, plus its time accounting.

    Worker-thread spans have no parent on their own thread; they count as
    children of the stage's root span.  ``cli.<stage>_self_s`` is the stage
    wall time (process start to exit, as the parent saw it) less the time
    any span below the root covers: interpreter start-up, imports and the
    CLI's own row handling.
    """
    root = next(s for s in spans if s[1] == f"cli.{stage}")
    spans = [s if s[4] is not None or s is root else s[:4] + (root[0],) + s[5:]
             for s in spans]
    own = self_times(spans)
    below = [s for s in spans if s is not root]
    layers: dict[str, float] = {}
    counts: dict[str, list] = {}
    for s in below:
        layers[s[1]] = layers.get(s[1], 0.0) + own[s[0]]
        counts.setdefault(s[1], []).append(s[6])
    busy = [(s[2], s[3]) for s in below if s[1] == "descriptor.extract"]
    info = {
        "wall_s": wall,
        "cli_self_s": wall - covered((s[2], s[3]) for s in below),
        "children_self_s": sum(own[s[0]] for s in below),
        "children_covered_s": covered((s[2], s[3]) for s in below),
        "layers_self_s": layers,
        "counts": counts,
    }
    if busy:
        info["extract_busy_s"] = sum(end - start for start, end in busy)
        span = max(e for _, e in busy) - min(s for s, _ in busy)
        info["pool_util"] = info["extract_busy_s"] / (span * threads)
    return info


def per_layer(pipe: Pipeline, setup: dict, untraced: dict, traced: dict,
              spans: dict) -> tuple[dict, dict]:
    info = {s: stage_layers(s, spans[s], traced[s]["wall"], pipe.cfg["threads"])
            for s in STAGES}
    layer: dict[str, float] = {}
    counts: dict[str, list] = {}
    for stage in STAGES:
        for name, seconds in info[stage]["layers_self_s"].items():
            layer[name] = layer.get(name, 0.0) + seconds
        for name, ns in info[stage]["counts"].items():
            counts.setdefault(name, []).extend(ns)
    metrics = {key: (layer.get(span, 0.0), "s") for key, span in LAYER_SPANS.items()}
    n = pipe.n_images
    metrics.update({
        "imaging.convert_calls_per_image": (len(counts.get("imaging.convert", [])) / n, "count"),
        "sgm.fit_calls": (len(counts.get("sgm.fit", [])), "count"),
        "sgm.pixels_mapped": (sum(counts.get("sgm.soft_map", [])), "count"),
        "descriptor.extract_s": (info["extract"]["extract_busy_s"], "s"),
        "descriptor.file_mb": (pipe.descriptors.stat().st_size / 2**20, "MB"),
        "ccl.pairs": (max(counts.get("ccl.accumulate", [0])), "count"),
        "ccl.max_dim": (max(counts.get("ccl.solve", [0])), "count"),
        "ccl.score_entries": (sum(counts.get("ccl.score", [])), "count"),
        "evalkit.synth_s": (statistics.median(setup["wall"]), "s"),
        "cli.extract_pool_util": (info["extract"]["pool_util"], "fraction"),
    })
    for stage in STAGES:
        metrics[f"cli.{stage}_self_s"] = (info[stage]["cli_self_s"], "s")
    untraced_s = sum(untraced[s]["wall"] for s in STAGES)
    traced_s = sum(traced[s]["wall"] for s in STAGES)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    accounting = {
        s: {k: v for k, v in info[s].items() if k not in ("layers_self_s", "counts")}
        for s in STAGES
    }
    for stage in STAGES:
        accounting[stage]["untraced_wall_s"] = untraced[stage]["wall"]
    accounting["untraced_pipeline_s"] = untraced_s
    accounting["traced_pipeline_s"] = traced_s
    return metrics, accounting


# -- entry point --------------------------------------------------------------
def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_workload(pipe: Pipeline, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup = pipe.setup()
    details = {
        "workload": pipe.name, "seed": pipe.seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "blas_threads": int(pipe.env["OPENBLAS_NUM_THREADS"]),
        "cli_threads": pipe.cfg["threads"],
        "corpus": {**pipe.cfg["spec"], **CORPUS, "seed": pipe.seed, "images": pipe.n_images},
        "features": pipe.cfg["features"], "protocol": pipe.cfg["protocol"],
        "splits": SPLITS, "rank1_reference": pipe.reference,
        "speed_probe": {"interval_s": speed.INTERVAL_S, "reference_ms": speed.REFERENCE_MS,
                        "min_coverage": MIN_COVERAGE},
    }
    pipe.warm_up()
    if not trace:
        samples = measure(pipe, seconds)
        metrics, details["samples"], details["raw"] = end_to_end(pipe, setup, samples)
        return metrics, details
    # The first run of each stage was 5-20 % slower than later ones, so it
    # only warms up and writes the outputs later runs are checked against.
    # Each traced stage run is then paired with an untraced one right after.
    for stage in STAGES:
        pipe.run(stage, first=True, timed=False)
    untraced, traced, spans = {}, {}, {}
    for stage in STAGES:
        path = pipe.work / f"{stage}.spans.json"
        traced[stage] = pipe.run(stage, first=False, spans=path)
        spans[stage] = [tuple(span) for span in json.loads(path.read_text())]
        untraced[stage] = pipe.run(stage, first=False, timed=False)
    metrics, details["accounting"] = per_layer(pipe, setup, untraced, traced, spans)
    details["samples"] = {"setup_s": len(setup["wall"]), "traced": 1, "untraced": 1,
                          "warm_up": 1}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reid_sgm" / "cli.py").is_file():
        print(f"error: {SRC / 'reid_sgm'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind: the running stage process is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pipe = Pipeline(args.workload, args.seed, work)
    metrics: dict = {}
    details: dict = {}
    try:
        metrics, details = run_workload(pipe, args.seconds, bool(args.trace))
    except Failure:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    fail_rate = pipe.failed / pipe.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"fail_rate: {fail_rate:.6g} fraction ({pipe.failed}/{pipe.attempted})")
    print(f"samples: {details.get('samples')}")
    for error in pipe.errors:
        print(f"error: {error}", file=sys.stderr)
    details["errors"] = pipe.errors
    print(json.dumps({"details": details}))
    correct = pipe.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
