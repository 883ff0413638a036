"""The benchmark's tracing hooks name functions that exist.

``perfbench/traced_cli.py`` replaces module attributes by name with
``rec.wrap(module, "attr", ...)``, and ``perfbench/timed_cli.py`` wraps
``descriptor.extract_features``; ``perfbench/run.py`` reads one timing line
per image from ``extract --verbose``.  A renamed function or a changed
extraction loop would only fail in a benchmark run; these tests fail at
once instead.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from reid_sgm import ccl, cli, descriptor
from reid_sgm.descriptor import ExtractionConfig, distinct_colors, extract_features
from reid_sgm.evalkit import SynthSpec, load_manifest, make_splits, synth_dataset
from reid_sgm.imaging import RasterImage

from conftest import make_image, make_mask

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
RUN = TRACED_CLI.with_name("run.py")


def wrapped_attributes():
    """(module name, attribute) of every ``*.wrap(module, "attr", ...)`` call."""
    tree = ast.parse(TRACED_CLI.read_text(), filename=str(TRACED_CLI))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            found.append((node.args[0].id, node.args[1].value))
    return found


def test_traced_hooks_exist():
    hooks = wrapped_attributes()
    assert len(hooks) >= 20
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not hasattr(importlib.import_module(f"reid_sgm.{module}"), attr)
    ]
    assert missing == []


def test_timed_hook_exists():
    assert callable(descriptor.extract_features)


def verbose_time_pattern():
    """The ``VERBOSE_TIME = re.compile(...)`` regex of ``perfbench/run.py``."""
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["VERBOSE_TIME"]):
            return re.compile(node.value.args[0].value)
    raise AssertionError(f"{RUN} assigns no VERBOSE_TIME")


@pytest.mark.parametrize("threads", [1, 2])
def test_timed_extract_calls_the_hook_and_prints_once_per_image(monkeypatch, tmp_path, capsys,
                                                                threads):
    """``extract --verbose``, with ``descriptor.extract_features`` wrapped as
    ``timed_cli.py`` wraps it, calls the wrapper once per image and prints one
    line per image, in manifest order, that ``run.py``'s pattern reads."""
    synth_dataset(SynthSpec(n_ids=3, width=18, height=48, seed=2), tmp_path / "corpus")
    manifest = tmp_path / "corpus" / "manifest.csv"
    calls = []
    real = descriptor.extract_features

    def extract_features(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(descriptor, "extract_features", extract_features)
    assert cli.main(["extract", str(manifest), "--out", str(tmp_path / "d.sgmd"), "--features",
                     "SGM,CH,SILTP", "--threads", str(threads), "--verbose"]) == 0
    pattern = verbose_time_pattern()
    timed = [line for line in capsys.readouterr().out.splitlines() if pattern.search(line)]
    paths = [entry.image_path for entry in load_manifest(manifest).entries]
    assert len(calls) == len(paths) == 6
    assert [line.split(": dim=")[0] for line in timed] == paths
    assert len(pattern.findall("\n".join(timed))) == len(paths)


# The spans one masked SGM,CH,SILTP extraction records, per ``traced_cli.py``.
EXTRACTION_SPANS = {
    "imaging.convert", "sgm.fit", "sgm.soft_map", "sgm.likelihoods", "descriptor.extract",
    "descriptor.sgm", "descriptor.build_maps", "descriptor.max_pool", "descriptor.stripe",
    "descriptor.ch", "descriptor.siltp", "descriptor.fuse",
}


def posterized(levels):
    """An 18x48 image whose channels keep ``levels`` values: 4 makes it map
    once per distinct color, 256 once per pixel."""
    step = 256 // levels
    return RasterImage(width=18, height=48, pixels=make_image(18, 48, seed=3).pixels // step * step)


def test_tracer_records_every_extraction_span(monkeypatch):
    """``traced_cli.py``'s own ``install()`` wrappers record every extraction
    span, on both color paths, and ``sgm.soft_map``'s work counts sum to the
    rows mapped.  A refactor that stops calling a wrapped name, or passes
    ``soft_map``'s points by keyword, fails here instead of in a traced run."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, attr in wrapped_attributes():  # monkeypatch restores each one afterwards
        target = importlib.import_module(f"reid_sgm.{module}")
        monkeypatch.setattr(target, attr, getattr(target, attr))
    rec = traced.SpanRecorder()
    traced.install(rec)
    config = ExtractionConfig(features=("SGM", "CH", "SILTP"))
    mapped = []
    for levels in (4, 256):
        image = posterized(levels)
        distinct = distinct_colors(image)
        assert (distinct is None) == (levels == 256)
        mapped.append(8 * (18 * 48 if distinct is None else distinct[0].size))
        descriptor.extract_features(image, make_mask(18, 48, border=3), config)
    assert sorted(EXTRACTION_SPANS - {span[1] for span in rec.spans}) == []
    assert sum(span[6] for span in rec.spans if span[1] == "sgm.soft_map") == sum(mapped)
    assert mapped[0] < mapped[1] == 8 * 18 * 48


@pytest.mark.parametrize("levels", [256, 4])
def test_trace_counters_count_maps_and_rows(monkeypatch, levels):
    """``sgm.fit_calls`` counts ``fit_model`` calls and ``sgm.pixels_mapped``
    sums ``len(args[1])`` over ``soft_map`` calls, both wrapped at their names
    in ``descriptor`` as ``traced_cli.py`` wraps them: a masked image is one
    fit of 8 pixel sets and 8 maps of m rows, m its pixels or (posterized)
    its distinct colors."""
    fits, rows = [], []
    real_fit, real_map = descriptor.fit_model, descriptor.soft_map

    def fit_model(*args, **kwargs):
        fits.append(len(args[0]))
        return real_fit(*args, **kwargs)

    def soft_map(*args, **kwargs):
        rows.append(len(args[1]))
        return real_map(*args, **kwargs)

    monkeypatch.setattr(descriptor, "fit_model", fit_model)
    monkeypatch.setattr(descriptor, "soft_map", soft_map)
    image = posterized(levels)
    distinct = distinct_colors(image)
    m = 18 * 48 if distinct is None else distinct[0].size
    assert (distinct is None) == (levels == 256)
    extract_features(image, make_mask(18, 48, border=3),
                     ExtractionConfig(features=("SGM", "CH", "SILTP")))
    assert fits == [8]
    assert sum(rows) == 8 * m


def test_pair_counter_counts_each_kinds_training_pairs(monkeypatch, tmp_path):
    """``ccl.pairs`` sums ``len(args[0])`` over ``accumulate_stats`` calls, as
    ``traced_cli.py`` wraps it: ``train`` passes the A view's rows first, by
    position, one call per kind with one row per matched image pair."""
    manifest = synth_dataset(SynthSpec(n_ids=6, images_per_view=2, width=18, height=48,
                                       seed=4), tmp_path / "corpus")
    descriptors = tmp_path / "d.sgmd"
    assert cli.main(["extract", str(tmp_path / "corpus" / "manifest.csv"), "--out",
                     str(descriptors), "--features", "SGM,CH,SILTP"]) == 0
    counts = []
    real = ccl.accumulate_stats

    def accumulate_stats(*args, **kwargs):
        counts.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ccl, "accumulate_stats", accumulate_stats)
    assert cli.main(["train", str(descriptors), str(tmp_path / "corpus" / "manifest.csv"),
                     "--out", str(tmp_path / "m.cclm"), "--r", "5", "--seed", "3"]) == 0
    train_ids = make_splits(manifest, 0.5, 1, 3)[0].train_ids
    pairs = sum(len(manifest.rows("A", [pid])) * len(manifest.rows("B", [pid]))
                for pid in train_ids)
    assert pairs == 4 * len(train_ids)
    assert counts == [pairs] * 3


@pytest.mark.parametrize("kind", ["CH", "SILTP"])
def test_histograms_take_one_bincount_per_view(monkeypatch, kind):
    """A masked image's CH (four spaces) or SILTP block takes three
    ``np.bincount`` calls: one per view over all of its code arrays, and the
    foreground's check for stripes without a masked pixel.  A per-space loop
    would show here as more calls per image."""
    calls = []
    real = np.bincount

    def bincount(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)
    config = ExtractionConfig(features=(kind,))
    assert len(config.spaces) == 4
    extract_features(make_image(18, 48, seed=5), make_mask(18, 48, border=3), config)
    assert len(calls) == 3
