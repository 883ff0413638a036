"""The benchmark's tracing hooks name functions that exist.

``perfbench/traced_cli.py`` replaces module attributes by name with
``rec.wrap(module, "attr", ...)``, and ``perfbench/timed_cli.py`` wraps
``descriptor.extract_features``.  A renamed function would only fail in
a traced benchmark run; this test fails at once instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

from reid_sgm import ccl, cli, descriptor
from reid_sgm.descriptor import ExtractionConfig, distinct_colors, extract_features
from reid_sgm.evalkit import SynthSpec, make_splits, synth_dataset
from reid_sgm.imaging import RasterImage

from conftest import make_image, make_mask

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


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
    step = 256 // levels
    image = RasterImage(width=18, height=48, pixels=make_image(18, 48, seed=3).pixels // step * step)
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
