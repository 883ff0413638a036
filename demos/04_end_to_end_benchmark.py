#!/usr/bin/env python3
"""End-to-end benchmark on a seeded synthetic two-camera corpus.

Generates a corpus with a cross-view color shift, illumination jitter
and pixel noise, then compares three pipelines on the same split:

  * fitted-covariance soft maps + coupled subspace (the full method)
  * identity-covariance soft maps + coupled subspace
  * fitted-covariance soft maps scored by raw Euclidean distance

Expect the full method on top, mirroring the motivation for modeling
the pixel-name discrepancy and learning the cross-view subspace.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from reid_sgm import (
    ExtractionConfig,
    accumulate_stats,
    cmc_single_shot,
    default_palette,
    extract_sgm,
    load_image,
    load_mask,
    make_splits,
    project,
    report,
    score_matrix,
    solve_subspace,
    synth_dataset,
)
from reid_sgm.evalkit import SynthSpec

N_IDS, RANK = 60, 40
palette = default_palette()

tmp = Path(tempfile.mkdtemp())
spec = SynthSpec(n_ids=N_IDS, view_gain=0.6, noise=80.0, illum_jitter=0.4, seed=17)
manifest = synth_dataset(spec, tmp)
print(f"corpus: {len(manifest.entries)} images under {tmp}")


def extract_all(config):
    start = time.perf_counter()
    reps = {}
    for entry in manifest.entries:
        image = load_image(manifest.locate(entry.image_path))
        mask = load_mask(manifest.locate(entry.mask_path), image)
        vector = extract_sgm(image, mask, config, palette=palette)
        reps[entry.image_path] = vector.astype(np.float64)
    per_image = (time.perf_counter() - start) / len(manifest.entries)
    print(f"  extracted {len(reps)} x {vector.size} dims, {per_image * 1e3:.0f} ms/image")
    return reps


print("fitted-covariance descriptors:")
reps = extract_all(ExtractionConfig())
print("identity-covariance descriptors:")
reps_eu = extract_all(ExtractionConfig(euclidean=True))

split = make_splits(manifest, 0.5, 1, seed=123)[0]
path_a = {e.person_id: e.image_path for e in manifest.rows("A")}
path_b = {e.person_id: e.image_path for e in manifest.rows("B")}


def view_matrix(features, paths, ids):
    """One row per identity, in ``ids`` order: row-aligned across cameras."""
    return np.vstack([features[paths[p]] for p in ids])


def curve_with_subspace(features):
    xs = view_matrix(features, path_a, split.train_ids)
    ys = view_matrix(features, path_b, split.train_ids)
    model = solve_subspace(accumulate_stats(xs, ys), RANK)
    probes = project(model, view_matrix(features, path_a, split.test_ids), "A")
    gallery = project(model, view_matrix(features, path_b, split.test_ids), "B")
    return cmc_single_shot(score_matrix(model, gallery, probes), split.test_ids, split.test_ids)


def curve_without_learning(features):
    probes = view_matrix(features, path_a, split.test_ids)
    gallery = view_matrix(features, path_b, split.test_ids)
    dist2 = ((probes[:, None, :] - gallery[None, :, :]) ** 2).sum(axis=2)
    return cmc_single_shot(-dist2, split.test_ids, split.test_ids)


rows = [
    ("soft maps + subspace", curve_with_subspace(reps)),
    ("identity covariance + subspace", curve_with_subspace(reps_eu)),
    ("soft maps, Euclidean scoring", curve_without_learning(reps)),
]
print()
print(f"{'pipeline':<34} rank-1  rank-5  rank-10")
for label, curve in rows:
    table = report([curve], ranks=(1, 5, 10))
    r1, r5, r10 = table.rates
    print(f"{label:<34} {r1:6.1%} {r5:7.1%} {r10:8.1%}")
