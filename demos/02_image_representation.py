#!/usr/bin/env python3
"""From raster to descriptor: maps, max pooling, stripes, histograms.

Builds one synthetic pedestrian image, walks it through every stage of
the representation pipeline, and audits the dimension bookkeeping.
"""

import tempfile
from pathlib import Path

import numpy as np

from reid_sgm import (
    ColorSpace,
    ExtractionConfig,
    build_maps,
    convert,
    default_palette,
    extract_color_histogram,
    extract_features,
    extract_sgm,
    extract_siltp,
    fit_model,
    layout,
    load_image,
    load_mask,
    max_pool,
    stripe_descriptor,
)
from reid_sgm.evalkit import SynthSpec, synth_dataset

palette = default_palette()

# One seeded corpus image stands in for a real pedestrian crop.
tmp = Path(tempfile.mkdtemp())
manifest = synth_dataset(SynthSpec(n_ids=2, view_gain=0.3, noise=15.0, seed=5), tmp)
entry = manifest.entries[0]
image = load_image(manifest.locate(entry.image_path))
mask = load_mask(manifest.locate(entry.mask_path), image)
print(f"image {image.width}x{image.height}, "
      f"{mask.foreground_count()} foreground pixels")

# Stage 1: sixteen soft Gaussian maps per color space, under the
# discrepancy Gaussian fitted on the foreground pixels.
points = convert(image, ColorSpace.RGB)
model = fit_model(points[mask.values.reshape(-1) == 1], palette)
stack = build_maps(image, [(ColorSpace.RGB, model)], palette, k=5)[0]
print("map stack:", stack.shape, "- per-pixel weight sums:",
      np.round(stack.sum(axis=0).min(), 9), "to", np.round(stack.sum(axis=0).max(), 9))

# Stage 2: 3x3/stride-3 max pooling absorbs small local deviations.
pooled = max_pool(stack)
print("pooled stack:", pooled.shape)

# Stage 3: sum-pool each horizontal stripe and renormalize.
stripes = stripe_descriptor(pooled, 10)
print("stripe descriptors:", stripes.shape)
name = lambda vec: palette.labels[int(vec.argmax())]
print(f"stripe 0 dominated by {name(stripes[0])}, stripe 7 by {name(stripes[7])}")
print()

# Full extraction: one float32 vector in (view, space, stripe, name) order.
config = ExtractionConfig()
vector = extract_sgm(image, mask, config, palette=palette)
print("SGM representation:", vector.size, vector.dtype, "dims =",
      "16 names x 10 stripes x 4 spaces x 2 views")
# Every vector of a run shares one layout, given by the config and by
# whether the images come with a mask.
by_view = {}
for rec in layout(config, foreground=True):
    by_view[rec.view] = by_view.get(rec.view, 0) + rec.length
print("  per view:", by_view)

# Complementary features share the stripe geometry.
ch = extract_color_histogram(image, mask, config)
siltp = extract_siltp(image, mask, config)
print("color histograms:", ch.size, "dims; texture patterns:", siltp.size, "dims")

fused_config = ExtractionConfig(features=("SGM", "CH", "SILTP"))
fused = extract_features(image, mask, fused_config, palette=palette)
records = layout(fused_config, foreground=True)
print("fused:", fused.size, "dims in", len(records), "layout records")
assert fused.size == sum(rec.length for rec in records)
