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
model = fit_model(convert(image, ColorSpace.RGB, mask), palette)
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

# Full extraction: (view, space, stripe, name) concatenation.
config = ExtractionConfig()
rep = extract_sgm(image, mask, config, palette=palette)
print("SGM representation:", rep.dim, "dims =",
      "16 names x 10 stripes x 4 spaces x 2 views")
by_view = {}
for rec in rep.layout:
    by_view[rec.view] = by_view.get(rec.view, 0) + rec.length
print("  per view:", by_view)

# Complementary features share the stripe geometry.
ch = extract_color_histogram(image, mask, config)
siltp = extract_siltp(image, mask, config)
print("color histograms:", ch.dim, "dims; texture patterns:", siltp.dim, "dims")

fused = extract_features(image, mask, ExtractionConfig(features=("SGM", "CH", "SILTP")),
                         palette=palette)
print("fused:", fused.dim, "dims in", len(fused.layout), "layout records")
