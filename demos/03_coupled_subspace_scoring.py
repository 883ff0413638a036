#!/usr/bin/env python3
"""Cross-view coupled learning on toy data: what the subspace optimizes.

Matched pairs (x, y) from two cameras, held as two row-aligned view
matrices, define commonness m = x + y and difference e = x - y.  The projection keeps directions where matched
pairs agree (large m variance) relative to where they disagree (small e
variance); scoring then rewards commonness and penalizes difference.
"""

import numpy as np

from reid_sgm import accumulate_stats, project, score_matrix, solve_subspace

rng = np.random.default_rng(21)
d, n_train, n_test = 30, 200, 8

# Identity signal lives in the first 10 coordinates and survives the
# camera change; the rest is view-specific clutter.
signal_dims = 10


def observe(identity, camera_noise):
    out = np.zeros(d)
    out[:signal_dims] = identity
    out[signal_dims:] = camera_noise * rng.normal(size=d - signal_dims)
    return out + 0.05 * rng.normal(size=d)


train_ids = rng.normal(size=(n_train, signal_dims))
# Row i of xs (camera A) and of ys (camera B) is one identity's matched pair.
views = [(observe(t, 1.0), observe(t, 1.0)) for t in train_ids]
xs = np.vstack([x for x, _ in views])
ys = np.vstack([y for _, y in views])

stats = accumulate_stats(xs, ys, ridge=1e-3)
model = solve_subspace(stats, r=10)
print("top eigenvalues (commonness / difference variance ratios):")
print(np.array_str(model.eigenvalues[:6], precision=2))

# Directions with big ratios should align with the signal coordinates.
energy = (model.w[:signal_dims] ** 2).sum(axis=0)
print("fraction of each column living in the signal coordinates:")
print(np.array_str(energy, precision=3))
print()

# Score a tiny gallery: genuine pairs must outrank impostors.
test_ids = rng.normal(size=(n_test, signal_dims))
probes = np.vstack([project(model, observe(t, 1.0), "A") for t in test_ids])
gallery = np.vstack([project(model, observe(t, 1.0), "B") for t in test_ids])

scores = score_matrix(model, gallery, probes)
hits = (scores.argmax(axis=1) == np.arange(n_test)).sum()
print(f"rank-1 matches: {hits}/{n_test}")
print("score matrix (rows = probes, columns = gallery):")
print(np.array_str(scores, precision=1, suppress_small=True))
print()

# The similarity is symmetric in probe and gallery, up to rounding: swapping
# the roles transposes the score matrix.
swapped = score_matrix(model, probes, gallery).T
rel = np.abs(scores - swapped).max() / np.abs(scores).max()
print(f"score matrix vs its role-swapped transpose, relative difference: {rel:.1e}")
