#!/usr/bin/env python3
"""Tour of the pixel-level machinery: discrepancy fit, rectification, soft maps.

Pixels rarely share the distribution of the 16 reference color names, so
comparing them with plain Euclidean distance misassigns colors.  This demo
fits the discrepancy Gaussian on a skewed pixel cloud and shows how the
covariance-aware soft assignment differs from the Euclidean one.
"""

import numpy as np

from reid_sgm import (
    default_palette,
    fit_model,
    identity_model,
    model_from_sigma,
    pixel_likelihoods,
    soft_map,
    transform_space,
)

rng = np.random.default_rng(8)
palette = default_palette()

# A pixel cloud squeezed along one color direction, the way shadowed
# clothing compresses the blue channel.
base = rng.random((4000, 3))
squeeze = np.array([[1.0, 0.0, 0.0], [0.05, 0.9, 0.0], [0.0, 0.1, 0.25]])
pixels = np.clip(base @ squeeze.T, 0.0, 1.0)  # (n, 3) RGB points

model = fit_model(pixels, palette)
print("fitted covariance:")
print(np.array_str(model.sigma, precision=4, suppress_small=True))
print("eigenvalues:", np.array_str(model.eigenvalues, precision=5))
print("normalization constant: %.4f" % model.norm_const)
print()

# The rectification floor only matters for degenerate clouds; force one to
# see it in action.
flat = np.tile([[0.2, 0.4, 0.6]], (50, 1))
flat_model = fit_model(flat, palette)
print("degenerate cloud eigenvalues:", np.array_str(flat_model.eigenvalues, precision=3))
print("rectified inverse spectrum  :",
      np.array_str(np.sort(np.linalg.eigvalsh(flat_model.rectified_inverse)), precision=3))
print()

# Compare assignments: fitted covariance vs plain Euclidean.
euclid = identity_model()
probe = np.clip(rng.random((8, 3)) @ squeeze.T, 0.0, 1.0)
print(f"{'pixel':<22} {'fitted top name':<18} {'euclidean top name':<18}")
for z in probe:
    fitted_top = palette.labels[int(pixel_likelihoods(model, z, palette).argmax())]
    euclid_top = palette.labels[int(pixel_likelihoods(euclid, z, palette).argmax())]
    mark = "" if fitted_top == euclid_top else "  <- differs"
    print(f"{np.array_str(z, precision=2):<22} {fitted_top:<18} {euclid_top:<18}{mark}")
print()

# Soft descriptors keep the k best names and renormalize.
z = probe[0]
for k in (1, 5, 16):
    weights = soft_map(model, z, palette, k)
    kept = np.flatnonzero(weights)
    pretty = ", ".join(f"{palette.labels[j]}={weights[j]:.3f}" for j in kept[:6])
    extra = " ..." if len(kept) > 6 else ""
    print(f"k={k:>2}: {pretty}{extra}")
print()

# The Cholesky factor rewrites the Mahalanobis distance as Euclidean in a
# transformed space: handy for plotting what the fit does to the palette.
chol = transform_space(model)
d = palette.names[4] - z  # distance to "red"
maha = d @ model.rectified_inverse @ d
eucl = ((chol @ d) ** 2).sum()
print("Mahalanobis vs transformed-Euclidean distance to red: %.5f vs %.5f" % (maha, eucl))
