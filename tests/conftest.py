"""Shared fixtures and helpers for the test suite."""

import json
import math
import struct

import numpy as np
import pytest

from reid_sgm import ccl, descriptor, evalkit
from reid_sgm.descriptor import (
    CH_BINS,
    SILTP_CODES,
    SILTP_TAU,
    LayoutRecord,
    feature_span,
    stripe_bounds,
)
from reid_sgm.errors import EmptyStripe
from reid_sgm.imaging import ForegroundMask, RasterImage, convert
from reid_sgm.sgm import default_palette, fit_model, identity_model, soft_map


def split_artifact(data: bytes):
    """An ``artifact`` file's 14-byte head, its array bytes and its footer, as
    the format lays them out: the footer's length is the last u32."""
    (length,) = struct.unpack("<I", data[-4:])
    end = len(data) - 4 - length
    return data[:14], data[14:end], json.loads(data[end:-4])


def join_artifact(head: bytes, payload: bytes, footer) -> bytes:
    """The bytes of an ``artifact`` file; ``footer`` is JSON-dumped unless bytes."""
    text = footer if isinstance(footer, bytes) else json.dumps(footer).encode("utf-8")
    return head + payload + text + struct.pack("<I", len(text))


def array_offset(footer, name: str) -> int:
    """Where array ``name`` starts in the array bytes, from the footer's table."""
    at = 0
    for key, (dtype, shape) in footer["arrays"].items():
        if key == name:
            return at
        at += math.prod(shape) * int(dtype[-1])
    raise KeyError(name)


def make_image(width, height, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return RasterImage(width=width, height=height, pixels=pixels)


def make_mask(width, height, border=4):
    values = np.zeros((height, width), dtype=np.uint8)
    values[border : height - border, border : width - border] = 1
    return ForegroundMask(width=width, height=height, values=values)


def solid_image(width, height, rgb):
    pixels = np.zeros((height, width, 3), dtype=np.uint8)
    pixels[:, :] = rgb
    return RasterImage(width=width, height=height, pixels=pixels)


def branching_to_normalized_rgb(rgb):
    """Oracle for ``imaging._to_normalized_rgb``: masked division."""
    total = rgb.sum(axis=1, keepdims=True)
    out = np.full_like(rgb, 1.0 / 3.0)
    ok = total[:, 0] > 0
    out[ok] = rgb[ok] / total[ok]
    return out


def branching_to_l1l2l3(rgb):
    """Oracle for ``imaging._to_l1l2l3``: masked division per component."""
    rg = (rgb[:, 0] - rgb[:, 1]) ** 2
    rb = (rgb[:, 0] - rgb[:, 2]) ** 2
    gb = (rgb[:, 1] - rgb[:, 2]) ** 2
    denom = rg + rb + gb
    out = np.full((rgb.shape[0], 3), 1.0 / 3.0)
    ok = denom > 0
    out[ok, 0] = rg[ok] / denom[ok]
    out[ok, 1] = rb[ok] / denom[ok]
    out[ok, 2] = gb[ok] / denom[ok]
    return out


def branching_to_hsv(rgb):
    """Oracle for ``imaging._to_hsv``: one masked hue formula per sector."""
    r, g, b = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    mx = rgb.max(axis=1)
    mn = rgb.min(axis=1)
    chroma = mx - mn

    h = np.zeros_like(mx)
    has_chroma = chroma > 0
    cr = np.where(has_chroma, chroma, 1.0)
    r_is_max = has_chroma & (mx == r)
    g_is_max = has_chroma & ~r_is_max & (mx == g)
    b_is_max = has_chroma & ~r_is_max & ~g_is_max
    h[r_is_max] = np.mod((g[r_is_max] - b[r_is_max]) / cr[r_is_max], 6.0)
    h[g_is_max] = (b[g_is_max] - r[g_is_max]) / cr[g_is_max] + 2.0
    h[b_is_max] = (r[b_is_max] - g[b_is_max]) / cr[b_is_max] + 4.0
    h /= 6.0

    s = np.zeros_like(mx)
    lit = mx > 0
    s[lit] = chroma[lit] / mx[lit]
    return np.column_stack([h, s, mx])


def expression_likelihoods(model, z, palette):
    """Oracle for ``pixel_likelihoods``: the whole-array expression it evaluates in place."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    names = palette.names
    a = model.rectified_inverse
    za = pts @ a
    quad = (
        (za * pts).sum(axis=1)[:, None]
        + ((names @ a) * names).sum(axis=1)[None, :]
        - 2.0 * (za @ names.T)
    )
    like = model.norm_const * np.exp(-0.5 * np.maximum(quad, 0.0))
    return like[0] if single else like


def argsort_top_k(like, k):
    """Oracle for ``soft_map``'s selection: stable argsort, gather, scatter."""
    single = like.ndim == 1
    like = np.atleast_2d(like)
    # Stable sort on the negated values: descending, ties by lower index.
    order = np.argsort(-like, axis=1, kind="stable")
    keep = order[:, :k]
    kept = np.take_along_axis(like, keep, axis=1)
    sums = kept.sum(axis=1, keepdims=True)
    weights = np.divide(kept, sums, out=np.full_like(kept, 1.0 / k), where=sums > 0)
    out = np.zeros_like(like)
    np.put_along_axis(out, keep, weights, axis=1)
    return out[0] if single else out


def argsort_soft_map(model, z, palette, k):
    """Oracle for ``soft_map``."""
    return argsort_top_k(expression_likelihoods(model, z, palette), k)


def reduceat_max_pool(stack):
    """Oracle for ``max_pool``: two ``np.maximum.reduceat`` passes."""
    rows = np.arange(0, stack.shape[1], 3)
    cols = np.arange(0, stack.shape[2], 3)
    pooled = np.maximum.reduceat(stack, rows, axis=1)
    return np.maximum.reduceat(pooled, cols, axis=2)


def per_stripe_descriptor(stack, stripe):
    """Oracle for ``stripe_descriptor``: one stripe, a half-open (start, stop)
    row range, summed over both axes and normalized."""
    start, stop = stripe
    height = stack.shape[1]
    if not (0 <= start < stop <= height):
        raise EmptyStripe(f"rows [{start}, {stop}) are empty within height {height}")
    values = stack[:, start:stop, :].sum(axis=(1, 2))
    total = values.sum()
    if total <= 0.0:
        return np.full(stack.shape[0], 1.0 / stack.shape[0])
    return values / total


def per_map_extract_sgm(image, mask, config, palette):
    """Oracle for ``extract_sgm``'s passes: the per-map chain they replace.

    Each (view, space) map is fitted, mapped by its own single-model
    ``soft_map`` call (its distinct colors gathered back by their own
    ``take``), max-pooled and striped on its own.
    """
    grids, colors = descriptor._convert_all(image, config)
    views = oracle_views(mask, config)
    segments = []
    for _, view_mask in views[:1] if config.euclidean else views:
        for space in config.spaces:
            if config.euclidean:
                model = identity_model(config.epsilon0)
            else:
                model = fit_model(descriptor._masked_pixels(grids[space], view_mask), palette,
                                  config.epsilon0)
            if colors is None:
                weights = soft_map(model, grids[space].points, palette, config.k)
            else:
                points, inverse = colors[space]
                weights = soft_map(model, points, palette, config.k).take(inverse, axis=0)
            stack = weights.reshape(image.height, image.width, 16).transpose(2, 0, 1)
            segments.append(descriptor.stripe_descriptor(descriptor.max_pool(stack),
                                                         config.stripes))
    if config.euclidean:
        segments *= len(views)
    return np.concatenate(segments, axis=None).astype(np.float32)


def sum_estimate_sigma(points, names):
    """Oracle for ``sgm.estimate_sigma``: the pixel sum taken by ``sum(axis=0)``."""
    points = np.asarray(points, dtype=np.float64)
    names = np.asarray(names, dtype=np.float64)
    n = points.shape[0]
    k = names.shape[0]
    sum_z = points.sum(axis=0)
    sum_c = names.sum(axis=0)
    sigma = (
        k * (points.T @ points) + n * (names.T @ names)
        - np.outer(sum_z, sum_c) - np.outer(sum_c, sum_z)
    ) / (k * n)
    return 0.5 * (sigma + sigma.T)


def _oracle_jacobi_refine(a, vecs, sweeps=8):
    """Oracle copy of ``sgm._jacobi_refine`` as it was before the scalar rewrite."""
    v = vecs
    for _ in range(sweeps):
        m = v.T @ a @ v
        off = max(abs(m[0, 1]), abs(m[0, 2]), abs(m[1, 2]))
        scale = max(abs(m[0, 0]), abs(m[1, 1]), abs(m[2, 2]), 1e-300)
        if off <= 1e-15 * scale:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[p, q]
            if apq == 0.0:
                continue
            theta = 0.5 * np.arctan2(2.0 * apq, m[p, p] - m[q, q])
            c, s = np.cos(theta), np.sin(theta)
            rot = np.eye(3)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = -s
            rot[q, p] = s
            v = v @ rot
            m = rot.T @ m @ rot
    m = v.T @ a @ v
    return np.array([m[0, 0], m[1, 1], m[2, 2]]), v


def _oracle_null_vector(m, avoid):
    """Oracle copy of ``sgm._null_vector``: ``np.cross`` and ``np.linalg.norm``."""
    cands = [
        np.cross(m[0], m[1]),
        np.cross(m[0], m[2]),
        np.cross(m[1], m[2]),
    ]
    norms = [np.linalg.norm(c) for c in cands]
    best = int(np.argmax(norms))
    if norms[best] > 1e-14:
        v = cands[best] / norms[best]
        for u in avoid:
            v -= (v @ u) * u
        n = np.linalg.norm(v)
        if n > 1e-8:
            return v / n
    for axis in np.eye(3):
        w = axis.copy()
        for u in avoid:
            w -= (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-8:
            return w / n
    return np.array([1.0, 0.0, 0.0])


def oracle_eig3_symmetric(a):
    """Oracle for ``sgm.eig3_symmetric``: the numpy-array version it replaces."""
    a = np.asarray(a, dtype=np.float64)
    a = 0.5 * (a + a.T)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(3), np.eye(3)
    b = a / scale

    p1 = b[0, 1] ** 2 + b[0, 2] ** 2 + b[1, 2] ** 2
    if p1 == 0.0:
        vals = np.diag(b).copy()
        order = np.argsort(vals, kind="stable")
        return vals[order] * scale, np.eye(3)[:, order]

    q = np.trace(b) / 3.0
    p2 = (b[0, 0] - q) ** 2 + (b[1, 1] - q) ** 2 + (b[2, 2] - q) ** 2 + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    m = (b - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(m) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    vals = np.array([lo, mid, hi])

    gaps = np.array(
        [
            min(abs(vals[0] - vals[1]), abs(vals[0] - vals[2])),
            min(abs(vals[1] - vals[0]), abs(vals[1] - vals[2])),
            min(abs(vals[2] - vals[0]), abs(vals[2] - vals[1])),
        ]
    )
    order = list(np.argsort(-gaps, kind="stable"))
    vecs = [None, None, None]
    found = []
    for idx in order[:2]:
        v = _oracle_null_vector(b - vals[idx] * np.eye(3), found)
        vecs[idx] = v
        found.append(v)
    last = order[2]
    w = np.cross(found[0], found[1])
    n = np.linalg.norm(w)
    vecs[last] = w / n if n > 0 else _oracle_null_vector(b - vals[last] * np.eye(3), found)

    v = np.column_stack(vecs)
    vals, v = _oracle_jacobi_refine(b, v)
    order = np.argsort(vals, kind="stable")
    return vals[order] * scale, v[:, order]


def oracle_views(mask, config):
    views = [("whole", None)]
    if mask is not None and config.use_mask:
        views.append(("foreground", mask))
    return views


def _oracle_stripe_pixel_selector(mask, bounds, width):
    """Per-stripe flat pixel indices; masked stripes fall back to all rows."""
    selectors = []
    for start, stop in bounds:
        rows = np.arange(start, stop)
        if mask is None:
            sel = np.ones((stop - start) * width, dtype=bool)
        else:
            sel = (mask.values[rows, :] == 1).reshape(-1)
            if not sel.any():
                sel = np.ones((stop - start) * width, dtype=bool)
        base = start * width
        selectors.append(base + np.flatnonzero(sel))
    return selectors


def per_stripe_color_histogram(image, mask, config):
    """Oracle for ``extract_color_histogram``: three ``bincount`` calls per stripe.

    Returns the float32 vector and the layout records.
    """
    bounds = stripe_bounds(image.height, config.stripes)
    segments = []
    layout = []
    points = {space: convert(image, space).points for space in config.spaces}
    for view, view_mask in oracle_views(mask, config):
        selectors = _oracle_stripe_pixel_selector(view_mask, bounds, image.width)
        for space in config.spaces:
            for idx, select in enumerate(selectors):
                vals = points[space][select]
                bins = np.minimum((vals * CH_BINS).astype(np.int64), CH_BINS - 1)
                hist = np.concatenate(
                    [np.bincount(bins[:, c], minlength=CH_BINS) for c in range(3)]
                ).astype(np.float64)
                segments.append(hist / hist.sum())
                layout.append(LayoutRecord("CH", space.value, view, idx, 3 * CH_BINS))
    return np.concatenate(segments).astype(np.float32), tuple(layout)


def padded_siltp_codes(gray, tau=SILTP_TAU):
    """Oracle for ``siltp_codes``: ``np.pad`` edges and a nested ``np.where``
    per neighbor, the comparison above taking precedence."""
    padded = np.pad(gray, 1, mode="edge")
    upper = (1.0 + tau) * gray
    lower = (1.0 - tau) * gray
    code = np.zeros(gray.shape, dtype=np.int64)
    neighbors = (
        padded[:-2, 1:-1],  # north
        padded[1:-1, 2:],   # east
        padded[2:, 1:-1],   # south
        padded[1:-1, :-2],  # west
    )
    weight = 1
    for nb in neighbors:
        code += weight * np.where(nb > upper, 1, np.where(nb < lower, 2, 0))
        weight *= 3
    return code


def per_stripe_siltp(image, mask, config):
    """Oracle for ``extract_siltp``: ``padded_siltp_codes`` and one
    ``bincount`` per stripe.

    Returns the float32 vector and the layout records.
    """
    gray = image.pixels.astype(np.float64).sum(axis=2) / (3.0 * 255.0)
    codes = padded_siltp_codes(gray).reshape(-1)
    bounds = stripe_bounds(image.height, config.stripes)
    segments = []
    layout = []
    for view, view_mask in oracle_views(mask, config):
        selectors = _oracle_stripe_pixel_selector(view_mask, bounds, image.width)
        for idx, select in enumerate(selectors):
            hist = np.bincount(codes[select], minlength=SILTP_CODES).astype(np.float64)
            segments.append(hist / hist.sum())
            layout.append(LayoutRecord("SILTP", None, view, idx, SILTP_CODES))
    return np.concatenate(segments).astype(np.float32), tuple(layout)


def per_split_eval_csv(reps, models, manifest, splits, probe_camera, protocol, ranks):
    """Oracle for ``eval``: each split gathers and projects its own test rows
    per model, then scores them.  Returns the CSV report."""
    gallery_camera = "B" if probe_camera == "A" else "A"
    curves = []
    for split in splits:
        probe_entries = manifest.rows(camera=probe_camera, ids=split.test_ids)
        gallery_entries = manifest.rows(camera=gallery_camera, ids=split.test_ids)
        probe_rows = reps.rows([e.image_path for e in probe_entries])
        gallery_rows = reps.rows([e.image_path for e in gallery_entries])
        total = None
        for kind, model in models.items():
            offset, length = feature_span(reps.layout, kind)
            block = reps.matrix[:, offset : offset + length]
            probes = ccl.project(model, block[probe_rows], probe_camera)
            gallery = ccl.project(model, block[gallery_rows], gallery_camera)
            scores = ccl.score_matrix(model, gallery, probes)
            total = scores if total is None else total + scores
        cmc = evalkit.cmc_single_shot if protocol == "single" else evalkit.cmc_multi_shot
        curves.append(cmc(total, [e.person_id for e in probe_entries],
                          [e.person_id for e in gallery_entries]))
    return evalkit.report(curves, ranks).to_csv()


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="session")
def palette():
    return default_palette()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[{status}] {name}", flush=True)
