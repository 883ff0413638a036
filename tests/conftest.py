"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from reid_sgm.imaging import ForegroundMask, RasterImage
from reid_sgm.sgm import default_palette


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
