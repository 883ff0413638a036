"""Image/mask decoding and color-space conversion."""

import colorsys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reid_sgm.errors import (
    CorruptFile,
    DimensionMismatch,
    DimensionOverflow,
    UnsupportedFormat,
)
from reid_sgm.imaging import (
    ALL_SPACES,
    ColorSpace,
    ForegroundMask,
    RasterImage,
    load_image,
    load_mask,
    write_pgm,
    write_ppm,
    convert,
)

from conftest import (
    assert_bitwise_equal,
    branching_to_hsv,
    branching_to_l1l2l3,
    branching_to_normalized_rgb,
    make_image,
    solid_image,
)


def ppm_bytes(width, height, payload, maxval=255, magic=b"P6"):
    return magic + b"\n%d %d\n%d\n" % (width, height, maxval) + payload


class TestLoadImage:
    def test_two_pixel_passthrough(self, tmp_path):
        path = tmp_path / "two.ppm"
        path.write_bytes(ppm_bytes(2, 1, bytes([255, 0, 0, 0, 0, 255])))
        img = load_image(path)
        assert (img.width, img.height) == (2, 1)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]
        assert img.pixels[0, 1].tolist() == [0, 0, 255]

    def test_pedestrian_crop_shaped_image(self, tmp_path):
        img = make_image(48, 128, seed=5)
        path = tmp_path / "img.ppm"
        write_ppm(path, img.pixels)
        loaded = load_image(path)
        assert loaded.width * loaded.height == 6144
        assert np.array_equal(loaded.pixels, img.pixels)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "zero.ppm"
        path.write_bytes(ppm_bytes(0, 0, b""))
        with pytest.raises(CorruptFile):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(ppm_bytes(4, 4, b"\x00" * 10))
        with pytest.raises(CorruptFile):
            load_image(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(ppm_bytes(10000, 10000, b""))
        with pytest.raises(DimensionOverflow):
            load_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(UnsupportedFormat):
            load_image(path)

    def test_p5_is_not_an_image(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_pgm(path, np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(UnsupportedFormat):
            load_image(path)

    def test_maxval_must_be_255(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(ppm_bytes(1, 1, b"\x00" * 6, maxval=65535))
        with pytest.raises(UnsupportedFormat):
            load_image(path)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03")
        img = load_image(path)
        assert img.pixels[0, 0].tolist() == [1, 2, 3]

    def test_png_roundtrip(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = make_image(9, 7, seed=2)
        path = tmp_path / "img.png"
        PIL.fromarray(img.pixels, mode="RGB").save(path)
        loaded = load_image(path)
        assert np.array_equal(loaded.pixels, img.pixels)


class TestLoadMask:
    def test_all_white_is_all_ones(self, tmp_path):
        img = make_image(6, 4)
        path = tmp_path / "m.pgm"
        write_pgm(path, np.full((4, 6), 255, dtype=np.uint8))
        mask = load_mask(path, img)
        assert mask.values.all()

    def test_all_black_is_all_zeros(self, tmp_path):
        img = make_image(6, 4)
        path = tmp_path / "m.pgm"
        write_pgm(path, np.zeros((4, 6), dtype=np.uint8))
        mask = load_mask(path, img)
        assert not mask.values.any()

    def test_threshold_at_127(self, tmp_path):
        img = make_image(2, 1)
        path = tmp_path / "m.pgm"
        write_pgm(path, np.array([[127, 128]], dtype=np.uint8))
        mask = load_mask(path, img)
        assert mask.values.tolist() == [[0, 1]]

    def test_dimension_mismatch(self, tmp_path):
        img = make_image(128, 48)
        path = tmp_path / "m.pgm"
        write_pgm(path, np.zeros((48, 64), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            load_mask(path, img)

    def test_ppm_is_not_a_mask(self, tmp_path):
        img = make_image(2, 2)
        path = tmp_path / "img.ppm"
        write_ppm(path, img.pixels)
        with pytest.raises(UnsupportedFormat):
            load_mask(path, img)


def scalar_l1l2l3(r, g, b):
    """Independent per-pixel reference for the photometric-invariant space."""
    rg = (r - g) ** 2
    rb = (r - b) ** 2
    gb = (g - b) ** 2
    denom = rg + rb + gb
    if denom == 0:
        return (1 / 3, 1 / 3, 1 / 3)
    return (rg / denom, rb / denom, gb / denom)


class TestConvert:
    def test_gray_normalized_rgb(self):
        img = solid_image(2, 2, (128, 128, 128))
        pts = convert(img, ColorSpace.NORMALIZED_RGB).points
        assert np.allclose(pts, 1 / 3)

    def test_pure_red_hsv(self):
        img = solid_image(1, 1, (255, 0, 0))
        pts = convert(img, ColorSpace.HSV).points
        assert np.allclose(pts[0], [0.0, 1.0, 1.0])

    def test_achromatic_l1l2l3(self):
        img = solid_image(1, 1, (10, 10, 10))
        pts = convert(img, ColorSpace.L1L2L3).points
        assert np.allclose(pts[0], 1 / 3)

    def test_black_pixels_stay_in_range(self):
        img = solid_image(1, 1, (0, 0, 0))
        assert np.allclose(convert(img, ColorSpace.NORMALIZED_RGB).points[0], 1 / 3)
        assert np.allclose(convert(img, ColorSpace.HSV).points[0], [0, 0, 0])

    def test_l1l2l3_matches_scalar_reference(self):
        grid = np.arange(0, 256, 51)
        values = [(r, g, b) for r in grid for g in grid for b in grid]
        pixels = np.array(values, dtype=np.uint8).reshape(len(values), 1, 3)
        img_pixels = pixels.reshape(-1, 1, 3)
        from reid_sgm.imaging import RasterImage

        img = RasterImage(width=1, height=len(values), pixels=img_pixels)
        pts = convert(img, ColorSpace.L1L2L3).points
        for i, (r, g, b) in enumerate(values):
            ref = scalar_l1l2l3(r / 255.0, g / 255.0, b / 255.0)
            assert pts[i] == pytest.approx(ref, abs=1e-12)

    def test_hsv_matches_colorsys(self):
        img = make_image(16, 16, seed=9)
        pts = convert(img, ColorSpace.HSV).points
        flat = img.pixels.reshape(-1, 3).astype(np.float64) / 255.0
        for got, (r, g, b) in zip(pts, flat):
            assert got == pytest.approx(colorsys.rgb_to_hsv(r, g, b), abs=1e-12)

    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_total_and_in_range(self, space):
        # every 8-bit RGB input converts, components stay within [0, 1]
        img = make_image(64, 64, seed=space.value.__hash__() % 100)
        pts = convert(img, space).points
        assert np.isfinite(pts).all()
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    @pytest.mark.parametrize("space", ALL_SPACES)
    def test_all_ones_mask_equals_no_mask(self, space):
        img = make_image(10, 12, seed=3)
        ones = ForegroundMask(width=10, height=12, values=np.ones((12, 10), dtype=np.uint8))
        assert np.array_equal(convert(img, space).points, convert(img, space, ones).points)

    def test_empty_mask_fallback(self):
        img = make_image(4, 4, seed=1)
        empty = ForegroundMask(width=4, height=4, values=np.zeros((4, 4), dtype=np.uint8))
        pts = convert(img, ColorSpace.RGB, empty).points
        assert pts.shape == (16, 3)

    def test_mask_selects_subset(self):
        img = make_image(4, 2, seed=4)
        values = np.zeros((2, 4), dtype=np.uint8)
        values[0, 1] = 1
        values[1, 3] = 1
        mask = ForegroundMask(width=4, height=2, values=values)
        pts = convert(img, ColorSpace.RGB, mask).points
        flat = img.pixels.reshape(-1, 3) / 255.0
        assert np.allclose(pts, flat[[1, 7]])


@settings(max_examples=60, deadline=None)
@given(
    rgb=st.tuples(
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
    ),
    space=st.sampled_from(ALL_SPACES),
)
def test_convert_single_pixel_in_unit_cube(rgb, space):
    img = solid_image(1, 1, rgb)
    pts = convert(img, space).points
    assert np.isfinite(pts).all()
    assert (pts >= 0.0).all() and (pts <= 1.0).all()


def oracle_test_colors():
    """An RGB lattice plus every gray (black and white included) and every
    color with exactly two equal channels, where the converters branch."""
    levels = np.arange(0, 256, 15)
    lattice = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1).reshape(-1, 3)
    grays = np.repeat(np.arange(256)[:, None], 3, axis=1)
    a, b = (x.reshape(-1) for x in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
    a, b = a[a != b], b[a != b]
    ties = np.concatenate([np.stack(t, axis=1) for t in ((a, a, b), (a, b, a), (b, a, a))])
    return np.concatenate([lattice, grays, ties]).astype(np.uint8)


@pytest.mark.parametrize(
    "space, oracle",
    [
        (ColorSpace.NORMALIZED_RGB, branching_to_normalized_rgb),
        (ColorSpace.L1L2L3, branching_to_l1l2l3),
        (ColorSpace.HSV, branching_to_hsv),
    ],
)
def test_converters_match_branching_oracles(space, oracle):
    colors = oracle_test_colors()
    image = RasterImage(width=colors.shape[0], height=1, pixels=colors[None])
    points = convert(image, space).points
    assert points.flags.c_contiguous
    assert_bitwise_equal(points, oracle(colors.astype(np.float64) / 255.0))
