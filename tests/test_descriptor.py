"""Representation pipeline: maps, pooling, stripes, histograms, fusion."""

import csv
import struct
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reid_sgm.errors import (
    ArtifactMismatch,
    CorruptFile,
    DimensionMismatch,
    EmptyStripe,
    StackTooSmall,
    UnsupportedFormat,
)
from reid_sgm import __version__, descriptor
from reid_sgm.descriptor import (
    DISTINCT_COLOR_SHARE,
    SILTP_CODES,
    SILTP_TAU,
    DescriptorSet,
    ExtractionConfig,
    ImageRepresentation,
    LayoutRecord,
    build_maps,
    distinct_colors,
    export_csv,
    extract_color_histogram,
    extract_features,
    extract_sgm,
    extract_siltp,
    feature_span,
    fuse,
    load_descriptors,
    max_pool,
    save_descriptors,
    siltp_codes,
    stripe_bounds,
    stripe_descriptor,
)
from reid_sgm.imaging import ColorSpace, ForegroundMask, RasterImage, convert
from reid_sgm.sgm import ColorNamePalette, default_palette, fit_model, identity_model, parse_palette

from conftest import (
    argsort_soft_map,
    assert_bitwise_equal,
    make_image,
    make_mask,
    oracle_views,
    padded_siltp_codes,
    per_map_extract_sgm,
    per_stripe_color_histogram,
    per_stripe_descriptor,
    per_stripe_siltp,
    reduceat_max_pool,
    solid_image,
)


def brute_force_pool(plane):
    """Window-by-window reimplementation of the 3x3/stride-3 max pool."""
    h, w = plane.shape
    out = np.empty((-(-h // 3), -(-w // 3)))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] = plane[3 * i : 3 * i + 3, 3 * j : 3 * j + 3].max()
    return out


def fitted(image, space, palette, mask=None):
    """The (space, model) pair ``build_maps`` takes, fitted on the masked pixels."""
    return space, fit_model(convert(image, space, mask), palette)


class TestBuildMaps:
    def test_uniform_image_gives_uniform_maps(self, palette):
        img = solid_image(6, 33, (200, 40, 90))
        stack = build_maps(img, [fitted(img, ColorSpace.RGB, palette)], palette, k=5)[0]
        assert stack.shape == (16, 33, 6)
        first = stack[:, 0, 0]
        assert np.allclose(stack, first[:, None, None])

    def test_palette_color_k1_is_one_hot_plane(self, palette):
        j = 4  # pure red in the shipped palette
        rgb = tuple(int(round(v * 255)) for v in palette.names[j])
        img = solid_image(5, 30, rgb)
        stack = build_maps(img, [fitted(img, ColorSpace.RGB, palette)], palette, k=1)[0]
        assert np.allclose(stack[j], 1.0)
        others = np.delete(np.arange(16), j)
        assert np.allclose(stack[others], 0.0)

    def test_per_location_sums_to_one(self, palette):
        img = make_image(9, 31, seed=8)
        stack = build_maps(img, [fitted(img, ColorSpace.HSV, palette)], palette, k=5)[0]
        sums = stack.sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_mask_changes_fit_not_grid(self, palette):
        img = make_image(9, 31, seed=8)
        mask = make_mask(9, 31, border=3)
        whole = build_maps(img, [fitted(img, ColorSpace.RGB, palette)], palette, k=5)[0]
        masked = build_maps(img, [fitted(img, ColorSpace.RGB, palette, mask)], palette, k=5)[0]
        assert whole.shape == masked.shape
        assert not np.array_equal(whole, masked)


class TestMaxPool:
    def test_single_patch_takes_maximum(self):
        plane = np.array([[0.4, 0.35, 0.3], [0.1, 0.2, 0.15], [0.05, 0.3, 0.25]])
        stack = plane[None]
        assert max_pool(stack)[0].tolist() == [[0.4]]

    def test_constant_plane(self):
        stack = np.full((2, 6, 9), 0.125)
        assert np.allclose(max_pool(stack), 0.125)

    def test_remainder_windows(self, rng):
        stack = rng.random((16, 4, 4))
        pooled = max_pool(stack)
        assert pooled.shape == (16, 2, 2)
        for p in range(16):
            assert np.array_equal(pooled[p], brute_force_pool(stack[p]))

    def test_matches_brute_force_on_odd_shapes(self, rng):
        for h, w in [(3, 3), (5, 7), (10, 8), (12, 12), (13, 5)]:
            stack = rng.random((4, h, w))
            pooled = max_pool(stack)
            for p in range(4):
                assert np.array_equal(pooled[p], brute_force_pool(stack[p]))

    def test_bounded_by_plane_extremes(self, rng):
        stack = rng.random((16, 30, 12))
        pooled = max_pool(stack)
        assert pooled.max() <= stack.max()
        assert pooled.min() >= stack.min()

    def test_too_small(self):
        with pytest.raises(StackTooSmall):
            max_pool(np.zeros((16, 2, 9)))

    @pytest.mark.parametrize("h, w", [(3, 3), (5, 7), (40, 17), (128, 48)])
    def test_channel_last_view_matches_oracle_and_is_contiguous(self, rng, h, w):
        # build_maps returns the (16, h, w) stack as a view of (h*w, 16) weights
        weights = rng.random((h * w, 16))
        stack = weights.reshape(h, w, 16).transpose(2, 0, 1)
        pooled = max_pool(stack)
        assert pooled.flags.c_contiguous
        assert_bitwise_equal(pooled, reduceat_max_pool(np.ascontiguousarray(stack)))


class TestStripeDescriptor:
    def test_one_hot_stack(self):
        stack = np.zeros((16, 6, 4))
        stack[3] = 1.0
        rows = stripe_descriptor(stack, 2)
        assert rows.shape == (2, 16)
        assert (rows[:, 3] == 1.0).all() and (rows.sum(axis=1) == 1.0).all()

    def test_two_cells_sum_then_normalize(self, rng):
        a, b = rng.random(16), rng.random(16)
        stack = np.stack([a, b], axis=1)[:, :, None]  # (16, 2, 1)
        (vec,) = stripe_descriptor(stack, 1)
        ref = (a + b) / (a + b).sum()
        assert np.allclose(vec, ref, rtol=1e-12)

    def test_scalar_chain_oracle(self, rng):
        # max -> sum -> normalize recomputed with plain python loops
        stack = rng.random((16, 12, 6))
        pooled = max_pool(stack)
        vec = stripe_descriptor(pooled, 2)[0]  # pooled rows 0 and 1
        totals = []
        for p in range(16):
            total = 0.0
            for i in range(2):
                for j in range(pooled.shape[2]):
                    window = stack[p, 3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                    total += max(window.reshape(-1))
            totals.append(total)
        ref = np.array(totals) / sum(totals)
        assert np.allclose(vec, ref, rtol=1e-12)

    def test_zero_stripe_goes_uniform(self, rng):
        stack = rng.random((16, 3, 3))
        stack[:, 1] = 0.0
        rows = stripe_descriptor(stack, 3)
        assert (rows[1] == 1.0 / 16.0).all()
        assert_bitwise_equal(rows[0], per_stripe_descriptor(stack, (0, 1)))

    def test_empty_range(self):
        # more stripes than rows leaves a stripe with no row
        with pytest.raises(EmptyStripe):
            stripe_descriptor(np.zeros((16, 3, 3)), 4)


@st.composite
def striped_stack(draw):
    """A stack, possibly a non-contiguous view, with a stripe count from 1 to
    its height; some stripes may be all zero and some heights leave remainder rows."""
    planes = draw(st.sampled_from([1, 3, 16]))
    height = draw(st.integers(1, 45))
    width = draw(st.integers(1, 17))
    stripes = draw(st.integers(1, height))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stack = rng.random((planes, height, width)) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    stack[:, draw(st.lists(st.integers(0, height - 1), max_size=height))] = 0.0
    layout = draw(st.sampled_from(["c", "channel_last", "strided"]))
    if layout == "channel_last":  # the layout of build_maps's stacks
        stack = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
    elif layout == "strided":
        wide = np.zeros((planes, height, 2 * width))
        wide[:, :, ::2] = stack
        stack = wide[:, :, ::2]
    return stack, stripes


@settings(max_examples=200, deadline=None)
@given(case=striped_stack())
def test_stripe_descriptor_matches_per_stripe_oracle(case):
    stack, stripes = case
    rows = stripe_descriptor(stack, stripes)
    contiguous = np.ascontiguousarray(stack)
    expected = np.stack([per_stripe_descriptor(contiguous, bounds)
                         for bounds in stripe_bounds(stack.shape[1], stripes)])
    assert_bitwise_equal(rows, expected)


class TestStripeBounds:
    def test_remainder_joins_last(self):
        bounds = stripe_bounds(43, 10)
        assert bounds[0] == (0, 4)
        assert bounds[-1] == (36, 43)
        assert len(bounds) == 10

    def test_too_short(self):
        with pytest.raises(EmptyStripe):
            stripe_bounds(9, 10)


class TestExtractSgm:
    def test_masked_dimension(self, palette):
        img = make_image(48, 128, seed=10)
        mask = make_mask(48, 128)
        rep = extract_sgm(img, mask, ExtractionConfig(), palette=palette)
        assert rep.dim == 1280
        assert len(rep.layout) == 80
        assert all(rec.length == 16 for rec in rep.layout)

    def test_unmasked_dimension(self, palette):
        img = make_image(48, 128, seed=10)
        rep = extract_sgm(img, None, ExtractionConfig(), palette=palette)
        assert rep.dim == 640
        assert {rec.view for rec in rep.layout} == {"whole"}

    def test_every_segment_is_normalized(self, palette):
        img = make_image(48, 128, seed=11)
        rep = extract_sgm(img, make_mask(48, 128), ExtractionConfig(), palette=palette)
        sums = rep.vector.reshape(-1, 16).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-6  # float32 storage

    def test_concatenation_order(self, palette):
        img = make_image(48, 128, seed=12)
        mask = make_mask(48, 128)
        config = ExtractionConfig()
        rep = extract_sgm(img, mask, config, palette=palette)
        expected = []
        for view in ("whole", "foreground"):
            for space in config.spaces:
                for stripe in range(10):
                    expected.append((view, space.value, stripe))
        got = [(rec.view, rec.space, rec.stripe) for rec in rep.layout]
        assert got == expected

    def test_all_ones_mask_equals_whole_view(self, palette):
        img = make_image(24, 60, seed=13)
        ones = ForegroundMask(width=24, height=60, values=np.ones((60, 24), dtype=np.uint8))
        rep = extract_sgm(img, ones, ExtractionConfig(), palette=palette)
        half = rep.dim // 2
        assert np.array_equal(rep.vector[:half], rep.vector[half:])

    def test_deterministic(self, palette):
        img = make_image(48, 128, seed=14)
        mask = make_mask(48, 128)
        a = extract_sgm(img, mask, ExtractionConfig(), palette=palette)
        b = extract_sgm(img, mask, ExtractionConfig(), palette=palette)
        assert np.array_equal(a.vector, b.vector)

    def test_palette_permutation_equivariance(self, palette, rng):
        img = make_image(12, 33, seed=15)
        perm = rng.permutation(16)
        permuted = ColorNamePalette(
            names=palette.names[perm].copy(),
            labels=tuple(palette.labels[i] for i in perm),
        )
        base = extract_sgm(img, None, ExtractionConfig(), palette=palette)
        swapped = extract_sgm(img, None, ExtractionConfig(), palette=permuted)
        a = base.vector.reshape(-1, 16)
        b = swapped.vector.reshape(-1, 16)
        assert np.array_equal(a[:, perm], b)

    def test_default_palette_equals_a_parsed_copy(self):
        text = resources.files("reid_sgm").joinpath("data/colornames16.txt").read_text()
        parsed = parse_palette(text)
        assert parsed is not default_palette()
        img = make_image(18, 48, seed=21)
        config = ExtractionConfig(features=("SGM", "CH", "SILTP"))
        implicit = extract_features(img, make_mask(18, 48, border=3), config)
        explicit = extract_features(img, make_mask(18, 48, border=3), config, palette=parsed)
        assert_bitwise_equal(implicit.vector, explicit.vector)

    def test_euclidean_variant_differs(self, palette):
        img = make_image(12, 33, seed=16)
        fit = extract_sgm(img, None, ExtractionConfig(), palette=palette)
        euclid = extract_sgm(img, None, ExtractionConfig(euclidean=True), palette=palette)
        assert fit.dim == euclid.dim
        assert not np.array_equal(fit.vector, euclid.vector)


@pytest.mark.parametrize("field, value, message", [
    ("features", ("SGM", "CH", "SGM"), "features: 'SGM' is repeated"),
    ("spaces", (ColorSpace.HSV, ColorSpace.RGB, ColorSpace.HSV), "spaces: 'HSV' is repeated"),
    ("features", (), "features: none given"),
    ("spaces", (), "spaces: none given"),
])
def test_config_rejects_repeated_or_missing_kinds_and_spaces(field, value, message):
    # A repeat would extract its block twice; an empty tuple, no block.
    with pytest.raises(ValueError, match=message):
        ExtractionConfig(**{field: value})


class TestColorHistogram:
    def test_uniform_image_single_bin(self, palette):
        img = solid_image(8, 30, (10, 10, 10))
        config = ExtractionConfig(spaces=(ColorSpace.RGB,))
        rep = extract_color_histogram(img, None, config)
        block = rep.vector.reshape(-1, 48)
        for stripe in block:
            channels = stripe.reshape(3, 16)
            for ch in channels:
                assert np.count_nonzero(ch) == 1
                assert ch.sum() == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_masked_dimension(self, palette):
        img = make_image(48, 128, seed=18)
        rep = extract_color_histogram(img, make_mask(48, 128), ExtractionConfig())
        assert rep.dim == 48 * 10 * 4 * 2 == 3840

    def test_stripes_normalized(self, palette):
        img = make_image(48, 128, seed=19)
        rep = extract_color_histogram(img, make_mask(48, 128), ExtractionConfig())
        sums = rep.vector.reshape(-1, 48).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-6
        assert (rep.vector >= 0).all()


class TestSiltp:
    def test_constant_image_one_hot(self):
        img = solid_image(6, 30, (77, 77, 77))
        rep = extract_siltp(img, None, ExtractionConfig())
        block = rep.vector.reshape(-1, 81)
        assert np.allclose(block[:, 0], 1.0)
        assert np.allclose(block[:, 1:], 0.0)

    def test_masked_dimension(self):
        img = make_image(48, 128, seed=20)
        rep = extract_siltp(img, make_mask(48, 128), ExtractionConfig())
        assert rep.dim == 81 * 10 * 2 == 1620

    def test_stripes_normalized(self):
        img = make_image(48, 128, seed=21)
        rep = extract_siltp(img, make_mask(48, 128), ExtractionConfig())
        sums = rep.vector.reshape(-1, 81).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-6

    def test_codes_against_scalar_reference(self, rng):
        gray = rng.random((7, 5))
        codes = siltp_codes(gray, tau=0.3)
        padded = np.pad(gray, 1, mode="edge")
        for i in range(7):
            for j in range(5):
                c = gray[i, j]
                digits = []
                for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1)):
                    nb = padded[i + 1 + di, j + 1 + dj]
                    if nb > 1.3 * c:
                        digits.append(1)
                    elif nb < 0.7 * c:
                        digits.append(2)
                    else:
                        digits.append(0)
                ref = digits[0] + 3 * digits[1] + 9 * digits[2] + 27 * digits[3]
                assert codes[i, j] == ref

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 2), (7, 5)])
    @pytest.mark.parametrize("sign", ["positive", "negative", "mixed", "zero"])
    def test_codes_match_padded_oracle(self, rng, shape, sign):
        # a negative center can make both comparisons hold: digit 1 wins
        gray = {"positive": rng.random(shape), "negative": -rng.random(shape),
                "mixed": rng.normal(size=shape), "zero": np.zeros(shape)}[sign]
        codes = siltp_codes(gray)
        assert_bitwise_equal(codes, padded_siltp_codes(gray))
        assert 0 <= codes.min() and codes.max() < SILTP_CODES

    @pytest.mark.parametrize("center", [0.5, 0.3, -0.5, -0.3])
    def test_codes_at_exact_thresholds_match_padded_oracle(self, center):
        # neighbors equal to (1 + tau) c and (1 - tau) c, rounded as the code
        # rounds them, compare neither above nor below
        upper, lower = (1.0 + SILTP_TAU) * center, (1.0 - SILTP_TAU) * center
        gray = np.array([[center, upper, center], [lower, center, upper],
                         [center, lower, center]])
        codes = siltp_codes(gray)
        assert_bitwise_equal(codes, padded_siltp_codes(gray))
        if center > 0:
            assert codes[1, 1] == 0


@pytest.mark.parametrize("kind", ["SGM", "CH", "SILTP"])
def test_mask_of_another_size_is_rejected(palette, kind):
    """Every feature checks that the mask has the image's width and height."""
    image = make_image(18, 48, seed=4)
    with pytest.raises(DimensionMismatch, match="mask is 10x48 but image is 18x48"):
        extract_features(image, make_mask(10, 48), ExtractionConfig(features=(kind,)),
                         palette=palette)


@pytest.mark.parametrize("kind", ["SGM", "CH", "SILTP", "SGM-euclidean"])
def test_transposed_mask_is_rejected(palette, kind):
    """A mask with the image's pixel count but not its shape is rejected, as by
    ``convert``, also where SGM fits no model on it."""
    image = make_image(18, 48, seed=4)
    mask = ForegroundMask(width=48, height=18, values=np.ones((18, 48), np.uint8))
    config = ExtractionConfig(features=(kind.split("-")[0],), euclidean=kind == "SGM-euclidean")
    with pytest.raises(DimensionMismatch, match="mask is 48x18 but image is 18x48"):
        extract_features(image, mask, config, palette=palette)


class TestFuse:
    def test_singleton(self, palette):
        img = make_image(12, 33, seed=22)
        rep = extract_sgm(img, None, ExtractionConfig(), palette=palette)
        fused = fuse([rep])
        assert np.array_equal(fused.vector, rep.vector)
        assert fused.layout == rep.layout

    def test_three_projected_features(self):
        made = []
        for kind in ("SGM", "CH", "SILTP"):
            made.append(
                ImageRepresentation(
                    vector=np.zeros(100, dtype=np.float32),
                    layout=(LayoutRecord(kind=kind, space=None, view="projected",
                                         stripe=0, length=100),),
                )
            )
        fused = fuse(made)
        assert fused.dim == 300
        assert [rec.kind for rec in fused.layout] == ["SGM", "CH", "SILTP"]

    def test_feature_span(self, palette):
        img = make_image(48, 128, seed=23)
        config = ExtractionConfig(features=("SGM", "CH", "SILTP"))
        rep = extract_features(img, make_mask(48, 128), config, palette=palette)
        assert rep.dim == 1280 + 3840 + 1620
        assert feature_span(rep.layout, "SGM") == (0, 1280)
        assert feature_span(rep.layout, "CH") == (1280, 3840)
        assert feature_span(rep.layout, "SILTP") == (1280 + 3840, 1620)
        with pytest.raises(ArtifactMismatch):
            feature_span(rep.layout[:10], "CH")


class TestPersistence:
    def make_set(self, palette, n=3):
        config = ExtractionConfig(spaces=(ColorSpace.RGB, ColorSpace.HSV))
        reps = [extract_sgm(make_image(12, 33, seed=30 + i), None, config, palette=palette)
                for i in range(n)]
        return DescriptorSet(matrix=np.vstack([rep.vector for rep in reps]),
                             layout=reps[0].layout, source_ids=tuple(f"img{i}" for i in range(n)))

    def test_roundtrip_bitwise(self, tmp_path, palette):
        saved = self.make_set(palette)
        path = tmp_path / "d.sgmd"
        save_descriptors(path, saved)
        loaded = load_descriptors(path)
        assert loaded.matrix.shape == saved.matrix.shape
        assert np.array_equal(saved.matrix, loaded.matrix)
        assert saved.matrix.dtype == loaded.matrix.dtype == np.float32
        assert saved.layout == loaded.layout
        assert saved.source_ids == loaded.source_ids
        assert not loaded.matrix.flags.writeable
        with pytest.raises(ValueError):
            loaded.matrix[0, 0] = 1.0

    def test_rewrite_is_bitwise_stable(self, tmp_path, palette):
        p1, p2 = tmp_path / "a.sgmd", tmp_path / "b.sgmd"
        save_descriptors(p1, self.make_set(palette))
        save_descriptors(p2, load_descriptors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_payload_is_not_copied(self, tmp_path):
        # Saving makes no copy of the float32 matrix and loading none of
        # the file's bytes: each peaks well under two matrices.
        count, dim = 64, 8192
        matrix = np.random.default_rng(0).random((count, dim), dtype=np.float32)
        layout = (LayoutRecord(kind="SGM", space="RGB", view="whole", stripe=0, length=dim),)
        descriptors = DescriptorSet(matrix=matrix, layout=layout,
                                    source_ids=tuple(f"img{i}" for i in range(count)))
        path = tmp_path / "d.sgmd"
        for step in (lambda: save_descriptors(path, descriptors), lambda: load_descriptors(path)):
            tracemalloc.start()
            try:
                step()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * matrix.nbytes
        assert np.array_equal(load_descriptors(path).matrix, matrix)

    def test_provenance_round_trips(self, tmp_path, palette):
        good = self.make_set(palette)
        saved = DescriptorSet(matrix=good.matrix, layout=good.layout, source_ids=good.source_ids,
                              provenance={"config": {"k": 5}})
        path = tmp_path / "d.sgmd"
        save_descriptors(path, saved)
        assert load_descriptors(path).provenance == {"version": __version__, "config": {"k": 5}}

    def test_version_1_refused(self, tmp_path):
        # Version 1 keyed rows by absolute paths and recorded no provenance.
        path = tmp_path / "d.sgmd"
        path.write_bytes(b"SGMD" + struct.pack("<HII", 1, 1, 2) + bytes(8)
                         + b'{"layout": [], "source_ids": ["/corpus/a.ppm"]}')
        with pytest.raises(UnsupportedFormat,
                           match="unsupported version 1; re-extract the descriptors"):
            load_descriptors(path)

    def test_bad_magic_rejected(self, tmp_path, palette):
        path = tmp_path / "d.sgmd"
        save_descriptors(path, self.make_set(palette))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            load_descriptors(path)

    def test_truncated_payload_rejected(self, tmp_path, palette):
        path = tmp_path / "d.sgmd"
        save_descriptors(path, self.make_set(palette))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptFile):
            load_descriptors(path)

    def test_repeated_source_id_rejected(self, palette):
        good = self.make_set(palette)
        with pytest.raises(ArtifactMismatch, match="repeats a source id"):
            DescriptorSet(matrix=good.matrix, layout=good.layout,
                          source_ids=("img0", "img1", "img0"))

    @pytest.mark.parametrize("change, message", [
        (lambda m, lay, ids: (m[:0], lay, ()), "holds no rows"),
        (lambda m, lay, ids: (m, lay[:-1], ids), "layout does not cover dim"),
        (lambda m, lay, ids: (m, lay, ids[:-1]), "needs 3 string source ids"),
        (lambda m, lay, ids: (m, lay, (*ids[:-1], 7)), "needs 3 string source ids"),
    ])
    def test_set_checks_its_invariants(self, palette, change, message):
        good = self.make_set(palette)
        matrix, layout, ids = change(good.matrix, good.layout, good.source_ids)
        with pytest.raises(ArtifactMismatch, match=message):
            DescriptorSet(matrix=matrix, layout=layout, source_ids=ids)

    def test_csv_export(self, tmp_path, palette):
        descriptors = self.make_set(palette, n=2)
        path = tmp_path / "d.csv"
        export_csv(path, descriptors)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "source_id"
        assert len(header) == 1 + descriptors.matrix.shape[1]
        assert header[1].startswith("SGM/RGB/whole/stripe00/")
        row = lines[1].split(",")
        assert row[0] == "img0"
        first = descriptors.matrix[0]
        assert np.allclose([float(v) for v in row[1:]], first, rtol=1e-6)
        # A plain id is written unquoted, each value as %.9g.
        assert lines[1] == "img0," + ",".join("%.9g" % v for v in first)

    def test_csv_export_quotes_a_source_id(self, tmp_path, palette):
        one = self.make_set(palette, n=1)
        odd = 'c,1/"cam A"/0.ppm'
        path = tmp_path / "d.csv"
        export_csv(path, DescriptorSet(matrix=one.matrix, layout=one.layout, source_ids=(odd,)))
        with open(path, newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert len(header) == len(row) == 1 + one.matrix.shape[1]
        assert row[0] == odd


@settings(max_examples=40, deadline=None)
@given(
    stack=arrays(
        np.float64,
        st.tuples(st.just(4), st.integers(3, 20), st.integers(3, 20)),
        elements=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0, allow_nan=False),
    )
)
def test_pooling_never_leaves_window_range(stack):
    pooled = max_pool(stack)
    for p in range(stack.shape[0]):
        assert np.array_equal(pooled[p], brute_force_pool(stack[p]))
    assert_bitwise_equal(pooled, reduceat_max_pool(stack))


def per_view_convert_sgm(image, mask, config, palette):
    """Oracle for ``extract_sgm``: converts every (view, space) afresh,
    selects the top k by stable argsort and pools by ``reduceat``."""
    segments = []
    for _, view_mask in oracle_views(mask, config):
        for space in config.spaces:
            if config.euclidean:
                model = identity_model(config.epsilon0)
            else:
                model = fit_model(convert(image, space, view_mask), palette, config.epsilon0)
            weights = argsort_soft_map(model, convert(image, space).points, palette, config.k)
            stack = weights.reshape(image.height, image.width, 16).transpose(2, 0, 1)
            pooled = reduceat_max_pool(np.ascontiguousarray(stack))
            for bounds in stripe_bounds(pooled.shape[1], config.stripes):
                segments.append(per_stripe_descriptor(pooled, bounds))
    return np.concatenate(segments).astype(np.float32)


def posterized_image(width, height, seed=0):
    """Few distinct colors, so pixels and palette distances tie often."""
    rng = np.random.default_rng(seed)
    levels = np.array([0, 64, 128, 255], dtype=np.uint8)
    pixels = levels[rng.integers(0, 4, size=(height, width, 3))]
    return RasterImage(width=width, height=height, pixels=pixels)


def image_with_colors(width, height, count, seed=0):
    """An image holding exactly ``count`` distinct RGB values, scattered."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 24, size=count, replace=False)
    colors = np.stack([keys >> 16, (keys >> 8) & 255, keys & 255], axis=1).astype(np.uint8)
    index = np.concatenate([np.arange(count), rng.integers(0, count, width * height - count)])
    pixels = colors[rng.permutation(index)].reshape(height, width, 3)
    return RasterImage(width=width, height=height, pixels=pixels)


class TestExtractSgmOracle:
    """``extract_sgm`` equals the per-view-convert oracle bit for bit."""

    @pytest.mark.parametrize("make", [make_image, posterized_image])
    @pytest.mark.parametrize(
        "case, config",
        [
            ("masked", ExtractionConfig()),
            ("empty_mask", ExtractionConfig()),
            ("euclidean", ExtractionConfig(euclidean=True)),
            ("rectified", ExtractionConfig(epsilon0=0.25)),  # floors some eigenvalues
            ("k1", ExtractionConfig(k=1, stripes=4)),
            ("k16", ExtractionConfig(k=16, stripes=7)),
        ],
    )
    def test_bitwise_equal(self, palette, make, case, config):
        image = make(17, 40, seed=5)
        mask = make_mask(17, 40, border=3)
        if case == "empty_mask":
            mask = ForegroundMask(width=17, height=40, values=np.zeros((40, 17), np.uint8))
        rep = extract_sgm(image, mask, config, palette=palette)
        expected = per_view_convert_sgm(image, mask, config, palette)
        assert_bitwise_equal(rep.vector, expected)

    @pytest.mark.parametrize(
        "case, config",
        [
            ("solid", ExtractionConfig()),
            ("below_rule", ExtractionConfig()),
            ("at_rule", ExtractionConfig(k=3)),
            ("above_rule", ExtractionConfig()),
            ("tiny", ExtractionConfig(stripes=1)),
            ("tiny_three_colors", ExtractionConfig(stripes=1, k=16)),
            ("euclidean_posterized", ExtractionConfig(euclidean=True, k=2)),
        ],
    )
    def test_distinct_color_paths(self, palette, case, config):
        half = int(DISTINCT_COLOR_SHARE * 17 * 40)
        images = {
            "solid": solid_image(17, 40, (200, 40, 90)),
            "below_rule": image_with_colors(17, 40, half - 1, seed=7),
            "at_rule": image_with_colors(17, 40, half, seed=8),
            "above_rule": image_with_colors(17, 40, half + 1, seed=9),
            "tiny": make_image(3, 3, seed=4),
            "tiny_three_colors": image_with_colors(3, 3, 3, seed=4),
        }
        image = images.get(case) or posterized_image(17, 40, seed=11)
        mask = make_mask(image.width, image.height, border=1 if image.width == 3 else 3)
        rep = extract_sgm(image, mask, config, palette=palette)
        expected = per_view_convert_sgm(image, mask, config, palette)
        assert_bitwise_equal(rep.vector, expected)


def rows_per_map(image):
    """The rows ``extract_sgm`` maps per map: distinct colors or pixels."""
    distinct = distinct_colors(image)
    return image.width * image.height if distinct is None else distinct[0].size


class TestMapPasses:
    """``extract_sgm`` maps in passes of whole maps, bit for bit as map by map."""

    IMAGES = {
        "solid": lambda: solid_image(17, 40, (200, 40, 90)),
        "posterized": lambda: posterized_image(17, 40, seed=11),
        "distinct": lambda: image_with_colors(17, 40, 300, seed=7),
        "random": lambda: make_image(17, 40, seed=5),
    }

    @pytest.mark.parametrize("image_name", IMAGES)
    @pytest.mark.parametrize("block", ["one_map", "three_maps", "default"])
    @pytest.mark.parametrize(
        "case", ["masked", "euclidean", "no_mask", "empty_mask", "one_space"]
    )
    def test_passes_match_per_map_oracle(self, palette, monkeypatch, image_name, block, case):
        image = self.IMAGES[image_name]()
        # 1 maps one map per pass; 3 m splits the 8 maps into passes of 3, 3 and 2.
        rows = {"one_map": 1, "three_maps": 3 * rows_per_map(image),
                "default": descriptor.BLOCK_ROWS}[block]
        monkeypatch.setattr(descriptor, "BLOCK_ROWS", rows)
        mask = make_mask(17, 40, border=3)
        if case == "no_mask":
            mask = None
        elif case == "empty_mask":
            mask = ForegroundMask(width=17, height=40, values=np.zeros((40, 17), np.uint8))
        for k in (1, 5, 8, 16):
            config = ExtractionConfig(
                k=k, euclidean=case == "euclidean",
                spaces=(ColorSpace.HSV,) if case == "one_space" else ExtractionConfig().spaces,
            )
            rep = extract_sgm(image, mask, config, palette=palette)
            expected = per_map_extract_sgm(image, mask, config, palette)
            assert_bitwise_equal(rep.vector, expected)

    @pytest.mark.parametrize("image_name", ["posterized", "random"])
    def test_short_pass_maps_into_the_buffer_head(self, palette, image_name):
        image = self.IMAGES[image_name]()
        grids, colors = descriptor._convert_all(image, ExtractionConfig())
        maps = [fitted(image, space, palette) for space in ExtractionConfig().spaces]
        rows, pixels = rows_per_map(image), 17 * 40
        work = np.full(3 * (pixels + rows) * 16, np.nan)
        stack = build_maps(image, maps[:2], palette, 5, grids=grids, colors=colors, out=work)
        assert stack.shape == (2, 16, 40, 17)
        head = 2 * (pixels + rows) * 16
        assert np.shares_memory(stack, work[:head])
        assert np.isnan(work[head:]).all()
        for i, pair in enumerate(maps[:2]):
            alone = build_maps(image, [pair], palette, 5, grids=grids, colors=colors)
            assert_bitwise_equal(stack[i], alone[0])


def pass_stack(rng, g, h, w, channel_last):
    """A (g, 16, h, w) stack with ties, optionally a view of (g, h, w, 16) memory."""
    values = rng.choice([0.0, 0.25, 1.0, 1e-300], size=(g, h, w, 16))
    values[rng.random(values.shape) < 0.5] = rng.random()
    stack = values.transpose(0, 3, 1, 2)
    return stack if channel_last else np.ascontiguousarray(stack)


@pytest.mark.parametrize("channel_last", [True, False])
@pytest.mark.parametrize("g, h, w, stripes", [(1, 3, 3, 1), (3, 40, 17, 10), (8, 16, 6, 5),
                                              (5, 128, 48, 10), (2, 22, 7, 7)])
def test_pool_and_stripe_a_pass_as_per_map_calls(rng, channel_last, g, h, w, stripes):
    stack = pass_stack(rng, g, h, w, channel_last)
    pooled = max_pool(stack)
    assert pooled.flags.c_contiguous
    assert_bitwise_equal(pooled, np.stack([max_pool(stack[i]) for i in range(g)]))
    pooled_height = pooled.shape[2]
    for count in sorted({1, min(stripes, pooled_height), pooled_height}):
        assert_bitwise_equal(
            stripe_descriptor(pooled, count),
            np.stack([stripe_descriptor(pooled[i], count) for i in range(g)]),
        )


class TestDistinctColors:
    """Which images map once per distinct color, and the index they use."""

    HALF = int(DISTINCT_COLOR_SHARE * 17 * 40)

    @pytest.mark.parametrize("count", [1, 2, 5, HALF - 1, HALF])
    def test_representatives_and_inverse_rebuild_the_image(self, count):
        image = image_with_colors(17, 40, count, seed=count)
        first, inverse = distinct_colors(image)
        flat = image.pixels.reshape(-1, 3)
        assert first.size == count
        assert len({tuple(c) for c in flat[first]}) == count
        assert_bitwise_equal(flat[first][inverse], flat)

    @pytest.mark.parametrize("count", [HALF + 1, 17 * 40])
    def test_too_many_colors_map_every_pixel(self, count):
        assert distinct_colors(image_with_colors(17, 40, count)) is None

    @pytest.mark.parametrize(
        "count, mapped", [(1, 1), (2, 2), (HALF - 1, HALF - 1), (HALF, HALF),
                          (HALF + 1, 680), (680, 680)]
    )
    def test_points_each_soft_map_call_sees(self, palette, monkeypatch, count, mapped):
        # and each convert call, one per space: the distinct path converts only the
        # colors.  All 8 maps of a 17x40 image go through one pass.
        seen, converted = [], []
        real_map, real_convert = descriptor.soft_map, descriptor.convert

        def counting(model, z, *args, **kwargs):
            seen.append(len(z))
            return real_map(model, z, *args, **kwargs)

        def counting_convert(image, *args, **kwargs):
            converted.append(image.width * image.height)
            return real_convert(image, *args, **kwargs)

        monkeypatch.setattr(descriptor, "soft_map", counting)
        monkeypatch.setattr(descriptor, "convert", counting_convert)
        image = image_with_colors(17, 40, count, seed=3)
        extract_sgm(image, make_mask(17, 40, border=3), ExtractionConfig(), palette=palette)
        assert seen == [8 * mapped]
        assert converted == [mapped] * 4


def sgm_layout(mask, config):
    return tuple(
        LayoutRecord("SGM", space.value, view, idx, 16)
        for view, _ in oracle_views(mask, config)
        for space in config.spaces
        for idx in range(config.stripes)
    )


def random_mask(rng, width, height, empty_rows=()):
    values = (rng.random((height, width)) < 0.4).astype(np.uint8)
    values[list(empty_rows)] = 0
    return ForegroundMask(width=width, height=height, values=values)


@st.composite
def histogram_case(draw):
    """An image, a mask (none, random, some stripes emptied, or empty) and a config
    whose stripe count may leave remainder rows."""
    stripes = draw(st.integers(1, 7))
    height = draw(st.integers(stripes, 4 * stripes + 3))
    width = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    image = make_image(width, height, seed=seed)
    kind = draw(st.sampled_from(["none", "random", "emptied", "empty"]))
    if kind == "none":
        mask = None
    elif kind == "empty":
        mask = random_mask(rng, width, height, empty_rows=range(height))
    else:
        emptied = draw(st.sets(st.integers(0, height - 1))) if kind == "emptied" else ()
        mask = random_mask(rng, width, height, empty_rows=sorted(emptied))
    spaces = draw(st.lists(st.sampled_from(list(ColorSpace)), min_size=1, max_size=4,
                           unique=True))
    config = ExtractionConfig(stripes=stripes, spaces=tuple(spaces), use_mask=draw(st.booleans()))
    return image, mask, config


@settings(max_examples=120, deadline=None)
@given(case=histogram_case())
def test_histograms_match_per_stripe_oracles(case):
    image, mask, config = case
    ch = extract_color_histogram(image, mask, config)
    vector, layout = per_stripe_color_histogram(image, mask, config)
    assert_bitwise_equal(ch.vector, vector)
    assert ch.layout == layout
    siltp = extract_siltp(image, mask, config)
    vector, layout = per_stripe_siltp(image, mask, config)
    assert_bitwise_equal(siltp.vector, vector)
    assert siltp.layout == layout


class TestHistogramCacheSafety:
    """``extract --threads`` shares the cached stripe offsets between images."""

    def test_cached_offsets_are_read_only(self):
        labels, offsets = descriptor._stripe_offsets(48, 18, 10, 48, 3, 4)
        assert offsets.shape == (4, 48 * 18, 3)
        for array in (labels, offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert descriptor._stripe_offsets(48, 18, 10, 48, 3, 4)[1] is offsets

    def test_caller_codes_are_left_unchanged(self, rng):
        image = make_image(18, 48, seed=4)
        config = ExtractionConfig(stripes=7)
        codes = rng.integers(0, 16, size=(4, 48 * 18, 3))
        before = codes.copy()
        rep = descriptor._stripe_histograms("CH", codes, 48, image, make_mask(18, 48, border=3),
                                            config)
        assert_bitwise_equal(codes, before)
        assert rep.dim == 2 * 4 * 7 * 48

    @pytest.mark.parametrize("features", [("CH",), ("SILTP",), ("CH", "SILTP")])
    @pytest.mark.parametrize("masked", [True, False])
    def test_alternating_images_match_per_stripe_oracles(self, features, masked):
        oracles = {"CH": per_stripe_color_histogram, "SILTP": per_stripe_siltp}
        for seed, ((height, width), stripes) in enumerate(
                [((48, 18), 10), ((128, 48), 7), ((48, 18), 7), ((128, 48), 10)] * 2):
            image = make_image(width, height, seed=seed)
            mask = make_mask(width, height, border=3 + seed % 3) if masked else None
            config = ExtractionConfig(stripes=stripes, features=features)
            rep = extract_features(image, mask, config)
            expected = [oracles[kind](image, mask, config) for kind in features]
            assert_bitwise_equal(rep.vector, np.concatenate([vector for vector, _ in expected]))
            assert rep.layout == tuple(rec for _, layout in expected for rec in layout)


ALL_KINDS = ("SGM", "CH", "SILTP")


class TestExtractFeaturesOracle:
    """``extract_features`` with every kind equals the per-kind oracles bit for bit,
    with and without a mask under one config, so the shared grids and the cached
    layouts are both exercised."""

    @pytest.mark.parametrize(
        "case, config",
        [
            ("plain", ExtractionConfig(features=ALL_KINDS)),
            ("stripes7", ExtractionConfig(features=ALL_KINDS, stripes=7, k=3)),
            ("no_mask_view", ExtractionConfig(features=ALL_KINDS, use_mask=False)),
            ("euclidean", ExtractionConfig(features=ALL_KINDS, euclidean=True)),
            ("two_spaces", ExtractionConfig(features=ALL_KINDS,
                                            spaces=(ColorSpace.HSV, ColorSpace.RGB))),
            ("reordered", ExtractionConfig(features=("SILTP", "CH", "SGM"))),
        ],
    )
    def test_bitwise_equal(self, palette, case, config):
        image = posterized_image(17, 40, seed=8)
        values = make_mask(17, 40, border=3).values
        values[:12] = 0  # the top stripes fall back to all of their pixels
        mask = ForegroundMask(width=17, height=40, values=values)
        for view_mask in (mask, None, mask):
            rep = extract_features(image, view_mask, config, palette=palette)
            parts = {
                "SGM": (per_view_convert_sgm(image, view_mask, config, palette),
                        sgm_layout(view_mask, config)),
                "CH": per_stripe_color_histogram(image, view_mask, config),
                "SILTP": per_stripe_siltp(image, view_mask, config),
            }
            expected = np.concatenate([parts[kind][0] for kind in config.features])
            assert_bitwise_equal(rep.vector, expected)
            assert rep.layout == tuple(rec for kind in config.features for rec in parts[kind][1])

    @pytest.mark.parametrize("distinct", [True, False])
    def test_sgm_and_ch_on_both_color_paths(self, palette, distinct):
        # the distinct path converts each color once and CH reads the expanded grid
        image = posterized_image(17, 40, seed=9) if distinct else make_image(17, 40, seed=9)
        assert (distinct_colors(image) is not None) == distinct
        mask = make_mask(17, 40, border=3)
        config = ExtractionConfig(features=("SGM", "CH"), k=4, stripes=6)
        rep = extract_features(image, mask, config, palette=palette)
        expected = np.concatenate([per_view_convert_sgm(image, mask, config, palette),
                                   per_stripe_color_histogram(image, mask, config)[0]])
        assert_bitwise_equal(rep.vector, expected)
