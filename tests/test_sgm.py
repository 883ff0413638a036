"""Soft Gaussian mapping: covariance fit, rectification, descriptors."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reid_sgm import sgm
from reid_sgm.errors import EmptyPixels
from reid_sgm.imaging import ColorSpace, RasterImage, convert
from reid_sgm.sgm import (
    PALETTE_SIZE,
    ColorNamePalette,
    default_palette,
    eig3_symmetric,
    estimate_sigma,
    fit_model,
    identity_model,
    load_palette,
    model_from_sigma,
    parse_palette,
    pixel_likelihoods,
    soft_map,
    transform_space,
)

from conftest import (
    argsort_soft_map,
    argsort_top_k,
    assert_bitwise_equal,
    expression_likelihoods,
    _oracle_null_vector,
    oracle_eig3_symmetric,
    sum_estimate_sigma,
)

_PALETTE = None


def shared_palette():
    global _PALETTE
    if _PALETTE is None:
        from reid_sgm.sgm import default_palette

        _PALETTE = default_palette()
    return _PALETTE


def pixel_set(points):
    return np.asarray(points, dtype=np.float64)


def naive_discrepancy_covariance(points, names):
    """Literal double loop over all pixel-name outer products."""
    total = np.zeros((3, 3))
    for z in points:
        for c in names:
            d = z - c
            total += np.outer(d, d)
    return total / (len(points) * len(names))


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 0.1 * np.eye(3))


class TestPalette:
    def test_default_palette_is_valid(self, palette):
        assert palette.names.shape == (16, 3)
        assert len(set(palette.labels)) == 16
        assert palette.names.min() >= 0.0 and palette.names.max() <= 1.0

    def test_default_palette_is_parsed_once_and_read_only(self):
        palette = default_palette()
        assert default_palette() is palette
        with pytest.raises(ValueError):
            palette.names[0, 0] = 0.5

    def test_parse_rejects_wrong_count(self):
        text = "\n".join(f"c{i} 0.{i} 0 0" for i in range(15))
        with pytest.raises(ValueError):
            parse_palette(text)

    def test_parse_rejects_duplicates(self):
        lines = [f"c{i} 0 0 {i / 16:.4f}" for i in range(15)] + ["dup 0 0 0.0000"]
        text = "\n".join(lines)
        with pytest.raises(ValueError):
            parse_palette(text)

    def test_parse_rejects_out_of_range(self):
        lines = [f"c{i} 0 0 {i / 16:.4f}" for i in range(15)] + ["hot 2 0 0"]
        with pytest.raises(ValueError):
            parse_palette("\n".join(lines))

    def test_load_roundtrip(self, tmp_path, palette):
        path = tmp_path / "pal.txt"
        lines = [
            f"{label} {r:.6f} {g:.6f} {b:.6f}"
            for label, (r, g, b) in zip(palette.labels, palette.names)
        ]
        path.write_text("\n".join(lines))
        loaded = load_palette(path)
        assert loaded.labels == palette.labels
        assert np.allclose(loaded.names, palette.names)


class TestEig3:
    def test_matches_lapack_on_random_matrices(self, rng):
        for _ in range(200):
            a = rng.normal(size=(3, 3))
            a = a + a.T
            vals, vecs = eig3_symmetric(a)
            ref = np.sort(np.linalg.eigvalsh(a))
            scale = np.abs(a).max()
            assert np.abs(vals - ref).max() <= 1e-12 * scale
            assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-13
            assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-12 * scale

    def test_near_degenerate_pairs(self, rng):
        for gap_exp in (4, 8, 12, 15):
            d = np.diag([1.0, 1.0 + 10.0 ** -gap_exp, 3.0])
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            a = q @ d @ q.T
            vals, vecs = eig3_symmetric(a)
            assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() <= 1e-12 * 3

    def test_diagonal_and_identity(self):
        vals, vecs = eig3_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        vals, vecs = eig3_symmetric(np.eye(3))
        assert np.allclose(vals, 1.0)
        vals, _ = eig3_symmetric(np.zeros((3, 3)))
        assert np.allclose(vals, 0.0)


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def symmetric_3x3(draw):
    """Dense, diagonal, rank-1 (optionally shifted), repeated-eigenvalue or zero
    symmetric matrices at scales from 1e-8 to 1e3."""
    shape = draw(st.sampled_from(["dense", "diagonal", "rank1", "repeated", "zero"]))
    scale = 10.0 ** draw(st.integers(-8, 3))
    if shape == "zero":
        return np.zeros((3, 3))
    if shape == "dense":
        upper = np.array(draw(st.lists(_UNIT, min_size=6, max_size=6)))
        a = np.zeros((3, 3))
        a[np.triu_indices(3)] = upper
        a = a + np.triu(a, 1).T
    elif shape == "diagonal":
        a = np.diag(draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]) | _UNIT,
                                  min_size=3, max_size=3)))
    elif shape == "rank1":
        v = np.array(draw(st.lists(_UNIT, min_size=3, max_size=3)))
        a = np.outer(v, v)
        if draw(st.booleans()):
            a = a + 1e-13 * np.eye(3)
    else:
        q, _ = np.linalg.qr(np.array(draw(st.lists(_UNIT, min_size=9, max_size=9))).reshape(3, 3))
        d = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0]), min_size=3, max_size=3))
        a = q @ np.diag(d) @ q.T
    return a * scale


@settings(max_examples=300, deadline=None)
@given(a=symmetric_3x3())
def test_eig3_matches_numpy_array_oracle_bitwise(a):
    vals, vecs = eig3_symmetric(a)
    ref_vals, ref_vecs = oracle_eig3_symmetric(a)
    assert_bitwise_equal(vals, ref_vals)
    assert_bitwise_equal(vecs, ref_vecs)


def assert_slices_match_oracle(stack):
    vals, vecs = eig3_symmetric(np.stack(stack))
    assert vals.shape == (len(stack), 3) and vecs.shape == (len(stack), 3, 3)
    assert vals.flags.c_contiguous and vecs.flags.c_contiguous
    for a, slice_vals, slice_vecs in zip(stack, vals, vecs):
        ref_vals, ref_vecs = oracle_eig3_symmetric(a)
        assert_bitwise_equal(slice_vals, ref_vals)
        assert_bitwise_equal(slice_vecs, ref_vecs)


@settings(max_examples=150, deadline=None)
@given(stack=st.lists(symmetric_3x3(), min_size=1, max_size=9))
def test_eig3_stack_matches_oracle_slice_by_slice(stack):
    """Dense, diagonal, rank-1, repeated and zero slices mixed in one stack."""
    assert_slices_match_oracle(stack)


def from_hex(rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows])


# Matrices that send the scalar eigensolver down its rare branches.
BRANCH_CASES = {
    "zero": np.zeros((3, 3)),
    "diagonal": np.diag([3.0, -1.0, 2.0]),
    # Off-diagonal squares underflow, so p1 == 0 although the matrix is not diagonal.
    "p1_underflow": np.array([[1.0, 1e-170, 0.0], [1e-170, 2.0, 0.0], [0.0, 0.0, 3.0]]),
    # Rank 1: the second null vector's cross products vanish (best norm <= 1e-14).
    "rank1_best_norm_small": np.full((3, 3), -2.0),
    # A near-identity: the first null vector falls back to an axis, and the
    # second to the next axis, as the first axis collapses against it.
    "near_identity_axis_fallback": from_hex([
        ["0x1.0000000007510p+0", "0x1.596e18eb2594ap-40", "-0x1.32e1626a3d15cp-38"],
        ["0x1.596e18eb2594ap-40", "0x1.00000000003fcp+0", "-0x1.c4d2f8e6bd0efp-41"],
        ["-0x1.32e1626a3d15cp-38", "-0x1.c4d2f8e6bd0efp-41", "0x1.000000000324ap+0"],
    ]),
    # A discrepancy covariance from a synthetic corpus (whole view, normalized
    # RGB) whose first Jacobi check fails: it takes one sweep of rotations.
    "corpus_jacobi_sweep": from_hex([
        ["0x1.a50aff5724f19p-3", "0x1.c89c099e1e8c5p-5", "-0x1.ca65dd5f16260p-6"],
        ["0x1.c89c099e1e8c5p-5", "0x1.3d6911d583065p-3", "0x1.5a4f2fe94c850p-5"],
        ["-0x1.ca65dd5f16260p-6", "0x1.5a4f2fe94c850p-5", "0x1.c227ccae44d0dp-3"],
    ]),
    # off/scale at the first check: 9.98e-16 (converged) and 1.02e-15 (rotated).
    "off_scale_just_below": from_hex([
        ["0x1.4031944b37deep-4", "-0x1.761c8ca94dff6p-8", "-0x1.c11c15ba31386p-9"],
        ["-0x1.761c8ca94dff6p-8", "0x1.6299e19586ce9p-4", "0x1.e4d3319d05fb6p-8"],
        ["-0x1.c11c15ba31386p-9", "0x1.e4d3319d05fb6p-8", "0x1.46f60bb7b8cd0p-4"],
    ]),
    "off_scale_just_above": from_hex([
        ["0x1.6a8ff17b44fdbp-4", "-0x1.ce25b4efaf5f3p-8", "-0x1.5d42823735c7cp-6"],
        ["-0x1.ce25b4efaf5f3p-8", "0x1.d02a818527806p-5", "0x1.0406396338072p-8"],
        ["-0x1.5d42823735c7cp-6", "0x1.0406396338072p-8", "0x1.1bed850863b13p-4"],
    ]),
    # A near-degenerate block: rotations run, and those with apq == 0 are skipped.
    "jacobi_skips_zero_pivots": from_hex([
        ["-0x1.815e82fe01948p-2", "0x0.0p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x1.835dd54ab81a9p-6", "-0x1.32325c0672ddbp-22"],
        ["0x0.0p+0", "-0x1.32325c0672ddbp-22", "0x1.835ef9bc91700p-6"],
    ]),
    # libm pow (Python's ``**``) and ``x * x`` round one of the squares apart:
    # an off-diagonal one (in p1) and a diagonal deviation from the mean (in p2).
    "square_rounding_p1": from_hex([
        ["0x1.4b644455cdb91p-5", "0x1.4aa276d3d5aa0p-5", "0x1.c645e0bbd302dp-10"],
        ["0x1.4aa276d3d5aa0p-5", "0x1.00961cf260328p-3", "0x1.02181e5e49aa8p-7"],
        ["0x1.c645e0bbd302dp-10", "0x1.02181e5e49aa8p-7", "0x1.96ca8dc6966bap-4"],
    ]),
    "square_rounding_p2": from_hex([
        ["0x1.f45e1cbfec531p-5", "-0x1.9e825f7f0f554p-11", "-0x1.1b5dca5550a64p-8"],
        ["-0x1.9e825f7f0f554p-11", "0x1.526407ee99d6ep-4", "0x1.a17433f4f6747p-7"],
        ["-0x1.1b5dca5550a64p-8", "0x1.a17433f4f6747p-7", "0x1.78d13af25a0cdp-4"],
    ]),
    # Converges at once with signed zeros in its eigenvectors, which a
    # product by an identity rotation would turn into +0.0.
    "signed_zero_eigenvectors": np.array([[-0.5, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, -1.0]]),
    # Never converges: all 8 sweeps run, then the final v.T @ a @ v.
    "nan_runs_every_sweep": np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 2.0]]),
}


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_eig3_branch_case_matches_oracle_inside_a_stack(name, rng):
    """Each case alone, and among ordinary matrices and one that rotates
    while the others must keep their values."""
    ordinary = [random_spd(rng) for _ in range(4)]
    rotating = BRANCH_CASES["corpus_jacobi_sweep"]
    with np.errstate(invalid="ignore"):
        assert_slices_match_oracle([ordinary[0], BRANCH_CASES[name], rotating, *ordinary[1:]])
        assert_slices_match_oracle([BRANCH_CASES[name]])


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_eig3_branch_case_at_every_position_of_a_generic_stack(name, rng):
    """Generic slices (nonzero, not diagonal, no fallback, converged at the
    first Jacobi check) take the stack-wide path; one branch case among
    them, at any position, must leave every slice its own bits."""
    generic = [random_spd(rng) for _ in range(3)]
    with np.errstate(invalid="ignore"):
        for at in range(len(generic) + 1):
            assert_slices_match_oracle([*generic[:at], BRANCH_CASES[name], *generic[at:]])


UNIFORM_STACKS = {
    "generic": [np.diag([1.0, 2.0, 3.0]) + 0.1 * np.ones((3, 3)), np.full((3, 3), 0.5)],
    "zero": [np.zeros((3, 3))] * 3,
    "negative_zero": [np.full((3, 3), -0.0)] * 2,
    "mixed_zero": [np.zeros((3, 3)), np.full((3, 3), -0.0), np.diag([-0.0, 0.0, -0.0])],
    "generic_with_negative_zeros": [
        np.array([[1.0, -0.0, 0.5], [-0.0, 2.0, 0.25], [0.5, 0.25, 3.0]]),
        np.array([[-0.0, 1.0, -0.0], [1.0, -0.0, -0.0], [-0.0, -0.0, 2.0]]),
    ],
    "diagonal_with_negative_zeros": [np.diag([2.0, -0.0, 1.0]), np.diag([-0.0, -1.0, -0.0])],
}


@pytest.mark.parametrize("name", sorted(UNIFORM_STACKS))
def test_eig3_uniform_stack_matches_oracle(name):
    """Stacks whose slices all take one branch, including -0.0 entries: the
    oracle gives a zero slice +0.0 eigenvalues and the identity."""
    assert_slices_match_oracle(UNIFORM_STACKS[name])


def test_module_arrays_are_read_only():
    """The identity and the eigensolver's index constants are shared by
    every call: a stray write into one would corrupt all later results."""
    arrays = {k: v for k, v in vars(sgm).items() if isinstance(v, np.ndarray)}
    assert {"_EYE3", "_YZX", "_UPPER"} <= arrays.keys()
    for name, array in arrays.items():
        assert not array.flags.writeable, name


def test_null_vector_collapse_falls_back_inside_a_stack(rng):
    """A candidate that vanishes once the found vector is taken out of it
    (length <= 1e-8) falls back to the first axis that keeps its length."""
    collapsing = (np.diag([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    cases = [(random_spd(rng), np.array([1.0, 0.0, 0.0])), collapsing,
             (random_spd(rng), np.array([0.6, 0.8, 0.0]))]
    got = sgm._null_vectors(np.stack([m for m, _ in cases]), [np.stack([u for _, u in cases])])
    for (m, u), v in zip(cases, got):
        assert_bitwise_equal(v, _oracle_null_vector(m, [u]))
    assert_bitwise_equal(got[1], np.array([1.0, 0.0, 0.0]))


class TestStackedFits:
    def test_model_from_sigma_stack_equals_single_calls(self, rng):
        stack = np.stack([*BRANCH_CASES.values(), random_spd(rng), -random_spd(rng)])
        stack = stack[np.isfinite(stack).all(axis=(1, 2))]
        models = model_from_sigma(stack, epsilon0=1e-3)
        assert len(models) == len(stack)
        for sigma, model in zip(stack, models):
            assert_models_equal(model, model_from_sigma(sigma, epsilon0=1e-3))

    @pytest.mark.parametrize("name", sorted(k for k, a in BRANCH_CASES.items()
                                            if np.isfinite(a).all()))
    def test_model_from_sigma_at_every_position_equals_single_calls(self, name, rng):
        generic = [random_spd(rng) for _ in range(3)]
        for at in range(len(generic) + 1):
            stack = np.stack([*generic[:at], BRANCH_CASES[name], *generic[at:]])
            for sigma, model in zip(stack, model_from_sigma(stack), strict=True):
                assert_models_equal(model, model_from_sigma(sigma))

    def test_fit_model_sequence_equals_single_calls(self, palette, rng):
        sets = [pixel_set(rng.random((n, 3))) for n in (1, 2, 17, 864, 6144)]
        sets.append(pixel_set(palette.names[:3].copy()))
        models = fit_model(sets, palette)
        assert len(models) == len(sets)
        for pixels, model in zip(sets, models):
            assert_models_equal(model, fit_model(pixels, palette))
        arrays = [getattr(m, f) for m in models
                  for f in ("sigma", "rectified_inverse", "eigenvalues", "eigenvectors")]
        assert not any(np.shares_memory(x, y) for i, x in enumerate(arrays) for y in arrays[:i])

    def test_empty_set_in_a_sequence_is_rejected(self, palette, rng):
        with pytest.raises(EmptyPixels):
            fit_model([pixel_set(rng.random((5, 3))), pixel_set(np.empty((0, 3)))], palette)

    def test_asymmetric_slice_is_rejected(self, rng):
        bad = random_spd(rng)
        bad[0, 1] += 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            model_from_sigma(np.stack([random_spd(rng), bad]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_is_rejected(self, rng, value):
        bad = random_spd(rng)
        bad[1, 2] = bad[2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            model_from_sigma(bad)
        with pytest.raises(ValueError, match="finite"):
            model_from_sigma(np.stack([random_spd(rng), bad, random_spd(rng)]))

    @pytest.mark.parametrize("epsilon0", [0.0, -1.0, np.inf, np.nan])
    def test_bad_epsilon0_is_rejected_for_a_sequence(self, palette, rng, epsilon0):
        with pytest.raises(ValueError, match="epsilon0"):
            fit_model([pixel_set(rng.random((5, 3)))] * 2, palette, epsilon0=epsilon0)
        with pytest.raises(ValueError, match="epsilon0"):
            model_from_sigma(np.stack([np.eye(3)] * 2), epsilon0=epsilon0)


def assert_models_equal(actual, expected):
    for field in ("sigma", "rectified_inverse", "eigenvalues", "eigenvectors"):
        assert_bitwise_equal(getattr(actual, field), getattr(expected, field))
    assert np.float64(actual.norm_const).tobytes() == np.float64(expected.norm_const).tobytes()
    assert actual.epsilon0 == expected.epsilon0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7000),
    seed=st.integers(0, 2**16),
    levels=st.sampled_from([0, 4, 256]),
    step=st.sampled_from([1, 2]),
)
def test_estimate_sigma_matches_axis_sum_oracle_bitwise(palette, n, seed, levels, step):
    rng = np.random.default_rng(seed)
    points = rng.random((n * step, 3))
    if levels:
        points = np.round(points * (levels - 1)) / (levels - 1)
    points = points[::step]  # step 2: a strided view, as a caller may pass
    assert_bitwise_equal(estimate_sigma(points, palette.names),
                         sum_estimate_sigma(points, palette.names))


class TestFitModel:
    def test_palette_pixels_match_double_loop(self, palette):
        pixels = pixel_set(palette.names.copy())
        model = fit_model(pixels, palette)
        oracle = naive_discrepancy_covariance(pixels, palette.names)
        assert np.abs(model.sigma - oracle).max() <= 1e-12

    def test_random_pixels_match_double_loop(self, palette, rng):
        pixels = pixel_set(rng.random((200, 3)))
        model = fit_model(pixels, palette)
        oracle = naive_discrepancy_covariance(pixels, palette.names)
        assert np.abs(model.sigma - oracle).max() <= 1e-12

    def test_covariance_decomposition_identity(self, palette, rng):
        # the sum of (zz^T + cc^T) minus the cross terms reproduces sigma
        for _ in range(5):
            points = rng.random((150, 3))
            n, k = len(points), 16
            names = palette.names
            total = np.zeros((3, 3))
            for z in points:
                for c in names:
                    total += np.outer(z, z) + np.outer(c, c) - np.outer(z, c) - np.outer(c, z)
            expanded = total / (n * k)
            sigma = estimate_sigma(points, names)
            assert np.abs(sigma - expanded).max() <= 1e-10

    def test_rectified_spectrum(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma = q @ np.diag([2.0, 1.0, -0.5]) @ q.T
        model = model_from_sigma(sigma, epsilon0=1e-4)
        inv_spectrum = np.sort(np.linalg.eigvalsh(model.rectified_inverse))
        assert np.abs(inv_spectrum - np.array([1e-4, 0.5, 1.0])).max() <= 1e-12

    def test_single_pixel_still_positive_definite(self, palette):
        pixels = pixel_set(palette.names[:1].copy())
        model = fit_model(pixels, palette)
        assert np.linalg.eigvalsh(model.rectified_inverse).min() > 0.0

    def test_reconstruction_from_stored_eigenpairs(self, palette, rng):
        pixels = pixel_set(rng.random((50, 3)))
        model = fit_model(pixels, palette)
        rectified = np.where(model.eigenvalues > 0, model.eigenvalues, 1.0 / model.epsilon0)
        rebuilt = (model.eigenvectors * (1.0 / rectified)) @ model.eigenvectors.T
        assert np.abs(rebuilt - model.rectified_inverse).max() <= 1e-12

    def test_symmetry_invariants(self, palette, rng):
        pixels = pixel_set(rng.random((100, 3)))
        model = fit_model(pixels, palette)
        assert np.abs(model.sigma - model.sigma.T).max() <= 1e-12
        assert np.abs(model.rectified_inverse - model.rectified_inverse.T).max() <= 1e-12

    def test_order_independence(self, palette, rng):
        points = rng.random((300, 3))
        sigma_a = estimate_sigma(points, palette.names)
        sigma_b = estimate_sigma(points[::-1], palette.names)
        assert np.abs(sigma_a - sigma_b).max() <= 1e-12

    def test_empty_pixels_rejected(self, palette):
        with pytest.raises(EmptyPixels):
            fit_model(pixel_set(np.empty((0, 3))), palette)

    def test_bad_epsilon0_rejected(self, palette):
        with pytest.raises(ValueError):
            fit_model(pixel_set([[0.5, 0.5, 0.5]]), palette, epsilon0=0.0)


class TestPixelLikelihoods:
    def test_name_point_hits_norm_const(self, palette, rng):
        model = fit_model(pixel_set(rng.random((100, 3))), palette)
        j = 6
        like = pixel_likelihoods(model, palette.names[j], palette)
        assert like[j] == pytest.approx(model.norm_const, rel=1e-12)
        assert like.argmax() == j

    def test_identity_inverse_is_isotropic(self, palette, rng):
        model = identity_model()
        z = rng.random(3)
        like = pixel_likelihoods(model, z, palette)
        ref = model.norm_const * np.exp(-0.5 * ((palette.names - z) ** 2).sum(axis=1))
        assert np.allclose(like, ref, rtol=1e-12)

    def test_matches_density_formula(self, palette, rng):
        # independent evaluation straight from the Gaussian density
        for _ in range(20):
            spd = random_spd(rng)
            model = model_from_sigma(np.linalg.inv(spd), epsilon0=1e-4)
            z = rng.random(3)
            like = pixel_likelihoods(model, z, palette)
            for j in range(16):
                d = z - palette.names[j]
                ref = model.norm_const * np.exp(-0.5 * d @ model.rectified_inverse @ d)
                assert like[j] == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_mahalanobis_distance(self, palette, rng):
        model = fit_model(pixel_set(rng.random((100, 3))), palette)
        z = rng.random(3)
        like = pixel_likelihoods(model, z, palette)
        quad = np.array(
            [
                (z - c) @ model.rectified_inverse @ (z - c)
                for c in palette.names
            ]
        )
        order = np.argsort(quad)
        assert (np.diff(like[order]) <= 1e-15).all()

    def test_finite_and_nonnegative(self, palette, rng):
        model = fit_model(pixel_set(rng.random((30, 3))), palette)
        like = pixel_likelihoods(model, rng.random((500, 3)), palette)
        assert np.isfinite(like).all() and (like >= 0).all()


class TestSoftMap:
    def test_k16_is_full_normalization(self, palette, rng):
        model = fit_model(pixel_set(rng.random((60, 3))), palette)
        z = rng.random(3)
        weights = soft_map(model, z, palette, 16)
        like = pixel_likelihoods(model, z, palette)
        assert np.allclose(weights, like / like.sum(), rtol=1e-12)

    def test_k1_on_name_point_is_one_hot(self, palette, rng):
        model = fit_model(pixel_set(rng.random((60, 3))), palette)
        j = 11
        weights = soft_map(model, palette.names[j], palette, 1)
        expected = np.zeros(16)
        expected[j] = 1.0
        assert np.array_equal(weights, expected)

    def test_k5_keeps_exactly_top5(self, palette, rng):
        model = fit_model(pixel_set(rng.random((60, 3))), palette)
        z = rng.random(3)
        like = pixel_likelihoods(model, z, palette)
        weights = soft_map(model, z, palette, 5)
        top = sorted(np.argsort(-like, kind="stable")[:5])
        assert sorted(np.flatnonzero(weights)) == top
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tie_break_prefers_lower_index(self):
        # entries 0 and 1 sit symmetrically around the probe with exact
        # binary coordinates, so their likelihoods tie bit for bit
        names = np.zeros((16, 3))
        names[0] = [0.25, 0.5, 0.5]
        names[1] = [0.75, 0.5, 0.5]
        for i in range(2, 16):
            names[i] = [0.0, i / 16.0, 1.0]
        palette = ColorNamePalette(names=names, labels=tuple(f"c{i}" for i in range(16)))
        model = identity_model()
        z = np.full(3, 0.5)
        like = pixel_likelihoods(model, z, palette)
        assert like[0] == like[1] == like.max()
        weights = soft_map(model, z, palette, 1)
        assert weights[0] == 1.0 and weights[1] == 0.0

    def test_underflow_goes_uniform(self, palette):
        # a covariance so tight that every likelihood underflows to zero
        model = model_from_sigma(np.eye(3) * 1e-10, epsilon0=1e-4)
        z = np.full(3, 0.43)
        like = pixel_likelihoods(model, z, palette)
        assert like.sum() == 0.0
        weights = soft_map(model, z, palette, 4)
        kept = np.flatnonzero(weights)
        assert len(kept) == 4
        assert np.allclose(weights[kept], 0.25)

    def test_euclidean_reduction(self, palette, rng):
        model = identity_model()
        pts = rng.random((2000, 3))
        weights = soft_map(model, pts, palette, 5)
        dists = ((pts[:, None, :] - palette.names[None]) ** 2).sum(axis=2)
        assert np.array_equal(weights.argmax(axis=1), dists.argmin(axis=1))

    def test_batch_matches_single(self, palette, rng):
        # a pixel alone, as a vector or a one-row batch, gets its batch row's bits
        for _ in range(20):
            model = fit_model(pixel_set(rng.random((60, 3))), palette)
            pts = rng.random((20, 3))
            batch = soft_map(model, pts, palette, 5)
            likes = pixel_likelihoods(model, pts, palette)
            for i in range(20):
                assert_bitwise_equal(soft_map(model, pts[i], palette, 5), batch[i])
                assert_bitwise_equal(soft_map(model, pts[i : i + 1], palette, 5), batch[i : i + 1])
                assert_bitwise_equal(pixel_likelihoods(model, pts[i], palette), likes[i])
            out, work = np.full((1, 16), np.nan), np.full((1, 16), np.nan)
            assert soft_map(model, pts[:1], palette, 5, out=out, work=work) is out
            assert_bitwise_equal(out, batch[:1])

    @pytest.mark.parametrize("k", [0, 17])
    def test_invalid_k(self, palette, k):
        with pytest.raises(ValueError):
            soft_map(identity_model(), np.zeros(3), palette, k)


@settings(max_examples=40, deadline=None)
@given(
    pts=arrays(
        np.float64,
        (30, 3),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    ),
    z=arrays(np.float64, (3,), elements=st.floats(0.0, 1.0, allow_nan=False)),
    k=st.integers(1, 16),
)
def test_soft_map_is_probability_vector(pts, z, k):
    palette = shared_palette()
    model = fit_model(pts, palette)
    weights = soft_map(model, z, palette, k)
    assert weights.shape == (16,)
    assert (weights >= 0.0).all()
    assert np.count_nonzero(weights) <= k
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestFastPathOracles:
    """The in-place likelihoods and the sort-threshold top-k, bit for bit."""

    @staticmethod
    def models(palette, rng):
        return (
            identity_model(),
            fit_model(pixel_set(rng.random((80, 3))), palette),
            model_from_sigma(np.eye(3) * 1e-10, epsilon0=1e-4),  # every likelihood underflows
        )

    def test_likelihoods_match_expression(self, palette, rng):
        pts = np.vstack([rng.random((500, 3)), palette.names])
        out, work = np.full((516, 16), np.nan), np.full((516, 16), np.nan)
        for model in self.models(palette, rng):
            expected = expression_likelihoods(model, pts, palette)
            assert_bitwise_equal(pixel_likelihoods(model, pts, palette), expected)
            assert pixel_likelihoods(model, pts, palette, out=out, work=work) is out
            assert_bitwise_equal(out, expected)
            # one pixel gets the bits of its row in the batch
            assert_bitwise_equal(pixel_likelihoods(model, pts[7], palette), expected[7])
        # What extraction feeds the chain: 8-bit colors converted to each
        # working space, with black, white and the palette's nearest 8-bit
        # colors, plus the palette points themselves, where the quadratic
        # form can round below zero and the clamp acts.
        levels = np.arange(0, 256, 15, dtype=np.uint8)
        lattice = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), -1).reshape(-1, 3)
        named = np.rint(palette.names * 255).astype(np.uint8)
        rgb = np.vstack([lattice, [[0, 0, 0], [255, 255, 255]], named])
        row = RasterImage(width=rgb.shape[0], height=1, pixels=rgb[None])
        for space in ColorSpace:
            pts = np.vstack([convert(row, space), palette.names])
            models = (
                fit_model(pts[:-16], palette),
                fit_model(pts[-32:-16], palette),
                identity_model(),
                model_from_sigma(np.eye(3) * 1e-10, epsilon0=1e-4),
            )
            for model in models:
                assert_bitwise_equal(pixel_likelihoods(model, pts, palette),
                                     expression_likelihoods(model, pts, palette))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_soft_map_matches_oracle_on_pixels(self, palette, rng, k):
        # pixels on a 1/8 lattice plus the palette itself tie often
        pts = np.vstack([np.round(rng.random((2000, 3)) * 8) / 8, palette.names])
        n = pts.shape[0]
        for model in self.models(palette, rng):
            expected = argsort_soft_map(model, pts, palette, k)
            assert_bitwise_equal(soft_map(model, pts, palette, k), expected)
            out, work = np.full((n, 16), np.nan), np.full((n, 16), np.nan)
            assert soft_map(model, pts, palette, k, out=out, work=work) is out
            assert_bitwise_equal(out, expected)
            assert_bitwise_equal(
                soft_map(model, pts[-3], palette, k), argsort_soft_map(model, pts[-3], palette, k)
            )


@st.composite
def likelihood_rows(draw):
    """Rows over a few levels (ties at the top-k edge), some all underflowed."""
    n = draw(st.integers(1, 24))
    levels = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False) | st.sampled_from([0.0, 5e-324, 1e-300]),
            min_size=1,
            max_size=16,
        )
    )
    picks = draw(arrays(np.int64, (n, 16), elements=st.integers(0, len(levels) - 1)))
    rows = np.asarray(levels, dtype=np.float64)[picks]
    rows[draw(arrays(np.bool_, (n,)))] = 0.0
    return rows


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=25, deadline=None)
@given(rows=likelihood_rows())
def test_soft_map_selection_matches_argsort_oracle(k, rows):
    def likelihoods(model, z, palette, out=None, work=None):
        if out is None:
            return rows.copy()
        out[...] = rows
        return out

    palette = shared_palette()
    z = np.zeros((rows.shape[0], 3))
    with mock.patch.object(sgm, "pixel_likelihoods", likelihoods):
        fresh = soft_map(None, z, palette, k)
        reused = soft_map(None, z, palette, k, out=np.empty_like(rows), work=np.empty_like(rows))
    expected = argsort_top_k(rows, k)
    assert_bitwise_equal(fresh, expected)
    assert_bitwise_equal(reused, expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 300),
    k=st.integers(1, 16),
    lattice=st.booleans(),
)
def test_soft_map_rows_do_not_depend_on_the_batch(seed, n, k, lattice):
    """Any subset of two or more rows maps to the same rows of the full batch,
    bit for bit: the (n, 3) @ (3, 3) and (n, 3) @ (3, 16) products round each
    row alike whatever n is, which mapping only an image's distinct colors
    relies on.  A one-row batch goes through BLAS's matrix-vector kernel,
    which may round differently, so it is held to a tolerance."""
    rng = np.random.default_rng(seed)
    palette = shared_palette()
    pts = rng.random((n, 3))
    if lattice:  # ties at the top-k edge
        pts = np.round(pts * 4) / 4
    model = fit_model(pixel_set(rng.random((50, 3))), palette)
    full = soft_map(model, pts, palette, k)
    for size in (1, 2, 7, 8, 9, n - 1, n):
        rows = rng.choice(n, size, replace=False)
        subset = soft_map(model, pts[rows], palette, k)
        if size == 1:
            assert np.allclose(subset, full[rows], rtol=1e-12, atol=0.0)
        else:
            assert_bitwise_equal(subset, full[rows])


def lattice_palette():
    """16 distinct names on the 1/8 lattice: with the identity model, points
    on the same lattice get exact squared distances, so equal distances tie
    bit for bit."""
    rng = np.random.default_rng(11)
    cells = rng.choice(9**3, PALETTE_SIZE, replace=False)
    names = np.stack(np.unravel_index(cells, (9, 9, 9)), axis=1) / 8.0
    return ColorNamePalette(names=names, labels=tuple(f"c{i}" for i in range(PALETTE_SIZE)))


@pytest.mark.parametrize("k", [1, 5, 7, 8, 15, 16])
def test_soft_map_matches_oracle_on_zero_and_tied_likelihoods(k):
    """The int64 sort keys order +0.0 and exact ties as the float order does:
    rows partly and fully underflowed to +0.0, and rows whose k-th and
    (k+1)-th largest tie, map as the stable argsort oracle maps them."""
    palette, model = lattice_palette(), identity_model()
    near = np.stack(np.meshgrid(*[np.arange(9) / 8.0] * 3), axis=-1).reshape(-1, 3)
    # Squared distances from x = 38.5 straddle exp's underflow at about 1490.
    pts = np.vstack([near, near + [38.5, 0.0, 0.0], near + [60.0, 0.0, 0.0]])
    like = pixel_likelihoods(model, pts, palette)
    zero = like == 0.0
    assert (zero.any(axis=1) & ~zero.all(axis=1)).any() and zero.all(axis=1).any()
    desc = -np.sort(-like, axis=1)
    if k < PALETTE_SIZE:
        assert ((desc[:, k - 1] == desc[:, k]) & (desc[:, k] > 0.0)).any()
    assert_bitwise_equal(soft_map(model, pts, palette, k), argsort_soft_map(model, pts, palette, k))


def test_likelihoods_hold_no_negative_zero(palette, rng):
    """The int64 sort keys order likelihoods only while none is -0.0."""
    pts = np.vstack([rng.random((500, 3)), rng.random((500, 3)) * 80.0 - 40.0])
    models = [identity_model(), fit_model(pixel_set(rng.random((50, 3))), palette),
              model_from_sigma(np.eye(3) * 1e-10, epsilon0=1e-4)]
    for model in models:
        like = pixel_likelihoods(model, pts, palette)
        assert (like == 0.0).any()
        assert not np.signbit(like).any()


def test_underflowed_rows_raise_no_floating_point_error(palette):
    # every likelihood underflows: the zero sums must never reach a division
    model = model_from_sigma(np.eye(3) * 1e-10, epsilon0=1e-4)
    pts = np.full((5, 3), 0.43)
    with np.errstate(divide="raise", invalid="raise"):
        weights = soft_map(model, pts, palette, 3)
    assert (np.count_nonzero(weights, axis=1) == 3).all()
    assert np.array_equal(weights[weights > 0], np.full(15, 1.0 / 3))


class TestTransformSpace:
    def test_identity(self):
        assert np.allclose(transform_space(identity_model()), np.eye(3))

    def test_diagonal_square_root(self):
        model = model_from_sigma(np.diag([0.25, 1.0, 4.0]), epsilon0=1e-4)
        assert np.allclose(
            np.sort(np.diag(transform_space(model))), [0.5, 1.0, 2.0]
        )

    def test_reconstructs_rectified_inverse(self, rng):
        for _ in range(20):
            spd = random_spd(rng)
            model = model_from_sigma(spd, epsilon0=1e-4)
            mat = transform_space(model)
            assert np.abs(mat.T @ mat - model.rectified_inverse).max() <= 1e-10

    def test_mahalanobis_becomes_euclidean(self, palette, rng):
        model = fit_model(pixel_set(rng.random((40, 3))), palette)
        mat = transform_space(model)
        z, c = rng.random(3), rng.random(3)
        maha = (z - c) @ model.rectified_inverse @ (z - c)
        eucl = ((mat @ (z - c)) ** 2).sum()
        assert maha == pytest.approx(eucl, rel=1e-10)
