"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -q``; the conftest hook prints
one PASS/FAIL line per criterion.  The synthetic end-to-end thresholds
were pinned from an oracle run of the generator at seed 202.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg

import reid_sgm as rs
from reid_sgm.ccl import accumulate_stats, score_matrix, solve_subspace
from reid_sgm.descriptor import (
    DescriptorSet,
    ExtractionConfig,
    extract_sgm,
    load_descriptors,
    save_descriptors,
)
from reid_sgm.errors import CorruptFile, UnsupportedFormat
from reid_sgm.evalkit import SynthSpec, cmc_single_shot, make_splits, synth_dataset
from reid_sgm.imaging import ColorSpace, load_image, load_mask
from reid_sgm.sgm import (
    estimate_sigma,
    identity_model,
    model_from_sigma,
    soft_map,
)

from conftest import make_image, make_mask


def test_dimension_audit(palette):
    """Masked default extraction is exactly 1280-dimensional; 640 unmasked."""
    start = time.perf_counter()
    img = make_image(48, 128, seed=1001)
    mask = make_mask(48, 128)
    config = ExtractionConfig()
    masked = extract_sgm(img, mask, config, palette=palette)
    plain = extract_sgm(img, None, config, palette=palette)
    elapsed = time.perf_counter() - start
    assert masked.dim == 16 * 10 * 4 * 2 == 1280
    assert plain.dim == 16 * 10 * 4 * 1 == 640
    assert sum(rec.length for rec in masked.layout) == 1280
    assert elapsed < 1.0


def test_extraction_speed(palette):
    """Mean masked extraction of a 128x48 image stays within 0.1 s."""
    config = ExtractionConfig()
    mask = make_mask(48, 128)
    images = [make_image(48, 128, seed=2000 + i) for i in range(100)]
    times = []
    batch_start = time.perf_counter()
    for img in images:
        t0 = time.perf_counter()
        rep = extract_sgm(img, mask, config, palette=palette)
        times.append(time.perf_counter() - t0)
        assert rep.dim == 1280
    batch = time.perf_counter() - batch_start
    assert np.mean(times) <= 0.1
    assert batch < 30.0


def test_covariance_estimate_identities(palette):
    """Streaming covariance equals the double-loop and expanded forms."""
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    names = palette.names
    outer_names = np.einsum("ki,kj->kij", names, names)
    for _ in range(20):
        points = rng.random((500, 3))
        streamed = estimate_sigma(points, names)

        loop = np.zeros((3, 3))
        for z in points:
            for c in names:
                d = z - c
                loop += np.outer(d, d)
        loop /= 16 * len(points)
        assert np.abs(streamed - loop).max() <= 1e-10

        outer_pts = np.einsum("ki,kj->kij", points, points)
        expanded = np.zeros((3, 3))
        for i in range(len(points)):
            for j in range(16):
                cross = np.outer(points[i], names[j])
                expanded += outer_pts[i] + outer_names[j] - cross - cross.T
        expanded /= 16 * len(points)
        assert np.abs(streamed - expanded).max() <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_eigenvalue_rectification():
    """Eigenvalues {2, 1, -0.5} rectify to inverse spectrum {0.5, 1, 1e-4}."""
    rng = np.random.default_rng(99)
    basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    sigma = basis @ np.diag([2.0, 1.0, -0.5]) @ basis.T
    model = model_from_sigma(sigma, epsilon0=1e-4)
    spectrum = np.sort(np.linalg.eigvalsh(model.rectified_inverse))
    assert np.abs(spectrum - np.array([1e-4, 0.5, 1.0])).max() <= 1e-12


def test_euclidean_reduction(palette):
    """Identity covariance reduces the soft map to nearest-name assignment."""
    start = time.perf_counter()
    model = identity_model()
    rng = np.random.default_rng(81)
    pts = rng.random((10_000, 3))
    weights = soft_map(model, pts, palette, 5)
    nearest = ((pts[:, None, :] - palette.names[None]) ** 2).sum(axis=2).argmin(axis=1)
    agreement = (weights.argmax(axis=1) == nearest).mean()
    assert agreement == 1.0
    assert time.perf_counter() - start < 5.0


def test_subspace_oracle_equivalence():
    """Whitened solver matches a dense generalized eigensolver."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    from test_ccl import random_spd, stats_from_matrices

    for case in range(50):
        d = (4, 8, 16)[case % 3]
        sigma_m = random_spd(rng, d)
        sigma_e = random_spd(rng, d)
        r = max(1, d // 2)
        model = solve_subspace(stats_from_matrices(sigma_m, sigma_e), r)
        ref_vals, ref_vecs = scipy.linalg.eigh(sigma_m, sigma_e)
        ref_vals = ref_vals[::-1][:r]
        ref_vecs = ref_vecs[:, ::-1][:, :r]
        assert np.abs(model.eigenvalues - ref_vals).max() <= 1e-8 * np.abs(ref_vals).max()
        for i in range(r):
            a = model.w[:, i]
            b = ref_vecs[:, i] / np.linalg.norm(ref_vecs[:, i])
            angle = np.arccos(np.clip(abs(a @ b), -1.0, 1.0))
            assert angle <= 1e-6
    assert time.perf_counter() - start < 10.0


def test_score_algebra():
    """Score symmetry plus the hand-computed two-dimensional instance."""
    model = rs.CclModel(
        w=np.eye(2),
        a=np.array([2.0, 2.0]),
        b=np.ones(2),
        mean_x=np.zeros(2),
        mean_y=np.zeros(2),
    )
    px = np.array([[1.0, 0.0]])
    assert abs(score_matrix(model, px, px)[0, 0] - 2.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(3)
    from test_ccl import hand_model, random_variances

    sym_model = hand_model(random_variances(rng, 4), random_variances(rng, 4))
    a, b = rng.normal(size=(100, 2, 4)).transpose(1, 0, 2)
    # Probes a against gallery b, and b against a: the same pairs, transposed.
    fwd, rev = score_matrix(sym_model, b, a), score_matrix(sym_model, a, b).T
    assert (np.abs(fwd - rev) <= 1e-12 * np.maximum(1.0, np.abs(fwd))).all()


# Pinned from the oracle run of the generator at seed 202 (rank-1 values
# observed: full 0.72, identity-covariance 0.60, no-projection 0.38).
SYNTH_SEED = 202
SPLIT_SEED = 123
FULL_RANK1_FLOOR = 0.70


def _extract_corpus(manifest, config, palette):
    reps = {}
    for entry in manifest.entries:
        img = load_image(manifest.locate(entry.image_path))
        mask = load_mask(manifest.locate(entry.mask_path), img)
        rep = extract_sgm(img, mask, config, palette=palette)
        reps[entry.image_path] = rep.vector.astype(np.float64)
    return reps


def _rank1_with_ccl(manifest, reps, split, r=50):
    rows_a = {e.person_id: e.image_path for e in manifest.rows("A")}
    rows_b = {e.person_id: e.image_path for e in manifest.rows("B")}
    xs = np.vstack([reps[rows_a[p]] for p in split.train_ids])
    ys = np.vstack([reps[rows_b[p]] for p in split.train_ids])
    model = solve_subspace(accumulate_stats(xs, ys), r)
    probes = rs.project(model, np.vstack([reps[rows_a[p]] for p in split.test_ids]), "A")
    gallery = rs.project(model, np.vstack([reps[rows_b[p]] for p in split.test_ids]), "B")
    curve = cmc_single_shot(score_matrix(model, gallery, probes), split.test_ids, split.test_ids)
    return curve[0]


def _rank1_without_learning(manifest, reps, split):
    rows_a = {e.person_id: e.image_path for e in manifest.rows("A")}
    rows_b = {e.person_id: e.image_path for e in manifest.rows("B")}
    probes = np.vstack([reps[rows_a[p]] for p in split.test_ids])
    gallery = np.vstack([reps[rows_b[p]] for p in split.test_ids])
    dist2 = ((probes[:, None, :] - gallery[None, :, :]) ** 2).sum(axis=2)
    curve = cmc_single_shot(-dist2, split.test_ids, split.test_ids)
    return curve[0]


def test_synthetic_end_to_end(tmp_path, palette):
    """Full pipeline on seeded corpora: exact recovery and variant ordering."""
    start = time.perf_counter()
    config = ExtractionConfig()
    config_eu = ExtractionConfig(euclidean=True)

    clean_spec = SynthSpec(n_ids=100, seed=SYNTH_SEED)
    clean = synth_dataset(clean_spec, tmp_path / "clean")
    split = make_splits(clean, 0.5, 1, SPLIT_SEED)[0]
    clean_reps = _extract_corpus(clean, config, palette)
    assert _rank1_with_ccl(clean, clean_reps, split) == 1.0

    noisy_spec = SynthSpec(
        n_ids=100, view_gain=0.6, noise=80.0, illum_jitter=0.4, seed=SYNTH_SEED
    )
    noisy = synth_dataset(noisy_spec, tmp_path / "noisy")
    noisy_reps = _extract_corpus(noisy, config, palette)
    noisy_reps_eu = _extract_corpus(noisy, config_eu, palette)

    rank1_full = _rank1_with_ccl(noisy, noisy_reps, split)
    rank1_eu = _rank1_with_ccl(noisy, noisy_reps_eu, split)
    rank1_raw = _rank1_without_learning(noisy, noisy_reps, split)

    assert rank1_full >= FULL_RANK1_FLOOR
    assert rank1_full > rank1_eu        # fitted covariance beats identity
    assert rank1_full > rank1_raw       # learned subspace beats no learning
    assert time.perf_counter() - start < 180.0


def test_cmc_properties():
    """Monotone curves, oracle agreement on small instances, split determinism."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    from test_evalkit import brute_force_single_shot, toy_manifest

    ids = [f"p{i}" for i in range(10)]
    for _ in range(25):
        scores = rng.normal(size=(10, 10))
        curve = cmc_single_shot(scores, ids, ids)
        assert (np.diff(curve) >= 0).all()
        assert (curve >= 0).all() and (curve <= 1).all()
        assert np.array_equal(curve, brute_force_single_shot(scores, ids, ids))

    manifest = toy_manifest(64)
    for seed in (0, 7, 31):
        first = make_splits(manifest, 0.5, 4, seed)
        second = make_splits(manifest, 0.5, 4, seed)
        assert first == second
        for split in first:
            assert not set(split.train_ids) & set(split.test_ids)
    assert time.perf_counter() - start < 5.0


def test_persistence_round_trip(tmp_path, palette):
    """Artifacts reload bitwise; corrupted magic and dims are rejected."""
    start = time.perf_counter()
    config = ExtractionConfig(spaces=(ColorSpace.RGB, ColorSpace.HSV))
    reps = [extract_sgm(make_image(12, 33, seed=50 + i), None, config, palette=palette)
            for i in range(4)]
    saved = DescriptorSet(matrix=np.vstack([rep.vector for rep in reps]), layout=reps[0].layout,
                          source_ids=tuple(f"img{i}" for i in range(4)))
    dpath = tmp_path / "d.sgmd"
    save_descriptors(dpath, saved)
    loaded = load_descriptors(dpath)
    assert np.array_equal(saved.matrix, loaded.matrix)
    assert saved.layout == loaded.layout and saved.source_ids == loaded.source_ids

    rng = np.random.default_rng(6)
    xs = rng.normal(size=(30, 8))
    ys = xs + 0.1 * rng.normal(size=(30, 8))
    model = solve_subspace(accumulate_stats(xs, ys), 4)
    mpath = tmp_path / "m.cclm"
    rs.save_models(mpath, {"SGM": model})
    relo = rs.load_models(mpath)["SGM"]
    for attr in (field.name for field in dataclasses.fields(rs.CclModel)):
        assert np.array_equal(getattr(model, attr), getattr(relo, attr)), attr

    bad_magic = bytearray(dpath.read_bytes())
    bad_magic[:4] = b"????"
    (tmp_path / "bad1").write_bytes(bytes(bad_magic))
    with pytest.raises(UnsupportedFormat):
        load_descriptors(tmp_path / "bad1")

    truncated = dpath.read_bytes()[:40]
    (tmp_path / "bad2").write_bytes(truncated)
    with pytest.raises(CorruptFile):
        load_descriptors(tmp_path / "bad2")

    bad_model = bytearray(mpath.read_bytes())
    bad_model[:4] = b"????"
    (tmp_path / "bad3").write_bytes(bytes(bad_model))
    with pytest.raises(UnsupportedFormat):
        rs.load_models(tmp_path / "bad3")

    (tmp_path / "bad4").write_bytes(mpath.read_bytes()[:-64])
    with pytest.raises(CorruptFile):
        rs.load_models(tmp_path / "bad4")
    assert time.perf_counter() - start < 5.0
