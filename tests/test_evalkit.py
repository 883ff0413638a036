"""Splits, CMC computation, synthetic corpora, reporting."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reid_sgm.errors import ProtocolViolation, TooFewIdentities
from reid_sgm.evalkit import (
    DatasetManifest,
    ManifestEntry,
    SynthSpec,
    cmc_multi_shot,
    cmc_single_shot,
    load_manifest,
    make_splits,
    rate_at,
    report,
    synth_dataset,
    validate_manifest,
)
from reid_sgm.imaging import load_image, load_mask


def toy_manifest(n_ids):
    entries = []
    for i in range(n_ids):
        pid = f"p{i:03d}"
        entries.append(ManifestEntry(pid, "A", f"{pid}_a.ppm", None))
        entries.append(ManifestEntry(pid, "B", f"{pid}_b.ppm", None))
    return DatasetManifest(entries=tuple(entries))


def brute_force_single_shot(scores, probe_ids, gallery_ids):
    """Rank with explicit sorting, recomputing the curve from scratch."""
    n_gallery = len(gallery_ids)
    rates = np.zeros(n_gallery)
    for i, pid in enumerate(probe_ids):
        pairs = sorted(
            enumerate(scores[i]), key=lambda item: (-item[1], item[0])
        )
        rank = [gallery_ids[j] for j, _ in pairs].index(pid)
        rates[rank:] += 1
    return rates / len(probe_ids)


def argsort_single_shot(scores, probe_ids, gallery_ids):
    """Oracle for ``cmc_single_shot``: one stable argsort per probe."""
    lookup = {pid: j for j, pid in enumerate(gallery_ids)}
    hits = np.zeros(len(gallery_ids), dtype=np.int64)
    for i, pid in enumerate(probe_ids):
        order = np.argsort(-scores[i], kind="stable")
        hits[int(np.nonzero(order == lookup[pid])[0][0])] += 1
    return hits.cumsum() / len(probe_ids)


def argsort_multi_shot(scores, probe_ids, gallery_ids):
    """Oracle for ``cmc_multi_shot``: per probe, the best image of each
    identity, then one stable argsort over identities."""
    identities = list(dict.fromkeys(gallery_ids))
    columns = {pid: [] for pid in identities}
    for j, pid in enumerate(gallery_ids):
        columns[pid].append(j)
    hits = np.zeros(len(identities), dtype=np.int64)
    for i, pid in enumerate(probe_ids):
        best = np.array([scores[i, cols].max() for cols in columns.values()])
        order = np.argsort(-best, kind="stable")
        hits[int(np.nonzero(order == identities.index(pid))[0][0])] += 1
    return hits.cumsum() / len(probe_ids)


@st.composite
def multi_shot_cases(draw):
    """Tie-heavy quantized scores with +-inf, shuffled galleries of 1-4
    images per identity and repeated probe ids."""
    n_ids = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 4), min_size=n_ids, max_size=n_ids))
    gallery_ids = [f"p{i}" for i, c in enumerate(counts) for _ in range(c)]
    gallery_ids = draw(st.permutations(gallery_ids))
    probe_ids = draw(st.lists(st.sampled_from(sorted(set(gallery_ids))), min_size=1, max_size=8))
    cell = st.one_of(st.integers(-2, 2).map(float), st.sampled_from([np.inf, -np.inf]))
    flat = draw(st.lists(cell, min_size=len(probe_ids) * len(gallery_ids),
                         max_size=len(probe_ids) * len(gallery_ids)))
    scores = np.array(flat).reshape(len(probe_ids), len(gallery_ids))
    return scores, probe_ids, list(gallery_ids)


class TestSplits:
    def test_even_half_split(self):
        manifest = toy_manifest(632)
        split = make_splits(manifest, 0.5, 1, seed=4)[0]
        assert len(split.train_ids) == 316
        assert len(split.test_ids) == 316
        assert not set(split.train_ids) & set(split.test_ids)

    @pytest.mark.parametrize("n_ids, n_train", [(5, 3), (7, 4), (9, 5), (11, 6)])
    def test_odd_corpus_half_rounds_up(self, n_ids, n_train):
        split = make_splits(toy_manifest(n_ids), 0.5, 1, seed=4)[0]
        assert (len(split.train_ids), len(split.test_ids)) == (n_train, n_ids - n_train)

    def test_deterministic(self):
        manifest = toy_manifest(50)
        a = make_splits(manifest, 0.5, 3, seed=11)
        b = make_splits(manifest, 0.5, 3, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        manifest = toy_manifest(50)
        a = make_splits(manifest, 0.5, 1, seed=1)[0]
        b = make_splits(manifest, 0.5, 1, seed=2)[0]
        assert a.train_ids != b.train_ids

    def test_union_covers_everything(self):
        manifest = toy_manifest(21)
        split = make_splits(manifest, 0.4, 1, seed=0)[0]
        assert sorted(split.train_ids + split.test_ids) == manifest.person_ids()

    def test_too_small_test_side(self):
        manifest = toy_manifest(4)
        message = r"^4 identities at train fraction 0\.999 leave the test side empty$"
        with pytest.raises(TooFewIdentities, match=message):
            make_splits(manifest, 0.999, 1, seed=0)

    def test_too_small_train_side(self):
        manifest = toy_manifest(316)
        message = r"^316 identities at train fraction 0\.0004 leave the train side empty$"
        with pytest.raises(TooFewIdentities, match=message):
            make_splits(manifest, 0.0004, 1, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            make_splits(toy_manifest(10), 1.5, 1, seed=0)

    def test_manifest_validation(self):
        entries = (
            ManifestEntry("a", "A", "a.ppm", None),
            ManifestEntry("a", "B", "b.ppm", None),
            ManifestEntry("lonely", "A", "c.ppm", None),
        )
        with pytest.raises(ProtocolViolation):
            validate_manifest(DatasetManifest(entries=entries))


class TestCmcSingleShot:
    def test_perfect_scores(self):
        ids = ["a", "b", "c"]
        scores = np.eye(3)
        curve = cmc_single_shot(scores, ids, ids)
        assert np.allclose(curve, 1.0)

    def test_two_probe_example(self):
        ids = ["a", "b"]
        scores = np.array([[1.0, 0.0], [1.0, 0.0]])
        # probe a ranks its match first; probe b second
        curve = cmc_single_shot(scores, ids, ids)
        assert np.allclose(curve, [0.5, 1.0])

    def test_matches_brute_force_oracle(self, rng):
        ids = [f"p{i}" for i in range(10)]
        for _ in range(20):
            scores = rng.normal(size=(10, 10))
            got = cmc_single_shot(scores, ids, ids)
            ref = brute_force_single_shot(scores, ids, ids)
            assert np.array_equal(got, ref)

    def test_matches_argsort_oracle_with_ties(self, rng):
        ids = [f"p{i}" for i in range(30)]
        gallery = ids[::-1]
        for levels in (2, 3, 7, 1000):
            scores = rng.integers(0, levels, size=(30, 30)).astype(np.float64)
            scores[:3] = np.inf
            got = cmc_single_shot(scores, ids, gallery)
            assert np.array_equal(got, argsort_single_shot(scores, ids, gallery))

    def test_nan_score_rejected(self):
        scores = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ProtocolViolation):
            cmc_single_shot(scores, ["a", "b"], ["a", "b"])

    def test_monotone_and_final_one(self, rng):
        ids = [f"p{i}" for i in range(8)]
        curve = cmc_single_shot(rng.normal(size=(8, 8)), ids, ids)
        assert (np.diff(curve) >= 0).all()
        assert curve[-1] == 1.0

    def test_tie_broken_by_gallery_index(self):
        ids = ["a", "b"]
        scores = np.zeros((2, 2))
        curve = cmc_single_shot(scores, ids, ids)
        # all-equal scores: probe a matches at rank 1, probe b at rank 2
        assert np.allclose(curve, [0.5, 1.0])

    def test_duplicate_gallery_id_rejected(self):
        with pytest.raises(ProtocolViolation):
            cmc_single_shot(np.zeros((2, 2)), ["a", "b"], ["a", "a"])

    def test_probe_without_match_rejected(self):
        with pytest.raises(ProtocolViolation):
            cmc_single_shot(np.zeros((1, 2)), ["zz"], ["a", "b"])


class TestCmcMultiShot:
    def test_single_image_reduces_to_single_shot(self, rng):
        ids = [f"p{i}" for i in range(6)]
        scores = rng.normal(size=(6, 6))
        assert np.array_equal(
            cmc_multi_shot(scores, ids, ids), cmc_single_shot(scores, ids, ids)
        )

    def test_max_governs_rank(self):
        probe_ids = ["a"]
        gallery_ids = ["a", "a", "b"]
        # the second image of identity a carries the top score
        scores = np.array([[0.1, 0.9, 0.5]])
        curve = cmc_multi_shot(scores, probe_ids, gallery_ids)
        assert np.allclose(curve, [1.0, 1.0])

    def test_exhaustive_oracle(self, rng):
        ids = [f"p{i}" for i in range(5)]
        gallery_ids = [pid for pid in ids for _ in range(3)]
        for _ in range(10):
            scores = rng.normal(size=(5, 15))
            got = cmc_multi_shot(scores, ids, gallery_ids)
            best = np.stack(
                [scores[:, [j for j, g in enumerate(gallery_ids) if g == pid]].max(axis=1)
                 for pid in ids],
                axis=1,
            )
            ref = brute_force_single_shot(best, ids, ids)
            assert np.array_equal(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(multi_shot_cases())
    def test_matches_argsort_oracle(self, case):
        scores, probe_ids, gallery_ids = case
        got = cmc_multi_shot(scores, probe_ids, gallery_ids)
        assert np.array_equal(got, argsort_multi_shot(scores, probe_ids, gallery_ids))

    def test_nan_score_rejected(self):
        scores = np.array([[0.0, np.nan, 1.0]])
        with pytest.raises(ProtocolViolation):
            cmc_multi_shot(scores, ["a"], ["a", "b", "b"])

    def test_probe_without_match_rejected(self):
        with pytest.raises(ProtocolViolation):
            cmc_multi_shot(np.zeros((1, 2)), ["zz"], ["a", "a"])

    def test_multiple_probe_images(self, rng):
        probe_ids = ["a", "a", "b"]
        gallery_ids = ["a", "b"]
        scores = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        curve = cmc_multi_shot(scores, probe_ids, gallery_ids)
        assert np.allclose(curve, [2 / 3, 1.0])


class TestSynthDataset:
    def test_zero_noise_identity_views_match(self, tmp_path):
        spec = SynthSpec(n_ids=3, seed=5)
        manifest = synth_dataset(spec, tmp_path / "c")
        by_person = {}
        for e in manifest.entries:
            by_person.setdefault(e.person_id, {})[e.camera] = e.image_path
        for paths in by_person.values():
            a = Path(paths["A"]).read_bytes()
            b = Path(paths["B"]).read_bytes()
            assert a == b

    def test_counts(self, tmp_path):
        spec = SynthSpec(n_ids=100, images_per_view=1, seed=1)
        manifest = synth_dataset(spec, tmp_path / "c")
        assert len(manifest.entries) == 200
        assert len(list((tmp_path / "c" / "images").glob("*.ppm"))) == 200
        assert len(list((tmp_path / "c" / "masks").glob("*.pgm"))) == 200

    def test_bitwise_determinism(self, tmp_path):
        spec = SynthSpec(n_ids=4, view_gain=0.4, noise=30.0, illum_jitter=0.2, seed=77)
        man_a = synth_dataset(spec, tmp_path / "a")
        man_b = synth_dataset(spec, tmp_path / "b")

        def digest(manifest):
            blob = hashlib.sha256()
            for e in manifest.entries:
                blob.update(Path(e.image_path).read_bytes())
                blob.update(Path(e.mask_path).read_bytes())
            return blob.hexdigest()

        assert digest(man_a) == digest(man_b)

    def test_images_and_masks_load(self, tmp_path):
        spec = SynthSpec(n_ids=2, seed=9)
        manifest = synth_dataset(spec, tmp_path / "c")
        entry = manifest.entries[0]
        img = load_image(entry.image_path)
        mask = load_mask(entry.mask_path, img)
        assert (img.width, img.height) == (48, 128)
        assert 0 < mask.foreground_count() < 48 * 128

    def test_manifest_roundtrip(self, tmp_path):
        spec = SynthSpec(n_ids=3, seed=2)
        manifest = synth_dataset(spec, tmp_path / "c")
        loaded = load_manifest(tmp_path / "c" / "manifest.csv")
        assert [e.person_id for e in loaded.entries] == [
            e.person_id for e in manifest.entries
        ]
        assert all(Path(e.image_path).exists() for e in loaded.entries)

    def test_manifest_paths_match_per_row_resolve(self, tmp_path):
        # the loader resolves each directory once; each row must read as if
        # it had been resolved on its own
        spec = SynthSpec(n_ids=2, seed=2)
        synth_dataset(spec, tmp_path / "c")
        images = tmp_path / "c" / "images"
        (tmp_path / "linked").symlink_to(images, target_is_directory=True)
        (images / "alias.ppm").symlink_to(images / "id0_camA_0.ppm")
        (images / "dangling.ppm").symlink_to(tmp_path / "nowhere.ppm")
        rows = [
            ("id0", "A", "images/alias.ppm", "images/id0_camA_0_mask.pgm"),
            ("id0", "B", "images/../images/id0_camB_0.ppm", ""),
            ("id1", "A", "../linked/id1_camA_0.ppm", "../linked/./missing_mask.pgm"),
            ("id1", "B", "images/missing.ppm", "images/dangling.ppm"),
            ("id2", "A", "images/..", "."),
            ("id2", "B", str(images / "id1_camB_0.ppm"), "images/sub/../../images/x.pgm"),
            ("id3", "A", "images/", "./images/alias.ppm"),
            ("id3", "B", "images//id0_camB_0.ppm", "images/alias.ppm/"),
            ("id4", "A", ".//images/./id1_camA_0.ppm", "../linked//alias.ppm"),
            ("id4", "B", "images/missing/", "./"),
        ]
        text = "person_id,camera,image_path,mask_path\n"
        text += "".join(",".join(row) + "\n" for row in rows)
        (tmp_path / "c" / "odd.csv").write_text(text)
        loaded = load_manifest(tmp_path / "c" / "odd.csv", validate=False)
        root = tmp_path / "c"
        for entry, (_, _, image, mask) in zip(loaded.entries, rows, strict=True):
            assert entry.image_path == str((root / image).resolve())
            assert entry.mask_path == (str((root / mask).resolve()) if mask else None)
        assert loaded.entries[0].image_path.endswith("id0_camA_0.ppm")
        assert loaded.entries[3].mask_path == str((tmp_path / "nowhere.ppm").resolve())

    def test_multi_shot_counts(self, tmp_path):
        spec = SynthSpec(n_ids=2, images_per_view=3, seed=0)
        manifest = synth_dataset(spec, tmp_path / "c")
        assert len(manifest.entries) == 12
        a_rows = manifest.rows(camera="A", ids=["id0"])
        assert len(a_rows) == 3


class TestReport:
    def test_single_curve(self):
        table = report([np.array([0.5, 1.0])], ranks=(1, 2))
        assert table.rates == (0.5, 1.0)
        assert table.to_csv() == "1,2\n0.500000,1.000000\n"

    def test_identical_curves_mean(self):
        curve = np.array([0.25, 0.5, 1.0])
        table = report([curve, curve.copy()], ranks=(1, 2, 3))
        assert table.rates == (0.25, 0.5, 1.0)

    def test_mean_matches_hand_computation(self, rng):
        curves = [np.sort(rng.random(20)) for _ in range(10)]
        table = report(curves, ranks=(1, 5, 10, 20))
        for pos, rank in enumerate((1, 5, 10, 20)):
            expected = np.mean([c[rank - 1] for c in curves])
            assert table.rates[pos] == pytest.approx(expected, abs=1e-12)

    def test_rank_beyond_curve_clamps(self):
        assert rate_at(np.array([0.5, 1.0]), 10) == 1.0

    def test_text_rendering(self):
        table = report([np.array([0.5, 1.0])], ranks=(1, 2))
        text = table.to_text()
        assert "Rank" in text and "50.0%" in text
