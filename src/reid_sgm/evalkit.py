"""Evaluation harness: manifests, splits, CMC curves, synthetic corpora.

A dataset is described by a CSV manifest of (person, camera, image,
mask) rows.  Splits partition identities, evaluation ranks the gallery
entries of a probe-by-gallery score matrix (``ccl.score_matrix``) and
accumulates cumulative matching rates, and a seeded generator paints
two-camera corpora so the whole pipeline can be exercised end to end
without any restricted dataset.
"""

from __future__ import annotations

import csv
import math
import os
import posixpath
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoFailure, ProtocolViolation, TooFewIdentities, UnsupportedFormat
from .imaging import write_pgm, write_ppm
from .sgm import ColorNamePalette, default_palette

MANIFEST_HEADER = ("person_id", "camera", "image_path", "mask_path")


@dataclass(frozen=True)
class ManifestEntry:
    person_id: str
    camera: str  # "A" or "B"
    image_path: str
    mask_path: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered dataset rows; every identity appears in both cameras.  The
    entries' paths are relative to ``root``, the manifest's directory."""

    entries: tuple[ManifestEntry, ...]
    root: str = ""

    def locate(self, path: str) -> str:
        """Where an entry's image or mask path is, from the working directory."""
        return os.path.join(self.root, path)

    def person_ids(self) -> list[str]:
        return sorted({e.person_id for e in self.entries})

    def rows(self, camera: str | None = None, ids=None) -> list[ManifestEntry]:
        wanted = None if ids is None else set(ids)
        return [
            e for e in self.entries
            if (camera is None or e.camera == camera)
            and (wanted is None or e.person_id in wanted)
        ]


def validate_manifest(manifest: DatasetManifest) -> None:
    """Check the both-cameras invariant, raising on the first violation."""
    seen: dict[str, set] = {}
    for e in manifest.entries:
        seen.setdefault(e.person_id, set()).add(e.camera)
    for pid, cams in sorted(seen.items()):
        if cams != {"A", "B"}:
            raise ProtocolViolation(f"person {pid!r} appears only in camera(s) {sorted(cams)}")


def load_manifest(path, validate: bool = True) -> DatasetManifest:
    """Read a manifest CSV.  Each path is kept as the manifest gives it,
    normalized by ``posixpath.normpath``: an image's path is its source id."""
    path = Path(path)
    entries = []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
        except csv.Error as exc:
            raise UnsupportedFormat(f"{path}: not a manifest CSV: {exc}") from None
        if header is None or tuple(header[:4]) != MANIFEST_HEADER:
            raise UnsupportedFormat(
                f"{path}: expected header {','.join(MANIFEST_HEADER)}, got {header}"
            )
        for row in reader:
            missing = [key for key in MANIFEST_HEADER[:3] if not (row[key] or "").strip()]
            if missing:
                raise IoFailure(f"{path}:{reader.line_num}: row lacks {', '.join(missing)}")
            camera = row["camera"].strip()
            if camera not in ("A", "B"):
                raise IoFailure(f"{path}: camera must be A or B, got {camera!r}")
            mask = (row.get("mask_path") or "").strip() or None
            entries.append(
                ManifestEntry(
                    person_id=row["person_id"].strip(),
                    camera=camera,
                    image_path=posixpath.normpath(row["image_path"]),
                    mask_path=posixpath.normpath(mask) if mask else None,
                )
            )
    manifest = DatasetManifest(entries=tuple(entries), root=str(path.parent))
    if validate:
        validate_manifest(manifest)
    return manifest


def save_manifest(path, manifest: DatasetManifest) -> None:
    """Write the entries' paths as they are: relative ones stay relative to
    the directory the manifest is written to."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.person_id, e.camera, e.image_path, e.mask_path or ""])


@dataclass(frozen=True)
class SplitSpec:
    """One person-level train/test partition."""

    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def make_splits(
    manifest: DatasetManifest, fraction: float, n_splits: int, seed: int
) -> list[SplitSpec]:
    """Deterministic person-level partitions; ids are split, not images."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    ids = manifest.person_ids()
    n = len(ids)
    # Halves round up, so the extra identity of an odd corpus trains.
    n_train = math.floor(fraction * n + 0.5)
    if n_train < 1 or n_train >= n:
        side = "train" if n_train < 1 else "test"
        raise TooFewIdentities(f"{n} identities at train fraction {fraction} leave the {side} side empty")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(n_splits):
        perm = rng.permutation(n)
        train = tuple(sorted(ids[i] for i in perm[:n_train]))
        test = tuple(sorted(ids[i] for i in perm[n_train:]))
        splits.append(SplitSpec(train_ids=train, test_ids=test))
    return splits


def _identity_cmc(scores, probe_ids: list, gallery_ids: list) -> np.ndarray:
    """CMC over gallery identities in their order of first appearance.

    A probe scores an identity by its best image (its only one under the
    single-shot protocol).  Its rank counts the identities scoring above
    its true match plus the tied ones before it; ranks are then tallied.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(probe_ids), len(gallery_ids)):
        raise ProtocolViolation(
            f"score matrix {scores.shape} does not match {len(probe_ids)} probes "
            f"x {len(gallery_ids)} gallery entries"
        )
    if np.isnan(scores).any():
        raise ProtocolViolation("score matrix holds NaN, which has no rank")
    columns = {pid: j for j, pid in enumerate(dict.fromkeys(gallery_ids))}
    for pid in probe_ids:
        if pid not in columns:
            raise ProtocolViolation(f"probe {pid!r} has no gallery match")
    identity = np.array([columns[pid] for pid in gallery_ids], dtype=np.int64)
    order = np.argsort(identity, kind="stable")
    starts = np.searchsorted(identity[order], np.arange(len(columns)))
    best = np.maximum.reduceat(scores[:, order], starts, axis=1)
    match = np.array([columns[pid] for pid in probe_ids], dtype=np.int64)
    true = best[np.arange(len(match)), match][:, None]
    before = np.arange(len(columns))[None, :] < match[:, None]
    rank = (best > true).sum(axis=1) + ((best == true) & before).sum(axis=1)
    return np.bincount(rank, minlength=len(columns)).cumsum() / len(match)


def cmc_single_shot(scores: np.ndarray, probe_ids, gallery_ids) -> np.ndarray:
    """CMC rates from a probe-by-gallery score matrix, one image per id.

    rates[k] is the fraction of probes whose true match ranks within the
    top k+1 gallery entries; ranking is by descending score with ties
    broken by the lower gallery index.
    """
    probe_ids = list(probe_ids)
    gallery_ids = list(gallery_ids)
    if len(set(gallery_ids)) != len(gallery_ids):
        raise ProtocolViolation("duplicate identity in gallery under the single-shot protocol")
    if len(set(probe_ids)) != len(probe_ids):
        raise ProtocolViolation("duplicate identity among probes under the single-shot protocol")
    return _identity_cmc(scores, probe_ids, gallery_ids)


def cmc_multi_shot(scores: np.ndarray, probe_ids, gallery_ids) -> np.ndarray:
    """CMC over identities; a probe scores an identity by its best image.

    Gallery identities are ranked by the maximum score over their
    images; ties are broken by first appearance in the gallery.  The
    curve has one entry per distinct gallery identity.
    """
    return _identity_cmc(scores, list(probe_ids), list(gallery_ids))


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic two-camera corpus generator."""

    n_ids: int = 100
    images_per_view: int = 1
    width: int = 48
    height: int = 128
    regions: int = 4           # clothing bands stacked top to bottom
    mix_noise: float = 0.02    # per-pixel texture inside a band
    view_gain: float = 0.0     # strength of camera B's 3x3 color transform
    noise: float = 0.0         # camera B additive Gaussian noise, 8-bit units
    illum_jitter: float = 0.0  # per-image per-channel illumination gain spread
    seed: int = 0


def _quantize(canvas: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(canvas * 255.0), 0, 255).astype(np.uint8)


def synth_dataset(
    spec: SynthSpec, out_dir, palette: ColorNamePalette | None = None
) -> DatasetManifest:
    """Generate a seeded two-camera corpus of painted pedestrians.

    Every identity is a stack of clothing bands, each colored by a
    random two-entry palette mixture, over a gray background; camera B
    sees the same canvas through a fixed 3x3 color transform plus
    additive Gaussian noise.  Images are written as PPM with PGM
    foreground masks plus a manifest CSV, bitwise-reproducible from the
    seed.
    """
    if spec.n_ids < 2:
        raise ValueError(f"need at least 2 identities, got {spec.n_ids}")
    for name in ("images_per_view", "width", "height", "regions"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(spec, name)}")
    for name in ("mix_noise", "view_gain", "noise", "illum_jitter"):
        if not math.isfinite(getattr(spec, name)):
            raise ValueError(f"{name} must be finite, got {getattr(spec, name)}")
    palette = palette or default_palette()
    out_dir = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    try:
        (out_dir / "images").mkdir(parents=True, exist_ok=True)
        (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create corpus directories under {out_dir}: {exc}") from None

    h, w = spec.height, spec.width
    transform = np.eye(3) + spec.view_gain * rng.uniform(-1.0, 1.0, (3, 3))
    fg_r0, fg_r1 = h // 10, h - h // 20
    fg_c0, fg_c1 = w // 5, w - w // 5
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[fg_r0:fg_r1, fg_c0:fg_c1] = 255

    entries = []
    width_ids = len(str(spec.n_ids - 1))
    try:
        for pid in range(spec.n_ids):
            person = f"id{pid:0{width_ids}d}"
            # Band colors: a convex mixture of two palette entries each.
            picks = rng.integers(0, len(palette.names), size=(spec.regions, 2))
            mixes = rng.uniform(0.25, 0.75, size=spec.regions)
            colors = (
                mixes[:, None] * palette.names[picks[:, 0]]
                + (1.0 - mixes[:, None]) * palette.names[picks[:, 1]]
            )
            for shot in range(spec.images_per_view):
                cuts = np.linspace(fg_r0, fg_r1, spec.regions + 1).astype(int)
                jitter = rng.integers(-2, 3, size=spec.regions - 1)
                cuts[1:-1] = np.clip(cuts[1:-1] + jitter, fg_r0 + 1, fg_r1 - 1)
                cuts.sort()

                bg = rng.uniform(0.25, 0.75)
                canvas = np.full((h, w, 3), bg)
                canvas += rng.normal(0.0, spec.mix_noise, size=canvas.shape)
                for b in range(spec.regions):
                    canvas[cuts[b] : cuts[b + 1], fg_c0:fg_c1] = colors[b]
                canvas = np.clip(canvas, 0.0, 1.0)

                # Each camera sees the canvas under its own illumination.
                gain_a = 1.0 + spec.illum_jitter * rng.uniform(-1.0, 1.0, 3)
                gain_b = 1.0 + spec.illum_jitter * rng.uniform(-1.0, 1.0, 3)
                seen_a = np.clip(canvas * gain_a, 0.0, 1.0)
                shifted = (canvas * gain_b) @ transform.T
                if spec.noise > 0:
                    shifted = shifted + rng.normal(0.0, spec.noise / 255.0, size=canvas.shape)
                else:
                    # Keep the draw stream aligned across noise settings.
                    rng.normal(0.0, 1.0, size=canvas.shape)
                shifted = np.clip(shifted, 0.0, 1.0)

                for camera, pix in (("A", _quantize(seen_a)), ("B", _quantize(shifted))):
                    stem = f"{person}_cam{camera}_{shot}"
                    image_path, mask_path = f"images/{stem}.ppm", f"masks/{stem}.pgm"
                    write_ppm(out_dir / image_path, pix)
                    write_pgm(out_dir / mask_path, mask)
                    entries.append(ManifestEntry(person_id=person, camera=camera,
                                                 image_path=image_path, mask_path=mask_path))
    except OSError as exc:
        raise IoFailure(f"failed writing corpus under {out_dir}: {exc}") from None

    manifest = DatasetManifest(entries=tuple(entries), root=str(out_dir))
    save_manifest(out_dir / "manifest.csv", manifest)
    return manifest


@dataclass(frozen=True)
class CmcReport:
    """Mean matching rates at the requested ranks."""

    ranks: tuple[int, ...]
    rates: tuple[float, ...]

    def to_csv(self) -> str:
        head = ",".join(str(r) for r in self.ranks)
        body = ",".join("%.6f" % v for v in self.rates)
        return f"{head}\n{body}\n"

    def to_text(self) -> str:
        cells = [f"{r:>8d}" for r in self.ranks]
        vals = [f"{100.0 * v:>7.1f}%" for v in self.rates]
        return "Rank " + " ".join(cells) + "\nRate " + " ".join(vals) + "\n"


def rate_at(curve: np.ndarray, rank: int) -> float:
    """Matching rate at a 1-based rank, clamped to the curve's tail."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return float(curve[min(rank, len(curve)) - 1])


def report(curves, ranks=(1, 5, 10, 20)) -> CmcReport:
    """Average matching rates across split curves at the given ranks."""
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to report on")
    rates = tuple(
        float(np.mean([rate_at(curve, rank) for curve in curves])) for rank in ranks
    )
    return CmcReport(ranks=tuple(int(r) for r in ranks), rates=rates)
