"""Command-line front end tying the pipeline together.

Subcommands: extract, train, eval, score, synth, inspect.  Each takes
--config, a flat key=value file that pre-sets any flag, with the command
line taking precedence.  --seed belongs to train, eval and synth;
--threads (default $REID_SGM_THREADS, else 1) and --verbose to extract.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import ccl, descriptor, evalkit, imaging, sgm
from .errors import (
    ArtifactMismatch,
    IoFailure,
    NotPositiveDefinite,
    ReidSgmError,
    UnsupportedFormat,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

THREADS_ENV = "REID_SGM_THREADS"
CAMERAS = ("A", "B")
TRAIN_FRACTION = 0.5  # share of the identities a split trains on

_NUMERIC_ERRORS = (NotPositiveDefinite, np.linalg.LinAlgError, FloatingPointError)
# Checked after _NUMERIC_ERRORS, so NotPositiveDefinite still exits 3.
_DATA_ERRORS = (ReidSgmError, OSError)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment line and a
    key may appear once."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _options(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    """The options a config file can set: every flag but --help and --config."""
    return [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")]


def _config_value(action: argparse.Action, raw: str):
    """A config value parsed as the flag's own value would be."""
    value = _parse_bool(raw) if action.nargs == 0 else (action.type or str)(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}, got {raw!r}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line, then parse it again with the --config file's
    values as the running subcommand's defaults, so the command line wins.
    A key may belong to any subcommand: one file serves extract, train and eval.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    values = load_config(args.config)
    commands = _commands(parser)
    unknown = sorted(set(values) - {a.dest for p in commands.values() for a in _options(p)})
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
    defaults = {}
    for action in _options(commands[args.command]):
        if action.dest in values:
            try:
                defaults[action.dest] = _config_value(action, values[action.dest])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {action.dest}: {exc}") from None
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _parse_spaces(raw: str):
    return tuple(imaging.ColorSpace.from_tag(tag.strip()) for tag in raw.split(","))


def _parse_features(raw: str):
    return tuple(part.strip().upper() for part in raw.split(","))


def _parse_ranks(raw: str):
    return tuple(int(part) for part in raw.split(","))


def _extraction_config(args) -> descriptor.ExtractionConfig:
    return descriptor.ExtractionConfig(
        k=args.k, stripes=args.stripes, spaces=args.spaces, use_mask=args.mask,
        epsilon0=args.epsilon0, features=args.features, euclidean=args.euclidean,
    )


def _check_rows(manifest_path, manifest: evalkit.DatasetManifest, use_mask: bool) -> None:
    """A data error found from the manifest alone; nothing is decoded here,
    as ``_extract_rows`` loads each row on its turn."""
    if not manifest.entries:
        raise IoFailure(f"{manifest_path}: manifest lists no images")
    first_row: dict[str, int] = {}
    for number, entry in enumerate(manifest.entries, 1):
        earlier = first_row.setdefault(os.path.abspath(manifest.locate(entry.image_path)), number)
        if earlier != number:
            raise IoFailure(f"{manifest_path}: data rows {earlier} and {number} "
                            f"both list {entry.image_path}")
    # A row's layout depends only on the config and on whether it has a mask.
    by_mask = {bool(entry.mask_path): entry.image_path for entry in manifest.entries}
    if use_mask and len(by_mask) > 1:
        raise ArtifactMismatch(f"{by_mask[True]} has a mask but {by_mask[False]} has none; "
                               "give every image a mask or pass --no-mask")


def _extraction_provenance(config, palette) -> dict:
    """A descriptor file's provenance: the config and a SHA-256 of the palette."""
    settings = {f.name: getattr(config, f.name) for f in fields(config)}
    settings["spaces"] = [space.value for space in config.spaces]
    names = np.ascontiguousarray(palette.names, dtype="<f8").tobytes()
    return {"config": settings, "palette_sha256": hashlib.sha256(names).hexdigest()}


def _extract_rows(manifest, config, palette, args):
    """The manifest's descriptors, in its order, and each one's extraction
    time.  The worker that extracts a row loads it, and its vector goes into
    one (count, dim) matrix; once a load fails, no row starts extracting and
    the rest are only loaded, so that every file that fails is named."""
    entries = manifest.entries
    errors: dict[int, str] = {}  # row -> error line of a file that failed to load

    def load(row: int):
        """The row's (image, mask), or None once its error line is in ``errors``."""
        entry = entries[row]
        try:
            image = imaging.load_image(manifest.locate(entry.image_path))
            mask = None
            if config.use_mask and entry.mask_path:
                mask = imaging.load_mask(manifest.locate(entry.mask_path), image)
            return image, mask
        except (ReidSgmError, OSError) as exc:
            errors[row] = f"{entry.image_path}: {exc}"
            return None

    rows = range(len(entries))

    def one(row: int):
        loaded = load(row)
        if errors:  # this load or another one failed
            return None
        start = time.perf_counter()
        rep = descriptor.extract_features(*loaded, config, palette=palette)
        return rep, time.perf_counter() - start

    def collect(results):
        # Workers only time their image; lines are printed here, one
        # thread in manifest order, so concurrent prints cannot interleave.
        matrix, times = None, np.zeros(len(entries))
        for row, result in zip(rows, results):
            if result is None:
                continue
            rep, times[row] = result
            if args.verbose:
                print(f"{entries[row].image_path}: dim={rep.dim} {times[row] * 1e3:.1f} ms")
            if matrix is None:
                matrix = np.empty((len(entries), rep.dim), dtype=np.float32)
                layout = rep.layout
            matrix[row] = rep.vector
        if errors:
            for row in sorted(errors):
                print(f"error: {errors[row]}", file=sys.stderr)
            raise IoFailure(f"{len(errors)} file(s) failed to load")
        source_ids = tuple(entry.image_path for entry in entries)
        return descriptor.DescriptorSet(matrix=matrix, layout=layout, source_ids=source_ids,
                                        provenance=_extraction_provenance(config, palette)), times

    if args.threads > 1:
        # Imported here: the other commands need no pool, nor its start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            return collect(pool.map(one, rows))
    return collect(map(one, rows))


def cmd_extract(args) -> int:
    if args.threads < 1:
        raise ValueError(f"thread count must be >= 1, got {args.threads}")
    config = _extraction_config(args)
    palette = sgm.load_palette(args.palette) if args.palette else sgm.default_palette()
    out_path = Path(args.out)
    manifest = evalkit.load_manifest(args.manifest, validate=False)
    # Once the manifest is read, a failed run removes --out and --csv, so a
    # file from an earlier run cannot pass for this one's.
    try:
        _check_rows(args.manifest, manifest, config.use_mask)
        descriptors, times = _extract_rows(manifest, config, palette, args)
        descriptor.save_descriptors(out_path, descriptors)
        if args.csv:
            descriptor.export_csv(args.csv, descriptors)
    except Exception:
        out_path.unlink(missing_ok=True)
        if args.csv:
            Path(args.csv).unlink(missing_ok=True)
        raise
    count, dim = descriptors.matrix.shape
    print(
        f"extracted {count} representations of dim {dim} -> {out_path} "
        f"(per-image mean {times.mean() * 1e3:.1f} ms, p95 {np.percentile(times, 95) * 1e3:.1f} ms)"
    )
    return EXIT_OK


def _block_span(layout, kind: str) -> tuple[int, int]:
    """(offset, length) of a model's block; the kind "ALL" spans the whole layout."""
    if kind == "ALL":
        return 0, sum(rec.length for rec in layout)
    return descriptor.feature_span(layout, kind)


def _gather(manifest, reps, camera, ids):
    entries = manifest.rows(camera=camera, ids=ids)
    return entries, reps.rows([e.image_path for e in entries])


def _spectrum(model) -> str:
    """The model's first five eigenvalues, then ``...`` if it has more."""
    head = ", ".join("%.4g" % v for v in model.eigenvalues[:5])
    return f"eigenvalues [{head}{', ...' if model.rank > 5 else ''}]"


def cmd_train(args) -> int:
    if args.split_index < 0:
        raise ValueError(f"split index must be >= 0, got {args.split_index}")
    if args.r < 1:
        raise ValueError(f"subspace dimension r must be >= 1, got {args.r}")

    reps = descriptor.load_descriptors(args.descriptors)
    manifest = evalkit.load_manifest(args.manifest)
    splits = evalkit.make_splits(manifest, args.fraction, args.split_index + 1, args.seed)
    split = splits[args.split_index]
    by_person: dict[str, dict[str, list[int]]] = {camera: {} for camera in CAMERAS}
    for camera, groups in by_person.items():
        for entry, row in zip(*_gather(manifest, reps, camera, split.train_ids)):
            groups.setdefault(entry.person_id, []).append(row)
    # Every matched (A, B) image pair of the split, as row-aligned index arrays.
    a_rows, b_rows = np.array([
        (ra, rb) for pid in split.train_ids
        for ra in by_person["A"][pid] for rb in by_person["B"][pid]
    ], dtype=np.intp).T

    ids = "\n".join(sorted(split.train_ids)).encode("utf-8")
    provenance = {
        "split": {"seed": args.seed, "fraction": args.fraction, "index": args.split_index},
        "train_ids": {"count": len(split.train_ids), "sha256": hashlib.sha256(ids).hexdigest()},
        "r_requested": args.r,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    layout = reps.layout
    kinds = dict.fromkeys(rec.kind for rec in layout) if args.per_feature else ["ALL"]
    models: dict[str, ccl.CclModel] = {}
    for kind in kinds:
        offset, length = _block_span(layout, kind)
        block = reps.matrix[:, offset : offset + length]
        r_eff = min(args.r, length)
        if r_eff < args.r:
            print(
                f"warning: {kind}: requested r={args.r} clamped to feature dim {length}",
                file=sys.stderr,
            )
        stats = ccl.accumulate_stats(block[a_rows], block[b_rows], ridge=args.ridge)
        models[kind] = ccl.solve_subspace(stats, r_eff)
        print(f"{kind}: d={length} r={r_eff} pairs={len(a_rows)} {_spectrum(models[kind])}")

    ccl.save_models(args.out, models, provenance)
    print(f"trained on {len(a_rows)} pairs from {len(split.train_ids)} identities -> {args.out}")
    return EXIT_OK


def _projected(models, reps, rows, view):
    """Each model's projection of descriptor ``rows`` under ``view``'s mean,
    gathered and projected in blocks of 64 to 127 rows (or one block of
    fewer), so its copies stay a block's size.  A GEMM of 64+ rows rounds
    each row as one over all rows does; a one-row or a small product may not."""
    blocks = np.array_split(np.asarray(rows, dtype=np.intp), max(1, len(rows) // 64))
    projected = {}
    for kind, model in models.items():
        offset, length = _block_span(reps.layout, kind)
        columns = reps.matrix[:, offset : offset + length]
        projected[kind] = np.concatenate([ccl.project(model, columns[block], view)
                                          for block in blocks])
    return projected


def _fused_scores(models, probes, gallery):
    """Probe-by-gallery scores summed over the models, from projected rows."""
    total = None
    for kind, model in models.items():
        scores = ccl.score_matrix(model, gallery[kind], probes[kind])
        total = scores if total is None else total + scores
    return total


def cmd_eval(args) -> int:
    for flag, value in (("--splits", args.splits), ("--ranks", min(args.ranks))):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    reps = descriptor.load_descriptors(args.descriptors)
    models = ccl.load_models(args.model)
    manifest = evalkit.load_manifest(args.manifest)
    gallery_camera = "B" if args.probe_camera == "A" else "A"
    splits = evalkit.make_splits(manifest, args.fraction, args.splits, args.seed)

    # Each tested row is projected once per model under its camera's mean.
    tested = {pid for split in splits for pid in split.test_ids}
    views = {camera: _gather(manifest, reps, camera, tested) for camera in CAMERAS}
    projected = {cam: _projected(models, reps, rows, cam) for cam, (_, rows) in views.items()}

    def gathered(camera, ids):
        entries = views[camera][0]
        at = [i for i, e in enumerate(entries) if e.person_id in ids]
        return [entries[i].person_id for i in at], {k: p[at] for k, p in projected[camera].items()}

    curves = []
    for split in splits:
        ids = set(split.test_ids)
        probe_ids, probes = gathered(args.probe_camera, ids)
        gallery_ids, gallery = gathered(gallery_camera, ids)
        scores = _fused_scores(models, probes, gallery)
        if args.protocol == "single":
            curves.append(evalkit.cmc_single_shot(scores, probe_ids, gallery_ids))
        else:
            curves.append(evalkit.cmc_multi_shot(scores, probe_ids, gallery_ids))

    table = evalkit.report(curves, args.ranks)
    if args.out:
        Path(args.out).write_text(table.to_csv())
        print(table.to_text(), end="")
        print(f"report -> {args.out}")
    else:
        print(table.to_csv(), end="")
    return EXIT_OK


def _pair_score(models, reps, probe: int, gallery: int, probe_camera: str) -> float:
    """The score ``eval`` gives rows ``probe`` and ``gallery``: each is projected
    in a block of 64 rows (all, if fewer), and the blocks scored as one matrix."""
    count = reps.matrix.shape[0]
    starts = [max(0, min(row, count - 64)) for row in (probe, gallery)]
    blocks = [np.arange(start, min(count, start + 64)) for start in starts]
    gallery_camera = "B" if probe_camera == "A" else "A"
    scores = _fused_scores(models, _projected(models, reps, blocks[0], probe_camera),
                           _projected(models, reps, blocks[1], gallery_camera))
    return float(scores[probe - starts[0], gallery - starts[1]])


def cmd_score(args) -> int:
    reps = descriptor.load_descriptors(args.descriptors)
    models = ccl.load_models(args.model)
    probe, gallery = reps.rows([args.probe, args.gallery])
    print("%.9g" % _pair_score(models, reps, probe, gallery, args.probe_camera))
    return EXIT_OK


def _load_synth_spec(path) -> evalkit.SynthSpec:
    """Read a key=value ``SynthSpec`` file; unknown keys are a usage error."""
    values = load_config(path)
    defaults = {f.name: f.default for f in fields(evalkit.SynthSpec)}
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ValueError(
            f"{path}: unknown spec key(s) {', '.join(unknown)} "
            f"(expected: {', '.join(defaults)})"
        )
    return evalkit.SynthSpec(
        **{key: type(defaults[key])(raw) for key, raw in values.items()}
    )


def cmd_synth(args) -> int:
    spec = _load_synth_spec(args.spec) if args.spec else evalkit.SynthSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)

    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise IoFailure(f"{out_dir} is not empty; pass --force to write into it")
    manifest = evalkit.synth_dataset(spec, out_dir)
    print(f"wrote {len(manifest.entries)} images under {out_dir} (seed {spec.seed})")
    print(out_dir / "manifest.csv")
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.path)
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head.startswith(descriptor.DESCRIPTOR_MAGIC):
        reps = descriptor.load_descriptors(path)
        count, dim = reps.matrix.shape
        print(f"descriptor file: {count} rows, dim {dim}")
        for kind in dict.fromkeys(rec.kind for rec in reps.layout):
            offset, length = descriptor.feature_span(reps.layout, kind)
            print(f"  {kind}: offset {offset}, length {length}")
        for source_id in reps.source_ids[:5]:
            print(f"  row: {source_id}")
        if count > 5:
            print(f"  ... {count - 5} more")
        print(f"  provenance: {json.dumps(reps.provenance)}")
    elif head.startswith(ccl.MODEL_MAGIC):
        models = ccl.load_models(path)
        print(f"model file: {len(models)} model(s)")
        for kind, model in models.items():
            print(f"  {kind}: d={model.dim} r={model.rank} {_spectrum(model)}")
        print(f"  provenance: {json.dumps(models.provenance)}")
    elif head.startswith(b"P6"):
        img = imaging.load_image(path)
        print(f"image (P6): {img.width}x{img.height}")
    elif head.startswith(b"P5"):
        mask = imaging.load_mask(path)
        print(f"mask (P5): {mask.width}x{mask.height}")
    else:
        try:
            manifest = evalkit.load_manifest(path, validate=False)
        except UnsupportedFormat:  # no manifest header: maybe a palette
            try:
                palette = sgm.load_palette(path)
            except (ValueError, UnicodeDecodeError):
                raise UnsupportedFormat(f"{path}: unrecognized artifact") from None
            print(f"palette: {', '.join(palette.labels)}")
            return EXIT_OK
        ids = manifest.person_ids()
        print(
            f"manifest: {len(manifest.entries)} rows, {len(ids)} identities, "
            f"cameras A={len(manifest.rows(camera='A'))} B={len(manifest.rows(camera='B'))}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    extraction = descriptor.ExtractionConfig()
    switch = argparse.BooleanOptionalAction
    parser = _Parser(prog="reid-sgm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="extract descriptors for a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output descriptor file")
    p.add_argument("--csv", help="also export the rows as CSV")
    p.add_argument("--features", type=_parse_features, default=",".join(extraction.features),
                   help="comma list of SGM,CH,SILTP")
    p.add_argument("--k", type=int, default=extraction.k, help="color names kept per pixel")
    p.add_argument("--stripes", type=int, default=extraction.stripes, help="horizontal stripes")
    p.add_argument("--spaces", type=_parse_spaces,
                   default=",".join(space.value for space in extraction.spaces),
                   help="comma list of RGB,rgb,l1l2l3,HSV")
    p.add_argument("--mask", action=switch, default=extraction.use_mask,
                   help="use manifest masks for a foreground view")
    p.add_argument("--epsilon0", type=float, default=extraction.epsilon0,
                   help="eigenvalue rectification floor")
    p.add_argument("--palette", help="palette file (default: shipped 16 color names)")
    p.add_argument("--euclidean", action=switch, default=extraction.euclidean,
                   help="force the identity covariance instead of fitting")
    p.add_argument("--threads", type=int, default=os.environ.get(THREADS_ENV) or 1,
                   help=f"images extracted in parallel; ${THREADS_ENV} sets the default")
    p.add_argument("--verbose", action="store_true", help="print a line per image")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train projection models on one split")
    p.add_argument("descriptors")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--r", type=int, default=ccl.DEFAULT_SUBSPACE_DIM,
                   help="subspace dimension per feature")
    p.add_argument("--ridge", type=float, default=ccl.DEFAULT_RIDGE,
                   help="covariance ridge factor")
    p.add_argument("--fraction", type=float, default=TRAIN_FRACTION,
                   help="train fraction of identities")
    p.add_argument("--split-index", type=int, default=0,
                   help="which deterministic split to train on")
    p.add_argument("--seed", type=int, default=0, help="seed of the identity splits")
    p.add_argument("--per-feature", action=switch, default=True,
                   help="train one model per feature kind")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="CMC table over random splits")
    p.add_argument("descriptors")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--splits", type=int, default=10, help="number of random splits")
    p.add_argument("--fraction", type=float, default=TRAIN_FRACTION,
                   help="train fraction of identities")
    p.add_argument("--seed", type=int, default=0, help="seed of the identity splits")
    p.add_argument("--protocol", choices=("single", "multi"), default="single",
                   help="shot protocol")
    p.add_argument("--ranks", type=_parse_ranks, default="1,5,10,20", help="ranks to report")
    p.add_argument("--probe-camera", choices=CAMERAS, default=CAMERAS[0],
                   help="which camera probes")
    p.add_argument("--out", help="write the CSV report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="similarity of two descriptor rows")
    p.add_argument("descriptors")
    p.add_argument("model")
    p.add_argument("--probe", required=True, help="source id of the probe row")
    p.add_argument("--gallery", required=True, help="source id of the gallery row")
    p.add_argument("--probe-camera", choices=CAMERAS, default=CAMERAS[0],
                   help="which camera the probe row comes from")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic two-camera corpus")
    p.add_argument("--spec", help="key=value spec file (n_ids, noise, view_gain, ...)")
    p.add_argument("--seed", type=int, help="corpus seed (default: the spec's)")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--force", action="store_true", help="write into a non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="describe a toolkit artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    for p in _commands(parser).values():
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for action in _options(p):
            if action.default is not None:
                action.help += " (default %(default)s)"
    return parser


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
