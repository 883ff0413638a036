"""Command-line front end tying the pipeline together.

Subcommands: extract, train, eval, score, synth, inspect.  Common
flags (--config, --seed, --threads, --verbose) are accepted by every
subcommand; a flat key=value config file can pre-set any flag, with the
command line taking precedence.  Exit codes: 0 success, 1 usage error,
2 data error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
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

_NUMERIC_ERRORS = (NotPositiveDefinite, np.linalg.LinAlgError, FloatingPointError)
# Checked after _NUMERIC_ERRORS, so NotPositiveDefinite still exits 3.
_DATA_ERRORS = (ReidSgmError, OSError)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


class _Options:
    """Layered option lookup: CLI value, then config file, then default."""

    def __init__(self, args):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self.config) - _option_dests(build_parser()))
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")

    def get(self, key: str, default, cast):
        cli = getattr(self.args, key, None)
        if cli is not None:
            return cli
        if key in self.config:
            raw = self.config[key]
            return _parse_bool(raw) if cast is bool else cast(raw)
        return default

    def threads(self) -> int:
        env = os.environ.get(THREADS_ENV)
        fallback = int(env) if env else 1
        n = self.get("threads", fallback, int)
        if n < 1:
            raise ValueError(f"thread count must be >= 1, got {n}")
        return n


def _option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """Dests of every option of a parser and of its subcommands."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _option_dests(sub)
        elif action.option_strings and action.dest != "help":
            dests.add(action.dest)
    return dests


def _parse_spaces(raw: str):
    return tuple(imaging.ColorSpace.from_tag(tag.strip()) for tag in raw.split(","))


def _parse_features(raw: str):
    kinds = tuple(part.strip().upper() for part in raw.split(","))
    for kind in kinds:
        if kind not in descriptor.FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}")
    return kinds


def _parse_ranks(raw: str):
    return tuple(int(part) for part in raw.split(","))


def _extraction_config(opts: _Options) -> descriptor.ExtractionConfig:
    return descriptor.ExtractionConfig(
        k=opts.get("k", 5, int),
        stripes=opts.get("stripes", 10, int),
        spaces=opts.get("spaces", imaging.ALL_SPACES, _parse_spaces),
        use_mask=opts.get("mask", True, bool),
        epsilon0=opts.get("epsilon0", sgm.DEFAULT_EPSILON0, float),
        features=opts.get("features", ("SGM",), _parse_features),
        palette_path=opts.get("palette", None, str),
        euclidean=opts.get("euclidean", False, bool),
        global_fit=opts.get("global_fit", False, bool),
    )


def _load_palette(config: descriptor.ExtractionConfig) -> sgm.ColorNamePalette:
    if config.palette_path:
        return sgm.load_palette(config.palette_path)
    return sgm.default_palette()


@dataclass
class _LoadedRow:
    entry: evalkit.ManifestEntry
    image: imaging.RasterImage
    mask: imaging.ForegroundMask | None


def _load_rows(manifest: evalkit.DatasetManifest, use_mask: bool):
    rows = []
    failures = []
    for entry in manifest.entries:
        try:
            image = imaging.load_image(entry.image_path)
            mask = None
            if use_mask and entry.mask_path:
                mask = imaging.load_mask(entry.mask_path, image)
            rows.append(_LoadedRow(entry=entry, image=image, mask=mask))
        except (ReidSgmError, OSError) as exc:
            failures.append(f"{entry.image_path}: {exc}")
    return rows, failures


def cmd_extract(args) -> int:
    opts = _Options(args)
    config = _extraction_config(opts)
    palette = _load_palette(config)
    out_path = Path(args.out)
    manifest = evalkit.load_manifest(args.manifest, validate=False)

    rows, failures = _load_rows(manifest, config.use_mask)
    if failures:
        out_path.unlink(missing_ok=True)
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        print(f"error: {len(failures)} file(s) failed to load", file=sys.stderr)
        return EXIT_DATA

    shared_models = None
    if config.global_fit:
        shared_models = descriptor.fit_shared_models(
            ((row.image, row.mask) for row in rows), config, palette
        )

    def one(row: _LoadedRow):
        start = time.perf_counter()
        rep = descriptor.extract_features(
            row.image, row.mask, config, palette=palette,
            source_id=row.entry.image_path, shared_models=shared_models,
        )
        return rep, time.perf_counter() - start

    def collect(results) -> list:
        # Workers only time their image; lines are printed here, one
        # thread in manifest order, so concurrent prints cannot interleave.
        out = []
        for row, (rep, elapsed) in zip(rows, results):
            if args.verbose:
                print(f"{row.entry.image_path}: dim={rep.dim} {elapsed * 1e3:.1f} ms")
            out.append((rep, elapsed))
        return out

    threads = opts.threads()
    try:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = collect(pool.map(one, rows))
        else:
            results = collect(map(one, rows))
        reps = [rep for rep, _ in results]
        times = np.array([t for _, t in results])
        descriptor.save_descriptors(out_path, reps)
        if args.csv:
            descriptor.export_csv(args.csv, reps)
    except Exception:
        out_path.unlink(missing_ok=True)
        if args.csv:
            Path(args.csv).unlink(missing_ok=True)
        raise
    print(
        f"extracted {len(reps)} representations of dim {reps[0].dim} -> {out_path} "
        f"(per-image mean {times.mean() * 1e3:.1f} ms, p95 {np.percentile(times, 95) * 1e3:.1f} ms)"
    )
    return EXIT_OK


def _index_by_source(reps):
    index = {}
    for pos, rep in enumerate(reps):
        index[rep.source_id] = pos
    return index


def _kinds_in_layout(layout):
    kinds = []
    for rec in layout:
        if rec.kind not in kinds:
            kinds.append(rec.kind)
    return kinds


def _block_span(layout, kind: str) -> tuple[int, int]:
    """(offset, length) of a model's block; the kind "ALL" spans the whole layout."""
    if kind == "ALL":
        return 0, sum(rec.length for rec in layout)
    return descriptor.feature_span(layout, kind)


def _matrix(reps) -> np.ndarray:
    return np.vstack([rep.vector for rep in reps]).astype(np.float64)


def _gather(manifest, index, camera, ids):
    entries = manifest.rows(camera=camera, ids=ids)
    missing = [e.image_path for e in entries if e.image_path not in index]
    if missing:
        raise ArtifactMismatch(
            f"descriptor file lacks {len(missing)} image(s), first: {missing[0]}"
        )
    return entries, [index[e.image_path] for e in entries]


def cmd_train(args) -> int:
    opts = _Options(args)
    ranks = opts.get("r", ccl.DEFAULT_SUBSPACE_DIM, int)
    ridge = opts.get("ridge", ccl.DEFAULT_RIDGE, float)
    per_feature = opts.get("per_feature", True, bool)
    fraction = opts.get("fraction", 0.5, float)
    seed = opts.get("seed", 0, int)
    split_index = opts.get("split_index", 0, int)
    if split_index < 0:
        raise ValueError(f"split index must be >= 0, got {split_index}")
    if ranks < 1:
        raise ValueError(f"subspace dimension r must be >= 1, got {ranks}")

    reps = descriptor.load_descriptors(args.descriptors)
    manifest = evalkit.load_manifest(args.manifest)
    split = evalkit.make_splits(manifest, fraction, split_index + 1, seed)[split_index]
    index = _index_by_source(reps)
    entries_a, rows_a = _gather(manifest, index, "A", split.train_ids)
    entries_b, rows_b = _gather(manifest, index, "B", split.train_ids)
    matrix = _matrix(reps)

    by_person_a: dict[str, list[int]] = {}
    for entry, row in zip(entries_a, rows_a):
        by_person_a.setdefault(entry.person_id, []).append(row)
    by_person_b: dict[str, list[int]] = {}
    for entry, row in zip(entries_b, rows_b):
        by_person_b.setdefault(entry.person_id, []).append(row)
    pair_rows = [
        (ra, rb, pid)
        for pid in split.train_ids
        for ra in by_person_a.get(pid, [])
        for rb in by_person_b.get(pid, [])
    ]

    layout = reps[0].layout
    kinds = _kinds_in_layout(layout) if per_feature else ["ALL"]
    models: dict[str, ccl.CclModel] = {}
    for kind in kinds:
        offset, length = _block_span(layout, kind)
        block = matrix[:, offset : offset + length]
        pairs = [ccl.PairedSample(x=block[ra], y=block[rb], person_id=pid)
                 for ra, rb, pid in pair_rows]
        r_eff = min(ranks, length)
        if r_eff < ranks:
            print(
                f"warning: {kind}: requested r={ranks} clamped to feature dim {length}",
                file=sys.stderr,
            )
        stats = ccl.accumulate_stats(pairs, ridge=ridge)
        models[kind] = ccl.solve_subspace(stats, r_eff)
        head = ", ".join("%.4g" % v for v in models[kind].eigenvalues[:5])
        print(f"{kind}: d={length} r={r_eff} pairs={len(pairs)} "
              f"eigenvalues [{head}{', ...' if r_eff > 5 else ''}]")

    ccl.save_models(args.out, models)
    print(f"trained on {len(pair_rows)} pairs from {len(split.train_ids)} identities -> {args.out}")
    return EXIT_OK


def _check_artifacts(models, layout):
    for kind, model in models.items():
        _, length = _block_span(layout, kind)
        if model.dim != length:
            raise ArtifactMismatch(
                f"{kind}: model expects dim {model.dim} but descriptors provide {length}"
            )


def _fused_scores(models, layout, matrix, probe_rows, gallery_rows, probe_view):
    gallery_view = "B" if probe_view == "A" else "A"
    total = None
    for kind, model in models.items():
        offset, length = _block_span(layout, kind)
        block = matrix[:, offset : offset + length]
        probes = ccl.project(model, block[probe_rows], probe_view)
        gallery = ccl.project(model, block[gallery_rows], gallery_view)
        scores = ccl.score_matrix(model, gallery, probes)
        total = scores if total is None else total + scores
    return total


def cmd_eval(args) -> int:
    opts = _Options(args)
    fraction = opts.get("fraction", 0.5, float)
    seed = opts.get("seed", 0, int)
    n_splits = opts.get("splits", 10, int)
    protocol = opts.get("protocol", "single", str)
    ranks = opts.get("ranks", (1, 5, 10, 20), _parse_ranks)
    probe_camera = opts.get("probe_camera", "A", str)
    if protocol not in ("single", "multi"):
        raise ValueError(f"protocol must be 'single' or 'multi', got {protocol!r}")
    if probe_camera not in ("A", "B"):
        raise ValueError(f"probe camera must be 'A' or 'B', got {probe_camera!r}")

    reps = descriptor.load_descriptors(args.descriptors)
    models = ccl.load_models(args.model)
    manifest = evalkit.load_manifest(args.manifest)
    layout = reps[0].layout
    _check_artifacts(models, layout)
    index = _index_by_source(reps)
    matrix = _matrix(reps)
    gallery_camera = "B" if probe_camera == "A" else "A"
    probe_view = "A" if probe_camera == "A" else "B"

    curves = []
    for split in evalkit.make_splits(manifest, fraction, n_splits, seed):
        probe_entries, probe_rows = _gather(manifest, index, probe_camera, split.test_ids)
        gallery_entries, gallery_rows = _gather(manifest, index, gallery_camera, split.test_ids)
        scores = _fused_scores(models, layout, matrix, probe_rows, gallery_rows, probe_view)
        probe_ids = [e.person_id for e in probe_entries]
        gallery_ids = [e.person_id for e in gallery_entries]
        if protocol == "single":
            curves.append(evalkit.cmc_single_shot(scores, probe_ids, gallery_ids))
        else:
            curves.append(evalkit.cmc_multi_shot(scores, probe_ids, gallery_ids))

    table = evalkit.report(curves, ranks)
    if args.out:
        Path(args.out).write_text(table.to_csv())
        print(table.to_text(), end="")
        print(f"report -> {args.out}")
    else:
        print(table.to_csv(), end="")
    return EXIT_OK


def cmd_score(args) -> int:
    reps = descriptor.load_descriptors(args.descriptors)
    models = ccl.load_models(args.model)
    layout = reps[0].layout
    _check_artifacts(models, layout)
    index = _index_by_source(reps)
    for source in (args.probe, args.gallery):
        if source not in index:
            raise ArtifactMismatch(f"descriptor file has no row for {source!r}")
    matrix = _matrix(reps)
    probe_view = args.probe_camera or "A"
    scores = _fused_scores(
        models, layout, matrix, [index[args.probe]], [index[args.gallery]], probe_view
    )
    print("%.9g" % scores[0, 0])
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
    opts = _Options(args)
    spec = _load_synth_spec(args.spec) if args.spec else evalkit.SynthSpec()
    seed_override = opts.get("seed", None, int)
    if seed_override is not None:
        spec = replace(spec, seed=seed_override)

    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise IoFailure(f"{out_dir} is not empty; pass --force to write into it")
    manifest = evalkit.synth_dataset(spec, out_dir)
    print(f"wrote {len(manifest.entries)} images under {out_dir} (seed {spec.seed})")
    print(out_dir / "manifest.csv")
    return EXIT_OK


def cmd_inspect(args) -> int:
    path = Path(args.path)
    head = path.read_bytes()[:8]
    if head.startswith(descriptor.DESCRIPTOR_MAGIC):
        reps = descriptor.load_descriptors(path)
        layout = reps[0].layout
        kinds = _kinds_in_layout(layout)
        print(f"descriptor file: {len(reps)} rows, dim {reps[0].dim}")
        for kind in kinds:
            offset, length = descriptor.feature_span(layout, kind)
            print(f"  {kind}: offset {offset}, length {length}")
        for rep in reps[:5]:
            print(f"  row: {rep.source_id}")
        if len(reps) > 5:
            print(f"  ... {len(reps) - 5} more")
    elif head.startswith(ccl.MODEL_MAGIC):
        models = ccl.load_models(path)
        print(f"model file: {len(models)} model(s)")
        for kind, model in models.items():
            head_vals = ", ".join("%.4g" % v for v in model.eigenvalues[:5])
            print(f"  {kind}: d={model.dim} r={model.rank} eigenvalues [{head_vals}, ...]")
    elif head.startswith(b"P6") or head.startswith(b"P5"):
        kind = "image (P6)" if head.startswith(b"P6") else "mask (P5)"
        if head.startswith(b"P6"):
            img = imaging.load_image(path)
            print(f"{kind}: {img.width}x{img.height}")
        else:
            print(kind)
    else:
        try:
            manifest = evalkit.load_manifest(path, validate=False)
        except (ReidSgmError, UnicodeDecodeError):
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
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")
    common.add_argument("--seed", type=int, help="seed for any randomized step")
    common.add_argument("--threads", type=int, help=f"worker bound (default ${THREADS_ENV} or 1)")
    common.add_argument("--verbose", action="store_true", help="chatty progress output")

    parser = _Parser(prog="reid-sgm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", parents=[common], help="extract descriptors for a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output descriptor file")
    p.add_argument("--csv", help="also export the rows as CSV")
    p.add_argument("--features", type=_parse_features, help="comma list of SGM,CH,SILTP")
    p.add_argument("--k", type=int, help="color names kept per pixel (default 5)")
    p.add_argument("--stripes", type=int, help="horizontal stripes (default 10)")
    p.add_argument("--spaces", type=_parse_spaces, help="comma list of RGB,rgb,l1l2l3,HSV")
    p.add_argument("--mask", action=argparse.BooleanOptionalAction,
                   help="use manifest masks for a foreground view (default on)")
    p.add_argument("--epsilon0", type=float, help="eigenvalue rectification floor (default 1e-4)")
    p.add_argument("--palette", help="palette file (default: shipped 16 color names)")
    p.add_argument("--euclidean", action=argparse.BooleanOptionalAction,
                   help="force the identity covariance instead of fitting")
    p.add_argument("--global-fit", dest="global_fit", action=argparse.BooleanOptionalAction,
                   help="fit one model per space/view on pixels pooled across the corpus")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", parents=[common], help="train projection models on one split")
    p.add_argument("descriptors")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--r", type=int, help="subspace dimension per feature (default 100)")
    p.add_argument("--ridge", type=float, help="covariance ridge factor (default 1e-3)")
    p.add_argument("--fraction", type=float, help="train fraction of identities (default 0.5)")
    p.add_argument("--split-index", dest="split_index", type=int,
                   help="which deterministic split to train on (default 0)")
    p.add_argument("--per-feature", dest="per_feature", action=argparse.BooleanOptionalAction,
                   help="train one model per feature kind (default on)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="CMC table over random splits")
    p.add_argument("descriptors")
    p.add_argument("model")
    p.add_argument("manifest")
    p.add_argument("--splits", type=int, help="number of random splits (default 10)")
    p.add_argument("--fraction", type=float, help="train fraction of identities (default 0.5)")
    p.add_argument("--protocol", choices=("single", "multi"), help="shot protocol (default single)")
    p.add_argument("--ranks", type=_parse_ranks, help="ranks to report (default 1,5,10,20)")
    p.add_argument("--probe-camera", dest="probe_camera", choices=("A", "B"),
                   help="which camera probes (default A)")
    p.add_argument("--out", help="write the CSV report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", parents=[common], help="similarity of two descriptor rows")
    p.add_argument("descriptors")
    p.add_argument("model")
    p.add_argument("--probe", required=True, help="source id of the probe row")
    p.add_argument("--gallery", required=True, help="source id of the gallery row")
    p.add_argument("--probe-camera", dest="probe_camera", choices=("A", "B"))
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic two-camera corpus")
    p.add_argument("--spec", help="key=value spec file (n_ids, noise, view_gain, ...)")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--force", action="store_true", help="write into a non-empty directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", parents=[common], help="describe a toolkit artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
