"""Image-level representations: soft Gaussian maps, pooling, stripes.

An image is converted to 16 soft Gaussian maps per color space, each
map is max-pooled over non-overlapping 3x3 patches, and every
horizontal stripe is sum-pooled and sum-normalized into a 16-vector.
Concatenating the stripes over (view, space) yields the image's
float32 vector.  Complementary per-stripe color histograms and local
ternary texture histograms are vectors too, fused by concatenation.
Every vector of a run shares the segments ``layout(config, foreground)``
lists, and a run's rows form one ``DescriptorSet``, saved as an
``artifact`` file or as CSV.
"""

from __future__ import annotations

import csv
import functools
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifact
from .errors import ArtifactMismatch, CorruptFile, DimensionMismatch, EmptyStripe, StackTooSmall
from .imaging import ALL_SPACES, ColorSpace, ForegroundMask, RasterImage, convert
from .sgm import (
    DEFAULT_EPSILON0,
    PALETTE_SIZE,
    ColorNamePalette,
    GaussianMapModel,
    default_palette,
    fit_model,
    identity_model,
    soft_map,
)

POOL_SIZE = 3  # max pooling over 3x3 patches with stride 3

# An image whose distinct RGB values number at most this share of its
# pixels is mapped once per distinct color.  Above it, gathering the
# colors and expanding their maps costs more than mapping every pixel.
DISTINCT_COLOR_SHARE = 0.5

# ``extract_sgm`` maps floor(BLOCK_ROWS / m) whole maps per pass, and at
# least one, where m is the rows mapped per map (pixels or distinct colors).
# Stacking saves the per-map call overhead of small images; beyond about 16k
# rows a pass's (rows, 16) arrays fall out of cache and cost more per row.
BLOCK_ROWS = 8192

FEATURE_KINDS = ("SGM", "CH", "SILTP")

VIEW_WHOLE = "whole"
VIEW_FOREGROUND = "foreground"

CH_BINS = 16        # histogram bins per color channel
SILTP_TAU = 0.3     # relative comparison threshold
SILTP_CODES = 81    # 4 ternary neighbors -> 3**4 codes

DESCRIPTOR_MAGIC = b"SGMD"
DESCRIPTOR_VERSION = 2


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs of the extraction pipeline; defaults follow the evaluated setup."""

    k: int = 5
    stripes: int = 10
    spaces: tuple[ColorSpace, ...] = ALL_SPACES
    use_mask: bool = True
    epsilon0: float = DEFAULT_EPSILON0
    features: tuple[str, ...] = ("SGM",)
    euclidean: bool = False  # force the identity covariance (no discrepancy fit)

    def __post_init__(self):
        if not 1 <= self.k <= 16:
            raise ValueError(f"k must lie in [1, 16], got {self.k}")
        if self.stripes < 1:
            raise ValueError(f"stripe count must be positive, got {self.stripes}")
        for kind in self.features:
            if kind not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {kind!r}")
        # A repeated kind or space would extract its block twice.
        for name, tags in (("features", self.features), ("spaces", [s.value for s in self.spaces])):
            if not tags:
                raise ValueError(f"{name}: none given")
            repeats = [tag for i, tag in enumerate(tags) if tag in tags[:i]]
            if repeats:
                raise ValueError(f"{name}: {repeats[0]!r} is repeated")
        if not 0.0 < self.epsilon0 < np.inf:
            raise ValueError(f"epsilon0 must be positive and finite, got {self.epsilon0}")


@dataclass(frozen=True)
class LayoutRecord:
    """One contiguous segment of a representation vector."""

    kind: str
    space: str | None
    view: str
    stripe: int
    length: int

    def path(self) -> str:
        space = self.space if self.space is not None else "gray"
        return f"{self.kind}/{space}/{self.view}/stripe{self.stripe:02d}"


@dataclass(frozen=True, eq=False)
class DescriptorSet:
    """Image rows as one (count, dim) float32 matrix, their shared layout,
    each row's source id and how they were made.  The constructor checks
    that there is a row, that the layout covers dim and that the source ids
    are distinct strings, one per row (``ArtifactMismatch``)."""

    matrix: np.ndarray
    layout: tuple[LayoutRecord, ...]
    source_ids: tuple[str, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        count, dim = self.matrix.shape
        if count == 0:
            raise ArtifactMismatch("descriptor set holds no rows")
        if sum(rec.length for rec in self.layout) != dim:
            raise ArtifactMismatch(f"descriptor set layout does not cover dim {dim}")
        if len(self.source_ids) != count or not all(isinstance(s, str) for s in self.source_ids):
            raise ArtifactMismatch(f"descriptor set needs {count} string source ids, one per row")
        if len(set(self.source_ids)) != count:
            raise ArtifactMismatch("descriptor set repeats a source id")

    def rows(self, ids) -> list[int]:
        """Row index of each source id; ``ArtifactMismatch`` if one has no row."""
        index = {sid: i for i, sid in enumerate(self.source_ids)}
        missing = [sid for sid in ids if sid not in index]
        if missing:
            raise ArtifactMismatch(
                f"descriptor file lacks {len(missing)} image(s), first: {missing[0]}")
        return [index[sid] for sid in ids]


def feature_span(layout, kind: str) -> tuple[int, int]:
    """(offset, length) of the contiguous segment of ``kind`` in a layout."""
    offset = 0
    start = None
    length = 0
    for rec in layout:
        if rec.kind == kind:
            if start is None:
                start = offset
            elif offset != start + length:
                raise ArtifactMismatch(f"feature kind {kind} is not contiguous in layout")
            length += rec.length
        offset += rec.length
    if start is None:
        raise ArtifactMismatch(f"feature kind {kind} is absent from layout")
    return start, length


def stripe_bounds(height: int, stripes: int) -> list[tuple[int, int]]:
    """Equal-height horizontal stripes; remainder rows join the last one."""
    base = height // stripes
    if base == 0:
        raise EmptyStripe(f"{height} rows cannot form {stripes} stripes")
    bounds = [(i * base, (i + 1) * base) for i in range(stripes)]
    bounds[-1] = (bounds[-1][0], height)
    return bounds


def build_maps(
    image: RasterImage,
    maps: Sequence[tuple[ColorSpace, GaussianMapModel]],
    palette: ColorNamePalette,
    k: int,
    points: np.ndarray | None = None,
    inverse: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convert an image into g sets of 16 soft Gaussian maps, shape (g, 16, h, w).

    ``maps`` lists g (space, model) pairs; each model is evaluated at
    every location of its space's full grid, all g in one ``soft_map``
    call over their stacked points.  ``points`` is the (g, m, 3) stack
    mapped, one (m, 3) block per map: the image's pixels converted to
    the map's space or, with ``inverse``, its distinct colors and each
    pixel's index into them (see ``_convert_all``); a map entry depends
    only on the pixel's color, so only those points are mapped.  When
    ``points`` is None the image is converted here, through the same
    ``_convert_all``.  ``out`` is an optional flat float64 work array of
    at least g * (h*w + m) * 16 entries; only its head is used.

    The returned stack is a transposed view of the (g, h*w, 16) weights,
    valid until the next call that reuses ``out``.
    """
    if points is None:
        _, points, inverse = _convert_all(image, [space for space, _ in maps])
    count, rows = points.shape[:2]
    pixels = image.height * image.width
    if out is None:
        out = np.empty(count * (pixels + rows) * PALETTE_SIZE)
    # Heads of one flat array, so a short pass still gets contiguous buffers.
    # The maps fill ``mapped``; distinct colors are gathered back into ``full``.
    cut = count * pixels * PALETTE_SIZE
    full = out[:cut].reshape(-1, PALETTE_SIZE)
    mapped = out[cut : cut + count * rows * PALETTE_SIZE].reshape(-1, PALETTE_SIZE)
    weights = soft_map([model for _, model in maps], points.reshape(-1, 3), palette, k,
                       out=mapped, work=full[: count * rows])
    if inverse is not None:
        # take reads ``mapped`` while it writes ``full``; the indices are in
        # range, and "clip" skips a copy.
        weights = np.take(weights.reshape(count, rows, PALETTE_SIZE), inverse, axis=1,
                          out=full.reshape(count, pixels, PALETTE_SIZE), mode="clip")
    return weights.reshape(count, image.height, image.width, PALETTE_SIZE).transpose(0, 3, 1, 2)


def distinct_colors(image: RasterImage) -> tuple[np.ndarray, np.ndarray] | None:
    """One pixel index per distinct RGB value, and each pixel's distinct index.

    None when mapping every pixel is cheaper: more than
    ``DISTINCT_COLOR_SHARE`` of the pixels are distinct.  Equal bytes
    convert to equal points, so any pixel of a color stands for all of
    them.
    """
    flat = image.pixels.reshape(-1, 3)
    key = np.zeros((flat.shape[0], 4), dtype=np.uint8)
    key[:, :3] = flat
    key = key.view(np.uint32)[:, 0]
    order = np.argsort(key)
    ranked = key[order]
    first = np.empty(ranked.shape[0], dtype=bool)  # first pixel of each color in key order
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    count = int(np.count_nonzero(first))
    if count > DISTINCT_COLOR_SHARE * flat.shape[0]:
        return None
    inverse = np.empty(ranked.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def max_pool(stack: np.ndarray) -> np.ndarray:
    """Max-pool each plane over non-overlapping 3x3 patches (stride 3).

    Pools the last two axes of a (..., h, w) stack, such as (16, h, w) or
    a (g, 16, h, w) pass.  Right/bottom remainder patches narrower than 3
    pool over their actual extent; output dims are ceil(h/3) x ceil(w/3).
    The stack is pooled in its own memory order (a channel-last view stays
    channel last), and the result is C-contiguous whatever the input's layout.
    """
    height, width = stack.shape[-2:]
    if height < POOL_SIZE or width < POOL_SIZE:
        raise StackTooSmall(f"stack is {width}x{height}; pooling needs at least 3x3")
    rows = stack[..., ::POOL_SIZE, :].copy(order="K")
    for offset in range(1, POOL_SIZE):
        part = stack[..., offset::POOL_SIZE, :]
        head = rows[..., : part.shape[-2], :]
        np.maximum(head, part, out=head)
    pooled = rows[..., ::POOL_SIZE].copy(order="K")
    for offset in range(1, POOL_SIZE):
        part = rows[..., offset::POOL_SIZE]
        head = pooled[..., : part.shape[-1]]
        np.maximum(head, part, out=head)
    return np.ascontiguousarray(pooled)


def stripe_descriptor(stack: np.ndarray, stripes: int) -> np.ndarray:
    """Sum-pool every stripe of a (pooled) stack and sum-normalize each.

    Returns a (stripes, planes) array for a (planes, h, w) stack, one row
    per stripe of ``stripe_bounds``: equal-height stripes with the
    remainder rows joining the last; a (g, planes, h, w) stack gives
    (g, stripes, planes).  A zero-sum stripe degenerates to the uniform
    distribution.  Each stripe of a plane is a contiguous block of the
    C-ordered stack, summed pairwise as a whole.
    """
    *lead, planes, height, width = stack.shape
    bounds = stripe_bounds(height, stripes)
    base, last = bounds[0][1], bounds[-1][0]
    stack = np.ascontiguousarray(stack)
    values = np.empty((*lead, stripes, planes))
    blocks = stack[..., :last, :].reshape(*lead, planes, stripes - 1, base * width)
    values[..., :-1, :] = blocks.sum(axis=-1).swapaxes(-1, -2)
    values[..., -1, :] = stack[..., last:, :].reshape(*lead, planes, -1).sum(axis=-1)
    totals = values.sum(axis=-1, keepdims=True)
    return np.divide(values, totals, out=np.full_like(values, 1.0 / planes), where=totals > 0)


def _mask_selection(mask: ForegroundMask | None) -> np.ndarray | None:
    """Flat flags of the masked pixels; None for every pixel, which is also
    what a mask that selects nothing falls back to."""
    if mask is None:
        return None
    keep = mask.values.reshape(-1) == 1
    return keep if keep.any() else None


def _views(image: RasterImage, mask: ForegroundMask | None, config: ExtractionConfig):
    """Each view's mask: None for the whole image, then the mask when one is
    in use.  The one check that a mask in use has its image's width and height."""
    if mask is None or not config.use_mask:
        return [None]
    if (mask.width, mask.height) != (image.width, image.height):
        raise DimensionMismatch(
            f"mask is {mask.width}x{mask.height} but image is {image.width}x{image.height}"
        )
    return [None, mask]


def layout(config: ExtractionConfig, foreground: bool) -> tuple[LayoutRecord, ...]:
    """The segments of every vector ``extract_features`` returns under
    ``config``: kind by kind in ``config.features`` order, each kind's in
    (view, space, stripe) order.  ``foreground`` tells whether the images
    come with a mask; their vectors hold the foreground view when it does
    and ``config.use_mask`` is set."""
    views = (VIEW_WHOLE, VIEW_FOREGROUND) if foreground and config.use_mask else (VIEW_WHOLE,)
    lengths = {"SGM": PALETTE_SIZE, "CH": 3 * CH_BINS, "SILTP": SILTP_CODES}
    return tuple(
        LayoutRecord(kind=kind, space=name, view=view, stripe=idx, length=lengths[kind])
        for kind in config.features
        for view in views
        for name in ((None,) if kind == "SILTP" else [space.value for space in config.spaces])
        for idx in range(config.stripes)
    )


@functools.lru_cache(maxsize=16)
def _stripe_offsets(height: int, width: int, stripes: int, bins: int, channels: int,
                    arrays: int) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's stripe, and the (arrays, pixels, channels) offsets that
    place every code by array, stripe and channel in one ``bincount``.
    Cached, and read-only: all threads share them."""
    rows = [stop - start for start, stop in stripe_bounds(height, stripes)]
    labels = np.repeat(np.arange(stripes), np.array(rows) * width)
    offsets = ((np.arange(arrays)[:, None, None] * stripes + labels[:, None]) * bins
               + np.arange(0, bins, bins // channels))
    labels.flags.writeable = offsets.flags.writeable = False
    return labels, offsets


def _stripe_histograms(codes: np.ndarray, bins: int, image: RasterImage,
                       mask: ForegroundMask | None, config: ExtractionConfig) -> np.ndarray:
    """Sum-normalized per-stripe histograms of each view and code array, as
    one float32 vector in (view, array, stripe) order.

    ``codes`` is an int64 (arrays, pixels, c) stack, one array per layout
    space, its rows in row-major pixel order and each of its c channels'
    entries a bin in [0, ``bins`` / c); a stripe's histogram lays the c
    channels side by side.  A copy of the codes is offset by array, stripe
    and channel, so each view's histograms are one ``bincount``; integer
    counts give exact float64 row sums.  A view histograms every pixel
    without a mask, else the masked ones, with a stripe that holds no
    masked pixel falling back to all of its pixels.
    """
    stripes = config.stripes
    labels, offsets = _stripe_offsets(image.height, image.width, stripes, bins,
                                      codes.shape[2], codes.shape[0])
    coded = codes + offsets
    counts = []
    for view_mask in _views(image, mask, config):
        keep = _mask_selection(view_mask)
        if keep is not None:
            keep |= (np.bincount(labels[keep], minlength=stripes) == 0)[labels]
            keep = np.flatnonzero(keep)  # a row take is cheaper than a boolean mask
        selected = coded if keep is None else coded.take(keep, axis=1)
        counts.append(np.bincount(selected.reshape(-1), minlength=len(codes) * stripes * bins))
    hist = np.concatenate(counts).astype(np.float64).reshape(-1, bins)
    return (hist / hist.sum(axis=1, keepdims=True)).astype(np.float32).reshape(-1)


def _convert_all(image: RasterImage, spaces) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The image converted to each of ``spaces``: its (spaces, pixels, 3)
    grid, the (spaces, m, 3) points that get mapped, and each pixel's index
    into those points, or None when m is every pixel and the points are
    the grid.

    An image that ``distinct_colors`` accepts converts only its distinct
    colors, once per space, and its grid gathers them back to every pixel.
    Conversion is per-pixel, so the grid equals converting every pixel.
    """
    distinct = distinct_colors(image)
    if distinct is None:
        grid = np.stack([convert(image, space) for space in spaces])
        return grid, grid, None
    first, inverse = distinct
    row = RasterImage(width=first.size, height=1, pixels=image.pixels.reshape(-1, 3)[first][None])
    points = np.stack([convert(row, space) for space in spaces])
    return points.take(inverse, axis=1), points, inverse


def extract_sgm(
    image: RasterImage,
    mask: ForegroundMask | None,
    config: ExtractionConfig,
    palette: ColorNamePalette | None = None,
    converted: tuple | None = None,
) -> np.ndarray:
    """Full soft-Gaussian-map vector of one image, float32.

    Concatenation order is (view, space, stripe, color name) with the
    view outermost; whole-image first, then the foreground view when a
    mask is in play.  With the default configuration this yields
    16 x stripes x spaces x views components.  ``converted`` is the
    image's ``_convert_all`` triple over ``config.spaces``, built here
    when None; both views map the same points.  Each (view, space) model
    is the identity under ``euclidean``, else fitted on the grid's pixels
    in that view, all in one stacked ``fit_model`` call; the maps then go
    through ``build_maps``, ``max_pool`` and ``stripe_descriptor`` in
    passes of whole maps (see ``BLOCK_ROWS``), all in one work array
    allocated per call.
    """
    palette = palette or default_palette()
    grid, points, inverse = converted or _convert_all(image, config.spaces)
    views = _views(image, mask, config)
    # The identity model ignores the mask, so under it every view maps
    # exactly like the whole image: map that once and repeat it.
    mapped = views[:1] if config.euclidean else views
    spaces = config.spaces * len(mapped)  # each map's space, views outermost
    if config.euclidean:
        models = [identity_model(config.epsilon0)] * len(spaces)
    else:
        sets = []
        for view_mask in mapped:
            keep = _mask_selection(view_mask)
            sets += list(grid if keep is None else grid.take(np.flatnonzero(keep), axis=1))
        models = fit_model(sets, palette, config.epsilon0)
    maps = list(zip(spaces, models))
    pixels, rows = image.height * image.width, points.shape[1]
    per_pass = min(len(maps), max(1, BLOCK_ROWS // rows))
    # Sized by the pixels alone, and each pass pooled and striped before the
    # next: then every image of a size asks for the same memory, which the
    # allocator reuses instead of mapping fresh pages (up to 3400 page faults
    # per 256x96 image otherwise).
    work = np.empty(2 * per_pass * pixels * PALETTE_SIZE)
    passes = []
    for start in range(0, len(maps), per_pass):
        stop = min(start + per_pass, len(maps))
        # Map i reads the points of space i % spaces: "wrap" steps into the next view.
        batch = points.take(np.arange(start, stop), axis=0, mode="wrap")
        stack = build_maps(image, maps[start:stop], palette, config.k, batch, inverse, out=work)
        passes.append(stripe_descriptor(max_pool(stack), config.stripes))
    repeats = len(views) if config.euclidean else 1
    return np.concatenate(passes * repeats, axis=None).astype(np.float32)


def extract_color_histogram(
    image: RasterImage,
    mask: ForegroundMask | None,
    config: ExtractionConfig,
    grid: np.ndarray | None = None,
) -> np.ndarray:
    """Per-stripe marginal color histograms, 16 bins per channel, float32.

    Histograms are taken over un-pooled pixels in the same (view,
    space, stripe) order as the map pipeline; each stripe's 48-vector is
    sum-normalized.  Foreground stripes with no masked pixel fall back
    to all of the stripe's pixels.  ``grid`` is the image's (spaces,
    pixels, 3) grid over ``config.spaces`` from ``_convert_all``, which
    converts it here when None.
    """
    if grid is None:
        grid = _convert_all(image, config.spaces)[0]
    codes = np.minimum((grid * CH_BINS).astype(np.int64), CH_BINS - 1)
    return _stripe_histograms(codes, 3 * CH_BINS, image, mask, config)


def siltp_codes(gray: np.ndarray, tau: float = SILTP_TAU) -> np.ndarray:
    """Scale-invariant local ternary pattern codes, radius 1, 4 neighbors.

    Each neighbor contributes a ternary digit: 1 above (1+tau) times the
    center, 2 below (1-tau) times the center, 0 otherwise; digit order
    is north, east, south, west (base-3, north least significant).
    Edges replicate the border pixels.
    """
    height, width = gray.shape
    nb = np.empty((4, height, width))
    nb[0, 1:], nb[0, :1] = gray[:-1], gray[:1]            # north
    nb[1, :, :-1], nb[1, :, -1:] = gray[:, 1:], gray[:, -1:]  # east
    nb[2, :-1], nb[2, -1:] = gray[1:], gray[-1:]          # south
    nb[3, :, 1:], nb[3, :, :1] = gray[:, :-1], gray[:, :1]    # west
    above = nb > (1.0 + tau) * gray
    # Where both hold, as they can for a negative center, the digit is 1.
    below = np.greater(nb < (1.0 - tau) * gray, above)
    digits = above.view(np.int8) + 2 * below.view(np.int8)
    return (3 ** np.arange(4) @ digits.reshape(4, -1)).reshape(height, width)


def extract_siltp(
    image: RasterImage,
    mask: ForegroundMask | None,
    config: ExtractionConfig,
) -> np.ndarray:
    """Per-stripe ternary-pattern texture histograms on the gray image, float32."""
    gray = image.pixels.astype(np.float64).sum(axis=2) / (3.0 * 255.0)
    codes = siltp_codes(gray).reshape(1, -1, 1)
    return _stripe_histograms(codes, SILTP_CODES, image, mask, config)


def fuse(vectors: list[np.ndarray]) -> np.ndarray:
    """Concatenate one image's feature vectors, in order."""
    return np.concatenate(vectors)


def extract_features(
    image: RasterImage,
    mask: ForegroundMask | None,
    config: ExtractionConfig,
    palette: ColorNamePalette | None = None,
) -> np.ndarray:
    """Extract and fuse every feature kind requested by the config into one
    float32 vector, laid out as ``layout(config, mask is not None)``."""
    # SGM and CH read the same converted grid: convert each space once.
    converted = None
    if "SGM" in config.features or "CH" in config.features:
        converted = _convert_all(image, config.spaces)
    parts = []
    for kind in config.features:
        if kind == "SGM":
            parts.append(extract_sgm(image, mask, config, palette=palette, converted=converted))
        elif kind == "CH":
            parts.append(extract_color_histogram(image, mask, config, grid=converted[0]))
        else:
            parts.append(extract_siltp(image, mask, config))
    return parts[0] if len(parts) == 1 else fuse(parts)


def _layout_from_json(records) -> tuple[LayoutRecord, ...]:
    try:
        layout = tuple(LayoutRecord(**record) for record in records)
    except TypeError as exc:  # not an object, or a field missing or unknown
        raise CorruptFile(f"malformed layout footer: {exc}") from None
    for rec in layout:
        if rec.kind not in FEATURE_KINDS:
            raise CorruptFile(f"malformed layout footer: unknown feature kind {rec.kind!r}")
        if not isinstance(rec.view, str) or not isinstance(rec.space, (str, type(None))):
            raise CorruptFile(
                f"malformed layout footer: {rec.kind} record has a non-string view or space")
        if type(rec.stripe) is not int or type(rec.length) is not int or rec.length < 1:
            raise CorruptFile(f"malformed layout footer: {rec.kind} record has length "
                              f"{rec.length!r}, stripe {rec.stripe!r}")
    return layout


def save_descriptors(path, descriptors: DescriptorSet) -> None:
    """Write a descriptor set as an ``artifact`` file: its float32 matrix,
    then a footer of the shared layout, the source ids and the provenance."""
    artifact.write(path, DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, "descriptors",
                   {"matrix": np.asarray(descriptors.matrix, dtype=np.float32)},
                   descriptors.provenance, layout=[asdict(rec) for rec in descriptors.layout],
                   source_ids=list(descriptors.source_ids))


def load_descriptors(path) -> DescriptorSet:
    """Read back a descriptor file written by ``save_descriptors``, its
    matrix read-only.  Past ``artifact.read``'s checks, ``CorruptFile`` is
    any array but one float32 matrix, or a footer ``DescriptorSet`` rejects."""
    footer, arrays = artifact.read(path, DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, "descriptors",
                                   "re-extract the descriptors")
    matrix = arrays.get("matrix")
    if len(arrays) != 1 or matrix is None or matrix.dtype != np.float32:
        raise CorruptFile(f"{path}: expected one float32 array 'matrix', got {list(arrays)}")
    layout, source_ids = footer.get("layout"), footer.get("source_ids")
    if not isinstance(layout, list) or not isinstance(source_ids, list):
        raise CorruptFile(f"{path}: footer layout and source_ids must be lists")
    matrix.flags.writeable = False
    try:
        return DescriptorSet(matrix=matrix, layout=_layout_from_json(layout),
                             source_ids=tuple(source_ids), provenance=footer["provenance"])
    except ArtifactMismatch as exc:
        raise CorruptFile(f"{path}: {exc}") from None


def export_csv(path, descriptors: DescriptorSet) -> None:
    """Write one CSV row per image; the header names every component.

    A source id holding a comma, a quote or a line break is quoted.
    """
    columns = ["source_id"]
    for rec in descriptors.layout:
        prefix = rec.path()
        columns.extend(f"{prefix}/c{i:02d}" for i in range(rec.length))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([sid, *("%.9g" % v for v in row)]
                         for sid, row in zip(descriptors.source_ids, descriptors.matrix))
