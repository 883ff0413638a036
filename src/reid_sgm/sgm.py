"""Soft Gaussian mapping of pixels onto a 16-entry color-name palette.

The pixel-name discrepancies of an image are modeled with a zero-mean
Gaussian whose 3x3 covariance is the average outer product over all
pixel-name pairs; pixels arrive as plain (n, 3) arrays of color-space
points.  Non-positive eigenvalues are rectified so the inverse exists,
and each pixel is then described by its normalized Gaussian likelihoods
over its k most similar color names.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EmptyPixels, NotPositiveDefinite

PALETTE_SIZE = 16
DEFAULT_EPSILON0 = 1e-4

# Covariance eigenvalues at or below this magnitude are treated as zero,
# so float noise cannot flip the sign seen by the rectification rule.
EIGENVALUE_SNAP = 1e-12

_GAUSS_CONST = (2.0 * np.pi) ** -1.5

_EYE3 = np.eye(3)
# The 3x3 eigensolver's ``take`` indices: a cross product's shifts, the strict
# upper triangle's rows and flat positions, and each eigenvalue's neighbours.
_YZX, _ZXY = np.array([1, 2, 0]), np.array([2, 0, 1])
_ROW0, _ROW1, _UPPER = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1, 2, 5])
_NEXT, _LAST = np.array([1, 0, 0]), np.array([2, 2, 1])
_AXES3 = np.arange(3)[:, None]
for _const in (_EYE3, _YZX, _ZXY, _ROW0, _ROW1, _UPPER, _NEXT, _LAST, _AXES3):
    _const.flags.writeable = False


@dataclass(frozen=True)
class ColorNamePalette:
    """16 reference color-name points in [0, 1]^3 with display labels."""

    names: np.ndarray  # (16, 3) float64
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.names.shape != (PALETTE_SIZE, 3) or len(self.labels) != PALETTE_SIZE:
            raise ValueError(f"palette must hold exactly {PALETTE_SIZE} entries")
        # Written so that NaN, which fails every comparison, falls outside.
        outside = ~((self.names >= 0.0) & (self.names <= 1.0)).all(axis=1)
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"palette entry {i} ({self.labels[i]}) has a component "
                             f"outside [0, 1]: {self.names[i].tolist()}")
        for i in range(PALETTE_SIZE):
            for j in range(i + 1, PALETTE_SIZE):
                if np.array_equal(self.names[i], self.names[j]):
                    raise ValueError(
                        f"palette entries {i} ({self.labels[i]}) and {j} "
                        f"({self.labels[j]}) coincide"
                    )


def parse_palette(text: str) -> ColorNamePalette:
    """Parse palette text: 16 lines of ``label r g b``, order significant.

    Blank lines and ``#`` comments are ignored.
    """
    names = []
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"palette line {lineno}: expected 'label r g b', got {raw!r}")
        labels.append(parts[0])
        try:
            names.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ValueError(f"palette line {lineno}: non-numeric component in {raw!r}") from None
    if len(names) != PALETTE_SIZE:
        raise ValueError(f"palette must hold exactly {PALETTE_SIZE} entries, got {len(names)}")
    return ColorNamePalette(names=np.asarray(names, dtype=np.float64), labels=tuple(labels))


def load_palette(path) -> ColorNamePalette:
    """Load a palette file (plain text, 16 lines of ``label r g b``)."""
    return parse_palette(Path(path).read_text(encoding="utf-8-sig"))


@functools.lru_cache(maxsize=None)
def default_palette() -> ColorNamePalette:
    """The palette shipped with the package, parsed once; every call returns
    the same object, whose ``names`` are read-only."""
    text = resources.files("reid_sgm").joinpath("data/colornames16.txt").read_text()
    palette = parse_palette(text)
    palette.names.flags.writeable = False
    return palette


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) stacks, with its rounding and no FMA."""
    return a.take(_YZX, -1) * b.take(_ZXY, -1) - a.take(_ZXY, -1) * b.take(_YZX, -1)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 3) stacks as BLAS ``ddot``, the
    rounding of ``v.dot(v)``, which ``(x * y).sum(-1)`` does not share."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _null_vectors(m: np.ndarray, avoid: list[np.ndarray]) -> np.ndarray:
    """Per (3, 3) slice, the best unit vector with m @ v ~ 0, orthogonal
    to the already-found (G, 3) rows of ``avoid``."""
    rows = np.arange(len(m))
    cands = _cross(m.take(_ROW0, 1), m.take(_ROW1, 1))
    norms = np.sqrt(_dot(cands, cands))
    best = norms.argmax(axis=1)  # the first maximum
    top = norms[rows, best]
    with np.errstate(divide="ignore", invalid="ignore"):
        v = cands[rows, best] / top[:, None]
        for u in avoid:
            v = v - _dot(v, u)[:, None] * u
        n = np.sqrt(_dot(v, v))
        v = v / n[:, None]
    good = (top > 1e-14) & (n > 1e-8)
    if good.all():
        return v
    # (Near-)repeated eigenvalue, or the candidate collapsed under
    # orthogonalization: any completion of the found set works, since the
    # remaining eigenspace absorbs every orthogonal direction.  The first
    # axis that keeps some length is used.
    axes = np.broadcast_to(_EYE3, m.shape)
    for u in avoid:
        axes = axes - _dot(axes, u[:, None])[..., None] * u[:, None]
    lengths = np.sqrt(_dot(axes, axes))
    first = (lengths > 1e-8).argmax(axis=1)
    return np.where(good[:, None], v, axes[rows, first] / lengths[rows, first, None])


def _jacobi_refine(a: np.ndarray, v: np.ndarray, sweeps: int = 8):
    """Polish approximate eigenvectors of a symmetric (G, 3, 3) stack by
    Jacobi sweeps.  A slice stops at the first sweep that finds it
    diagonal, and keeps its values bit for bit from then on."""
    vals = np.empty((len(a), 3))
    active = np.ones(len(a), dtype=bool)
    for sweep in range(sweeps + 1):
        m = v.swapaxes(1, 2) @ a @ v
        diag = m.diagonal(axis1=1, axis2=2)
        off = np.abs(m.reshape(-1, 9).take(_UPPER, 1)).max(axis=1)
        scale = np.maximum(np.abs(diag).max(axis=1), 1e-300)
        done = active & ((off <= 1e-15 * scale) | (sweep == sweeps))
        vals[done] = diag[done]
        active &= ~done
        if not active.any():
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[:, p, q]
            theta = 0.5 * np.arctan2(2.0 * apq, m[:, p, p] - m[:, q, q])
            c, s = np.cos(theta), np.sin(theta)
            rot = np.tile(_EYE3, (len(a), 1, 1))
            rot[:, (p, q, p, q), (p, q, q, p)] = np.stack([c, c, -s, s], axis=1)
            # Select, since a product by an identity could flip a zero's sign.
            turn = (active & (apq != 0.0))[:, None, None]
            v = np.where(turn, v @ rot, v)
            m = np.where(turn, rot.swapaxes(1, 2) @ m @ rot, m)
    return vals, v


def eig3_symmetric(a: np.ndarray):
    """Eigendecomposition of a real symmetric 3x3 matrix, or of each slice
    of a (B, 3, 3) stack.

    Closed-form trigonometric eigenvalues, eigenvectors from cross
    products of the shifted rows, then Jacobi refinement sweeps.  Slices
    take their branches (zero or diagonal matrix, null-vector fallbacks,
    Jacobi rotations) by masks, which a stack whose slices all take the
    common branch never builds, and every stacked numpy call used rounds
    each slice as its single call does, so a slice gets the same bits in
    any stack as alone.

    Returns
    -------
    vals : (3,) ndarray, ascending; (B, 3) for a stack
    vecs : (3, 3) ndarray with orthonormal columns, vecs[:, i] matching
        vals[i]; (B, 3, 3) for a stack
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 2:
        vals, vecs = eig3_symmetric(a[None])
        return vals[0], vecs[0]
    a = 0.5 * (a + a.swapaxes(1, 2))
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    if not scale.all():  # a zero matrix keeps (+0.0, I); the others solve as one stack
        live = np.flatnonzero(scale)
        vals, vecs = np.zeros((len(a), 3)), np.tile(_EYE3, (len(a), 1, 1))
        vals[live], vecs[live] = eig3_symmetric(a[live])
        return vals, vecs
    b = a / scale[:, None, None]
    # Squares of Python floats are libm pow, which x * x and np.power round apart.
    p1 = np.array([x**2 + y**2 + z**2 for x, y, z in b.reshape(-1, 9).take(_UPPER, 1).tolist()])
    if p1.all():
        lam, vec = _dense_eig3(b, p1)
    else:
        # A diagonal slice's eigenpairs are its diagonal and the axes.
        lam, vec = b.diagonal(axis1=1, axis2=2).copy(), np.tile(_EYE3, (len(b), 1, 1))
        dense = np.flatnonzero(p1)
        if dense.size:
            lam[dense], vec[dense] = _dense_eig3(b[dense], p1[dense])
    rows = np.arange(len(b))[:, None]
    order = np.argsort(lam, axis=1, kind="stable")
    return lam[rows, order] * scale[:, None], vec[rows[:, :, None], _AXES3, order[:, None]]


def _dense_eig3(b: np.ndarray, p1: np.ndarray):
    """Unsorted eigenpairs of a (G, 3, 3) stack whose off-diagonal squares
    sum to ``p1`` != 0."""
    d = b.diagonal(axis1=1, axis2=2)
    q = (d[:, 0] + d[:, 1] + d[:, 2]) / 3.0  # left to right, as np.trace adds
    p2 = [(x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2 + 2.0 * s
          for (x, y, z), c, s in zip(d.tolist(), q.tolist(), p1.tolist())]
    p = np.sqrt(np.array(p2) / 6.0)
    m = (b - q[:, None, None] * _EYE3) / p[:, None, None]
    r = np.minimum(np.maximum(np.linalg.det(m) / 2.0, -1.0), 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    vals = np.array([lo, 3.0 * q - hi - lo, hi]).T

    # Recover the best-separated eigenvector first.  The second then keeps a
    # length above 1e-8 once the first is taken out, so the cross product of
    # the two has length near 1, and the last needs no fallback.
    gaps = np.minimum(np.abs(vals - vals.take(_NEXT, 1)), np.abs(vals - vals.take(_LAST, 1)))
    order = np.argsort(-gaps, axis=1, kind="stable")
    rows = np.arange(len(b))
    vecs = np.empty_like(b)
    found: list[np.ndarray] = []
    for idx in order[:, :2].T:
        found.append(_null_vectors(b - vals[rows, idx, None, None] * _EYE3, found))
        vecs[rows, :, idx] = found[-1]
    w = _cross(found[0], found[1])
    vecs[rows, :, order[:, 2]] = w / np.sqrt(_dot(w, w))[:, None]
    return _jacobi_refine(b, vecs)


@dataclass(frozen=True)
class GaussianMapModel:
    """Fitted discrepancy Gaussian for one pixel set.

    ``eigenvalues``/``eigenvectors`` decompose ``sigma`` (eigenvalues
    below the snap threshold are stored as zero); ``rectified_inverse``
    is the positive-definite inverse after tuning up non-positive
    eigenvalues, and ``norm_const`` is the Gaussian normalization built
    from the rectified determinant.
    """

    sigma: np.ndarray               # (3, 3)
    rectified_inverse: np.ndarray   # (3, 3) symmetric positive-definite
    eigenvalues: np.ndarray         # (3,)
    eigenvectors: np.ndarray        # (3, 3), orthonormal columns
    norm_const: float
    epsilon0: float = DEFAULT_EPSILON0


def rectify_eigenvalues(eigenvalues: np.ndarray, epsilon0: float) -> np.ndarray:
    """Replace each non-positive eigenvalue by 1/epsilon0."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    return np.where(eigenvalues > 0.0, eigenvalues, 1.0 / epsilon0)


def model_from_sigma(
    sigma: np.ndarray, epsilon0: float = DEFAULT_EPSILON0
) -> GaussianMapModel | list[GaussianMapModel]:
    """Build the rectified-covariance machinery from a raw 3x3 covariance.

    A (B, 3, 3) stack gives a list of B models, built in one stacked pass;
    each equals the model its slice gives alone, bit for bit, and no two
    share memory.  A non-finite or asymmetric matrix, or slice, raises
    ``ValueError``.
    """
    if not 0.0 < epsilon0 < math.inf:
        raise ValueError(f"epsilon0 must be positive and finite, got {epsilon0}")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim not in (2, 3) or sigma.shape[-2:] != (3, 3):
        raise ValueError(f"covariance must be 3x3 or a stack of 3x3, got {sigma.shape}")
    stack = sigma.reshape(-1, 3, 3)
    if not np.isfinite(stack).all():
        raise ValueError("covariance must be finite")
    if np.abs(stack - stack.swapaxes(1, 2)).max(initial=0.0) > 1e-12:
        raise ValueError("covariance must be symmetric to within 1e-12")
    stack = 0.5 * (stack + stack.swapaxes(1, 2))

    vals, vecs = eig3_symmetric(stack)
    vals = np.where(np.abs(vals) <= EIGENVALUE_SNAP, 0.0, vals)
    rectified = rectify_eigenvalues(vals, epsilon0)
    inv = (vecs * (1.0 / rectified)[:, None, :]) @ vecs.swapaxes(1, 2)
    inv = 0.5 * (inv + inv.swapaxes(1, 2))
    # np.prod multiplies left to right.
    norm_const = _GAUSS_CONST / np.sqrt(rectified[:, 0] * rectified[:, 1] * rectified[:, 2])
    models = [
        GaussianMapModel(sigma=s, rectified_inverse=i, eigenvalues=v, eigenvectors=e,
                         norm_const=c, epsilon0=epsilon0)
        for s, i, v, e, c in zip(stack, inv, vals, vecs, norm_const.tolist())
    ]
    return models[0] if sigma.ndim == 2 else models


def identity_model(epsilon0: float = DEFAULT_EPSILON0) -> GaussianMapModel:
    """Model with the covariance forced to identity (plain Euclidean mode)."""
    return model_from_sigma(np.eye(3), epsilon0)


def estimate_sigma(points: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Average outer product of all pixel-name discrepancies.

    Uses the expanded sufficient-statistics form rather than the n*16
    double loop; the two agree to float precision.
    """
    return _sigma_stack([points], names)[0]


def _sigma_stack(point_sets: Sequence[np.ndarray], names: np.ndarray) -> np.ndarray:
    """``estimate_sigma`` of each (n_i, 3) point set, as a (B, 3, 3) stack.

    The pixel sums run per set, as one set alone runs them; the palette
    terms are formed once and the combining tail runs stacked.
    """
    names = np.asarray(names, dtype=np.float64)
    k = names.shape[0]
    point_sets = [np.asarray(points, dtype=np.float64) for points in point_sets]
    n = np.array([len(points) for points in point_sets])[:, None, None]
    # einsum adds the rows one after another, the order sum(axis=0) uses on
    # an (n, 3) array, without its per-row reduction overhead.
    sum_z = np.array([np.einsum("ij->j", points) for points in point_sets]).reshape(-1, 3)
    outer_z = np.array([points.T @ points for points in point_sets]).reshape(-1, 3, 3)
    sum_c = names.sum(axis=0)
    sigma = (k * outer_z + n * (names.T @ names) - sum_z[:, :, None] * sum_c
             - sum_c[:, None] * sum_z[:, None, :]) / (k * n)
    return 0.5 * (sigma + sigma.swapaxes(1, 2))


def fit_model(
    pixels: np.ndarray | Sequence[np.ndarray],
    palette: ColorNamePalette,
    epsilon0: float = DEFAULT_EPSILON0,
) -> GaussianMapModel | list[GaussianMapModel]:
    """Fit the discrepancy Gaussian between (n, 3) pixel points and the palette.

    A sequence of B point arrays gives a list of B models: each array's
    covariance is summed on its own, then all models are built in one
    stacked ``model_from_sigma`` pass, each with the bits its array gets
    alone.
    """
    single = isinstance(pixels, np.ndarray) and pixels.ndim == 2
    sets = [pixels] if single else list(pixels)
    if any(len(points) == 0 for points in sets):
        raise EmptyPixels("cannot fit a model on zero pixels")
    sigma = _sigma_stack(sets, palette.names)
    return model_from_sigma(sigma[0] if single else sigma, epsilon0)


def pixel_likelihoods(
    model: GaussianMapModel | Sequence[GaussianMapModel],
    z: np.ndarray,
    palette: ColorNamePalette,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian likelihood of each color name for pixel(s) ``z``.

    ``z`` may be a single 3-vector or an (n, 3) batch; the result is a
    16-vector or an (n, 16) array.  Entries are finite and nonnegative;
    exponent underflow flushes to zero.  ``model`` may also be a sequence
    of B models: ``z`` then holds B*m rows, and model i maps rows i*m to
    (i+1)*m.  ``out`` receives the result and ``work`` holds the cross
    term; both are (n, 16) float64 arrays, allocated when None, so a
    caller mapping many grids can reuse them.  A row gets the same bits
    alone as in any batch, and under B models as under its model alone.
    """
    models = (model,) if isinstance(model, GaussianMapModel) else tuple(model)
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    maps = len(models)
    rows = pts.shape[0] // maps
    if rows * maps != pts.shape[0]:
        raise ValueError(f"{pts.shape[0]} points do not split evenly over {maps} models")
    if rows == 1:
        # BLAS multiplies one row with its matrix-vector kernel, which rounds
        # differently from the rows of a matrix-matrix product: map a pair.
        like = pixel_likelihoods(models, np.repeat(pts, 2, axis=0), palette)[::2]
        if out is not None:
            out[...] = like
            like = out
        return like[0] if single else like
    names = palette.names
    # -(z'Az + c'Ac - 2 z'Ac) / 2 is formed as (-z'Az/2) + (-c'Ac/2) + z'Ac from
    # the inverse scaled by -1/2 and the names by -2: power-of-two scaling
    # commutes with rounding unless an operand is subnormal (8-bit pixels make
    # none), so the bits stay, and minimum(., 0) is the clamp max(quad, 0).  The
    # outer sum [-z'Az/2, 1] @ [1; -c'Ac/2] is exact, as a product by 1 is, and
    # cheaper than a 16-wide broadcast; a C-ordered palette operand is faster, same bits.
    # A stacked matmul makes one GEMM per model, each as its model alone would.
    half = np.stack([m.rectified_inverse for m in models]) * -0.5
    pts = pts.reshape(maps, rows, 3)
    za = pts @ half
    # z'Az adds left to right, the order in which (za * pts).sum(axis=1) adds 3.
    terms = np.ones((maps, rows, 2))
    zaz = np.multiply(za[..., 0], pts[..., 0], out=terms[..., 0])
    zaz += za[..., 1] * pts[..., 1]
    zaz += za[..., 2] * pts[..., 2]
    name_terms = np.stack([np.ones((maps, PALETTE_SIZE)), ((names @ half) * names).sum(axis=2)], 1)
    out = np.empty((maps * rows, PALETTE_SIZE)) if out is None else out
    # Splitting the leading axis gives views of out and work, whatever their strides.
    like = np.matmul(terms, name_terms, out=out.reshape(maps, rows, PALETTE_SIZE))
    cross = None if work is None else work.reshape(maps, rows, PALETTE_SIZE)
    like += np.matmul(za, np.ascontiguousarray(names.T) * -2.0, out=cross)
    np.minimum(like, 0.0, out=like)
    np.exp(like, out=like)
    like *= np.array([m.norm_const for m in models])[:, None, None]
    return out


def soft_map(
    model: GaussianMapModel | Sequence[GaussianMapModel],
    z: np.ndarray,
    palette: ColorNamePalette,
    k: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Normalized soft color-name descriptor over the k best names.

    Keeps the k largest likelihoods (ties go to the lower palette
    index), zeroes the rest and sum-normalizes.  If everything kept
    underflowed to zero, the kept entries share uniform weight 1/k.
    Accepts a single pixel or an (n, 3) batch like ``pixel_likelihoods``,
    a sequence of B models over B*m stacked rows, and the same
    ``out``/``work`` buffers; every step after the likelihoods works row
    by row, so each map keeps the bits it gets alone.

    Each row is sorted once: every value above the k-th largest is kept,
    and values equal to it fill the remaining slots lowest index first.
    """
    if not 1 <= k <= PALETTE_SIZE:
        raise ValueError(f"k must lie in [1, {PALETTE_SIZE}], got {k}")
    like = pixel_likelihoods(model, z, palette, out=out, work=work)
    single = like.ndim == 1
    like = np.atleast_2d(like)

    # Non-negative doubles order as their int64 bit patterns, and likelihoods
    # are never -0.0: sort a copy on those keys, and read it from the right,
    # so column j of ``desc`` holds the (j+1)-th largest.
    asc = np.positive(like, out=work)
    asc.view(np.int64).sort(axis=1)
    desc = asc[:, ::-1]
    # The kept values in descending order: the sequence the stable argsort
    # this replaces summed, so the weights stay the same bit for bit.  A row
    # sum adds up to 7 values left to right, as these cheaper column adds do,
    # and pairs them from 8 on.
    if k < 8:
        sums = desc[:, :1].copy()
        for j in range(1, k):
            sums += desc[:, j : j + 1]
    else:
        sums = desc[:, :k].sum(axis=1, keepdims=True)
    kth = desc[:, k - 1 : k]
    keep = like >= kth
    if k < PALETTE_SIZE:
        # Rows where the k-th and (k+1)-th largest tie keep too many names.
        tied = np.flatnonzero(desc[:, k - 1] == desc[:, k])
        if tied.size:
            rows, edge = like[tied], kth[tied]
            above = rows > edge
            at = rows == edge
            slots = k - above.sum(axis=1, keepdims=True)
            keep[tied] = above | (at & (np.cumsum(at, axis=1) <= slots))

    like *= keep  # likelihoods are >= 0, so dropped names become +0.0
    # Rows whose kept likelihoods all underflowed divide by 1 instead of 0,
    # then take uniform weight over the kept names.
    flat = np.flatnonzero(sums[:, 0] <= 0)
    sums[flat] = 1.0
    like /= sums
    if flat.size:
        like[flat] = keep[flat] * (1.0 / k)
    return like[0] if single else like


def transform_space(model: GaussianMapModel) -> np.ndarray:
    """Matrix L with L.T @ L equal to the rectified inverse covariance.

    Mapping points by L turns the model's Mahalanobis distance into a
    plain Euclidean one, which is handy for visualizing how the fitted
    covariance reshapes the space.
    """
    try:
        lower = np.linalg.cholesky(model.rectified_inverse)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("rectified inverse covariance is not positive-definite") from None
    return lower.T
