"""Soft Gaussian mapping of pixels onto a 16-entry color-name palette.

The pixel-name discrepancies of an image are modeled with a zero-mean
Gaussian whose 3x3 covariance is the average outer product over all
pixel-name pairs.  Non-positive eigenvalues are rectified so the
inverse exists, and each pixel is then described by its normalized
Gaussian likelihoods over its k most similar color names.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EmptyPixelSet, NotPositiveDefinite
from .imaging import PixelSet

PALETTE_SIZE = 16
DEFAULT_EPSILON0 = 1e-4

# Covariance eigenvalues at or below this magnitude are treated as zero,
# so float noise cannot flip the sign seen by the rectification rule.
EIGENVALUE_SNAP = 1e-12

_GAUSS_CONST = (2.0 * np.pi) ** -1.5

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


@dataclass(frozen=True)
class ColorNamePalette:
    """16 reference color-name points in [0, 1]^3 with display labels."""

    names: np.ndarray  # (16, 3) float64
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.names.shape != (PALETTE_SIZE, 3) or len(self.labels) != PALETTE_SIZE:
            raise ValueError(f"palette must hold exactly {PALETTE_SIZE} entries")
        if self.names.min() < 0.0 or self.names.max() > 1.0:
            raise ValueError("palette components must lie in [0, 1]")
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
    return parse_palette(Path(path).read_text())


def default_palette() -> ColorNamePalette:
    """The palette shipped with the package."""
    text = resources.files("reid_sgm").joinpath("data/colornames16.txt").read_text()
    return parse_palette(text)


def _jacobi_refine(a: np.ndarray, vecs: np.ndarray, sweeps: int = 8):
    """Polish approximate eigenvectors of symmetric ``a`` by Jacobi sweeps."""
    v = vecs
    for _ in range(sweeps):
        m = v.T @ a @ v
        (m00, m01, m02), (_, m11, m12), (_, _, m22) = m.tolist()
        off = max(abs(m01), abs(m02), abs(m12))
        scale = max(abs(m00), abs(m11), abs(m22), 1e-300)
        if off <= 1e-15 * scale:
            return m.diagonal().copy(), v  # m is already v.T @ a @ v
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[p, q]
            if apq == 0.0:
                continue
            theta = 0.5 * np.arctan2(2.0 * apq, m[p, p] - m[q, q])
            c, s = np.cos(theta), np.sin(theta)
            rot = _EYE3.copy()
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = -s
            rot[q, p] = s
            v = v @ rot
            m = rot.T @ m @ rot
    m = v.T @ a @ v
    return m.diagonal().copy(), v


def _cross(a, b) -> tuple[float, float, float]:
    """``np.cross`` of two 3-sequences of floats, with its rounding and no FMA."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 3-vector: its BLAS dot product, then the sqrt."""
    return math.sqrt(v.dot(v))


def _null_vector(m: np.ndarray, avoid: list[np.ndarray]) -> np.ndarray:
    """Best unit vector with m @ v ~ 0, orthogonal to already-found ones."""
    r0, r1, r2 = m.tolist()
    cands = np.array([_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)])
    norms = [_norm(c) for c in cands]
    best = max(range(3), key=norms.__getitem__)  # the first maximum, as np.argmax
    if norms[best] > 1e-14:
        v = cands[best] / norms[best]
        for u in avoid:
            v -= (v @ u) * u
        n = _norm(v)
        if n > 1e-8:
            return v / n
    # (Near-)repeated eigenvalue, or the candidate collapsed under
    # orthogonalization: any completion of the found set works, since the
    # remaining eigenspace absorbs every orthogonal direction.
    for axis in _EYE3:
        w = axis.copy()
        for u in avoid:
            w -= (w @ u) * u
        n = _norm(w)
        if n > 1e-8:
            return w / n
    return np.array([1.0, 0.0, 0.0])  # pragma: no cover - unreachable for len(avoid) < 3


def eig3_symmetric(a: np.ndarray):
    """Eigendecomposition of a real symmetric 3x3 matrix.

    Closed-form trigonometric eigenvalues, eigenvectors from cross
    products of the shifted rows, then Jacobi refinement sweeps.
    Elementwise scalar steps run on Python floats; every reduction that
    numpy hands to BLAS, LAPACK or SIMD code (dot products, ``det``,
    ``trace``, matrix products, ``arccos``/``cos``/``sin``) stays a numpy
    call, so the result keeps numpy's rounding bit for bit.

    Returns
    -------
    vals : (3,) ndarray, ascending
    vecs : (3, 3) ndarray with orthonormal columns, vecs[:, i] matching vals[i]
    """
    a = np.asarray(a, dtype=np.float64)
    a = 0.5 * (a + a.T)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(3), np.eye(3)
    b = a / scale
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = b.tolist()

    p1 = b01**2 + b02**2 + b12**2
    if p1 == 0.0:
        vals = np.diag(b).copy()
        order = np.argsort(vals, kind="stable")
        return vals[order] * scale, np.eye(3)[:, order]

    q = float(np.trace(b)) / 3.0
    p2 = (b00 - q) ** 2 + (b11 - q) ** 2 + (b22 - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    m = (b - q * _EYE3) / p
    r = min(max(float(np.linalg.det(m)) / 2.0, -1.0), 1.0)
    phi = np.arccos(r) / 3.0
    hi = float(q + 2.0 * p * np.cos(phi))
    lo = float(q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0))
    mid = 3.0 * q - hi - lo
    vals = (lo, mid, hi)

    # Recover the best-separated eigenvector first; the last comes free.
    gaps = (
        min(abs(lo - mid), abs(lo - hi)),
        min(abs(mid - lo), abs(mid - hi)),
        min(abs(hi - lo), abs(hi - mid)),
    )
    order = sorted(range(3), key=lambda i: -gaps[i])  # stable, as np.argsort
    vecs = [None, None, None]
    found: list[np.ndarray] = []
    for idx in order[:2]:
        v = _null_vector(b - vals[idx] * _EYE3, found)
        vecs[idx] = v
        found.append(v)
    last = order[2]
    w = np.array(_cross(found[0].tolist(), found[1].tolist()))
    n = _norm(w)
    vecs[last] = w / n if n > 0 else _null_vector(b - vals[last] * _EYE3, found)

    v = np.column_stack(vecs)
    vals, v = _jacobi_refine(b, v)
    order = np.argsort(vals, kind="stable")
    return vals[order] * scale, v[:, order]


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


def model_from_sigma(sigma: np.ndarray, epsilon0: float = DEFAULT_EPSILON0) -> GaussianMapModel:
    """Build the rectified-covariance machinery from a raw 3x3 covariance."""
    if not 0.0 < epsilon0 < math.inf:
        raise ValueError(f"epsilon0 must be positive and finite, got {epsilon0}")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (3, 3):
        raise ValueError(f"covariance must be 3x3, got {sigma.shape}")
    if np.max(np.abs(sigma - sigma.T)) > 1e-12:
        raise ValueError("covariance must be symmetric to within 1e-12")
    sigma = 0.5 * (sigma + sigma.T)

    vals, vecs = eig3_symmetric(sigma)
    vals = np.where(np.abs(vals) <= EIGENVALUE_SNAP, 0.0, vals)
    rectified = rectify_eigenvalues(vals, epsilon0)
    inv = (vecs * (1.0 / rectified)) @ vecs.T
    inv = 0.5 * (inv + inv.T)
    norm_const = float(_GAUSS_CONST / np.sqrt(np.prod(rectified)))
    return GaussianMapModel(
        sigma=sigma,
        rectified_inverse=inv,
        eigenvalues=vals,
        eigenvectors=vecs,
        norm_const=norm_const,
        epsilon0=epsilon0,
    )


def identity_model(epsilon0: float = DEFAULT_EPSILON0) -> GaussianMapModel:
    """Model with the covariance forced to identity (plain Euclidean mode)."""
    return model_from_sigma(np.eye(3), epsilon0)


def estimate_sigma(points: np.ndarray, names: np.ndarray) -> np.ndarray:
    """Average outer product of all pixel-name discrepancies.

    Uses the expanded sufficient-statistics form rather than the n*16
    double loop; the two agree to float precision.
    """
    points = np.asarray(points, dtype=np.float64)
    names = np.asarray(names, dtype=np.float64)
    n = points.shape[0]
    k = names.shape[0]
    # Adds the rows one after another, the order sum(axis=0) uses on an
    # (n, 3) array, without its per-row reduction overhead.
    sum_z = np.einsum("ij->j", points)
    sum_c = names.sum(axis=0)
    outer_z = points.T @ points
    outer_c = names.T @ names
    sigma = (k * outer_z + n * outer_c - np.outer(sum_z, sum_c) - np.outer(sum_c, sum_z)) / (
        k * n
    )
    return 0.5 * (sigma + sigma.T)


def fit_model(
    pixels: PixelSet,
    palette: ColorNamePalette,
    epsilon0: float = DEFAULT_EPSILON0,
) -> GaussianMapModel:
    """Fit the discrepancy Gaussian between a pixel set and the palette."""
    if pixels.points.shape[0] == 0:
        raise EmptyPixelSet("cannot fit a model on zero pixels")
    sigma = estimate_sigma(pixels.points, palette.names)
    return model_from_sigma(sigma, epsilon0)


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

    # Ascending sort of the negated rows: column j holds -(j+1)-th largest.
    desc = np.negative(like, out=work)
    desc.sort(axis=1)
    # The kept values in descending order: the sequence the stable argsort
    # this replaces summed, so the weights stay the same bit for bit.  A row
    # sum adds up to 7 values left to right, as these cheaper column adds do,
    # and pairs them from 8 on.
    if k < 8:
        sums = -desc[:, :1]
        for j in range(1, k):
            sums -= desc[:, j : j + 1]
    else:
        sums = -desc[:, :k].sum(axis=1, keepdims=True)
    kth = -desc[:, k - 1 : k]
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
