"""Cross-view coupled subspace learning and similarity scoring.

Matched cross-camera pairs (x, y), as two row-aligned view matrices,
define the coupled variables m = x + y (commonness) and e = x - y
(difference).  The projection W maximizes the ratio of the
intra-personal commonness variance to the intra-personal difference
variance, which reduces to a generalized eigenproblem solved here by
whitening (see ``solve_subspace``).  The projected covariances are
diagonal, so a model is W and its two projected variance vectors, and
``score_matrix`` combines quadratic forms of m and e under their inverses.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    NotPositiveDefinite,
    RankTooLarge,
    TooFewPairs,
    UnsupportedFormat,
)

DEFAULT_RIDGE = 1e-3
DEFAULT_SUBSPACE_DIM = 100
# A Gram resolves a direction to eps over its eigenvalue's share of the
# largest; directions below this share go on to a Gram of their own.
GRAM_SHARE = 1e-4

MODEL_MAGIC = b"CCLM"
MODEL_VERSION = 2


@dataclass(frozen=True, kw_only=True)
class CoupledStats:
    """Means and ridged intra-personal covariances of the coupled variables.

    The covariances stay factored as ``sigma_m = M^T M + ridge_term * I``
    and ``sigma_e = E^T E + ridge_term * I``: ``accumulate_stats`` fills
    ``pair_rows`` = [M; E] with the centered m = x + y and e = x - y of
    each pair over sqrt(n) (the views ``m_rows`` and ``e_rows``).  Reading
    ``sigma_m`` or ``sigma_e`` forms the d x d matrix; ``solve_subspace``
    does not when 2n < d.
    """

    dim: int
    mean_x: np.ndarray
    mean_y: np.ndarray
    pair_rows: np.ndarray
    ridge_term: float

    @property
    def m_rows(self) -> np.ndarray:
        return self.pair_rows[: self.pair_rows.shape[0] // 2]

    @property
    def e_rows(self) -> np.ndarray:
        return self.pair_rows[self.pair_rows.shape[0] // 2 :]

    @property
    def sigma_m(self) -> np.ndarray:
        """Covariance of m = x + y over matched pairs, ridge included (d x d)."""
        return _ridged_gram(self.m_rows, self.ridge_term)

    @property
    def sigma_e(self) -> np.ndarray:
        """Covariance of e = x - y over matched pairs, ridge included (d x d)."""
        return _ridged_gram(self.e_rows, self.ridge_term)


def _ridged_gram(rows: np.ndarray, ridge_term) -> np.ndarray:
    """rows^T rows + ridge_term (scalar or per column) on the diagonal, symmetrized."""
    gram = rows.T @ rows
    gram = 0.5 * (gram + gram.T)
    gram.flat[:: gram.shape[0] + 1] += ridge_term
    return gram


@dataclass(frozen=True)
class CclModel:
    """Learned projection plus the projected variances it scores with.

    Columns of ``w`` are unit-norm generalized eigenvectors in
    descending eigenvalue order, orthogonal under both covariances: W^T
    sigma_m W = diag(a) and W^T sigma_e W = diag(b).
    """

    w: np.ndarray        # (d, r)
    a: np.ndarray        # (r,), projected commonness variances
    b: np.ndarray        # (r,), projected difference variances
    mean_x: np.ndarray   # (d,)
    mean_y: np.ndarray   # (d,)

    @property
    def eigenvalues(self) -> np.ndarray:
        """a / b, descending."""
        return self.a / self.b

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])

    @property
    def rank(self) -> int:
        return int(self.w.shape[1])


def accumulate_stats(xs, ys, ridge: float = DEFAULT_RIDGE) -> CoupledStats:
    """Estimate coupled covariances from matched pairs.

    ``xs`` and ``ys`` are row-aligned (n, d) matrices, row i of each one
    pair (x from camera A, y from camera B).  Both views are centered on
    their own training mean, in its half of the float64 ``pair_rows``,
    which makes m and e zero-centered.  Each covariance receives a ridge
    of ``ridge * s * I`` where s is the mean diagonal of the averaged
    coupled covariance; the shared scale keeps the difference side
    positive-definite even when every pair matches exactly.  The
    covariances stay factored (see ``CoupledStats``), so memory is
    O(n d) rather than O(d^2).
    """
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise DimensionMismatch(f"views must be (n, d) and alike, got {xs.shape}/{ys.shape}")
    n, dim = xs.shape
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge}")
    # Each view is centered in its own half; then, a block of rows at a
    # time, the top half becomes m = x + y and the bottom e = x - y.
    pair_rows = np.empty((2 * n, dim))
    m_rows, e_rows = pair_rows[:n], pair_rows[n:]
    m_rows[...] = xs
    e_rows[...] = ys
    mean_x = m_rows.mean(axis=0)
    mean_y = e_rows.mean(axis=0)
    m_rows -= mean_x
    e_rows -= mean_y
    step = max(1, (1 << 16) // dim)  # rows per block: a 512 KiB temporary
    for at in range(0, n, step):
        x, y = m_rows[at : at + step], e_rows[at : at + step]
        diff = x - y
        x += y
        y[...] = diff
    pair_rows /= np.sqrt(n)
    scale = (np.vdot(m_rows, m_rows) + np.vdot(e_rows, e_rows)) / (2.0 * dim)
    return CoupledStats(
        dim=dim, mean_x=mean_x, mean_y=mean_y, pair_rows=pair_rows,
        ridge_term=ridge * scale if ridge > 0 and scale > 0 else 0.0,
    )


def _coupled_problem(stats: CoupledStats):
    """The pair rows' coordinates to solve in and the map that lifts vectors.

    When 2n < d: the rows' coordinates C in an orthonormal basis of their
    span, k <= 2n orthogonal columns (see the README's ``ccl``), and
    ``lift(vecs, pad)``, which maps k-vectors to d coordinates and fills
    the columns ``pad`` (zero in vecs) with orthonormal directions off
    that span.  Otherwise the pair rows themselves and None.
    """
    n = stats.m_rows.shape[0]
    if 2 * n >= stats.dim:
        return stats.pair_rows, None
    if stats.ridge_term <= 0:
        raise NotPositiveDefinite(
            f"difference covariance is singular: no ridge and {n} pairs for dim {stats.dim}"
        )
    # rows = left^T pair_rows less parts in earlier blocks (left None: all).
    rows, left, blocks, coords = stats.pair_rows, None, [], []
    while rows.shape[0]:
        if blocks:
            # Twice is enough: a row that one pass halves gets a second, and
            # one that the second halves too lies in the blocks' span.
            once = _deflate(rows, blocks)
            cut = np.linalg.norm(once, axis=1) < 0.5 * np.linalg.norm(rows, axis=1)
            twice = _deflate(once[cut], blocks)
            keep = np.linalg.norm(twice, axis=1) >= 0.5 * np.linalg.norm(once[cut], axis=1)
            once[cut] = twice * keep[:, None]
            rows = once
        evals, evecs = np.linalg.eigh(rows @ rows.T)
        if not evals[-1] > 0:
            break
        big = evals > GRAM_SHARE * evals[-1]
        blocks.append((rows, evecs[:, big] / np.sqrt(evals[big])))
        scaled, rest = evecs[:, big] * np.sqrt(evals[big]), evecs[:, ~big]
        coords.append(scaled if left is None else left @ scaled)
        rows, left = rest.T @ rows, rest if left is None else left @ rest
    coords = np.hstack(coords)
    k = coords.shape[1]

    def span(vecs: np.ndarray, at=slice(None)) -> np.ndarray:
        """Rows ``at`` of the basis times vecs."""
        parts = np.split(vecs, np.cumsum([t.shape[1] for _, t in blocks])[:-1])
        terms = (b[:, at].T @ (t @ part) for (b, t), part in zip(blocks, parts))
        lifted = next(terms)
        for term in terms:
            lifted += term
        return lifted

    def lift(vecs: np.ndarray, pad: np.ndarray) -> np.ndarray:
        if not pad.size:
            return span(vecs)
        # The first k + s unit vectors less their parts `near` in the span:
        # at least s eigenvalues of their Gram I - near near^T are 1, and its
        # top s eigenpairs combine them into s orthonormal directions.
        at = slice(k + pad.size)
        near = span(np.eye(k), at)
        evals, evecs = np.linalg.eigh(np.eye(k + pad.size) - near @ near.T)
        units = np.zeros((k + pad.size, vecs.shape[1]))
        units[:, pad] = evecs[:, -pad.size :] / np.sqrt(evals[-pad.size :])
        lifted = span(vecs - near.T @ units)
        lifted[at] += units
        return lifted

    return coords, lift


def _deflate(rows: np.ndarray, blocks) -> np.ndarray:
    """rows less their projections on the blocks' directions b^T t."""
    for b, t in blocks:
        rows = rows - (((rows @ b.T) @ t) @ t.T) @ b
    return rows


def solve_subspace(stats: CoupledStats, r: int) -> CclModel:
    """Top-r generalized eigenvectors of (sigma_m, sigma_e) by whitening.

    With n pairs and 2n < d the k x k problem in the coordinates C of
    ``_coupled_problem`` is whitened by the diagonal D = C^T C + 2
    ridge_term I = sigma_m + sigma_e: D^-1/2 sigma_m D^-1/2 has eigenvalues
    theta / (1 + theta), and its eigenvectors times D^-1/2 are lifted back,
    padded with eigenvalue-1 directions off the pair rows' span when fewer
    than r eigenvalues exceed 1 (see the README's ``ccl``).  Otherwise
    sigma_e's Cholesky factor whitens.  The unit columns, largest component
    positive, are orthogonal under both covariances, so with a = diag(W^T
    sigma_m W) and b = diag(W^T sigma_e W), which the model keeps, the
    eigenvalues are a / b and the projected-space inverses diag(1 / a),
    diag(1 / b) and diag(2 / (a + b)).
    """
    if not 1 <= r <= stats.dim:
        raise RankTooLarge(f"r={r} outside [1, {stats.dim}]")
    coords, lift = _coupled_problem(stats)
    n = coords.shape[0] // 2
    if lift is None:
        try:
            lower = np.linalg.cholesky(stats.sigma_e)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("difference covariance is not positive-definite") from None
        # numpy has no triangular solve; the Cholesky factor's inverse costs
        # less than the 0.2 s of CPU that loading scipy.linalg for one would.
        inv_lower = np.linalg.inv(lower)
        whitened = inv_lower @ stats.sigma_m @ inv_lower.T
        evals, evecs = np.linalg.eigh(0.5 * (whitened + whitened.T))
        above = int(np.count_nonzero(evals > 1.0))
        vecs = inv_lower.T @ evecs[:, ::-1][:, :r]
    else:
        scale = 1.0 / np.sqrt(np.einsum("ij,ij->j", coords, coords) + 2.0 * stats.ridge_term)
        evals, evecs = np.linalg.eigh(_ridged_gram(coords[:n] * scale, stats.ridge_term * scale**2))
        above = int(np.count_nonzero(evals > 0.5))  # theta > 1
        vecs = scale[:, None] * evecs[:, ::-1][:, :r]

    pad = np.arange(above, above + min(max(r - above, 0), stats.dim - evals.size))
    vecs = vecs[:, : r - pad.size]
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    # The padding columns sit between the eigenvalues above 1 and the rest;
    # on them both projected variances are the ridge.
    vecs = np.insert(vecs, np.full(pad.size, above), 0.0, axis=1)
    a, b = (np.einsum("ij,ij->j", part, part) + stats.ridge_term
            for part in (coords[:n] @ vecs, coords[n:] @ vecs))
    if not np.all((0 < a) & (a < math.inf) & (0 < b) & (b < math.inf)):
        raise NotPositiveDefinite("projected covariance is singular")
    w = vecs if lift is None else lift(vecs, pad)
    w *= np.where(w.max(axis=0) < -w.min(axis=0), -1.0, 1.0)
    return CclModel(w=w, a=a, b=b, mean_x=stats.mean_x.copy(), mean_y=stats.mean_y.copy())


def project(model: CclModel, rep: np.ndarray, view: str) -> np.ndarray:
    """Project a representation (or an (n, d) batch) into the subspace.

    ``view`` selects which camera's training mean to subtract: "A" for
    the x side, "B" for the y side.
    """
    if view not in ("A", "B"):
        raise ValueError(f"view must be 'A' or 'B', got {view!r}")
    mean = model.mean_x if view == "A" else model.mean_y
    rep = np.asarray(rep)
    if rep.shape[-1] != model.dim:
        raise DimensionMismatch(f"representation has dim {rep.shape[-1]}, model expects {model.dim}")
    return np.subtract(rep, mean, dtype=np.float64) @ model.w


def score_matrix(model: CclModel, gallery, probes) -> np.ndarray:
    """All-pairs similarity; rows are probes, columns gallery entries.

    The commonness m = p + g is rewarded through gain = 2 / (a + b) - 1 / a
    and the difference e = p - g penalized through cost = 1 / b - 2 / (a +
    b), elementwise: m^T diag(gain) m - e^T diag(cost) e, expanded as
    p^T diag(own) p + g^T diag(own) g + p^T diag(cross) g with own = gain -
    cost and cross = 2 (gain + cost), so the matrix takes one GEMM and two
    weighted row norms.
    """
    gallery = np.asarray(gallery, dtype=np.float64)
    probes = np.asarray(probes, dtype=np.float64)
    if gallery.ndim != 2 or probes.ndim != 2 or gallery.shape[1] != probes.shape[1]:
        raise DimensionMismatch(
            f"expected 2-d inputs with equal width, got {probes.shape} and {gallery.shape}"
        )
    if gallery.shape[1] != model.rank:
        raise DimensionMismatch(f"vectors have dim {gallery.shape[1]}, model expects {model.rank}")
    # These are the dense r x r expansion's float operations in its order, so
    # scores keep its bits (see ``dense_score_matrix`` in tests/test_ccl.py).
    inv = 2.0 / (model.a + model.b)
    gain = inv - 1.0 / model.a
    cost = 1.0 / model.b - inv
    own = gain - cost
    cross = 2.0 * (gain + cost)
    probe_own = np.einsum("ij,ij->i", probes * own, probes)
    gallery_own = np.einsum("ij,ij->i", gallery * own, gallery)
    return (probes * cross) @ gallery.T + probe_own[:, None] + gallery_own[None, :]


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_models(path, models: dict[str, CclModel]) -> None:
    """Serialize named models (one per feature kind) to one binary file.

    Layout: magic ``CCLM``, version u16, model count u16; per model a
    16-byte space-padded kind tag, d u32, r u32, then mean_x, mean_y,
    W (row-major), a and b as little-endian float64.
    """
    if not models:
        raise ValueError("nothing to save")
    for kind in models:
        if len(kind.encode("utf-8")) > 16:
            raise ValueError(f"kind tag too long: {kind!r}")
        if kind.endswith(" "):  # the reader strips the padding spaces
            raise ValueError(f"kind tag ends in a space: {kind!r}")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HH", MODEL_VERSION, len(models)))
        for kind, model in models.items():
            fh.write(kind.encode("utf-8").ljust(16))
            fh.write(struct.pack("<II", model.dim, model.rank))
            _write_array(fh, model.mean_x)
            _write_array(fh, model.mean_y)
            _write_array(fh, model.w)
            _write_array(fh, model.a)
            _write_array(fh, model.b)


def load_models(path) -> dict[str, CclModel]:
    """Read back a model file written by ``save_models``.

    A kind tag that is not UTF-8, a repeated kind, a non-finite value, a
    variance that is not positive or whose reciprocal overflows, or bytes
    after the last record are rejected as ``CorruptFile``.  Every array is a
    writable view of the one buffer the file is read into.
    """
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]
    if data[:4] != MODEL_MAGIC:
        raise UnsupportedFormat(f"{path}: bad magic {bytes(data[:4])!r}, expected {MODEL_MAGIC!r}")
    if len(data) < 8:
        raise CorruptFile(f"{path}: truncated header")
    version, count = struct.unpack("<HH", data[4:8])
    if version != MODEL_VERSION:
        raise UnsupportedFormat(f"{path}: unsupported version {version}; retrain the model")
    offset = 8
    models: dict[str, CclModel] = {}

    def take(n_floats: int, shape) -> np.ndarray:
        nonlocal offset
        need = n_floats * 8
        if len(data) < offset + need:
            raise CorruptFile(f"{path}: truncated payload")
        arr = np.frombuffer(data, dtype="<f8", count=n_floats, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise CorruptFile(f"{path}: model {kind!r} holds non-finite values")
        offset += need
        return arr

    for _ in range(count):
        if len(data) < offset + 24:
            raise CorruptFile(f"{path}: truncated model record")
        try:
            kind = data[offset : offset + 16].rstrip(b" ").decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptFile(f"{path}: kind tag at byte {offset} is not UTF-8") from None
        if kind in models:
            raise CorruptFile(f"{path}: repeats model kind {kind!r}")
        dim, rank = struct.unpack("<II", data[offset + 16 : offset + 24])
        offset += 24
        if not 1 <= rank <= dim:
            raise CorruptFile(f"{path}: invalid dims d={dim}, r={rank}")
        models[kind] = CclModel(
            mean_x=take(dim, (dim,)),
            mean_y=take(dim, (dim,)),
            w=take(dim * rank, (dim, rank)),
            a=take(rank, (rank,)),
            b=take(rank, (rank,)),
        )
        a, b = models[kind].a, models[kind].b
        if (a <= 0).any() or (b <= 0).any():
            raise CorruptFile(f"{path}: model {kind!r} holds a variance that is not positive")
        with np.errstate(over="ignore"):  # scoring divides by each variance
            if np.isinf(1.0 / a).any() or np.isinf(1.0 / b).any():
                raise CorruptFile(
                    f"{path}: model {kind!r} holds a variance whose reciprocal overflows")
    if offset != len(data):
        raise CorruptFile(f"{path}: {len(data) - offset} trailing bytes after the last model")
    return models
