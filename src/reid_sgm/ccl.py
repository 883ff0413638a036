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
from dataclasses import dataclass

import numpy as np

from . import artifact
from .errors import CorruptFile, DimensionMismatch, NotPositiveDefinite, RankTooLarge, TooFewPairs

DEFAULT_RIDGE = 1e-3
DEFAULT_SUBSPACE_DIM = 100
# A Gram resolves a direction to eps over its eigenvalue's share of the
# largest; directions below this share go on to a Gram of their own.
GRAM_SHARE = 1e-4

MODEL_MAGIC = b"CCLM"
MODEL_VERSION = 3
_FIELDS = ("w", "a", "b", "mean_x", "mean_y")  # each model's arrays, in file order


@dataclass(frozen=True, kw_only=True)
class CoupledStats:
    """Means and ridged intra-personal covariances of the coupled variables.

    The covariances stay factored as ``sigma_m = M^T M + ridge_term * I``
    and ``sigma_e = E^T E + ridge_term * I``: ``accumulate_stats`` fills
    ``pair_rows`` = [M; E] with the centered m = x + y and e = x - y of
    each pair over sqrt(n) (the views ``m_rows`` and ``e_rows``).  Reading
    ``sigma_m`` or ``sigma_e`` forms the d x d matrix; ``solve_subspace``
    reads neither, and forms the pair rows' d x d Gram only when 2n >= d.
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
    """rows^T rows + ridge_term (scalar or per column) on the diagonal; numpy
    forms rows^T rows by a symmetric rank-k update, so it is exactly symmetric."""
    gram = rows.T @ rows
    gram.flat[:: gram.shape[0] + 1] += ridge_term
    return gram


@dataclass(frozen=True)
class CclModel:
    """Learned projection plus the projected variances it scores with.

    Columns of ``w`` are unit-norm generalized eigenvectors in
    descending eigenvalue order, orthogonal under both covariances: W^T
    sigma_m W = diag(a) and W^T sigma_e W = diag(b).  Each of a and b is at
    least ``ridge_term``, the ridge training added to both covariances.
    """

    w: np.ndarray        # (d, r)
    a: np.ndarray        # (r,), projected commonness variances
    b: np.ndarray        # (r,), projected difference variances
    mean_x: np.ndarray   # (d,)
    mean_y: np.ndarray   # (d,)
    ridge_term: float = 0.0

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
    """The pair rows P's coordinates C = P B, whose k columns are orthogonal,
    and ``lift(vecs, pad)``, which maps k-vectors to d coordinates B vecs
    and fills the columns ``pad`` (zero in vecs) with orthonormal
    directions off B's span (see the README's ``ccl``).  When 2n >= d, B is
    the eigenvectors of the d x d Gram P^T P and k = d; otherwise B is an
    orthonormal basis of the rows' span, k <= 2n.
    """
    n = stats.m_rows.shape[0]
    if 2 * n >= stats.dim:
        basis = np.linalg.eigh(stats.pair_rows.T @ stats.pair_rows)[1]
        coords = stats.pair_rows @ basis

        def span(vecs: np.ndarray, at=slice(None)) -> np.ndarray:
            return basis[at] @ vecs
    else:
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

        def span(vecs: np.ndarray, at=slice(None)) -> np.ndarray:
            """Rows ``at`` of the basis times vecs."""
            parts = np.split(vecs, np.cumsum([t.shape[1] for _, t in blocks])[:-1])
            terms = (b[:, at].T @ (t @ part) for (b, t), part in zip(blocks, parts))
            lifted = next(terms)
            for term in terms:
                lifted += term
            return lifted
    k = coords.shape[1]

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

    In the coordinates C of ``_coupled_problem`` the k x k problem is
    whitened by the diagonal D = C^T C + 2 ridge_term I = sigma_m +
    sigma_e: D^-1/2 sigma_m D^-1/2 has eigenvalues theta / (1 + theta),
    and its eigenvectors times D^-1/2 are lifted back, padded with
    eigenvalue-1 directions off the pair rows' span when fewer than r
    eigenvalues exceed 1 (see the README's ``ccl``).  The unit columns,
    largest component positive, are orthogonal under both covariances, so
    with a = diag(W^T sigma_m W) and b = diag(W^T sigma_e W), which the
    model keeps, the eigenvalues are a / b and the projected-space
    inverses diag(1 / a), diag(1 / b) and diag(2 / (a + b)).  A D, a or b
    that float64 cannot tell from singular raises ``NotPositiveDefinite``.
    """
    if not 1 <= r <= stats.dim:
        raise RankTooLarge(f"r={r} outside [1, {stats.dim}]")
    coords, lift = _coupled_problem(stats)
    n = coords.shape[0] // 2
    tiny = stats.dim * np.finfo(np.float64).eps
    whiten = np.einsum("ij,ij->j", coords, coords) + 2.0 * stats.ridge_term
    if not np.all(whiten > tiny * whiten.max()):
        raise NotPositiveDefinite("commonness plus difference covariance is singular")
    scale = 1.0 / np.sqrt(whiten)
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
    # Each variance must be positive, finite and resolved next to the other.
    if not np.all((tiny * b < a) & (a < math.inf) & (tiny * a < b) & (b < math.inf)):
        raise NotPositiveDefinite("projected covariance is singular")
    w = lift(vecs, pad)
    w *= np.where(w.max(axis=0) < -w.min(axis=0), -1.0, 1.0)
    return CclModel(w=w, a=a, b=b, mean_x=stats.mean_x.copy(), mean_y=stats.mean_y.copy(),
                    ridge_term=float(stats.ridge_term))


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


class ModelSet(dict):
    """Models by feature kind, with the ``provenance`` of their file."""

    def __init__(self, models: dict, provenance: dict):
        super().__init__(models)
        self.provenance = provenance


def save_models(path, models: dict[str, CclModel], provenance: dict | None = None) -> None:
    """Write named models (one per feature kind) as an ``artifact`` file of
    float64 arrays ``kind/field``, w first, and ``provenance`` plus each
    kind's ridge term and r."""
    if not models:
        raise ValueError("nothing to save")
    arrays = {f"{kind}/{name}": np.asarray(getattr(model, name), dtype=np.float64)
              for kind, model in models.items() for name in _FIELDS}
    kinds = {kind: {"ridge_term": model.ridge_term, "r": model.rank}
             for kind, model in models.items()}
    artifact.write(path, MODEL_MAGIC, MODEL_VERSION, "models", arrays,
                   {**(provenance or {}), "models": kinds})


def load_models(path) -> ModelSet:
    """Read back a model file written by ``save_models``.  Past ``artifact.read``'s
    checks, ``CorruptFile`` is no model, arrays that are not each kind's five of
    matching shapes, or a ridge term or variance training cannot give."""
    footer, arrays = artifact.read(path, MODEL_MAGIC, MODEL_VERSION, "models",
                                   "retrain the model")
    kinds = footer["provenance"].get("models")
    if not isinstance(kinds, dict) or not kinds:
        raise CorruptFile(f"{path}: holds no model")
    if list(arrays) != [f"{kind}/{name}" for kind in kinds for name in _FIELDS]:
        raise CorruptFile(f"{path}: arrays {list(arrays)} are not each model's {_FIELDS}")
    models = {}
    for kind, record in kinds.items():
        w, a, b, mean_x, mean_y = (arrays[f"{kind}/{name}"] for name in _FIELDS)
        dim, rank = w.shape if w.ndim == 2 else (0, 0)
        shapes = [v.shape for v in (a, b, mean_x, mean_y)]
        if not 1 <= rank <= dim or shapes != [(rank,), (rank,), (dim,), (dim,)]:
            raise CorruptFile(f"{path}: model {kind!r} has arrays of mismatched shapes")
        ridge = record.get("ridge_term") if isinstance(record, dict) else None
        if type(ridge) not in (int, float) or not 0 <= ridge < math.inf:
            raise CorruptFile(f"{path}: model {kind!r} records no valid ridge term")
        var = np.concatenate((a, b))
        if not np.all(var > 0):
            raise CorruptFile(f"{path}: model {kind!r} holds a variance that is not positive")
        if np.any(var < ridge):
            raise CorruptFile(
                f"{path}: model {kind!r} holds a variance below its ridge term {ridge!r}")
        with np.errstate(over="ignore"):  # scoring divides by each variance
            if np.isinf(1.0 / var).any():
                raise CorruptFile(
                    f"{path}: model {kind!r} holds a variance whose reciprocal overflows")
        models[kind] = CclModel(w=w, a=a, b=b, mean_x=mean_x, mean_y=mean_y,
                                ridge_term=float(ridge))
    return ModelSet(models, footer["provenance"])
