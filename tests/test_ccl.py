"""Coupled statistics, subspace solving, scoring, persistence."""

import re
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from reid_sgm.ccl import (
    CclModel,
    CoupledStats,
    accumulate_stats,
    load_models,
    project,
    save_models,
    score_matrix,
    solve_subspace,
    _coupled_problem,
)
from reid_sgm.errors import (
    CorruptFile,
    DimensionMismatch,
    NotPositiveDefinite,
    RankTooLarge,
    TooFewPairs,
    UnsupportedFormat,
)


def make_pairs(rng, n=30, d=6, spread=0.3):
    """Row-aligned views (xs, ys) of n matched pairs."""
    xs = rng.normal(size=(n, d))
    ys = xs + spread * rng.normal(size=(n, d))
    return xs, ys


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + 0.05 * d * np.eye(d))


def stats_from_matrices(sigma_m, sigma_e):
    """CoupledStats whose factor rows reproduce chosen PSD covariances.

    Each matrix is factored as R^T R with R = (V sqrt(clip(lambda, 0)))^T
    from its eigendecomposition, with no ridge.  There are n = d rows,
    so the solver takes its full-matrix branch.
    """
    d = sigma_m.shape[0]
    return CoupledStats(
        dim=d,
        mean_x=np.zeros(d),
        mean_y=np.zeros(d),
        pair_rows=np.vstack([_factor_rows(sigma_m), _factor_rows(sigma_e)]),
        ridge_term=0.0,
    )


def _factor_rows(sigma):
    vals, vecs = np.linalg.eigh(sigma)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))).T


SCORE_RTOL = 1e-12


@dataclass(frozen=True)
class DenseModel:
    """A model held as its three projected-space inverses, dense r x r:
    inv_sigma_m and inv_sigma_e invert the projected commonness and
    difference covariances, inv_sigma their average.  The dense oracles
    below return one, and ``dense_score_matrix`` scores it.
    """

    w: np.ndarray
    eigenvalues: np.ndarray
    inv_sigma_m: np.ndarray
    inv_sigma_e: np.ndarray
    inv_sigma: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])


def as_dense(model):
    """A ``CclModel``'s inverses diag(1 / a), diag(1 / b), diag(2 / (a + b))
    as the r x r matrices a ``DenseModel`` holds."""
    return DenseModel(
        w=model.w, eigenvalues=model.eigenvalues,
        inv_sigma_m=np.diag(1.0 / model.a),
        inv_sigma_e=np.diag(1.0 / model.b),
        inv_sigma=np.diag(2.0 / (model.a + model.b)),
        mean_x=model.mean_x, mean_y=model.mean_y,
    )


def dense_score_matrix(model, gallery, probes):
    """Oracle for ``score_matrix`` over a ``DenseModel``: the expansion
    p^T A p + g^T A g + 2 p^T B g with A = gain - cost, B = gain + cost,
    over the symmetric parts of the r x r matrices.  On the diagonal
    inverses of a solved model it gives ``score_matrix``'s bits.
    """
    gain_m = model.inv_sigma - model.inv_sigma_m
    cost_e = model.inv_sigma_e - model.inv_sigma
    own = gain_m - cost_e
    cross = gain_m + cost_e
    own = 0.5 * (own + own.T)
    cross = cross + cross.T
    probe_own = np.einsum("ij,ij->i", probes @ own, probes)
    gallery_own = np.einsum("ij,ij->i", gallery @ own, gallery)
    return (probes @ cross) @ gallery.T + probe_own[:, None] + gallery_own[None, :]


def score(model, px, py):
    """Oracle for one ``score_matrix`` entry: the coupled similarity of one
    projected probe px and gallery vector py, higher meaning more alike.

    The commonness m = px + py is rewarded and the difference
    e = px - py penalized through the projected covariance inverses.
    Symmetric in its arguments.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if px.shape != (model.rank,) or py.shape != (model.rank,):
        raise DimensionMismatch(
            f"projected vectors must have dim {model.rank}, got {px.shape} and {py.shape}"
        )
    dense = as_dense(model)
    gain_m = dense.inv_sigma - dense.inv_sigma_m
    cost_e = dense.inv_sigma_e - dense.inv_sigma
    m = px + py
    e = px - py
    return float(m @ (gain_m @ m) - e @ (cost_e @ e))


def looped_score_matrix(model, gallery, probes):
    """Oracle for ``score_matrix``: one ``score`` call per entry."""
    out = np.empty((len(probes), len(gallery)))
    for i, px in enumerate(probes):
        for j, gy in enumerate(gallery):
            out[i, j] = score(model, px, gy)
    return out


def relative_error(got, ref):
    """Largest absolute deviation over the largest reference magnitude."""
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.abs(np.asarray(got) - ref).max() / np.abs(ref).max())


def random_variances(rng, r):
    """Positive projected variances a or b, over two decades."""
    return 10.0 ** rng.uniform(-1.0, 1.0, size=r)


def hand_model(a, b):
    r = a.shape[0]
    return CclModel(w=np.eye(r), a=a, b=b, mean_x=np.zeros(r), mean_y=np.zeros(r))


class TestAccumulateStats:
    def test_identical_views_leave_only_ridge_on_difference(self, rng):
        xs = rng.normal(size=(25, 4))
        stats = accumulate_stats(xs, xs.copy(), ridge=1e-3)
        xc = xs - xs.mean(axis=0)
        cov_x = (xc.T @ xc) / len(xs)
        scale = np.trace(4.0 * cov_x) / (2.0 * 4)
        expected_e = 1e-3 * scale * np.eye(4)
        assert np.allclose(stats.sigma_e, expected_e, atol=1e-12)
        assert np.allclose(stats.sigma_m, 4.0 * cov_x + expected_e, atol=1e-12)

    def test_two_pairs_match_hand_computation(self):
        xs = np.array([[1.0, 0.0], [3.0, 2.0]])
        ys = np.array([[0.0, 1.0], [2.0, 3.0]])
        stats = accumulate_stats(xs, ys, ridge=0.0)
        # centered xs: (-1,-1),(1,1); centered ys: (-1,-1),(1,1)
        # m: (-2,-2),(2,2); e: (0,0),(0,0)
        assert np.allclose(stats.mean_x, [2.0, 1.0])
        assert np.allclose(stats.mean_y, [1.0, 2.0])
        assert np.allclose(stats.sigma_m, [[4.0, 4.0], [4.0, 4.0]])
        assert np.allclose(stats.sigma_e, 0.0)

    def test_naive_covariance_oracle(self, rng):
        xs, ys = make_pairs(rng, n=12, d=3)
        stats = accumulate_stats(xs, ys, ridge=0.0)
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        sm = np.zeros((3, 3))
        se = np.zeros((3, 3))
        for x, y in zip(xs, ys):
            m = (x - mean_x) + (y - mean_y)
            e = (x - mean_x) - (y - mean_y)
            sm += np.outer(m, m)
            se += np.outer(e, e)
        assert np.allclose(stats.sigma_m, sm / len(xs), atol=1e-12)
        assert np.allclose(stats.sigma_e, se / len(xs), atol=1e-12)

    def test_symmetric_outputs(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=40, d=8))
        assert np.abs(stats.sigma_m - stats.sigma_m.T).max() <= 1e-12
        assert np.abs(stats.sigma_e - stats.sigma_e.T).max() <= 1e-12

    def test_pair_order_independence(self, rng):
        xs, ys = make_pairs(rng, n=50, d=5)
        a = accumulate_stats(xs, ys)
        b = accumulate_stats(xs[::-1], ys[::-1])
        assert np.abs(a.sigma_m - b.sigma_m).max() <= 1e-12
        assert np.abs(a.sigma_e - b.sigma_e).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_bits_match_the_direct_formula(self, rng, dtype):
        # The centering runs in place; means, rows and ridge keep the bits
        # of the formula with one centered copy per view and term.  At
        # d = 20000, m and e are formed in 8 blocks of rows, not one.
        n = 23
        for d in (37, 20000):
            xs = (100 * rng.normal(size=(n, d))).astype(dtype)
            ys = (100 * rng.normal(size=(n, d))).astype(dtype)
            inputs = xs.copy(), ys.copy()
            stats = accumulate_stats(xs, ys)
            x64, y64 = xs.astype(np.float64), ys.astype(np.float64)
            mean_x, mean_y = x64.mean(axis=0), y64.mean(axis=0)
            m_rows = ((x64 - mean_x) + (y64 - mean_y)) / np.sqrt(n)
            e_rows = ((x64 - mean_x) - (y64 - mean_y)) / np.sqrt(n)
            scale = (np.vdot(m_rows, m_rows) + np.vdot(e_rows, e_rows)) / (2.0 * d)
            for got, want in ((stats.mean_x, mean_x), (stats.mean_y, mean_y),
                              (stats.m_rows, m_rows), (stats.e_rows, e_rows)):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert stats.ridge_term == 1e-3 * scale
            # The caller's view matrices are left as they were.
            assert np.array_equal(xs, inputs[0]) and np.array_equal(ys, inputs[1])

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            accumulate_stats(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_dimension_mismatch(self):
        # Views of different widths, a row with no partner, one vector.
        for x_shape, y_shape in (((2, 3), (2, 4)), ((2, 3), (3, 3)), ((3,), (3,))):
            with pytest.raises(DimensionMismatch):
                accumulate_stats(np.zeros(x_shape), np.zeros(y_shape))


class TestSolveSubspace:
    def test_isotropic_degenerate_case(self):
        stats = stats_from_matrices(np.eye(5), np.eye(5))
        model = solve_subspace(stats, 3)
        assert np.allclose(model.eigenvalues, 1.0)
        for i in range(3):
            w = model.w[:, i]
            resid = np.linalg.norm(stats.sigma_m @ w - model.eigenvalues[i] * (stats.sigma_e @ w))
            assert resid <= 1e-12

    def test_diagonal_case(self):
        stats = stats_from_matrices(np.diag([9.0, 1.0]), np.eye(2))
        model = solve_subspace(stats, 1)
        assert model.eigenvalues[0] == pytest.approx(9.0, rel=1e-12)
        assert np.allclose(np.abs(model.w[:, 0]), [1.0, 0.0])

    def test_matches_generalized_eigensolver(self, rng):
        for d in (4, 8, 16):
            for _ in range(10):
                sigma_m = random_spd(rng, d)
                sigma_e = random_spd(rng, d)
                r = max(1, d // 2)
                model = solve_subspace(stats_from_matrices(sigma_m, sigma_e), r)
                ref_vals, ref_vecs = scipy.linalg.eigh(sigma_m, sigma_e)
                ref_vals = ref_vals[::-1][:r]
                ref_vecs = ref_vecs[:, ::-1][:, :r]
                assert np.allclose(model.eigenvalues, ref_vals, rtol=1e-8)
                for i in range(r):
                    a = model.w[:, i] / np.linalg.norm(model.w[:, i])
                    b = ref_vecs[:, i] / np.linalg.norm(ref_vecs[:, i])
                    angle = np.arccos(np.clip(abs(a @ b), -1.0, 1.0))
                    assert angle <= 1e-6

    def test_residual_and_rayleigh_ordering(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=60, d=10))
        model = solve_subspace(stats, 6)
        prev = np.inf
        for i in range(6):
            w = model.w[:, i]
            lam = model.eigenvalues[i]
            resid = np.linalg.norm(stats.sigma_m @ w - lam * (stats.sigma_e @ w))
            resid /= np.linalg.norm(stats.sigma_m @ w)
            assert resid <= 1e-8
            rayleigh = (w @ stats.sigma_m @ w) / (w @ stats.sigma_e @ w)
            assert rayleigh == pytest.approx(lam, rel=1e-8)
            assert rayleigh <= prev * (1 + 1e-12)
            prev = rayleigh

    def test_columns_unit_norm_and_sign_fixed(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=40, d=7))
        model = solve_subspace(stats, 4)
        norms = np.linalg.norm(model.w, axis=0)
        assert np.allclose(norms, 1.0, rtol=1e-12)
        for i in range(4):
            lead = np.argmax(np.abs(model.w[:, i]))
            assert model.w[lead, i] > 0

    def test_rank_too_large(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=20, d=4))
        with pytest.raises(RankTooLarge):
            solve_subspace(stats, 5)
        with pytest.raises(RankTooLarge):
            solve_subspace(stats, 0)

    def test_singular_difference_rejected(self):
        stats = stats_from_matrices(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(NotPositiveDefinite):
            solve_subspace(stats, 2)

    def test_singular_projected_covariance_rejected(self, rng):
        # M = 0 and no ridge: every projected commonness variance is 0, so
        # the model would hold an infinite inverse.
        stats = stats_from_matrices(np.zeros((5, 5)), random_spd(rng, 5))
        with pytest.raises(NotPositiveDefinite, match="projected covariance is singular"):
            solve_subspace(stats, 2)


def dense_oracle_model(stats, r):
    """Model from scipy's dense generalized eigensolver on the d x d stats."""
    sigma_m, sigma_e = stats.sigma_m, stats.sigma_e
    vals, vecs = scipy.linalg.eigh(sigma_m, sigma_e)
    w = vecs[:, ::-1][:, :r]
    proj_m = w.T @ sigma_m @ w
    proj_e = w.T @ sigma_e @ w
    return DenseModel(
        w=w, eigenvalues=vals[::-1][:r],
        inv_sigma_m=np.linalg.inv(proj_m),
        inv_sigma_e=np.linalg.inv(proj_e),
        inv_sigma=np.linalg.inv(0.5 * (proj_m + proj_e)),
        mean_x=stats.mean_x, mean_y=stats.mean_y,
    )


def qr_span_basis(stats, r):
    """Oracle basis that holds the pair rows' span: the first r unit vectors,
    then Q of the QR of the rows' remaining coordinates [M[:, r:]^T E[:, r:]^T].

    Householder QR resolves row components down to rounding in one pass,
    and always gives 2n columns, so the basis has d x (2n + r) orthonormal
    columns.
    """
    d, n = stats.dim, stats.m_rows.shape[0]
    q, _ = np.linalg.qr(np.vstack([stats.m_rows[:, r:], stats.e_rows[:, r:]]).T)
    basis = np.zeros((d, 2 * n + r))
    basis[:r, :r] = np.eye(r)
    basis[r:, r:] = q
    return basis


def qr_oracle_model(stats, r):
    """Model from scipy's generalized eigensolver in the QR basis."""
    basis = qr_span_basis(stats, r)
    sigma_m = basis.T @ stats.sigma_m @ basis
    sigma_e = basis.T @ stats.sigma_e @ basis
    vals, vecs = scipy.linalg.eigh(sigma_m, sigma_e)
    top = vecs[:, ::-1][:, :r]
    proj_m = top.T @ sigma_m @ top
    proj_e = top.T @ sigma_e @ top
    return DenseModel(
        w=basis @ top, eigenvalues=vals[::-1][:r],
        inv_sigma_m=np.linalg.inv(proj_m),
        inv_sigma_e=np.linalg.inv(proj_e),
        inv_sigma=np.linalg.inv(0.5 * (proj_m + proj_e)),
        mean_x=stats.mean_x, mean_y=stats.mean_y,
    )


def fused_scores(model, probes_raw, gallery_raw, scorer=score_matrix):
    return scorer(model, project(model, gallery_raw, "B"), project(model, probes_raw, "A"))


def span_pairs(rng, n, d, r, views):
    """Row-aligned views (xs, ys) of n pairs of the named kind."""
    xs, ys = make_pairs(rng, n=n, d=d, spread=0.5)
    if views == "head":
        head = np.arange(d) < r
        return xs * head, ys * head
    if views == "same":
        return xs, xs.copy()
    if views == "faint":
        # The first half of the coordinates at 1e-7 of the rest: there the
        # basis rows are tiny, so the Gram that combines unit vectors into
        # padding has eigenvalues within 1e-13 of 1 besides those equal to 1.
        faint = np.where(np.arange(d) < d // 2, 1e-7, 1.0)
        return xs * faint, ys * faint
    if views.startswith("near"):
        # Rows in a 3-d span plus components of amplitude a (1e-5, or as
        # "near:a" names it) against its scale: down to a = 1e-7 the rows'
        # Gram's eigenvalues span 14 decades or more, and below that its
        # smallest fall under its rounding.
        amp = float(views[5:]) if views != "near" else 1e-5
        base = rng.normal(size=(3, d))
        xs = rng.normal(size=(n, 3)) @ base + amp * rng.normal(size=(n, d))
        ys = xs + 0.5 * rng.normal(size=(n, 3)) @ base + amp * rng.normal(size=(n, d))
        return xs, ys
    if views == "siltp":
        # Histograms: the tail has 6 used bins whose counts sum to one, so
        # the centered tail rows have rank 5 and k < 2n.
        used = np.arange(d) < r
        used[rng.choice(np.arange(r, d), size=6, replace=False)] = True
        hists = rng.random(size=(2 * n, d)) * used
        hists /= hists[:, r:].sum(axis=1, keepdims=True)
        return hists[:n], hists[n:]
    if views == "line":
        # Tail rows all multiples of one vector that uses every tail
        # coordinate: the tail has rank 1 and no zero column.
        line = rng.normal(size=d - r)
        coefs = rng.normal(size=(n, 2))
        return (np.hstack([xs[:, :r], np.outer(coefs[:, 0], line)]),
                np.hstack([ys[:, :r], np.outer(coefs[:, 1], line)]))
    if views == "spike":
        # Views equal past the first r coordinates (E's tail is 0), their
        # tails mixing a line that uses every tail coordinate but the last,
        # none near 0, with a small multiple of the last one's unit vector:
        # the least-used coordinate's unit vector lies inside the rows' span.
        line = 1.0 + rng.random(d - r)
        line[-1] = 0.0
        tails = np.outer(rng.normal(size=n), line)
        tails[:, -1] = 1e-2 * rng.normal(size=n)
        return np.hstack([xs[:, :r], tails]), np.hstack([ys[:, :r], tails])
    return xs, ys


class TestSpanSolve:
    """The solve in the span of the pairs against the dense d x d oracle
    and the QR-basis oracle.

    Vectors inside the degenerate eigenvalue-1 block are not unique, so
    the comparison uses eigenvalues and scores, which that block does
    not affect.
    """

    @pytest.mark.parametrize(
        "n, d, r, views",
        [
            # d > 2n + r
            pytest.param(6, 40, 5, "noisy", id="6-40-5"),
            # r > 2n: the top r reach into the eigenvalue-1 block
            pytest.param(3, 40, 10, "noisy", id="3-40-10"),
            # r > 2n and d = 2n + r + 1
            pytest.param(3, 19, 12, "noisy", id="3-19-12"),
            # r < 2n and d = 2n + r + 1
            pytest.param(6, 18, 5, "noisy", id="6-18-5"),
            # full-rank rows with fewer than r eigenvalues above 1 and r < 2n:
            # padding follows them, and at d = 2n + 2 it runs out and the
            # eigenvalues below 1 follow it
            pytest.param(6, 40, 8, "noisy", id="6-40-8"),
            pytest.param(6, 14, 10, "noisy", id="6-14-10"),
            # d <= 2n: the full matrices
            pytest.param(20, 30, 5, "noisy", id="20-30-5"),
            # pair data only in the first r coordinates: k <= r, and most of
            # the first k + s unit vectors, which the padding combines, lie
            # in the rows' span
            pytest.param(6, 40, 5, "head", id="6-40-5-head"),
            # identical views: E = 0
            pytest.param(6, 40, 5, "same", id="6-40-5-same"),
            # padding built where the basis rows are tiny
            pytest.param(6, 40, 10, "faint", id="6-40-10-faint"),
            # nearly dependent rows, down to components one Gram of the
            # rows cannot resolve
            pytest.param(6, 40, 5, "near", id="6-40-5-near"),
            pytest.param(6, 40, 12, "near", id="6-40-12-near"),
            pytest.param(6, 40, 14, "near", id="6-40-14-near"),
            pytest.param(6, 40, 5, "near:1e-6", id="6-40-5-near6"),
            pytest.param(6, 40, 12, "near:1e-6", id="6-40-12-near6"),
            pytest.param(6, 40, 5, "near:1e-7", id="6-40-5-near7"),
            pytest.param(6, 40, 12, "near:1e-7", id="6-40-12-near7"),
            pytest.param(6, 40, 5, "near:1e-9", id="6-40-5-near9"),
            pytest.param(6, 40, 12, "near:1e-9", id="6-40-12-near9"),
            pytest.param(9, 51, 7, "near:1e-6", id="9-51-7-near6"),
            # zero tail columns and rows of constant sum
            pytest.param(6, 40, 5, "siltp", id="6-40-5-siltp"),
            pytest.param(6, 40, 12, "siltp", id="6-40-12-siltp"),
            # tail of rank 1 with no zero column; the top r reach into the
            # eigenvalue-1 block
            pytest.param(6, 40, 12, "line", id="6-40-12-line"),
            # the least-used tail coordinate lies inside the rows' span
            pytest.param(6, 40, 12, "spike", id="6-40-12-spike"),
        ],
    )
    def test_matches_dense_oracle(self, rng, n, d, r, views):
        stats = accumulate_stats(*span_pairs(rng, n, d, r, views))
        model = solve_subspace(stats, r)
        assert model.w.shape == (d, r)
        # Each column solves the full problem, inside the eigenvalue-1 block too.
        gain = stats.sigma_m @ model.w
        resid = gain - stats.sigma_e @ model.w * model.eigenvalues
        assert (np.linalg.norm(resid, axis=0) <= 1e-8 * np.linalg.norm(gain, axis=0)).all()
        probes_raw = rng.normal(size=(7, d))
        gallery_raw = rng.normal(size=(9, d))
        got = fused_scores(model, probes_raw, gallery_raw)
        oracles = [dense_oracle_model(stats, r)]
        if 2 * n + r < d:
            oracles.append(qr_oracle_model(stats, r))
        refs = [fused_scores(oracle, probes_raw, gallery_raw, dense_score_matrix)
                for oracle in oracles]
        # On nearly dependent rows the two oracles round apart by more than
        # 1e-8; then the solve is held to ten times their own disagreement.
        bound = 1e-8
        if len(refs) == 2:
            bound = max(bound, 10 * relative_error(refs[1], refs[0]))
        for oracle, ref in zip(oracles, refs):
            assert np.allclose(model.eigenvalues, oracle.eigenvalues, rtol=1e-8)
            assert relative_error(got, ref) <= bound

    def test_oracles_that_disagree_beyond_1e8(self):
        """The 9-51-7-near6 case at rng seed 89: with OpenBLAS 0.3.31 on an
        AVX-512 Xeon the QR oracle's scores lie 1.5e-8 from the dense
        oracle's, and the solve's 1.3e-8 and 2.8e-8 from them."""
        self.test_matches_dense_oracle(np.random.default_rng(89), 9, 51, 7, "near:1e-6")

    def test_reduced_matrices_equal_explicit_basis_projection(self, rng):
        n, d = 6, 40
        for views in ("noisy", "head", "siltp", "line", "spike", "near:1e-7"):
            stats = accumulate_stats(*span_pairs(rng, n, d, 5, views))
            coords, lift = _coupled_problem(stats)
            k = coords.shape[1]
            assert coords.shape[0] == 2 * n and k <= 2 * n
            basis = lift(np.eye(k), np.arange(0))
            assert basis.shape == (d, k)
            assert np.allclose(basis.T @ basis, np.eye(k), atol=1e-12)
            for rows in (stats.m_rows, stats.e_rows):
                assert relative_error(rows @ basis @ basis.T, rows) <= 1e-12
            ridge = stats.ridge_term * np.eye(k)
            for part, sigma in ((coords[:n], stats.sigma_m), (coords[n:], stats.sigma_e)):
                assert relative_error(part.T @ part + ridge, basis.T @ sigma @ basis) <= 1e-12

    @pytest.mark.parametrize(
        "views",
        ["noisy", "head", "same", "faint", "near", "near:1e-6", "near:1e-7", "near:1e-9",
         "siltp", "line", "spike"],
    )
    def test_reduced_coordinates_have_orthogonal_columns(self, rng, views):
        # The reduced solve whitens by diag(C^T C) + 2 ridge_term, which is
        # sigma_m + sigma_e only while C^T C is diagonal.
        n = 6
        for r in (5, 12):
            stats = accumulate_stats(*span_pairs(rng, n, 40, r, views))
            coords, _ = _coupled_problem(stats)
            gram = coords.T @ coords
            norms = np.sqrt(np.diag(gram))
            off = gram - np.diag(np.diag(gram))
            assert (np.abs(off) <= 1e-12 * np.outer(norms, norms)).all()

    @pytest.mark.parametrize(
        "n, d, r, views",
        [
            pytest.param(6, 40, 5, "noisy", id="6-40-5"),
            pytest.param(6, 40, 14, "near", id="6-40-14-near"),
            pytest.param(6, 40, 12, "spike", id="6-40-12-spike"),
            pytest.param(20, 30, 5, "noisy", id="20-30-5"),
        ],
    )
    def test_model_inverses_are_diagonal(self, rng, n, d, r, views):
        # The model's a and b are the whole projected covariances: their
        # off-diagonal parts are 0 to within 1e-9.
        stats = accumulate_stats(*span_pairs(rng, n, d, r, views))
        model = solve_subspace(stats, r)
        for var, sigma in ((model.a, stats.sigma_m), (model.b, stats.sigma_e)):
            assert relative_error(np.diag(var), model.w.T @ sigma @ model.w) <= 1e-9

    @pytest.mark.parametrize(
        "n, d, r, views",
        [
            pytest.param(6, 40, 8, "noisy", id="6-40-8-padded"),
            pytest.param(6, 40, 14, "near", id="6-40-14-near"),
            pytest.param(20, 30, 5, "noisy", id="20-30-5-dense"),
        ],
    )
    def test_scores_equal_the_dense_expansion_bitwise(self, rng, n, d, r, views):
        # The r x r expansion over diag(1 / a), diag(1 / b), diag(2 / (a + b))
        # that models held before a and b: scoring from the vectors keeps
        # its bits, and so every rank.
        model = solve_subspace(accumulate_stats(*span_pairs(rng, n, d, r, views)), r)
        gallery = project(model, rng.normal(size=(9, d)), "B")
        for rows in (1, 2, 13):
            probes = project(model, rng.normal(size=(rows, d)), "A")
            for g, p in ((gallery, probes), (probes, gallery)):
                assert np.array_equal(score_matrix(model, g, p),
                                      dense_score_matrix(as_dense(model), g, p))

    @pytest.mark.parametrize(
        "n, d, r, views",
        [
            pytest.param(6, 40, 8, "noisy", id="6-40-8"),
            pytest.param(6, 14, 10, "noisy", id="6-14-10"),
            pytest.param(6, 40, 14, "near", id="6-40-14-near"),
            pytest.param(6, 40, 12, "spike", id="6-40-12-spike"),
            pytest.param(6, 40, 5, "head", id="6-40-5-head"),
            pytest.param(6, 40, 10, "faint", id="6-40-10-faint"),
        ],
    )
    def test_padding_lies_off_the_rows_between_the_eigenvalues(self, rng, n, d, r, views):
        # Directions in the rows' span can have eigenvalue 1 to rounding, so
        # the padding columns are found by position, not by value.
        stats = accumulate_stats(*span_pairs(rng, n, d, r, views))
        model = solve_subspace(stats, r)
        k = _coupled_problem(stats)[0].shape[1]
        above = int(np.count_nonzero(model.eigenvalues > 1.0))
        pad = np.zeros(r, dtype=bool)
        pad[above : above + min(r - above, d - k)] = True
        assert pad.any()
        assert (model.eigenvalues[pad] == 1.0).all()
        assert (np.diff(model.eigenvalues) <= 0).all()
        padding = model.w[:, pad]
        assert np.allclose(padding.T @ padding, np.eye(pad.sum()), atol=1e-12)
        for rows in (stats.m_rows, stats.e_rows):
            assert np.abs(rows @ padding).max() <= 1e-12 * np.abs(rows).max()
        for var in (model.a, model.b):
            assert np.allclose(var[pad], stats.ridge_term, rtol=1e-12)

    def test_no_ridge_beyond_span_rejected(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=4, d=30), ridge=0.0)
        with pytest.raises(NotPositiveDefinite):
            solve_subspace(stats, 3)

    def test_wide_fit_forms_no_square_matrix(self, rng):
        d, n, r = 20000, 8, 10
        xs = rng.normal(size=(n, d))
        ys = xs + 0.3 * rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            model = solve_subspace(accumulate_stats(xs, ys), r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.w.shape == (d, r)
        # One d x d float64 matrix would take 3.2 GB.
        assert peak < 64 * 2**20

    def test_reduced_solve_forms_no_pair_span_matrix(self, rng):
        d, n, r = 20000, 40, 100
        xs = rng.normal(size=(n, d))
        ys = xs + 0.3 * rng.normal(size=(n, d))
        stats = accumulate_stats(xs, ys)
        tracemalloc.start()
        try:
            model = solve_subspace(stats, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.w.shape == (d, r)
        # One d x (2n + r) float64 array takes 27.5 MiB.  The solve peaks
        # at 31.4 MiB: two d x r arrays of 15.3 MiB, w and one level's term
        # of the lift; the pair rows are read where ``accumulate_stats``
        # stacked them.  Here 61 of the top 100 are padding; building them
        # as a d x (k + s) array of unit vectors and factoring it would
        # add 21 MiB or more.
        assert peak < 40 * 2**20

    def test_reduced_solve_factors_and_inverts_nothing(self, rng, monkeypatch):
        stats = accumulate_stats(*span_pairs(rng, 6, 40, 12, "noisy"))

        def refuse(*args, **kwargs):
            raise AssertionError("the reduced solve called a factorization or an inverse")

        for name in ("cholesky", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert solve_subspace(stats, 12).w.shape == (40, 12)


class TestProject:
    def test_mean_goes_to_zero(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=30, d=5))
        model = solve_subspace(stats, 3)
        assert np.allclose(project(model, model.mean_x, "A"), 0.0)
        assert np.allclose(project(model, model.mean_y, "B"), 0.0)

    def test_norm_preserved_in_span(self):
        w = np.zeros((5, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        model = CclModel(w=w, a=np.ones(2), b=np.ones(2), mean_x=np.zeros(5), mean_y=np.zeros(5))
        rep = np.array([3.0, 4.0, 0.0, 0.0, 0.0])
        out = project(model, rep, "A")
        assert np.linalg.norm(out) == pytest.approx(5.0)

    def test_triple_loop_oracle(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=30, d=6))
        model = solve_subspace(stats, 4)
        rep = rng.normal(size=6)
        out = project(model, rep, "B")
        ref = np.zeros(4)
        for j in range(4):
            for i in range(6):
                ref[j] += (rep[i] - model.mean_y[i]) * model.w[i, j]
        assert np.allclose(out, ref, atol=1e-12)

    def test_batch_shape(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=30, d=6))
        model = solve_subspace(stats, 4)
        batch = project(model, rng.normal(size=(9, 6)), "A")
        assert batch.shape == (9, 4)

    def test_dimension_mismatch(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=30, d=6))
        model = solve_subspace(stats, 4)
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros(5), "A")

    def test_bad_view(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=30, d=6))
        model = solve_subspace(stats, 2)
        with pytest.raises(ValueError):
            project(model, np.zeros(6), "C")


class TestScore:
    def test_hand_instance(self):
        # Inverses diag(0.5), I and diag(2 / 3): m = 2 px scores 4 (2/3 - 1/2).
        model = hand_model(a=np.array([2.0, 2.0]), b=np.ones(2))
        px = np.array([1.0, 0.0])
        value = score(model, px, px)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_equal_arguments_drop_difference_term(self, rng):
        r = 4
        a, b = random_variances(rng, r), random_variances(rng, r)
        model = hand_model(a, b)
        px = rng.normal(size=r)
        m = 2.0 * px
        expected = m @ ((2.0 / (a + b) - 1.0 / a) * m)
        assert score(model, px, px) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_is_bitwise(self, rng):
        model = hand_model(random_variances(rng, 5), random_variances(rng, 5))
        for _ in range(50):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert score(model, a, b) == score(model, b, a)

    def test_dimension_check(self, rng):
        model = hand_model(np.ones(3), np.ones(3))
        with pytest.raises(DimensionMismatch):
            score(model, np.zeros(2), np.zeros(3))


class TestScoreMatrix:
    def test_single_entry_equals_score(self, rng):
        model = hand_model(random_variances(rng, 4), random_variances(rng, 4))
        a, b = rng.normal(size=4), rng.normal(size=4)
        out = score_matrix(model, [b], [a])
        assert out.shape == (1, 1)
        assert relative_error(out, score(model, a, b)) <= SCORE_RTOL

    def test_swapped_roles_transpose(self, rng):
        model = hand_model(random_variances(rng, 4), random_variances(rng, 4))
        gallery = rng.normal(size=(6, 4))
        probes = rng.normal(size=(5, 4))
        fwd = score_matrix(model, gallery, probes)
        rev = score_matrix(model, probes, gallery)
        assert relative_error(fwd, looped_score_matrix(model, gallery, probes)) <= SCORE_RTOL
        assert relative_error(rev.T, fwd) <= SCORE_RTOL

    def test_matches_looped_scores_bitwise(self, rng):
        # Named for the bit-equal contract the GEMM scorer replaced; the
        # looped oracle now bounds it to a relative SCORE_RTOL.
        for r in (3, 17):
            model = hand_model(random_variances(rng, r), random_variances(rng, r))
            gallery = rng.normal(size=(10, r))
            probes = rng.normal(size=(12, r))
            out = score_matrix(model, gallery, probes)
            assert out.shape == (12, 10)
            assert relative_error(out, looped_score_matrix(model, gallery, probes)) <= SCORE_RTOL

    def test_dimension_mismatch(self, rng):
        model = hand_model(np.ones(3), np.ones(3))
        with pytest.raises(DimensionMismatch):
            score_matrix(model, rng.normal(size=(2, 4)), rng.normal(size=(2, 3)))


class TestScalingInvariance:
    def test_ranking_stable_under_global_scaling(self, rng):
        n, d, r = 24, 8, 4
        xs = rng.normal(size=(n, d))
        ys = xs + 0.4 * rng.normal(size=(n, d))
        probes_raw = xs + 0.4 * rng.normal(size=(n, d))

        def top_match(scale):
            stats = accumulate_stats(scale * xs, scale * ys)
            model = solve_subspace(stats, r)
            probes = project(model, scale * probes_raw, "A")
            gallery = project(model, scale * ys, "B")
            return score_matrix(model, gallery, probes).argmax(axis=1)

        base = top_match(1.0)
        for c in (0.02, 5.0, 300.0):
            assert np.array_equal(top_match(c), base)


class TestModelPersistence:
    def make_models(self, rng):
        stats = accumulate_stats(*make_pairs(rng, n=40, d=6))
        main = solve_subspace(stats, 4)
        other = solve_subspace(stats, 2)
        return {"SGM": main, "CH": other}

    def test_roundtrip_bitwise(self, tmp_path, rng):
        models = self.make_models(rng)
        path = tmp_path / "m.cclm"
        save_models(path, models)
        loaded = load_models(path)
        assert list(loaded) == ["SGM", "CH"]
        for kind, model in models.items():
            got = loaded[kind]
            for attr in (field.name for field in fields(CclModel)):
                assert np.array_equal(getattr(model, attr), getattr(got, attr)), attr
                # A view of the one buffer the file is read into, not a copy.
                flags = getattr(got, attr).flags
                assert flags.aligned and flags.writeable and not flags.owndata, attr

    def test_scores_survive_roundtrip_bitwise(self, tmp_path, rng):
        models = self.make_models(rng)
        path = tmp_path / "m.cclm"
        save_models(path, models)
        loaded = load_models(path)["SGM"]
        gallery, probes = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        assert np.array_equal(score_matrix(models["SGM"], gallery, probes),
                              score_matrix(loaded, gallery, probes))

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "m.cclm"
        save_models(path, self.make_models(rng))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat):
            load_models(path)

    def test_version_1_refused(self, tmp_path, rng):
        # Version 1 held three r x r inverses in place of a and b.
        path = tmp_path / "m.cclm"
        save_models(path, self.make_models(rng))
        data = bytearray(path.read_bytes())
        data[4:6] = (1).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormat, match="unsupported version 1; retrain"):
            load_models(path)

    @pytest.mark.parametrize("var", ["a", "b"])
    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_non_positive_variance_is_corrupt(self, tmp_path, rng, var, value):
        # The file ends in the CH model's a and b, r = 2 floats each.
        path = tmp_path / "m.cclm"
        save_models(path, self.make_models(rng))
        data = bytearray(path.read_bytes())
        at = len(data) - (32 if var == "a" else 16)
        data[at : at + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))
        message = re.escape(f"{path}: model 'CH' holds a variance that is not positive")
        with pytest.raises(CorruptFile, match=message):
            load_models(path)

    @pytest.mark.parametrize("var", ["a", "b"])
    def test_variance_whose_reciprocal_overflows_is_corrupt(self, tmp_path, rng, var):
        # 1e-310 is positive, but 1 / 1e-310 exceeds the largest double.
        path = tmp_path / "m.cclm"
        save_models(path, self.make_models(rng))
        data = bytearray(path.read_bytes())
        at = len(data) - (32 if var == "a" else 16)
        data[at : at + 8] = np.float64(1e-310).tobytes()
        path.write_bytes(bytes(data))
        message = re.escape(f"{path}: model 'CH' holds a variance whose reciprocal overflows")
        with np.errstate(all="raise"), pytest.raises(CorruptFile, match=message):
            load_models(path)

    def test_long_kind_tag_leaves_no_file(self, tmp_path, rng):
        # Every tag is checked before the file is opened: a good model ahead
        # of the long tag must not leave a partial file behind.
        models = self.make_models(rng)
        models["X" * 17] = models["CH"]
        path = tmp_path / "m.cclm"
        with pytest.raises(ValueError, match="kind tag too long"):
            save_models(path, models)
        assert not path.exists()

    @pytest.mark.parametrize("tags", [("CH ",), ("SGM", "SGM ")])
    def test_tag_ending_in_a_space_leaves_no_file(self, tmp_path, rng, tags):
        # The reader strips the padding: "CH " would load as "CH", and "SGM"
        # beside "SGM " would be read back as a repeated kind.
        model = self.make_models(rng)["SGM"]
        path = tmp_path / "m.cclm"
        with pytest.raises(ValueError, match="kind tag ends in a space"):
            save_models(path, dict.fromkeys(tags, model))
        assert not path.exists()

    def test_truncation(self, tmp_path, rng):
        path = tmp_path / "m.cclm"
        save_models(path, self.make_models(rng))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CorruptFile):
            load_models(path)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_score_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    model = hand_model(random_variances(rng, 3), random_variances(rng, 3))
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert score(model, a, b) == score(model, b, a)
