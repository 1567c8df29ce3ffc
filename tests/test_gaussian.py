import multiprocessing
import os
import queue
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp
from scipy.stats import invwishart, multivariate_normal, multivariate_t

from setbayes import (
    AllZeroMass,
    CategorySpace,
    DimensionMismatch,
    EmptyCategory,
    InvalidDistribution,
    NormalInverseWishart,
    OutOfRange,
    SingularScatter,
    TrainingData,
    calibrate_conformal_cost,
    conformal_coverage,
    conjugate_update,
    default_hyperprior,
    fit,
    model_from_json,
    model_to_json,
    posterior_matrix,
    posterior_over_categories,
    predictive_density,
    sample_mixture,
)
from setbayes import gaussian
from setbayes.gaussian import CategoryDraws

from conftest import spawned_streams


def sequential_update(rows, prior):
    """Independent reference: fold observations in one at a time.

    Uses only the single-observation update formulas, so it shares no
    code path with the batch update it checks.
    """
    mean = np.asarray(prior.mean, dtype=float)
    kappa = prior.kappa
    dof = prior.dof
    scatter = np.asarray(prior.scatter, dtype=float)
    for x in np.asarray(rows, dtype=float):
        dev = (x - mean).reshape(-1, 1)
        scatter = scatter + (kappa / (kappa + 1.0)) * (dev @ dev.T)
        mean = (kappa * mean + x) / (kappa + 1.0)
        kappa += 1.0
        dof += 1.0
    return mean, kappa, dof, scatter


def closed_form_predictive(posterior):
    """The posterior predictive is multivariate t with known parameters."""
    d = posterior.dim
    df = posterior.dof - d + 1
    shape = (
        np.asarray(posterior.scatter)
        * (posterior.kappa + 1.0)
        / (posterior.kappa * df)
    )
    return multivariate_t(loc=posterior.mean_array(), shape=shape, df=df)


class TestNormalInverseWishart:
    def test_validation(self):
        eye = ((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(OutOfRange):
            NormalInverseWishart((0.0, 0.0), 0.0, 4.0, eye)
        with pytest.raises(OutOfRange):
            NormalInverseWishart((0.0, 0.0), 1.0, 1.0, eye)  # dof <= d - 1
        with pytest.raises(SingularScatter):
            NormalInverseWishart((0.0, 0.0), 1.0, 4.0, ((1.0, 0.5), (0.4, 1.0)))
        with pytest.raises(SingularScatter):
            NormalInverseWishart((0.0, 0.0), 1.0, 4.0, ((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(DimensionMismatch, match="scatter has shape"):
            NormalInverseWishart((0.0, 0.0, 0.0), 1.0, 4.0, eye)
        with pytest.raises(OutOfRange, match="hyperparameters must be finite"):
            NormalInverseWishart((0.0, np.nan), 1.0, 4.0, eye)
        with pytest.raises(OutOfRange, match="hyperparameters must be finite"):
            NormalInverseWishart((0.0, 0.0), 1.0, 4.0, ((np.inf, 0.0), (0.0, 1.0)))
        for kappa, dof in ((np.nan, 4.0), (np.inf, 4.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(OutOfRange, match="hyperparameters must be finite"):
                NormalInverseWishart((0.0, 0.0), kappa, dof, eye)

    def test_dim(self):
        niw = NormalInverseWishart((0.0, 1.0, 2.0), 1.0, 5.0, tuple(tuple(r) for r in np.eye(3)))
        assert niw.dim == 3


class TestConjugateUpdate:
    def test_hand_computed_one_dimensional(self):
        prior = NormalInverseWishart((0.0,), 1.0, 3.0, ((2.0,),))
        post = conjugate_update(np.array([[1.0], [2.0], [3.0]]), prior)
        assert post.kappa == pytest.approx(4.0)
        assert post.dof == pytest.approx(6.0)
        assert post.mean[0] == pytest.approx(1.5)
        # 2 (prior) + 2 (within scatter) + 3/4 * 2^2 (mean shift)
        assert post.scatter[0][0] == pytest.approx(7.0)

    def test_matches_sequential_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 15))
            a = rng.standard_normal((d, d))
            prior = NormalInverseWishart(
                tuple(rng.standard_normal(d)),
                float(rng.uniform(0.2, 5.0)),
                float(d + 1 + rng.uniform(0.0, 3.0)),
                tuple(tuple(row) for row in a @ a.T + np.eye(d)),
            )
            rows = rng.standard_normal((n, d)) * 2.0 + rng.standard_normal(d)
            post = conjugate_update(rows, prior)
            mean, kappa, dof, scatter = sequential_update(rows, prior)
            np.testing.assert_allclose(post.mean_array(), mean, atol=1e-10)
            assert post.kappa == pytest.approx(kappa, abs=1e-12)
            assert post.dof == pytest.approx(dof, abs=1e-12)
            np.testing.assert_allclose(post.scatter_array(), scatter, atol=1e-10)

    def test_rejects_empty_and_mismatched(self):
        prior = NormalInverseWishart((0.0,), 1.0, 3.0, ((1.0,),))
        with pytest.raises(EmptyCategory):
            conjugate_update(np.empty((0, 1)), prior)
        with pytest.raises(DimensionMismatch):
            conjugate_update(np.zeros((3, 2)), prior)


class TestTrainingData:
    def test_counts_and_stacking(self):
        data = TrainingData([np.zeros((3, 2)), np.ones((2, 2))])
        assert data.counts == (3, 2)
        assert data.total == 5
        assert data.dim == 2
        rows, labels = data.stacked()
        assert rows.shape == (5, 2)
        assert labels.tolist() == [1, 1, 1, 2, 2]
        rows, labels = TrainingData([np.zeros((1, 2)), [], np.ones((2, 2))]).stacked()
        np.testing.assert_array_equal(rows, [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert labels.tolist() == [1, 3, 3]

    def test_dimension_agreement(self):
        with pytest.raises(DimensionMismatch):
            TrainingData([np.zeros((2, 2)), np.zeros((2, 3))])

    @pytest.mark.parametrize("groups, error, match", [
        ([np.zeros((2, 2, 2))], DimensionMismatch, r"\(n, d\) array, got shape \(2, 2, 2\)"),
        ([np.zeros((2, 2)), [[0.0, np.nan]]], OutOfRange, "observations must be finite"),
        ([np.zeros((2, 2)), [[np.inf, 0.0]]], OutOfRange, "observations must be finite"),
        ([], DimensionMismatch, "need at least one category"),
        ([[], np.empty((0, 2))], EmptyCategory, "no category has any observations"),
    ], ids=["3-D group", "NaN", "infinite", "no groups", "every group empty"])
    def test_refused(self, groups, error, match):
        with pytest.raises(error, match=match):
            TrainingData(groups)

    def test_groups_read_only(self):
        data = TrainingData([np.zeros((2, 2))])
        with pytest.raises(ValueError):
            data.groups[0][0, 0] = 1.0


class TestDefaultHyperprior:
    def test_pooled_values(self):
        data = TrainingData([
            np.array([[0.0, 2.0], [2.0, 4.0]]),
            np.array([[4.0, 0.0], [2.0, 2.0]]),
        ])
        prior = default_hyperprior(data)
        np.testing.assert_allclose(prior.mean_array(), [2.0, 2.0])
        assert prior.kappa == 1.0
        assert prior.dof == 4.0  # d + 2
        pooled = np.vstack(data.groups)
        np.testing.assert_allclose(
            prior.scatter_array(), np.diag(pooled.var(axis=0, ddof=1))
        )

    def test_one_row_takes_unit_variance(self):
        """One row has no sample variance, so each axis takes variance 1."""
        prior = default_hyperprior(TrainingData([np.array([[3.0, -1.0]]), []]))
        np.testing.assert_array_equal(prior.mean_array(), [3.0, -1.0])
        np.testing.assert_array_equal(prior.scatter_array(), np.eye(2))

    def test_constant_column_fails(self):
        data = TrainingData([np.array([[1.0, 0.0], [1.0, 2.0]])])
        with pytest.raises(SingularScatter):
            default_hyperprior(data)


def small_training_data(rng, n_cats=3, d=2, lo=8, hi=20):
    centers = rng.standard_normal((n_cats, d)) * 3.0
    groups = [
        centers[i] + rng.standard_normal((int(rng.integers(lo, hi)), d))
        for i in range(n_cats)
    ]
    return TrainingData(groups)


class TestFitDeterminism:
    def test_identical_refits(self):
        rng = np.random.default_rng(43)
        data = small_training_data(rng)
        m1 = fit(data, n_draws=50, seed=9)
        m2 = fit(data, n_draws=50, seed=9)
        for a, b in zip(m1.draws, m2.draws):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.chols, b.chols)

    def test_streams_keyed_by_category(self):
        """With a fixed hyperprior, adding a category keeps every earlier
        category's draws intact: each draws from its own stream."""
        rng = np.random.default_rng(47)
        data = small_training_data(rng, n_cats=3)
        extra = rng.standard_normal((10, 2)) + 5.0
        bigger = TrainingData(list(data.groups) + [extra])
        hyper = NormalInverseWishart(
            (0.0, 0.0), 1.0, 4.0, ((2.0, 0.0), (0.0, 2.0))
        )
        m_small = fit(data, hyper, n_draws=40, seed=5)
        m_big = fit(bigger, hyper, n_draws=40, seed=5)
        for a, b in zip(m_small.draws, m_big.draws[:3]):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.chols, b.chols)

    def test_empty_category_rejected(self):
        hyper = NormalInverseWishart((0.0,), 1.0, 3.0, ((1.0,),))
        rows = np.arange(4.0).reshape(4, 1)
        with pytest.raises(EmptyCategory):
            fit(TrainingData([rows, np.empty((0, 1))]), hyper, n_draws=10)

    def test_space_and_hyperprior_must_match_the_data(self):
        data = small_training_data(np.random.default_rng(43), n_cats=3, d=2)
        with pytest.raises(DimensionMismatch, match="space has 4 categories, data has 3"):
            fit(data, n_draws=10, space=CategorySpace(4))
        hyper = NormalInverseWishart((0.0,), 1.0, 3.0, ((1.0,),))
        with pytest.raises(DimensionMismatch, match="hyperprior dimension 1 does not match"):
            fit(data, hyper, n_draws=10)


class TestSampler:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scipy_invwishart_on_one_stream(self, d):
        """From one generator state, the Bartlett sampler's Cholesky factors
        are those of ``invwishart.rvs``'s covariances, its means follow from
        the next standard normals, and both leave the stream at the same
        place."""
        rng = np.random.default_rng(70 + d)
        mats = rng.standard_normal((d, d))
        post = NormalInverseWishart(
            tuple(rng.standard_normal(d)), 2.5, d + 3.5,
            tuple(map(tuple, mats @ mats.T + np.eye(d))),
        )
        n_draws = 300
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        draws = gaussian.draw_category_sample(post, n_draws, ours)
        covs = invwishart.rvs(
            df=post.dof, scale=post.scatter_array(), size=n_draws, random_state=theirs
        )
        chols = np.linalg.cholesky(np.reshape(covs, (n_draws, d, d)))
        means = post.mean_array() + (
            chols @ theirs.standard_normal((n_draws, d, 1))
        )[:, :, 0] / np.sqrt(post.kappa)
        np.testing.assert_allclose(draws.chols, chols, rtol=1e-12)
        np.testing.assert_allclose(draws.means, means, rtol=1e-12)
        assert ours.random() == theirs.random()

    def test_no_draws_refused(self):
        post = NormalInverseWishart((0.0,), 1.0, 3.0, ((1.0,),))
        with pytest.raises(OutOfRange, match="need at least one draw, got 0"):
            gaussian.draw_category_sample(post, 0, np.random.default_rng(0))


class TestFoldStreams:
    @pytest.mark.parametrize("seed", [0, 9, 2**31 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("category", [1, 7])
    def test_no_fold_replays_the_full_fit_stream(self, monkeypatch, seed, category):
        """No value of any fold's Bartlett normals is among the category's
        full-fit normals, the first ``normal`` values of
        ``category_rng(seed, category)``, and no two folds share their first
        normal.  The seeds take one, two and three 32-bit words."""
        group = np.random.default_rng(43).standard_normal((6, 2))
        hyper = NormalInverseWishart((0.0, 0.0), 1.0, 4.0, ((1.0, 0.0), (0.0, 1.0)))
        n_draws = 20
        normals = []
        draws = gaussian._generator_draws

        def record(dof, *rest):
            draws(dof, *rest)
            normals.append(rest[-3].reshape(-1, n_draws, 1).copy())

        monkeypatch.setattr(gaussian, "_generator_draws", record)
        gaussian._fold_log_densities(group, hyper, category, n_draws, seed)
        folds = np.concatenate(normals)
        assert folds.shape == (6, n_draws, 1)
        full = gaussian.category_rng(seed, category).normal(size=(n_draws, 1))
        assert not np.isin(folds, full).any()
        assert np.unique(folds[:, 0, 0]).size == 6

    def test_numpy_seeding_is_pinned(self):
        """numpy's PCG64 seeding of the category stream (9, 1), and the first
        64-bit output of each of the three streams spawned for its folds,
        written out.  A numpy that seeds or spawns otherwise moves every
        fit, classify, tune and conformal output, and fails here by name."""
        assert gaussian.category_rng(9, 1).bit_generator.state["state"] == {
            "state": 212258717954260339445759644917009673947,
            "inc": 210554441082389327479993656945054459349,
        }
        assert [rng.bit_generator.random_raw() for rng in spawned_streams(9, 1)] == [
            1016909882640572817, 8766674352128667259, 12640763316908840429,
        ]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batches_match_one_fold_at_a_time(self, d):
        """Folds drawn in batches of 3 and 2 through ``_generator_draws``
        into shared buffers, reused from one batch to the next, get slice j
        of one call per stream over all five folds, bit for bit, and what
        the calls draw one fold at a time.  Buffer rows past a batch are
        left alone."""
        seed, category, n_draws, dof = 4, 2, 30, d + 4.5
        k = np.arange(d)
        normal, chi_rng, noise = spawned_streams(seed, category)
        want_lower = normal.normal(size=(5, n_draws, d * (d - 1) // 2))
        want_chi = chi_rng.chisquare(dof - d + 1 + k, size=(5, n_draws, d))
        want_eps = noise.standard_normal((5, n_draws, d))
        batched, single = spawned_streams(seed, category), spawned_streams(seed, category)
        lower = np.full((4, n_draws, d * (d - 1) // 2), np.nan)
        chi, eps = np.full((4, n_draws, d), np.nan), np.full((4, n_draws, d), np.nan)
        for batch in (range(0, 3), range(3, 5)):
            b = len(batch)
            gaussian._generator_draws(dof, *batched, lower[:b], chi[:b], eps[:b])
            for f, j in enumerate(batch):
                one = np.empty_like(lower[0]), np.empty_like(chi[0]), np.empty_like(eps[0])
                gaussian._generator_draws(dof, *single, *one)
                for got, want, alone in zip((lower, chi, eps), (want_lower, want_chi, want_eps), one):
                    np.testing.assert_array_equal(got[f], want[j])
                    np.testing.assert_array_equal(got[f], alone)
        assert np.isnan(chi[3]).all() and np.isnan(eps[3]).all()

    @pytest.mark.parametrize("d", [1, 3])
    def test_folds_follow_the_student_t_predictive(self, monkeypatch, d):
        """At 4000 draws, each fold's Monte Carlo log density at its held-out
        row lies within 5 Monte Carlo standard errors of the exact Student-t
        predictive of its downdated posterior, and the folds' mean error
        within 5 standard errors of that mean.  The standard error of a
        fold's log density is sd(f_l) / (mean(f_l) sqrt(draws)) by the delta
        method, with the per-draw densities f_l taken from the kernel."""
        rng = np.random.default_rng(60 + d)
        group = rng.standard_normal((15, d)) * 1.5 + 2.0
        mats = rng.standard_normal((d, d))
        hyper = NormalInverseWishart(
            tuple(rng.standard_normal(d)), 0.5, d + 2.0,
            tuple(map(tuple, mats @ mats.T + np.eye(d))),
        )
        n_draws = 4000
        per_draw = []
        reduce = gaussian._logsumexp
        monkeypatch.setattr(
            gaussian, "_logsumexp", lambda a: per_draw.append(a.copy()) or reduce(a)
        )
        got = gaussian._fold_log_densities(group, hyper, 3, n_draws, 17)
        weights = np.exp(np.vstack(per_draw) - got[:, None])
        se = weights.std(axis=1, ddof=1) / np.sqrt(n_draws)
        means, kappa, dof, scatter = gaussian._drop_one_posteriors(group, hyper)
        exact = np.array([
            closed_form_predictive(
                NormalInverseWishart(tuple(means[j]), kappa, dof, tuple(map(tuple, scatter[j])))
            ).logpdf(group[j])
            for j in range(group.shape[0])
        ])
        z = (got - exact) / se
        assert np.all(np.abs(z) < 5.0), z
        assert abs(z.mean()) * np.sqrt(z.size) < 5.0, z


def random_draws(rng, d, n_draws):
    """Draws with random means and covariances of eigenvalues at least 1."""
    means = rng.standard_normal((n_draws, d))
    mats = rng.standard_normal((n_draws, d, d))
    covs = mats @ np.swapaxes(mats, 1, 2) + np.eye(d)[None]
    return CategoryDraws(means, np.linalg.cholesky(covs))


def reference_coefficients(means, chols):
    """``CategoryDraws``' ``center``, ``coef`` and ``peak``, by gathering
    (draws, d, pairs) arrays of the inverse factors' columns."""
    d = means.shape[1]
    i, j = np.triu_indices(d)
    inv = gaussian._lower_factors(np.eye(d), chols)
    center = means.mean(axis=0)
    y = np.einsum("lij,lj->li", inv, means - center)
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    peak = float(-0.5 * (logdets.min() + d * gaussian._LOG_2PI))
    coef = -0.5 * np.vstack([
        (inv[:, :, i] * inv[:, :, j]).sum(axis=1).T,
        -2.0 * np.einsum("lji,lj->il", inv, y),
        (y * y).sum(axis=1) + logdets + d * gaussian._LOG_2PI,
    ])
    coef[-1] -= peak
    return center, coef, peak


class TestPredictiveDensity:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_draws", [1, 7, 1000])
    def test_coefficients_have_the_reference_bits(self, d, n_draws):
        """``coef``, ``center`` and ``peak`` have the bits of the
        reference expression, whose sums over the inverse factors' rows
        numpy takes in row order."""
        rng = np.random.default_rng(1000 * d + n_draws)
        draws = random_draws(rng, d, n_draws)
        center, coef, peak = reference_coefficients(draws.means, draws.chols)
        assert draws.center.tobytes() == center.tobytes()
        assert draws.coef.tobytes() == coef.tobytes()
        assert draws.peak == peak

    def test_log_density_kernel_against_naive(self):
        """The vectorized draw-average equals a per-draw scipy evaluation."""
        rng = np.random.default_rng(53)
        d, L = 2, 7
        means = rng.standard_normal((L, d))
        mats = rng.standard_normal((L, d, d))
        covs = mats @ np.swapaxes(mats, 1, 2) + np.eye(d)[None] * 0.5
        draws = CategoryDraws(means, np.linalg.cholesky(covs))
        points = rng.standard_normal((9, d)) * 2.0
        got = np.exp(draws.log_density(points))
        want = np.mean(
            [multivariate_normal(means[l], covs[l]).pdf(points) for l in range(L)],
            axis=0,
        )
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("radius", [2.0, 100.0])
    def test_log_density_against_triangular_solves(self, d, radius):
        """Log densities near the draws and 100 units out (23 to 100
        standard deviations) equal a per-draw evaluation by triangular
        solves, to 1e-12 relative.  So do those of the same draws with
        covariance scales running from e^-7 to e^7, where the bound that
        shifts every draw lies far above the best draw at most points."""
        rng = np.random.default_rng(101 + d)
        base = random_draws(rng, d, 40)
        directions = rng.standard_normal((25, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        points = base.means.mean(axis=0) + radius * directions
        scales = np.exp(np.linspace(-3.5, 3.5, base.n_draws))
        spread = CategoryDraws(base.means, base.chols * scales[:, None, None])
        for draws in (base, spread):
            per_draw = np.empty((points.shape[0], draws.n_draws))
            for l in range(draws.n_draws):
                y = solve_triangular(draws.chols[l], (points - draws.means[l]).T, lower=True)
                logdet = 2.0 * np.log(np.diag(draws.chols[l])).sum()
                per_draw[:, l] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + (y * y).sum(axis=0))
            want = logsumexp(per_draw, axis=1) - np.log(draws.n_draws)
            np.testing.assert_allclose(draws.log_density(points), want, rtol=1e-12, atol=0.0)

    def test_chunks_stay_within_the_budget(self, monkeypatch):
        """Rows go in chunks of budget // draws; several chunks give the
        bits of one, also with a one-row tail, and with more draws than
        the budget a chunk is two rows."""
        rng = np.random.default_rng(107)
        draws = random_draws(rng, 3, 50)
        points = rng.standard_normal((11, 3)) * 2.0
        whole = draws.log_density(points)
        rows = []
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, *rest: rows.append(len(feats)) or chunk(feats, *rest),
        )
        monkeypatch.setattr(gaussian, "_BUDGET", 3 * 50)
        np.testing.assert_array_equal(draws.log_density(points), whole)
        assert rows == [3, 3, 3, 2]
        rows.clear()
        # A one-row tail goes through the GEMM as two copies of itself.
        np.testing.assert_array_equal(draws.log_density(points[:10]), whole[:10])
        assert rows == [3, 3, 3, 1]
        rows.clear()
        monkeypatch.setattr(gaussian, "_BUDGET", 10)
        np.testing.assert_array_equal(draws.log_density(points[:4]), whole[:4])
        assert rows == [2, 2]

    def test_multi_row_bits_do_not_depend_on_the_chunking(self, monkeypatch):
        """Every call of 2 to 40 rows gives the same bits in chunks of 3
        rows as in one chunk: no product is a single row, which would go
        through BLAS's matrix-vector routine.  On this seed the calls of 7,
        19, 22 and 25 rows differ in some bit when their one-row tail goes
        through the product on its own rather than as two copies of itself.

        The same holds with every seventh row, from row 5, 200 units out,
        where its sum falls below 2**-800 and the row goes through the
        chunks again, shifted by its own maximum: also in the calls of 5
        to 11 rows, whose one rescued row is a chunk of one."""
        rng = np.random.default_rng(103)
        draws = random_draws(rng, 3, 1000)
        points = rng.standard_normal((40, 3)) * 2.0
        mixed = points.copy()
        far = np.arange(4, 40, 7)
        directions = rng.standard_normal((far.size, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        mixed[far] = draws.center + 200.0 * directions
        rescued = []
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, coef, buf, out, shift: (
                shift and rescued.append(len(feats))
            ) or chunk(feats, coef, buf, out, shift),
        )
        for rows in (points, mixed):
            for n in range(2, 41):
                monkeypatch.setattr(gaussian, "_BUDGET", n * draws.n_draws)
                whole = draws.log_density(rows[:n])
                rescued.clear()
                monkeypatch.setattr(gaussian, "_BUDGET", 3 * draws.n_draws)
                got = draws.log_density(rows[:n])
                np.testing.assert_array_equal(got, whole, err_msg=f"{n} rows")
                assert np.all(np.isfinite(got))
                n_far = int((far < n).sum()) if rows is mixed else 0
                assert sum(rescued) == n_far, f"{n} rows"

    def test_one_row_call_gets_its_batch_bits(self, monkeypatch):
        """A call on one point gives the bits of the point's row in a call
        on many, at d = 1, 2, 3 and 5 and 20, 200 and 1000 draws: for 100
        points near the draws, and for 100 points 200 units out, whose
        sums fall below 2**-800, so that they go through the chunks again,
        shifted by their own maxima, alone and as a group.  On this
        seed a one-row product differs in some bit at every setting; at
        d = 5 and 20 draws, so do two copies of a row laid out row-major,
        unlike the column-major features of a batch."""
        rescued = []
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, coef, buf, out, shift: (
                shift and rescued.append(len(feats))
            ) or chunk(feats, coef, buf, out, shift),
        )
        rng = np.random.default_rng(167)
        for d in (1, 2, 3, 5):
            for n_draws in (20, 200, 1000):
                draws = random_draws(rng, d, n_draws)
                directions = rng.standard_normal((100, d))
                directions /= np.linalg.norm(directions, axis=1, keepdims=True)
                points = np.vstack([
                    draws.center + 2.0 * rng.standard_normal((100, d)),
                    draws.center + 200.0 * directions,
                ])
                rescued.clear()
                batch = draws.log_density(points)
                assert sum(rescued) == 100
                alone = np.concatenate([draws.log_density(point) for point in points])
                np.testing.assert_array_equal(alone, batch, err_msg=f"d = {d}, {n_draws} draws")

    def near_point_chunk_calls(self, monkeypatch):
        """The (rows, shift) of each chunk call on 200 points within a few
        standard deviations of 1000 draws, with a budget of 64 rows."""
        rng = np.random.default_rng(113)
        draws = random_draws(rng, 3, 1000)
        points = draws.center + rng.standard_normal((200, 3)) * 3.0
        calls = []
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, coef, buf, out, shift: (
                calls.append((len(feats), shift)) or chunk(feats, coef, buf, out, shift)
            ),
        )
        monkeypatch.setattr(gaussian, "_BUDGET", 64 * draws.n_draws)
        draws.log_density(points)
        return calls

    def test_near_points_take_one_pass_per_chunk(self, monkeypatch):
        """Points within a few standard deviations of the draws make one
        chunk call per chunk, none of them shifted by its row maximum: the
        bound keeps every row's sum far above 2**-800."""
        monkeypatch.setattr(gaussian, "_cores", lambda: 1)
        assert self.near_point_chunk_calls(monkeypatch) == [(64, False)] * 3 + [(8, False)]

    def test_near_points_take_one_pass_per_chunk_in_two_workers(self, monkeypatch):
        """With the budget in two shares of 32 rows, two workers take the
        chunks, and still no chunk is shifted.  The workers' calls
        interleave, so they are compared in order of size."""
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        monkeypatch.setattr(gaussian, "_SHARE", 32 * 1000)
        calls = self.near_point_chunk_calls(monkeypatch)
        assert sorted(calls, reverse=True) == [(32, False)] * 6 + [(8, False)]

    @pytest.mark.parametrize("n_draws", [100, 101])
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, n_draws):
        """Every call of 2 to 40 rows on three categories gives the same
        bits at 1, 2 and 3 workers as one chunk per category in a loop, also
        with every seventh row, from row 5, 200 units out, where the row
        goes through its category's chunks again, shifted by its own
        maximum, in the worker evaluating that category.  The budget is 600
        elements in shares of 200, so the chunks hold 2 rows: at 100 draws
        they fill a share, for up to 3 workers, and at 101 draws, where a
        share holds one row, they take more than a share, which leaves room
        for 2.  A worker starts only for two chunks of a category's rows."""
        rng = np.random.default_rng(139)
        data = small_training_data(rng, d=3)
        model = fit(data, n_draws=n_draws, seed=8)
        stacked, _ = data.stacked()
        points = stacked.mean(axis=0) + rng.standard_normal((40, 3)) * 2.0
        mixed = points.copy()
        far = np.arange(4, 40, 7)
        directions = rng.standard_normal((far.size, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        mixed[far] += 200.0 * directions
        seen = []
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, coef, buf, out, shift: (
                seen.append((threading.current_thread(), shift))
            ) or chunk(feats, coef, buf, out, shift),
        )
        step = 2
        most = 600 // max(200, step * n_draws)
        for rows in (points, mixed):
            for n in range(2, 41):
                monkeypatch.setattr(gaussian, "_cores", lambda: 1)
                monkeypatch.setattr(gaussian, "_BUDGET", n * n_draws)
                monkeypatch.setattr(gaussian, "_SHARE", n * n_draws)
                whole = np.column_stack([draws.log_density(rows[:n]) for draws in model.draws])
                assert np.all(np.isfinite(whole))
                monkeypatch.setattr(gaussian, "_BUDGET", 600)
                monkeypatch.setattr(gaussian, "_SHARE", 200)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(gaussian, "_cores", lambda workers=workers: workers)
                    seen.clear()
                    got = gaussian._log_densities(model, rows[:n])
                    np.testing.assert_array_equal(got, whole, err_msg=f"{n} rows, {workers} workers")
                    # ``seen`` holds the threads, so their ids stay distinct.
                    threads = {id(thread) for thread, shift in seen if not shift}
                    assert len(threads) == max(1, min(workers, most, -(-n // step) // 2))
                    assert any(shift for _, shift in seen) == (rows is mixed and n > 4)

    def test_log_density_starts_no_thread(self, monkeypatch):
        """``CategoryDraws.log_density`` runs its chunks in order in the
        calling thread at any CPU count: 2000 rows at 1000 draws fill 31
        chunks, and every seventh row 200 units out takes a second pass."""
        rng = np.random.default_rng(161)
        draws = random_draws(rng, 3, 1000)
        points = draws.center + rng.standard_normal((2000, 3)) * 2.0
        points[3::7] += 200.0
        threads = set()
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda *args: threads.add(threading.current_thread()) or chunk(*args),
        )

        def must_not_run(*args):
            pytest.fail("log_density started a pool or a thread")

        monkeypatch.setattr(gaussian, "_in_workers", must_not_run)
        monkeypatch.setattr(threading.Thread, "start", must_not_run)
        want = draws.log_density(points)
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(gaussian, "_cores", lambda cores=cores: cores)
            np.testing.assert_array_equal(draws.log_density(points), want)
        assert threads == {threading.current_thread()}

    def test_cores_without_an_affinity_mask(self, monkeypatch):
        """Where the platform has no ``os.sched_getaffinity``, the kernel
        takes a worker per CPU, with the same bits."""
        rng = np.random.default_rng(149)
        model = fit(small_training_data(rng), n_draws=50, seed=3)
        points, prior = rng.standard_normal((300, 2)), [0.2, 0.3, 0.5]
        before = posterior_matrix(model, prior, points)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert gaussian._cores() == os.cpu_count()
        np.testing.assert_array_equal(posterior_matrix(model, prior, points), before)

    def test_kernel_memory_is_bounded_by_the_budget(self):
        """Beyond the features (rows x k) and the output, a call on 20000
        points at 1000 draws allocates one scratch buffer of about
        ``_BUDGET`` float64 elements, not rows x draws."""
        rng = np.random.default_rng(127)
        draws = random_draws(rng, 3, 1000)
        points = rng.standard_normal((20000, 3)) * 2.0
        # Per row: k = 10 float64 features, the float64 output and a
        # finiteness flag.  The quarter of slack holds numpy's
        # 8192-element ufunc buffer and the per-row vectors of a chunk.
        bound = 1.25 * 8 * gaussian._BUDGET + points.shape[0] * (8 * 10 + 8 + 1)
        tracemalloc.start()
        try:
            draws.log_density(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("far, chol_scale", [
        ([1e200, 1.0, 1.0], 1.0),  # a square overflows
        ([1e200, -1e200, 1e200], 1.0),  # the product meets inf - inf
        ([1e152, 0.0, 0.0], 1e-5),  # the squares are finite, the product overflows
    ])
    def test_row_where_every_draw_underflows_is_minus_inf(self, far, chol_scale):
        """A finite point so far out that the arithmetic overflows gets
        -inf, with no NaN, no RuntimeWarning and no effect on the other
        rows."""
        base = random_draws(np.random.default_rng(109), 3, 30)
        draws = CategoryDraws(base.means, base.chols * chol_scale)
        points = np.array([[0.5, 0.0, -0.5], far, [1.0, 2.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = draws.log_density(points)
        assert got[1] == -np.inf
        assert np.all(np.isfinite(got[[0, 2]]))
        np.testing.assert_array_equal(got[[0, 2]], draws.log_density(points[[0, 2]]))

    def test_overflow_in_a_worker_share_is_minus_inf(self, monkeypatch):
        """Rows whose arithmetic overflows get -inf, with no RuntimeWarning,
        also in a worker thread, which does not inherit the caller's
        floating-point state: two workers take a category each of 40 rows
        in chunks of 2, and eight rows overflow, first in the chunks and
        again in the shifted second pass, in both workers."""
        model = fit(small_training_data(np.random.default_rng(109), n_cats=2, d=3),
                    n_draws=30, seed=5)
        points = np.random.default_rng(151).standard_normal((40, 3))
        far = np.array([2, 3, 9, 17, 22, 30, 31, 38])
        points[far] = [1e200, -1e200, 1e200]
        monkeypatch.setattr(gaussian, "_BUDGET", 4 * 30)
        monkeypatch.setattr(gaussian, "_SHARE", 2 * 30)
        monkeypatch.setattr(gaussian, "_cores", lambda: 1)
        alone = gaussian._log_densities(model, np.delete(points, far, axis=0))
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        workers = {False: set(), True: set()}
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda feats, coef, buf, out, shift: (
                workers[shift].add(threading.current_thread())
            ) or chunk(feats, coef, buf, out, shift),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian._log_densities(model, points)
        assert [len(workers[shift]) for shift in (False, True)] == [2, 2]
        assert np.all(got[far] == -np.inf)
        np.testing.assert_array_equal(np.delete(got, far, axis=0), alone)

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        """An exception raised in a worker thread, by category 2, is raised
        again by the call, after every worker has finished."""
        rng = np.random.default_rng(163)
        model = fit(small_training_data(rng, n_cats=2, d=3), n_draws=1000, seed=5)
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        chunk = gaussian._log_sum_exp_chunk

        def fail_in_a_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            chunk(*args)

        monkeypatch.setattr(gaussian, "_log_sum_exp_chunk", fail_in_a_worker)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="worker"):
            posterior_matrix(model, [0.5, 0.5], rng.standard_normal((400, 3)))
        assert threading.active_count() == before

    def test_workers_run_under_the_callers_floating_point_state(self):
        """Every worker of ``_in_workers``, the threads too, runs its tasks
        under its caller's floating-point error state, which a new thread
        does not inherit."""
        seen = {}

        def run(k, task):
            seen[task] = np.geterr()["over"]

        for mode in ("ignore", "raise"):
            with np.errstate(over=mode):
                gaussian._in_workers(range(6), 3, run)
            assert seen == dict.fromkeys(range(6), mode)

    def test_workers_lose_no_task_and_raise_the_lowest_error(self):
        """With more workers than CPUs and the interpreter switching
        threads every microsecond, every task of ``_in_workers`` runs once
        and the lowest failed task's error is raised, though the tasks go
        highest first."""
        runs = [0] * 200

        def run(k, task):
            runs[task] += 1
            if task % 7 == 3:
                raise ValueError(task)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = threading.active_count()
            with pytest.raises(ValueError) as info:
                gaussian._in_workers(range(199, -1, -1), 8, run)
        finally:
            sys.setswitchinterval(interval)
        assert info.value.args == (3,)
        assert runs == [1] * 200
        assert threading.active_count() == before

    def test_forked_child_after_a_threaded_call_returns_the_densities(self, monkeypatch):
        """A child forked after a call that ran two categories in two
        workers makes the same call, in two workers again, and returns the
        parent's densities within a timeout instead of waiting on threads
        the fork did not copy."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        rng = np.random.default_rng(157)
        model = fit(small_training_data(rng, n_cats=2, d=3), n_draws=1000, seed=5)
        points = rng.standard_normal((400, 3)) * 2.0
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        workers = set()
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda *args: workers.add(threading.current_thread()) or chunk(*args),
        )
        parent = gaussian._log_densities(model, points)
        assert len(workers) == 2
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def child():
            workers.clear()
            results.put((gaussian._log_densities(model, points), len(workers)))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            got, child_workers = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child did not return its densities within 60 s")
        finally:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        assert not proc.is_alive()
        assert child_workers == 2
        np.testing.assert_array_equal(got, parent)

    def test_monte_carlo_matches_closed_form(self):
        """With many draws the averaged density approaches the exact
        posterior predictive (a multivariate t)."""
        rng = np.random.default_rng(59)
        data = small_training_data(rng, n_cats=2, d=2, lo=15, hi=30)
        model = fit(data, n_draws=40000, seed=2)
        prior_hyper = default_hyperprior(data)
        for i in (1, 2):
            posterior = conjugate_update(data.groups[i - 1], prior_hyper)
            exact = closed_form_predictive(posterior)
            center = posterior.mean_array()
            for probe in (center, center + 0.8, center - 0.5):
                got = predictive_density(model, i, probe)
                want = float(exact.pdf(probe))
                assert got == pytest.approx(want, rel=0.05)


class TestCategoryPool:
    """``_log_densities`` spreads a model's categories over one pool of
    workers, each drawing its categories on first use."""

    @staticmethod
    def near_and_far_points(rng, data, rows=300):
        """``rows`` points about the data, every seventh 200 units out,
        where its sum falls below 2**-800 and the row goes through its
        category's chunks again, shifted by its own maximum."""
        stacked, _ = data.stacked()
        points = stacked.mean(axis=0) + 3.0 * rng.standard_normal((rows, data.dim))
        far = np.arange(3, rows, 7)
        directions = rng.standard_normal((far.size, data.dim))
        points[far] += 200.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        return points

    @pytest.mark.parametrize("n_cats", [1, 2, 3, 8])
    def test_bits_do_not_depend_on_the_workers_or_when_draws_are_made(
        self, monkeypatch, n_cats,
    ):
        """``posterior_matrix`` gives the bits of a serial loop over the
        categories at 1, 2 and 3 workers, whether the draws were made
        before the call or in its workers, and the draws made in the
        workers have a fresh model's bits.  Chunks of 10 rows of 40
        draws, in a budget of three shares, leave room for 3 workers, so
        each model has whole rounds of categories taken a category per
        worker, or a last round that leaves a worker idle, or both."""
        rng = np.random.default_rng(170 + n_cats)
        data = small_training_data(rng, n_cats=n_cats)
        points = self.near_and_far_points(rng, data)
        prior = np.full(n_cats, 1.0 / n_cats)
        monkeypatch.setattr(gaussian, "_SHARE", 10 * 40)
        monkeypatch.setattr(gaussian, "_BUDGET", 3 * 10 * 40)
        monkeypatch.setattr(gaussian, "_cores", lambda: 1)
        fresh = fit(data, n_draws=40, seed=11)
        want = gaussian.posterior_from_log_densities(
            np.column_stack([draws.log_density(points) for draws in fresh.draws]), prior
        )
        for workers in (1, 2, 3):
            monkeypatch.setattr(gaussian, "_cores", lambda workers=workers: workers)
            for drawn_first in (False, True):
                model = fit(data, n_draws=40, seed=11)
                if drawn_first:
                    model.draws
                got = posterior_matrix(model, prior, points)
                np.testing.assert_array_equal(
                    got, want, err_msg=f"{workers} workers, drawn first: {drawn_first}"
                )
                for ours, theirs in zip(model.draws, fresh.draws, strict=True):
                    for name in ("means", "chols", "coef"):
                        assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()

    @pytest.mark.parametrize("n_cats, pools_started", [(1, 0), (2, 1), (3, 1), (8, 1)])
    def test_a_call_starts_a_pool_per_category_left_over(self, monkeypatch, n_cats, pools_started):
        """A call on points near the draws starts one pool for all its
        categories and none per category left over after whole rounds: a
        pool of two workers for 2, 3 and 8 categories, and no thread for
        one.  Every worker evaluates densities, and no thread outlives the
        call."""
        rng = np.random.default_rng(180 + n_cats)
        data = small_training_data(rng, n_cats=n_cats)
        stacked, _ = data.stacked()
        points = stacked.mean(axis=0) + rng.standard_normal((2000, 2))
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        pools = []
        in_workers = gaussian._in_workers
        monkeypatch.setattr(
            gaussian, "_in_workers",
            lambda tasks, workers, run: (pools.append(min(workers, len(tasks)))
                                         or in_workers(tasks, workers, run)),
        )
        threads = set()
        chunk = gaussian._log_sum_exp_chunk
        monkeypatch.setattr(
            gaussian, "_log_sum_exp_chunk",
            lambda *args: threads.add(threading.current_thread()) or chunk(*args),
        )
        before = threading.active_count()
        posterior_matrix(fit(data, n_draws=1000, seed=4), np.full(n_cats, 1.0 / n_cats), points)
        assert len(pools) == 1
        assert [workers for workers in pools if workers > 1] == [2] * pools_started
        assert threading.main_thread() in threads
        assert len(threads) == 1 + pools_started
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_cats", [3, 8])
    def test_pool_memory_is_bounded_by_the_budget(self, monkeypatch, n_cats):
        """Beyond each busy worker's features (rows x k) and output, and the
        (rows, categories) result, a call on 20000 points and 1000 draws in
        two workers allocates about ``_BUDGET`` float64 elements of scratch
        in all, not a buffer per category, with or without a category left
        over."""
        rng = np.random.default_rng(193)
        model = fit(small_training_data(rng, n_cats=n_cats, d=3), n_draws=1000, seed=2)
        model.draws
        points = rng.standard_normal((20000, 3))
        monkeypatch.setattr(gaussian, "_cores", lambda: 2)
        # Per row and worker: k = 10 float64 features, the float64 output
        # and a finiteness flag; per row, the result's float64 columns.
        bound = 1.25 * 8 * gaussian._BUDGET + points.shape[0] * (2 * (8 * 10 + 8 + 1) + 8 * n_cats)
        tracemalloc.start()
        try:
            gaussian._log_densities(model, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_worker_draws_every_category_first(self, monkeypatch):
        """With one worker there is nothing for drawing to overlap, and draws
        made in a row run faster than draws between kernel passes, so every
        category is drawn before any density is evaluated."""
        rng = np.random.default_rng(197)
        model = fit(small_training_data(rng, n_cats=4), n_draws=40, seed=3)
        monkeypatch.setattr(gaussian, "_cores", lambda: 1)
        events = []
        draw, log_density = gaussian.draw_category_sample, CategoryDraws.log_density
        monkeypatch.setattr(gaussian, "draw_category_sample",
                            lambda *args: events.append("draw") or draw(*args))
        monkeypatch.setattr(CategoryDraws, "log_density",
                            lambda self, *args: events.append("density") or log_density(self, *args))
        posterior_matrix(model, np.full(4, 0.25), rng.standard_normal((50, 2)))
        assert events == ["draw"] * 4 + ["density"] * 4

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("draw_fails, density_fails, raised", [
        ({5, 3}, {4, 2}, "densities of 2"),
        ({2, 7}, {3}, "draws of 2"),
        (set(), {8, 6}, "densities of 6"),
        ({8}, set(), "draws of 8"),
    ])
    def test_an_error_is_the_lowest_failing_categorys(
        self, monkeypatch, workers, draw_fails, density_fails, raised,
    ):
        """A failure in some categories' draws or densities raises the
        lowest failing category's error, as a loop that draws and
        evaluates each category in turn raises first, after every worker
        has finished.  Chunks of 10 rows give 200 rows room for 2 workers."""
        rng = np.random.default_rng(191)
        data = small_training_data(rng, n_cats=8)
        model = fit(data, n_draws=40, seed=6)
        monkeypatch.setattr(gaussian, "_cores", lambda: workers)
        monkeypatch.setattr(gaussian, "_SHARE", 10 * 40)
        draw, failing = gaussian.draw_category_sample, []

        def draw_or_fail(posterior, n_draws, stream):
            category = model.posteriors.index(posterior) + 1
            if category in draw_fails:
                raise ValueError(f"draws of {category}")
            draws = draw(posterior, n_draws, stream)
            if category in density_fails:
                failing.append((draws, category))
            return draws

        log_density = CategoryDraws.log_density

        def density_or_fail(self, *args):
            for draws, category in failing:
                if draws is self:
                    raise ValueError(f"densities of {category}")
            return log_density(self, *args)

        monkeypatch.setattr(gaussian, "draw_category_sample", draw_or_fail)
        monkeypatch.setattr(CategoryDraws, "log_density", density_or_fail)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^{raised}$"):
            posterior_matrix(model, np.full(8, 0.125), rng.standard_normal((200, 2)))
        assert threading.active_count() == before


class TestPosteriors:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(61)
        data = small_training_data(rng)
        model = fit(data, n_draws=60, seed=1)
        points = rng.standard_normal((20, 2))
        post = posterior_matrix(model, np.full(3, 1 / 3), points)
        np.testing.assert_allclose(post.sum(axis=1), np.ones(20), atol=1e-12)
        single = posterior_over_categories(model, np.full(3, 1 / 3), points[0])
        np.testing.assert_allclose(single.p, post[0], atol=1e-12)
        assert single.space.n_categories == 3

    @pytest.mark.parametrize("bad, row", [(np.nan, 1), (np.inf, 4), (-np.inf, 20)])
    def test_non_finite_point_is_refused_by_its_row(self, bad, row):
        """A point with a NaN or infinite coordinate is refused before any
        density, naming the first such row, also through the one-point
        route."""
        rng = np.random.default_rng(61)
        model = fit(small_training_data(rng), n_draws=60, seed=1)
        prior = np.full(3, 1 / 3)
        points = rng.standard_normal((20, 2))
        points[row - 1, 1] = bad
        points[-1, 0] = np.nan
        with pytest.raises(OutOfRange, match=f"^observation at row {row} is not finite$"):
            posterior_matrix(model, prior, points)
        with pytest.raises(OutOfRange, match="^observation at row 1 is not finite$"):
            posterior_over_categories(model, prior, points[row - 1])

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 1, 2)])
    def test_points_with_more_than_two_axes_are_refused(self, monkeypatch, shape):
        """Points with more than two axes are refused by their shape, before
        the finiteness check and before any density."""
        model = fit(small_training_data(np.random.default_rng(61)), n_draws=20, seed=1)
        points = np.zeros(shape)
        points.flat[0] = np.nan
        monkeypatch.setattr(gaussian, "_log_densities", lambda *args: pytest.fail("density ran"))
        with pytest.raises(DimensionMismatch, match=rf"^points have shape {re.escape(str(shape))}"):
            posterior_matrix(model, np.full(3, 1 / 3), points)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 1, 2)])
    def test_one_category_routes_refuse_points_with_more_than_two_axes(self, shape):
        """``predictive_density`` and ``CategoryDraws.log_density`` refuse
        points with more than two axes with the ``DimensionMismatch`` of
        ``posterior_matrix``, naming their shape."""
        model = fit(small_training_data(np.random.default_rng(61)), n_draws=20, seed=1)
        match = rf"^points have shape {re.escape(str(shape))}, expected \(rows, 2\)$"
        with pytest.raises(DimensionMismatch, match=match):
            predictive_density(model, 1, np.zeros(shape))
        with pytest.raises(DimensionMismatch, match=match):
            model.draws[0].log_density(np.zeros(shape))

    @pytest.mark.parametrize("category", [0, 4])
    def test_predictive_density_refuses_a_category_out_of_range(self, category):
        model = fit(small_training_data(np.random.default_rng(61)), n_draws=20, seed=1)
        with pytest.raises(OutOfRange, match=f"category {category} outside 1..3"):
            predictive_density(model, category, np.zeros(2))

    def test_one_point_gets_its_batch_row(self):
        """``posterior_matrix`` of one point gives the bits of the point's
        row in a call on 200 points."""
        rng = np.random.default_rng(173)
        model = fit(small_training_data(rng, n_cats=4), n_draws=300, seed=3)
        prior = np.full(4, 0.25)
        points = 3.0 * rng.standard_normal((200, 2))
        batch = posterior_matrix(model, prior, points)
        alone = np.vstack([posterior_matrix(model, prior, point) for point in points])
        np.testing.assert_array_equal(alone, batch)

    def test_logsumexp_matches_scipy_bit_for_bit(self):
        """Rows with -inf entries, exact ties at the maximum, dyadic rows
        full of ties and rows of -inf only."""
        rng = np.random.default_rng(73)
        a = rng.normal(scale=30.0, size=(5000, 6))
        a[rng.random(a.shape) < 0.2] = -np.inf
        a[::5, 2] = a[::5].max(axis=1)
        a[::7, :3] = a[::7, 3:]
        a[::13] = rng.integers(-4, 5, size=a[::13].shape) / 4.0
        a[::17] = -np.inf
        np.testing.assert_array_equal(gaussian._logsumexp(a), logsumexp(a, axis=1))

    def test_row_without_mass_fails_by_its_number(self):
        logf = np.array([[0.0, 1.0], [-np.inf, -3.0], [-np.inf, 2.0]])
        with pytest.raises(AllZeroMass, match="row 2"):
            gaussian.posterior_from_log_densities(logf, [1.0, 0.0])

    def test_prior_validation(self):
        rng = np.random.default_rng(67)
        model = fit(small_training_data(rng), n_draws=30, seed=1)
        with pytest.raises(DimensionMismatch):
            posterior_over_categories(model, [0.5, 0.5], np.zeros(2))
        with pytest.raises(InvalidDistribution):
            posterior_over_categories(model, [0.9, 0.4, -0.3], np.zeros(2))
        with pytest.raises(InvalidDistribution):
            posterior_over_categories(model, [0.5, 0.4, 0.4], np.zeros(2))


def with_scores(monkeypatch, scores):
    """Make ``_own_category_scores`` return ``scores``, whatever it is asked."""
    monkeypatch.setattr(gaussian, "_own_category_scores", lambda *args: np.asarray(scores))


class TestCalibration:
    def test_quantile_convention(self, monkeypatch):
        """The cost is the floor(delta M)-th smallest of the M scores, or 0
        when delta < 1/M, so a tiny delta excludes nothing."""
        scores = np.random.default_rng(71).permutation(np.arange(1, 101) / 100.0)
        with_scores(monkeypatch, scores)

        def cost(delta):
            return calibrate_conformal_cost(None, None, delta, 100, seed=0)

        assert cost(0.25) == 0.25  # floor(25) = 25
        assert cost(0.259) == 0.25  # floor(25.9) = 25
        assert cost(0.10) == 0.10
        assert cost(0.0099) == 0.0  # below 1/M
        assert cost(0.01) == 0.01
        for delta in (0.0, 1.0):
            with pytest.raises(OutOfRange):
                cost(delta)

    def test_quantile_bounds_miss_fraction(self, monkeypatch):
        rng = np.random.default_rng(71)
        for _ in range(50):
            m = int(rng.integers(100, 400))
            scores = rng.random(m)
            with_scores(monkeypatch, scores)
            delta = float(rng.uniform(0.01, 0.5))
            c = calibrate_conformal_cost(None, None, delta, m, seed=0)
            assert np.mean(scores < c) <= delta + 1e-12

    def test_calibration_is_deterministic(self):
        rng = np.random.default_rng(73)
        data = small_training_data(rng, n_cats=2)
        model = fit(data, n_draws=50, seed=3)
        prior = np.array([0.5, 0.5])
        c1 = calibrate_conformal_cost(model, prior, 0.1, 500, seed=17)
        c2 = calibrate_conformal_cost(model, prior, 0.1, 500, seed=17)
        assert c1 == c2

    def test_coverage_stream_differs_from_calibration(self):
        """Same seed, different purpose: the audit sample must not reuse
        the calibration draws, or coverage would be optimistically exact."""
        rng = np.random.default_rng(79)
        data = small_training_data(rng, n_cats=2)
        model = fit(data, n_draws=50, seed=3)
        prior = np.array([0.5, 0.5])
        rng_cal = np.random.default_rng([17, 0])
        rng_cov = np.random.default_rng([17, 1])
        pts_cal, _ = sample_mixture(model, prior, 200, rng_cal)
        pts_cov, _ = sample_mixture(model, prior, 200, rng_cov)
        assert not np.allclose(pts_cal, pts_cov)

    def test_coverage_tracks_delta(self):
        rng = np.random.default_rng(83)
        data = small_training_data(rng, n_cats=2, lo=25, hi=40)
        model = fit(data, n_draws=120, seed=4)
        prior = np.array([0.5, 0.5])
        cost = calibrate_conformal_cost(model, prior, 0.2, 4000, seed=21)
        coverage = conformal_coverage(model, prior, cost, 4000, seed=21)
        assert coverage == pytest.approx(0.8, abs=0.03)

    def test_scores_go_in_blocks_within_the_budget(self, monkeypatch):
        """With a budget of 2**10 elements and 4 categories, 5121 samples
        are scored in blocks of 256 rows and a one-row tail, which the
        kernel pairs with a copy of itself.  The scores equal one block's
        bit for bit, the generator stream is unchanged, a row without mass
        is named by its number in the whole sample, and beyond drawing the
        samples and holding their scores the peak memory stays within 16
        budgets of float64."""
        rng = np.random.default_rng(131)
        model = fit(small_training_data(rng, n_cats=4), n_draws=50, seed=2)
        prior = np.full(4, 0.25)
        n = 5121
        one_block = np.random.default_rng(7)
        whole = gaussian._own_category_scores(model, prior, n, one_block)
        monkeypatch.setattr(gaussian, "_BUDGET", 1 << 10)
        rows = []
        score = gaussian.posterior_matrix
        monkeypatch.setattr(
            gaussian, "posterior_matrix",
            lambda model, prior, points: rows.append(len(points)) or score(model, prior, points),
        )
        blocks = np.random.default_rng(7)
        np.testing.assert_array_equal(
            gaussian._own_category_scores(model, prior, n, blocks), whole
        )
        assert rows == [256] * 20 + [1]
        assert blocks.random() == one_block.random()

        tracemalloc.start()
        try:
            gaussian.sample_mixture(model, prior, n, np.random.default_rng(7))
            _, sampling = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gaussian._own_category_scores(model, prior, n, np.random.default_rng(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sampling + 8 * n + 16 * 8 * gaussian._BUDGET

        points, _ = sample_mixture(model, prior, n, np.random.default_rng(7))
        log_densities = gaussian._log_densities

        def without_mass_at_row_300(model, z):
            out = log_densities(model, z)
            out[(z == points[299]).all(axis=1)] = -np.inf
            return out

        monkeypatch.setattr(gaussian, "_log_densities", without_mass_at_row_300)
        with pytest.raises(AllZeroMass, match="at row 300$"):
            gaussian._own_category_scores(model, prior, n, np.random.default_rng(7))

    def test_mixture_factors_go_in_blocks_within_the_budget(self, monkeypatch):
        """With a budget of 2**10 elements at d = 3, each category's picked
        factors are applied in blocks of 113 rows.  The points equal one
        block's bit for bit, the generator ends in the same state, and the
        peak memory is lower by at least one category's gathered
        (rows, d, d) factors."""
        rng = np.random.default_rng(137)
        model = fit(small_training_data(rng, n_cats=4, d=3), n_draws=50, seed=2)
        prior = np.full(4, 0.25)

        def sample():
            gen = np.random.default_rng(7)
            tracemalloc.start()
            try:
                points, cats = sample_mixture(model, prior, 5121, gen)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return points, cats, gen.random(), peak

        points, cats, after, one_block_peak = sample()
        monkeypatch.setattr(gaussian, "_BUDGET", 1 << 10)
        blocked, blocked_cats, blocked_after, peak = sample()
        np.testing.assert_array_equal(blocked, points)
        np.testing.assert_array_equal(blocked_cats, cats)
        assert blocked_after == after
        smallest = np.bincount(cats, minlength=5)[1:].min()
        assert peak + 8 * 3 * 3 * smallest < one_block_peak

    def test_minimum_sample_size(self, monkeypatch):
        """Fewer than 100 calibration samples are refused before sampling."""
        rng = np.random.default_rng(89)
        model = fit(small_training_data(rng, n_cats=2), n_draws=30, seed=1)
        assert 0.0 < calibrate_conformal_cost(model, [0.5, 0.5], 0.1, 100, seed=0) < 1.0
        monkeypatch.setattr(gaussian, "sample_mixture",
                            lambda *args: pytest.fail("sampled before the count was checked"))
        for n in (99, 50, 0):
            with pytest.raises(OutOfRange, match=f"at least 100 calibration samples, got {n}$"):
                calibrate_conformal_cost(model, [0.5, 0.5], 0.1, n, seed=0)
        with pytest.raises(OutOfRange, match="at least one audit sample, got 0$"):
            conformal_coverage(model, [0.5, 0.5], 0.5, 0, seed=0)

    def test_maximum_sample_size(self, monkeypatch):
        """More than ``MAX_SAMPLES`` calibration or audit samples are
        refused before sampling, as no host could hold 10**15 of them."""
        rng = np.random.default_rng(89)
        model = fit(small_training_data(rng, n_cats=2), n_draws=30, seed=1)
        monkeypatch.setattr(gaussian, "sample_mixture",
                            lambda *args: pytest.fail("sampled before the count was checked"))
        with pytest.raises(OutOfRange, match=f"at most {gaussian.MAX_SAMPLES} calibration "
                                             f"samples, got {10**15}$"):
            calibrate_conformal_cost(model, [0.5, 0.5], 0.1, 10**15, seed=0)
        with pytest.raises(OutOfRange, match=f"at most {gaussian.MAX_SAMPLES} audit "
                                             f"samples, got {10**15}$"):
            conformal_coverage(model, [0.5, 0.5], 0.5, 10**15, seed=0)


class TestModelSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(97)
        data = small_training_data(rng)
        model = fit(data, n_draws=40, seed=6, space=CategorySpace(3, (2, 1)))
        clone = model_from_json(model_to_json(model))
        assert clone.space.block_sizes == (2, 1)
        for a, b in zip(model.draws, clone.draws):
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.chols, b.chols)

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            model_from_json({"format": "something-else"})
        with pytest.raises(ValueError):
            model_from_json({"format": "setbayes-model"})
