import multiprocessing
import queue
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from setbayes import (
    BinaryReward,
    CategorySpace,
    CategoryTooSmall,
    CompositeProportion,
    CVConfig,
    DimensionMismatch,
    InvalidDistribution,
    MissingRealPrior,
    NoFeasibleB,
    NormalInverseWishart,
    OutOfRange,
    PosteriorVector,
    SingularScatter,
    TrainingData,
    brute_force_optimal,
    conjugate_update,
    default_hyperprior,
    evaluate_curves,
    loocv_posteriors,
    make_weights,
    select_b_minimize,
    select_b_threshold,
)
from setbayes import gaussian, tuning
from setbayes.gaussian import category_rng, draw_category_sample
from setbayes.tuning import MAX_GRID_POINTS

from conftest import binary_reward, spawned_streams

VARIANTS = (
    BinaryReward.EXACT_SINGLETON,
    BinaryReward.WITHIN_BLOCK,
    BinaryReward.CONTAINS_TRUTH,
    BinaryReward.HITS_TRUE_BLOCK,
)


def blocked_data(rng, counts=(18, 10, 8), spread=3.5, d=2):
    """Three categories in blocks (2, 1), cleanly but not perfectly separated."""
    centers = np.array([[0.0] * d, [spread * 0.6] + [0.0] * (d - 1), [spread] * d])
    groups = [
        centers[i] + rng.standard_normal((counts[i], d)) for i in range(3)
    ]
    return TrainingData(groups), CategorySpace(3, (2, 1))


def drop_row(data, category, row):
    """Category ``category``'s observations (1-based) without row ``row``:
    one leave-one-out fold's training rows, the per-fold reference."""
    return np.delete(data.groups[category - 1], row, axis=0)


def uniform_prior(n):
    return np.full(n, 1.0 / n)


def oracle_sets(held, within_cost, cross_cost):
    """The exhaustive oracle's set for every held-out posterior."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # within above cross is allowed here
        spec = CompositeProportion(within_cost, cross_cost)
    return [
        brute_force_optimal(spec, PosteriorVector(row, held.space)).chosen
        for row in held.matrix
    ]


def reference_rate(held, within_cost, cross_cost, weights, variant):
    """Weighted leave-one-out rate of one binary score at one cost pair.

    The reference path: each held-out posterior is classified by the
    exhaustive oracle and scored with ``binary_reward`` directly.
    """
    scoring = [
        binary_reward(variant, chosen, int(held.categories[r]), held.space) == 1
        for r, chosen in enumerate(oracle_sets(held, within_cost, cross_cost))
    ]
    return exact_rate(held.fold_weights(weights), np.array(scoring))


def exact_rate(fold_w, scoring):
    """The weighted rate of the folds marked in ``scoring``: the exact sum
    of their weights, rounded once and clamped to [0, 1].  The reference
    for every rate of the sweep."""
    total = sum(Fraction(w) for w in np.asarray(fold_w)[scoring].tolist())
    return min(1.0, max(0.0, float(total)))


def interval_rate(fold_w, interval, cost):
    """``exact_rate`` of the folds whose interval (L, R] holds ``cost``."""
    lower, upper = interval
    return exact_rate(fold_w, (lower < cost) & (cost <= upper))


class TestWeights:
    def test_per_observation(self):
        w = make_weights("per_observation", (3, 1))
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_per_category(self):
        w = make_weights("per_category", (3, 1))
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_rarity_inverts_frequencies(self):
        w = make_weights("rarity", (3, 1), (0.9, 0.1))
        np.testing.assert_allclose(w, [0.1, 0.9])

    def test_rarity_requires_frequencies(self):
        with pytest.raises(MissingRealPrior):
            make_weights("rarity", (3, 1))

    def test_unknown_scheme(self):
        with pytest.raises(OutOfRange):
            make_weights("uniform", (3, 1))

    @pytest.mark.parametrize("kind", ["per_observation", "per_category", "rarity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_counts_must_be_finite_and_nonnegative(self, kind, bad):
        with pytest.raises(OutOfRange, match="finite and nonnegative"):
            make_weights(kind, [3, bad], [0.5, 0.5] if kind == "rarity" else None)

    def test_per_observation_counts_summing_to_zero(self):
        with pytest.raises(OutOfRange, match="counts sum to zero"):
            make_weights("per_observation", [0, 0])

    def test_all_schemes_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            counts = tuple(int(c) for c in rng.integers(1, 50, size=n))
            freq = rng.dirichlet(np.ones(n))
            for kind, real_prior in (
                ("per_observation", None),
                ("per_category", None),
                ("rarity", tuple(freq)),
            ):
                assert make_weights(kind, counts, real_prior).sum() == pytest.approx(1.0)


class TestCVConfig:
    def test_grid_inclusive_of_hi(self):
        cfg = CVConfig(1.0, 0.05, 0.05, 0.2, 0.05)
        np.testing.assert_allclose(cfg.grid(), [0.05, 0.1, 0.15, 0.2])

    def test_grid_stops_below_uneven_hi(self):
        cfg = CVConfig(1.0, 0.05, 0.1, 0.25, 0.1)
        np.testing.assert_allclose(cfg.grid(), [0.1, 0.2])

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.3), (0.1, 0.7), (0.2, 0.9)])
    def test_grid_never_passes_hi(self, lo, hi):
        """lo + n * step rounds one ulp past hi on these grids; the last
        point is hi itself."""
        grid = CVConfig(1.0, 0.05, lo, hi, 0.1).grid()
        assert lo + 0.1 * (grid.size - 1) > hi  # the unclamped point overshoots
        assert grid[-1] == hi
        np.testing.assert_array_equal(grid[:-1], lo + 0.1 * np.arange(grid.size - 1))

    def test_validation(self):
        with pytest.raises(OutOfRange):
            CVConfig(1.0, 0.0, 0.1, 1.0, 0.1)
        with pytest.raises(OutOfRange):
            CVConfig(1.0, 0.05, 0.0, 1.0, 0.1)
        with pytest.raises(OutOfRange):
            CVConfig(-1.0, 0.05, 0.1, 1.0, 0.1)

    def test_grid_point_limit(self):
        top = float(MAX_GRID_POINTS)
        assert CVConfig(1.0, 0.05, 1.0, top, 1.0).grid().size == MAX_GRID_POINTS
        for lo, hi, step in ((1.0, top + 1.0, 1.0), (0.05, 1e9, 1e-9), (1e-300, 1e300, 1e-300)):
            with pytest.raises(OutOfRange, match="points, more than"):
                CVConfig(1.0, 0.05, lo, hi, step)


class TestHeldOutPosteriors:
    def test_shapes_and_normalization(self):
        rng = np.random.default_rng(11)
        data, space = blocked_data(rng)
        held = loocv_posteriors(data, space, uniform_prior(3), n_draws=40, seed=2)
        assert held.n_folds == data.total
        assert held.categories.tolist() == [1] * 18 + [2] * 10 + [3] * 8
        np.testing.assert_allclose(held.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_match_an_independent_recomputation(self, monkeypatch):
        """Rebuild every fold with scipy: refit the held-out row's category on
        the retained rows, draw it from slice j of one call per spawned
        stream of the category, average the per-draw Gaussian densities,
        take the full-fit draws for the other categories and apply Bayes'
        rule.  Checked at the default fold budget, and at budgets of 1 and
        of 3 folds per batch, which split the categories."""
        data, space = blocked_data(np.random.default_rng(47), counts=(7, 5, 4))
        prior = np.array([0.5, 0.3, 0.2])
        seed, n_draws, d = 9, 25, data.dim
        hyper = default_hyperprior(data)
        full = [
            draw_category_sample(conjugate_update(g, hyper), n_draws, category_rng(seed, i))
            for i, g in enumerate(data.groups, start=1)
        ]

        def log_density(draws, x):
            covs = draws.chols @ np.swapaxes(draws.chols, 1, 2)
            per_draw = [multivariate_normal.logpdf(x, m, c) for m, c in zip(draws.means, covs)]
            return logsumexp(per_draw) - np.log(n_draws)

        rows, cols = np.tril_indices(d, -1)
        k = np.arange(d)
        want = []
        for i, group in enumerate(data.groups, start=1):
            n = group.shape[0]
            normal, chi, noise = spawned_streams(seed, i)
            dof = hyper.dof + n - 1
            normals = normal.normal(size=(n, n_draws, rows.size))
            chis = chi.chisquare(dof - d + 1 + k, size=(n, n_draws, d))
            noises = noise.standard_normal((n, n_draws, d))
            for j in range(n):
                refit = conjugate_update(drop_row(data, i, j), hyper)
                assert refit.dof == dof
                bartlett = np.zeros((n_draws, d, d))
                bartlett[:, rows, cols] = normals[j]
                bartlett[:, k, k] = np.sqrt(chis[j])
                chols = np.linalg.cholesky(refit.scatter_array()) @ np.linalg.inv(bartlett)
                means = refit.mean_array() + (chols @ noises[j][:, :, None])[:, :, 0] / np.sqrt(refit.kappa)
                own = gaussian.CategoryDraws(means, chols)
                logf = np.array([
                    log_density(own if c == i else full[c - 1], group[j])
                    for c in range(1, space.n_categories + 1)
                ])
                logpost = logf + np.log(prior)
                want.append(np.exp(logpost - logsumexp(logpost)))
        for folds_per_batch in (None, 1, 3):
            if folds_per_batch is not None:
                budget = folds_per_batch * n_draws * data.dim ** 2
                monkeypatch.setattr(gaussian, "_FOLD_BUDGET", budget)
            held = loocv_posteriors(data, space, prior, n_draws=n_draws, seed=seed)
            np.testing.assert_allclose(held.matrix, np.array(want), rtol=0, atol=1e-12)

    def test_fold_budget_does_not_move_a_bit(self, monkeypatch):
        """The held-out rows have the same bits in batches of 1 and of 3
        folds as at the default budget, where each category is one batch."""
        data, space = blocked_data(np.random.default_rng(47), counts=(7, 5, 4))
        prior = np.array([0.5, 0.3, 0.2])
        seed, n_draws = 9, 25
        want = loocv_posteriors(data, space, prior, n_draws=n_draws, seed=seed).matrix
        for folds_per_batch in (1, 3):
            monkeypatch.setattr(gaussian, "_FOLD_BUDGET", folds_per_batch * n_draws * data.dim ** 2)
            held = loocv_posteriors(data, space, prior, n_draws=n_draws, seed=seed)
            np.testing.assert_array_equal(held.matrix, want)

    def test_downdate_matches_refit(self):
        """The rank-one downdate of each fold equals ``conjugate_update`` on
        the retained rows."""
        data, _ = blocked_data(np.random.default_rng(53), counts=(9, 2, 5), d=3)
        hyper = default_hyperprior(data)
        for i, group in enumerate(data.groups, start=1):
            means, kappa, dof, scatter = gaussian._drop_one_posteriors(group, hyper)
            for j in range(group.shape[0]):
                refit = conjugate_update(drop_row(data, i, j), hyper)
                assert (kappa, dof) == (refit.kappa, refit.dof)
                np.testing.assert_allclose(means[j], refit.mean_array(), rtol=1e-12)
                np.testing.assert_allclose(scatter[j], refit.scatter_array(), rtol=1e-12)

    def test_singular_fold_scatter_names_category_and_row(self):
        """Without its third row, category 1 keeps two rows 4 apart on the
        diagonal, with their mean 1 off the prior location along it: under a
        negligible prior scatter, that fold's scatter is 9 in every entry,
        whose Cholesky factorization fails exactly.  The full fit's does
        not."""
        group = np.array([[0.0, 0.0], [4.0, 4.0], [2.0, -4.0]])
        other = np.array([[5.0, 1.0], [7.0, 2.0], [6.0, 4.0], [8.0, 5.0]])
        data = TrainingData([group, other])
        hyper = NormalInverseWishart((1.0, 1.0), 2.0, 4.0, ((1e-300, 0.0), (0.0, 1e-300)))
        with pytest.raises(SingularScatter, match="category 1 without its row 3"):
            loocv_posteriors(data, CategorySpace(2), uniform_prior(2), hyper, n_draws=10)

    def test_requires_two_per_category(self):
        data = TrainingData([np.zeros((3, 1)) + [[0], [1], [2]], np.array([[5.0]])])
        with pytest.raises(CategoryTooSmall):
            loocv_posteriors(data, CategorySpace(2), uniform_prior(2))

    @pytest.mark.parametrize("prior", [[0.7, 0.7, 0.7], [1.2, -0.1, -0.1], [0.5, 0.5]])
    def test_prior_checked_like_posterior_matrix(self, monkeypatch, prior):
        data, space = blocked_data(np.random.default_rng(3), counts=(4, 3, 2))

        def must_not_run(*args, **kwargs):
            pytest.fail("a fit or a fold ran before the prior was checked")

        monkeypatch.setattr(tuning, "held_out_log_densities", must_not_run)
        monkeypatch.setattr(gaussian, "fit", must_not_run)
        monkeypatch.setattr(gaussian, "_fold_log_densities", must_not_run)
        monkeypatch.setattr(gaussian, "draw_category_sample", must_not_run)
        with pytest.raises((InvalidDistribution, DimensionMismatch)):
            loocv_posteriors(data, space, prior, n_draws=10)

    def test_space_must_cover_the_categories(self, monkeypatch):
        """A space over another number of categories is refused before any
        fit or fold, as ``fit`` refuses it."""
        data, _ = blocked_data(np.random.default_rng(3), counts=(4, 3, 2))
        monkeypatch.setattr(tuning, "held_out_log_densities", lambda *args: pytest.fail("folds ran"))
        for space in (CategorySpace(2), CategorySpace(4, (2, 2))):
            with pytest.raises(DimensionMismatch, match="space has"):
                loocv_posteriors(data, space, uniform_prior(3), n_draws=10)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        data, space = blocked_data(rng, counts=(6, 5, 4))
        a = loocv_posteriors(data, space, uniform_prior(3), n_draws=30, seed=7)
        b = loocv_posteriors(data, space, uniform_prior(3), n_draws=30, seed=7)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def fold_threads(self, monkeypatch):
        """Patch the folds of each category to record the thread that ran
        them, in a dict the caller reads, keyed by category (1-based)."""
        threads = {}
        folds = gaussian._fold_log_densities

        def recorded(observations, prior, category, n_draws, seed):
            threads[category] = threading.current_thread()
            return folds(observations, prior, category, n_draws, seed)

        monkeypatch.setattr(gaussian, "_fold_log_densities", recorded)
        return threads

    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch):
        """The categories give the same held-out matrix, bit for bit, on 1,
        2, 3 and 5 workers, one of them a category of two rows.  Each
        worker takes every workers-th category, largest first: the calling
        thread takes the largest, there are at most as many workers as
        categories, and no thread outlives the call."""
        data, space = blocked_data(np.random.default_rng(59), counts=(6, 2, 9), d=3)
        prior = np.array([0.4, 0.25, 0.35])
        threads = self.fold_threads(monkeypatch)
        want = None
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(gaussian, "_cores", lambda workers=workers: workers)
            threads.clear()
            before = threading.active_count()
            got = loocv_posteriors(data, space, prior, n_draws=30, seed=17).matrix
            assert threading.active_count() == before
            if want is None:
                want = got
            np.testing.assert_array_equal(got, want, err_msg=f"{workers} workers")
            assert threads[3] is threading.main_thread()
            # ``threads`` holds the threads, so their ids stay distinct.
            assert len({id(thread) for thread in threads.values()}) == min(workers, 3)

    def test_one_pool_runs_each_category_in_one_worker(self, monkeypatch):
        """A call starts one pool, of a worker per category on three CPUs,
        and the worker that runs a category's folds also draws its full fit
        and evaluates it at every row; no thread outlives the call."""
        data, space = blocked_data(np.random.default_rng(71), counts=(6, 4, 5))
        monkeypatch.setattr(gaussian, "_cores", lambda: 3)
        folds = self.fold_threads(monkeypatch)
        pools, in_workers = [], gaussian._in_workers
        monkeypatch.setattr(
            gaussian, "_in_workers",
            lambda tasks, workers, run: pools.append(workers) or in_workers(tasks, workers, run),
        )
        full, draw = {}, gaussian.draw_category_sample
        monkeypatch.setattr(
            gaussian, "draw_category_sample",
            lambda posterior, n_draws, rng: (
                full.setdefault(threading.current_thread(), []).append(posterior)
            ) or draw(posterior, n_draws, rng),
        )
        before = threading.active_count()
        loocv_posteriors(data, space, uniform_prior(3), n_draws=30, seed=3)
        assert threading.active_count() == before
        assert pools == [3]
        assert len({id(thread) for thread in folds.values()}) == 3
        for category, thread in folds.items():
            assert full[thread] == [gaussian.conjugate_update(
                data.groups[category - 1], default_hyperprior(data))]

    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch):
        """With the folds of categories 2 and 3 failing, the call raises
        category 2's error at every worker count, as a loop over the
        categories in order does, though category 3, the largest, starts
        first; every worker has finished when it does."""
        data, space = blocked_data(np.random.default_rng(61), counts=(5, 3, 8))
        folds = gaussian._fold_log_densities

        def failing(observations, prior, category, n_draws, seed):
            if category in (2, 3):
                raise SingularScatter(f"category {category} fails")
            return folds(observations, prior, category, n_draws, seed)

        monkeypatch.setattr(gaussian, "_fold_log_densities", failing)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(gaussian, "_cores", lambda workers=workers: workers)
            before = threading.active_count()
            with pytest.raises(SingularScatter, match="category 2 fails"):
                loocv_posteriors(data, space, uniform_prior(3), n_draws=20, seed=1)
            assert threading.active_count() == before

    def test_forked_child_after_a_threaded_call_returns_the_matrix(self, monkeypatch):
        """A child forked after a call that ran the categories on three
        workers makes the same call, on three workers again, and returns
        the parent's matrix within a timeout instead of waiting on threads
        the fork did not copy."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        data, space = blocked_data(np.random.default_rng(67), counts=(8, 6, 7))
        prior = uniform_prior(3)
        monkeypatch.setattr(gaussian, "_cores", lambda: 3)
        threads = self.fold_threads(monkeypatch)
        parent = loocv_posteriors(data, space, prior, n_draws=40, seed=5).matrix
        assert len({id(thread) for thread in threads.values()}) == 3
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()

        def child():
            threads.clear()
            held = loocv_posteriors(data, space, prior, n_draws=40, seed=5)
            results.put((held.matrix, len({id(thread) for thread in threads.values()})))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            got, child_workers = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child did not return its matrix within 60 s")
        finally:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        assert not proc.is_alive()
        assert child_workers == 3
        np.testing.assert_array_equal(got, parent)

    def test_fold_weight_shape_checked(self):
        rng = np.random.default_rng(19)
        data, space = blocked_data(rng, counts=(4, 3, 2))
        held = loocv_posteriors(data, space, uniform_prior(3), n_draws=20, seed=1)
        with pytest.raises(DimensionMismatch):
            held.fold_weights(np.array([0.5, 0.5]))


class TestKernelAgainstReference:
    def test_scores_match_direct_classification(self):
        """The vectorized grid kernel and the oracle-then-score loop must
        agree on the 0/1 score of every single fold."""
        rng = np.random.default_rng(23)
        data, space = blocked_data(rng, counts=(10, 7, 5))
        held = loocv_posteriors(data, space, uniform_prior(3), n_draws=50, seed=3)
        for _ in range(25):
            b = float(rng.uniform(0.02, 2.0))
            a = float(rng.uniform(0.0, 1.0)) * b
            scores = held.binary_scores(a, b)
            for r, chosen in enumerate(oracle_sets(held, a, b)):
                truth = int(held.categories[r])
                for variant in VARIANTS:
                    want = binary_reward(variant, chosen, truth, space)
                    assert scores[variant][r] == want

    def test_rates_match_reference_path(self):
        rng = np.random.default_rng(29)
        data, space = blocked_data(rng, counts=(9, 6, 5))
        prior = uniform_prior(3)
        held = loocv_posteriors(data, space, prior, n_draws=40, seed=5)
        weights = make_weights("per_category", data.counts)
        fold_w = held.fold_weights(weights)
        for _ in range(20):
            b = float(rng.uniform(0.05, 1.5))
            a = 0.5 * b
            scores = held.binary_scores(a, b)
            for variant in VARIANTS:
                kernel_rate = exact_rate(fold_w, scores[variant] == 1)
                assert kernel_rate == reference_rate(held, a, b, weights, variant)


#: Block sizes of the three categories: blocked, one block, all singletons.
SWEEP_SPACES = {"blocked": (2, 1), "one-block": (3,), "singletons": (1, 1, 1)}


@pytest.fixture(scope="module")
def sweep_folds():
    rng = np.random.default_rng(41)
    data, space = blocked_data(rng, counts=(20, 12, 9), spread=2.0)
    held = loocv_posteriors(data, space, uniform_prior(3), n_draws=40, seed=17)
    return held, make_weights("per_observation", data.counts)


@pytest.mark.parametrize("sizes", SWEEP_SPACES.values(), ids=SWEEP_SPACES)
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0, 2.0])
class TestScoreIntervals:
    """The exact sweep against the composite rule, cost by cost."""

    def report(self, sweep_folds, sizes, epsilon):
        held, weights = sweep_folds
        held = tuning.HeldOutPosteriors(
            held.matrix, held.categories, held.counts, CategorySpace(3, sizes)
        )
        return held, evaluate_curves(CVConfig(epsilon, 0.05, 0.05, 3.0, 0.05), held, weights)

    def test_intervals_match_binary_scores(self, sweep_folds, sizes, epsilon):
        """At every grid point, at random costs, and at every finite end
        and one float either side of it, fold f scores 1 exactly when
        L[f] < b <= R[f]."""
        held, report = self.report(sweep_folds, sizes, epsilon)
        lo, hi = report.grid[0], report.grid[-1]
        ends = np.concatenate([end for pair in report.intervals.values() for end in pair])
        ends = ends[(lo <= ends) & (ends <= hi)]
        assert ends.size > 0
        near = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
        rng = np.random.default_rng(43)
        costs = np.concatenate([report.grid, rng.uniform(lo, hi, 200), near])
        for b in np.unique(costs[(lo <= costs) & (costs <= hi)]):
            scores = held.binary_scores(epsilon * b, b)
            for variant, (lower, upper) in report.intervals.items():
                np.testing.assert_array_equal(
                    (lower < b) & (b <= upper), scores[variant] == 1, err_msg=f"{variant} at {b!r}"
                )

    def test_minimize_is_the_lowest_rate_at_any_end(self, sweep_folds, sizes, epsilon):
        """The selected rate is the lowest ``binary_scores`` rate over the
        grid's ends, every in-range end and the float just above it, and
        the cost is the smallest of those that reaches it."""
        held, report = self.report(sweep_folds, sizes, epsilon)
        lo, hi = report.grid[0], report.grid[-1]
        for variant in (BinaryReward.EXACT_SINGLETON, BinaryReward.WITHIN_BLOCK):
            ends = np.concatenate(report.intervals[variant])
            ends = ends[(lo <= ends) & (ends < hi)]
            costs = np.unique(np.concatenate([[lo, hi], ends, np.nextafter(ends, np.inf)]))
            rates = [
                1.0 - exact_rate(report.fold_weights, held.binary_scores(epsilon * b, b)[variant] == 1)
                for b in costs
            ]
            sel = select_b_minimize(report, variant)
            assert sel.non_reward_rate == min(rates)
            assert sel.cost == costs[rates.index(min(rates))]


def full_range_limits(held, epsilon, lo, hi):
    """``join_limits`` by bisecting every entry over all of [lo, hi]: the
    reference for the bracketed bisection."""
    ranked = held._ranked
    first, last = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
    below = np.full(ranked.sorted.shape, first - 1)
    above = np.full(ranked.sorted.shape, last + 1)
    for _ in range(int(last - first + 1).bit_length()):
        mid = below + (above - below) // 2
        b = mid.view(np.float64)
        holds = CompositeProportion.joins(ranked, epsilon * b, b)
        below, above = np.where(holds, mid, below), np.where(holds, above, mid)
    return below.view(np.float64)


def assert_same_limits(held, epsilon, lo, hi):
    with np.errstate(over="ignore"):  # epsilon 1e308 takes the within cost to inf
        np.testing.assert_array_equal(
            held.join_limits(epsilon, lo, hi).view(np.int64),
            full_range_limits(held, epsilon, lo, hi).view(np.int64),
        )


def warbler_like_folds(n_draws=60):
    """Leave-one-out posteriors of the warbler-like spec's four categories in
    blocks (2, 1, 1), at a tenth of its counts."""
    rng = np.random.default_rng(53)
    means = ([0.0, 0.0, 0.0], [1.6, 0.8, 0.4], [3.2, 2.4, 1.5], [5.0, 4.2, 2.5])
    groups = [np.asarray(m) + rng.standard_normal((n, 3)) for m, n in zip(means, (41, 42, 8, 6))]
    data, space = TrainingData(groups), CategorySpace(4, (2, 1, 1))
    held = loocv_posteriors(data, space, uniform_prior(4), n_draws=n_draws, seed=59)
    return held, make_weights("per_observation", data.counts)


#: Rows whose blocks sum to exactly 1 or hold exact zeros: on one block the
#: first category's closed form divides by 0 (P_k = 1), and at epsilon 0 a
#: zero later one is 0/0.
EXACT_ROWS = np.array([
    [0.5, 0.25, 0.25],
    [1.0, 0.0, 0.0],
    [0.75, 0.25, 0.0],
    [0.0, 0.0, 1.0],
    [0.125, 0.375, 0.5],
])


@pytest.mark.parametrize("sizes", SWEEP_SPACES.values(), ids=SWEEP_SPACES)
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0, 1e308])
class TestJoinLimits:
    """The bracketed bisection against the full-range one, bit for bit."""

    def held(self, sweep_folds, sizes):
        held, _ = sweep_folds
        return tuning.HeldOutPosteriors(
            held.matrix, held.categories, held.counts, CategorySpace(3, sizes)
        )

    @pytest.mark.parametrize("lo, hi", [(0.05, 3.0), (0.05, 5.0), (1e-300, 1e300)])
    def test_matches_full_range(self, sweep_folds, sizes, epsilon, lo, hi):
        assert_same_limits(self.held(sweep_folds, sizes), epsilon, lo, hi)

    def test_single_cost_range(self, sweep_folds, sizes, epsilon):
        for cost in (0.05, 0.4, 1.0, 3.0):
            assert_same_limits(self.held(sweep_folds, sizes), epsilon, cost, cost)

    def test_exact_masses_and_zeros(self, sizes, epsilon):
        held = tuning.HeldOutPosteriors(
            EXACT_ROWS, np.array([1, 1, 2, 3, 3]), (2, 1, 2), CategorySpace(3, sizes)
        )
        for lo, hi in ((0.05, 5.0), (1e-300, 1e300), (1.0, 1.0)):
            assert_same_limits(held, epsilon, lo, hi)

    def test_a_bad_guess_costs_steps_not_bits(self, sweep_folds, sizes, epsilon, monkeypatch):
        for bad in (np.nan, -np.nan, np.inf, 0.0, -1.0, 1e-320, 0.7):
            monkeypatch.setattr(
                CompositeProportion, "join_costs",
                staticmethod(lambda ranked, eps: np.full(ranked.sorted.shape, bad)),
            )
            assert_same_limits(self.held(sweep_folds, sizes), epsilon, 0.05, 5.0)


def test_join_passes_on_warbler_like_folds(monkeypatch):
    """The bracket takes two checks and five bisection steps where the full
    range [0.05, 5.0] takes 55 steps."""
    held, _ = warbler_like_folds()
    calls = []
    joins = CompositeProportion.joins

    def counted(ranked, within_cost, cross_cost):
        calls.append(cross_cost)
        return joins(ranked, within_cost, cross_cost)

    monkeypatch.setattr(CompositeProportion, "joins", staticmethod(counted))
    for epsilon in (0.5, 2.0):
        calls.clear()
        held.score_intervals(epsilon, 0.05, 5.0)
        assert len(calls) <= 10


def per_piece_minimum(report, variant):
    """``select_b_minimize`` by rating every piece's right end with the
    exact reference: the smallest cost at the lowest non-reward rate."""
    lo, hi = report.grid[0], report.grid[-1]
    lower, upper = report.intervals[variant]
    ends = np.concatenate([lower[lower < upper], upper[lower < upper]])
    ends = np.unique(ends[(lo <= ends) & (ends < hi)])
    non_reward = [
        1.0 - interval_rate(report.fold_weights, report.intervals[variant], b)
        for b in np.append(ends, hi)
    ]
    idx = int(np.argmin(non_reward))
    cost = lo if idx == 0 else np.nextafter(ends[idx - 1], np.inf)
    return float(cost), non_reward[idx]


def fold_report(lower, upper, weights, variant=BinaryReward.EXACT_SINGLETON):
    """A report over [0.05, 5.0] holding one score's fold intervals."""
    cfg = CVConfig(1.0, 0.05, 0.05, 5.0, 0.05)
    intervals = {variant: (np.asarray(lower, float), np.asarray(upper, float))}
    return tuning.CVReport(cfg.grid(), {}, cfg, intervals, np.asarray(weights, float))


def tied_report(n=6):
    """Fold 0 spans the range and folds 1..n each cover one piece, with a
    piece between them that none covers.  The n covered pieces tie
    exactly, as each rate sums the same two nonzero weights."""
    ends = np.linspace(0.1, 4.9, 2 * n)
    lower = np.concatenate([[-np.inf], ends[0::2]])
    upper = np.concatenate([[np.inf], ends[1::2]])
    return fold_report(lower, upper, [0.47] + [0.16] * n)


def gap_report(tiny, later):
    """Two covered pieces whose rates differ by one fold of weight ``tiny``,
    on the later piece or the earlier one."""
    lower = [-np.inf, 0.5, 2.0, 2.0 if later else 0.5]
    upper = [np.inf, 1.0, 2.5, 2.5 if later else 1.0]
    return fold_report(lower, upper, [0.4, 0.3, 0.3, tiny])


class TestRunningSumMinimum:
    """The one-pass selection against the per-piece exact reference."""

    def check(self, report, variant=BinaryReward.EXACT_SINGLETON):
        sel = select_b_minimize(report, variant)
        assert (sel.cost, sel.non_reward_rate) == per_piece_minimum(report, variant)
        return sel

    def test_exact_ties_take_the_first_piece(self):
        assert self.check(tied_report()).cost == np.nextafter(0.1, np.inf)

    @pytest.mark.parametrize("tiny", [1e-12, 1e-6])
    @pytest.mark.parametrize("later", [True, False], ids=["later", "earlier"])
    def test_one_fold_apart(self, tiny, later):
        sel = self.check(gap_report(tiny, later))
        assert sel.cost == np.nextafter(2.0 if later else 0.5, np.inf)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0])
    def test_warbler_like_folds(self, epsilon):
        held, weights = warbler_like_folds()
        report = evaluate_curves(CVConfig(epsilon, 0.05, 0.05, 5.0, 0.05), held, weights)
        for variant in (BinaryReward.EXACT_SINGLETON, BinaryReward.WITHIN_BLOCK):
            self.check(report, variant)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_intervals_with_shared_weights(self, data):
        """Random fold intervals, some outside the range or empty, whose
        weights take a few shared values: the minimum and the rate of
        every piece are the exact reference's."""
        n = data.draw(st.integers(1, 30))
        shared = data.draw(st.lists(st.floats(1e-9, 0.05), min_size=1, max_size=4))
        weights = [data.draw(st.sampled_from(shared)) for _ in range(n)]
        ends = st.one_of(st.floats(0.0, 6.0), st.sampled_from([-np.inf, 0.05, 5.0, np.inf]))
        lower = np.array([data.draw(ends) for _ in range(n)])
        upper = np.array([data.draw(ends) for _ in range(n)])
        report = fold_report(lower, upper, weights)
        self.check(report)
        costs = np.unique(np.concatenate([lower, upper, np.nextafter(upper, np.inf), [0.05, 5.0]]))
        costs = costs[np.isfinite(costs)]
        rates = tuning._rates(report.fold_weights, (lower, upper), costs)
        assert rates.tolist() == [interval_rate(report.fold_weights, (lower, upper), b) for b in costs]


@pytest.fixture(scope="module")
def curve_setup():
    rng = np.random.default_rng(31)
    data, space = blocked_data(rng, counts=(20, 12, 9), spread=2.5)
    prior = uniform_prior(3)
    held = loocv_posteriors(data, space, prior, n_draws=60, seed=11)
    weights = make_weights("per_observation", data.counts)
    return space, prior, held, weights


class TestCurves:
    def config(self, epsilon=1.0, delta=0.1, lo=0.05, hi=2.0, step=0.05):
        return CVConfig(epsilon, delta, lo, hi, step)

    def test_hierarchy_at_every_grid_point(self, curve_setup):
        space, prior, held, weights = curve_setup
        for eps in (0.5, 1.0, 2.0):
            report = evaluate_curves(
                self.config(epsilon=eps),
                held, weights,
            )
            r1, r2, r3, r4 = (report.rates[v] for v in VARIANTS)
            assert np.all(r1 <= r2)
            assert np.all(r2 <= r3)
            assert np.all(r3 <= r4)

    def test_containment_curves_monotone(self, curve_setup):
        space, prior, held, weights = curve_setup
        report = evaluate_curves(
            self.config(),
            held, weights,
        )
        for variant in (BinaryReward.CONTAINS_TRUTH, BinaryReward.HITS_TRUE_BLOCK):
            non_reward = report.non_reward(variant)
            assert np.all(np.diff(non_reward) >= 0)

    @pytest.mark.parametrize("kind, real_prior", [
        ("per_observation", None), ("per_category", None), ("rarity", [0.7, 0.2, 0.1]),
    ])
    def test_rates_are_the_exact_sums(self, curve_setup, kind, real_prior):
        """Every grid point's rate is the exact sum of its scoring folds'
        weights, rounded once, under each weighting."""
        space, prior, held, _ = curve_setup
        weights = make_weights(kind, held.counts, real_prior)
        for eps in (0.5, 2.0):
            report = evaluate_curves(self.config(epsilon=eps), held, weights)
            for variant in VARIANTS:
                want = [interval_rate(report.fold_weights, report.intervals[variant], b)
                        for b in report.grid]
                assert report.rates[variant].tolist() == want

    def test_rates_stay_in_unit_interval(self, curve_setup):
        space, prior, held, weights = curve_setup
        report = evaluate_curves(
            self.config(),
            held, weights,
        )
        for variant in VARIANTS:
            assert np.all(report.rates[variant] >= 0.0)
            assert np.all(report.rates[variant] <= 1.0)

    def test_threshold_selection_definition(self, curve_setup):
        """The selected cost satisfies the bound and the next grid point
        violates it, unless the selection sits at the top of the grid."""
        space, prior, held, weights = curve_setup
        for variant in (BinaryReward.CONTAINS_TRUTH, BinaryReward.HITS_TRUE_BLOCK):
            for delta in (0.02, 0.05, 0.1, 0.3):
                cfg = self.config(delta=delta)
                report = evaluate_curves(cfg, held, weights)
                curve = report.non_reward(variant)
                try:
                    sel = select_b_threshold(report, variant)
                except NoFeasibleB:
                    assert np.all(curve > delta)
                    continue
                pos = int(np.flatnonzero(np.isclose(report.grid, sel.cost))[0])
                assert curve[pos] <= delta
                if sel.at_grid_top:
                    assert pos == report.grid.size - 1
                    assert ">=" in sel.display()
                else:
                    assert curve[pos + 1] > delta

    def test_threshold_refuses_a_one_ulp_dip(self):
        """A containment curve whose non-reward rate falls by one ulp is not
        monotone, and the threshold rule refuses it."""
        cfg = self.config(lo=0.1, hi=0.3, step=0.1)
        rates = np.array([0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 1.0)])
        report = tuning.CVReport(cfg.grid(), {BinaryReward.CONTAINS_TRUTH: rates}, cfg, {}, np.ones(1))
        assert np.diff(report.non_reward(BinaryReward.CONTAINS_TRUTH)).min() < 0
        with pytest.raises(AssertionError, match="decreased"):
            select_b_threshold(report, BinaryReward.CONTAINS_TRUTH)

    def test_threshold_rejects_singleton_scores(self, curve_setup):
        space, prior, held, weights = curve_setup
        report = evaluate_curves(self.config(), held, weights)
        with pytest.raises(OutOfRange):
            select_b_threshold(report, BinaryReward.EXACT_SINGLETON)

    def test_no_feasible_cost(self, curve_setup):
        space, prior, held, weights = curve_setup
        cfg = self.config(delta=1e-6, lo=3.0, hi=5.0, step=0.5)
        report = evaluate_curves(cfg, held, weights)
        if np.all(report.non_reward(BinaryReward.CONTAINS_TRUTH) > 1e-6):
            with pytest.raises(NoFeasibleB):
                select_b_threshold(report, BinaryReward.CONTAINS_TRUTH)

    def test_minimize_never_worse_than_grid(self, curve_setup):
        space, prior, held, weights = curve_setup
        for variant in (BinaryReward.EXACT_SINGLETON, BinaryReward.WITHIN_BLOCK):
            cfg = self.config()
            report = evaluate_curves(cfg, held, weights)
            sel = select_b_minimize(report, variant)
            assert sel.non_reward_rate <= report.non_reward(variant).min()
            assert cfg.grid_lo <= sel.cost <= cfg.grid_hi

    def test_minimize_plateau_takes_smallest_cost(self):
        """With near-certain posteriors the singleton score is flat over a
        wide range of costs, and the rule must then report the smallest."""
        rng = np.random.default_rng(37)
        data, space = blocked_data(rng, counts=(15, 10, 8), spread=30.0)
        prior = uniform_prior(3)
        held = loocv_posteriors(data, space, prior, n_draws=40, seed=13)
        weights = make_weights("per_observation", data.counts)
        cfg = CVConfig(1.0, 0.05, 0.5, 2.0, 0.25)
        report = evaluate_curves(cfg, held, weights)
        curve = report.non_reward(BinaryReward.EXACT_SINGLETON)
        assert np.ptp(curve) == 0.0  # genuinely flat, or the test is vacuous
        sel = select_b_minimize(report, BinaryReward.EXACT_SINGLETON)
        assert sel.cost == pytest.approx(0.5)

    def test_minimize_rejects_containment_scores(self, curve_setup):
        space, prior, held, weights = curve_setup
        report = evaluate_curves(self.config(), held, weights)
        with pytest.raises(OutOfRange):
            select_b_minimize(report, BinaryReward.CONTAINS_TRUTH)
