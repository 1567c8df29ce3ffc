"""Bayesian Gaussian category models with conjugate fitting.

Each category gets a multivariate normal likelihood with a
normal-inverse-Wishart prior on its mean and covariance.  The posterior is
again normal-inverse-Wishart, and predictive densities are Monte Carlo
averages over a cached sample of (mean, covariance) draws, so everything
downstream is reproducible from (data, hyperprior, n_draws, seed).  The
draws are made here by Bartlett's method from numpy's ``Generator`` alone,
so they depend on numpy's generator streams and on no other library's
sampler code.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import CategorySpace, PosteriorVector, json_fields
from .errors import (
    AllZeroMass,
    DimensionMismatch,
    EmptyCategory,
    InvalidDistribution,
    OutOfRange,
    SingularScatter,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Elements of scratch one kernel call (``_log_densities``) may hold over
#: all its workers: 1 MiB of float64, room for ``_BUDGET // _SHARE``
#: workers.  Also the block size, in elements, of the calibration's scoring
#: and factor application.
_BUDGET = 1 << 17

#: Elements of one category's scratch buffer of (rows, draws) log densities:
#: 512 KB of float64, which stays in a 2 MiB per-core L2 cache while each
#: chunk's passes run over it (``_chunk_rows``).  A kernel call holds one
#: per worker, within ``max(_BUDGET, 2 n_draws)`` elements.  One 1 MiB
#: buffer ran slower on one CPU at d = 3, and two workers with smaller
#: shares lost the gain to the hand-offs of the interpreter lock.
_SHARE = 1 << 16

#: Elements of one batch's (folds, draws, d, d) Bartlett factors in
#: ``_fold_log_densities``: 256 KB of float64, about 18 folds at 200
#: draws and d = 3.  A batch holds ``_FOLD_BUDGET // (n_draws d d)`` folds
#: (at least one); the generator's outputs for them, d (d + 3) / 2 per draw,
#: take as much again at d = 3.  A batch makes one call per generator for
#: all its folds.  Batches at 4 and 16 times this budget ran no faster, as
#: the generators' fill rate then dominates; they only raise the peak memory.
_FOLD_BUDGET = 1 << 15


@dataclass(frozen=True)
class NormalInverseWishart:
    """Parameters of a normal-inverse-Wishart distribution.

    ``mean`` and ``kappa`` locate the Gaussian mean given the covariance;
    ``dof`` and ``scatter`` parametrize the inverse-Wishart covariance law.
    ``scatter`` must be symmetric positive definite and ``dof`` must exceed
    dim - 1.
    """

    mean: tuple[float, ...]
    kappa: float
    dof: float
    scatter: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        scatter = np.asarray(self.scatter, dtype=float)
        if mean.ndim != 1 or scatter.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"mean has shape {mean.shape} but scatter has shape {scatter.shape}"
            )
        if not all(np.isfinite(v).all() for v in (mean, scatter, self.kappa, self.dof)):
            raise OutOfRange("hyperparameters must be finite")
        if self.kappa <= 0.0:
            raise OutOfRange(f"kappa must be positive, got {self.kappa}")
        d = mean.size
        if self.dof <= d - 1:
            raise OutOfRange(f"dof must exceed {d - 1} for dimension {d}, got {self.dof}")
        if not np.allclose(scatter, scatter.T, atol=1e-10):
            raise SingularScatter("scatter matrix must be symmetric")
        try:
            np.linalg.cholesky(scatter)
        except np.linalg.LinAlgError:
            raise SingularScatter("scatter matrix must be positive definite") from None
        object.__setattr__(self, "mean", tuple(float(v) for v in mean))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "dof", float(self.dof))
        object.__setattr__(
            self, "scatter", tuple(tuple(float(v) for v in row) for row in scatter)
        )

    @property
    def dim(self) -> int:
        return len(self.mean)

    def mean_array(self) -> np.ndarray:
        return np.asarray(self.mean, dtype=float)

    def scatter_array(self) -> np.ndarray:
        return np.asarray(self.scatter, dtype=float)


class TrainingData:
    """Observation vectors grouped by category.

    Parameters
    ----------
    groups : sequence of array_like
        One (n_i, d) array per category, in category order 1..N.  Empty
        categories are representable but cannot be fitted.
    """

    def __init__(self, groups):
        cleaned = []
        dim = None
        for g in groups:
            arr = np.asarray(g, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1) if dim in (None, 1) else arr.reshape(1, -1)
            if arr.ndim != 2:
                raise DimensionMismatch(f"each group must be a (n, d) array, got shape {arr.shape}")
            if dim is None and arr.size:
                dim = arr.shape[1]
            if dim is not None and arr.size and arr.shape[1] != dim:
                raise DimensionMismatch(
                    f"group has dimension {arr.shape[1]}, expected {dim}"
                )
            if not np.all(np.isfinite(arr)):
                raise OutOfRange("observations must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            cleaned.append(arr)
        if not cleaned:
            raise DimensionMismatch("need at least one category")
        if dim is None:
            raise EmptyCategory("no category has any observations")
        self.groups = tuple(
            g if g.size else np.empty((0, dim)) for g in cleaned
        )
        self.dim = dim

    @property
    def n_categories(self) -> int:
        return len(self.groups)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(g.shape[0] for g in self.groups)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All observations stacked, plus their 1-based category labels."""
        labels = [np.full(g.shape[0], i + 1, dtype=np.int64) for i, g in enumerate(self.groups)]
        return np.vstack(self.groups), np.concatenate(labels)


def default_hyperprior(data: TrainingData) -> NormalInverseWishart:
    """Weak data-scaled prior: pooled mean, unit strength, diagonal scatter.

    Uses kappa = 1, dof = d + 2, location at the pooled sample mean, and a
    scatter equal to the diagonal of the pooled sample covariance.
    """
    rows = np.vstack([g for g in data.groups if g.shape[0]])
    mean = rows.mean(axis=0)
    if rows.shape[0] >= 2:
        var = rows.var(axis=0, ddof=1)
    else:
        var = np.ones(data.dim)
    if np.any(var <= 0.0):
        raise SingularScatter(
            "a feature column is constant; the default scatter would be singular"
        )
    return NormalInverseWishart(
        tuple(mean), 1.0, float(data.dim + 2), tuple(tuple(row) for row in np.diag(var))
    )


def conjugate_update(
    observations: np.ndarray, prior: NormalInverseWishart
) -> NormalInverseWishart:
    """Posterior hyperparameters after observing ``observations``.

    Standard normal-inverse-Wishart update: strength and degrees of freedom
    grow by n, the location moves to the precision-weighted average of the
    prior location and the sample mean, and the scatter absorbs the within
    sample scatter plus a shrinkage term for the mean shift.
    """
    x = np.asarray(observations, dtype=float)
    if x.ndim != 2 or x.shape[1] != prior.dim:
        raise DimensionMismatch(
            f"observations have shape {x.shape}, expected (n, {prior.dim})"
        )
    n = x.shape[0]
    if n == 0:
        raise EmptyCategory("cannot update on zero observations")
    xbar = x.mean(axis=0)
    centered = x - xbar
    within = centered.T @ centered
    kappa_n = prior.kappa + n
    dev = (xbar - prior.mean_array()).reshape(-1, 1)
    scatter_n = (
        prior.scatter_array() + within + (prior.kappa * n / kappa_n) * (dev @ dev.T)
    )
    mean_n = (prior.kappa * prior.mean_array() + n * xbar) / kappa_n
    return NormalInverseWishart(
        tuple(mean_n),
        kappa_n,
        prior.dof + n,
        tuple(tuple(row) for row in scatter_n),
    )


@cache
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (i, j) of the upper triangle i <= j of a d x d matrix, and
    the weight of each product u_i u_j in a quadratic form: 1 on the
    diagonal, 2 off it."""
    i, j = np.triu_indices(d)
    weight = np.where(i == j, 1.0, 2.0)
    for arr in (i, j, weight):
        arr.setflags(write=False)
    return i, j, weight


def _features(z: np.ndarray, center: np.ndarray) -> np.ndarray:
    """(rows, k) features of the points ``z`` about ``center``: with
    u = z - center, the weighted products u_i u_j for i <= j, then u, then
    1.  The result is the transpose of a (k, rows) array filled in place
    in contiguous blocks, so it is the only array made."""
    rows, d = z.shape
    _, _, weight = _pairs(d)
    n_pairs = weight.size
    feats = np.empty((n_pairs + d + 1, rows))
    u = feats[n_pairs:n_pairs + d]
    np.subtract(z.T, center[:, None], out=u)
    start = 0
    for i in range(d):
        # The pairs (i, i), (i, i + 1), ..., (i, d - 1) are adjacent.
        pairs = slice(start, start + d - i)
        np.multiply(u[i], weight[pairs, None], out=feats[pairs])
        feats[pairs] *= u[i:]
        start = pairs.stop
    feats[-1] = 1.0
    return feats.T


def _log_sum_exp_chunk(
    feats: np.ndarray, coef: np.ndarray, buf: np.ndarray, out: np.ndarray,
    shift: bool,
) -> None:
    """Write to ``out`` the log of the sum over draws of exp(feats @ coef)
    for each row of one chunk: one GEMM into the scratch ``buf``, then an
    in-place exp, a sum and a log.  With ``shift``, each row is first
    shifted by its own maximum, which is added back after the log; a row
    whose maximum is not finite (its arithmetic overflowed) is not
    shifted.

    A one-row product would go through BLAS's matrix-vector routine, whose
    sums may round differently from a GEMM's, so a chunk of one row goes
    through the GEMM as two copies of it, in the column-major layout
    ``_features`` gives, and ``buf`` must hold two rows.  Every row then
    has the bits it has in any chunk."""
    rows = feats.shape[0]
    if rows == 1:
        feats = feats.T.repeat(2, axis=1).T
    np.matmul(feats, coef, out=buf[:feats.shape[0]])
    logp = buf[:rows]
    if shift:
        top = logp.max(axis=1)
        top[~np.isfinite(top)] = 0.0
        logp -= top[:, None]
    np.exp(logp, out=logp)
    np.log(logp.sum(axis=1), out=out)
    if shift:
        out += top


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset -c 0`` gives one), else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_workers(tasks, workers: int, run) -> None:
    """Call ``run(k, task)`` for every task, an integer, in ``workers``
    workers at once: worker k takes tasks k, k + workers, ... of
    ``tasks`` in that order.  Each task is a category.

    The calling thread is worker 0; each other worker with a task is a
    thread started for the call and joined before it returns, so no
    thread outlives a call and a forked child inherits none.  Each worker
    runs under the caller's floating-point error state, which a new
    thread does not inherit.  A failed task does not stop its worker.
    Once every worker has finished, the error of the lowest failed task
    is raised, so a call raises what a loop over the tasks in ascending
    order raises first.
    """
    state = np.geterr()
    failed = {}

    def work(k):
        with np.errstate(**state):
            for task in tasks[k::workers]:
                try:
                    run(k, task)
                except BaseException as exc:  # raised again below, in the calling thread
                    failed[task] = exc

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, min(workers, len(tasks)))]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[min(failed)]


def _chunk_rows(draws: int) -> int:
    """Rows per chunk of the kernel, from the draw count alone:
    ``min(_SHARE, _BUDGET) // draws``, at least two."""
    return max(2, min(_SHARE, _BUDGET) // draws)


def _chunked_log_sum_exp(feats: np.ndarray, coef: np.ndarray, shift: bool) -> np.ndarray:
    """``_log_sum_exp_chunk`` over every row of ``feats``, in ``_chunk_rows``
    chunks taken in order through one scratch buffer of the call's own."""
    n, draws = feats.shape[0], coef.shape[1]
    step = _chunk_rows(draws)
    buf = np.empty((min(step, max(n, 2)), draws))
    out = np.empty(n)
    for start in range(0, n, step):
        _log_sum_exp_chunk(feats[start:start + step], coef, buf, out[start:start + step], shift)
    return out


#: Smallest sum of shifted exponentials ``CategoryDraws.log_density`` keeps
#: without shifting its row by the row's own maximum: 2**-800, so every
#: term that matters is far above the subnormal range (2**-1022).
_LOG_FLOOR = -800.0 * math.log(2.0)


class CategoryDraws:
    """A Monte Carlo sample of (mean, covariance) pairs for one category.

    About ``center``, the mean of the draw means, each draw's Gaussian
    log density is linear in the features of ``z - center``.  With
    precision A_l = L_l^-T L_l^-1 (L_l the Cholesky factor) and offset
    m_l = mean_l - center, column l of the (k, n_draws) matrix ``coef``
    is -1/2 [upper triangle of A_l, -2 A_l m_l, m_l' A_l m_l + log|cov_l|
    + d log 2 pi] - [0, 0, ``peak``], so one GEMM gives every draw's log
    density at a chunk of points, less ``peak``.  Draw l's log density is
    at most -1/2 (log|cov_l| + d log 2 pi), reached at its mean, so
    ``peak``, the largest of these, bounds every draw's log density
    anywhere.
    """

    __slots__ = ("means", "chols", "center", "coef", "peak")

    def __init__(self, means: np.ndarray, chols: np.ndarray):
        self.means = means
        self.chols = chols
        d = means.shape[1]
        i, j, _ = _pairs(d)
        inv = _lower_factors(np.eye(d), chols)
        self.center = means.mean(axis=0)
        y = np.einsum("lij,lj->li", inv, means - self.center)  # L_l^-1 m_l
        logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        self.peak = float(-0.5 * (logdets.min() + d * _LOG_2PI))
        self.coef = coef = np.empty((i.size + d + 1, means.shape[0]))
        rows, pairs = inv.transpose(1, 2, 0), coef[:i.size]  # A_l, summed over r in order
        np.multiply(rows[0, i], rows[0, j], out=pairs)
        for r in range(1, d):
            pairs += rows[r, i] * rows[r, j]
        pairs *= -0.5
        coef[i.size:-1] = np.einsum("lji,lj->il", inv, y)  # -0.5 * -2.0, exactly
        coef[-1] = -0.5 * ((y * y).sum(axis=1) + logdets + d * _LOG_2PI) - self.peak

    @property
    def n_draws(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log of the draw-averaged Gaussian density at each row of ``points``.

        The features of every row are built once; the rows then go in order,
        in the calling thread, in chunks of ``_SHARE // n_draws`` (at least
        two) through one scratch buffer (``_chunked_log_sum_exp``), each chunk
        one GEMM of its features against ``coef``, which is shifted by the
        bound ``peak``, then an in-place exp, sum and log.  A row whose sum
        falls below 2**-800, or is not finite, goes through the chunks once
        more, shifted by its own maximum, so heavy tails and tiny densities
        cannot underflow to an unusable zero.  A row has the same bits alone
        as in any batch (see ``_log_sum_exp_chunk``).  A finite point so far
        out that the arithmetic overflows gets -inf, as every draw's density
        underflows there.
        """
        z = np.atleast_2d(np.asarray(points, dtype=float))
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise DimensionMismatch(f"points have shape {z.shape}, expected (rows, {self.dim})")
        # An overflow leaves inf, -inf or nan (inf - inf) in a row.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            feats = _features(z, self.center)
            out = _chunked_log_sum_exp(feats, self.coef, False)
            redo = np.flatnonzero(~((out >= _LOG_FLOOR) & (out < np.inf)))
            if redo.size:
                # Built again rather than indexed out of ``feats``, so they
                # keep its column-major layout, on which a GEMM's rounding
                # depends.
                again = _chunked_log_sum_exp(_features(z[redo], self.center), self.coef, True)
                again[~np.isfinite(again) & np.isfinite(z[redo]).all(axis=1)] = -np.inf
                out[redo] = again
        out += self.peak - math.log(self.n_draws)
        return out


@cache
def _below(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict lower triangle of a d x d matrix."""
    below = np.tril_indices(d, -1)
    for arr in below:
        arr.setflags(write=False)
    return below


def _generator_draws(
    dof: float,
    normal_rng: np.random.Generator,
    chi_rng: np.random.Generator,
    noise_rng: np.random.Generator,
    lower: np.ndarray, chi: np.ndarray, eps: np.ndarray,
) -> None:
    """Make the generator calls of normal-inverse-Wishart draws, in their
    fixed order, one call per generator: ``normal`` into ``lower`` (...,
    d(d - 1)/2), the Bartlett entries below the diagonal;
    ``chisquare(dof - d + 1 + k)`` into ``chi`` (..., d), the squares of
    diagonal k; ``standard_normal`` into ``eps`` (..., d), the mean noise.
    Given one generator three times, the first two are the calls of the
    reference inverse-Wishart sampler the tests compare against, in its
    order, so both draw the same factors from one generator state."""
    d = eps.shape[-1]
    lower[...] = normal_rng.normal(size=lower.shape)
    chi[...] = chi_rng.chisquare(dof - d + 1 + np.arange(d), size=chi.shape)
    noise_rng.standard_normal(out=eps)


def _bartlett_factors(lower: np.ndarray, chi: np.ndarray, a: np.ndarray) -> None:
    """Write ``_generator_draws``' ``lower`` and ``chi`` (..., d(d - 1)/2)
    and (..., d) into the Bartlett factors ``a`` (..., d, d), below and on
    the diagonal; ``a`` must already be zero above it.  With C the Cholesky
    factor of the scatter, C A^-1 is the lower Cholesky factor of an
    inverse-Wishart(dof, scatter) covariance draw."""
    d = chi.shape[-1]
    rows, cols = _below(d)
    a[..., rows, cols] = lower
    k = np.arange(d)
    a[..., k, k] = chi ** 0.5


def _lower_factors(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """C A^-1 for a lower-triangular C (d, d) and a stack of lower-triangular
    A (n, d, d), by back substitution over the columns of L A = C."""
    out = np.zeros(a.shape)
    for j in reversed(range(a.shape[1])):
        rest = (out[:, :, j + 1:] @ a[:, j + 1:, j, None])[:, :, 0]
        out[:, :, j] = (c[:, j] - rest) / a[:, j, j, None]
    return out


def draw_category_sample(
    posterior: NormalInverseWishart, n_draws: int, rng: np.random.Generator
) -> CategoryDraws:
    """Draw (mean, covariance) pairs from a normal-inverse-Wishart law.

    The covariance comes first from the inverse-Wishart part, as the lower
    Cholesky factor C A^-1 of Bartlett's method (see ``_bartlett_factors``),
    then the mean from a Gaussian centered at the location with covariance
    cov / kappa.  The draw order is fixed, so a given generator state always
    produces the same sample.
    """
    if n_draws < 1:
        raise OutOfRange(f"need at least one draw, got {n_draws}")
    d = posterior.dim
    lower, chi = np.empty((n_draws, d * (d - 1) // 2)), np.empty((n_draws, d))
    a, eps = np.zeros((n_draws, d, d)), np.empty((n_draws, d))
    _generator_draws(posterior.dof, rng, rng, rng, lower, chi, eps)
    _bartlett_factors(lower, chi, a)
    chols = _lower_factors(np.linalg.cholesky(posterior.scatter_array()), a)
    noise = (chols @ eps[:, :, None])[:, :, 0]
    means = posterior.mean_array() + noise / math.sqrt(posterior.kappa)
    return CategoryDraws(means, chols)


class GaussianCategoryModel:
    """Fitted per-category posteriors plus their cached Monte Carlo draws.

    Category i's ``n_draws`` draws come from its own stream keyed by
    (``seed``, i), so the same posteriors and seed always give the same
    draws, and a category's draws do not depend on the others.  Each is
    drawn on first use, in the kernel by the worker that evaluates it, so
    a model only saved, as by ``fit``, draws none; ``n_draws`` is checked.
    """

    def __init__(
        self,
        posteriors: tuple[NormalInverseWishart, ...],
        n_draws: int,
        seed: int,
        space: CategorySpace,
    ):
        self.posteriors = posteriors
        self.n_draws = n_draws
        self.seed = seed
        self.space = space
        if n_draws < 1:
            raise OutOfRange(f"need at least one draw, got {n_draws}")
        self._draws = [None] * len(posteriors)

    @property
    def draws(self) -> tuple[CategoryDraws, ...]:
        return tuple(self._category_draws(i) for i in range(self.n_categories))

    def _category_draws(self, i: int) -> CategoryDraws:
        if self._draws[i] is None:  # drawn on first use, never by two threads at once
            rng = category_rng(self.seed, i + 1)
            self._draws[i] = draw_category_sample(self.posteriors[i], self.n_draws, rng)
        return self._draws[i]

    @property
    def n_categories(self) -> int:
        return len(self.posteriors)

    @property
    def dim(self) -> int:
        return self.posteriors[0].dim


def category_rng(seed: int, category: int) -> np.random.Generator:
    """The dedicated stream for one category's cached draws."""
    return np.random.default_rng([int(seed), int(category)])


def _drop_one_posteriors(
    observations: np.ndarray, prior: NormalInverseWishart
) -> tuple[np.ndarray, float, float, np.ndarray]:
    """``conjugate_update`` of the rows other than j, for every row j at once.

    The within scatter of fold j is the rank-one downdate U - n/(n - 1)
    u_j u_j' of the full centered scatter U, with u_j row j minus the full
    mean, and its sample mean is the full mean minus u_j / (n - 1).
    Returns the (n, d) locations, the kappa and dof the folds share, and
    the (n, d, d) scatters.  Needs n >= 2 rows.
    """
    n = observations.shape[0]
    xbar = observations.mean(axis=0)
    u = observations - xbar
    within = u.T @ u - (n / (n - 1)) * (u[:, :, None] * u[:, None, :])
    kept = xbar - u / (n - 1)
    kappa = prior.kappa + (n - 1)
    dev = kept - prior.mean_array()
    scatter = (
        prior.scatter_array() + within
        + (prior.kappa * (n - 1) / kappa) * (dev[:, :, None] * dev[:, None, :])
    )
    means = (prior.kappa * prior.mean_array() + (n - 1) * kept) / kappa
    return means, kappa, prior.dof + (n - 1), scatter


def _fold_log_densities(
    observations: np.ndarray, prior: NormalInverseWishart, category: int,
    n_draws: int, seed: int,
) -> np.ndarray:
    """Log Monte Carlo predictive density at each row of one category, under
    the posterior of the category's other rows.

    Fold j draws what ``draw_category_sample`` draws from the fold's
    posterior and evaluates the draws at row j, without building a
    covariance, an inverse or a ``CategoryDraws``.  With C the Cholesky
    factor of the fold's scatter and m its location, draw l has the
    Cholesky factor L = C A_l^-1, so L^-1 (x - mean_l) = A_l C^-1 (x - m)
    - eps_l / sqrt(kappa) and log|cov_l| = 2 (sum log diag C - sum log diag
    A_l).

    The folds draw from three streams spawned from the category's seed
    sequence, ``SeedSequence([seed, category]).spawn(3)``: one for the
    ``normal`` call, one for ``chisquare`` and one for ``standard_normal``.
    Spawned children are independent of their parent, so no fold replays
    the category's full-fit stream.  Fold j's values are slice j of one
    call per stream over all the category's folds.  Folds go in batches of
    ``_FOLD_BUDGET // (n_draws d d)`` (at least one), each batch one call
    per stream into buffers the batch shares; numpy's generators fill an
    array in order, so the bits do not depend on the batching.

    Raises
    ------
    SingularScatter
        If a fold's scatter is not positive definite; the message names the
        category and the left-out row (1-based within the category).
    """
    n, d = observations.shape
    means, kappa, dof, scatter = _drop_one_posteriors(observations, prior)
    try:
        chol = np.linalg.cholesky(scatter)
    except np.linalg.LinAlgError:
        for j in range(n):
            try:
                np.linalg.cholesky(scatter[j])
            except np.linalg.LinAlgError:
                raise SingularScatter(
                    f"category {category} without its row {j + 1}: "
                    "scatter matrix must be positive definite"
                ) from None
        raise
    # v_j = C_j^-1 (x_j - m_j), by forward substitution.
    v = observations - means
    for i in range(d):
        v[:, i] = (v[:, i] - (chol[:, i, :i] * v[:, :i]).sum(axis=1)) / chol[:, i, i]
    k = np.arange(d)
    log_diag_c = np.log(chol[:, k, k]).sum(axis=1)
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence([int(seed), int(category)]).spawn(3)
    ]
    step = min(n, max(1, _FOLD_BUDGET // (n_draws * d * d)))
    lower = np.empty((step, n_draws, d * (d - 1) // 2))
    chi, eps = np.empty((step, n_draws, d)), np.empty((step, n_draws, d))
    a = np.zeros((step, n_draws, d, d))
    out = np.empty(n)
    for start in range(0, n, step):
        b = min(step, n - start)
        _generator_draws(dof, *rngs, lower[:b], chi[:b], eps[:b])
        _bartlett_factors(lower[:b], chi[:b], a[:b])
        folds = slice(start, start + b)
        y = np.einsum("flij,fj->fli", a[:b], v[folds]) - eps[:b] / math.sqrt(kappa)
        log_diag_a = np.log(a[:b, :, k, k]).sum(axis=2)
        logp = -0.5 * (
            np.einsum("fli,fli->fl", y, y)
            + 2.0 * (log_diag_c[folds, None] - log_diag_a) + d * _LOG_2PI
        )
        out[folds] = _logsumexp(logp) - math.log(n_draws)
    return out


def held_out_log_densities(
    data: TrainingData, hyperprior: NormalInverseWishart | None = None,
    n_draws: int = 200, seed: int = 0,
) -> np.ndarray:
    """(rows, categories) log predictive densities at the rows of
    ``data.stacked()``: ``fit(data, hyperprior, n_draws, seed)``'s, with
    each row's own category's replaced by its held-out value
    (``_fold_log_densities``).  Every category needs two rows.

    The categories run on up to one worker per CPU, largest first, so that
    no worker is left with a large one at the end (``_in_workers``).  Each
    writes its full fit's column, then its folds over its own rows, from its
    own streams, so the bits do not depend on the worker count, and an
    error is the lowest failing category's.
    """
    if hyperprior is None:
        hyperprior = default_hyperprior(data)
    model = fit(data, hyperprior, n_draws, seed)
    rows, _ = data.stacked()
    groups, ends = data.groups, np.cumsum(data.counts)
    logf = np.empty((rows.shape[0], len(groups)))

    def category(k, i):
        logf[:, i] = model._category_draws(i).log_density(rows)
        own = slice(ends[i] - groups[i].shape[0], ends[i])
        logf[own, i] = _fold_log_densities(groups[i], hyperprior, i + 1, n_draws, seed)

    order = sorted(range(len(groups)), key=lambda i: -groups[i].shape[0])
    _in_workers(order, min(_cores(), len(groups)), category)
    return logf


def fit(
    data: TrainingData,
    hyperprior: NormalInverseWishart | None = None,
    n_draws: int = 1000,
    seed: int = 0,
    space: CategorySpace | None = None,
) -> GaussianCategoryModel:
    """Fit the conjugate model to grouped observations.

    Parameters
    ----------
    data : TrainingData
    hyperprior : NormalInverseWishart, optional
        Shared across categories.  Defaults to ``default_hyperprior(data)``.
    n_draws : int
        Monte Carlo sample size per category.
    seed : int
        Master seed; category i draws from its own stream keyed by
        (seed, i), so with a fixed hyperprior adding categories never
        disturbs earlier ones.
    space : CategorySpace, optional
        Defaults to a single block over the data's categories.

    Raises
    ------
    EmptyCategory
        If any category has no observations.
    """
    if space is None:
        space = CategorySpace(data.n_categories)
    elif space.n_categories != data.n_categories:
        raise DimensionMismatch(
            f"space has {space.n_categories} categories, data has {data.n_categories}"
        )
    if hyperprior is None:
        hyperprior = default_hyperprior(data)
    if hyperprior.dim != data.dim:
        raise DimensionMismatch(
            f"hyperprior dimension {hyperprior.dim} does not match data dimension {data.dim}"
        )
    posteriors = []
    for i, group in enumerate(data.groups, start=1):
        if group.shape[0] == 0:
            raise EmptyCategory(f"category {i} has no observations")
        posteriors.append(conjugate_update(group, hyperprior))
    return GaussianCategoryModel(tuple(posteriors), int(n_draws), int(seed), space)


def predictive_density(model: GaussianCategoryModel, category: int, point) -> float:
    """Monte Carlo predictive density of one category at one point;
    strictly positive by construction."""
    if not 1 <= int(category) <= model.n_categories:
        raise OutOfRange(f"category {category} outside 1..{model.n_categories}")
    return math.exp(model.draws[int(category) - 1].log_density(np.asarray(point, float))[0])


def check_prior(prior, n: int) -> np.ndarray:
    """The prior over ``n`` categories divided by its sum; raises
    ``DimensionMismatch`` for a wrong length and ``InvalidDistribution``
    for a negative or non-finite weight or a sum off 1 by more than 1e-9."""
    arr = np.asarray(prior, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"prior has shape {arr.shape}, expected ({n},)")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise InvalidDistribution("prior weights must be finite and nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"prior sums to {total}, expected 1")
    return arr / total


def _log_densities(model: GaussianCategoryModel, points: np.ndarray) -> np.ndarray:
    """(rows, categories) log densities at ``points``, a task per category
    in one pool: a worker per CPU, up to ``_BUDGET // max(_SHARE, chunk
    elements)`` and one per two of a category's chunks, as a thread costs
    about a chunk.  A task draws its category if need be, overlapping the
    others' GEMM and exp passes; a lone worker draws every category first.
    The bits do not depend on the workers; an error is the lowest category's."""
    n, rows, draws = model.n_categories, np.shape(points)[0], model.n_draws
    step = _chunk_rows(draws)
    workers = max(1, min(_cores(), _BUDGET // max(_SHARE, step * draws), -(-rows // step) // 2))
    if workers == 1:  # nothing to overlap, and draws made in a row run faster
        with contextlib.suppress(Exception):  # a failed draw fails again in its turn
            model.draws
    out = np.empty((rows, n))

    def category(k, i):
        out[:, i] = model._category_draws(i).log_density(points)

    _in_workers(range(n), workers, category)
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Log of the sum of exponentials along each row of a 2-D array.

    Computed in the form of the reference log-sum-exp the tests compare
    against, bit for bit: shift by the row maximum, leave its m tied
    entries out of the sum s of the other shifted exponentials, and return
    log1p(s / m) + log m + max.  A row where that is not finite, such as a
    row of -inf, gets the unshifted log(sum(exp(a))) instead.
    """
    top = a.max(axis=1, keepdims=True)
    tied = a == top
    m = tied.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(tied, -np.inf, a) - top).sum(axis=1, keepdims=True)
        out = (np.log1p(s / m) + np.log(m) + top)[:, 0]
        bad = ~np.isfinite(out)
        out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def posterior_from_log_densities(logf: np.ndarray, prior) -> np.ndarray:
    """Posterior rows from an (R, N) matrix of per-category log densities.

    Adds the log prior, normalizes each row in log space, then
    exponentiates and divides by the row sum.  ``posterior_matrix``,
    ``posterior_over_categories`` and the held-out rows of
    ``loocv_posteriors`` all come from here.

    Raises
    ------
    DimensionMismatch, InvalidDistribution
        If the prior is not a probability vector over the N columns.
    AllZeroMass
        If some row gets zero mass in every category; the message names
        the first such row.
    """
    pi = check_prior(prior, logf.shape[1])
    with np.errstate(divide="ignore"):
        logpost = logf + np.log(pi)[None, :]
    norm = _logsumexp(logpost)
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        raise AllZeroMass(int(bad[0]) + 1)
    p = np.exp(logpost - norm[:, None])
    return p / p.sum(axis=1, keepdims=True)


def posterior_over_categories(
    model: GaussianCategoryModel, prior, point
) -> PosteriorVector:
    """Posterior category probabilities at one observation: the one row
    ``posterior_matrix`` gives for it, with the same errors."""
    post = posterior_matrix(model, prior, np.reshape(point, (1, -1)))
    return PosteriorVector(post[0], model.space)


def posterior_matrix(model: GaussianCategoryModel, prior, points) -> np.ndarray:
    """Row-normalized posterior probabilities for a batch of observations,
    one row per row of ``points`` (a single point is one row).

    Combines the prior with the Monte Carlo predictive densities in log
    space, then exponentiates and normalizes.

    Raises
    ------
    OutOfRange
        If a point has a NaN or infinite coordinate; the message names the
        first such row.
    DimensionMismatch
        If the points have more than two axes or not the model's dimension,
        or the prior does not cover its categories.
    InvalidDistribution, AllZeroMass
        As ``posterior_from_log_densities``.
    """
    z = np.atleast_2d(np.asarray(points, dtype=float))
    if z.ndim > 2:
        raise DimensionMismatch(f"points have shape {z.shape}, expected (rows, {model.dim})")
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise OutOfRange(f"observation at row {bad[0] + 1} is not finite")
    return posterior_from_log_densities(_log_densities(model, z), prior)


def sample_mixture(
    model: GaussianCategoryModel, prior, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (observation, true category) pairs from the fitted mixture.

    Categories come from the prior; an observation from category i picks
    one cached (mean, covariance) draw uniformly and samples a Gaussian
    from it, which is exactly a draw from the Monte Carlo predictive.
    Returns the points and their 1-based categories.  Each category's
    generator calls come first, whole; its picked factors are then
    gathered and applied in blocks of ``_BUDGET // (d d)`` rows (at least
    one), so no (samples, d, d) copy is held at once.
    """
    pi = check_prior(prior, model.n_categories)
    cats = rng.choice(model.n_categories, size=n_samples, p=pi)
    points = np.empty((n_samples, model.dim))
    step = max(1, _BUDGET // (model.dim * model.dim))
    for i in range(model.n_categories):
        rows = np.flatnonzero(cats == i)
        if rows.size == 0:
            continue
        draws = model.draws[i]
        which = rng.integers(0, draws.n_draws, size=rows.size)
        eps = rng.standard_normal((rows.size, model.dim, 1))
        for start in range(0, rows.size, step):
            block = slice(start, start + step)
            w = which[block]
            points[rows[block]] = draws.means[w] + (draws.chols[w] @ eps[block])[:, :, 0]
    return points, cats + 1


def check_audit_samples(n_samples: int) -> None:
    """Raise ``OutOfRange`` unless the audit's ``n_samples`` lies in 1..``MAX_SAMPLES``."""
    if n_samples < 1:
        raise OutOfRange(f"need at least one audit sample, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise OutOfRange(f"need at most {MAX_SAMPLES} audit samples, got {n_samples}")


def check_delta(delta: float) -> None:
    """Raise ``OutOfRange`` unless the miss rate ``delta`` lies in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise OutOfRange(f"delta {delta} outside (0, 1)")


def _own_category_scores(
    model: GaussianCategoryModel, prior, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Posterior probability of each mixture draw's own category.

    Every sample is drawn first, so the generator stream does not depend on
    the blocking.  The samples are then scored in blocks of ``_BUDGET //
    N`` rows (at least one), so no (samples, N) posterior matrix is held
    at once.
    """
    points, cats = sample_mixture(model, prior, n_samples, rng)
    scores = np.empty(n_samples)
    step = max(1, _BUDGET // model.n_categories)
    for start in range(0, n_samples, step):
        block = slice(start, start + step)
        try:
            post = posterior_matrix(model, prior, points[block])
        except AllZeroMass as exc:
            raise AllZeroMass(start + exc.row) from None
        scores[block] = post[np.arange(post.shape[0]), cats[block] - 1]
    return scores


def calibrate_conformal_cost(
    model: GaussianCategoryModel, prior, delta: float, n_samples: int, seed: int
) -> float:
    """Cost threshold making the set miss the truth a delta fraction of the time.

    Draws ``n_samples`` (observation, category) pairs from the fitted
    mixture, scores each by the posterior probability of its category, and
    returns the lower empirical delta-quantile of the scores: the
    floor(delta M)-th smallest of the M scores, or 0 when delta < 1/M, so a
    tiny delta excludes nothing.  Reporting every category whose posterior
    probability reaches the returned cost then covers the truth with
    probability about 1 - delta under the model.  As delta grows the cost
    grows and the sets shrink.  A delta outside (0, 1) or fewer than 100
    or more than ``MAX_SAMPLES`` samples are refused before any sampling.
    """
    check_delta(delta)
    if n_samples < 100:
        raise OutOfRange(f"need at least 100 calibration samples, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise OutOfRange(f"need at most {MAX_SAMPLES} calibration samples, got {n_samples}")
    rng = np.random.default_rng([int(seed), 0])
    scores = np.sort(_own_category_scores(model, prior, n_samples, rng))
    j = math.floor(delta * n_samples)
    return float(scores[j - 1]) if j else 0.0


def conformal_coverage(
    model: GaussianCategoryModel, prior, cost: float, n_samples: int, seed: int
) -> float:
    """Fraction of fresh mixture draws whose category survives the cost cut.

    Uses a sampling stream distinct from ``calibrate_conformal_cost``'s
    even for an identical seed, so calibrating and auditing with one seed
    still gives an honest fresh-sample estimate.  A sample count outside
    1..``MAX_SAMPLES`` is refused before any sampling.
    """
    check_audit_samples(n_samples)
    rng = np.random.default_rng([int(seed), 1])
    return float(np.mean(_own_category_scores(model, prior, n_samples, rng) >= cost))


#: Most draws a model file, or ``fit``'s and ``tune``'s ``--draws``, may ask
#: for: 100 times ``fit``'s default.  A category's draws are held as several
#: (draws, d, d) arrays at once, 7.2 MB each at the limit and d = 3, so
#: memory stays bounded whatever the input.
MAX_DRAWS = 100_000

#: Most samples ``calibrate_conformal_cost`` or ``conformal_coverage`` may
#: draw, and most rows a generator spec's category may ask for: 100 times
#: ``conformal``'s default ``--samples``.  Each sample holds a point and
#: its category, so memory stays bounded whatever the input.
MAX_SAMPLES = 1_000_000


def model_to_json(model: GaussianCategoryModel) -> dict:
    """JSON form of a fitted model: hyperparameters plus (n_draws, seed).

    The Monte Carlo draws are regenerated on load, never stored, so the
    file stays small and the round trip is still bit-exact.
    """
    return {
        "format": "setbayes-model",
        "dim": model.dim,
        "n_draws": model.n_draws,
        "seed": model.seed,
        "block_sizes": list(model.space.block_sizes),
        "categories": [
            {
                "mean": list(post.mean),
                "kappa": post.kappa,
                "dof": post.dof,
                "scatter": [list(row) for row in post.scatter],
            }
            for post in model.posteriors
        ],
    }


def model_from_json(obj: dict) -> GaussianCategoryModel:
    """Rebuild a model from ``model_to_json`` output, checking it before any draw."""
    if not isinstance(obj, dict) or obj.get("format") != "setbayes-model":
        raise ValueError("not a setbayes model object")
    _, dim, n_draws, seed, block_sizes, categories = json_fields(obj, "model", (
        ("format", str), ("dim", int), ("n_draws", int), ("seed", int),
        ("block_sizes", list[int]), ("categories", list[dict]),
    ))
    if not 1 <= n_draws <= MAX_DRAWS:
        raise ValueError(f"'n_draws' must be an integer in 1..{MAX_DRAWS}, got {n_draws!r}")
    if seed < 0:
        raise ValueError(f"'seed' must be a non-negative integer, got {seed!r}")
    space = CategorySpace(sum(block_sizes), block_sizes)
    fields = (("mean", list[float]), ("kappa", float), ("dof", float), ("scatter", list[list[float]]))
    posteriors = tuple(
        NormalInverseWishart(*json_fields(cat, f"model category {i}", fields))
        for i, cat in enumerate(categories, start=1)
    )
    if len(posteriors) != space.n_categories:
        raise ValueError("model categories do not match the block sizes")
    if any(post.dim != dim for post in posteriors):
        raise ValueError(f"'dim' must be every category's mean length, got {dim!r}")
    return GaussianCategoryModel(posteriors, n_draws, seed, space)
