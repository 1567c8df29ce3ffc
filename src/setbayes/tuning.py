"""Leave-one-out tuning of the blockwise cost parameters.

The cross-validated quality of a cost pair (within, cross) is a weighted
average of 0/1 scores over held-out observations, with the cross cost
swept along a grid while the within cost stays a fixed multiple
``epsilon`` of it.  Refitting touches only the left-out observation's
category, so each fold is one conjugate update plus a fresh Monte Carlo
sample for that category; every other category keeps the full-fit draws.
The folds of one category run together, as a rank-one downdate of the
category's scatter and batches of draws sized by a memory budget.

The held-out posterior matrix is computed and ranked once.  A fold's
score is a step function of the cost, so one bisection, started from a
few ulps around each join test's closed-form cost, finds the costs at
which each fold scores 1, and a rate is then a sum of weight times count
over the folds' distinct weights, rounded once.  Two rules select the
cost: the largest grid cost whose error stays under a bound (for scores
whose error grows with the cost), and the exact minimum of the
piecewise-constant error over the grid's range (for the singleton-style
scores), rated at the right end of each piece between interval ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CategorySpace, Ranking
from .core import PosteriorVector  # unused here, but bench/tracing.py wraps tuning.PosteriorVector
from .errors import (
    CategoryTooSmall,
    DimensionMismatch,
    MissingRealPrior,
    NoFeasibleB,
    OutOfRange,
)
from .gaussian import (
    NormalInverseWishart,
    TrainingData,
    check_delta,
    check_prior,
    held_out_log_densities,
    posterior_from_log_densities,
)
from .gaussian import conjugate_update  # unused here, but bench/tracing.py wraps tuning.conjugate_update
from .gaussian import draw_category_sample  # unused here, but bench/tracing.py wraps tuning.draw_category_sample
from .rewards import BinaryReward, CompositeProportion

#: Most points a ``CVConfig`` cost grid may have: a larger grid would run
#: for minutes or fail to allocate its curves after all the folds.
MAX_GRID_POINTS = 10**6

#: Half-width, in ulps, of the bracket around each closed-form join cost
#: that ``HeldOutPosteriors.join_limits`` bisects: its rounding error
#: is a few ulps, and 32 ulps take five steps.
BRACKET_ULPS = 16


def make_weights(kind: str, counts, real_prior=None) -> np.ndarray:
    """Category weights summing to one.

    ``per_observation`` weights categories by their sample counts, so every
    observation counts equally.  ``per_category`` weights categories
    equally regardless of size.  ``rarity`` weights categories by the
    inverse of their real-world frequencies ``real_prior``, which only
    this kind reads.

    Parameters
    ----------
    kind : {"per_observation", "per_category", "rarity"}
    counts : sequence of int
        Per-category sample sizes.
    real_prior : sequence of float, optional
        Real-world category frequencies, for ``rarity`` only.

    Raises
    ------
    OutOfRange
        For an unknown kind, negative or non-finite counts, ``real_prior``
        with another kind than ``rarity``, or nonpositive or non-finite
        frequencies.
    MissingRealPrior
        If ``rarity`` comes without real-world frequencies.
    """
    if kind not in ("per_observation", "per_category", "rarity"):
        raise OutOfRange(f"unknown weighting scheme {kind!r}")
    if real_prior is not None and kind != "rarity":
        raise OutOfRange(f"real-world frequencies apply to rarity weights, not {kind!r}")
    n = np.asarray(counts, dtype=float)
    if n.ndim != 1 or n.size < 1 or not np.all((n >= 0) & np.isfinite(n)):
        raise OutOfRange(f"counts must be finite and nonnegative, got {counts!r}")
    if kind == "per_observation":
        total = n.sum()
        if total <= 0:
            raise OutOfRange("counts sum to zero")
        return n / total
    if kind == "per_category":
        return np.full(n.size, 1.0 / n.size)
    if real_prior is None:
        raise MissingRealPrior("rarity weighting needs real-world frequencies")
    f = np.asarray(real_prior, dtype=float)
    if f.shape != n.shape:
        raise DimensionMismatch(f"frequencies have shape {f.shape}, counts {n.shape}")
    if np.any(f <= 0) or not np.all(np.isfinite(f)):
        raise OutOfRange("real-world frequencies must be positive and finite")
    inv = 1.0 / f
    return inv / inv.sum()


@dataclass(frozen=True)
class CVConfig:
    """Settings for sweeping and selecting the cost over held-out posteriors.

    ``epsilon`` ties the within-block cost to the swept cross-block cost:
    within = epsilon * cross at every grid point, so epsilon * ``grid_hi``
    must be finite.  ``delta`` is the error bound used by the threshold
    selection rule.  The grid runs from ``grid_lo`` to ``grid_hi`` in steps
    of ``grid_step``, with at most ``MAX_GRID_POINTS`` points.  The score a
    selection rule reads is its own argument, and the Monte Carlo draws and
    the seed of the held-out posteriors are arguments of ``loocv_posteriors``.
    """

    epsilon: float
    delta: float
    grid_lo: float
    grid_hi: float
    grid_step: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise OutOfRange(f"epsilon must be nonnegative, got {self.epsilon}")
        check_delta(self.delta)
        if not 0.0 < self.grid_lo <= self.grid_hi < math.inf:
            raise OutOfRange(
                f"grid needs 0 < lo <= hi < inf, got lo={self.grid_lo} hi={self.grid_hi}"
            )
        if not 0.0 < self.grid_step < math.inf:
            raise OutOfRange(f"grid step must be positive and finite, got {self.grid_step}")
        # join_limits tries the within cost at epsilon times the float above grid_hi
        if not math.isfinite(float(self.epsilon) * math.nextafter(self.grid_hi, math.inf)):
            raise OutOfRange(f"epsilon {self.epsilon} times the grid's top {self.grid_hi} overflows")
        if self._n_points() > MAX_GRID_POINTS:
            raise OutOfRange(
                f"grid from {self.grid_lo} to {self.grid_hi} in steps of {self.grid_step} "
                f"has {self._n_points():.3g} points, more than {MAX_GRID_POINTS}"
            )

    def _n_points(self) -> float:
        # A float, so that a count too large for an integer still compares.
        return float(np.floor((self.grid_hi - self.grid_lo) / self.grid_step + 1e-9)) + 1.0

    def grid(self) -> np.ndarray:
        """The cost grid lo, lo + step, ..., up to hi inclusive."""
        points = self.grid_lo + self.grid_step * np.arange(int(self._n_points()))
        return np.minimum(points, self.grid_hi)  # the last step may round past hi


@dataclass(eq=False)
class HeldOutPosteriors:
    """Held-out posterior matrix, one row per (category, row) fold."""

    matrix: np.ndarray
    categories: np.ndarray
    counts: tuple[int, ...]
    space: CategorySpace

    @property
    def n_folds(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _ranked(self) -> Ranking:
        return Ranking(self.matrix, self.space)

    def fold_weights(self, weights: np.ndarray) -> np.ndarray:
        """Per-fold weight w_k / n_k, the same for every fold of category k."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.space.n_categories,):
            raise DimensionMismatch(
                f"weights have shape {w.shape}, expected ({self.space.n_categories},)"
            )
        n = np.asarray(self.counts, dtype=float)
        return w[self.categories - 1] / n[self.categories - 1]

    def binary_scores(self, within_cost: float, cross_cost: float) -> dict[BinaryReward, np.ndarray]:
        """0/1 score of each fold under all four scores at one cost pair.

        Every fold is classified with the composite rule that
        ``composite_classifier`` applies, over the ranking built once.
        """
        m = CompositeProportion.block_sizes(self._ranked, float(within_cost), float(cross_cost))
        sizes = m.sum(axis=1)
        rows, truth = np.arange(self.n_folds), self.categories - 1
        m_true = m[rows, self.space.block_index[truth]]
        contains = self._ranked.rank[rows, truth] < m_true
        return {
            BinaryReward.EXACT_SINGLETON: (contains & (sizes == 1)).astype(float),
            BinaryReward.WITHIN_BLOCK: (contains & (sizes == m_true)).astype(float),
            BinaryReward.CONTAINS_TRUTH: contains.astype(float),
            BinaryReward.HITS_TRUE_BLOCK: (m_true >= 1).astype(float),
        }

    def join_limits(self, epsilon: float, lo: float, hi: float) -> np.ndarray:
        """J[r, k, j], the largest float b in [lo, hi] at which block k's j-th
        category of fold r joins at costs (epsilon * b, b), or the float below
        lo if none; shape (R, K, W), for 0 < lo <= hi.

        The join test of ``CompositeProportion.joins`` fails from some cost
        on, so it holds exactly up to J.  J is bisected over the int64 bits
        of b, which positive floats sort in, from a bracket of
        ``BRACKET_ULPS`` around the closed form
        ``CompositeProportion.join_costs``: the test must hold at the
        bracket's lower end and fail at its upper end, and a side that does
        not is widened to the range's end, so a bad guess costs steps, never
        bits.
        """
        ranked = self._ranked
        first, last = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
        guess = np.clip(CompositeProportion.join_costs(ranked, epsilon).view(np.int64), first, last)
        below = np.maximum(guess - BRACKET_ULPS, first - 1)
        above = np.minimum(guess + BRACKET_ULPS, last + 1)
        b = below.view(np.float64)
        below[(below >= first) & ~CompositeProportion.joins(ranked, epsilon * b, b)] = first - 1
        b = above.view(np.float64)
        above[(above <= last) & CompositeProportion.joins(ranked, epsilon * b, b)] = last + 1
        for _ in range(int((above - below).max(initial=1) - 1).bit_length()):
            mid = below + (above - below) // 2
            b = mid.view(np.float64)
            holds = CompositeProportion.joins(ranked, epsilon * b, b)
            below, above = np.where(holds, mid, below), np.where(holds, above, mid)
        return below.view(np.float64)

    def score_intervals(
        self, epsilon: float, lo: float, hi: float
    ) -> dict[BinaryReward, tuple[np.ndarray, np.ndarray]]:
        """Per-fold cost intervals (L, R] of all four scores, for 0 < lo <= hi.

        Fold f scores 1 under ``binary_scores(epsilon * b, b)`` exactly when
        L[f] < b <= R[f], for every b in [lo, hi].  They are read from
        ``join_limits``: a later category joins only with the first, so
        block k is nonempty while b <= J[k, 0].
        """
        J = self.join_limits(epsilon, lo, hi)
        ranked = self._ranked
        rows, truth = np.arange(self.n_folds), self.categories - 1
        kt = self.space.block_index[truth]
        contained = J[rows, kt, ranked.rank[rows, truth]]
        others = J[:, :, 0].copy()
        others[rows, kt] = -np.inf
        alone = others.max(axis=1)  # every other block is empty above this
        two = J[rows, kt, 1:2].max(axis=1, initial=-np.inf)  # the true block holds two up to this
        return {
            BinaryReward.EXACT_SINGLETON: (np.maximum(alone, two), contained),
            BinaryReward.WITHIN_BLOCK: (alone, contained),
            BinaryReward.CONTAINS_TRUTH: (np.full(self.n_folds, -np.inf), contained),
            BinaryReward.HITS_TRUE_BLOCK: (np.full(self.n_folds, -np.inf), J[rows, kt, 0]),
        }


def loocv_posteriors(
    data: TrainingData,
    space: CategorySpace,
    prior,
    hyperprior: NormalInverseWishart | None = None,
    n_draws: int = 200,
    seed: int = 0,
) -> HeldOutPosteriors:
    """Held-out posterior vector of every observation.

    For each fold only the left-out observation's category is refitted (an
    exact conjugate update on the remaining rows) and redrawn; the other
    categories reuse the full fit.  ``gaussian.held_out_log_densities``
    gives every fold's log densities, on up to one worker per CPU, and
    ``posterior_from_log_densities`` turns them into rows, with the same
    fixed ``prior`` for every fold.

    Raises
    ------
    CategoryTooSmall
        If any category has fewer than two observations.
    DimensionMismatch, InvalidDistribution
        If the prior is not a probability vector over the categories, or
        the space does not cover them; this is checked before any fold
        runs.
    SingularScatter
        If a fold's posterior scatter is not positive definite.
    """
    check_prior(prior, data.n_categories)
    if space.n_categories != data.n_categories:
        raise DimensionMismatch(f"space has {space.n_categories} categories, data {data.n_categories}")
    counts = data.counts
    if min(counts) < 2:
        raise CategoryTooSmall(
            f"every category needs at least 2 observations for leave-one-out, got {counts}"
        )
    post = posterior_from_log_densities(held_out_log_densities(data, hyperprior, n_draws, seed), prior)
    return HeldOutPosteriors(post, data.stacked()[1], counts, space)


@dataclass(frozen=True)
class CVReport:
    """Reward-rate curves of all four binary scores along the cost grid,
    with the settings, fold score intervals and fold weights that
    produced them, which the selection rules read."""

    grid: np.ndarray
    rates: dict[BinaryReward, np.ndarray]
    config: CVConfig
    intervals: dict[BinaryReward, tuple[np.ndarray, np.ndarray]]
    fold_weights: np.ndarray

    def non_reward(self, variant: BinaryReward) -> np.ndarray:
        return 1.0 - self.rates[variant]

    def rate_rows(self) -> list[tuple[float, float, float, float, float]]:
        """(cost, rate_R1..rate_R4) rows in grid order, for CSV export."""
        return [
            (
                float(self.grid[idx]),
                *(float(self.rates[v][idx]) for v in BinaryReward),
            )
            for idx in range(self.grid.size)
        ]


def _rates(fold_w: np.ndarray, interval: tuple[np.ndarray, np.ndarray], costs: np.ndarray) -> np.ndarray:
    """Exact weighted rate of one score at each of ``costs``, rounded once
    and clamped to [0, 1].  Live folds (L < R) of equal weight form a
    group, which scores #(L < b) - #(R < b) folds at b.  Veltkamp's split
    (Dekker 1971) cuts each weight into halves of at most 26 significant
    bits, so half x count is exact while a group holds fewer than 2**26
    folds, and ``math.fsum`` rounds the sum of those terms once.
    """
    live = interval[0] < interval[1]
    lower, upper = interval[0][live], interval[1][live]
    weights, group = np.unique(fold_w[live], return_inverse=True)
    counts = np.zeros((weights.size, costs.size))
    for g in range(weights.size):
        counts[g] = (np.searchsorted(np.sort(lower[group == g]), costs)
                     - np.searchsorted(np.sort(upper[group == g]), costs))
    scaled = weights * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - weights)
    terms = np.concatenate([high[:, None] * counts, (weights - high)[:, None] * counts])
    return np.array([min(1.0, max(0.0, math.fsum(t))) for t in terms.T.tolist()])


def evaluate_curves(
    config: CVConfig, held: HeldOutPosteriors, weights: np.ndarray
) -> CVReport:
    """Sweep the cost grid over one set of held-out posteriors.

    ``weights`` are the per-category weights from ``make_weights``.
    """
    grid = config.grid()
    fold_w = held.fold_weights(weights)
    intervals = held.score_intervals(config.epsilon, grid[0], grid[-1])
    curves = {v: _rates(fold_w, intervals[v], grid) for v in BinaryReward}
    return CVReport(grid, curves, config, intervals, fold_w)


@dataclass(frozen=True)
class ThresholdSelection:
    """Largest grid cost keeping the non-reward rate under the bound."""

    cost: float
    non_reward_rate: float
    at_grid_top: bool

    def display(self) -> str:
        text = f"{self.cost:.2f}"
        return f">= {text}" if self.at_grid_top else text


def select_b_threshold(report: CVReport, variant: BinaryReward) -> ThresholdSelection:
    """Pick the largest grid cost whose non-reward rate of ``variant`` is
    at most the report's delta.

    Only meaningful for the two scores whose non-reward rate grows with
    the cost (truth containment and true-block hit); the curve is checked
    for that monotonicity before selecting.  When even the top of the grid
    satisfies the bound the selection is flagged, since any larger cost
    would satisfy it as well.

    Raises
    ------
    NoFeasibleB
        If no grid point satisfies the bound.
    """
    if variant not in (BinaryReward.CONTAINS_TRUTH, BinaryReward.HITS_TRUE_BLOCK):
        raise OutOfRange(
            "threshold selection applies to the containment scores; "
            "use select_b_minimize for the singleton-style scores"
        )
    delta = report.config.delta
    curve = report.non_reward(variant)
    if np.any(np.diff(curve) < 0):
        raise AssertionError(
            "non-reward rate decreased along the cost grid; this should be "
            "impossible for containment scores"
        )
    feasible = np.flatnonzero(curve <= delta)
    if feasible.size == 0:
        raise NoFeasibleB(f"no grid cost keeps the non-reward rate within {delta}")
    idx = int(feasible[-1])
    return ThresholdSelection(
        float(report.grid[idx]),
        float(curve[idx]),
        idx == report.grid.size - 1,
    )


@dataclass(frozen=True)
class MinimizeSelection:
    """Smallest cost minimizing the non-reward rate over the grid's range."""

    cost: float
    non_reward_rate: float


def select_b_minimize(report: CVReport, variant: BinaryReward) -> MinimizeSelection:
    """The exact minimum of the non-reward rate of ``variant`` over
    [grid[0], grid[-1]], at the smallest cost that reaches it.

    The rate is constant between consecutive ends of the folds' score
    intervals, so each piece is rated at its right end (grid[-1] for the
    last), exactly as the curve is.  The cost is grid[0] for the first
    piece, else the float just above the previous end.
    """
    if variant not in (BinaryReward.EXACT_SINGLETON, BinaryReward.WITHIN_BLOCK):
        raise OutOfRange(
            "rate minimization applies to the singleton-style scores; "
            "use select_b_threshold for the containment scores"
        )
    lo, hi = report.grid[0], report.grid[-1]
    lower, upper = report.intervals[variant]
    ends = np.concatenate([lower[lower < upper], upper[lower < upper]])
    ends = np.unique(ends[(lo <= ends) & (ends < hi)])
    non_reward = 1.0 - _rates(report.fold_weights, report.intervals[variant], np.append(ends, hi))
    idx = int(np.argmin(non_reward))
    cost = lo if idx == 0 else np.nextafter(ends[idx - 1], np.inf)
    return MinimizeSelection(float(cost), float(non_reward[idx]))
