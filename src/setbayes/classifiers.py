"""Optimal set-valued classifiers for the reward families in ``rewards``.

``optimal_sets`` is the batched decision path: it applies a family's
optimal rule to every row of a posterior matrix at once and scores the
chosen sets by their expected reward.  The per-row functions here are
one-row calls of the same rules.  For size-penalized rewards the optimum
is always one of the N+1 "take the m most probable categories" sets, which
reduces the search to a scan over m; convex penalties admit an even
shorter threshold rule.  ``brute_force_optimal`` ignores all of that
structure and scores every subset through the families' reward
definitions, which is what the fast paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import ClassifiedSet, PosteriorVector, posterior_rows
from .errors import OutOfRange, TooManyCategories
from .rewards import (
    CompositeProportion,
    InvariantPenalty,
    MapZeroOne,
    PenaltySequence,
    ProportionBased,
    RewardSpec,
    check_cost,
    value_function,  # unused here, but bench/tracing.py wraps classifiers.value_function
    weighted_sum,
)

#: Exhaustive subset search is refused above this many categories.
BRUTE_FORCE_LIMIT = 20
#: Subsets the exhaustive search scores at once, which bounds its memory.
_MASK_CHUNK = 1 << 14


@dataclass(frozen=True)
class Decision:
    """A chosen set with its expected reward and its member count per block."""

    chosen: ClassifiedSet
    value: float
    block_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.chosen.size


def _decide(spec: RewardSpec, P: np.ndarray, space) -> tuple[np.ndarray, np.ndarray]:
    spec.check(space)
    members = spec.decide(P, space)
    return members, spec.expected(P, members, space)


def optimal_sets(spec: RewardSpec, P, space) -> tuple[np.ndarray, np.ndarray]:
    """Optimal set and its expected reward for every row of a posterior matrix.

    The (R, N) rows ``P`` are validated and renormalized as
    ``PosteriorVector`` does for one.  Returns the (R, N) boolean matrix
    ``members``, True where category i + 1 is in row r's set, and the (R,)
    expected rewards, with the bits ``value_function`` gives each set.
    """
    return _decide(spec, posterior_rows(P, space), space)


def _decision(mask: np.ndarray, value: float, space) -> Decision:
    per_block = space.block_counts(mask)
    chosen = ClassifiedSet.of((np.flatnonzero(mask) + 1).tolist(), space.n_categories)
    return Decision(chosen, float(value), tuple(int(m) for m in per_block))


def _one_row(spec: RewardSpec, p: PosteriorVector) -> Decision:
    members, values = _decide(spec, p.p[None, :], p.space)
    return _decision(members[0], values[0], p.space)


def optimal_set(spec: RewardSpec, p: PosteriorVector) -> tuple[ClassifiedSet, float]:
    """The optimal set of one posterior vector and its expected reward.

    The value is computed by the same expected-reward sum as
    ``value_function``, so it is consistent across reward families.
    """
    decision = _one_row(spec, p)
    return decision.chosen, decision.value


def map_classifier(p: PosteriorVector) -> ClassifiedSet:
    """The single most probable category (ties: smallest index)."""
    return _one_row(MapZeroOne(), p).chosen


def mmp_general(p: PosteriorVector, penalty: PenaltySequence) -> Decision:
    """Best most-probable-categories set for an arbitrary size penalty.

    Scans all sizes m = 0..N of the expected reward, the total probability
    of the m most probable categories minus g(m), and keeps the maximizer,
    preferring the larger m when several sizes tie exactly.

    Parameters
    ----------
    p : PosteriorVector
    penalty : PenaltySequence
        Must cover sizes 0..N.  No convexity is assumed.

    Returns
    -------
    Decision
    """
    return _one_row(InvariantPenalty(replace(penalty, convex=False)), p)


def mmp_convex(p: PosteriorVector, penalty: PenaltySequence) -> Decision:
    """Threshold form of ``mmp_general`` for convex penalties.

    With convex g the objective is concave in m, so the best size is the
    last m whose marginal gain is still nonnegative: include the m-th most
    probable category exactly while its probability covers the penalty
    increment g(m) - g(m-1).

    Raises
    ------
    NotConvex
        If the penalty fails verification (g(0) = 0 and nondecreasing
        increments, up to a 1e-12 slack).
    """
    return _one_row(InvariantPenalty(replace(penalty, convex=True)), p)


def proportion_classifier(p: PosteriorVector, cost: float) -> Decision:
    """Best set when each reported category beyond the first costs ``cost``.

    The most probable category is always included, and category number
    m >= 2 joins exactly while its probability is at least ``cost``.  With
    ``cost`` above the top probability this is the plain single-category
    rule; with ``cost`` = 0 the whole space is reported.
    """
    return _one_row(ProportionBased(cost), p)


def rho_classifier(p: PosteriorVector, ratio: float) -> ClassifiedSet:
    """All categories whose probability is at least ``ratio`` times the maximum.

    A scale-free reparametrization of ``proportion_classifier``: the same
    set comes back for every posterior that is a rescaling of ``p``.  With
    ``ratio`` = 1 this is the most probable category plus its exact ties;
    with ``ratio`` = 0 it is the whole space.
    """
    ratio = float(ratio)
    if not np.isfinite(ratio) or not 0.0 <= ratio <= 1.0:
        raise OutOfRange(f"ratio {ratio} outside [0, 1]")
    members = np.flatnonzero(p.p >= ratio * p.max_prob()) + 1
    return ClassifiedSet.of(members.tolist(), p.n_categories)


def conformal_classifier(p: PosteriorVector, cost: float) -> ClassifiedSet:
    """All categories with probability at least ``cost``; may be empty.

    Equivalent to ``mmp_convex`` with the linear penalty cost * m.  The
    returned set shrinks as ``cost`` grows, so a calibrated ``cost``
    controls how often the true category is dropped.
    """
    members = np.flatnonzero(p.p >= check_cost(cost)) + 1
    return ClassifiedSet.of(members.tolist(), p.n_categories)


def composite_classifier(
    p: PosteriorVector, within_cost: float, cross_cost: float
) -> Decision:
    """Blockwise optimal set under within/cross block category costs.

    The objective separates over blocks; ``CompositeProportion.block_sizes``
    states the per-block thresholds.

    Returns
    -------
    Decision
        The union of the per-block choices, the per-block sizes, and the
        achieved expected reward.
    """
    return _one_row(CompositeProportion(within_cost, cross_cost), p)


def check_exhaustive(space) -> None:
    """Raise unless ``brute_force_optimal`` can search the subsets of ``space``.

    Raises
    ------
    TooManyCategories
        If the space has more than ``BRUTE_FORCE_LIMIT`` categories.
    """
    n = space.n_categories
    if n > BRUTE_FORCE_LIMIT:
        raise TooManyCategories(f"{n} categories exceed the enumeration limit {BRUTE_FORCE_LIMIT}")


@lru_cache(maxsize=8)
def _subsets(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership rows of the bitmasks ``start..stop - 1`` over ``n``
    categories, bit j meaning category j + 1, and each row's size.  Cached,
    read-only, so that repeated one-row searches build them once."""
    members = (np.arange(start, stop)[:, None] >> np.arange(n) & 1) == 1
    members.setflags(write=False)
    return members, members.sum(axis=1)


def _exhaustive(spec: RewardSpec, P: np.ndarray, space) -> tuple[np.ndarray, np.ndarray]:
    """Best subset and its value for every row of the renormalized ``P``,
    under ``brute_force_optimal``'s tie rule.

    Each chunk of at most ``_MASK_CHUNK`` subsets builds its rewards table
    once and scores it against blocks of rows, each block holding at most
    ``_MASK_CHUNK`` values, which bounds the memory.
    """
    check_exhaustive(space)
    spec.check(space)
    n = space.n_categories
    best = np.empty(len(P), dtype=np.int64)
    best_value = np.empty(len(P))
    best_size = np.empty(len(P), dtype=np.int64)
    for start in range(0, 1 << n, _MASK_CHUNK):
        members, sizes = _subsets(n, start, min(start + _MASK_CHUNK, 1 << n))
        table = spec.rewards(members, space)
        step = _MASK_CHUNK // len(members)
        for lo in range(0, len(P), step):
            rows = slice(lo, lo + step)
            values = weighted_sum(table, P[rows, None, :])
            top = values.max(axis=1)
            # the largest set of the best value, the first of which has the smallest bitmask
            k = np.argmax(np.where(values == top[:, None], sizes, -1), axis=1)
            found = (start + k, top, sizes[k])
            if start:  # later chunks hold larger bitmasks, so they win on value or size alone
                held = (best[rows], best_value[rows], best_size[rows])
                wins = (top > held[1]) | (top == held[1]) & (found[2] > held[2])
                found = [np.where(wins, f, h) for f, h in zip(found, held)]
            best[rows], best_value[rows], best_size[rows] = found
    return (best[:, None] >> np.arange(n) & 1) == 1, best_value


def exhaustive_sets(spec: RewardSpec, P, space) -> tuple[np.ndarray, np.ndarray]:
    """``brute_force_optimal`` for every row of a posterior matrix.

    The rows are validated and renormalized as ``optimal_sets`` does.
    Returns the (R, N) membership matrix and the (R,) values, with the
    sets and bits that ``brute_force_optimal`` gives each row.
    """
    return _exhaustive(spec, posterior_rows(P, space), space)


def brute_force_optimal(spec: RewardSpec, p: PosteriorVector) -> Decision:
    """Maximize expected reward by checking every subset of categories.

    Every subset is scored through the family's reward definition, with
    the same expected-reward sum as ``value_function``.  Exponential in N
    and refused above ``BRUTE_FORCE_LIMIT`` categories.  Among sets of equal
    value the largest wins, then the smallest bitmask, where bit j of the
    mask means category j + 1 is in the set; on exact ties this is the set
    the fast rules pick.

    Raises
    ------
    TooManyCategories
        As ``check_exhaustive`` says.
    """
    members, values = _exhaustive(spec, p.p[None, :], p.space)
    return _decision(members[0], values[0], p.space)
