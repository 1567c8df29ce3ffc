"""Reward functions over (classified set, true category) pairs.

A reward specification pins down how much credit a classified set earns
when the truth is category i.  The expected reward of a set under a
posterior vector is the quantity every classifier in this package
maximizes, so the specifications here are the single source of truth for
what "optimal" means downstream.  Each family is one ``RewardSpec``
subclass, and adding a family means writing one such class.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import CategorySpace, ClassifiedSet, PosteriorVector, Ranking, json_fields
from .errors import (
    DimensionMismatch,
    NotConvex,
    OutOfRange,
    SpecSpaceMismatch,
)

#: Slack used when verifying penalty convexity, absorbing float rounding in
#: sequences such as 0.3*m whose exact second differences are zero.
CONVEXITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PenaltySequence:
    """Nonnegative penalty g(m) charged for reporting a set of size m.

    Parameters
    ----------
    values : tuple of float
        g(0), g(1), ..., g(N).  All entries must be >= 0.
    convex : bool
        Declare that g(0) = 0 and the increments g(m) - g(m-1) are
        nondecreasing.  The declaration is verified on construction and
        unlocks the threshold fast path in the classifiers.
    """

    values: tuple[float, ...]
    convex: bool = False

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise DimensionMismatch("penalty needs entries for sizes 0..N with N >= 1")
        if any(not np.isfinite(v) or v < 0.0 for v in vals):
            raise OutOfRange(f"penalties must be finite and nonnegative: {vals}")
        object.__setattr__(self, "values", vals)
        if self.convex and not _convexity_holds(vals):
            raise NotConvex(f"sequence {vals} declared convex but is not")

    @property
    def max_size(self) -> int:
        """Largest set size the sequence covers (the N it was built for)."""
        return len(self.values) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @classmethod
    def proportional(cls, cost: float, n_categories: int) -> "PenaltySequence":
        """g(m) = cost * max(0, m - 1): the first category is free."""
        cost = check_cost(cost)
        return cls(tuple(cost * max(0, m - 1) for m in range(n_categories + 1)), convex=True)


def _convexity_holds(vals: tuple[float, ...]) -> bool:
    if abs(vals[0]) > CONVEXITY_TOLERANCE:
        return False
    g = np.asarray(vals, dtype=float)
    increments = np.diff(g)
    return bool(np.all(np.diff(increments) >= -CONVEXITY_TOLERANCE))


def check_cost(cost: float) -> float:
    """``cost`` as a float; raises ``OutOfRange`` unless finite and nonnegative."""
    cost = float(cost)
    if not np.isfinite(cost) or cost < 0.0:
        raise OutOfRange(f"cost must be finite and nonnegative, got {cost}")
    return cost


#: Every reward family by its JSON ``kind``; subclassing ``RewardSpec`` adds one.
_FAMILIES: dict[str, type[RewardSpec]] = {}


class RewardSpec:
    """A reward family: what a set earns, and the rule that maximizes it.

    A subclass names its JSON ``kind`` in the class statement, which
    registers it, and defines ``check``, ``rewards`` and ``decide``.  The
    expected value, the exhaustive oracle and JSON parsing derive from them.
    """

    kind: ClassVar[str]
    #: JSON parameters in constructor order as ``core.json_fields`` reads
    #: them: (name, type[, default]).
    params: ClassVar[tuple[tuple, ...]] = ()

    def __init_subclass__(cls, kind: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind
        _FAMILIES[kind] = cls

    def check(self, space: CategorySpace) -> None:
        """Raise if the specification cannot score sets over ``space``."""

    def rewards(self, members: np.ndarray, space: CategorySpace) -> np.ndarray:
        """Entry (r, i): what the set in row r of the (R, N) boolean
        ``members`` matrix earns when the truth is category i + 1."""
        raise NotImplementedError

    def decide(self, P: np.ndarray, space: CategorySpace) -> np.ndarray:
        """(R, N) membership matrix of the optimal set for each row of ``P``;
        by default its ``top_size`` most probable categories, the optimum of
        any reward that depends on membership and set size alone."""
        top = Ranking(P)
        return top.rank < self.top_size(top.sorted[:, 0], space)[:, None]

    def top_size(self, desc: np.ndarray, space: CategorySpace) -> np.ndarray:
        """How many categories each row's set takes, from the (R, N) rows
        sorted in decreasing order."""
        raise NotImplementedError

    def expected(self, P: np.ndarray, members: np.ndarray, space: CategorySpace) -> np.ndarray:
        """Expected reward of each set in ``members`` under its row of ``P``
        (one row broadcasts), summed in category order as ``value_function``."""
        return weighted_sum(self.rewards(members, space), P)

    @classmethod
    def from_json_values(cls, *values) -> RewardSpec:
        return cls(*values)


def weighted_sum(table: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The sum over categories i of ``table[..., i] * P[..., i]``, added in
    category order, the leading axes broadcasting against each other."""
    total = 0.0
    for i in range(table.shape[-1]):
        total = total + table[..., i] * P[..., i]
    return total


def _singleton_hits(members: np.ndarray) -> np.ndarray:
    """1 where the set is exactly the true category, 0 elsewhere."""
    return (members & (members.sum(axis=1) == 1)[:, None]).astype(float)


@dataclass(frozen=True)
class MapZeroOne(RewardSpec, kind="map"):
    """Full reward for naming the single true category, nothing otherwise."""

    def rewards(self, members, space):
        return _singleton_hits(members)

    def top_size(self, desc, space):
        return np.ones(len(desc), dtype=np.int64)


@dataclass(frozen=True)
class InvariantPenalty(RewardSpec, kind="penalty"):
    """Membership credit minus a penalty that depends only on the set size.

    A penalty declared convex is served by the threshold rule, any other by
    a scan over the sizes m = 0..N of the m most probable categories.
    """

    penalty: PenaltySequence

    params = (("g", list[float]), ("convex", bool, False))

    @classmethod
    def from_json_values(cls, g, convex):
        return cls(PenaltySequence(g, convex))

    def check(self, space):
        if self.penalty.max_size != space.n_categories:
            raise DimensionMismatch(
                f"penalty covers sizes 0..{self.penalty.max_size}, "
                f"need 0..{space.n_categories}"
            )

    def rewards(self, members, space):
        return members - self.penalty.as_array()[members.sum(axis=1)][:, None]

    def top_size(self, desc, space):
        g = self.penalty.as_array()
        if self.penalty.convex:
            # Concave objective: the last m whose category still covers the
            # increment g(m) - g(m-1) joins, with everything before it.
            keep = desc - np.diff(g) >= 0.0
            return np.where(keep, np.arange(1, g.size), 0).max(axis=1, initial=0)
        cumsum = np.concatenate([np.zeros((len(desc), 1)), np.cumsum(desc, axis=1)], axis=1)
        # the last maximum: exact ties go to the larger size
        return space.n_categories - np.argmax((cumsum - g)[:, ::-1], axis=1)


@dataclass(frozen=True)
class ProportionBased(RewardSpec, kind="proportion"):
    """Membership credit minus ``cost`` per reported category beyond the first."""

    cost: float

    params = (("c", float),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", check_cost(self.cost))

    def rewards(self, members, space):
        size = members.sum(axis=1)
        return members - (self.cost * np.maximum(size - 1, 0))[:, None]

    def top_size(self, desc, space):
        # the best category always; each further one while it is worth the cost
        return 1 + (desc[:, 1:] >= self.cost).sum(axis=1)


@dataclass(frozen=True)
class RipleyReject(RewardSpec, kind="ripley"):
    """Classical reject option: name one category or surrender the whole space.

    A singleton earns 1 when correct; reporting every category earns
    ``reject_reward`` regardless of the truth; anything else earns 0.
    Requires 1/N < reject_reward < 1, checked where N is known.
    """

    reject_reward: float

    params = (("r", float),)

    def __post_init__(self) -> None:
        r = float(self.reject_reward)
        if not np.isfinite(r) or not 0.0 < r < 1.0:
            raise OutOfRange(f"reject reward {r} outside (0, 1)")
        object.__setattr__(self, "reject_reward", r)

    def check(self, space):
        if self.reject_reward <= 1.0 / space.n_categories:
            raise OutOfRange(
                f"reject reward {self.reject_reward} must exceed 1/{space.n_categories}"
            )

    def rewards(self, members, space):
        size = members.sum(axis=1)[:, None]
        rejected = np.where(size == space.n_categories, self.reject_reward, 0.0)
        return np.where(size == 1, members, rejected)

    def top_size(self, desc, space):
        # at equality the full space is preferred: both earn the same
        return np.where(desc[:, 0] > self.reject_reward, 1, space.n_categories)


@dataclass(frozen=True)
class CompositeProportion(RewardSpec, kind="composite"):
    """Blockwise costs: cheap extra categories from the right block, dear ones
    from the wrong blocks.

    ``within_cost`` is charged per reported category beyond the first inside
    the true category's block; ``cross_cost`` per reported category outside
    it.  Setting them equal recovers a plain per-extra-category charge in
    which a nonempty intersection with the true block waives one unit.
    """

    within_cost: float
    cross_cost: float

    params = (("a", float), ("b", float))

    def __post_init__(self) -> None:
        a = check_cost(self.within_cost)
        b = check_cost(self.cross_cost)
        object.__setattr__(self, "within_cost", a)
        object.__setattr__(self, "cross_cost", b)
        if a > b:
            warnings.warn(
                "within-block cost exceeds cross-block cost; same-block "
                "confusions will be punished harder than cross-block ones",
                stacklevel=2,
            )

    def rewards(self, members, space):
        in_block = space.block_counts(members)[:, space.block_index]
        size = members.sum(axis=1)[:, None]
        return (
            members
            - self.within_cost * np.maximum(in_block - 1, 0)
            - self.cross_cost * (size - in_block)
        )

    def decide(self, P, space):
        ranked = Ranking(P, space)
        m = self.block_sizes(ranked, self.within_cost, self.cross_cost)
        return ranked.rank < m[:, space.block_index]

    @staticmethod
    def block_sizes(ranked: Ranking, within_cost: float, cross_cost: float) -> np.ndarray:
        """How many of each block's most probable categories join, shape (R, K):
        the objective separates over blocks, and those that join are a prefix."""
        return CompositeProportion.joins(ranked, within_cost, cross_cost).sum(axis=2)

    @staticmethod
    def joins(ranked: Ranking, within_cost, cross_cost) -> np.ndarray:
        """Whether block k's j-th most probable category joins, shape (R, K, W).

        Writing P_k for the block's mass, the first category joins when its
        probability is at least (1 - P_k) * cross_cost, and each later one
        when its probability is at least P_k * within_cost + (1 - P_k) *
        cross_cost; a category exactly at its threshold joins.  The costs
        are scalars or arrays broadcasting against (R, K, W).
        """
        mass = ranked.mass[:, :, None]
        rest = (1.0 - mass) * cross_cost
        joined = ranked.sorted >= mass * within_cost + rest
        joined[:, :, 0] = ranked.sorted[:, :, 0] >= rest[:, :, 0]
        return joined

    @staticmethod
    def join_costs(ranked: Ranking, epsilon: float) -> np.ndarray:
        """The cross cost b at which each category of ``joins`` sits at its
        threshold when within_cost = epsilon * b, shape (R, K, W).

        It is p / (1 - P_k) for the first and p / (P_k * epsilon + 1 - P_k)
        for each later one, exact only up to rounding, so it is a guess for
        a search with ``joins``; a zero divisor gives inf or nan.
        """
        mass = ranked.mass[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cost = ranked.sorted / (mass * epsilon + 1.0 - mass)
            cost[:, :, 0] = ranked.sorted[:, :, 0] / (1.0 - ranked.mass)
        return cost


@dataclass(frozen=True)
class IndifferenceZone(RewardSpec, kind="indifference_zone"):
    """Singleton-or-nothing scoring with a distinguished zone category.

    The space has N regular categories plus a final zone category N+1.
    Naming the true regular category as a singleton earns 1; reporting the
    empty set earns ``empty_reward`` when the truth is the zone; everything
    else earns 0.
    """

    empty_reward: float

    params = (("r", float),)

    def __post_init__(self) -> None:
        r = float(self.empty_reward)
        if not np.isfinite(r) or r <= 0.0:
            raise OutOfRange(f"empty-set reward {r} must be positive")
        object.__setattr__(self, "empty_reward", r)

    def check(self, space):
        if space.n_categories < 2:
            raise SpecSpaceMismatch("indifference-zone scoring needs a zone plus >= 1 category")

    def rewards(self, members, space):
        out = _singleton_hits(members)
        out[:, -1] = np.where(members.any(axis=1), 0.0, self.empty_reward)
        return out

    def decide(self, P, space):
        # the best regular category (ties: the smaller index), kept at equality
        keep = P[:, :-1].max(axis=1) >= self.empty_reward * P[:, -1]
        members = np.zeros(P.shape, dtype=bool)
        members[np.arange(len(P)), np.argmax(P[:, :-1], axis=1)] = keep
        return members


class BinaryReward(enum.Enum):
    """The four 0/1 scores used for cross-validated error rates.

    EXACT_SINGLETON <= WITHIN_BLOCK <= CONTAINS_TRUTH <= HITS_TRUE_BLOCK
    pointwise, which forces the same ordering on any weighted rate.  The
    members iterate in that order, the column order of the rate curves.
    """

    EXACT_SINGLETON = "R1"
    WITHIN_BLOCK = "R2"
    CONTAINS_TRUTH = "R3"
    HITS_TRUE_BLOCK = "R4"


def _check_set(chosen: ClassifiedSet, space: CategorySpace) -> None:
    if chosen.n_categories != space.n_categories:
        raise SpecSpaceMismatch(
            f"set built for {chosen.n_categories} categories, space has {space.n_categories}"
        )


def reward(
    spec: RewardSpec, chosen: ClassifiedSet, true_category: int, space: CategorySpace
) -> float:
    """Evaluate a reward specification on one (set, truth) pair.

    Parameters
    ----------
    spec : RewardSpec
        Any of the reward families in this module.
    chosen : ClassifiedSet
        The reported set of categories.
    true_category : int
        1-based true category.  For ``IndifferenceZone`` the final category
        of the space plays the role of the zone.
    space : CategorySpace
        Supplies N and the block partition.

    Returns
    -------
    float
    """
    _check_set(chosen, space)
    i = int(true_category)
    if not 1 <= i <= space.n_categories:
        raise OutOfRange(f"true category {i} outside 1..{space.n_categories}")
    spec.check(space)
    return float(spec.rewards(chosen.as_mask()[None, :], space)[0, i - 1])


def value_function(spec: RewardSpec, p: PosteriorVector, chosen: ClassifiedSet) -> float:
    """Expected reward of a candidate set under a posterior vector.

    This is the objective every classifier maximizes; the exhaustive search
    in ``classifiers.brute_force_optimal`` maximizes it by enumeration.
    """
    _check_set(chosen, p.space)
    spec.check(p.space)
    return float(spec.expected(p.p[None, :], chosen.as_mask()[None, :], p.space)[0])


def reward_spec_from_json(obj: dict) -> RewardSpec:
    """Build a reward specification from its JSON dictionary form.

    The dictionary carries a ``kind`` discriminator; unknown kinds, and
    missing, mistyped or unknown parameters, raise ``ValueError`` so callers
    can map the failure to an input-schema error.
    """
    kind = obj.get("kind") if isinstance(obj, dict) else None
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValueError(f"reward specification must be an object whose 'kind' is one of "
                         f"{sorted(_FAMILIES)}, got {kind!r}")
    fields = (("kind", str), *family.params)
    return family.from_json_values(*json_fields(obj, f"reward kind {kind!r}", fields)[1:])
