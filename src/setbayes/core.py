"""Category spaces, posterior vectors, classified sets, and the checked
reader of every JSON object input.

Categories are numbered 1..N throughout the public interface.  A space may
additionally carry a partition of 1..N into K contiguous blocks; most users
get a single-block space for free and never think about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import BlockOutOfRange, DimensionMismatch, InvalidDistribution, OutOfRange, SchemaError

#: Largest tolerated deviation of sum(p) from 1 before construction fails.
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CategorySpace:
    """A set of N categories partitioned into contiguous blocks.

    Parameters
    ----------
    n_categories : int
        Number of categories N >= 1.
    block_sizes : tuple of int, optional
        Sizes of the K contiguous blocks, summing to N.  Defaults to a
        single block containing every category.
    """

    n_categories: int
    block_sizes: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = int(self.n_categories)
        if n < 1:
            raise OutOfRange(f"need at least one category, got {n}")
        object.__setattr__(self, "n_categories", n)
        sizes = self.block_sizes
        if sizes is None:
            sizes = (n,)
        sizes = tuple(int(s) for s in sizes)
        if any(s < 1 for s in sizes):
            raise OutOfRange(f"every block needs at least one category: {sizes}")
        if sum(sizes) != n:
            raise DimensionMismatch(
                f"block sizes {sizes} sum to {sum(sizes)}, expected {n}"
            )
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def block_index(self) -> np.ndarray:
        """The 0-based block of each 0-based category position, read-only."""
        out = np.repeat(np.arange(self.n_blocks), self.block_sizes)
        out.setflags(write=False)
        return out

    def block_counts(self, members: np.ndarray) -> np.ndarray:
        """Each block's member count (int64) along the last axis of a boolean array."""
        starts = np.cumsum((0,) + self.block_sizes[:-1])
        return np.add.reduceat(members.astype(np.int64), starts, axis=-1)

    def check_block(self, k: int) -> int:
        k = int(k)
        if not 1 <= k <= self.n_blocks:
            raise BlockOutOfRange(f"block {k} outside 1..{self.n_blocks}")
        return k

    def block_slice(self, k: int) -> slice:
        """0-based slice of the categories in block k (1-based)."""
        k = self.check_block(k)
        start = sum(self.block_sizes[:k - 1])
        return slice(start, start + self.block_sizes[k - 1])

    def block_of(self, category: int) -> int:
        """Return the 1-based block index containing a category."""
        i = int(category)
        if not 1 <= i <= self.n_categories:
            raise OutOfRange(f"category {i} outside 1..{self.n_categories}")
        return int(self.block_index[i - 1]) + 1


@dataclass(frozen=True)
class ClassifiedSet:
    """An unordered set of category indices assigned to one observation.

    Instances are immutable and hashable.  ``members`` is kept sorted; the
    empty set (total reject of the observation) and the full set are both
    legal values.
    """

    members: tuple[int, ...]
    n_categories: int

    def __post_init__(self) -> None:
        n = int(self.n_categories)
        members = tuple(sorted({int(i) for i in self.members}))
        if members and not (1 <= members[0] and members[-1] <= n):
            raise OutOfRange(f"members {members} outside 1..{n}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "n_categories", n)

    @classmethod
    def of(cls, members: Iterable[int], n_categories: int) -> "ClassifiedSet":
        return cls(tuple(members), n_categories)

    @property
    def size(self) -> int:
        return len(self.members)

    def as_mask(self) -> np.ndarray:
        """Boolean membership mask over 0-based category positions."""
        mask = np.zeros(self.n_categories, dtype=bool)
        mask[[i - 1 for i in self.members]] = True
        return mask

    def __contains__(self, category: int) -> bool:
        return int(category) in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def posterior_rows(P, space: CategorySpace) -> np.ndarray:
    """Validate a matrix of posterior rows and renormalize each row.

    Entries must be finite and nonnegative, and every row sum may deviate
    from one by at most ``SUM_TOLERANCE``; ``PosteriorVector`` is one row.
    The rows are made C-contiguous, so that each is summed in one order,
    and so renormalized to one set of bits, whatever the layout.
    """
    arr = np.asarray(P, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != space.n_categories:
        raise DimensionMismatch(
            f"expected rows of {space.n_categories} probabilities, got shape {arr.shape}"
        )
    arr = np.ascontiguousarray(arr)
    if not np.all(np.isfinite(arr)):
        raise InvalidDistribution("probabilities must be finite")
    if np.any(arr < 0.0):
        raise InvalidDistribution("probabilities must be nonnegative")
    totals = arr.sum(axis=1, keepdims=True)
    off = np.flatnonzero(np.abs(totals[:, 0] - 1.0) > SUM_TOLERANCE)
    if off.size:
        raise InvalidDistribution(
            f"probabilities of row {off[0] + 1} sum to {float(totals[off[0], 0])!r}, "
            f"more than {SUM_TOLERANCE} away from 1"
        )
    return arr / totals


class Ranking:
    """Posterior rows sorted in decreasing order within each block (one
    block without a space), ties listing the smaller category index first.

    ``sorted[r, k]`` is block k of row r in decreasing order, padded with
    -inf to the widest block; ``rank[r, i]`` is category i + 1's 0-based
    place in its block; ``mass[r, k]`` is block k's total probability.
    """

    def __init__(self, P: np.ndarray, space: CategorySpace | None = None):
        space = space or CategorySpace(P.shape[1])
        self.sorted = np.full((len(P), space.n_blocks, max(space.block_sizes)), -np.inf)
        self.rank = np.empty(P.shape, dtype=np.int64)
        self.mass = np.empty((len(P), space.n_blocks))
        for k in range(space.n_blocks):
            sl = space.block_slice(k + 1)
            block = P[:, sl]
            order = np.argsort(-block, axis=1, kind="stable")
            self.sorted[:, k, : order.shape[1]] = np.take_along_axis(block, order, axis=1)
            self.rank[:, sl] = np.argsort(order, axis=1)
            self.mass[:, k] = block.sum(axis=1)


class PosteriorVector:
    """Posterior category probabilities for one observation.

    The vector is validated and renormalized on construction: entries must
    be finite and nonnegative and the sum may deviate from one by at most
    ``SUM_TOLERANCE``.  Larger deviations raise ``InvalidDistribution``
    rather than being silently rescaled.

    Parameters
    ----------
    p : array_like
        Nonnegative probabilities, one per category.
    space : CategorySpace, optional
        Defaults to a single-block space over ``len(p)`` categories.
    """

    __slots__ = ("p", "space")

    def __init__(self, p, space: CategorySpace | None = None):
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch(f"expected a 1-d probability vector, got shape {arr.shape}")
        if space is None:
            space = CategorySpace(arr.size)
        arr = posterior_rows(arr[None, :], space)[0]
        arr.setflags(write=False)
        self.p = arr
        self.space = space

    @property
    def n_categories(self) -> int:
        return self.space.n_categories

    def max_prob(self) -> float:
        """The largest posterior probability."""
        return float(self.p.max())

    def block_mass(self, k: int) -> float:
        """Total posterior probability of block k."""
        return float(self.p[self.space.block_slice(k)].sum())

    def __repr__(self) -> str:  # pragma: no cover
        return f"PosteriorVector({np.array2string(self.p, precision=4)})"


def _is(kind):
    return lambda value: isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _list_of(accepts):
    return lambda value: isinstance(value, list) and all(map(accepts, value))


#: What each type a JSON field may declare accepts, and how a message names
#: it.  true and false are of no type but bool.
JSON_TYPES = {
    float: ("a number", _is((int, float))),
    int: ("an integer", _is(int)),
    bool: ("true or false", _is(bool)),
    str: ("a string", _is(str)),
    dict: ("an object", _is(dict)),
    list[float]: ("a list of numbers", _list_of(_is((int, float)))),
    list[int]: ("a list of integers", _list_of(_is(int))),
    list[str]: ("a list of strings", _list_of(_is(str))),
    list[dict]: ("a list of objects", _list_of(_is(dict))),
    list[list[float]]: ("a list of lists of numbers", _list_of(_list_of(_is((int, float))))),
    list[str] | None: ("a list of strings or null",
                       lambda value: value is None or _list_of(_is(str))(value)),
}


def json_fields(obj, where: str, fields) -> list:
    """The values of the JSON object ``obj``'s ``fields``, in order, each
    ``(name, type[, default])`` with a type of ``JSON_TYPES``; a field left
    out takes its default.  ``SchemaError``, led by ``where`` and naming the
    field, refuses a non-object, an undeclared field, a missing field with
    no default and a value its type refuses."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = sorted(set(obj) - {name for name, *_ in fields})
    if unknown:
        raise SchemaError(f"{where}: unknown parameter {unknown[0]!r}")
    values = []
    for name, want, *default in fields:
        if name not in obj and not default:
            raise SchemaError(f"{where}: missing parameter {name!r}")
        what, accepts = JSON_TYPES[want]
        if name in obj and not accepts(obj[name]):
            raise SchemaError(f"{where}: {name!r} must be {what}, got {obj[name]!r}")
        values.append(obj.get(name, *default))
    return values
