import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setbayes import (
    BlockOutOfRange,
    CategorySpace,
    ClassifiedSet,
    DimensionMismatch,
    InvalidDistribution,
    OutOfRange,
    PosteriorVector,
    SchemaError,
)
from setbayes.core import Ranking, json_fields

from conftest import random_posterior, random_space


def reference_ranking(row, space):
    """``Ranking``'s three fields for one posterior row, block by block:
    the block's places sorted by (-p, category index) in Python, the
    sorted values padded with -inf, and the block's sum as numpy sums the
    row's slice alone."""
    width = max(space.block_sizes)
    rank, ordered, mass = [0] * len(row), [], []
    for k in range(1, space.n_blocks + 1):
        sl = space.block_slice(k)
        order = sorted(range(sl.start, sl.stop), key=lambda i: (-row[i], i))
        for place, i in enumerate(order):
            rank[i] = place
        ordered.append([row[i] for i in order] + [-np.inf] * (width - len(order)))
        mass.append(float(np.asarray(row[sl]).sum()))
    return rank, ordered, mass


#: Probabilities drawn often enough that rows hold exact ties and zeros.
TIED_VALUES = (0.0, 0.0, 0.125, 0.25, 0.25, 1 / 3, 0.5)


class TestCategorySpace:
    def test_default_is_single_block(self):
        space = CategorySpace(5)
        assert space.block_sizes == (5,)
        assert space.n_blocks == 1
        assert space.block_slice(1) == slice(0, 5)

    def test_block_lookup(self):
        space = CategorySpace(6, (2, 3, 1))
        assert space.n_blocks == 3
        assert [space.block_slice(k) for k in (1, 2, 3)] == [
            slice(0, 2), slice(2, 5), slice(5, 6)
        ]
        assert [space.block_of(i) for i in range(1, 7)] == [1, 1, 2, 2, 2, 3]

    def test_sizes_must_sum(self):
        with pytest.raises(DimensionMismatch):
            CategorySpace(5, (2, 2))

    def test_rejects_empty_block_and_empty_space(self):
        with pytest.raises(OutOfRange):
            CategorySpace(3, (3, 0))
        with pytest.raises(OutOfRange):
            CategorySpace(0)

    def test_block_index_bounds(self):
        space = CategorySpace(4, (2, 2))
        with pytest.raises(BlockOutOfRange):
            space.block_slice(3)
        with pytest.raises(OutOfRange):
            space.block_of(5)


class TestClassifiedSet:
    def test_of_sorts_and_dedupes(self):
        s = ClassifiedSet.of([3, 1, 3, 2], 4)
        assert s.members == (1, 2, 3)
        assert s.size == 3
        assert list(s) == [1, 2, 3]
        assert 2 in s and 4 not in s

    def test_empty_and_full(self):
        assert ClassifiedSet.of([], 3).size == 0
        assert not ClassifiedSet.of([], 3).as_mask().any()
        assert ClassifiedSet.of(range(1, 4), 3).members == (1, 2, 3)
        assert ClassifiedSet.of(range(1, 4), 3).as_mask().all()
        assert ClassifiedSet.of([1, 2], 3).size == 2

    def test_mask_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            members = np.flatnonzero(rng.random(n) < 0.4) + 1
            s = ClassifiedSet.of(members.tolist(), n)
            mask = s.as_mask()
            assert mask.dtype == bool and mask.shape == (n,)
            assert ClassifiedSet.of((np.flatnonzero(mask) + 1).tolist(), n) == s

    def test_members_out_of_range(self):
        with pytest.raises(OutOfRange):
            ClassifiedSet.of([0], 3)
        with pytest.raises(OutOfRange):
            ClassifiedSet.of([4], 3)


class TestPosteriorVector:
    def test_validation(self):
        with pytest.raises(InvalidDistribution):
            PosteriorVector([0.5, -0.1, 0.6])
        with pytest.raises(InvalidDistribution):
            PosteriorVector([0.5, np.nan])
        with pytest.raises(InvalidDistribution):
            PosteriorVector([0.7, 0.7])  # off by far more than the tolerance
        with pytest.raises(DimensionMismatch):
            PosteriorVector([[0.5, 0.5]])

    def test_renormalizes_tiny_drift(self):
        p = PosteriorVector([0.5 + 1e-10, 0.5])
        assert p.p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_space_size_must_match(self):
        with pytest.raises(DimensionMismatch):
            PosteriorVector([0.5, 0.5], CategorySpace(3))

    def test_tie_order_prefers_smaller_index(self):
        """Exact ties in probability rank by category number."""
        p = PosteriorVector([0.25, 0.25, 0.5])
        rank = Ranking(p.p[None, :]).rank[0]
        assert rank.tolist() == [1, 2, 0]
        assert (np.flatnonzero(rank < 2) + 1).tolist() == [1, 3]

    def test_top_m_against_sorting(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            space = random_space(rng)
            p = random_posterior(rng, space)
            n = space.n_categories
            m = int(rng.integers(0, n + 1))
            expected = float(np.sort(p.p)[::-1][:m].sum())
            ranked = Ranking(p.p[None, :])
            top = ranked.rank[0] < m
            assert float(ranked.sorted[0, 0, :m].sum()) == pytest.approx(expected, abs=1e-12)
            assert top.sum() == m
            # the chosen members really are the m largest probabilities
            if 0 < m < n:
                assert p.p[top].min() >= p.p[~top].max()

    def test_block_accessors(self):
        space = CategorySpace(5, (2, 3))
        p = PosteriorVector([0.1, 0.2, 0.15, 0.3, 0.25], space)
        assert p.block_mass(1) == pytest.approx(0.3)
        assert p.block_mass(2) == pytest.approx(0.7)
        with pytest.raises(BlockOutOfRange):
            p.block_mass(3)

    def test_block_masses_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            space = random_space(rng)
            p = random_posterior(rng, space)
            total = sum(p.block_mass(k) for k in range(1, space.n_blocks + 1))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestRanking:
    @pytest.mark.parametrize("sizes", [(8,), (3, 3, 2), (1, 4, 3), (2, 2, 2, 2)],
                             ids=lambda sizes: "-".join(map(str, sizes)))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ranking_against_per_row_reference(self, sizes, data):
        """``Ranking`` sorts each block by decreasing probability, exact
        ties by the smaller category index first: its ``rank``,
        ``sorted`` and ``mass`` match a per-row reference bit for bit, on
        rows with forced ties and zeros."""
        space = CategorySpace(sum(sizes), sizes)
        value = st.one_of(st.sampled_from(TIED_VALUES), st.floats(0.0, 1.0))
        rows = data.draw(st.lists(st.lists(value, min_size=space.n_categories,
                                           max_size=space.n_categories), min_size=1, max_size=6))
        P = np.array(rows)
        ranked = Ranking(P, space)
        for r, row in enumerate(rows):
            rank, ordered, mass = reference_ranking(row, space)
            assert ranked.rank[r].tolist() == rank
            assert ranked.sorted[r].tobytes() == np.array(ordered).tobytes()
            assert ranked.mass[r].tobytes() == np.array(mass).tobytes()


class TestJsonFields:
    FIELDS = (("n", int), ("x", float, 0.5), ("names", list[str] | None, None))

    def test_values_in_declared_order_with_defaults(self):
        assert json_fields({"n": 3}, "thing", self.FIELDS) == [3, 0.5, None]
        assert json_fields({"names": None, "x": 2, "n": 0}, "thing", self.FIELDS) == [0, 2, None]
        assert json_fields({"n": -1, "names": ["a"]}, "thing", self.FIELDS) == [-1, 0.5, ["a"]]

    @pytest.mark.parametrize("obj, message", [
        ([1], "thing must be an object"),
        ({"n": 1, "m": 2, "a": 3}, "thing: unknown parameter 'a'"),
        ({"x": 1.0}, "thing: missing parameter 'n'"),
        ({"n": 1.0}, "thing: 'n' must be an integer, got 1.0"),
        ({"n": True}, "thing: 'n' must be an integer, got True"),
        ({"n": "3"}, "thing: 'n' must be an integer, got '3'"),
        ({"n": 1, "x": False}, "thing: 'x' must be a number, got False"),
        ({"n": 1, "x": None}, "thing: 'x' must be a number, got None"),
        ({"n": 1, "names": "ab"}, "thing: 'names' must be a list of strings or null, got 'ab'"),
        ({"n": 1, "names": ["a", 1]},
         "thing: 'names' must be a list of strings or null, got ['a', 1]"),
    ])
    def test_refuses_naming_the_field(self, obj, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            json_fields(obj, "thing", self.FIELDS)
