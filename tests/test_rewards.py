import numpy as np
import pytest

from setbayes import (
    BinaryReward,
    CategorySpace,
    ClassifiedSet,
    CompositeProportion,
    DimensionMismatch,
    IndifferenceZone,
    InvariantPenalty,
    MapZeroOne,
    NotConvex,
    OutOfRange,
    PenaltySequence,
    PosteriorVector,
    ProportionBased,
    RipleyReject,
    SpecSpaceMismatch,
    reward,
    reward_spec_from_json,
    value_function,
)
from setbayes import rewards

from conftest import binary_reward, random_posterior, random_space


class TestPenaltySequence:
    def test_linear_and_proportional(self):
        lin = PenaltySequence(tuple(0.3 * m for m in range(5)), convex=True)
        assert lin.values == (0.0, 0.3, 0.6, 0.8999999999999999, 1.2)
        assert lin.convex
        prop = PenaltySequence.proportional(0.3, 4)
        assert prop.values[:2] == (0.0, 0.0)
        assert prop.values[4] == pytest.approx(0.9)
        assert prop.convex

    def test_convex_declaration_verified(self):
        with pytest.raises(NotConvex):
            PenaltySequence((0.0, 0.0, 1.0, 1.0), convex=True)
        with pytest.raises(NotConvex):  # linear increments, but g(0) > 0
            PenaltySequence((0.1, 0.2, 0.3), convex=True)
        # convex even with float noise in the increments
        PenaltySequence(tuple(0.3 * m for m in range(8)), convex=True)

    def test_reject_plateau_shape(self):
        """Ripley's rule as a size penalty: (0, 0, 1, ..., 1, 1 - r)."""
        g = PenaltySequence((0.0, 0.0, 1.0, 1.0, 1.0 - 0.6))
        assert g.values == (0.0, 0.0, 1.0, 1.0, 0.4)
        assert not g.convex
        with pytest.raises(NotConvex):
            PenaltySequence(g.values, convex=True)

    def test_negative_entries_rejected(self):
        with pytest.raises(OutOfRange):
            PenaltySequence((0.0, -0.1))

    def test_one_entry_rejected(self):
        with pytest.raises(DimensionMismatch, match="sizes 0..N with N >= 1"):
            PenaltySequence((0.0,))


class TestRewardEvaluation:
    def test_map_zero_one(self):
        space = CategorySpace(3)
        spec = MapZeroOne()
        assert reward(spec, ClassifiedSet.of([2], 3), 2, space) == 1.0
        assert reward(spec, ClassifiedSet.of([2], 3), 1, space) == 0.0
        assert reward(spec, ClassifiedSet.of([1, 2], 3), 2, space) == 0.0

    def test_invariant_penalty(self):
        space = CategorySpace(3)
        spec = InvariantPenalty(PenaltySequence((0.0, 0.1, 0.5, 0.9)))
        assert reward(spec, ClassifiedSet.of([1, 3], 3), 3, space) == pytest.approx(0.5)
        assert reward(spec, ClassifiedSet.of([], 3), 1, space) == pytest.approx(0.0)
        with pytest.raises(DimensionMismatch):
            reward(spec, ClassifiedSet.of([1], 4), 1, CategorySpace(4))

    def test_proportion_worked_example(self):
        # one wrong extra out of two categories at cost 0.1 keeps 0.9
        space = CategorySpace(4)
        spec = ProportionBased(0.1)
        got = reward(spec, ClassifiedSet.of([2, 3], 4), 2, space)
        assert got == pytest.approx(0.9)
        assert reward(spec, ClassifiedSet.of([1], 4), 1, space) == 1.0
        assert reward(spec, ClassifiedSet.of(range(1, 5), 4), 3, space) == pytest.approx(0.7)

    def test_ripley(self):
        space = CategorySpace(4)
        spec = RipleyReject(0.6)
        assert reward(spec, ClassifiedSet.of([2], 4), 2, space) == 1.0
        assert reward(spec, ClassifiedSet.of([2], 4), 1, space) == 0.0
        assert reward(spec, ClassifiedSet.of(range(1, 5), 4), 1, space) == 0.6
        assert reward(spec, ClassifiedSet.of([1, 2], 4), 1, space) == 0.0
        with pytest.raises(OutOfRange):
            reward(RipleyReject(0.2), ClassifiedSet.of([1], 4), 1, space)
        for r in (0.0, 1.0, float("nan")):
            with pytest.raises(OutOfRange, match="outside \\(0, 1\\)"):
                RipleyReject(r)

    def test_composite_counts_by_block(self):
        space = CategorySpace(4, (2, 2))
        spec = CompositeProportion(0.15, 0.35)
        # truth 1: {1, 2, 3} has one extra within the block, one outside
        got = reward(spec, ClassifiedSet.of([1, 2, 3], 4), 1, space)
        assert got == pytest.approx(1.0 - 0.15 - 0.35)
        # truth 3: same set intersects block 2 in one member, two outside
        got = reward(spec, ClassifiedSet.of([1, 2, 3], 4), 3, space)
        assert got == pytest.approx(1.0 - 2 * 0.35)
        # missing the truth still pays for everything reported
        got = reward(spec, ClassifiedSet.of([1, 2], 4), 3, space)
        assert got == pytest.approx(-2 * 0.35)

    def test_composite_warns_when_within_exceeds_cross(self):
        with pytest.warns(UserWarning):
            CompositeProportion(0.5, 0.1)

    def test_indifference_zone(self):
        space = CategorySpace(4)  # categories 1..3 regular, 4 is the zone
        spec = IndifferenceZone(0.7)
        assert reward(spec, ClassifiedSet.of([2], 4), 2, space) == 1.0
        assert reward(spec, ClassifiedSet.of([], 4), 4, space) == 0.7
        assert reward(spec, ClassifiedSet.of([], 4), 1, space) == 0.0
        assert reward(spec, ClassifiedSet.of([2], 4), 4, space) == 0.0
        assert reward(spec, ClassifiedSet.of([1, 2], 4), 1, space) == 0.0
        for r in (0.0, -0.5):
            with pytest.raises(OutOfRange, match="must be positive"):
                IndifferenceZone(r)

    def test_true_category_bounds(self):
        space = CategorySpace(3)
        with pytest.raises(OutOfRange):
            reward(MapZeroOne(), ClassifiedSet.of([1], 3), 4, space)
        with pytest.raises(SpecSpaceMismatch):
            reward(MapZeroOne(), ClassifiedSet.of([1], 2), 1, space)


class TestBinaryReward:
    def test_definitions_on_fixed_case(self):
        space = CategorySpace(5, (2, 3))
        chosen = ClassifiedSet.of([3, 4], 5)
        # truth 3: singleton fails, block containment holds
        assert binary_reward(BinaryReward.EXACT_SINGLETON, chosen, 3, space) == 0
        assert binary_reward(BinaryReward.WITHIN_BLOCK, chosen, 3, space) == 1
        assert binary_reward(BinaryReward.CONTAINS_TRUTH, chosen, 3, space) == 1
        assert binary_reward(BinaryReward.HITS_TRUE_BLOCK, chosen, 3, space) == 1
        # truth 1: set misses it and its block entirely
        for variant in BinaryReward:
            assert binary_reward(variant, chosen, 1, space) == 0
        # truth 5: not contained, yet the set does reach block 2
        assert binary_reward(BinaryReward.WITHIN_BLOCK, chosen, 5, space) == 0
        assert binary_reward(BinaryReward.HITS_TRUE_BLOCK, chosen, 5, space) == 1

    def test_hierarchy_is_pointwise(self):
        """Each score implies the next one in the fixed order."""
        rng = np.random.default_rng(23)
        order = [
            BinaryReward.EXACT_SINGLETON,
            BinaryReward.WITHIN_BLOCK,
            BinaryReward.CONTAINS_TRUTH,
            BinaryReward.HITS_TRUE_BLOCK,
        ]
        for _ in range(300):
            space = random_space(rng)
            n = space.n_categories
            members = np.flatnonzero(rng.random(n) < 0.5) + 1
            chosen = ClassifiedSet.of(members.tolist(), n)
            truth = int(rng.integers(1, n + 1))
            scores = [binary_reward(v, chosen, truth, space) for v in order]
            assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_csv_labels(self):
        assert [v.value for v in BinaryReward] == ["R1", "R2", "R3", "R4"]


class TestValueFunction:
    def test_matches_top_m_closed_form(self):
        """For size-penalty rewards the expected reward of a top-m set is
        the top-m mass minus the penalty, which exercises the generic
        expectation against an independent formula."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            space = random_space(rng)
            n = space.n_categories
            p = random_posterior(rng, space)
            g = PenaltySequence(tuple(np.sort(rng.random(n + 1)) * 2))
            m = int(rng.integers(0, n + 1))
            top = np.argsort(-p.p, kind="stable")[:m]
            chosen = ClassifiedSet.of((top + 1).tolist(), n)
            got = value_function(InvariantPenalty(g), p, chosen)
            want = p.p[top].sum() - g.values[m]
            assert got == pytest.approx(want, abs=1e-12)

    def test_proportion_never_pays_for_first(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            space = random_space(rng)
            p = random_posterior(rng, space)
            c = float(rng.random())
            m = int(rng.integers(1, space.n_categories + 1))
            top = np.argsort(-p.p, kind="stable")[:m]
            chosen = ClassifiedSet.of((top + 1).tolist(), space.n_categories)
            got = value_function(ProportionBased(c), p, chosen)
            want = p.p[top].sum() - c * (m - 1)
            assert got == pytest.approx(want, abs=1e-12)

    def test_space_mismatch(self):
        p = PosteriorVector([0.5, 0.5])
        with pytest.raises(SpecSpaceMismatch):
            value_function(MapZeroOne(), p, ClassifiedSet.of([1], 3))


class TestJsonRoundTrip:
    PARSED = [
        ({"kind": "map"}, MapZeroOne()),
        ({"kind": "penalty", "g": [0, 0, 0.5, 1], "convex": True},
         InvariantPenalty(PenaltySequence((0.0, 0.0, 0.5, 1.0), convex=True))),
        ({"kind": "penalty", "g": [0, 0, 1, 0.4], "convex": False},
         InvariantPenalty(PenaltySequence((0.0, 0.0, 1.0, 0.4)))),
        ({"kind": "proportion", "c": 0.25}, ProportionBased(0.25)),
        ({"kind": "ripley", "r": 0.6}, RipleyReject(0.6)),
        ({"kind": "composite", "a": 0.15, "b": 0.35}, CompositeProportion(0.15, 0.35)),
        ({"kind": "indifference_zone", "r": 0.8}, IndifferenceZone(0.8)),
    ]

    def test_literal_objects_parse(self):
        for obj, spec in self.PARSED:
            assert reward_spec_from_json(obj) == spec
        assert {obj["kind"] for obj, _ in self.PARSED} == set(rewards._FAMILIES)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            reward_spec_from_json({"kind": "bogus"})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            reward_spec_from_json({"kind": "proportion"})

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            reward_spec_from_json(["proportion", 0.3])

    @pytest.mark.parametrize("obj", [
        {"kind": "proportion", "c": [1]},
        {"kind": "proportion", "c": "0.3"},
        {"kind": "proportion", "c": True},
        {"kind": "penalty", "g": 5},
        {"kind": "penalty", "g": [0, "x"]},
        {"kind": "penalty", "g": [0, 0, 1], "convex": "no"},
        {"kind": "penalty", "g": [0, 0, 1], "convex": None},
        {"kind": "ripley", "r": None},
        {"kind": "composite", "a": 0.1, "b": {"x": 1}},
        {"kind": ["map"]},
    ])
    def test_mistyped_parameters(self, obj):
        with pytest.raises(ValueError):
            reward_spec_from_json(obj)

    @pytest.mark.parametrize("obj", [obj for obj, _ in PARSED], ids=lambda obj: obj["kind"])
    def test_unknown_parameter_named(self, obj):
        with pytest.raises(ValueError, match="unknown parameter 'zz'"):
            reward_spec_from_json({**obj, "zz": 1})

    def test_convex_defaults_to_false(self):
        spec = reward_spec_from_json({"kind": "penalty", "g": [0, 0, 1]})
        assert spec == InvariantPenalty(PenaltySequence((0.0, 0.0, 1.0)))
