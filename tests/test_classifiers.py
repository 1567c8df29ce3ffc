import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setbayes import classifiers, rewards
from setbayes.classifiers import exhaustive_sets

from setbayes import (
    CategorySpace,
    ClassifiedSet,
    CompositeProportion,
    Decision,
    DimensionMismatch,
    IndifferenceZone,
    InvalidDistribution,
    InvariantPenalty,
    MapZeroOne,
    NotConvex,
    OutOfRange,
    PenaltySequence,
    PosteriorVector,
    ProportionBased,
    RipleyReject,
    SpecSpaceMismatch,
    TooManyCategories,
    brute_force_optimal,
    composite_classifier,
    conformal_classifier,
    map_classifier,
    mmp_convex,
    mmp_general,
    optimal_set,
    optimal_sets,
    proportion_classifier,
    rho_classifier,
    value_function,
)

from conftest import random_posterior, random_space


P532 = PosteriorVector([0.5, 0.3, 0.2])


class TestWorkedExamples:
    """Hand-checked instances with frozen expected sets and values."""

    def test_map(self):
        assert map_classifier(P532).members == (1,)

    def test_map_tie_takes_smaller_index(self):
        assert map_classifier(PosteriorVector([0.5, 0.5])).members == (1,)

    def test_mmp_general_plateau_penalty(self):
        got = mmp_general(P532, PenaltySequence((0.0, 0.0, 1.0, 1.0)))
        assert got.chosen.members == (1,)
        assert got.size == 1
        assert got.value == pytest.approx(0.5)

    def test_mmp_convex_quarter_per_member(self):
        got = mmp_convex(P532, PenaltySequence((0.0, 0.25, 0.5, 0.75), convex=True))
        assert got.chosen.members == (1, 2)
        assert got.value == pytest.approx(0.3)

    def test_proportion_quarter(self):
        got = proportion_classifier(P532, 0.25)
        assert got.chosen.members == (1, 2)
        assert got.value == pytest.approx(0.55)

    def test_proportion_high_cost_gives_singleton(self):
        got = proportion_classifier(P532, 0.51)
        assert got.chosen.members == (1,)
        assert got.value == pytest.approx(0.5)

    def test_proportion_zero_cost_gives_everything(self):
        got = proportion_classifier(P532, 0.0)
        assert got.chosen.members == (1, 2, 3)
        assert got.value == pytest.approx(1.0)

    def test_composite_two_blocks(self):
        space = CategorySpace(4, (2, 2))
        p = PosteriorVector([0.4, 0.1, 0.3, 0.2], space)
        got = composite_classifier(p, 0.15, 0.35)
        assert got.chosen.members == (1, 3)
        assert got.block_sizes == (1, 1)
        assert got.value == pytest.approx(0.35)

    def test_ripley_both_branches(self):
        assert optimal_set(RipleyReject(0.45), P532)[0].members == (1,)
        assert optimal_set(RipleyReject(0.6), P532)[0].members == (1, 2, 3)
        # equality goes to the full space: both actions earn the same
        assert optimal_set(RipleyReject(0.5), P532)[0].members == (1, 2, 3)

    def test_conformal_cut(self):
        assert conformal_classifier(P532, 0.25).members == (1, 2)
        assert conformal_classifier(P532, 0.2).members == (1, 2, 3)
        assert conformal_classifier(P532, 0.51).size == 0

    def test_rho_cut(self):
        p = PosteriorVector([0.5, 0.3, 0.1, 0.1])
        assert rho_classifier(p, 0.6).members == (1, 2)
        assert rho_classifier(p, 1.0).members == (1,)
        assert rho_classifier(p, 0.0).members == (1, 2, 3, 4)

    def test_indifference_zone(self):
        def zone(probs, empty_reward):  # last entry is the zone
            return optimal_set(IndifferenceZone(empty_reward), PosteriorVector(probs))[0]

        assert zone([0.5, 0.2, 0.3], 1.5).members == (1,)
        assert zone([0.3, 0.2, 0.5], 1.5).size == 0
        # equality keeps the singleton
        assert zone([0.4, 0.2, 0.4], 1.0).members == (1,)


class TestTieRules:
    def test_mmp_general_prefers_larger_size(self):
        # objective ties exactly at m = 1, 2, 3; the rule reports 3
        p = PosteriorVector([0.5, 0.25, 0.25])
        got = mmp_general(p, PenaltySequence((0.0, 0.0, 0.25, 0.5)))
        assert got.size == 3

    def test_brute_force_tie_takes_smallest_lexicographic_set(self):
        got = brute_force_optimal(MapZeroOne(), PosteriorVector([0.5, 0.5]))
        assert got.chosen.members == (1,)

    def test_proportion_includes_category_at_exact_cost(self):
        p = PosteriorVector([0.5, 0.25, 0.25])
        got = proportion_classifier(p, 0.25)
        assert got.chosen.members == (1, 2, 3)  # both 0.25 entries sit exactly at the cost

    # Dyadic probabilities and costs, so every tie below is exact in floating
    # point and the pinned sets do not depend on summation order.
    CASES = [
        ("map-tied-leaders", MapZeroOne(), [0.25, 0.375, 0.375], None, (2,)),
        ("penalty-scan-larger-m",
         InvariantPenalty(PenaltySequence((0.0, 0.0, 0.25, 0.375, 0.5))),
         [0.5, 0.25, 0.125, 0.125], None, (1, 2, 3, 4)),
        ("penalty-scan-tied-probs",
         InvariantPenalty(PenaltySequence((0.0, 0.25, 0.5, 0.8, 1.1))),
         [0.25, 0.375, 0.25, 0.125], None, (1, 2)),
        ("penalty-convex-at-threshold",
         InvariantPenalty(PenaltySequence((0.0, 0.25, 0.5, 0.8, 1.1), convex=True)),
         [0.25, 0.375, 0.25, 0.125], None, (1, 2)),
        ("proportion-at-cost", ProportionBased(0.25), [0.5, 0.25, 0.25], None, (1, 2, 3)),
        ("proportion-tied-leaders", ProportionBased(0.5), [0.375, 0.375, 0.25], None, (1,)),
        ("ripley-at-equality", RipleyReject(0.5), [0.5, 0.25, 0.25], None, (1, 2, 3)),
        ("ripley-tied-leaders", RipleyReject(0.34375), [0.375, 0.375, 0.25], None, (1,)),
        ("composite-tied-within-blocks", CompositeProportion(0.25, 0.5),
         [0.25, 0.25, 0.25, 0.25], (2, 2), (1, 3)),
        ("composite-at-threshold", CompositeProportion(0.25, 0.25),
         [0.5, 0.25, 0.125, 0.125], (2, 2), (1, 2)),
        ("zone-at-equality", IndifferenceZone(1.0), [0.375, 0.25, 0.375], None, (1,)),
        ("zone-tied-leaders", IndifferenceZone(1.0), [0.375, 0.375, 0.25], None, (1,)),
    ]

    @pytest.mark.parametrize(
        "spec, probs, blocks, members", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
    )
    def test_fast_rule_pins_tied_set(self, spec, probs, blocks, members):
        p = PosteriorVector(probs, CategorySpace(len(probs), blocks))
        chosen, _ = optimal_set(spec, p)
        assert chosen.members == members

    ORACLE_CASES = [
        (ProportionBased(0.5), [0.5, 0.5], None, (1, 2)),
        (RipleyReject(0.5), [0.25, 0.25, 0.5], None, (1, 2, 3)),
        (InvariantPenalty(PenaltySequence((0.0, 0.25, 0.5, 0.75), convex=True)),
         [0.25, 0.25, 0.5], None, (1, 2, 3)),
        (CompositeProportion(0.25, 0.5), [0.25] * 4, (2, 2), (1, 3)),
    ]

    def test_oracle_takes_smallest_bitmask_where_fast_rules_differ(self):
        """Exact value ties where the smallest bitmask alone would pick a
        smaller set than the fast rule: the oracle prefers the larger set
        first, so both choose the same one."""
        for spec, probs, blocks, members in self.ORACLE_CASES:
            p = PosteriorVector(probs, CategorySpace(len(probs), blocks))
            oracle = brute_force_optimal(spec, p)
            chosen, value = optimal_set(spec, p)
            assert oracle.chosen.members == chosen.members == members
            assert oracle.value == value


class TestBruteForceAgreement:
    """Every fast path must reach the exhaustive-search value."""

    N_INSTANCES = 400

    def _penalties(self, rng, n):
        base = np.concatenate([[0.0], np.cumsum(rng.random(n))])
        convex = np.concatenate([[0.0], np.cumsum(np.sort(rng.random(n)))])
        return (
            PenaltySequence(tuple(base)),
            PenaltySequence(tuple(convex), convex=True),
        )

    def test_all_families(self):
        rng = np.random.default_rng(101)
        for _ in range(self.N_INSTANCES):
            space = random_space(rng, n_lo=2, n_hi=8)
            n = space.n_categories
            p = random_posterior(rng, space)
            general, convex = self._penalties(rng, n)
            specs = [
                MapZeroOne(),
                InvariantPenalty(general),
                InvariantPenalty(convex),
                ProportionBased(float(rng.random() * 1.5)),
                RipleyReject(float(rng.uniform(1.0 / n + 1e-6, 1.0 - 1e-9))),
                CompositeProportion(float(rng.random()), float(rng.random()) + 1.0),
            ]
            for spec in specs:
                chosen, value = optimal_set(spec, p)
                oracle = brute_force_optimal(spec, p)
                assert value == pytest.approx(oracle.value, abs=1e-12)
                # the returned set really achieves the claimed value
                achieved = value_function(spec, p, chosen)
                assert achieved == pytest.approx(value, abs=1e-12)

    def test_convex_equals_general(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            space = random_space(rng)
            n = space.n_categories
            increments = np.sort(rng.random(n))
            g = PenaltySequence(tuple(np.concatenate([[0.0], np.cumsum(increments)])), convex=True)
            p = random_posterior(rng, space)
            a = mmp_convex(p, g)
            b = mmp_general(p, g)
            assert a.chosen == b.chosen
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_proportion_equals_induced_penalty(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            space = random_space(rng)
            n = space.n_categories
            c = float(rng.random() * 1.2)
            p = random_posterior(rng, space)
            a = proportion_classifier(p, c)
            b = mmp_general(p, PenaltySequence.proportional(c, n))
            assert a.chosen == b.chosen
            assert a.value == pytest.approx(b.value, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_composite_single_block_equals_proportion(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            p = random_posterior(rng, CategorySpace(n))
            a = float(rng.random())
            b = float(rng.random() * 2)
            comp = composite_classifier(p, a, b)
            prop = proportion_classifier(p, a)
            assert comp.chosen == prop.chosen
            assert comp.value == pytest.approx(prop.value, abs=1e-12)

    def test_ripley_equals_plateau_penalty(self):
        rng = np.random.default_rng(113)
        for _ in range(300):
            space = random_space(rng, n_lo=3)
            n = space.n_categories
            r = float(rng.uniform(1.0 / n + 1e-6, 1.0 - 1e-9))
            p = random_posterior(rng, space)
            direct, _ = optimal_set(RipleyReject(r), p)
            plateau = PenaltySequence((0.0, 0.0) + (1.0,) * (n - 2) + (1.0 - r,))
            via_penalty = mmp_general(p, plateau)
            assert direct == via_penalty.chosen

    def test_rho_matches_proportion_scaling(self):
        """The ratio cut equals the probability cut at ratio * max."""
        rng = np.random.default_rng(127)
        for _ in range(200):
            space = random_space(rng)
            p = random_posterior(rng, space)
            ratio = float(rng.random())
            assert rho_classifier(p, ratio) == conformal_classifier(
                p, ratio * p.max_prob()
            )


class TestMapRecovery:
    def test_cost_above_max_probability(self):
        """A per-extra-category cost above the top probability forces the
        plain single most probable category."""
        rng = np.random.default_rng(131)
        for _ in range(200):
            space = random_space(rng)
            p = random_posterior(rng, space)
            got = proportion_classifier(p, p.max_prob() + 0.01)
            assert got.chosen == map_classifier(p)
            assert got.size == 1


class TestGuards:
    def test_brute_force_category_limit(self):
        p = PosteriorVector(np.full(21, 1.0 / 21))
        with pytest.raises(TooManyCategories):
            brute_force_optimal(MapZeroOne(), p)

    def test_penalty_length_checked(self):
        with pytest.raises(DimensionMismatch):
            mmp_general(P532, PenaltySequence((0.0, 0.5)))
        with pytest.raises(DimensionMismatch):
            mmp_convex(P532, PenaltySequence(tuple(0.1 * m for m in range(6)), convex=True))

    def test_convex_path_requires_convexity(self):
        with pytest.raises(NotConvex):
            mmp_convex(P532, PenaltySequence((0.0, 0.0, 1.0, 1.0)))

    def test_negative_costs_rejected(self):
        with pytest.raises(OutOfRange):
            proportion_classifier(P532, -0.1)
        with pytest.raises(OutOfRange):
            conformal_classifier(P532, -1.0)
        with pytest.raises(OutOfRange):
            rho_classifier(P532, 1.5)

    def test_zone_needs_regular_category(self):
        with pytest.raises(SpecSpaceMismatch):
            optimal_set(IndifferenceZone(0.5), PosteriorVector([1.0]))


class TestOptimalSetDispatch:
    def test_routes_convex_flag(self):
        convex = PenaltySequence((0.0, 0.25, 0.5, 0.75), convex=True)
        chosen, value = optimal_set(InvariantPenalty(convex), P532)
        assert chosen.members == (1, 2)
        assert value == pytest.approx(0.3)

    def test_zone_dispatch(self):
        chosen, value = optimal_set(IndifferenceZone(1.5), PosteriorVector([0.5, 0.2, 0.3]))
        assert chosen.members == (1,)
        assert value == pytest.approx(0.5)

    def test_brute_force_searches_zone_reward(self):
        oracle = brute_force_optimal(IndifferenceZone(0.8), P532)
        assert (oracle.chosen, oracle.value) == optimal_set(IndifferenceZone(0.8), P532)

    def test_value_is_value_function_of_choice(self):
        rng = np.random.default_rng(137)
        for _ in range(100):
            space = random_space(rng)
            p = random_posterior(rng, space)
            spec = CompositeProportion(0.2, 0.4)
            chosen, value = optimal_set(spec, p)
            assert value == pytest.approx(value_function(spec, p, chosen), abs=1e-12)


def _compositions(draw, n):
    """n nonnegative multiples of 1/8 summing to one, zeros and ties likely."""
    cuts = sorted(draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1)))
    return [(hi - lo) / 8 for lo, hi in zip([0] + cuts, cuts + [8])]


@st.composite
def decision_problems(draw):
    """(spec, space, posterior matrix, the spec's numeric parameters) with
    grid or continuous rows and costs."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        blocks = (1,) * n  # one block per category
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        blocks = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [n]))
    space = CategorySpace(n, blocks)
    rows = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    matrix = []
    for _ in range(rows):
        if draw(st.booleans()):
            matrix.append(_compositions(draw, n))
        else:
            w = np.array(draw(st.lists(unit, min_size=n, max_size=n))) + 1e-3
            matrix.append((w / w.sum()).tolist())
    # costs on the 1/8 grid can sit exactly at a threshold of a grid row
    cost = draw(st.one_of(st.integers(0, 12).map(lambda k: k / 8), st.floats(0.0, 1.5)))
    increments = np.array(sorted(draw(st.lists(unit, min_size=n, max_size=n))))
    convex = tuple(np.concatenate([[0.0], np.cumsum(increments)]))
    eighths = tuple(
        draw(st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=n + 1, max_size=n + 1))
    )
    within = draw(st.sampled_from([0.0, 0.125, 0.25, cost]))
    families = [
        (MapZeroOne(), ()),
        (InvariantPenalty(PenaltySequence(convex, convex=True)), convex),
        (InvariantPenalty(PenaltySequence(eighths)), eighths),
        (ProportionBased(cost), (cost,)),
        (CompositeProportion(within, cost + 0.125), (within, cost + 0.125)),
    ]
    if n >= 2:
        reject = draw(st.sampled_from([k / 8 for k in range(1, 8) if k / 8 > 1 / n]))
        zone = draw(st.sampled_from([0.5, 1.0, 2.0]))
        families += [(RipleyReject(reject), (reject,)), (IndifferenceZone(zone), (zone,))]
    spec, params = draw(st.sampled_from(families))
    return spec, space, np.array(matrix), params


def _on_eighths(params, row):
    """Whether the row and every parameter of the spec are multiples of 1/8,
    so that equal expected rewards are equal in floating point."""
    x = np.hstack([row, *params]) * 8
    return bool(np.all(x == np.round(x)))


#: One instance of every reward family, its parameters on the 1/8 grid.
_EVERY_FAMILY = (
    MapZeroOne(),
    InvariantPenalty(PenaltySequence((0.0, 0.25, 0.25, 0.875, 1.0))),
    ProportionBased(0.25),
    RipleyReject(0.375),
    CompositeProportion(0.125, 0.375),
    IndifferenceZone(1.5),
)


class TestBatchedPath:
    @settings(max_examples=300, deadline=None)
    @given(decision_problems())
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_rows_reach_the_oracle_value(self, problem):
        spec, space, matrix, params = problem
        members, values = optimal_sets(spec, matrix, space)
        assert members.shape == matrix.shape and values.shape == (matrix.shape[0],)
        for r, row in enumerate(matrix):
            p = PosteriorVector(row, space)
            chosen = ClassifiedSet.of((np.flatnonzero(members[r]) + 1).tolist(), space.n_categories)
            # the same bits as the one-vector path
            assert values[r] == value_function(spec, p, chosen)
            assert optimal_set(spec, p) == (chosen, values[r])
            oracle = brute_force_optimal(spec, p)
            if _on_eighths(params, row):  # exact ties: one tie rule for both
                assert oracle.chosen == chosen
            assert abs(values[r] - oracle.value) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(decision_problems(), st.integers(1, 8))
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_exhaustive_sets_give_each_row_the_oracle(self, problem, chunk_bits):
        """Every row gets ``brute_force_optimal``'s set and value bits,
        however the subsets are chunked and so the rows blocked."""
        spec, space, matrix, _ = problem
        oracles = [brute_force_optimal(spec, PosteriorVector(row, space)) for row in matrix]
        with mock.patch.object(classifiers, "_MASK_CHUNK", 1 << chunk_bits):
            members, values = exhaustive_sets(spec, matrix, space)
        assert members.shape == matrix.shape and values.shape == (matrix.shape[0],)
        for r, oracle in enumerate(oracles):
            assert values[r].tobytes() == np.float64(oracle.value).tobytes()
            assert tuple(np.flatnonzero(members[r]) + 1) == oracle.chosen.members

    def test_exhaustive_sets_memory_is_bounded_by_the_chunk(self):
        """Under ``tracemalloc``, 20000 rows of 8 categories peak below four
        chunks of ``_MASK_CHUNK`` values plus 8 bytes three times over per
        (row, category) and 32 per row: the renormalized rows, the unpacked
        best subsets and the per-row results.  Scoring every row against
        the 256 subsets at once would take 41 MB."""
        space = CategorySpace(8, (3, 3, 2))
        P = np.random.default_rng(11).dirichlet(np.ones(8), size=20000)
        spec = CompositeProportion(0.1, 0.3)
        exhaustive_sets(spec, P[:2], space)  # caches the subsets
        tracemalloc.start()
        try:
            exhaustive_sets(spec, P, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * classifiers._MASK_CHUNK + (3 * 8 * 8 + 32) * len(P)

    @pytest.mark.parametrize("decide", [optimal_sets, exhaustive_sets])
    def test_memory_layout_does_not_move_a_bit(self, decide):
        """A Fortran-ordered matrix gets the C-ordered matrix's sets and
        value bits: each row is summed in one order whatever the layout."""
        space = CategorySpace(8, (3, 3, 2))
        P = np.random.default_rng(12).dirichlet(np.full(8, 0.5), size=2000)
        spec = CompositeProportion(0.1, 0.3)
        members, values = decide(spec, P, space)
        f_members, f_values = decide(spec, np.asfortranarray(P), space)
        np.testing.assert_array_equal(f_members, members)
        assert f_values.tobytes() == values.tobytes()

    def test_every_family_matches_the_oracle(self):
        """No reward family skips the oracle: on every row of the 1/8 grid
        over N = 4 in blocks (2, 2), where exact ties abound, each family's
        rule gives the exhaustive search's sets and value bits."""
        assert {spec.kind for spec in _EVERY_FAMILY} == set(rewards._FAMILIES)
        space = CategorySpace(4, (2, 2))
        grid = np.array([
            (a, b, c, 8 - a - b - c) for a, b, c in itertools.product(range(9), repeat=3)
            if a + b + c <= 8
        ]) / 8
        for spec in _EVERY_FAMILY:
            members, values = optimal_sets(spec, grid, space)
            oracle_members, oracle_values = exhaustive_sets(spec, grid, space)
            np.testing.assert_array_equal(members, oracle_members, err_msg=spec.kind)
            assert values.tobytes() == oracle_values.tobytes(), spec.kind

    def test_exhaustive_sets_refuse_as_the_oracle(self):
        with pytest.raises(TooManyCategories):
            exhaustive_sets(MapZeroOne(), np.full((1, 21), 1 / 21), CategorySpace(21))
        with pytest.raises(InvalidDistribution):
            exhaustive_sets(MapZeroOne(), [[0.5, 0.7]], CategorySpace(2))

    def test_validates_the_matrix(self):
        space = CategorySpace(2)
        with pytest.raises(InvalidDistribution):
            optimal_sets(MapZeroOne(), [[0.5, 0.5], [0.7, 0.7]], space)
        with pytest.raises(InvalidDistribution):
            optimal_sets(MapZeroOne(), [[np.nan, 1.0]], space)
        with pytest.raises(InvalidDistribution):
            optimal_sets(MapZeroOne(), [[1.5, -0.5]], space)
        with pytest.raises(DimensionMismatch):
            optimal_sets(MapZeroOne(), [0.5, 0.5], space)
        with pytest.raises(DimensionMismatch):
            optimal_sets(MapZeroOne(), [[0.2, 0.3, 0.5]], space)
        with pytest.raises(OutOfRange):
            optimal_sets(RipleyReject(0.4), [[0.5, 0.5], [0.5, 0.5]], CategorySpace(2))

    def test_decision_fields(self):
        space = CategorySpace(4, (2, 2))
        got = composite_classifier(PosteriorVector([0.4, 0.1, 0.3, 0.2], space), 0.15, 0.35)
        assert isinstance(got, Decision)
        assert got.size == 2 and got.block_sizes == (1, 1)
        assert brute_force_optimal(MapZeroOne(), P532).block_sizes == (1,)
