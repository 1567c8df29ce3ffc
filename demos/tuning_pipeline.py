"""Choosing the reporting cost by leave-one-out cross-validation.

Every training observation is held out in turn, the Gaussian model for
its category is refitted on the remaining rows, and the held-out point
is classified with the blockwise rule at each cost b on a grid (within
cost a tied to b by a fixed ratio).  The result is one operating curve
per score variant:

  R1  reward only when the set is exactly the true singleton
  R2  reward when the set is the true category's block, exactly
  R3  reward when the set contains the true category
  R4  reward when the set contains any category from the true block

R3 and R4 degrade monotonically as b grows (sets shrink), so those
variants take the largest b whose error stays under a chosen bound.
R1 and R2 are not monotone.  Each fold's score is a step function of b,
so their error is minimized exactly over the grid's range, at the
smallest b that reaches the minimum.
"""

import numpy as np

from setbayes import (
    BinaryReward,
    CategorySpace,
    CVConfig,
    TrainingData,
    evaluate_curves,
    loocv_posteriors,
    make_weights,
    select_b_minimize,
    select_b_threshold,
)

EPSILON = 1.0   # within-block cost a = EPSILON * b
DELTA = 0.1     # tolerated non-containment rate for R3 and R4


def simulated_blocked_data(rng):
    """Three categories; the first two form a block of confusable twins."""
    centers = [np.array([0.0, 0.0]), np.array([1.4, 0.6]), np.array([4.0, 3.0])]
    counts = (60, 45, 16)
    groups = [rng.normal(c, 1.0, size=(n, 2)) for c, n in zip(centers, counts)]
    return TrainingData(groups), CategorySpace(3, block_sizes=(2, 1))


def main() -> None:
    data, space = simulated_blocked_data(np.random.default_rng(8))
    prior = np.asarray(data.counts, dtype=float) / sum(data.counts)
    weights = make_weights("per_observation", data.counts)

    print("counts per category:", data.counts, " blocks:", space.block_sizes)
    held = loocv_posteriors(data, space, prior, n_draws=150, seed=0)
    config = CVConfig(EPSILON, DELTA, grid_lo=0.05, grid_hi=2.0, grid_step=0.05)
    report = evaluate_curves(config, held, weights)

    print("\ncross-validated reward rates along the cost grid (excerpt):")
    print(f"  {'b':>5s}  {'R1':>6s}  {'R2':>6s}  {'R3':>6s}  {'R4':>6s}")
    for row in report.rate_rows()[::8]:
        b, r1, r2, r3, r4 = row
        print(f"  {b:5.2f}  {r1:6.3f}  {r2:6.3f}  {r3:6.3f}  {r4:6.3f}")
    print("Small b means big permissive sets: containment (R3, R4) is easy")
    print("but exactness (R1, R2) is hopeless.  Large b reverses the trade.")

    print(f"\nlargest b keeping non-containment under {DELTA}:")
    for name, variant in (("R3", BinaryReward.CONTAINS_TRUTH),
                          ("R4", BinaryReward.HITS_TRUE_BLOCK)):
        sel = select_b_threshold(report, variant)
        print(f"  {name}: b = {sel.display()}  (non-reward {sel.non_reward_rate:.4f})")

    print("\nb minimizing the error of the exact variants:")
    for name, variant in (("R1", BinaryReward.EXACT_SINGLETON),
                          ("R2", BinaryReward.WITHIN_BLOCK)):
        sel = select_b_minimize(report, variant)
        print(f"  {name}: b = {sel.cost:.4f}  (non-reward {sel.non_reward_rate:.4f})")


if __name__ == "__main__":
    main()
