import atexit
import shutil
import tempfile

import numpy as np
from hypothesis import configuration, settings

from setbayes import BinaryReward, CategorySpace, PosteriorVector

# No example database, and hypothesis's other caches (the constants it
# reads from the source) in a temporary directory removed at exit, so a
# test run writes no ``.hypothesis/`` directory into the working tree.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def random_partition(rng, n, k):
    """k positive block sizes summing to n."""
    if k == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    edges = np.concatenate([[0], cuts, [n]])
    return tuple(int(hi - lo) for lo, hi in zip(edges[:-1], edges[1:]))


def random_space(rng, n_lo=2, n_hi=10, k_hi=4):
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(1, min(k_hi, n) + 1))
    return CategorySpace(n, random_partition(rng, n, k))


def random_posterior(rng, space, concentration=1.0):
    p = rng.dirichlet(np.full(space.n_categories, concentration))
    return PosteriorVector(p, space)


def binary_reward(variant, chosen, true_category, space):
    """One of the four 0/1 scores of a (set, truth) pair, scored set by set:
    the reference for ``HeldOutPosteriors.binary_scores``."""
    i = int(true_category)
    sl = space.block_slice(space.block_of(i))
    block = set(range(sl.start + 1, sl.stop + 1))
    if variant is BinaryReward.EXACT_SINGLETON:
        return int(chosen.members == (i,))
    if variant is BinaryReward.WITHIN_BLOCK:
        return int(i in chosen and set(chosen) <= block)
    if variant is BinaryReward.CONTAINS_TRUTH:
        return int(i in chosen)
    return int(bool(block & set(chosen)))  # HITS_TRUE_BLOCK


def spawned_streams(seed, category):
    """The three generators of one category's leave-one-out folds, for the
    ``normal``, ``chisquare`` and ``standard_normal`` calls in that order."""
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence([seed, category]).spawn(3)
    ]
