"""Seeded random inputs shared by the test files.  Each generator draws from
the `np.random.RandomState` it is given, so a test's cases depend only on
its seed."""

import numpy as np

from nufix import kernels
from nufix.posets import FinPoset


def random_order(rng, n, density):
    """A random partial order on n elements, shuffled out of index order:
    each pair i < j is related with probability `density`, then closed."""
    rel = np.triu(rng.rand(n, n) < density, 1)
    perm = rng.permutation(n)
    return kernels.transitive_closure(rel)[np.ix_(perm, perm)]


def random_poset(rng, n, prefix):
    """A random poset on the elements prefix0, prefix1, ...: each pair i < j
    is related with probability 0.3, then closed, in index order."""
    rel = np.triu(rng.rand(n, n) < 0.3, 1)
    return FinPoset([f"{prefix}{i}" for i in range(n)], kernels.transitive_closure(rel))
