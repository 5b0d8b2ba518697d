"""Seeded random inputs shared by the test files, and the references kept
for them.  Each generator draws from the random source it is given (an
`np.random.RandomState`, or a `random.Random` for systems), so a test's
cases depend only on its seed.  A reference never calls the code it
checks.  The last section holds small helpers that several test files
share."""

import itertools

import numpy as np

from nufix import kernels
from nufix.laws import random_lts  # noqa: F401  (the one random-system generator)
from nufix.posets import FinPoset, MonoMap


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


def with_bottom(leq, b):
    """The order matrix with element b moved below every element: row b
    all True, column b False but for b itself."""
    out = np.array(leq, dtype=np.bool_)
    out[:, b] = False
    out[b] = True
    return out


def relabelled(rng, leq):
    """An isomorphic copy of an order matrix: element k of the copy is
    element perm[k] of `leq`, for a random permutation perm."""
    perm = rng.permutation(len(leq))
    return leq[np.ix_(perm, perm)]


def with_twins(rng, leq, copies):
    """An order matrix with `copies` more elements, each a twin of a random
    element of `leq`: the same elements strictly above and below it, and
    incomparable to it and to its other twins."""
    n = len(leq)
    idx = np.concatenate([np.arange(n), rng.randint(0, n, copies)])
    out = leq[np.ix_(idx, idx)]
    out[idx[:, None] == idx[None, :]] = False
    np.fill_diagonal(out, True)
    return out


def cycle_incidence(lengths):
    """The point-line incidence order of disjoint cycles of the given
    lengths (each at least 3): the points first, then the lines, each line
    above its two points.  [2n] and [n, n] give C_2n and 2.C_n: 4n elements,
    height 2, every element comparable to two others, so refinement that
    only counts neighbours' labels cannot tell them apart."""
    points = sum(lengths)
    leq = np.eye(2 * points, dtype=np.bool_)
    start = 0
    for length in lengths:
        for k in range(length):
            line = points + start + k
            leq[start + k, line] = leq[start + (k + 1) % length, line] = True
        start += length
    return leq


# --------------------------------------------------------------------------
# witness reference for `kernels.find_isomorphism`: its plain backtracker,
# three rounds of labels and no refinement cut, kept as it was


def _iso_backtrack(leq_a, leq_b, order, cands):
    """Depth-first search along `order`, trying each element's candidates
    in list order; returns the first consistent bijection or None."""
    n = len(order)
    a = leq_a.tolist()
    b = leq_b.tolist()
    mapped = [-1] * n
    used = [False] * n
    choice = [-1] * n
    pos = 0
    while pos < n:
        i = order[pos]
        mine = cands[i]
        t = choice[pos] + 1
        while t < len(mine):
            j = mine[t]
            if not used[j] and all(
                a[i][i2] == b[j][mapped[i2]] and a[i2][i] == b[mapped[i2]][j]
                for i2 in order[:pos]
            ):
                break
            t += 1
        if t == len(mine):
            choice[pos] = -1
            pos -= 1
            if pos < 0:
                return None
            i2 = order[pos]
            used[mapped[i2]] = False
            mapped[i2] = -1
        else:
            choice[pos] = t
            mapped[i] = mine[t]
            used[mine[t]] = True
            pos += 1
    return np.array(mapped, dtype=np.int32)


_MIX = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64((1 << 63) - 1)


def _mix(x):
    return ((x ^ (x >> np.uint64(31))) * _MIX) & _MASK


def invariant_labels(leq):
    """Structure-only integer labels (degree + neighbourhood refinement)."""
    off = np.array(leq, dtype=np.uint64)
    np.fill_diagonal(off, 0)
    below, above = leq.sum(axis=0).astype(np.uint64), leq.sum(axis=1).astype(np.uint64)
    labels = (below << np.uint64(20)) ^ above
    for _ in range(3):
        mixed = _mix(labels)
        up, down = (off @ mixed) & _MASK, (off.T @ mixed) & _MASK
        labels = _mix(labels ^ _mix(up) ^ _mix(_mix(down)))
    return labels.astype(np.int64)


def find_isomorphism(leq_a, leq_b):
    """Order-isomorphism a -> b as an index permutation, or None.

    Complete (pruning uses iso-invariant labels only) and sound (the final
    mapping is fully re-verified).
    """
    leq_a = np.asarray(leq_a, dtype=np.bool_)
    leq_b = np.asarray(leq_b, dtype=np.bool_)
    n = leq_a.shape[0]
    if leq_b.shape[0] != n:
        return None
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    if np.array_equal(leq_a, leq_b):
        return np.arange(n, dtype=np.int32)
    la = invariant_labels(leq_a)
    lb = invariant_labels(leq_b)
    if sorted(la.tolist()) != sorted(lb.tolist()):
        return None
    buckets = {}
    for j in range(n):
        buckets.setdefault(int(lb[j]), []).append(j)
    cands = []
    for i in range(n):
        c = buckets.get(int(la[i]), [])
        if not c:
            return None
        cands.append(c)
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    perm = _iso_backtrack(leq_a, leq_b, order, cands)
    if perm is None:
        return None
    if not np.array_equal(leq_b[perm][:, perm], leq_a):
        raise AssertionError("iso search produced an unverified mapping")
    return perm


# --------------------------------------------------------------------------
# ordered reference for `kernels.enum_monotone_tables`


def linear_extension(leq):
    """Reference for the enumerator's position order: element indices
    sorted stably by their column sums, so x <= y puts x first."""
    below = leq.sum(axis=0)
    return np.argsort(below, kind="stable").astype(np.int32)


def monotone_in_order(leq_dom, leq_cod, strict):
    """Every monotone table by brute force, sorted lexicographically along
    the linear extension of the domain; with `strict = (dom_bottom,
    cod_bottom)`, only those sending the one bottom to the other."""
    n, m = len(leq_dom), len(leq_cod)
    cod = np.asarray(leq_cod).tolist()
    below = [(i, j) for i in range(n) for j in range(n) if i != j and leq_dom[i, j]]
    tables = [
        t for t in itertools.product(range(m), repeat=n)
        if all(cod[t[i]][t[j]] for i, j in below)
        and (strict is None or t[strict[0]] == strict[1])
    ]
    order = linear_extension(leq_dom).tolist()
    return sorted(tables, key=lambda t: [t[e] for e in order])


# --------------------------------------------------------------------------
# shared helpers


def from_tags(dom, cod, assign, strict=False):
    """The map sending each dom tag to the cod tag `assign` gives it."""
    table = np.array([cod.index(assign[e]) for e in dom.elements], dtype=np.int32)
    return MonoMap(dom, cod, table, strict)


def not_monotone(leq_dom, leq_cod, row):
    """Does the table `row` send some i <= j to an unordered pair?"""
    return any(leq_dom[i, j] and not leq_cod[row[i], row[j]]
               for i in range(len(row)) for j in range(len(row)))


def set_last(rows, col, value):
    """A copy of `rows` with the entry at `col` of its last row set to `value`."""
    out = rows.copy()
    out[-1, col] = value
    return out
