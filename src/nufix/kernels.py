"""Hot kernels: closure, inclusion and pointwise orders, table/upset
enumeration, cardinality certificates, iso search.

Two kernels build order matrices, of k rows each, by one method
(`_and_rows`): per position and value, a bitset over the rows, and row i
of the order ANDs the bitsets that its own values pick.
`table_order` orders tables pointwise: per position it packs, for each
codomain value v, the bitset of the rows whose value there lies above v.
`inclusion_order` orders upsets by inclusion of their masks: per ground
element it packs the bitset of the masks holding it, which a member
picks and a non-member skips.  That is n gathers of k x ceil(k/64)
words, for n positions or ground elements, where comparing the rows
pairwise costs k x k x ceil(n/64) words: the bitsets save most where n
is well below 64, as on the grounds that upsets are built on.

Tables are enumerated by a bitset backtracker that hands what it has not
entered, once it has used a fixed allowance of nodes, to frontier blocks:
int32 arrays of value prefixes, each extended a position at a time by
ANDing codomain rows and reading the pairs with `np.flatnonzero`.  Blocks
are expanded depth-first and cut to what the limit still needs, so memory
stays bounded, and both phases count their work against
`TABLE_STEP_BUDGET`; past it the enumeration raises
`errors.SearchBudgetExceeded`.  Upsets are enumerated by a memoised split
on the top element.  Both emit rows in a fixed order, so results are
reproducible:

* monotone tables come out in lexicographic order of their values read
  along the domain's linear extension that sorts its elements stably by
  how many elements lie below each (`_linear_extension`);
* upsets come out in lexicographic order of their membership bits read
  along the fewest-elements-above-first order, excluded before included
  (so the empty set is first).

A capped enumeration returns a prefix of the full list.  The certificates
count without enumerating, up to a limit.  `levels` groups a poset into
antichains by longest chain, and a codomain's longest chain makes the
monotone maps into a chain that long (`count_chain_maps`) a lower bound
on its tables.  Two greedy passes over the elements pinch those maps: an
antichain A gives h ** |A| of them (`antichain_bound`), and a chain
partition bounds them by the product of each chain's maps
(`chain_maps_bound`); a largest antichain is as large as a smallest chain
partition (Dilworth, Ann. Math. 51, 1950).  Where the upper bound is
within the cap the count cannot prove an overflow and need not run, and
where the lower bound reaches the limit it proves one at once.  Between
them the count is exact: `count_upsets` splits on an element for the maps
into the 2-chain, the upsets, and `count_upset_chains` counts the maps
into a longer chain as multichains of the domain's upsets, by superset
sums over their inclusion order (the order polynomial: Stanley,
Enumerative Combinatorics vol. 1, ch. 3).  The stacked brute-force
counters are independent oracles for the law suites.

`find_isomorphism`, behind the public `posets.iso_check`, runs a cascade,
cheapest first: the number of comparable pairs, the sorted (elements
below, elements above) pairs, then the neighbourhood labels (`_labels`) of
both orders in one pass.  Most non-isomorphic pairs stop at the first
step.  The search behind them backtracks in a fixed order over fixed
candidate lists, so the first witness found is always the same.  An
individualization-refinement cut only drops branches that have no
completion.  It makes regular orders, whose labels cannot tell elements
apart, decide in milliseconds; twin candidates (the same elements above
and below) are tried once and not refined.  Past `ISO_STEP_BUDGET` steps
of work the search raises `errors.SearchBudgetExceeded`; it never returns
an unproved None.  No result path runs the search: the mediator decides
its stages by their orders alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SearchBudgetExceeded


_BIT_WEIGHTS = (1 << np.arange(8)).astype(np.uint8)
_WORD_WEIGHTS = 1 << np.arange(64, dtype=np.uint64)


def _row_bits(mat):
    """One bitset per row of a boolean matrix: bit i of row r is mat[r, i].
    Up to 64 columns each row is one product with the bit weights, a word
    that numpy hands over as an int, at a third of the cost of a byte
    string per row."""
    mat = np.asarray(mat, dtype=np.bool_)
    if mat.shape[1] <= 64:
        return (mat @ _WORD_WEIGHTS[: mat.shape[1]]).tolist()
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _column_bits(leq, perm):
    """One bitset per column of a boolean matrix, rows and columns both
    taken in `perm` order: bit b of entry c is leq[perm[b], perm[c]].

    The rows are gathered whole, and a product with the bit weights packs
    each run of 8 into one byte per column, so every pass reads rows in
    memory order; a transposed copy strides across them (38 ms against
    13 ms at 3000 elements)."""
    n = len(perm)
    rows = np.zeros((-(-n // 8), 8, n), dtype=np.uint8)
    leq.take(perm, axis=0, out=rows.view(np.bool_).reshape(-1, n)[:n])
    packed = (_BIT_WEIGHTS @ rows).T.take(perm, axis=0)
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[k:k + width], "little") for k in range(0, n * width, width)]


def _unpack(masks, n):
    """Bitsets over n elements as a (len(masks), n) boolean array.  Up to 64
    elements numpy converts the ints as words, at half the cost of a byte
    string per mask."""
    if n <= 64:
        raw = np.array(masks, dtype="<u8").view(np.uint8).reshape(len(masks), 8)
    else:
        width = (n + 7) // 8
        raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
        raw = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n].view(np.bool_)


# --------------------------------------------------------------------------
# order matrices: closure, inclusion and the pointwise order


def transitive_closure(rel):
    """Reflexive-transitive closure of a boolean relation matrix."""
    out = np.array(rel, dtype=np.bool_)
    np.fill_diagonal(out, True)
    for k in range(out.shape[0]):
        out |= out[:, k : k + 1] & out[k : k + 1, :]
    return out


def _and_rows(bits, picks, k):
    """The rows of an order matrix whose row i is the AND over the
    positions p of bits[p, picks[i, p]], unpacked: `bits` is (n, m, w)
    uint64, a bitset over the k rows per position and value, and `picks` an
    (r, n) array of value indices, n >= 1, for r of the k rows.  That is n
    gathers of r x w words."""
    acc = bits[0].take(picks[:, 0], axis=0)
    for p in range(1, picks.shape[1]):
        acc &= bits[p].take(picks[:, p], axis=0)
    return np.unpackbits(acc.view(np.uint8), axis=1, count=k,
                         bitorder="little").view(np.bool_)


def inclusion_order(masks):
    """leq[i, j] = (masks[i] is a subset of masks[j]) for a (k, w) boolean
    array.

    Per ground element g, bits[g] packs over the rows j whether g is in
    masks[j]; row i of the order ANDs the bitsets of its own members, and
    all ones for each non-member (`_and_rows`)."""
    masks = np.asarray(masks, dtype=np.bool_)
    k, w = masks.shape
    if k <= 1 or w == 0:  # at most one row, or every row is the empty set
        return np.ones((k, k), dtype=np.bool_)
    return _and_rows(_member_bits(masks), masks.view(np.uint8), k)


def _member_bits(masks):
    """The bitsets of `inclusion_order` for a (k, w) boolean array, w >= 1:
    per ground element, all ones for a non-member to pick, then the rows
    holding it, as (w, 2, ceil(k/64)) words."""
    k, w = masks.shape
    bits = np.zeros((w, 2, -(-k // 64) * 8), dtype=np.uint8)  # whole words
    bits[:, 0] = 255
    bits[:, 1, : (k + 7) // 8] = np.packbits(masks.T, axis=1, bitorder="little")
    return bits.view(np.uint64)


def table_order(tables, leq_cod):
    """leq[i, j] = (tables[i] <= tables[j] pointwise) for a (k, n) stack of
    codomain indices, under the codomain order `leq_cod`.

    bits[p, v] packs, over the rows j, whether v <= tables[j, p], into
    64-bit words; row i of the order is the AND over the positions p of
    bits[p, tables[i, p]] (`_and_rows`)."""
    k, n = tables.shape
    if k <= 1 or n == 0:  # at most one row, or every row is the empty table
        return np.ones((k, k), dtype=np.bool_)
    m = leq_cod.shape[0]
    bits = np.zeros((n, m, -(-k // 64) * 8), dtype=np.uint8)  # whole words
    bits[:, :, : (k + 7) // 8] = np.packbits(
        leq_cod[:, tables.T], axis=2, bitorder="little").transpose(1, 0, 2)
    return _and_rows(bits.view(np.uint64), tables, k)


# --------------------------------------------------------------------------
# monotone table enumeration


def _linear_extension(down):
    """Element indices of an order given by its down-sets as bitsets
    (`_row_bits` of the transposed matrix), sorted stably by the number of
    elements below each, so x <= y puts x first."""
    return sorted(range(len(down)), key=lambda e: down[e].bit_count())


TABLE_STEP_BUDGET = 2_000_000_000  # steps of `enum_monotone_tables`, about 4 s; see its docstring
_BACKTRACK_STEPS = 512  # backtracker nodes before the frontier takes over
_BLOCK_ROWS = 2048  # prefixes one frontier step extends, at most
_BLOCK_CELLS = 1 << 16  # (prefix, codomain value) pairs one frontier step tests, at most


def enum_monotone_tables(leq_dom, leq_cod, limit, strict=None):
    """Up to `limit` monotone tables dom -> cod, deterministic order.

    `strict = (dom_bottom, cod_bottom)` keeps only the tables sending the
    domain's bottom to the codomain's, the strict maps of pointed posets.
    Tables come out int32 of shape (k, n).

    Two phases walk one search tree, whose positions are the domain's
    elements along `_linear_extension`.  A bitset backtracker on Python
    lists runs first: most calls return a few rows, where a numpy call per
    position would cost more than the whole search.  A position's values
    are bounded by those at the positions it covers (`_lower_covers`), not
    at every position below it.  The values left at the last position are
    all tables, so it emits them per prefix in one inner loop, and checks
    the limit once per prefix.  Once it has visited `_BACKTRACK_STEPS`
    nodes, counting positions run dry and tables, without finishing, the
    branches it has not entered go to `_frontier`, which extends blocks of
    prefixes a position at a time.
    Both phases emit in the same order, and the rows are permuted back to
    element order unless the linear extension is the identity.

    A step of work is a backtracker node or a (prefix, value) pair that
    the frontier tests.  Past `TABLE_STEP_BUDGET` steps, about 4 s of
    frontier work on a 2-CPU machine, the call raises
    SearchBudgetExceeded.
    """
    leq_dom = np.asarray(leq_dom, dtype=np.bool_)
    n, m, limit = len(leq_dom), len(leq_cod), int(limit)
    if n == 0:
        return np.zeros((min(limit, 1), 0), dtype=np.int32)
    if m == 0 or limit == 0:
        return np.zeros((0, n), dtype=np.int32)
    up, down = _row_bits(leq_cod), _row_bits(leq_dom.T)
    order = _linear_extension(down)
    # per position: all of cod (the codomain's bottom alone at a strict
    # domain bottom), and the earlier positions that it covers, whose
    # values bound this one from below
    start = [(1 << m) - 1] * n
    if strict is not None:
        dom_bottom, cod_bottom = map(int, strict)
        start[order.index(dom_bottom)] = 1 << cod_bottom
    if n == 1:
        return np.array(_members(start[0])[:limit], dtype=np.int32).reshape(-1, 1)
    preds = _lower_covers(down, order)
    vals = [0] * n
    rest = [0] * n
    rest[0] = start[0]
    flat = []
    count = dry = 0
    allowance = _BACKTRACK_STEPS
    stop = min(limit, allowance)
    last = n - 1
    pos = 0
    while True:
        r = rest[pos]
        if not r:  # a position run dry
            pos -= 1
            dry += 1
            if pos < 0 or dry > allowance:
                break
            continue
        low = r & -r
        rest[pos] = r ^ low
        vals[pos] = low.bit_length() - 1
        pos += 1
        c = start[pos]
        for q in preds[pos]:
            c &= up[vals[q]]
        if pos < last:
            rest[pos] = c
            continue
        while c:  # each value left at the last position is a table
            low = c & -c
            c ^= low
            vals[last] = low.bit_length() - 1
            flat.extend(vals)
        count = len(flat) // n
        if count >= stop:  # the tables past `stop` go back to the last position
            rest[last] = sum(1 << v for v in flat[stop * n + last :: n])
            del flat[stop * n :]
            count = stop
            break
        pos -= 1
        dry += 1
    rows = np.array(flat, dtype=np.int32).reshape(count, n)
    if pos >= 0 and count < limit:  # the allowance ran out before the search did
        if dry + count > TABLE_STEP_BUDGET:
            raise SearchBudgetExceeded(
                f"table enumeration gave up after {TABLE_STEP_BUDGET} steps")
        # the branches not entered: at each position p up to pos, the
        # values left in rest[p], each after the path's prefix
        pending = [None] * (n + 1)
        for p in range(pos + 1):
            if rest[p]:
                todo = _members(rest[p])
                block = np.empty((len(todo), p + 1), dtype=np.int32)
                block[:, :p] = vals[:p]
                block[:, p] = todo
                pending[p + 1] = block
        rows = np.concatenate([rows, _frontier(
            pending, np.asarray(leq_cod, dtype=np.bool_), start, preds,
            limit - count, dry + count)])
    if order == list(range(n)):  # positions are elements
        return rows
    out = np.empty(rows.shape, dtype=np.int32)
    out[:, order] = rows
    return out


def _lower_covers(down, order):
    """Per position of `order`, a linear extension of the order whose
    down-sets are the bitsets `down`, the earlier positions of the elements
    it covers.  A position's covers are the highest earlier position below
    it, then the highest one not below that, and so on; the positions below
    each are kept as a bitset, so a position costs one test per cover and
    per earlier position not below it."""
    below, out = [], []
    for pos, e in enumerate(order):
        covers, todo, under, lower = [], (1 << pos) - 1, 1 << pos, down[e]
        while todo:
            q = todo.bit_length() - 1
            if lower >> order[q] & 1:
                covers.append(q)
                under |= below[q]
                todo &= ~below[q]
            else:
                todo ^= 1 << q
        below.append(under)
        out.append(covers)
    return out


def _frontier(pending, leq_cod, start, preds, need, steps):
    """The first `need` tables below the prefixes in `pending`, in order,
    as rows in position order; `steps` is the work spent before.

    `pending[k]` holds prefixes of length k (values at positions 0..k-1),
    or None.  Every table below a longer pending prefix comes before every
    table below a shorter one, and within a length the prefixes are in
    order; so a step may extend the head of any length k, and its result
    goes after what length k + 1 holds.  A step takes at most `_BLOCK_ROWS`
    prefixes, and at most as many as make `_BLOCK_CELLS` (prefix, value)
    pairs.  It ANDs the codomain rows of each prefix's values at the
    position's predecessors, and `np.flatnonzero` reads the pairs
    row-major, so each prefix's extensions come out in value order and in
    the prefix's place.

    Steps go deepest first, so rows come out early and each length holds
    at most one step's output and a remnant.  While the deepest length
    holds fewer prefixes than a block and than `need`, the head of the
    next shorter length is extended instead, which merges the
    backtracker's remnants, a few prefixes per position, into full
    blocks; a length that holds `need` prefixes may hold every row asked
    for, so nothing behind it is extended early.  A block starts at `need`
    prefixes, within the caps, and doubles each time a step leaves fewer
    prefixes than it took: a frontier that dies out is where large blocks
    pay."""
    n, m = len(preds), len(leq_cod)
    cap = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // m))
    size = min(cap, need)
    done = []
    if pending[n] is not None:  # whole tables: the backtracker's last siblings
        done.append(pending[n][:need])
        need -= len(done[-1])
    deep = n - 1
    while need > 0:
        while deep >= 0 and pending[deep] is None:
            deep -= 1
        if deep < 0:
            break
        k = deep
        if len(pending[k]) < min(size, need):
            k = next((j for j in range(k - 1, -1, -1) if pending[j] is not None), k)
        block = pending[k][:size]
        pending[k] = pending[k][size:] if len(pending[k]) > size else None
        steps += len(block) * m
        if steps > TABLE_STEP_BUDGET:
            raise SearchBudgetExceeded(
                f"table enumeration gave up after {TABLE_STEP_BUDGET} steps")
        if preds[k]:
            mask = leq_cod.take(block[:, preds[k][0]], axis=0)
            for q in preds[k][1:]:
                mask &= leq_cod.take(block[:, q], axis=0)
        else:
            mask = np.ones((len(block), m), dtype=np.bool_)
        if start[k] != (1 << m) - 1:
            mask &= _unpack([start[k]], m)
        which, value = np.divmod(np.flatnonzero(mask), m)
        grown = np.empty((len(which), k + 1), dtype=np.int32)
        grown[:, :k] = block.take(which, axis=0)
        grown[:, k] = value
        if len(grown) < len(block):
            size = min(cap, 2 * size)
        if k + 1 == n:
            done.append(grown[:need])
            need -= len(done[-1])
        elif len(grown):
            if pending[k + 1] is not None:
                grown = np.concatenate([pending[k + 1], grown])
            pending[k + 1] = grown
            deep = max(deep, k + 1)
    return np.concatenate(done) if done else np.zeros((0, n), dtype=np.int32)


def monotone_ok(leq_dom, leq_cod, table):
    """Is `table`, one codomain index per domain element, monotone?

    Monotone means leq_dom[i, j] implies leq_cod[table[i], table[j]].  The
    codomain order is gathered at the table's values, columns and then
    rows (two `take`s; one 2-d fancy index costs five times as much at
    200 elements and thirty at 1800), and the implication is tested in
    place: leq_dom > gathered marks exactly the violations, so the peak is
    the |cod| x n column gather and one n x n array.  The caller checks the
    table's length and range (`posets.MonoMap` does)."""
    got = leq_cod.take(table, axis=1).take(table, axis=0)
    np.greater(leq_dom, got, out=got)
    return not got.any()


def monotone_rows(leq_dom, leq_cod, tables):
    """Which rows of a (k, n) stack of tables are monotone, as k booleans:
    the predicate of `monotone_ok` for every row at once, through one
    k x n x n gather (for the small stacks of `mediator.adjunction_check`).
    The caller checks the stack's width and range."""
    k, n = tables.shape
    got = leq_cod[tables[:, :, None], tables[:, None, :]]
    return ~(leq_dom > got).reshape(k, n * n).any(axis=1)


def count_monotone_stack(leq_doms, leq_cod, strict=None):
    """Brute-force oracle: the number of monotone tables from each domain of
    a (d, n, n) stack into one codomain, as d ints.

    Every table t of the full |cod|**n grid is a candidate.  The codomain
    order is gathered at every pair of grid positions once: t breaks the
    pair (i, j) when cod[t[i], t[j]] fails.  The broken pairs of each table
    and the required pairs (i <= j) of each domain are packed into bytes,
    and t is monotone from a domain when no byte of the two meets, which
    is one (d, |grid|) AND per byte.  `strict = (dom_bottoms, cod_bottom)`
    keeps only the tables sending each domain's bottom to the codomain's.
    A grid filter that shares no code with the table enumerator;
    used by the law suites."""
    leq_doms = np.asarray(leq_doms, dtype=np.bool_)
    d, n = leq_doms.shape[:2]
    m = leq_cod.shape[0]
    if n == 0:
        return np.ones(d, dtype=np.int64)
    grid = np.indices((m,) * n).reshape(n, -1)
    broken = ~leq_cod[grid[:, None, :], grid[None, :, :]].reshape(n * n, -1)
    broken = np.packbits(broken, axis=0, bitorder="little")
    need = np.packbits(leq_doms.reshape(d, n * n), axis=1, bitorder="little")
    keep = np.ones((d, grid.shape[1]), dtype=np.bool_)
    for b in range(need.shape[1]):
        keep &= (need[:, b, None] & broken[b]) == 0
    if strict is not None:
        dom_bottoms, cod_bottom = strict
        keep &= grid[np.asarray(dom_bottoms, dtype=np.intp)] == cod_bottom
    return keep.sum(axis=1)


def count_upsets_stack(leqs):
    """Brute-force oracle: the upset counts of a (d, n, n) stack of posets.
    An upset is where a monotone map into the 2-chain is 1, so this filters
    all 2**n maps there; no code shared with `enum_upsets`/`count_upsets`."""
    return count_monotone_stack(leqs, np.triu(np.ones((2, 2), dtype=np.bool_)))


# --------------------------------------------------------------------------
# upset enumeration


_MEMO_MASKS = 1 << 16  # upset masks memoised before used lists are dropped


def enum_upsets(leq, limit):
    """Up to `limit` up-closed subsets as boolean masks, empty set first.

    Bit b stands for element perm[b], the fewest-above-first order reversed,
    so the documented order is ascending masks.  The top bit x of a
    sub-ground s is maximal in it: U(s) = U(s - down(x)), then x | U(s - x),
    skipped once the first part fills what s must give; a chain on top of s
    peels off in one step.  Frames on an explicit stack carry what their
    parent still needs, and each list is cut there, so the lists that
    pending frames wait on hold at most `limit` masks together.  Lists are
    memoised per sub-ground, whole ones in `memo`; one that filled its need
    may be cut short, so it goes to `cut`, serves needs up to its length
    and is rebuilt for more.  Past `_MEMO_MASKS` masks, each finished
    sub-ground drops its parts' lists.
    """
    leq = np.asarray(leq, dtype=np.bool_)
    n, limit = leq.shape[0], int(limit)
    if n == 0 or limit == 0:
        return np.zeros((min(limit, int(n == 0)), n), dtype=np.bool_)
    perm = np.argsort(leq.sum(axis=1), kind="stable")[::-1]
    down = _column_bits(leq, perm)
    ground = (1 << n) - 1
    memo, cut, kept, stack = {0: [0]}, {}, 0, [(ground, limit)]
    while stack:
        s, need = stack[-1]  # U(s) is lo, then top | U(hi)
        lo, top, low, hi = [], 0, None, s
        while hi and len(lo) < need and not hi & ~down[x := hi.bit_length() - 1]:
            lo.append(top)  # a chain on top: its top segments
            top |= 1 << x
            hi &= ~top
        if not lo:  # a split on the top bit x of s
            top, low, hi = 1 << x, s & ~down[x], s ^ (1 << x)
            lo = memo.get(low)
            if lo is None:
                lo = cut.get(low)
                if lo is None or len(lo) < need:
                    stack.append((low, need))
                    continue
        if len(lo) < need:
            tail = memo.get(hi)
            if tail is None:
                tail = cut.get(hi)
                if tail is None or len(tail) + len(lo) < need:
                    stack.append((hi, need - len(lo)))
                    continue
            lo = lo + [top | m for m in tail[: need - len(lo)]]
        if len(lo) < need:
            memo[s] = lo
        else:
            cut[s] = lo
        kept += len(lo)
        if kept > _MEMO_MASKS:
            kept -= sum(len(memo.pop(part, ())) + len(cut.pop(part, ()))
                        for part in (low, hi) if part)
        stack.pop()
    masks = memo[ground] if ground in memo else cut[ground]
    out = np.empty((len(masks), n), dtype=np.bool_)
    out[:, perm] = _unpack(masks, n)
    return out


# --------------------------------------------------------------------------
# cardinality certificates


def levels(leq):
    """Element indices grouped by the longest chain below them, lowest first.

    Each group is an antichain and there are as many groups as the longest
    chain has elements (Mirsky, Amer. Math. Monthly 78(8), 1971).  Every
    round peels all minimal elements of what is left: `below` counts the
    strict predecessors not yet peeled, and a peeled element drops to -1.
    """
    leq = np.asarray(leq, dtype=np.bool_)
    below = leq.sum(axis=0) - 1
    out = []
    low = np.flatnonzero(below == 0)
    while low.size:
        out.append(low)
        below -= leq[low].sum(axis=0)
        low = np.flatnonzero(below == 0)
    return out


def _members(s):
    """Indices of the set bits of s, lowest first."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


def count_upsets(leq, limit):
    """min(number of up-closed subsets, limit), exactly.

    An antichain of w elements has 2**w upsets, so a wide one
    (`antichain_bound`) settles it at once.  Otherwise the count splits on
    the element x comparable to most others, by whether an upset holds x:
    U(S) = U(S - up(x)) + U(S - down(x)).  Components multiply, a chain of
    k elements counts k + 1 and an antichain 2**k.  Sub-posets are
    Python-int bitsets; their counts are memoised, cut at `limit`, and
    combined on an explicit stack, so the ground may have any size.
    """
    leq = np.asarray(leq, dtype=np.bool_)
    n, limit = leq.shape[0], int(limit)
    if n == 0:
        return min(1, limit)
    if antichain_bound(leq, 2, limit) >= limit:
        return limit
    up, down = _row_bits(leq), _row_bits(leq.T)
    near = [u | d for u, d in zip(up, down)]

    def split(s):
        """(count, None, None) for a leaf, else (None, product?, parts):
        its components, or the two sides of a split."""
        members = _members(s)
        if all(near[i] & s == 1 << i for i in members):
            return min(1 << len(members), limit), None, None
        parts, rest = [], s
        while rest:
            comp = grow = rest & -rest
            while grow:
                reach = 0
                for i in _members(grow):
                    reach |= near[i]
                grow = reach & rest & ~comp
                comp |= grow
            parts.append(comp)
            rest &= ~comp
        if len(parts) > 1:
            return None, True, parts
        if all(near[i] & s == s for i in members):
            return min(len(members) + 1, limit), None, None
        x = max(members, key=lambda i: (near[i] & s).bit_count())
        return None, False, (s & ~up[x], s & ~down[x])

    memo = {}
    # a frame combines its parts' counts: [product?, parts, next part, acc];
    # the root sums its one part, the whole ground
    stack = [[False, [(1 << n) - 1], 0, 0]]
    while True:
        frame = stack[-1]
        _, parts, i, acc = frame
        if acc < limit and i < len(parts):
            count = memo.get(parts[i])
            if count is None:
                count, product, sub_parts = split(parts[i])
                if count is None:
                    stack.append([product, sub_parts, 0, int(product)])
                    continue
        else:
            count = min(acc, limit)
            stack.pop()
            if not stack:
                return count
            frame = stack[-1]
        memo[frame[1][frame[2]]] = count
        frame[3] = frame[3] * count if frame[0] else frame[3] + count
        frame[2] += 1


def count_chain_maps(leq_dom, h, limit):
    """min(number of monotone maps dom -> an h-element chain, limit), exactly.

    Upsets are the maps into the 2-chain, so `count_upsets` counts those.
    From a chain of n the maps are the multisets of n values out of h,
    counted in closed form.  Otherwise a wide antichain proves an overflow
    first (`antichain_bound`), and `count_upset_chains` counts what it
    leaves.
    """
    leq_dom = np.asarray(leq_dom, dtype=np.bool_)
    n, limit = leq_dom.shape[0], int(limit)
    if h <= 1:  # the constant map, or the empty map from the empty poset
        return min(int(h == 1 or n == 0), limit)
    if h == 2:
        return count_upsets(leq_dom, limit)
    if (leq_dom | leq_dom.T).all():  # a chain
        return min(math.comb(n + h - 1, n), limit)
    if antichain_bound(leq_dom, h, limit) >= limit:
        return limit
    return count_upset_chains(leq_dom, h, limit)


_SUM_CELLS = 1 << 18  # inclusion-order cells one block of `count_upset_chains` reads


def count_upset_chains(leq_dom, h, limit):
    """min(number of monotone maps dom -> an h-element chain, limit),
    exactly, counted over the upsets of dom, for h >= 2.

    A map f into 0 < ... < h - 1 is the chain of its upsets
    {f >= 1} ⊇ ... ⊇ {f >= h - 1}, and every such multichain of h - 1
    upsets is a map; their number is the order polynomial (Stanley,
    Enumerative Combinatorics vol. 1, 2nd ed., 2012, ch. 3).
    `enum_upsets(dom, limit)` gives the k upsets, and k = limit already
    proves the overflow: the upsets are the maps onto the chain's ends.
    Otherwise c(U) = 1 counts the chain of one upset, U, and each of h - 2
    superset sums, c'(U) = sum of c(V) over the upsets V ⊇ U, cut at
    `limit`, extends the chains by one upset U below their least; the count
    is the sum of the last c.
    The sums read the inclusion order (`_and_rows` over `_member_bits`) a
    block of rows at a time, `_SUM_CELLS` cells and their int64 product, so
    no k x k matrix is ever held; an order that fits one block is built
    once.  Past int64 range the sums are of Python ints.
    """
    limit = int(limit)
    masks = enum_upsets(leq_dom, limit)
    k = len(masks)
    if k >= limit or k <= 1 or h <= 2:  # k <= 1: the empty domain
        return min(k, limit)
    bits, picks = _member_bits(masks), masks.view(np.uint8)
    rows = max(1, _SUM_CELLS // k)
    held = [_and_rows(bits, picks, k)] if rows >= k else None  # the order is one block
    counts = np.ones(k, dtype=np.int64 if k * limit < 1 << 63 else object)
    for _ in range(h - 2):
        blocks = held or (_and_rows(bits, picks[i : i + rows], k) for i in range(0, k, rows))
        counts = np.minimum(np.concatenate([block @ counts for block in blocks]), limit)
    return min(int(counts.sum()), limit)


def antichain_bound(leq_dom, h, limit):
    """min(h ** |A|, limit) for an antichain A of dom, a lower bound on the
    monotone maps dom -> an h-element chain, so never above
    `count_chain_maps(leq_dom, h, limit)`.

    Any values on A, carried upward as the largest value at or below each
    element (0 where there is none), make a monotone map that keeps them
    on A, so each of the h ** |A| choices is another map (for h >= 1).  A
    grows greedily: the live element with the fewest live elements
    comparable to it joins A, and they all leave; the walk stops once
    h ** |A| reaches `limit`.  It costs the row bitsets and a bit count per
    live element and step.
    """
    leq = np.asarray(leq_dom, dtype=np.bool_)
    near = [u | d for u, d in zip(_row_bits(leq), _row_bits(leq.T))]
    alive, live, bound, limit = list(range(len(near))), (1 << len(near)) - 1, 1, int(limit)
    if h == 0:  # no value to carry: only the empty map, from the empty poset
        return min(int(not alive), limit)
    while alive and bound < limit:
        degree = [(near[e] & live).bit_count() for e in alive]
        live &= ~near[alive[degree.index(min(degree))]]
        alive = [e for e in alive if live >> e & 1]
        bound *= h
    return min(bound, limit)


def chain_maps_bound(leq_dom, h, limit):
    """min(B, limit) for an upper bound B on the monotone maps dom -> an
    h-element chain, so never below `count_chain_maps(leq_dom, h, limit)`.

    B comes from a greedy chain partition: the elements go most elements
    above first, a linear extension, each onto the first chain whose top
    lies below it or else onto a new chain.  A monotone map is fixed by
    its restrictions to the chains of a partition (Dilworth, Ann. Math.
    51, 1950), and a chain of k elements has comb(k + h - 1, k) maps into
    the h-chain, so B is the product of those.  An element put onto a
    chain of k multiplies it by (k + h) / (k + 1), so the product only
    grows, and the walk stops once it reaches `limit`.  It costs the row
    bitsets and a test per element and chain.
    """
    leq = np.asarray(leq_dom, dtype=np.bool_)
    up, limit = _row_bits(leq), int(limit)
    tops, sizes, bound = [], [], 1
    for e in sorted(range(len(up)), key=lambda e: -up[e].bit_count()):
        c = next((c for c, t in enumerate(tops) if up[t] >> e & 1), len(tops))
        if c == len(tops):
            tops.append(e)
            sizes.append(0)
        k = sizes[c]
        bound = bound * (k + h) // (k + 1)
        if bound >= limit:
            return limit
        tops[c], sizes[c] = e, k + 1
    return min(bound, limit)


# --------------------------------------------------------------------------
# isomorphism search


ISO_STEP_BUDGET = 20_000_000  # steps of `_iso_search`, about 4 s; see its docstring

_MIX = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64((1 << 63) - 1)
_FRESH = 1 << 63  # individualized colours, above every mixed label


def _mix(x):
    return ((x ^ (x >> np.uint64(31))) * _MIX) & _MASK


def _strict_pairs(leq):
    """The strictly related pairs x < y of an order matrix, or of a
    (d, n, n) stack of them, as index arrays into the sums that
    `_refine_round` builds: the dn up-sums (element k of order s is
    s * n + k), then the dn down-sums.  Each y is added into x's up-sum
    and each x into y's down-sum."""
    d, n = math.prod(leq.shape[:-2]), leq.shape[-1]  # d = 1 for one matrix
    side, x, y = np.nonzero(leq.reshape(d, n, n) & ~np.eye(n, dtype=np.bool_))
    x, y = side * n + x, side * n + y
    return np.concatenate([x, y + d * n]), np.concatenate([y, x])


def _refine_round(pairs, labels):
    """Each label mixed with the sums of the mixed labels strictly above and
    below it, over the orders' `_strict_pairs`, so a round costs the number
    of related pairs.  The uint64 sums wrap modulo 2^64, so cut to 63 bits
    they are those of a loop that masks after every addition.  `labels` is
    (n,), or (d, n) for a stack of d orders."""
    into, source = pairs
    sums = np.zeros(2 * labels.size, dtype=np.uint64)
    np.add.at(sums, into, _mix(labels).reshape(-1)[source])
    up, down = _mix(sums & _MASK).reshape(2, *labels.shape)
    return _mix(labels ^ up ^ _mix(down))


def _labels(pairs, below, above):
    """Iso-invariant labels of an order, or of a (d, n, n) stack, from its
    `_strict_pairs` and (below, above) counts by three `_refine_round`s."""
    labels = (below.astype(np.uint64) << np.uint64(20)) ^ above.astype(np.uint64)
    for _ in range(3):
        labels = _refine_round(pairs, labels)
    return labels.astype(np.int64)


def _refine(pairs, colours):
    """Refine a (2, n) stack of colourings of two orders, given by their
    `_strict_pairs`, to a fixpoint; returns it, or None as soon as the
    sides' colour histograms differ, with the number of rounds run.

    Both sides go through the same rounds, so an isomorphism that respects
    the input colours respects every round's; differing histograms prove
    there is none.  A round that splits no class ends the refinement."""
    classes, rounds = None, 0
    while True:
        hist = np.sort(colours, axis=1)
        if not np.array_equal(hist[0], hist[1]):
            return None, rounds
        now = 1 + np.count_nonzero(hist[0, 1:] != hist[0, :-1])
        if now == classes:
            return colours, rounds
        classes, rounds = now, rounds + 1
        colours = _refine_round(pairs, colours)


def _twin_classes(leq):
    """Class ids of the elements of an order, equal exactly for twins:
    elements with the same strict up-set and down-set."""
    strict = leq & ~np.eye(len(leq), dtype=np.bool_)
    keys = np.packbits(np.hstack([strict, strict.T]), axis=1)
    ids = {}
    return [ids.setdefault(key.tobytes(), len(ids)) for key in keys]


def _iso_search(leq_a, leq_b, order, cands, related, labels, budget):
    """Depth-first search along `order`, trying each element's candidates
    in list order; returns the first consistent bijection or None.

    Individualization-refinement (McKay & Piperno, J. Symbolic Comput. 60,
    2014) cuts dead branches.  `refined` holds colourings on the current
    path, first the labels.  A candidate must have its element's colour
    in the latest one.  Where two or more unused candidates have that
    colour, the node is a split: the pairs mapped since then and the new
    pair each get a fresh colour on both sides, and `_refine` cuts the
    branch or records the refined colouring.  Where those candidates are
    all twins in b, swapping two of them is an automorphism of b that fixes
    every mapped element, so they all extend or none does: the node tries
    the first one alone and does not refine.  The cuts only drop branches
    with no completion, so the first witness is the plain backtracker's.

    The budget counts steps: each candidate looked at costs one, one
    checked against the pos elements mapped before it pos more, and a
    refinement round about as much as checking against 200 + p/24, for p
    related pairs in the two orders (a step is about 0.2 us on a 2-CPU
    machine).  Past `budget` steps the search raises SearchBudgetExceeded,
    so it never returns an unproved None.
    """
    n = len(order)
    a = leq_a.tolist()
    b = leq_b.tolist()
    mapped = [-1] * n
    used = [False] * n
    choice = [-1] * n
    kind = [None] * n  # "plain", "split" or "twins", set on entering a position
    twins = None  # b's twin classes, computed at the first node with a choice
    refined = [(-1, labels, *labels.tolist())]  # (position, colours, as lists)
    steps, round_steps = 0, 200 + len(related[0]) // 48
    pos = 0
    while pos < n:
        i = order[pos]
        mine = cands[i]
        while refined[-1][0] >= pos:
            refined.pop()
        last, colours, ca, cb = refined[-1]
        t = choice[pos] + 1
        if t == 0:
            live = [j for j in mine if not used[j] and cb[j] == ca[i]]
            kind[pos] = "plain"
            if len(live) > 1:
                if twins is None:
                    twins = _twin_classes(leq_b)
                kind[pos] = "twins" if len({twins[j] for j in live}) == 1 else "split"
        elif kind[pos] == "twins":
            t = len(mine)  # the twin tried had no completion, so none has
        while t < len(mine):
            j = mine[t]
            steps += 1
            if not used[j] and cb[j] == ca[i]:
                steps += pos
                if steps > budget:
                    raise SearchBudgetExceeded(
                        f"iso search gave up after {budget} steps")
                if all(a[i][i2] == b[j][mapped[i2]] and a[i2][i] == b[mapped[i2]][j]
                       for i2 in order[:pos]):
                    if kind[pos] != "split":
                        break
                    fresh = colours.copy()
                    for q in range(last + 1, pos):
                        fresh[0, order[q]] = fresh[1, mapped[order[q]]] = _FRESH + q
                    fresh[0, i] = fresh[1, j] = _FRESH + pos
                    fresh, rounds = _refine(related, fresh)
                    steps += rounds * round_steps
                    if fresh is not None:
                        refined.append((pos, fresh, *fresh.tolist()))
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


def find_isomorphism(leq_a, leq_b):
    """Order-isomorphism a -> b as an index permutation, or None.

    The cheapest invariants decide first: the number of comparable pairs,
    then the sorted (elements below, elements above) pairs, then the
    sorted `_labels`, computed for both orders in one pass.
    Candidates are the elements with equal labels, and `_iso_search` runs
    with the refinement cut under `ISO_STEP_BUDGET` steps.  Complete (every
    cut is an iso-invariant) and sound (the final mapping is fully
    re-verified).
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
    if np.count_nonzero(leq_a) != np.count_nonzero(leq_b):
        return None
    stack = np.stack([leq_a, leq_b])
    below, above = stack.sum(axis=1), stack.sum(axis=2)
    degrees = np.sort(below * (n + 1) + above, axis=1)
    if not np.array_equal(degrees[0], degrees[1]):
        return None
    related = _strict_pairs(stack)
    labels = _labels(related, below, above)
    la, lb = labels.tolist()
    if sorted(la) != sorted(lb):
        return None
    buckets = {}
    for j in range(n):
        buckets.setdefault(lb[j], []).append(j)
    cands = [buckets[la[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    perm = _iso_search(leq_a, leq_b, order, cands, related, labels.view(np.uint64),
                       ISO_STEP_BUDGET)
    if perm is None:
        return None
    if not np.array_equal(leq_b[perm][:, perm], leq_a):  # pragma: no cover
        raise AssertionError("iso search produced an unverified mapping")
    return perm
