"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: dict-based composition, dict-of-sets
BFS, Bron-Kerbosch cliques.  Slow but obviously correct on small ground
sets, which is the point.
"""

import itertools
from collections import deque

import numpy as np

from invsemi import graph as gm
from invsemi._bulk import _stratum_tables, pack_bool_rows
from invsemi.construct import (ExtremalReport, SemigroupFlags,
                               SemigroupSet, closure)
from invsemi.pinj import PInj, UNDEF, decompose


def oracle_compose(a: PInj, b: PInj) -> PInj:
    out = {}
    for x in range(a.n):
        y = a(x)
        if y == UNDEF:
            continue
        z = b(y)
        if z != UNDEF:
            out[x] = z
    return PInj.from_dict(a.n, out)


def oracle_commutes(a: PInj, b: PInj) -> bool:
    return oracle_compose(a, b) == oracle_compose(b, a)


def oracle_semigroup_flags(s) -> SemigroupFlags:
    """The flags of ``construct.classify_semigroup`` for the SemigroupSet
    ``s``, by definition: every pair (and, for regularity, triple) of
    elements composed one at a time with ``oracle_compose``."""
    els, n = list(s.elements), s.n
    zero = PInj.zero(n)
    members = set(els)

    def nilpotent(e):
        p = e
        for _ in range(n):
            p = oracle_compose(p, e)
        return p == zero

    closed = all(oracle_compose(a, b) in members for a in els for b in els)
    commutative = all(oracle_commutes(a, b)
                      for a, b in itertools.combinations(els, 2))
    null = all(oracle_compose(a, b) == zero for a in els for b in els)
    nilp = closed and all(nilpotent(e) for e in els)
    regular = closed and all(
        any(oracle_compose(oracle_compose(a, x), a) == a for x in els)
        for a in els)
    idems = [e for e in els if oracle_compose(e, e) == e]
    inverse = regular and all(oracle_commutes(u, v)
                              for u in idems for v in idems)
    semilattice = closed and commutative and len(idems) == len(els)
    return SemigroupFlags(len(els), closed, commutative, null, nilp,
                          inverse, semilattice)


def oracle_idempotent_semilattice(n):
    """The 2^n partial identities, one per domain, each ranked by
    ``element_id``: the reference for ``construct.idempotent_semilattice``,
    which takes the rows and IDs of ``_bulk.elements_matrix``."""
    out = []
    for r in range(n + 1):
        for dom in itertools.combinations(range(n), r):
            img = [UNDEF] * n
            for x in dom:
                img[x] = x
            out.append(PInj(n, img))
    return SemigroupSet.from_elements(n, out)


def oracle_max_commutative_nilpotent(n):
    """The report of ``construct.max_commutative_nilpotent(n)`` with every
    maximum clique plus zero closed by ``construct.closure``, which builds
    each witness with ``SemigroupSet.from_elements``: the reference for the
    search, which closes one clique per conjugation orbit and builds the
    witnesses from the graph's rows and IDs."""
    g = gm.build_graph(n, "nilpotent", center="ideal")
    cliques = gm.maximum_cliques(g)
    zero = PInj.zero(n)
    witnesses = []
    for idx in cliques:
        sg = closure([g.vertex_element(i) for i in idx] + [zero], n)
        if len(sg) != len(idx) + 1:
            raise AssertionError("maximum clique is not product-closed")
        witnesses.append(sg)
    witnesses.sort(key=lambda s: s.ids)
    return ExtremalReport(n, len(cliques[0]) + 1, len(witnesses),
                          tuple(witnesses))


def oracle_products(a, b):
    """``int8[len(a), len(b), n]`` with row [i, j] the composite a_i·b_j
    (a_i applied first), by fancy indexing b's sentinel-augmented matrix
    with the int8 rows of a: the reference for ``_bulk.products``, which
    gathers with ``np.take``."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("row batches of different ground sizes")
    aug = np.concatenate([b, np.full((len(b), 1), b.shape[1], np.int8)],
                         axis=1)
    return aug[:, a].transpose(1, 0, 2)


def oracle_decode(n, parts, idx):
    """The int8 rows of the options ``idx`` of ``_bulk.decoder`` tables
    ``parts``, by fancy indexing with int8 index arrays and a 2-D fancy
    scatter per stratum: the reference for ``_bulk.decode``, which gathers
    with ``np.take`` and scatters with flat ``np.put``."""
    out = np.empty((len(idx), n), dtype=np.int8)
    for cols, rotated, t, length, bounds, tables in reversed(parts):
        idx, k = np.divmod(idx, bounds[-1])
        strata = np.searchsorted(bounds, k, side="right")
        choice = np.zeros((len(k), t), dtype=np.int8)
        for r in range(max(strata.min(initial=t), 1),
                       strata.max(initial=0) + 1):
            rows = np.flatnonzero(strata == r)
            if not len(rows):
                continue
            if r not in tables:
                tables[r] = _stratum_tables(t, length, r)
            subsets, targets, shifts = tables[r]
            rest, offs = np.divmod(k[rows] - bounds[r - 1], length ** r)
            src, dst = np.divmod(rest, len(targets))
            choice[rows[:, None], subsets[src]] = targets[dst] + shifts[offs]
        out[:, cols] = rotated[choice].reshape(len(k), -1)
    return out


def oracle_gather_packed(packed, rows, cols):
    """Packed rows ``rows`` of ``packed`` with their columns gathered
    through ``cols``, in blocks of 64 rows: each block unpacks to one byte
    per bit, gathers the bytes through ``cols`` and packs them back, so the
    padding bits are clear.  The reference for ``_bulk.gather_packed``,
    which gathers whole 64-row columns as words between two transposes of
    64×64 bit tiles."""
    out = np.empty((len(rows), (len(cols) + 63) // 64), dtype=np.uint64)
    for s in range(0, len(rows), 64):
        block = packed[rows[s:s + 64]].view(np.uint8)
        bits = np.unpackbits(block, axis=1, bitorder="little").view(bool)
        out[s:s + 64] = pack_bool_rows(bits[:, cols], len(cols))
    return out


def oracle_forest_fill(packed, forest):
    """A copy of the packed adjacency ``packed`` with every row that the
    ``orbit_forest`` ``forest`` pulls cleared and rebuilt from the row it
    pulled from, pull by pull, by ``oracle_gather_packed``.  The reference
    for the forest fill of ``_bulk.adjacency_packed``."""
    out = packed.copy()
    _, _, _, pulls = forest
    for _, new in pulls:
        out[new] = 0
    for g, new in pulls:
        out[new] = oracle_gather_packed(out, g[new], g)
    return out


def brute_adjacency(elements):
    """Commuting-graph adjacency as a dict index -> set(indices)."""
    adj = {i: set() for i in range(len(elements))}
    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            if oracle_commutes(a, elements[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def oracle_degrees(g):
    """Per-vertex degrees of a commuting graph, one popcount per row: the
    reference for ``CommutingGraph.degrees``, which counts the
    representative row of each conjugacy class only."""
    return np.bitwise_count(g.packed).sum(axis=1, dtype=np.int64)


def oracle_core_mask(packed, min_deg):
    """The vertices left by peeling, one row at a time, every vertex with
    fewer than ``min_deg`` alive neighbours until none is left to peel:
    the reference for ``graph._peel``, which peels whole conjugacy
    classes by their representatives' counts."""
    alive = np.ones(packed.shape[0], dtype=bool)
    while True:
        words = pack_bool_rows(alive[None, :], len(alive))[0]
        idx = np.flatnonzero(alive)
        if not len(idx):
            return alive
        degs = np.bitwise_count(packed[idx] & words).sum(axis=1)
        drop = degs < min_deg
        if not drop.any():
            return alive
        alive[idx[drop]] = False


def oracle_relabel_order(packed, alive):
    """The alive vertices by descending degree within the alive set, then
    by index, with each row's alive neighbours counted one row at a time:
    the vertex order of ``oracle_clique_search``.  The counts are signed,
    so an isolated vertex sorts last."""
    words = pack_bool_rows(alive[None, :], len(alive))[0]
    idx = np.flatnonzero(alive)
    degs = np.bitwise_count(packed[idx] & words).sum(axis=1, dtype=np.int64)
    return idx[np.lexsort((idx, -degs))]


def oracle_clique_search(g):
    """(clique number, a maximum clique, every maximum clique) by the
    clique search with one root branch per vertex: the greedy seed, then
    branch and bound from every vertex of the row-level core, in
    descending degree order, over the later vertices, once for the clique
    number and once to enumerate.  The reference for
    ``graph.clique_number`` and ``graph.maximum_cliques``, which root one
    local graph per conjugacy class and close the enumeration under
    conjugation."""
    if not g.num_vertices:
        return 0, (), [()]

    def search(floor, target):
        order = oracle_relabel_order(
            g.packed, oracle_core_mask(g.packed, floor))
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in oracle_gather_packed(g.packed, order, order)]
        run = gm._CliqueRun(rows, floor, target)
        for i, row in enumerate(rows):
            cand = row >> (i + 1) << (i + 1)
            if 1 + cand.bit_count() > run.floor:
                run.expand([i], cand)
        return run, order.tolist()

    best = sorted(gm._greedy_best(g))
    run, order = search(len(best), None)
    if run.found:
        best = sorted(order[i] for i in run.found[-1])
    size = len(best)
    run, order = search(size - 1, size)
    found = sorted(tuple(sorted(order[i] for i in c)) for c in run.found)
    return size, tuple(best), found


def oracle_greedy_from(rows, start, by_degree):
    """Greedy clique through ``start`` by a scan of every vertex in
    ``by_degree`` order, adding each one adjacent to all added so far: the
    reference for ``graph._greedy_from``, which walks the start's
    neighbours only."""
    clique = [start]
    cand = rows[start]
    for v in by_degree:
        if (cand >> int(v)) & 1:
            clique.append(int(v))
            cand &= rows[int(v)]
    return clique


def multi_source_bfs(g, block=1024):
    """``int64[3, V]``: each vertex's eccentricity over its reached set,
    reached count and lowest-index vertex of its last level, by a BFS from
    every vertex.  Sources go 64 to a uint64 word (bit k of a vertex's word
    says whether source k has reached it); each level ORs the frontier
    words of every vertex's neighbours with one ``np.bitwise_or.reduceat``
    over a CSR gather (Then et al., "The More the Merrier", PVLDB 2014).
    The neighbour lists come from unpacking ``g.packed``, not from the
    package's BFS."""
    nverts = g.num_vertices
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for s in range(0, nverts, block):
        bits = np.unpackbits(g.packed[s:s + block].view(np.uint8), axis=1,
                             bitorder="little")[:, :nverts]
        r, c = np.nonzero(bits)
        rows.append(r + s)
        cols.append(c)
    indices = np.concatenate(cols)
    indptr = np.cumsum(np.bincount(np.concatenate(rows), minlength=nverts))
    indptr = np.concatenate([[0], indptr])
    # reduceat would return a lone element for an empty neighbour list
    has = indptr[1:] > indptr[:-1]
    starts = indptr[:-1][has]
    out = np.zeros((3, nverts), dtype=np.int64)

    def source_bits(words, width):
        # bool[V, width]: bit k of each vertex's word is column k
        return np.unpackbits(words.view(np.uint8).reshape(nverts, 8), axis=1,
                             bitorder="little")[:, :width]

    for lo in range(0, nverts, 64):
        srcs = np.arange(lo, min(lo + 64, nverts))
        bit = np.uint64(1) << np.arange(len(srcs), dtype=np.uint64)
        frontier = np.zeros(nverts, dtype=np.uint64)
        frontier[srcs] = bit
        seen = frontier.copy()
        far, level = srcs.copy(), 0
        ecc = np.zeros(len(srcs), dtype=np.int64)
        while True:
            nxt = np.zeros(nverts, dtype=np.uint64)
            if len(starts):
                nxt[has] = np.bitwise_or.reduceat(frontier[indices], starts)
            nxt &= ~seen
            if not nxt.any():
                break
            level += 1
            seen |= nxt
            hits = source_bits(nxt, len(srcs))
            live = hits.any(axis=0)
            ecc[live] = level
            far[live] = hits.argmax(axis=0)[live]
            frontier = nxt
        out[:, srcs] = ecc, source_bits(seen, len(srcs)).sum(axis=0), far
    return out


def dense_adjacency_packed(mat, rows=None, block=256):
    """Packed commutation adjacency of ``rows`` (default: all rows) of a
    sentinel-n image matrix against every row, diagonal clear, by comparing
    every pair with dense gathers.  Bit j of word w is column 64w+j, as in
    the package's packed rows, and padding bits are zero."""
    mat = np.asarray(mat, dtype=np.int8)
    big_n, n = mat.shape
    rows = np.arange(big_n) if rows is None else np.asarray(rows)
    aug = np.concatenate([mat, np.full((big_n, 1), n, np.int8)], axis=1)
    words = (big_n + 63) // 64
    out = np.zeros((len(rows), words * 64), dtype=bool)
    for s in range(0, len(rows), block):
        blk = rows[s:s + block]
        # ab[b, j, x] = m_b(a_j(x)); ba[j, b, x] = a_j(m_b(x))
        ab = aug[:, mat[blk]]
        ba = aug[blk][:, mat]
        eq = (ab.transpose(1, 0, 2) == ba).all(axis=2)
        eq[np.arange(len(blk)), blk] = False
        out[s:s + len(blk), :big_n] = eq
    packed = np.packbits(out, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64).reshape(len(rows), words)


def oracle_permutation_centralizer(a: PInj):
    """Every element commuting with the permutation ``a``, from option
    lists: per cycle-length class with t cycles of length L, every
    injective partial map between cycles (domain subset, ordered targets)
    with one rotation offset in range(L) per mapped cycle, combined over
    the classes by an itertools product."""
    classes = {}
    for c in decompose(a).cycles:
        classes.setdefault(len(c), []).append(c)
    per_class = []
    for length in sorted(classes):
        cyc = classes[length]
        t = len(cyc)
        options = []
        for r in range(t + 1):
            for dom_idx in itertools.combinations(range(t), r):
                for tgt_idx in itertools.permutations(range(t), r):
                    for offs in itertools.product(range(length), repeat=r):
                        options.append((dom_idx, tgt_idx, offs))
        per_class.append((cyc, options))
    for combo in itertools.product(*(opts for _, opts in per_class)):
        img = [UNDEF] * a.n
        for (cyc, _), (dom_idx, tgt_idx, offs) in zip(per_class, combo):
            for di, ti, off in zip(dom_idx, tgt_idx, offs):
                src, tgt = cyc[di], cyc[ti]
                k = len(src)
                for i, x in enumerate(src):
                    img[x] = tgt[(i + off) % k]
        yield PInj(a.n, img)


def oracle_overlap_classes(d: PInj, e: PInj) -> set:
    """Classes of the transitive closure of 'same cycle of d or of e', by
    union-find over the cycles of both."""
    parent = list(range(d.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in (d, e):
        for c in decompose(perm).cycles:
            for x in c[1:]:
                parent[find(x)] = find(c[0])
    groups = {}
    for x in range(d.n):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def oracle_joint_centralizer(d: PInj, e: PInj) -> list:
    """Every element commuting with both permutations ``d`` and ``e``, by
    constraint propagation: for each image v0 of point 0, carry each cycle
    of d and of e through a point of known image onto the cycle of that
    image, and keep the consistent, total, injective results that commute
    with both.  Needs a single overlap class covering the ground set."""
    n = d.n
    if len(oracle_overlap_classes(d, e)) != 1:
        raise ValueError("overlap closure is not a single class")
    cycles = []
    for perm in (d, e):
        dec = decompose(perm)
        loc = [None] * n
        for ci, c in enumerate(dec.cycles):
            for i, x in enumerate(c):
                loc[x] = (ci, i)
        cycles.append((dec.cycles, loc))
    out = [PInj.zero(n)]
    for v0 in range(n):
        img = [UNDEF] * n
        img[0] = v0
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for parts, loc in cycles:
                ci, i = loc[x]
                cj, j = loc[img[x]]
                src, tgt = parts[ci], parts[cj]
                if len(src) != len(tgt):
                    ok = False
                    break
                k = len(src)
                for s in range(1, k):
                    xx = src[(i + s) % k]
                    yy = tgt[(j + s) % k]
                    if img[xx] == UNDEF:
                        img[xx] = yy
                        stack.append(xx)
                    elif img[xx] != yy:
                        ok = False
                        break
                if not ok:
                    break
        if not ok or UNDEF in img or len(set(img)) != n:
            continue
        cand = PInj(n, img)
        if oracle_commutes(d, cand) and oracle_commutes(e, cand):
            out.append(cand)
    return out


def oracle_schreier_joint_centralizer(d: PInj, e: PInj) -> list:
    """Oracle for ``commute.permutation_joint_centralizer``, in the same
    order: the zero map, then the nonzero elements by ascending image of
    point 0.  One Schreier tree of the transitive group <d, e> from 0
    builds the only candidate c_y for every image y of 0 at once, one
    numpy gather per tree edge, and a mask of c_y(g(x)) == g(c_y(x)) over
    every point and both generators keeps the candidates that commute."""
    n = d.n
    if len(oracle_overlap_classes(d, e)) != 1:
        raise ValueError("overlap closure is not a single class")
    order, tree, seen = [0], [], {0}
    for x in order:
        for g, img in enumerate((d.img, e.img)):
            y = img[x]
            if y not in seen:
                seen.add(y)
                order.append(y)
                tree.append((x, g, y))
    gens = gd, ge = np.array([d.img, e.img], dtype=np.intp)
    # images[x, y] = c_y(x), where c_y is the candidate sending 0 to y
    images = np.empty((n, n), dtype=np.intp)
    images[0] = np.arange(n)
    for x, g, y in tree:
        images[y] = gens[g][images[x]]
    ok = ((images[gd] == gd[images])
          & (images[ge] == ge[images])).all(axis=0)
    out = [PInj.zero(n)]
    for row in images[:, ok].T.tolist():
        c = PInj(n, row)
        if oracle_commutes(d, c) and oracle_commutes(e, c):
            out.append(c)
    return out


def oracle_full_cycle_distance(a: PInj, b: PInj):
    """Commuting-graph distance of two full cycles on a composite number
    of points, from the whole (n-1) x (n-1) grid of power pairs: 2 for a
    shared power, 3 for a commuting power pair, 4 when some pair of proper
    divisor powers has a joint centralizer beyond zero and the identity
    (or more than one overlap class, whose partial identities commute
    with both), and 5 otherwise."""
    n = a.n
    if a == b:
        return 0
    if oracle_commutes(a, b):
        return 1

    def powers(c):
        out = [c]
        while len(out) < n - 1:
            out.append(oracle_compose(out[-1], c))
        return out

    apow, bpow = powers(a), powers(b)
    if set(apow) & set(bpow):
        return 2
    if any(oracle_commutes(x, y) for x in apow for y in bpow):
        return 3
    divisors = [m for m in range(2, n) if n % m == 0]
    for dm in divisors:
        for dk in divisors:
            try:
                joint = oracle_joint_centralizer(apow[dm - 1], bpow[dk - 1])
            except ValueError:
                return 4
            if len(joint) > 2:
                return 4
    return 5


def brute_distance(adj, s, t):
    if s == t:
        return 0
    seen = {s}
    frontier = deque([(s, 0)])
    while frontier:
        v, d = frontier.popleft()
        for w in adj[v]:
            if w == t:
                return d + 1
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return float("inf")


def brute_eccentricity(adj, s):
    """(max distance over reached set, number reached)."""
    seen = {s: 0}
    frontier = deque([s])
    while frontier:
        v = frontier.popleft()
        for w in adj[v]:
            if w not in seen:
                seen[w] = seen[v] + 1
                frontier.append(w)
    return max(seen.values()), len(seen)


def brute_components(adj):
    left = set(adj)
    comps = []
    while left:
        s = min(left)
        seen = {s}
        frontier = deque([s])
        while frontier:
            v = frontier.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        comps.append(frozenset(seen))
        left -= seen
    return comps


def brute_max_cliques(adj):
    """(clique number, frozenset of all maximum cliques) by Bron-Kerbosch."""
    best = [0, set()]

    def expand(r, p, x):
        if not p and not x:
            if len(r) > best[0]:
                best[0], best[1] = len(r), {frozenset(r)}
            elif len(r) == best[0]:
                best[1].add(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(adj), set())
    return best[0], best[1]


def perfect_matchings(points):
    pts = list(points)
    if not pts:
        yield ()
        return
    head, rest = pts[0], pts[1:]
    for i, partner in enumerate(rest):
        for sub in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((head, partner),) + sub
