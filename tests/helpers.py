"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: dict-based composition, dict-of-sets
BFS, Bron-Kerbosch cliques.  Slow but obviously correct on small ground
sets, which is the point.
"""

import itertools
from collections import deque

import numpy as np

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


def brute_adjacency(elements):
    """Commuting-graph adjacency as a dict index -> set(indices)."""
    adj = {i: set() for i in range(len(elements))}
    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            if oracle_commutes(a, elements[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


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
