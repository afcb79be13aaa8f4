"""Vectorized kernels over image-table matrices.

Elements are packed into int8 matrices, one row per element, with the
ground size n itself as the out-of-domain sentinel (rows index an augmented
table whose last column is the sentinel, so composition is one gather).
Kernels gather with ``np.take`` and scatter with flat ``np.put``, well ahead
of fancy indexing by int8 arrays.  Little-endian bit packing is assumed when
uint8 buffers are viewed as uint64 words, as on every platform targeted.

One index decoder yields the elements commuting with a permutation: per
class of equal-length cycles, a partial injection between cycles and one
rotation per mapped cycle.  I(n) streams as the identity's centralizer,
index i decoding to the element with ID i; matrix enumeration is capped at
n <= 10, where the top stratum's table takes 36 MB.

``products`` composes two row batches pairwise in one gather, ``commuting``
(the one batch commutation predicate) compares two of them, and
``row_index`` finds rows by one sort: adjacency, centralizers, power grids
and semigroup product tables run on them.  ``element_rows`` and
``row_element`` convert between ``PInj`` objects and rows.

The adjacency kernel exploits that conjugation by a permutation of the
ground set preserves commutation.  Conjugation by the transposition (0 1)
and by the n-cycle, which generate S_n, map the rows to row indices; the
conjugacy classes of a row set closed under both are the orbits of the two
maps.  ``orbit_forest`` finds them in one pass, pulling each row's lowest
index along one map at a time, and the pulls form a Schreier forest rooted
at the representatives.  A graph keeps the classes and maps its build
found, and ``adjacency_packed`` takes the forest: it compares one
representative row per class against all rows with dense gathers, and
builds every other row from the row it pulled from, its columns gathered
through that pull's map, one ``gather_packed`` call a pull.  Other row
sets compare every row densely.  ``gather_packed`` is the one submatrix
gather, chosen rows with chosen columns: it transposes the 64×64 bit
tiles of the rows, so that each column of 64 rows is one word, gathers
those words through the columns and transposes back.  It fills the
forest's rows, and the graph layer reads local clique graphs and induced
subgraphs with it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .pinj import PInj, UNDEF, stratum_sizes

__all__ = [
    "iter_matrix_chunks",
    "elements_matrix",
    "row_element",
    "element_rows",
    "products",
    "commuting",
    "row_index",
    "orbit_forest",
    "adjacency_packed",
    "gather_packed",
    "pack_bool_rows",
]

_MAX_MATRIX_GROUND = 10
_FILTERS = ("all", "idempotent", "permutation", "nilpotent")
_ADJACENCY_BLOCK = 64  # representative rows per dense comparison block
# source bytes per ``gather_packed`` chunk, in whole 64-row tiles and at
# least one, so that a chunk's transposes run in cache
_FILL_BYTES = 1 << 19
# (shift, mask) of the six delta swaps that transpose a 64×64 bit tile
_TILE_SWAPS = tuple((s, np.uint64(m)) for s, m in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333), (1, 0x5555555555555555)))


def _augmented(m: np.ndarray) -> np.ndarray:
    """``m`` with a sentinel column, so a gather through it composes."""
    return np.concatenate([m, np.full((len(m), 1), m.shape[1], np.int8)],
                          axis=1)


def _nilpotent_mask(m: np.ndarray, n: int) -> np.ndarray:
    """Rows whose map has no cycle: exactly the nilpotents have an empty
    n-th power, and ⌈log2 n⌉ squarings of the augmented rows (v ← v∘v)
    reach a power of at least n."""
    v = _augmented(m)
    for _ in range(max(n - 1, 0).bit_length()):
        v = np.take_along_axis(v, v, axis=1)
    return (v[:, :n] == n).all(axis=1)


def _filter_mask(m: np.ndarray, n: int, filt: str) -> np.ndarray:
    if filt == "all":
        return np.ones(m.shape[0], dtype=bool)
    if filt == "nilpotent":
        return _nilpotent_mask(m, n)
    if filt == "idempotent":
        rng = np.arange(n, dtype=np.int8)
        return ((m == rng) | (m == n)).all(axis=1)
    return (m != n).all(axis=1)  # permutation


# -- the index decoder --------------------------------------------------------

# rows per decoded chunk; at n=25 one centralizer stream peaks near 1.1 MB
# traced, and after the first stream later ones take no page faults
_CHUNK_ROWS = 1 << 12


def _bijections(r: int) -> np.ndarray:
    """Every permutation of range(r) as an int8 row, lexicographically."""
    words = np.zeros((1, 0), np.int8)
    for m in range(1, r + 1):
        prev, words = words, np.empty((m, len(words), m), np.int8)
        for f in range(m):
            words[f, :, 0] = f
            words[f, :, 1:] = prev + (prev >= f)
        words = words.reshape(-1, m)
    return words


def _stratum_tables(t: int, length: int, r: int) -> tuple:
    """Tables of the stratum mapping r of t cycles of length L, a row per
    part: source subsets, target r-tuples of cycles d as codes 1 + d·L (by
    image subset, then bijection), and offset r-tuples in base L."""
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(t), r)),
        np.int8, count=math.comb(t, r) * r).reshape(-1, r)
    targets = subsets[:, _bijections(r)].reshape(-1, r)
    targets *= length
    targets += 1
    shifts = (np.arange(length ** r)[:, None] // length ** np.arange(r)
              % length).astype(np.int8)
    return subsets, targets, shifts


def _class_choices(t: int, length: int, bounds: np.ndarray, tables: dict,
                   k: np.ndarray) -> np.ndarray:
    """Per source cycle of t cycles of length L, the choice of each option
    in ``k``: 0 for unmapped, 1 + d·L + o for onto cycle d with offset o;
    ``bounds`` and ``tables`` are the class's parts from ``decoder``."""
    strata = np.searchsorted(bounds, k, side="right")
    choice = np.zeros((len(k), t), dtype=np.int8)
    lo, hi = strata.min(initial=t), strata.max(initial=0)
    for r in range(max(lo, 1), hi + 1):
        rows = np.arange(len(k)) if lo == hi else np.flatnonzero(strata == r)
        if r not in tables:
            tables[r] = _stratum_tables(t, length, r)
        subsets, targets, shifts = tables[r]
        rest, offs = np.divmod(k[rows] - bounds[r - 1], length ** r)
        src, dst = np.divmod(rest, len(targets))
        np.put(choice, rows[:, None] * t + np.take(subsets, src, axis=0),
               np.take(targets, dst, axis=0) + np.take(shifts, offs, axis=0))
    return choice


def decoder(n: int, classes: dict) -> list:
    """Per class of ``classes``, {L: [cycle, ...]}: columns, rotated cycles,
    t, L, totals of stratum_sizes(t)[r]·L^r, tables by r (built on use)."""
    parts = []
    for length, cyc in sorted(classes.items()):
        cyc = np.array(cyc, dtype=np.int8).reshape(-1, length)
        turn = (np.arange(length)[:, None] + np.arange(length)) % length
        # row 1 + d·L + o: cycle d rotated by o; row 0: outside the domain
        rotated = np.vstack([np.full((1, length), n, np.int8),
                             cyc[:, turn].reshape(-1, length)])
        bounds = np.cumsum([s * length ** r for r, s in
                            enumerate(stratum_sizes(len(cyc)))])
        parts.append((cyc.ravel().astype(np.intp), rotated, len(cyc),
                      length, bounds, {}))
    return parts


def monoid_decoder(n: int) -> list:
    """``decoder`` tables of the identity of I(n): option i is the element
    with ID i.  The top stratum's table has n!·n bytes; n <= 10."""
    if not 0 <= n <= _MAX_MATRIX_GROUND:
        raise ValueError(f"matrix enumeration supports n <= {_MAX_MATRIX_GROUND}")
    return decoder(n, {1: [(x,) for x in range(n)]} if n else {})


def decode(n: int, parts: list, idx: np.ndarray) -> np.ndarray:
    """The int8 rows of options ``idx``: mixed-radix digits over the class
    sizes, longest cycles fastest, one ``np.take`` of rotations per class."""
    out = np.empty((len(idx), n), dtype=np.int8)
    for cols, rotated, t, length, bounds, tables in reversed(parts):
        idx, k = np.divmod(idx, bounds[-1])
        choice = _class_choices(t, length, bounds, tables, k)
        out[:, cols] = np.take(rotated, choice, axis=0).reshape(-1, len(cols))
    return out


def decode_chunks(n: int, parts: list, start: int, stop: int):
    """(first index, rows) of options start..stop-1 in _CHUNK_ROWS chunks."""
    for lo in range(start, stop, _CHUNK_ROWS):
        yield lo, decode(n, parts, np.arange(lo, min(lo + _CHUNK_ROWS, stop)))


def iter_matrix_chunks(n: int, filt: str = "all", max_rank=None):
    """Iterator of (ids, matrix) blocks in ascending ID order: rank, then
    domain, then image subsets in lexicographic order, then bijections.

    ``filt`` is one of all | idempotent | permutation | nilpotent and
    ``max_rank`` cuts the enumeration to an ideal.  Each block decodes IDs
    as options of the identity's centralizer (``monoid_decoder``, n <= 10),
    then filters; idempotents are built directly, one block per rank.  Bad
    arguments raise ``ValueError`` before any row.
    """
    parts = monoid_decoder(n)
    if filt not in _FILTERS:
        raise ValueError(f"unknown filter {filt!r}")
    bounds = np.cumsum([0] + stratum_sizes(n))
    top = n if max_rank is None else min(max_rank, n)
    if filt == "idempotent":
        return _partial_identities(n, bounds, top)
    start = int(bounds[n if filt == "permutation" else 0])
    chunks = decode_chunks(n, parts, start, int(bounds[max(top + 1, 0)]))
    return ((lo + np.flatnonzero(keep), m[keep]) for lo, m in chunks
            for keep in (_filter_mask(m, n, filt),))


def _partial_identities(n: int, bounds: np.ndarray, top: int):
    """(ids, matrix) per rank r <= top of the identities on the r-subsets
    D, lexicographic: D is domain and image, with the identity bijection,
    so the ID is bounds[r] + (rank(D)·C(n,r) + rank(D))·r!."""
    for r in range(top + 1):
        count = math.comb(n, r)
        dom = np.array(list(itertools.combinations(range(n), r)),
                       np.int8).reshape(count, r)
        m = np.full((count, n), n, dtype=np.int8)
        np.put(m, np.arange(count)[:, None] * n + dom, dom)
        yield bounds[r] + (count + 1) * math.factorial(r) * np.arange(count), m


def elements_matrix(n: int, filt: str = "all", max_rank=None):
    """All qualifying elements as (ids, int8 matrix), ascending by ID."""
    chunks = [(np.empty(0, np.int64), np.empty((0, n), np.int8))]
    chunks += iter_matrix_chunks(n, filt, max_rank)
    ids, ms = zip(*chunks)
    return np.concatenate(ids), np.vstack(ms)


def row_element(n: int, row) -> PInj:
    """The element whose image table is ``row``, with n marking points
    outside the domain."""
    return PInj(n, [UNDEF if v == n else int(v) for v in row])


def element_rows(elems, n: int) -> np.ndarray:
    """The int8 image matrix of ``elems``, one row per element, with n
    marking points outside the domain: the inverse of ``row_element``."""
    m = np.array([e.img for e in elems] or np.zeros((0, n)), dtype=np.int8)
    m[m == UNDEF] = n
    return m


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``int8[len(a), len(b), n]``: row [i, j] is the composite a_i·b_j
    (a_i applied first), one ``np.take`` of a through b's augmented rows."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("row batches of different ground sizes")
    # gathered[j, i, x] = b_j(a_i(x))
    return np.take(_augmented(b), a, axis=1).transpose(1, 0, 2)


def commuting(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``bool[len(a), len(b)]``, set where the rows a_i and b_j commute:
    ``products(a, b)`` against ``products(b, a)`` transposed."""
    return (products(a, b) == products(b, a).transpose(1, 0, 2)).all(axis=2)


def pack_bool_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Pack boolean rows into uint64 words, bit j of word w = column 64w+j."""
    words = (width + 63) // 64
    padded = np.zeros((rows.shape[0], words * 64), dtype=bool)
    padded[:, :width] = rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(rows.shape[0], words)


def row_index(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For each row of ``q`` (its last axis), the index of the equal row of
    ``m``, or -1 if there is none, by one sort of m and binary searches.
    Of repeated rows of m, one index serves all."""
    n = m.shape[-1]
    # base-(n+1) int64 codes where they fit; above n = 15, void row keys
    keys, want = (x.astype(np.int64) @ (n + 1) ** np.arange(n) if n <= 15
                  else np.ascontiguousarray(x).view(f"V{n}")[..., 0]
                  for x in (m, q))
    if not len(m):
        return np.full(want.shape, -1)
    order = np.argsort(keys)
    keys = keys[order]
    at = np.minimum(np.searchsorted(keys, want), len(m) - 1)
    return np.where(keys[at] == want, order[at], -1)


def _conjugation_maps(m: np.ndarray) -> list:
    """[p_s] for s the transposition (0 1) and the n-cycle x ↦ x+1, which
    generate S_n, where p_s maps each row u to the row index of s·u·s⁻¹:
    (s·u·s⁻¹)(s(x)) = s(u(x)).  Empty unless n >= 2 and the rows are
    distinct and closed under both conjugations."""
    big_n, n = m.shape
    if n < 2:
        return []
    ident = tuple(range(n))
    conj = np.empty((2, big_n, n), dtype=np.int8)
    for k, s in enumerate(((1, 0) + ident[2:], ident[1:] + (0,))):
        conj[k][:, s] = np.array(s + (n,), dtype=np.int8)[m]
    maps = row_index(m, conj)
    # repeated rows share their images, so a map onto every row rules them out
    if (maps < 0).any() or (np.bincount(maps[0], minlength=big_n) > 1).any():
        return []
    return list(maps)


def orbit_forest(m: np.ndarray):
    """(representatives, inverse, maps, pulls): the conjugacy classes of
    the rows, the conjugation maps and the Schreier forest that finds them,
    in one pass.

    Step t pulls each row's lowest index along map t mod 2 of
    ``_conjugation_maps``, until a round of both moves nothing.  A row u's
    last pull, by g, read row g[u] when that row already held the final
    index, so g[u] is in u's class and was last pulled earlier or is a
    representative (the lowest index of a class; they ascend).
    ``inverse`` is each row's class position, ``maps`` is
    ``_conjugation_maps(m)``, and ``pulls`` lists (g, rows last pulled by
    g) in step order, from the roots out.  Rows that repeat or have a
    conjugate outside the set are each their own class, and have no maps.
    """
    maps = _conjugation_maps(m)
    low = np.arange(len(m))
    step = np.full(len(m), -1)
    t = idle = 0
    while idle < len(maps):
        g = maps[t % len(maps)]
        pulled = low[g]
        drop = np.flatnonzero(pulled < low)
        low[drop] = pulled[drop]
        step[drop] = t
        idle = 0 if len(drop) else idle + 1
        t += 1
    reps = np.flatnonzero(step < 0)
    pulls = [(maps[k % len(maps)], np.flatnonzero(step == k))
             for k in range(t - idle)]
    return reps, np.searchsorted(reps, low), maps, pulls


def _transpose_tiles(x: np.ndarray) -> np.ndarray:
    """Transpose in place each 64×64 bit tile x[t, :, w] of a uint64
    array of shape (T, 64, W), and return x: bit j of word i of a tile
    trades places with bit i of word j.  Six masked delta swaps, each
    between the two halves of every run of 2s words (Warren, Hacker's
    Delight, §7-3); the transpose is its own inverse."""
    for s, mask in _TILE_SWAPS:
        halves = x.reshape(len(x), 32 // s, 2, s, -1)
        lo, hi = halves[:, :, 0], halves[:, :, 1]
        # bits j (bit s of j clear) of ``hi`` trade with bits j + s of ``lo``
        t = (lo >> s) ^ hi
        t &= mask
        hi ^= t
        t <<= s
        lo ^= t
    return x


def gather_packed(packed: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Packed rows ``rows`` of ``packed`` with their columns gathered
    through ``cols``: bit j of row i is bit cols[j] of row rows[i], and the
    padding bits of the last word are clear.  The rows go in chunks of
    whole 64-row tiles, about _FILL_BYTES each, the last tile padded with
    zero rows.  A chunk is transposed, so that column c of a tile is one
    word; one word gather through ``cols`` lays the columns out as the
    output tiles, which transpose back into rows."""
    words = packed.shape[1]
    out = np.empty((len(rows), -(-len(cols) // 64)), dtype=np.uint64)
    if not out.size:
        return out
    # padding columns read column 0, masked off below; column c of a
    # transposed tile is its word (c & 63)·W + (c >> 6)
    at = np.append(cols, np.zeros(-len(cols) % 64, np.intp))
    at = ((at & 63) * words + (at >> 6)).reshape(-1, 64).T.ravel()
    step = 64 * max(1, _FILL_BYTES // (512 * max(words, out.shape[1])))
    for s in range(0, len(rows), step):
        block = rows[s:s + step]
        tiles = np.zeros((-(-len(block) // 64), 64, words), np.uint64)
        np.take(packed, block, axis=0,
                out=tiles.reshape(-1, words)[:len(block)])
        flat = _transpose_tiles(tiles).reshape(len(tiles), -1)
        gathered = np.take(flat, at, axis=1).reshape(len(tiles), 64, -1)
        out[s:s + step] = _transpose_tiles(gathered).reshape(
            -1, out.shape[1])[:len(block)]
    if len(cols) % 64:
        out[:, -1] &= np.uint64((1 << len(cols) % 64) - 1)
    return out


def adjacency_packed(m: np.ndarray, forest) -> np.ndarray:
    """Commutation adjacency of all row pairs, bit-packed, diagonal and
    padding bits clear, given the rows' ``orbit_forest``.

    Only one representative row per conjugacy class is compared densely
    against the whole matrix.  Every other row u is built along the
    forest's pulls, from the row g[u] it pulled from: g is an
    automorphism, so A[u, w] = A[g[u], g[w]], and row u is row g[u] with
    its columns gathered through g (the diagonal stays clear).  Each pull
    is one ``gather_packed`` call, which moves whole columns of 64 rows
    as words, about V²/64 words a fill.  A row set not closed under
    conjugation has every row as a representative, so then every row is
    compared densely.
    """
    big_n = len(m)
    out = np.empty((big_n, (big_n + 63) // 64), dtype=np.uint64)
    reps, _, _, pulls = forest
    for s in range(0, len(reps), _ADJACENCY_BLOCK):
        rows = reps[s:s + _ADJACENCY_BLOCK]
        eq = commuting(m[rows], m)
        eq[np.arange(len(rows)), rows] = False
        out[rows] = pack_bool_rows(eq, big_n)
    for g, new in pulls:
        out[new] = gather_packed(out, g[new], g)
    return out
