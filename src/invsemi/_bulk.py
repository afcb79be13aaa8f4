"""Vectorized kernels over image-table matrices.

Elements are packed into int8 matrices, one row per element, with the
ground size n itself as the out-of-domain sentinel (rows index an augmented
table whose last column is the sentinel, so composition is one gather).
Little-endian bit packing is assumed when uint8 buffers are viewed as
uint64 words; this matches every platform the package targets.

One index decoder yields the elements commuting with a permutation: per
class of equal-length cycles, a partial injection between cycles and one
rotation per mapped cycle.  I(n) streams as the identity's centralizer,
index i decoding to the element with ID i; matrix enumeration is capped at
n <= 10, where the top stratum's table takes 36 MB.

``commuting`` is the package's one batch commutation predicate, behind
adjacency, centralizers and power grids; ``element_rows`` and
``row_element`` convert between ``PInj`` objects and rows.

The adjacency kernel exploits that conjugation by a permutation of the
ground set preserves commutation.  Conjugation by the transposition (0 1)
and by the n-cycle, which generate S_n, map the rows to row indices; the
conjugacy classes of a row set closed under both are the orbits of the two
maps.  The kernel compares one representative row per class against all
rows with dense gathers, and builds every other row by conjugating the
columns of its representative's row; other row sets compare every row
densely.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from .pinj import PInj, UNDEF, stratum_sizes

__all__ = [
    "iter_matrix_chunks",
    "elements_matrix",
    "row_element",
    "element_rows",
    "commuting",
    "adjacency_packed",
    "conjugacy_classes",
    "pack_bool_rows",
]

_MAX_MATRIX_GROUND = 10
_FILTERS = ("all", "idempotent", "permutation", "nilpotent")
_ADJACENCY_BLOCK = 256  # representative rows per dense comparison block


def _augmented(m: np.ndarray) -> np.ndarray:
    """``m`` with a sentinel column, so a gather through it composes."""
    return np.concatenate([m, np.full((len(m), 1), m.shape[1], np.int8)],
                          axis=1)


def _nilpotent_mask(m: np.ndarray, n: int) -> np.ndarray:
    """Rows whose map has no cycle: n-fold self-composition reaches the
    empty map exactly for nilpotents."""
    aug = _augmented(m)
    v = m.astype(np.int64)
    for _ in range(n):
        v = np.take_along_axis(aug, v, axis=1).astype(np.int64)
    return (v == n).all(axis=1)


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

# rows per decoded chunk; at n=25 a chunk's arrays stay near 100 KB, well
# below glibc's mmap and trim thresholds, so streams take no page faults
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
    for r in range(max(strata.min(initial=t), 1), strata.max(initial=0) + 1):
        rows = np.flatnonzero(strata == r)
        if not len(rows):
            continue
        if r not in tables:
            tables[r] = _stratum_tables(t, length, r)
        subsets, targets, shifts = tables[r]
        rest, offs = np.divmod(k[rows] - bounds[r - 1], length ** r)
        src, dst = np.divmod(rest, len(targets))
        choice[rows[:, None], subsets[src]] = targets[dst] + shifts[offs]
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
    sizes, longest cycles fastest, one gather per class."""
    out = np.empty((len(idx), n), dtype=np.int8)
    for cols, rotated, t, length, bounds, tables in reversed(parts):
        idx, k = np.divmod(idx, bounds[-1])
        out[:, cols] = rotated[_class_choices(t, length, bounds, tables, k)
                               ].reshape(len(k), -1)
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
    then filters.  Bad arguments raise ``ValueError`` before any row.
    """
    parts = monoid_decoder(n)
    if filt not in _FILTERS:
        raise ValueError(f"unknown filter {filt!r}")
    bounds = np.cumsum([0] + stratum_sizes(n))
    top = n if max_rank is None else min(max_rank, n)
    start = int(bounds[n if filt == "permutation" else 0])
    chunks = decode_chunks(n, parts, start, int(bounds[max(top + 1, 0)]))
    return ((lo + np.flatnonzero(keep), m[keep]) for lo, m in chunks
            for keep in (_filter_mask(m, n, filt),))


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
    m = np.array([e.img for e in elems], dtype=np.int8).reshape(-1, n)
    m[m == UNDEF] = n
    return m


def commuting(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``bool[len(a), len(b)]``, set where the rows a_i and b_j commute:
    int8 image tables on the same n points, n marking undefined.  Each
    composite is one gather through the other batch's augmented matrix."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("row batches of different ground sizes")
    # ab[j, i, x] = b_j(a_i(x)); ba[i, j, x] = a_i(b_j(x))
    ab = _augmented(b)[:, a]
    ba = _augmented(a)[:, b]
    return (ab.transpose(1, 0, 2) == ba).all(axis=2)


def pack_bool_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Pack boolean rows into uint64 words, bit j of word w = column 64w+j."""
    words = (width + 63) // 64
    padded = np.zeros((rows.shape[0], words * 64), dtype=bool)
    padded[:, :width] = rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(rows.shape[0], words)


def _row_codes(m: np.ndarray) -> np.ndarray:
    """Base-(n+1) code of each row: equal codes exactly for equal rows."""
    n = m.shape[1]
    return m.astype(np.int64) @ (n + 1) ** np.arange(n, dtype=np.int64)


def _conjugation_maps(m: np.ndarray) -> dict:
    """{s: p_s} for s the transposition (0 1) and the n-cycle x ↦ x+1,
    which generate S_n, where p_s maps each row u to the row index of
    s·u·s⁻¹: (s·u·s⁻¹)(s(x)) = s(u(x)).  Empty unless n >= 2 and the rows
    are distinct and closed under both conjugations."""
    big_n, n = m.shape
    codes = _row_codes(m)
    order = np.argsort(codes)
    codes = codes[order]
    if n < 2 or (codes[1:] == codes[:-1]).any():
        return {}
    ident = tuple(range(n))
    maps = {}
    for s in ((1, 0) + ident[2:], ident[1:] + (0,)):
        conj = np.empty_like(m)
        conj[:, s] = np.array(s + (n,), dtype=np.int8)[m]
        want = _row_codes(conj)
        at = np.minimum(np.searchsorted(codes, want), big_n - 1)
        if (codes[at] != want).any():
            return {}
        # int32 keeps the S_n walk's frontier (up to ~570 arrays at n=7)
        # at half the memory
        maps[s] = order[at].astype(np.int32)
    return maps


def _orbits(maps: dict, big_n: int):
    """(representatives, inverse) of the orbits of the group the maps
    generate: pull the lowest index along the maps until nothing moves."""
    low = every = np.arange(big_n)
    while True:
        pulled = np.minimum.reduce([low] + [low[g] for g in maps.values()])
        if (pulled == low).all():
            break
        low = pulled
    reps = np.flatnonzero(low == every)
    return reps, np.searchsorted(reps, low)


def conjugacy_classes(m: np.ndarray):
    """(representatives, inverse): the lowest-index row of each class and,
    per row, the position of its class's representative.

    Conjugation by a permutation of the ground set preserves commutation,
    so on a row set closed under it each class, an orbit of the conjugation
    maps by (0 1) and by the n-cycle, is one orbit of graph automorphisms.
    Representatives come out in ascending index order.  A set with repeated
    rows or a conjugate outside it has every row as its own representative.
    """
    return _orbits(_conjugation_maps(m), len(m))


def _conjugate_rows(out: np.ndarray, reps: np.ndarray, inverse: np.ndarray,
                    maps: dict) -> None:
    """Fill every non-representative row of ``out`` from its class
    representative's row.

    Each permutation s of the ground set induces an automorphism p_s, so
    row p_s⁻¹(r) is row r with its columns permuted by p_s.  Walk S_n
    breadth-first from the identity through the two generators of
    ``maps`` (see ``_conjugation_maps``), getting p_{g∘s} = p_g[p_s] by one
    gather, and stop once every row is filled.  The diagonal stays clear:
    the representative's own bit lands on the row's own column.
    """
    big_n = len(out)
    filled = np.zeros(big_n, dtype=bool)
    filled[reps] = True
    if filled.all():
        return
    rep_of = reps[inverse]
    rep_bits = np.unpackbits(out[reps].view(np.uint8), axis=1, count=big_n,
                             bitorder="little").view(bool)
    ident = tuple(range(len(next(iter(maps)))))  # maps is not empty here
    seen = {ident}
    frontier = deque([(ident, np.arange(big_n, dtype=np.int32))])
    while not filled.all():
        perm, p = frontier.popleft()
        for tau, g in maps.items():
            nxt = tuple(tau[x] for x in perm)
            if nxt in seen:
                continue
            seen.add(nxt)
            q = g[p]
            # at most one new row per class: p_s⁻¹(r) is one row
            new = np.flatnonzero((q == rep_of) & ~filled)
            if len(new):
                filled[new] = True
                bits = np.take(rep_bits[inverse[new]], q.astype(np.intp),
                               axis=1)
                out[new] = pack_bool_rows(bits, big_n)
            frontier.append((nxt, q))


def adjacency_packed(m: np.ndarray) -> np.ndarray:
    """Commutation adjacency of all row pairs, bit-packed, diagonal clear.

    Only one representative row per conjugacy class, an orbit of the two
    maps of ``_conjugation_maps``, is compared densely against the whole
    matrix; every other row is its representative's row with the columns
    conjugated (see ``_conjugate_rows``).  A row set not closed under
    conjugation has no maps, so then every row is compared densely.
    """
    big_n = len(m)
    out = np.empty((big_n, (big_n + 63) // 64), dtype=np.uint64)
    maps = _conjugation_maps(m)
    reps, inverse = _orbits(maps, big_n)
    for s in range(0, len(reps), _ADJACENCY_BLOCK):
        rows = reps[s:s + _ADJACENCY_BLOCK]
        eq = commuting(m[rows], m)
        eq[np.arange(len(rows)), rows] = False
        out[rows] = pack_bool_rows(eq, big_n)
    _conjugate_rows(out, reps, inverse, maps)
    return out
