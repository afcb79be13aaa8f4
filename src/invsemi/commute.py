"""Commutation tests and centralizers for partial injective transformations.

Two routes decide whether a pair commutes.  The naive route composes both
ways and compares; it is the oracle.  The structural route checks the
normal form of one factor against the other: cycles must map onto
equal-length cycles with a consistent rotation, chain prefixes must map
onto chain suffixes ending at the final point (a lone head image merely
stays outside the domain), and points off the span may only land off the
span or on a chain's final point: the paper's characterization, coded as
``CommuteChecker``.  The two are cross-checked in the test suite.  Batches
of pairs, as in the centralizers below, go through the batch predicate
``_bulk.commuting`` instead.

Centralizers of permutations admit direct enumeration without touching the
ambient monoid: an element commuting with a permutation is determined by a
length-preserving partial injection on its cycle set plus one rotation
offset per mapped cycle.  They stream as int8 image-matrix chunks that
decode each element from its index, with ``PInj`` objects as a view.
The joint centralizer of two permutations generating a transitive group
needs no stream: a commuting element is fixed by the image of one point,
so one propagation per candidate image of that point, stopped at the first
edge that disagrees, yields every candidate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._bulk import (commuting, decode_chunks, decoder, element_rows,
                    iter_matrix_chunks, row_element)
from .pinj import PInj, UNDEF, decompose, stratum_sizes

__all__ = [
    "commutes_naive",
    "commutes_structural",
    "CommuteChecker",
    "centralizer",
    "iter_permutation_centralizer",
    "iter_permutation_centralizer_chunks",
    "permutation_centralizer_order",
    "overlap_classes",
    "permutation_joint_centralizer",
]


def commutes_naive(a: PInj, b: PInj) -> bool:
    """Oracle test: ``a * b == b * a`` by two explicit compositions."""
    ai, bi = a.img, b.img
    for x in range(a.n):
        y = ai[x]
        ab = bi[y] if y != UNDEF else UNDEF
        y = bi[x]
        ba = ai[y] if y != UNDEF else UNDEF
        if ab != ba:
            return False
    return True


class CommuteChecker:
    """The paper's criterion for commuting with ``a``, from its normal form.

    ``commutes`` runs in O(n) per candidate.  It backs ``commutes_structural``
    and re-checks ``permutation_joint_centralizer``; batches go through
    ``_bulk.commuting``.
    """

    __slots__ = ("a", "n", "cycles", "chains", "loc", "chain_last")

    def __init__(self, a: PInj):
        self.a = a
        self.n = a.n
        d = decompose(a)
        self.cycles = d.cycles
        self.chains = d.chains
        loc = [None] * a.n  # point -> (kind, part index, position)
        for ci, part in enumerate(d.cycles):
            for i, x in enumerate(part):
                loc[x] = ("c", ci, i)
        for ci, part in enumerate(d.chains):
            for i, x in enumerate(part):
                loc[x] = ("h", ci, i)
        self.loc = loc
        self.chain_last = frozenset(part[-1] for part in d.chains)

    def commutes(self, b: PInj) -> bool:
        img = b.img
        loc = self.loc
        for part in self.cycles:
            k = len(part)
            y0 = img[part[0]]
            if y0 == UNDEF:
                # a touched cycle must be wholly inside dom(b)
                if any(img[x] != UNDEF for x in part):
                    return False
                continue
            t = loc[y0]
            if t is None or t[0] != "c":
                return False
            target = self.cycles[t[1]]
            if len(target) != k:
                return False
            j = t[2]
            ok = True
            for i in range(1, k):
                if img[part[i]] != target[(j + i) % k]:
                    ok = False
                    break
            if not ok:
                return False
        for part in self.chains:
            # dom(b) may only meet the chain in a prefix {x0..xp}, carried
            # onto the suffix of some chain so that xp lands on its last point
            p = -1
            broken = False
            for i, x in enumerate(part):
                if img[x] != UNDEF:
                    if i != p + 1:
                        broken = True
                        break
                    p = i
            if broken:
                return False
            if p == -1:
                continue
            t = loc[img[part[0]]]
            if p == 0:
                # A lone head image only needs to sit outside dom(a): off
                # the span, or on the final point of any chain.
                if t is None or (t[0] == "h"
                                 and t[2] == len(self.chains[t[1]]) - 1):
                    continue
                return False
            if t is None or t[0] != "h":
                return False
            target = self.chains[t[1]]
            mt = len(target) - 1
            if t[2] != mt - p:
                return False
            for i in range(1, p + 1):
                if img[part[i]] != target[mt - p + i]:
                    return False
        for x in range(self.n):
            if loc[x] is None:
                y = img[x]
                if y != UNDEF and loc[y] is not None and y not in self.chain_last:
                    return False
        return True


def commutes_structural(a: PInj, b: PInj) -> bool:
    """The paper's commutation criterion, via the normal form of ``a``."""
    if a.n != b.n:
        raise ValueError("ground sizes differ")
    return CommuteChecker(a).commutes(b)


# -- centralizers -------------------------------------------------------------


def centralizer(a: PInj):
    """All elements of the monoid on a.n <= 10 points (the matrix
    enumeration cap) commuting with ``a``, as a SemigroupSet.

    The monoid streams as the identity's centralizer, in image-matrix
    chunks through one batch test each, and only the commuting rows become
    ``PInj`` objects.
    """
    from .construct import SemigroupSet

    n = a.n
    head = element_rows([a], n)
    hits = (m[commuting(head, m)[0]] for _, m in iter_matrix_chunks(n))
    return SemigroupSet.from_elements(
        n, (row_element(n, row) for m in hits for row in m.tolist()))


def _cycle_classes(a: PInj) -> dict:
    d = decompose(a)
    if d.chains or len(d.span()) != a.n:
        raise ValueError("not a permutation of the full ground set")
    classes: dict = {}
    for c in d.cycles:
        classes.setdefault(len(c), []).append(c)
    return classes


def iter_permutation_centralizer_chunks(a: PInj):
    """Iterator of int8 image matrices, at most ``_bulk._CHUNK_ROWS`` rows
    each, whose rows are every element commuting with the permutation
    ``a`` once, with n marking points outside the domain.

    Per class of t cycles of length L, an element maps some cycles onto
    others, the j-th point of a source to point j + offset (mod L) of its
    target.  Row i is decoded from i by ``_bulk.decode``, the decoder that
    also streams I(n) as the identity's centralizer (up to n = 10); row 0
    is the zero map.  Bad arguments raise ``ValueError`` before any row.
    """
    total = permutation_centralizer_order(a)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"a centralizer of order {total} is too large to"
                         " stream")
    parts = decoder(a.n, _cycle_classes(a))
    return (m for _, m in decode_chunks(a.n, parts, 0, total))


def iter_permutation_centralizer(a: PInj):
    """Yield every element commuting with the permutation ``a``: the
    ``PInj`` view of ``iter_permutation_centralizer_chunks``."""
    for m in iter_permutation_centralizer_chunks(a):
        for row in m.tolist():
            yield row_element(a.n, row)


def permutation_centralizer_order(a: PInj) -> int:
    """Exact size of the centralizer of a permutation in the full monoid."""
    return math.prod(sum(s * length ** r for r, s in
                         enumerate(stratum_sizes(len(cyc))))
                     for length, cyc in _cycle_classes(a).items())


# -- joint centralizers of two permutations ----------------------------------


@functools.lru_cache(maxsize=8)
def _orbit(d: PInj, e: PInj, x0: int) -> tuple:
    """The orbit of x0 under ⟨d, e⟩ in breadth-first order; cached, so a
    pair's joint centralizer reuses its class test's orbit of 0."""
    if d.n != e.n or not (d.is_permutation() and e.is_permutation()):
        raise ValueError("need two permutations of one ground set")
    order, seen = [x0], [x == x0 for x in range(d.n)]
    for x in order:
        for y in (d.img[x], e.img[x]):
            if not seen[y]:
                seen[y] = True
                order.append(y)
    return tuple(order)


def overlap_classes(d: PInj, e: PInj) -> list:
    """Classes of the transitive closure of 'same cycle of d or of e' for
    two permutations: the orbits of the group they generate."""
    classes, seen = [], set()
    for x in range(d.n):
        if x not in seen:
            orbit = frozenset(_orbit(d, e, x))
            seen |= orbit
            classes.append(orbit)
    return classes


def _propagate(order, gens, y):
    """The only map c with c(order[0]) = y that can commute with ``gens``:
    c(g(x)) = g(c(x)) along the breadth-first ``order`` of the group they
    generate, or None at the first edge where the two disagree."""
    c = [UNDEF] * len(order)
    c[order[0]] = y
    for x in order:
        cx = c[x]
        for g in gens:
            gx, want = g[x], g[cx]
            if c[gx] == UNDEF:
                c[gx] = want
            elif c[gx] != want:
                return None
    return c


def permutation_joint_centralizer(d: PInj, e: PInj) -> list:
    """All elements commuting with both permutations ``d`` and ``e``: the
    zero map, then the nonzero ones by ascending image of point 0.

    Requires ⟨d, e⟩ to be transitive: one cycle-overlap class covering the
    ground set.  Then a nonzero commuting element is a permutation fixed by
    the image y of point 0 (Dixon & Mortimer, *Permutation Groups*, Thm
    4.2A).  Per y, ``_propagate`` sets c(g(x)) = g(c(x)) along the
    breadth-first order of ⟨d, e⟩ and drops y at the first edge where the
    two disagree, so a survivor commutes with d and e on every point and,
    commuting with a transitive group, is onto.  It becomes a ``PInj``,
    which rejects a table that is not injective, and is re-checked by a
    ``CommuteChecker`` of both.  With the zero map, at most n+1 result.
    """
    n = d.n
    order = _orbit(d, e, 0) if n else ()
    if not n or len(order) != n:
        raise ValueError("overlap closure is not a single class")
    chk_d, chk_e = CommuteChecker(d), CommuteChecker(e)
    out = [PInj.zero(n)]
    rows = (_propagate(order, (d.img, e.img), y) for y in range(n))
    for row in filter(None, rows):
        c = PInj(n, row)
        if chk_d.commutes(c) and chk_e.commutes(c):
            out.append(c)
    return out
