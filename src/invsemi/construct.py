"""Constructions, enumeration, and counting in the symmetric inverse monoid.

The enumeration is rank-stratified: rank 0 upward, domain subsets in
lexicographic order, then image subsets, then bijections.  That order is
exactly ascending element ID, and ``max_rank`` skips whole strata.

Counting is exact integer arithmetic throughout: the monoid order is
``sum C(n,r)^2 r!``; idempotents number ``2^n``; nilpotents are counted by
Lah numbers (partitions of the ground set into ordered lists); the null
semigroups built from single-step chains K -> L have order
``sum C(|K|,r) C(|L|,r) r!``, maximized over splits at ``|K| = n // 2``.

A ``SemigroupSet`` decides its flags from ``_bulk.commuting`` and one
product table, ``_bulk.products`` located in the set by ``_bulk.row_index``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._bulk import (_filter_mask, commuting, element_rows, iter_matrix_chunks,
                    products, row_element, row_index)
from .pinj import (
    PInj,
    UNDEF,
    compose,
    element_id,
    format_element,
    parse,
    stratum_sizes,
)

__all__ = [
    "SemigroupSet",
    "SemigroupFlags",
    "ExtremalReport",
    "enumerate_elements",
    "count_elements",
    "balanced_null_order",
    "null_semigroup",
    "balanced_partitions",
    "balanced_null_semigroups",
    "idempotent_semilattice",
    "closure",
    "classify_semigroup",
    "max_commutative_nilpotent",
]


# -- element sets -------------------------------------------------------------


class SemigroupSet:
    """An ID-sorted set of elements of I(n), with lazily computed flags."""

    __slots__ = ("n", "elements", "ids", "_cache")

    def __init__(self, n: int, elements, ids):
        self.n = n
        self.elements = tuple(elements)
        self.ids = tuple(ids)
        self._cache = {}

    @classmethod
    def from_elements(cls, n: int, elements) -> "SemigroupSet":
        ranked = sorted({element_id(e): e for e in elements}.items())
        return cls(n, (e for _, e in ranked), (i for i, _ in ranked))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        if "set" not in self._cache:
            self._cache["set"] = frozenset(self.elements)
        return e in self._cache["set"]

    def __eq__(self, other):
        return (isinstance(other, SemigroupSet)
                and self.n == other.n and self.ids == other.ids)

    def __hash__(self):
        return hash((self.n, self.ids))

    def _blocks(self) -> list:
        """Index arrays of the rows, 64 a block, to bound the products."""
        return np.split(np.arange(len(self)), range(64, len(self), 64))

    def _table(self):
        """(rows m, each product's int32 position or -1, all products 0)."""
        if "table" not in self._cache:
            m = element_rows(self.elements, self.n)
            idx = np.empty((len(m), len(m)), np.int32)
            null = True
            for rows in self._blocks():
                prod = products(m[rows], m)
                idx[rows] = row_index(m, prod)
                null = null and bool((prod == self.n).all())
            self._cache["table"] = m, idx, null
        return self._cache["table"]

    def is_closed(self) -> bool:
        return bool((self._table()[1] >= 0).all())

    def is_commutative(self) -> bool:
        m = self._table()[0]
        return all(commuting(m[rows], m).all() for rows in self._blocks())

    def is_null(self) -> bool:
        return self._table()[2]

    def serialize(self) -> str:
        lines = [f"n={self.n} order={len(self.elements)}"]
        lines += [format_element(e) for e in self.elements]
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "SemigroupSet":
        lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
        head = dict(kv.split("=") for kv in lines[0].split())
        missing = " and ".join(f"{k}=" for k in ("n", "order") if k not in head)
        if missing:
            raise ValueError(f"header {lines[0]!r} lacks {missing}")
        n = int(head["n"])
        elems = [parse(ln, n) for ln in lines[1:]]
        if len(elems) != int(head["order"]):
            raise ValueError("element count disagrees with header")
        return cls.from_elements(n, elems)

    def __repr__(self):
        return f"SemigroupSet(n={self.n}, order={len(self.elements)})"


@dataclass(frozen=True)
class SemigroupFlags:
    order: int
    closed: bool
    commutative: bool
    null: bool
    nilpotent: bool
    inverse: bool
    semilattice: bool


def classify_semigroup(s: SemigroupSet) -> SemigroupFlags:
    """Algebraic flags of a finite element set, decided by definition on
    its one product table and, for commutation, by ``commuting``.

    ``nilpotent`` means closed with every member nilpotent (or zero);
    ``inverse`` means closed and regular -- idempotents of the ambient
    monoid always commute, so regularity is the whole content here, but
    the idempotent check is run anyway because it is free.
    """
    m, idx, _ = s._table()
    closed = s.is_closed()
    commutative = s.is_commutative()
    nilp = closed and bool(_filter_mask(m, s.n, "nilpotent").all())
    # a = e_i is regular when some x = e_j has a·x·a = a
    regular = closed and all((idx[idx[at], at[:, None]] == at[:, None])
                             .any(axis=1).all() for at in s._blocks())
    idem = m[_filter_mask(m, s.n, "idempotent")]
    inverse = regular and bool(commuting(idem, idem).all())
    semilattice = closed and commutative and len(idem) == len(m)
    return SemigroupFlags(len(m), closed, commutative, s.is_null(),
                          nilp, inverse, semilattice)


# -- enumeration --------------------------------------------------------------


def enumerate_elements(n: int, filt: str = "all", max_rank=None):
    """Iterator of the elements of I(n) ascending by ID, for n <= 10.

    ``filt`` is one of all | idempotent | permutation | nilpotent;
    ``max_rank`` cuts the enumeration to an ideal.  A view of
    ``iter_matrix_chunks``, which streams I(n) as the identity's
    centralizer, so bad arguments raise ``ValueError`` here.
    """
    chunks = iter_matrix_chunks(n, filt, max_rank)
    return (row_element(n, row) for _, m in chunks for row in m.tolist())


def count_elements(n: int, filt: str = "all", max_rank=None) -> int:
    """Exact count matching ``enumerate_elements`` with the same arguments."""
    top = n if max_rank is None else min(max_rank, n)
    if filt == "all":
        return sum(stratum_sizes(n)[: top + 1])
    if filt == "idempotent":
        return sum(math.comb(n, r) for r in range(top + 1))
    if filt == "permutation":
        return math.factorial(n) if top == n else 0
    if filt == "nilpotent":
        # k lists cover the ground set, Lah count, rank n - k
        return sum(math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                   for k in range(max(1, n - top), n + 1)) if n else 1
    raise ValueError(f"unknown filter {filt!r}")


# -- null semigroups from single-step chains ----------------------------------


def balanced_null_order(n: int) -> int:
    """Largest order of a null semigroup of single-step chains on n points;
    attained by splits of sizes floor(n/2) and ceil(n/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = n // 2
    return sum(math.comb(m, r) * math.comb(n - m, r) * math.factorial(r)
               for r in range(m + 1))


def null_semigroup(K, L) -> SemigroupSet:
    """All joins of disjoint one-step chains from K into L, zero included.

    K and L must partition the ground set.  Every product of two members
    lands on zero, so the set is a commutative null subsemigroup of order
    ``sum C(|K|,r) C(|L|,r) r!``.
    """
    K = tuple(sorted(K))
    L = tuple(sorted(L))
    n = len(K) + len(L)
    if set(K) & set(L) or set(K) | set(L) != set(range(n)) or not K or not L:
        raise ValueError("K and L must be disjoint nonempty blocks covering 0..n-1")
    out = []
    for r in range(min(len(K), len(L)) + 1):
        for xs in itertools.combinations(K, r):
            for ys in itertools.permutations(L, r):
                img = [UNDEF] * n
                for x, y in zip(xs, ys):
                    img[x] = y
                out.append(PInj(n, img))
    return SemigroupSet.from_elements(n, out)


def balanced_partitions(n: int):
    """Ordered splits (K, L) with |K| = n//2 or |K| = n - n//2."""
    m = n // 2
    full = set(range(n))
    sizes = [m] if n % 2 == 0 else [m, n - m]
    for size in sizes:
        for K in itertools.combinations(range(n), size):
            yield K, tuple(sorted(full - set(K)))


def balanced_null_semigroups(n: int):
    for K, L in balanced_partitions(n):
        yield null_semigroup(K, L)


def idempotent_semilattice(n: int) -> SemigroupSet:
    """The 2^n idempotents; products are intersections of domains."""
    out = []
    for r in range(n + 1):
        for dom in itertools.combinations(range(n), r):
            img = [UNDEF] * n
            for x in dom:
                img[x] = x
            out.append(PInj(n, img))
    return SemigroupSet.from_elements(n, out)


def closure(seed, n=None, max_size: int = 1_000_000) -> SemigroupSet:
    """Multiplicative closure of ``seed`` under left-to-right composition."""
    seed = list(seed)
    if not seed and n is None:
        raise ValueError("empty seed needs an explicit n")
    n = seed[0].n if n is None else n
    have = set(seed)
    frontier = list(have)
    while frontier:
        # every product with a factor in the frontier, each pair once
        factors, older = list(have), have.difference(frontier)
        fresh = []
        for c in itertools.chain(
                (compose(a, b) for a in frontier for b in factors),
                (compose(b, a) for b in older for a in frontier)):
            if c not in have:
                have.add(c)
                fresh.append(c)
                if len(have) > max_size:
                    raise RuntimeError("closure exceeded max_size")
        frontier = fresh
    return SemigroupSet.from_elements(n, have)


# -- extremal commutative nilpotent subsemigroups ------------------------------


@dataclass(frozen=True)
class ExtremalReport:
    n: int
    max_order: int
    count: int
    witnesses: tuple
    elapsed_s: float = field(compare=False, default=0.0)


def max_commutative_nilpotent(n: int, budget_seconds=None) -> ExtremalReport:
    """Search the commuting graph on nonzero nilpotents for all maximum
    cliques; each, with zero added, is a witness built from the graph's
    rows and IDs.  ``closure`` proves one clique per conjugation orbit
    closed, which covers the orbit: conjugation by a permutation is an
    automorphism of I(n).

    Exhaustive and exact at every n; the graph has 72 to 37632 vertices
    for 3 <= n <= 7.  The graph build is not budgeted: ``budget_seconds``
    is one deadline for both clique phases, which can overrun it by at
    most one root branch each (see ``graph.maximum_cliques``).  The
    graph's vertex cap holds, and is checked before any element is
    enumerated, so n = 8 is rejected at once.
    """
    from . import graph as _graph

    t0 = time.perf_counter()
    # the zero map commutes with every vertex; each witness adds it back
    g = _graph.build_graph(n, "nilpotent", center="ideal")
    cliques = _graph.maximum_cliques(g, budget_seconds=budget_seconds)
    zero = PInj.zero(n)
    # one int and one element per vertex, shared by every witness that
    # holds it
    ids = g.ids.tolist()
    vertex = {i: g.vertex_element(i) for i in set().union(*cliques)}
    covered = set()
    witnesses = []
    for idx in cliques:
        elements = [zero] + [vertex[i] for i in idx]
        if idx not in covered:
            # distinct elements, so closed exactly when the closure adds none
            if len(closure(elements, n)) != len(elements):
                raise AssertionError("maximum clique is not product-closed")
            covered.update(_graph._conjugates(g.maps, [idx]))
        # zero has ID 0 and the vertex IDs ascend with the index, so these
        # are ID-sorted, and so is the list, as the cliques are sorted
        witnesses.append(SemigroupSet(n, elements,
                                      [0] + [ids[i] for i in idx]))
    if covered != set(cliques):
        raise AssertionError("conjugation orbits do not cover the cliques")
    return ExtremalReport(n, len(cliques[0]) + 1, len(witnesses),
                          tuple(witnesses), time.perf_counter() - t0)
