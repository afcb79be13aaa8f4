"""Partial injective transformations on a finite ground set.

An element of the symmetric inverse monoid I(X) on X = {0, ..., n-1} is a
bijection between two subsets of X.  It is stored as an image table of
length n with the sentinel UNDEF marking points outside the domain, so no
separate presence mask is needed.  Composition is left to right throughout:
``x (a * b) == (x a) b``, i.e. apply ``a`` first.

Every nonzero element splits uniquely into completely disjoint cycles and
chains.  A cycle ``(x0 x1 ... x_{k-1})`` permutes its k listed points
cyclically and has all of them in its domain.  A chain ``[x0 x1 ... xk]``
shifts each listed point to the next one; its domain is all listed points
except the last, so a chain needs at least two points.  Points that appear
in no part are outside both domain and image.  This normal form drives
classification, fast powering, and the canonical text notation, which is
1-indexed, e.g. ``"(1 2 3 4)|[5 6 7 8]"``.

Each element also has a stable nonnegative integer ID, dense in
``range(order of I(n))``: elements are ranked by rank stratum, then domain
subset (lexicographic), then image subset, then the bijection between them
(lexicographic).  IDs serve as graph vertex identifiers and cache keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = [
    "UNDEF",
    "MAX_GROUND",
    "PInj",
    "ParseError",
    "CycleChainDecomp",
    "Classification",
    "compose",
    "power",
    "decompose",
    "join",
    "classify",
    "parse",
    "format_element",
    "element_id",
    "element_from_id",
    "monoid_order",
    "stratum_sizes",
]

UNDEF = -1

# The largest n whose sentinel n fits the int8 image rows of ``_bulk``.
MAX_GROUND = 127


class PInj:
    """A partial injective map on {0..n-1}, immutable and hashable.

    >>> a = PInj(4, (1, 2, 3, 0))
    >>> a.rank, a.is_zero(), a.is_identity()
    (4, False, False)
    >>> PInj.zero(3) * PInj.identity(3) == PInj.zero(3)
    True
    """

    __slots__ = ("n", "img", "_hash")

    def __init__(self, n: int, img):
        img = tuple(img)
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in [0, {MAX_GROUND}], got {n}")
        if len(img) != n:
            raise ValueError(f"image table has length {len(img)}, expected {n}")
        seen = set()
        for y in img:
            if y == UNDEF:
                continue
            if not 0 <= y < n:
                raise ValueError(f"image value {y} out of range for n={n}")
            if y in seen:
                raise ValueError(f"image value {y} repeated; map not injective")
            seen.add(y)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "img", img)
        object.__setattr__(self, "_hash", hash((n, img)))

    def __setattr__(self, name, value):
        raise AttributeError("PInj is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    @functools.cache
    def zero(cls, n: int) -> "PInj":
        """The empty map, the zero of I(X), one shared instance per n."""
        return cls(n, (UNDEF,) * n)

    @classmethod
    @functools.cache
    def identity(cls, n: int) -> "PInj":
        return cls(n, range(n))

    @classmethod
    def from_dict(cls, n: int, mapping: dict) -> "PInj":
        img = [UNDEF] * n
        for x, y in mapping.items():
            img[x] = y
        return cls(n, img)

    @classmethod
    def cycle(cls, n: int, points) -> "PInj":
        """The cycle through ``points``, a permutation of that span."""
        points = list(points)
        if len(set(points)) != len(points) or not points:
            raise ValueError("cycle needs distinct, nonempty points")
        img = [UNDEF] * n
        for i, x in enumerate(points):
            img[x] = points[(i + 1) % len(points)]
        return cls(n, img)

    @classmethod
    def chain(cls, n: int, points) -> "PInj":
        """The chain through ``points``; the last point is outside the domain."""
        points = list(points)
        if len(set(points)) != len(points) or len(points) < 2:
            raise ValueError("chain needs at least two distinct points")
        img = [UNDEF] * n
        for x, y in zip(points, points[1:]):
            img[x] = y
        return cls(n, img)

    # -- basic queries -----------------------------------------------------

    def __call__(self, x: int) -> int:
        """Image of ``x``, or UNDEF."""
        return self.img[x]

    def dom(self) -> tuple:
        return tuple(x for x in range(self.n) if self.img[x] != UNDEF)

    def ima(self) -> tuple:
        return tuple(sorted(y for y in self.img if y != UNDEF))

    def span(self) -> tuple:
        s = set(y for y in self.img if y != UNDEF)
        s.update(x for x in range(self.n) if self.img[x] != UNDEF)
        return tuple(sorted(s))

    @property
    def rank(self) -> int:
        return sum(1 for y in self.img if y != UNDEF)

    def is_zero(self) -> bool:
        return all(y == UNDEF for y in self.img)

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.img))

    def is_permutation(self) -> bool:
        return UNDEF not in self.img

    def is_idempotent(self) -> bool:
        return all(y == UNDEF or y == x for x, y in enumerate(self.img))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PInj") -> "PInj":
        return compose(self, other)

    def inverse(self) -> "PInj":
        img = [UNDEF] * self.n
        for x, y in enumerate(self.img):
            if y != UNDEF:
                img[y] = x
        return PInj(self.n, img)

    def __pow__(self, p: int) -> "PInj":
        return power(self, p)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PInj)
                and self.n == other.n and self.img == other.img)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PInj({self.n}, {format_element(self)!r})"


def compose(a: PInj, b: PInj) -> PInj:
    """Left-to-right composite: apply ``a`` first, then ``b``.

    >>> al = parse("(1 2 3 4)|[5 6 7 8]", 8)
    >>> format_element(compose(al, al))
    '(1 3)|(2 4)|[5 7]|[6 8]'
    """
    if a.n != b.n:
        raise ValueError("ground sizes differ")
    bi = b.img
    return PInj(a.n, tuple(UNDEF if y == UNDEF else bi[y] for y in a.img))


def power(a: PInj, p: int) -> PInj:
    """``a`` composed with itself ``p`` times, computed part-wise.

    Exponent zero is rejected: the natural candidate would be a partial
    identity on the span, which is almost never what a caller means.
    """
    if p < 1:
        raise ValueError("exponent must be a positive integer")
    img = [UNDEF] * a.n
    d = decompose(a)
    for part in d.cycles:
        k = len(part)
        for i, x in enumerate(part):
            img[x] = part[(i + p) % k]
    for part in d.chains:
        k = len(part) - 1
        for i in range(k + 1):
            if i + p <= k:
                img[part[i]] = part[i + p]
    return PInj(a.n, img)


# -- cycle/chain normal form ------------------------------------------------


@dataclass(frozen=True)
class CycleChainDecomp:
    """Canonical decomposition into completely disjoint cycles and chains.

    Cycles are rotated so their minimal point comes first; each list is
    sorted by minimal span point.  Part tuples hold 0-indexed points; a
    chain tuple includes its final, out-of-domain point.
    """

    n: int
    cycles: tuple
    chains: tuple

    def parts(self) -> list:
        """All parts merged, sorted by minimal span point."""
        marked = [("c", p) for p in self.cycles] + [("h", p) for p in self.chains]
        return sorted(marked, key=lambda kp: min(kp[1]))

    def span(self) -> tuple:
        pts = [x for p in self.cycles + self.chains for x in p]
        return tuple(sorted(pts))


@functools.lru_cache(maxsize=256)
def decompose(a: PInj) -> CycleChainDecomp:
    """Split ``a`` into its cycles and chains, caching the last 256.

    >>> d = decompose(parse("(2 1)|[4 3]", 4))
    >>> d.cycles, d.chains
    (((0, 1),), ((3, 2),))
    """
    img = a.img
    n = a.n
    in_ima = [False] * n
    for y in img:
        if y != UNDEF:
            in_ima[y] = True
    chains = []
    visited = [False] * n
    for x in range(n):
        if img[x] != UNDEF and not in_ima[x]:
            seq = [x]
            y = x
            while img[y] != UNDEF:
                y = img[y]
                seq.append(y)
            for p in seq:
                visited[p] = True
            chains.append(tuple(seq))
    cycles = []
    for x in range(n):
        if img[x] != UNDEF and not visited[x]:
            seq = [x]
            y = img[x]
            while y != x:
                visited[y] = True
                seq.append(y)
                y = img[y]
            visited[x] = True
            m = seq.index(min(seq))
            cycles.append(tuple(seq[m:] + seq[:m]))
    cycles.sort(key=min)
    chains.sort(key=min)
    return CycleChainDecomp(n, tuple(cycles), tuple(chains))


def join(n: int, cycles=(), chains=()) -> PInj:
    """Rebuild an element from span-disjoint cycle and chain point tuples."""
    img = [UNDEF] * n
    seen = set()
    for part in cycles:
        for x in part:
            if x in seen:
                raise ValueError(f"parts share point {x}")
            seen.add(x)
        for i, x in enumerate(part):
            img[x] = part[(i + 1) % len(part)]
    for part in chains:
        if len(part) < 2:
            raise ValueError("chain needs at least two points")
        for x in part:
            if x in seen:
                raise ValueError(f"parts share point {x}")
            seen.add(x)
        for x, y in zip(part, part[1:]):
            img[x] = y
    return PInj(n, img)


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Structural class of one element.

    ``kind`` is one of zero | identity | idempotent | permutation |
    nilpotent | mixed.  ``nilpotent_index`` is the least p with a^p == 0,
    set only for nilpotents (the zero map has index 1).  ``is_n_cycle``
    flags a single cycle through every point.
    """

    kind: str
    rank: int
    is_n_cycle: bool
    nilpotent_index: int | None


def classify(a: PInj) -> Classification:
    d = decompose(a)
    rank = a.rank
    is_n_cycle = len(d.cycles) == 1 and not d.chains and len(d.cycles[0]) == a.n
    if not d.cycles and not d.chains:
        return Classification("zero", 0, False, 1)
    if not d.chains:
        spans_all = sum(len(c) for c in d.cycles) == a.n
        if all(len(c) == 1 for c in d.cycles):
            kind = "identity" if spans_all else "idempotent"
        elif spans_all:
            kind = "permutation"
        else:
            kind = "mixed"
        return Classification(kind, rank, is_n_cycle, None)
    if not d.cycles:
        index = 1 + max(len(c) - 1 for c in d.chains)
        return Classification("nilpotent", rank, False, index)
    return Classification("mixed", rank, False, None)


# -- text notation -----------------------------------------------------------


class ParseError(ValueError):
    """Raised on malformed element text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def parse(text: str, n: int) -> PInj:
    """Parse 1-indexed cycle/chain notation.

    Accepts ``"0"`` for the zero map, ``"id"`` for the identity, or parts
    joined by ``|``.  A one-point chain like ``[3]`` is rejected: it would
    denote an empty map on a named point, which the notation reserves for
    ``0``.

    >>> parse("(1 2)|[3 4]", 4).img
    (1, 0, 3, -1)
    """
    stripped = text.strip()
    if stripped == "0":
        return PInj.zero(n)
    if stripped == "id":
        return PInj.identity(n)
    cycles = []
    chains = []
    used = set()
    i = 0
    expecting_part = True
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "|":
            if expecting_part:
                raise ParseError("unexpected '|'", i)
            expecting_part = True
            i += 1
            continue
        if ch not in "([":
            raise ParseError(f"expected '(' or '[', found {ch!r}", i)
        if not expecting_part:
            raise ParseError("missing '|' between parts", i)
        closer = ")" if ch == "(" else "]"
        start = i
        i += 1
        points = []
        while True:
            while i < len(text) and text[i].isspace():
                i += 1
            if i >= len(text):
                raise ParseError(f"unterminated part, expected {closer!r}", start)
            if text[i] == closer:
                i += 1
                break
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i:
                raise ParseError(f"expected integer or {closer!r}", i)
            val = int(text[i:j])
            if not 1 <= val <= n:
                raise ParseError(f"point {val} out of range 1..{n}", i)
            p = val - 1
            if p in used:
                raise ParseError(f"point {val} appears twice", i)
            used.add(p)
            points.append(p)
            i = j
        if not points:
            raise ParseError("empty part", start)
        if closer == ")":
            cycles.append(tuple(points))
        else:
            if len(points) < 2:
                raise ParseError("chain needs at least two points", start)
            chains.append(tuple(points))
        expecting_part = False
    if expecting_part:
        raise ParseError("empty input or trailing '|'", len(text) - 1 if text else 0)
    return join(n, cycles, chains)


def format_element(a: PInj) -> str:
    """Canonical text: ``"0"``, ``"id"``, or min-sorted parts joined by ``|``.

    >>> format_element(parse("(4 3)  | [ 2 1 ]", 4))
    '[2 1]|(3 4)'
    """
    if a.is_zero():
        return "0"
    if a.is_identity():
        return "id"
    out = []
    for kind, part in decompose(a).parts():
        body = " ".join(str(x + 1) for x in part)
        out.append(f"({body})" if kind == "c" else f"[{body}]")
    return "|".join(out)


# -- stable integer IDs -------------------------------------------------------


def stratum_sizes(n: int) -> list:
    """Element counts of I(n) by rank: C(n,r)^2 r! for r = 0..n."""
    return [math.comb(n, r) ** 2 * math.factorial(r) for r in range(n + 1)]


def monoid_order(n: int) -> int:
    return sum(stratum_sizes(n))


def _comb_rank(sub: tuple, n: int) -> int:
    r = len(sub)
    rank = 0
    prev = -1
    for i, s in enumerate(sub):
        for v in range(prev + 1, s):
            rank += math.comb(n - 1 - v, r - 1 - i)
        prev = s
    return rank


def _comb_unrank(rank: int, n: int, r: int) -> tuple:
    out = []
    v = 0
    for i in range(r):
        while True:
            c = math.comb(n - 1 - v, r - 1 - i)
            if rank < c:
                break
            rank -= c
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def _perm_rank(word: tuple) -> int:
    r = len(word)
    rank = 0
    for i, w in enumerate(word):
        smaller = sum(1 for u in word[i + 1:] if u < w)
        rank += smaller * math.factorial(r - 1 - i)
    return rank


def _perm_unrank(rank: int, r: int) -> tuple:
    avail = list(range(r))
    out = []
    for i in range(r):
        f = math.factorial(r - 1 - i)
        idx, rank = divmod(rank, f)
        out.append(avail.pop(idx))
    return tuple(out)


def element_id(a: PInj) -> int:
    """Dense stable ID in ``range(monoid_order(n))``; zero map gets 0."""
    n = a.n
    dom = a.dom()
    ima = a.ima()
    r = len(dom)
    sizes = stratum_sizes(n)
    base = sum(sizes[:r])
    pos = {y: i for i, y in enumerate(ima)}
    word = tuple(pos[a.img[x]] for x in dom)
    within = (_comb_rank(dom, n) * math.comb(n, r) + _comb_rank(ima, n)) * math.factorial(r)
    return base + within + _perm_rank(word)


def element_from_id(n: int, eid: int) -> PInj:
    sizes = stratum_sizes(n)
    if not 0 <= eid < sum(sizes):
        raise ValueError(f"ID {eid} out of range for n={n}")
    r = 0
    while eid >= sizes[r]:
        eid -= sizes[r]
        r += 1
    pair, brank = divmod(eid, math.factorial(r))
    drank, irank = divmod(pair, math.comb(n, r))
    dom = _comb_unrank(drank, n, r)
    ima = _comb_unrank(irank, n, r)
    word = _perm_unrank(brank, r)
    img = [UNDEF] * n
    for x, w in zip(dom, word):
        img[x] = ima[w]
    return PInj(n, img)
