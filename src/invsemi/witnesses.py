"""Constructive certificates: short commuting paths and extremal pairs.

Everything here *builds* an explicit object — an idempotent neighbor, a
path whose consecutive entries commute, a pair of elements at a known
distance — and then re-verifies it from scratch before returning, so a
returned witness is always checked, never trusted.

Path routes split by the shape of the endpoints.  Full cycles and
spanning chains have tiny centralizers (their powers, plus the constants),
so paths leaving them must pass through a power; everything else admits a
proper commuting idempotent, and idempotents always commute with each
other, which glues the two halves together.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._bulk import commuting, element_rows, row_element
from .commute import (
    commutes_naive,
    commutes_structural,
    iter_permutation_centralizer,
    iter_permutation_centralizer_chunks,
    overlap_classes,
    permutation_centralizer_order,
    permutation_joint_centralizer,
)
from .graph import PathWitness
from .pinj import (
    PInj,
    UNDEF,
    classify,
    decompose,
    format_element,
    join,
    power,
)

__all__ = [
    "commuting_idempotent",
    "build_path",
    "align_middle",
    "extremal_nilpotent_pair",
    "ideal_witness_pair",
    "prime_power_pair",
    "cycle_join_root",
    "Distance5Report",
    "verify_distance5",
    "CycleActionMap",
    "cycle_action_map",
    "SymGapReport",
    "sym_counterexample",
    "dolzan_distance_check",
    "SearchReport",
    "search_open",
]


def _partial_identity(n: int, pts) -> PInj:
    return PInj.from_dict(n, {int(x): int(x) for x in pts})


def _centralizer_meet(x: PInj, ys):
    """(per y in ``ys``, the elements of the centralizer of the permutation
    ``x`` that commute with y; number of rows streamed).  Each chunk is
    tested against all of ``ys`` as one batch, and only the rows that
    commute become ``PInj`` objects."""
    n = x.n
    head = element_rows(ys, n)
    meets, streamed = [[] for _ in ys], 0
    for chunk in iter_permutation_centralizer_chunks(x):
        for meet, hit in zip(meets, commuting(head, chunk)):
            meet += [row_element(n, row) for row in chunk[hit].tolist()]
        streamed += len(chunk)
    return meets, streamed


def _smallest_prime_factor(n: int) -> int:
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return p
    return n


def _proper_divisors(n: int):
    return [d for d in range(2, n) if n % d == 0]


# -- idempotent neighbors -------------------------------------------------------


def commuting_idempotent(a: PInj) -> PInj:
    """A proper idempotent commuting with ``a``, of rank at most rank(a).

    Mixed elements get the power that freezes their cycles and kills their
    chains; all-cycle elements get the identity on one cycle's span;
    chain-only elements get the identity on one chain's span, or on a
    single untouched point when only one non-spanning chain exists.  A
    full cycle or a spanning chain has no such neighbor (their
    centralizers are their powers plus the constants) and is rejected.
    """
    n = a.n
    if a.is_zero() or a.is_identity():
        raise ValueError("the zero map and the identity are central")
    c = classify(a)
    if c.is_n_cycle:
        raise ValueError("a full cycle has no proper idempotent neighbor")
    if c.kind == "nilpotent" and c.nilpotent_index == n:
        raise ValueError("a spanning chain has no proper idempotent neighbor")
    d = decompose(a)
    if d.cycles and d.chains:
        ell = math.lcm(*(len(cy) for cy in d.cycles))
        top = max(len(ch) - 1 for ch in d.chains)
        eps = power(a, ell * (top // ell + 1))
    elif d.chains:
        if len(d.chains) >= 2:
            eps = _partial_identity(n, d.chains[0])
        else:
            off = sorted(set(range(n)) - set(d.span()))
            eps = _partial_identity(n, off[:1])
    else:
        eps = _partial_identity(n, d.cycles[0])
    if not eps.is_idempotent() or eps.is_zero() or eps.is_identity():
        raise AssertionError("constructed element is not a proper idempotent")
    if eps.rank > a.rank:
        raise AssertionError("idempotent neighbor outranks its mate")
    if not commutes_naive(a, eps):
        raise AssertionError("constructed idempotent does not commute")
    return eps


# -- explicit short paths -------------------------------------------------------


def _splice(vs):
    """Drop loops: whenever a vertex repeats, cut back to its first visit."""
    out = []
    pos = {}
    for v in vs:
        if v in pos:
            del out[pos[v] + 1:]
            pos = {u: i for i, u in enumerate(out)}
        else:
            pos[v] = len(out)
            out.append(v)
    return out


def _finalize(vs, max_len: int) -> PathWitness:
    w = PathWitness(tuple(_splice(vs)))
    n = w.vertices[0].n
    w.validate(excluded=(PInj.zero(n), PInj.identity(n)))
    if w.length > max_len:
        raise AssertionError(
            f"route of length {w.length} exceeds the promised {max_len}")
    return w


def align_middle(g: PInj, d: PInj) -> PInj:
    """A common neighbor of two involution joins on the same span.

    ``g`` and ``d`` must each be a join of 2-cycles covering the same
    points, with no 2-cycle in common.  Walking the alternating structure
    g-partner, d-partner, ... from the minimal point yields two cycles
    that rotate consistently under both, giving an element commuting with
    each.
    """
    dg, dd = decompose(g), decompose(d)
    n = g.n
    for dec in (dg, dd):
        if dec.chains or any(len(c) != 2 for c in dec.cycles):
            raise ValueError("need joins of 2-cycles")
    if dg.span() != dd.span():
        raise ValueError("the two joins must cover the same points")
    if {frozenset(c) for c in dg.cycles} & {frozenset(c) for c in dd.cycles}:
        raise ValueError("the joins share a 2-cycle; use it directly instead")
    partner_g = {}
    partner_d = {}
    for c in dg.cycles:
        partner_g[c[0]], partner_g[c[1]] = c[1], c[0]
    for c in dd.cycles:
        partner_d[c[0]], partner_d[c[1]] = c[1], c[0]
    a1 = min(dg.span())
    b1 = partner_g[a1]
    a_run = [a1]
    c_run = []
    cur = partner_d[a1]
    for _ in range(n + 1):
        if cur == b1:
            break
        c_run.append(cur)
        nxt = partner_g[cur]
        a_run.append(nxt)
        cur = partner_d[nxt]
    else:
        raise AssertionError("alternating walk failed to close")
    eta = join(n, cycles=(tuple(a_run), tuple([b1] + c_run)))
    for mate in (g, d):
        if not commutes_naive(eta, mate):
            raise AssertionError("aligned middle does not commute")
    return eta


def _route_two_spanning_chains(a: PInj, b: PInj) -> PathWitness:
    n = a.n
    ba, bb = power(a, n - 1), power(b, n - 1)
    xa = decompose(ba).chains[0]
    yb = decompose(bb).chains[0]
    if ba == bb:
        return _finalize([a, ba, b], 2)
    if xa[-1] != yb[0] and yb[-1] != xa[0]:
        return _finalize([a, ba, bb, b], 3)
    # A bridge collision pins at most three distinct endpoints, so a free
    # point always exists once n >= 4.
    free = sorted(set(range(n)) - {xa[0], xa[-1], yb[0], yb[-1]})
    assert free
    return _finalize([a, ba, _partial_identity(n, free[:1]), bb, b], 4)


def _route_one_full_cycle(a: PInj, b: PInj) -> PathWitness:
    """``a`` is the full cycle; ``b`` is anything else noncentral."""
    n = a.n
    p = _smallest_prime_factor(n)
    if p == n:
        raise ValueError("a full cycle on a prime number of points commutes"
                         " only with its own powers; no bounded route exists")
    ak = power(a, n // p)  # n//p short cycles of length p
    cyc = decompose(ak).cycles
    cb = classify(b)
    if cb.kind == "nilpotent" and cb.nilpotent_index == n:
        ch = decompose(b).chains[0]
        first, last = ch[0], ch[-1]
        bridge = PInj.chain(n, (first, last))
        avoiding = [cy for cy in cyc if not {first, last} & set(cy)]
        if avoiding:
            mid = _partial_identity(n, avoiding[0])
        else:
            # Only for n = 4: two 2-cycles, each holding one chain end.
            c1 = next(cy for cy in cyc if first in cy)
            c2 = next(cy for cy in cyc if last in cy)
            u = c1[0] if c1[1] == first else c1[1]
            v = c2[0] if c2[1] == last else c2[1]
            mid = join(n, chains=((first, v), (u, last)))
        return _finalize([a, ak, mid, bridge, b], 4)
    return _finalize([a, ak, _partial_identity(n, cyc[0]),
                      commuting_idempotent(b), b], 4)


def _route_two_full_cycles(a: PInj, b: PInj) -> PathWitness:
    n = a.n
    if n % 2 == 0:
        half_a, half_b = power(a, n // 2), power(b, n // 2)
        if half_a == half_b:
            return _finalize([a, half_a, b], 2)
        pa = {frozenset(c) for c in decompose(half_a).cycles}
        pb = {frozenset(c) for c in decompose(half_b).cycles}
        common = sorted(tuple(sorted(c)) for c in pa & pb)
        if common:
            mid = _partial_identity(n, common[0])
        else:
            mid = align_middle(half_a, half_b)
        return _finalize([a, half_a, mid, half_b, b], 4)
    p = _smallest_prime_factor(n)
    if p == n:
        raise ValueError("two full cycles on a prime number of points lie in"
                         " different components unless one powers the other")
    ak, bk = power(a, n // p), power(b, n // p)
    e1 = _partial_identity(n, decompose(ak).cycles[0])
    e2 = _partial_identity(n, decompose(bk).cycles[0])
    return _finalize([a, ak, e1, e2, bk, b], 5)


def build_path(a: PInj, b: PInj) -> PathWitness:
    """An explicit short commuting path from ``a`` to ``b``.

    Length bounds by endpoint shape: at most 3 when both endpoints have
    proper idempotent neighbors, at most 4 when a full cycle or spanning
    chain is involved (composite n), and at most 5 for two full cycles on
    an odd composite ground set.  Raises when no bounded route exists
    (full cycles on a prime ground set).
    """
    if a.n != b.n:
        raise ValueError("ground sizes differ")
    n = a.n
    if n < 4:
        raise ValueError("routes are only built on four or more points")
    zero, ident = PInj.zero(n), PInj.identity(n)
    if a in (zero, ident) or b in (zero, ident):
        raise ValueError("endpoints must be noncentral")
    if a == b:
        return PathWitness((a,))
    if commutes_naive(a, b):
        return _finalize([a, b], 1)
    ca, cb = classify(a), classify(b)
    if ca.is_n_cycle and cb.is_n_cycle:
        return _route_two_full_cycles(a, b)
    if ca.is_n_cycle:
        return _route_one_full_cycle(a, b)
    if cb.is_n_cycle:
        rev = _route_one_full_cycle(b, a)
        return _finalize(list(reversed(rev.vertices)), rev.length)
    a_top = ca.kind == "nilpotent" and ca.nilpotent_index == n
    b_top = cb.kind == "nilpotent" and cb.nilpotent_index == n
    if a_top and b_top:
        return _route_two_spanning_chains(a, b)
    if a_top:
        bridge = power(a, n - 1)
        return _finalize([a, bridge, commuting_idempotent(bridge),
                          commuting_idempotent(b), b], 4)
    if b_top:
        bridge = power(b, n - 1)
        return _finalize([a, commuting_idempotent(a),
                          commuting_idempotent(bridge), bridge, b], 4)
    return _finalize([a, commuting_idempotent(a),
                      commuting_idempotent(b), b], 3)


# -- distinguished pairs --------------------------------------------------------


def extremal_nilpotent_pair(n: int):
    """The spanning chain and its reversal: two rank n-1 nilpotents whose
    commuting-path distance realizes the worst case in the top ideal."""
    if n < 2:
        raise ValueError("need n >= 2")
    return PInj.chain(n, range(n)), PInj.chain(n, range(n - 1, -1, -1))


def ideal_witness_pair(n: int, r: int):
    """Two rank-r spanning chains joint-covering all points, for the ideal
    of rank at most r in its diameter-3 band (n//2 <= r < n-1 roughly)."""
    if not (n - 1) // 2 < r < n - 1:
        raise ValueError("need (n-1)//2 < r < n-1")
    alpha = PInj.chain(n, range(r + 1))
    fresh = list(range(r + 1, n))
    reused = list(range(1, 2 * r - n + 1))
    w = fresh + reused
    if len(w) != r - 1:
        raise AssertionError("middle section miscounted")
    beta = PInj.chain(n, [r] + w + [0])
    for e in (alpha, beta):
        c = classify(e)
        if not (c.kind == "nilpotent" and c.rank == r):
            raise AssertionError("witness is not a rank-r chain")
    if set(alpha.span()) | set(beta.span()) != set(range(n)):
        raise AssertionError("witness spans do not cover the ground set")
    if commutes_naive(alpha, beta):
        raise AssertionError("witness pair unexpectedly commutes")
    return alpha, beta


def cycle_join_root(xi: PInj) -> PInj:
    """A full cycle whose q-th power is ``xi``, a join of q equal cycles.

    Threads the q cycles in min-representative order: the root steps
    through all representatives, then all their images, and so on.
    """
    d = decompose(xi)
    if d.chains or not d.cycles:
        raise ValueError("need a nonempty join of cycles")
    q = len(d.cycles)
    plen = len(d.cycles[0])
    if any(len(c) != plen for c in d.cycles) or q * plen != xi.n:
        raise ValueError("need equal-length cycles covering every point")
    seq = [d.cycles[j][t] for t in range(plen) for j in range(q)]
    root = PInj.cycle(xi.n, seq)
    if power(root, q) != xi:
        raise AssertionError("threaded root does not power back")
    return root


def _factor_odd_prime_power(n: int):
    p = _smallest_prime_factor(n) if n > 1 else 2  # 2 is rejected below
    k = 1
    while p ** k < n:
        k += 1
    if p == 2 or k < 2 or p ** k != n:
        raise ValueError("need an odd prime power p^k with k >= 2")
    return p, k


def prime_power_pair(p: int, k: int):
    """Two full cycles on p**k points at commuting-path distance five.

    ``p`` must be an odd prime and ``k`` at least 2.  For nine points this
    is the classical explicit pair; for larger odd prime powers the second
    cycle is threaded from a block design: q-2 rows stepping by q-1, one
    boundary row, and one tail row, which together with the block-cycle
    join of the first root meet only trivially.
    """
    if p < 3 or _smallest_prime_factor(p) != p:
        raise ValueError("p must be an odd prime")
    if k < 2:
        raise ValueError("k must be at least 2")
    n = p ** k
    q = p ** (k - 1)
    if n == 9:
        alpha = PInj.cycle(9, (0, 1, 2, 3, 4, 7, 6, 5, 8))
        beta = PInj.cycle(9, (0, 3, 6, 1, 4, 7, 2, 5, 8))
        return alpha, beta
    delta = join(n, cycles=tuple(tuple(range(i * p, (i + 1) * p))
                                 for i in range(q)))
    rows = []
    for i in range(1, q - 1):
        rows.append([i] + [i + q - 2 + t * (q - 1) for t in range(p - 1)])
    rows.append([n - p + 1] + [2 * q - 3 + t * (q - 1) for t in range(p - 1)])
    tail = [n - p + 2 + t for t in range(p - 1)] + [n - p]
    rows.append(tail)
    flat = sorted(x for row in rows for x in row)
    if flat != list(range(1, n + 1)):
        raise AssertionError("row design does not partition the points")
    eta = join(n, cycles=tuple(tuple(x - 1 for x in row) for row in rows))
    alpha = cycle_join_root(delta)
    beta = cycle_join_root(eta)
    return alpha, beta


# -- distance-five certification ------------------------------------------------

# Stream the full centralizer only when it is comfortably enumerable.
_STREAM_LIMIT = 2_000_000


def _powers(a: PInj):
    """(int8 rows of a, a^2, ..., a^(m-1) for the order m of the permutation
    ``a``; {d: a^d} over the proper divisors d of m, the pivots)."""
    m = math.lcm(*(len(c) for c in decompose(a).cycles))
    rows = np.empty((m - 1, a.n), np.intp)
    rows[0] = a.img
    for s in range(1, m - 1):
        rows[s] = rows[0][rows[s - 1]]
    return rows.astype(np.int8), {d: row_element(a.n, rows[d - 1].tolist())
                                  for d in _proper_divisors(m)}


def _far_pair_checks(pa, pb):
    """Yield (label, ok, detail, distance) checks that two permutations,
    given by their ``_powers`` and each adjacent only to its proper powers,
    lie more than four apart; a failing check pins the distance it names.

    Commuting (1), a shared power (2) and a commuting pair on the whole
    grid of proper powers (3) come from one batch.  The interior vertex of
    a path of length 4 commutes with a pivot of each end, as a^s and
    a^gcd(s, m) generate one group; one exists exactly when the pivots'
    group is intransitive or its joint centralizer exceeds {0, 1} (4).
    """
    (arows, adiv), (brows, bdiv) = pa, pb
    hits = commuting(arows, brows)
    yield ("the two permutations do not commute", not hits[0, 0], "", 1)
    ia, ib = np.nonzero(hits)
    shared = int((arows[ia] == brows[ib]).all(axis=1).sum()) if len(ia) else 0
    yield ("their power groups share only the identity", shared == 0,
           f"{shared} shared powers", 2)
    yield ("no proper power of one commutes with a proper power of the other",
           len(ia) == 0, f"{hits.size} pairs", 3)
    for d, x in adiv.items():
        for e, y in bdiv.items():
            classes = len(overlap_classes(x, y))
            joint = (len(permutation_joint_centralizer(x, y))
                     if classes == 1 else None)
            yield (f"the first's power {d} and the second's power {e} generate"
                   " a transitive group centralized only by zero and the"
                   " identity",
                   joint == 2, f"{classes} classes, {joint} elements", 4)


def _lower_bound_checks(a: PInj, b: PInj) -> list:
    """The ``_far_pair_checks`` of ``a`` and ``b`` as (label, ok, detail),
    then, for each pivot of ``a`` with at most ``_STREAM_LIMIT`` centralizer
    elements, that centralizer streamed once against every pivot of ``b``:
    it must meet each in {0, 1} and stream as many rows as the formula."""
    pa, pb = _powers(a), _powers(b)
    checks = [c[:3] for c in _far_pair_checks(pa, pb)]
    trivial = {PInj.zero(a.n), PInj.identity(a.n)}
    for d, x in pa[1].items():
        order = permutation_centralizer_order(x)
        if order <= _STREAM_LIMIT:
            meets, rows = _centralizer_meet(x, pb[1].values())
            checks.append((f"streaming the full centralizer of the first's"
                           f" power {d} meets each pivot of the second only"
                           " in zero and the identity",
                           rows == order and
                           all(set(m) == trivial for m in meets),
                           f"{rows} of {order} candidates streamed"))
    return checks


@dataclass(frozen=True)
class Distance5Report:
    n: int
    p: int
    k: int
    alpha: PInj
    beta: PInj
    checks: tuple
    path: PathWitness | None
    centralizer_order: int

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def distance(self):
        return 5 if self.passed else None


def verify_distance5(n: int, pair=None) -> Distance5Report:
    """Certify that a pair of full cycles on p^k points sits at distance
    exactly five in the commuting graph.

    Lower bound: both endpoints are full cycles, whose neighborhoods are
    their proper powers (verified by enumeration), and the
    ``_lower_bound_checks`` pass: no commuting pair on the whole
    (n-1) x (n-1) power grid, and a transitive group centralized only by
    {0, 1} for every pair of divisor powers.  At n=9 every power pair's
    centralizer intersection is also streamed.  Upper bound: an explicit
    length-5 route.  ``centralizer_order`` is that of alpha^(n/p).
    """
    p, k = _factor_odd_prime_power(n)
    alpha, beta = pair if pair is not None else prime_power_pair(p, k)
    if alpha == beta:
        raise ValueError("the two witnesses must be distinct cycles")
    if alpha.n != n or beta.n != n:
        raise ValueError("witness pair does not live on n points")
    cycles = classify(alpha).is_n_cycle and classify(beta).is_n_cycle
    if not cycles:
        raise ValueError("both witnesses must be full cycles")
    zero = PInj.zero(n)
    checks = [("both witnesses are full cycles", cycles, f"n={n}")]

    for name, g in (("first", alpha), ("second", beta)):
        cz = set(iter_permutation_centralizer(g))
        expect = {zero} | {power(g, s) for s in range(1, n + 1)}
        checks.append((f"the {name} cycle's centralizer is its powers and zero",
                       cz == expect, f"{len(cz)} elements"))

    checks += _lower_bound_checks(alpha, beta)

    if n == 9:
        bpow = [power(beta, t) for t in range(1, n)]
        ok = all(set(meet) == {zero, PInj.identity(n)} for s in range(1, n)
                 for meet in _centralizer_meet(power(alpha, s), bpow)[0])
        checks.append(("every power-pair centralizer intersection is"
                       " trivial", ok, "64 pairs"))

    path = build_path(alpha, beta)
    checks.append(("an explicit route of length five exists",
                   path.length == 5, repr(path)))
    cz_order = permutation_centralizer_order(power(alpha, p ** (k - 1)))
    return Distance5Report(n, p, k, alpha, beta, tuple(checks), path,
                           cz_order)


# -- the action of a centralizing element on cycles ------------------------------


@dataclass(frozen=True)
class CycleActionMap:
    """How an element commuting with a permutation permutes its cycles:
    ``mapping`` sends cycle index i to cycle index j (both into
    ``cycles``), only for cycles meeting the commuting element's domain."""

    cycles: tuple
    mapping: dict

    @property
    def injective(self) -> bool:
        vals = list(self.mapping.values())
        return len(vals) == len(set(vals))


def cycle_action_map(alpha: PInj, gamma: PInj) -> CycleActionMap:
    """The cycle-to-cycle action of ``gamma`` on the cycles of the
    permutation ``alpha``; raises unless they commute and the action is a
    well-defined, length-preserving partial injection on cycles."""
    d = decompose(alpha)
    if d.chains or sum(len(c) for c in d.cycles) != alpha.n:
        raise ValueError("need a permutation")
    if not commutes_structural(alpha, gamma):
        raise ValueError("the elements do not commute")
    span_to_idx = {x: i for i, c in enumerate(d.cycles) for x in c}
    mapping = {}
    for i, c in enumerate(d.cycles):
        hit = [x for x in c if gamma(x) != UNDEF]
        if not hit:
            continue
        if len(hit) != len(c):
            raise AssertionError("domain meets a cycle only partially")
        targets = {span_to_idx[gamma(x)] for x in c}
        if len(targets) != 1:
            raise AssertionError("cycle image straddles several cycles")
        j = targets.pop()
        if len(d.cycles[j]) != len(c):
            raise AssertionError("cycle image has a different length")
        mapping[i] = j
    out = CycleActionMap(d.cycles, mapping)
    if not out.injective:
        raise AssertionError("cycle action is not injective")
    return out


# -- the symmetric-group side ----------------------------------------------------


@dataclass(frozen=True)
class SymGapReport:
    n: int
    elements: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def sym_counterexample() -> SymGapReport:
    """Three total permutations of ten points: the outer two have coprime
    cycle lengths throughout (all 2s versus 3s and 1s) and do not commute,
    yet a common neighbor links them, so coprime cycle spectra alone
    cannot force distance greater than two in the symmetric group."""
    n = 10
    rho = join(n, cycles=((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)))
    sigma = join(n, cycles=((0, 2, 4), (1, 3, 5), (6,), (7,), (8,), (9,)))
    tau = join(n, cycles=((0, 2, 4), (1, 3, 5), (6, 7, 8), (9,)))
    checks = []
    checks.append(("all three are total permutations",
                   all(e.is_permutation() for e in (rho, sigma, tau)),
                   ""))
    rho_lens = {len(c) for c in decompose(rho).cycles}
    tau_lens = {len(c) for c in decompose(tau).cycles}
    coprime = all(math.gcd(a, b) == 1 for a in rho_lens for b in tau_lens)
    checks.append(("every cycle length of the first is coprime to every"
                   " cycle length of the third",
                   coprime, f"{sorted(rho_lens)} vs {sorted(tau_lens)}"))
    checks.append(("the outer pair does not commute",
                   not commutes_naive(rho, tau), ""))
    checks.append(("the middle element is not the identity",
                   not sigma.is_identity(), ""))
    checks.append(("the middle commutes with both ends",
                   commutes_naive(rho, sigma) and commutes_naive(sigma, tau),
                   ""))
    return SymGapReport(n, (rho, sigma, tau), tuple(checks))


def dolzan_distance_check(n: int = 10) -> SymGapReport:
    """Eliminate short symmetric-group paths between the full cycle and a
    cycle fixing one point, pinning their commuting-graph distance at five
    or more: each neighborhood is a power group (verified by enumeration)
    and the ``_lower_bound_checks`` pass.  Needs n and n-1 composite.
    """
    if _smallest_prime_factor(n) == n or \
            _smallest_prime_factor(n - 1) == n - 1:
        raise ValueError("need n and n-1 both composite: a cycle of prime"
                         " length has no proper power joins to pivot on")
    alpha = PInj.cycle(n, range(n))
    beta = join(n, cycles=(tuple(range(n - 1)), (n - 1,)))
    checks = []
    for name, g, m in (("full", alpha, n), ("point-fixing", beta, n - 1)):
        total = {c for c in iter_permutation_centralizer(g)
                 if c.is_permutation()}
        expect = {power(g, s) for s in range(1, m + 1)}
        checks.append((f"the {name} cycle's total centralizer is its power"
                       " group", total == expect, f"{len(total)} elements"))
    checks += _lower_bound_checks(alpha, beta)
    return SymGapReport(n, (alpha, beta), tuple(checks))


# -- sampling the open middle ground ---------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    n: int
    samples: int
    seed: int
    histogram: dict
    pairs: tuple

    @property
    def max_distance(self):
        return max(self.histogram) if self.histogram else None


def _full_cycle_pair_distance(a: PInj, b: PInj):
    """Exact commuting-graph distance between two full cycles, decided
    without materializing the graph: neighborhoods are power groups, so
    the distance is that of the first failing ``_far_pair_checks`` check;
    if none fails, 5 on a composite ground set and infinite on a prime
    one, where the two cycles lie in different components."""
    if a == b:
        return 0
    for _, ok, _, dist in _far_pair_checks(_powers(a), _powers(b)):
        if not ok:
            return dist
    return math.inf if _smallest_prime_factor(a.n) == a.n else 5


def search_open(n: int, samples: int = 100, seed: int = 0) -> SearchReport:
    """Sample random pairs of full cycles on n points and compute their
    exact commuting-graph distance; reports a histogram and makes no
    claim beyond the sampled pairs.  Needs n >= 2 and samples >= 0."""
    if n < 2 or samples < 0:
        raise ValueError("search_open needs n >= 2 and samples >= 0, got"
                         f" n={n}, samples={samples}")
    rng = random.Random(seed)
    hist = {}
    pairs = []
    for _ in range(samples):
        a = PInj.cycle(n, rng.sample(range(n), n))
        b = PInj.cycle(n, rng.sample(range(n), n))
        dist = _full_cycle_pair_distance(a, b)
        hist[dist] = hist.get(dist, 0) + 1
        pairs.append((format_element(a), format_element(b), dist))
        if dist == 5:
            path = build_path(a, b)
            if path.length != 5:
                raise AssertionError("distance-5 pair admits a shorter route")
    return SearchReport(n, samples, seed, hist, tuple(pairs))
