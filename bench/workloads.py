"""The four benchmark workloads and the reference values that gate them.

Each workload has a full size, which the benchmark runs, and a tiny size
for the self-test.  ``make_inputs(seed)`` builds a pass's inputs and
reference data; ``run(inputs, clock)`` makes one pass and returns a
``Pass``: the checks it made, the latency of each item (one call into
invsemi, timed by ``clock``), and a fingerprint of the result that must
repeat exactly on every pass of a run.

The reference values are exact facts, each certified by a route that does
not use the code path being timed:

* extremal orders and counts are the balanced null semigroup orders of the
  acceptance tests, and the witness sets must equal the independently
  constructed ``balanced_null_semigroups``;
* ideal vertex counts are sums of stratum sizes, edge counts were checked
  against a brute-force pairwise composition count, and the diameters are
  the ideal diameters of the acceptance tests (3 in the band
  (n-1)//2 < r < n-1, 4 at r = n-1);
* distance-five centralizer orders are the closed-form counts of
  ``sum C(t,r)^2 r! L^r`` over the q-th power's cycle classes;
* search-open histograms at seeds 0 to 10 were recorded when this
  benchmark was defined, so a change that alters any sampled distance
  shows; other seeds check only the invariants (item count, distances in
  the allowed set), and every pair reported at distance 3 is certified
  here: the neighbours of a full cycle other than the identity and zero
  are its non-identity powers, so the distance is 3 exactly when the two
  cycles do not commute, share no non-identity power, and have powers
  that commute.  Such pairs are rare (one among the 26,000 items of seeds
  0 to 25, at seed 24) but real, so 3 is an allowed distance at n=15.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from invsemi import construct, graph, pinj, witnesses


@dataclass
class Pass:
    checks: list = field(default_factory=list)
    items_s: list = field(default_factory=list)
    fingerprint: object = None

    def check(self, label: str, ok) -> None:
        self.checks.append((label, bool(ok)))


def _commutes(a_img, b_img, undef=pinj.UNDEF) -> bool:
    """ab == ba on raw image tables, written here so that it shares no code
    with the predicates it checks."""
    for x in range(len(a_img)):
        y = a_img[x]
        ab = undef if y == undef else b_img[y]
        y = b_img[x]
        ba = undef if y == undef else a_img[y]
        if ab != ba:
            return False
    return True


def _cycle_img(text: str, n: int) -> list:
    """Image table of a full cycle written as "(x1 x2 ... xn)", 1-based."""
    points = [int(x) - 1 for x in text.strip("()").split()]
    img = [pinj.UNDEF] * n
    for x, y in zip(points, points[1:] + points[:1]):
        img[x] = y
    return img


def _is_distance_three(a_text: str, b_text: str, n: int) -> bool:
    """Certify, sharing no code with invsemi's distance search, that two
    full cycles lie at commuting-graph distance exactly 3."""
    a, b = _cycle_img(a_text, n), _cycle_img(b_text, n)

    def powers(c):
        out, cur = [], c
        for _ in range(n - 1):
            out.append(cur)
            cur = [c[y] for y in cur]
        return out

    apow, bpow = powers(a), powers(b)
    return (not _commutes(a, b)
            and not {tuple(x) for x in apow} & {tuple(y) for y in bpow}
            and any(_commutes(x, y) for x in apow for y in bpow))


class Extremal:
    """``max_commutative_nilpotent(n)``: adjacency kernel, clique search
    and product-closure checks."""

    fixed_by_n = True

    def __init__(self, n: int, order: int, count: int):
        self.n, self.order, self.count = n, order, count

    def make_inputs(self, seed: int):
        return {frozenset(s.ids)
                for s in construct.balanced_null_semigroups(self.n)}

    def run(self, balanced, clock=perf_counter) -> Pass:
        out = Pass()
        t0 = clock()
        rep = construct.max_commutative_nilpotent(self.n)
        out.items_s.append(clock() - t0)
        out.check("maximum order", rep.max_order == self.order)
        out.check("witness count", rep.count == self.count)
        out.check("witnesses are the balanced null semigroups",
                  {frozenset(w.ids) for w in rep.witnesses} == balanced)
        out.fingerprint = (rep.max_order, rep.count,
                           tuple(w.ids for w in rep.witnesses))
        return out


class IdealDiameter:
    """``build_graph(n, max_rank=r, center="ideal")`` then ``diameter``:
    adjacency kernel, then one BFS per vertex."""

    fixed_by_n = True

    def __init__(self, n: int, max_rank: int, vertices: int, edges: int,
                 diameter: int):
        self.n, self.max_rank = n, max_rank
        self.vertices, self.edges, self.diameter = vertices, edges, diameter

    def make_inputs(self, seed: int):
        return None

    def run(self, _inputs, clock=perf_counter) -> Pass:
        out = Pass()
        n = self.n
        t0 = clock()
        g = graph.build_graph(n, max_rank=self.max_rank, center="ideal")
        res = graph.diameter(g)
        out.items_s.append(clock() - t0)
        out.check("vertex count", g.num_vertices == self.vertices)
        out.check("edge count", g.num_edges() == self.edges)
        out.check("diameter", res.value == self.diameter)
        zero = pinj.PInj.zero(n)
        path = res.path.vertices if res.path is not None else ()
        try:
            res.path.validate(excluded=(zero,))
            valid = True
        except (AssertionError, AttributeError):
            valid = False
        out.check("geodesic passes PathWitness.validate", valid)
        out.check("geodesic length equals the diameter",
                  len(path) - 1 == res.value)
        out.check("geodesic joins the reported pair", bool(path) and
                  (pinj.element_id(path[0]), pinj.element_id(path[-1]))
                  == res.pair)
        out.check("geodesic stays in the ideal, off zero",
                  all(0 < v.rank <= self.max_rank for v in path))
        out.check("every geodesic step commutes (independent check)",
                  all(_commutes(a.img, b.img) for a, b in zip(path, path[1:])))
        out.fingerprint = (g.num_vertices, res.value, res.pair)
        return out


class Distance5:
    """``verify_distance5(p**k, pair)`` on the canonical prime-power pair,
    relabelled by a permutation of the points drawn from the seed: the
    certificate and the centralizer order are invariant under it."""

    fixed_by_n = False

    def __init__(self, p: int, k: int, centralizer_order: int):
        self.p, self.k, self.n = p, k, p ** k
        self.centralizer_order = centralizer_order

    def make_inputs(self, seed: int):
        n = self.n
        relabel = list(range(n))
        random.Random(seed).shuffle(relabel)

        def conjugate(a):
            img = [pinj.UNDEF] * n
            for x, y in enumerate(a.img):
                img[relabel[x]] = relabel[y]
            return pinj.PInj(n, img)

        return tuple(conjugate(a)
                     for a in witnesses.prime_power_pair(self.p, self.k))

    def run(self, pair, clock=perf_counter) -> Pass:
        out = Pass()
        t0 = clock()
        rep = witnesses.verify_distance5(self.n, pair=pair)
        out.items_s.append(clock() - t0)
        for label, ok, _detail in rep.checks:
            out.check(label, ok)
        out.check("distance is five", rep.distance == 5)
        out.check("centralizer order",
                  rep.centralizer_order == self.centralizer_order)
        out.check("report is about the given pair",
                  (rep.alpha, rep.beta) == tuple(pair))
        out.fingerprint = (tuple((c[0], c[1]) for c in rep.checks),
                           rep.centralizer_order)
        return out


class SearchOpen:
    """Many independent ``search_open(n, samples=1, seed=s_i)`` calls, with
    the item seeds drawn from the workload seed; each call is one item."""

    fixed_by_n = False

    def __init__(self, n: int, items: int, allowed, histograms=None):
        self.n, self.items = n, items
        self.allowed = frozenset(allowed)
        self.histograms = histograms or {}

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        return seed, [rng.getrandbits(32) for _ in range(self.items)]

    def run(self, inputs, clock=perf_counter) -> Pass:
        seed, item_seeds = inputs
        out = Pass()
        hist, threes = {}, []
        for s in item_seeds:
            t0 = clock()
            rep = witnesses.search_open(self.n, samples=1, seed=s)
            out.items_s.append(clock() - t0)
            for dist, count in rep.histogram.items():
                hist[dist] = hist.get(dist, 0) + count
            threes += [(a, b) for a, b, dist in rep.pairs if dist == 3]
        out.check("histogram sums to the item count",
                  sum(hist.values()) == self.items)
        out.check(f"every distance is in {sorted(self.allowed)}",
                  set(hist) <= self.allowed)
        out.check("every distance-3 pair is certified independently",
                  all(_is_distance_three(a, b, self.n) for a, b in threes))
        if seed in self.histograms:
            out.check(f"histogram matches the recorded one for seed {seed}",
                      hist == self.histograms[seed])
        out.fingerprint = tuple(sorted(hist.items()))
        return out


# Distance histograms of search-open-n15 at seeds 0 to 10, as
# {seed: {distance: items}}.
SEARCH_OPEN_N15_HISTOGRAMS = {
    seed: {4: d4, 5: 1000 - d4}
    for seed, d4 in enumerate((61, 70, 83, 60, 74, 103, 75, 72, 83, 67, 79))
}

FULL = {
    "extremal-n6": Extremal(6, order=34, count=20),
    "ideal-diam-n6r3": IdealDiameter(6, 3, vertices=2886, edges=156_660,
                                     diameter=3),
    "distance5-n25": Distance5(5, 2, centralizer_order=830_126),
    "search-open-n15": SearchOpen(15, 1000, allowed={3, 4, 5},
                                  histograms=SEARCH_OPEN_N15_HISTOGRAMS),
}

TINY = {
    "extremal-n6": Extremal(4, order=7, count=6),
    "ideal-diam-n6r3": IdealDiameter(4, 3, vertices=184, edges=1266,
                                     diameter=4),
    "distance5-n25": Distance5(3, 2, centralizer_order=352),
    "search-open-n15": SearchOpen(9, 12, allowed={3, 4, 5}),
}


def get(name: str, tiny: bool = False):
    table = TINY if tiny else FULL
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(table)}")
    return table[name]
