"""Command-line harness: element inspection, graph builds, verification suites.

Every ``verify`` suite runs named checks whose expected values are either
reference table entries, values derived in-process by an independent
route, or trivial consequences of definitions; the report records which.
Reports are deterministic across runs (times aside).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import commute, construct
from . import graph as graphmod
from . import pinj, witnesses

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3

REFERENCE, DERIVED, TRIVIAL = "reference", "derived", "trivial"

# Reference tables, cross-checked elsewhere by closed forms, recurrences,
# or exhaustive search; `verify` suites compare against these.
LAMBDA_TABLE = {2: 2, 3: 3, 4: 7, 5: 13, 6: 34, 7: 73, 8: 209, 9: 501,
                10: 1546, 11: 4051}
EXTREMAL_COUNT = {4: 6, 5: 20, 6: 20, 7: 70}

# Guarded ranges of n; --force lifts each, but a suite's range starts at
# the least n its reference values cover.
GRAPH_NS = range(7)      # graph materialization, general centralizers
GRAPH_SUITE_NS = range(3, GRAPH_NS.stop)  # the diameter and pair suites
CLIQUE_NS = range(2, GRAPH_NS.stop)  # max-clique uniqueness enumeration
EXTREMAL_NS = range(3, 8)  # the maximum commutative nilpotent search
BALANCED_NULL_NS = range(2, 9)  # every balanced split, classified
DISTANCE5_NS = (9, 25, 27)
CENTRALIZER_LIST_CAP = 100_000  # centralizer --list, in elements
# the center each graph family leaves out (see graph.build_graph)
FILTER_CENTERS = {"all": "monoid", "nilpotent": "ideal",
                  "idempotent": "monoid", "permutation": "group"}


class UsageError(Exception):
    """Bad parameters or a guarded range violation (exit code 2)."""


def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "infinity"
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, pinj.PInj):
        return pinj.format_element(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _fmt(v) -> str:
    s = json.dumps(_jsonable(v))
    return s if len(s) <= 60 else s[:57] + "..."


@dataclass
class CheckRecord:
    claim: str
    anchor: str
    provenance: str
    expected: object
    computed: object
    ok: bool
    ms: float

    def to_dict(self):
        return {
            "claim": self.claim,
            "anchor": self.anchor,
            "expected": {"value": _jsonable(self.expected),
                         "provenance": self.provenance},
            "computed": _jsonable(self.computed),
            "pass": self.ok,
            "ms": self.ms,
        }


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, claim, anchor, provenance, expected, computed):
        """Record one check; ``computed`` may be a thunk (it gets timed)."""
        t0 = time.perf_counter()
        value = computed() if callable(computed) else computed
        ms = round((time.perf_counter() - t0) * 1000, 3)
        self.checks.append(CheckRecord(claim, anchor, provenance, expected,
                                       value, bool(value == expected), ms))
        return value

    def relay(self, checks, anchor):
        """Record each (claim, ok, note) of a witnesses report as a derived
        check."""
        for claim, ok, note in checks:
            self.check(f"{claim} ({note})" if note else claim, anchor,
                       DERIVED, True, ok)

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }


@dataclass
class CliContext:
    """Run-wide knobs plus a per-process graph store (memory + disk)."""

    budget_seconds: float | None = None
    cache_dir: str | None = None
    force: bool = False
    _graphs: dict = field(default_factory=dict)

    def guard(self, what: str, n: int, allowed, floor: bool = False) -> None:
        """Usage error unless ``n`` is in ``allowed`` or ``force`` is set.
        With ``floor``, ``allowed`` is a range whose start is the least n a
        suite has reference values for, and ``force`` does not lift it."""
        if floor and n < allowed.start:
            raise UsageError(f"{what} has reference values only for n >="
                             f" {allowed.start}; --force does not lift this")
        if n in allowed or self.force:
            return
        span = (f"{allowed.start} <= n <= {allowed.stop - 1}"
                if isinstance(allowed, range) else f"n in {allowed}")
        raise UsageError(f"{what} is guarded to {span}; --force lifts the"
                         " guard")

    @property
    def vertex_cap(self) -> int:
        return (1 << 40) if self.force else graphmod.VERTEX_CAP

    def graph(self, n: int, max_rank: int | None = None, filt: str = "all"
              ) -> graphmod.CommutingGraph:
        """Commuting graph of I(n) minus its center; with ``max_rank`` r,
        that of the nonzero elements of rank at most r, built from those
        elements alone; with ``filt``, that of one family minus the
        family's center (``FILTER_CENTERS``).  Memoized; with ``cache_dir``
        the full graph is also kept on disk."""
        key = (n, max_rank, filt)
        if key in self._graphs:
            return self._graphs[key]
        if max_rank is not None and filt != "all":
            raise UsageError("--ideal applies to the unfiltered monoid")
        if max_rank is not None and not 1 <= max_rank <= n - 1:
            raise UsageError("need 1 <= r <= n-1 for an ideal graph")
        path = None
        if max_rank is None and filt == "all" and self.cache_dir is not None:
            path = Path(self.cache_dir) / f"icgr-full-n{n}.bin"
        if path is not None and path.exists() and not self.force:
            try:
                g = graphmod.load_packed(path)
            except ValueError as e:
                raise UsageError(f"bad graph cache {path}: {e}; delete it or"
                                 " rerun with --force to rebuild it") from None
        else:
            self.guard("graph materialization", n, GRAPH_NS)
            if max_rank is None:
                g = graphmod.build_graph(n, filt, center=FILTER_CENTERS[filt],
                                         vertex_cap=self.vertex_cap)
            else:
                g = graphmod.build_graph(
                    n, max_rank=max_rank, center="ideal",
                    label=f"rank{max_rank}-ideal-n{n}",
                    vertex_cap=self.vertex_cap)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                graphmod.save_packed(g, path)
        self._graphs[key] = g
        return g

    def extremal(self, n: int) -> construct.ExtremalReport:
        """The maximum commutative nilpotent search at n, guarded."""
        self.guard("the extremal search", n, EXTREMAL_NS)
        return construct.max_commutative_nilpotent(
            n, budget_seconds=self.budget_seconds)


# -- small independent oracles ---------------------------------------------------


def _lambda_by_recurrence(limit: int) -> dict:
    vals = {2: construct.balanced_null_order(2),
            3: construct.balanced_null_order(3)}
    for m in range(4, limit + 1):
        vals[m] = vals[m - 1] + (m // 2) * vals[m - 2]
    return vals


def _null_order(a: int, b: int) -> int:
    return sum(math.comb(a, r) * math.comb(b, r) * math.factorial(r)
               for r in range(min(a, b) + 1))


def _random_element(rng: random.Random, n: int) -> pinj.PInj:
    return pinj.element_from_id(n, rng.randrange(pinj.monoid_order(n)))


def _perfect_matchings(points):
    pts = list(points)
    if not pts:
        yield ()
        return
    head, rest = pts[0], pts[1:]
    for i, partner in enumerate(rest):
        for sub in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((head, partner),) + sub


# -- verification suites ----------------------------------------------------------


def _suite_lambda(s: SuiteReport, p: dict, ctx: CliContext):
    max_n = p.get("max_n", 11)
    if max_n < 4:
        raise UsageError("the lambda suite's recurrence needs --max-n n >= 4")
    for m in range(2, min(max_n, 11) + 1):
        s.check(f"balanced null order at n={m}", "order-table", REFERENCE,
                LAMBDA_TABLE[m], lambda m=m: construct.balanced_null_order(m))
    rec = _lambda_by_recurrence(max_n)
    s.check(f"closed form satisfies the two-step recurrence for 4..{max_n}",
            "recurrence", DERIVED, True,
            lambda: all(construct.balanced_null_order(m) == rec[m]
                        for m in range(4, max_n + 1)))
    s.check("even-index orders collapse to full monoid orders",
            "even-collapse", DERIVED, True,
            lambda: all(construct.balanced_null_order(2 * m)
                        == pinj.monoid_order(m)
                        for m in range(1, max_n // 2 + 1)))
    s.check("odd-index orders collapse to nilpotent counts",
            "nilpotent-collapse", DERIVED, True,
            lambda: all(construct.balanced_null_order(2 * m - 1)
                        == construct.count_elements(m, "nilpotent")
                        for m in range(2, (max_n + 1) // 2 + 1)))
    if max_n >= 10:
        sg = construct.null_semigroup(range(5), range(5, 10))
        s.check("the nonzero elements of a balanced null semigroup at n=10"
                " pairwise commute and none is central", "clique-bound",
                DERIVED, LAMBDA_TABLE[10] - 1, lambda: sum(
                    not (e.is_zero() or e.is_identity()) for e in sg)
                if sg.is_null() else None)
        s.check("lambda_n - 1 > 2^n - 2 at exactly n=10 and 11 of the table",
                "clique-range", DERIVED, [10, 11],
                [m for m, lam in LAMBDA_TABLE.items() if lam - 1 > 2**m - 2])


def _suite_balanced_null(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 4)
    ctx.guard("the balanced-null suite", n, BALANCED_NULL_NS, floor=True)
    if n == 4:
        displayed = ["0", "[1 3]", "[1 4]", "[2 3]", "[2 4]",
                     "[1 3]|[2 4]", "[1 4]|[2 3]"]
        s.check("the 4-point instance with blocks {1,2} and {3,4} matches"
                " the displayed seven elements", "displayed-set", REFERENCE,
                sorted(displayed),
                lambda: sorted(pinj.format_element(e) for e in
                               construct.null_semigroup((0, 1), (2, 3)).elements))
    sgs = list(construct.balanced_null_semigroups(n))
    expected_count = (math.comb(n, n // 2) if n % 2 == 0
                      else 2 * math.comb(n, n // 2))
    s.check(f"number of balanced block splits at n={n}", "partition-count",
            REFERENCE, expected_count, len(sgs))
    s.check("every balanced instance is a null semigroup of the closed-form"
            " order", "null-flags", TRIVIAL, True,
            lambda: all(classify.null and classify.order
                        == construct.balanced_null_order(n)
                        for classify in map(construct.classify_semigroup, sgs)))


def _suite_extremal(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 4)
    ctx.guard("the extremal suite", n, EXTREMAL_NS, floor=True)
    box = {}

    def search():
        box["rep"] = ctx.extremal(n)
        return box["rep"].max_order

    s.check(f"maximum commutative nilpotent order at n={n}", "order-table",
            REFERENCE, LAMBDA_TABLE.get(n, construct.balanced_null_order(n)),
            search)
    rep = box["rep"]
    nulls = {tuple(b.ids) for b in construct.balanced_null_semigroups(n)}
    wits = {tuple(w.ids) for w in rep.witnesses}
    if n >= 4:
        s.check(f"number of maximum-order witnesses at n={n}", "order-table",
                REFERENCE, EXTREMAL_COUNT.get(n), rep.count)
        s.check("the witnesses are exactly the balanced null semigroups",
                "witness-set", REFERENCE, True, wits == nulls)
    else:
        zero = pinj.PInj.zero(3)
        cyclic = set()
        for perm in itertools.permutations(range(3)):
            c = pinj.PInj.chain(3, perm)
            ss = construct.SemigroupSet.from_elements(
                3, (zero, c, pinj.power(c, 2)))
            cyclic.add(tuple(ss.ids))

        def brute_count():
            elems = [e for e in construct.enumerate_elements(3, "nilpotent")
                     if not e.is_zero()]
            hits = 0
            for x, y in itertools.combinations(elems, 2):
                ss = construct.SemigroupSet.from_elements(3, (zero, x, y))
                flags = construct.classify_semigroup(ss)
                hits += flags.closed and flags.commutative
            return hits

        s.check("witness count at n=3 agrees with a brute scan of all"
                " zero-plus-two-nilpotent subsets", "brute-pairs", DERIVED,
                brute_count(), rep.count)
        s.check("witnesses at n=3 are the balanced null and the cyclic chain"
                " semigroups", "witness-set", REFERENCE, True,
                wits == nulls | cyclic)


def _suite_clique(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 3)
    ctx.guard("the clique suite", n, CLIQUE_NS, floor=True)
    g = ctx.graph(n)
    box = {}

    def search():
        box["cliques"] = graphmod.maximum_cliques(
            g, budget_seconds=ctx.budget_seconds)
        return len(box["cliques"][0])

    s.check(f"clique number of the full commuting graph at n={n}",
            "clique-formula", REFERENCE, 2 ** n - 2, search)
    idem = [e for e in construct.idempotent_semilattice(n).elements
            if not e.is_zero() and not e.is_identity()]
    idx = [g.index_of(e) for e in idem]
    s.check("the proper idempotents form a clique of that size",
            "idempotent-clique", TRIVIAL, True,
            lambda: len(idem) == 2 ** n - 2 and all(
                g.adjacent(i, j) for i, j in itertools.combinations(idx, 2)))

    def closed_max_cliques():
        zero, ident = pinj.PInj.zero(n), pinj.PInj.identity(n)
        out = []
        for c in box["cliques"]:
            elems = [g.vertex_element(i) for i in c] + [zero, ident]
            ss = construct.SemigroupSet.from_elements(n, elems)
            if ss.is_closed():
                out.append(tuple(sorted(int(g.ids[i]) for i in c)))
        return sorted(out)

    idem_ids = [tuple(sorted(pinj.element_id(e) for e in idem))]
    s.check("the unique closed maximum clique is the proper idempotents",
            "closed-clique-uniqueness", REFERENCE, idem_ids,
            closed_max_cliques)


def _suite_ideal_diameters(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 4)
    ctx.guard("the ideal-diameter suite", n, GRAPH_SUITE_NS, floor=True)
    for r in range(1, n):
        if r == n - 1:
            expected = 4
        elif r > (n - 1) // 2:
            expected = 3
        else:
            expected = 2
        s.check(f"diameter of the rank<={r} ideal graph on {n} points",
                "diameter-thresholds", REFERENCE, expected,
                lambda r=r: graphmod.diameter(ctx.graph(n, r)).value)


def _suite_full_diameter(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 4)
    ctx.guard("the full-diameter suite", n, GRAPH_SUITE_NS, floor=True)
    expected = 4 if n % 2 == 0 else graphmod.INFINITY
    s.check(f"diameter of the full commuting graph at n={n}",
            "even-diameter" if n % 2 == 0 else "prime-disconnect", REFERENCE,
            expected,
            lambda: graphmod.diameter(ctx.graph(n)).value)
    if n % 2 == 1:
        g = ctx.graph(n)
        cyc = pinj.PInj.cycle(n, range(n))
        spot = pinj.PInj.from_dict(n, {0: 0})
        s.check("a full cycle cannot reach an idempotent", "prime-disconnect",
                REFERENCE, graphmod.INFINITY,
                lambda: graphmod.distance(g, cyc, spot).value)
        s.check("a full cycle does reach its own inverse", "prime-disconnect",
                TRIVIAL, 1,
                lambda: graphmod.distance(g, cyc, cyc.inverse()).value)


def _suite_distance5(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 9)
    ctx.guard("distance-5 certification", n, DISTANCE5_NS)
    box = {}

    def run():
        box["rep"] = witnesses.verify_distance5(n)
        return box["rep"].passed

    s.check(f"the prime-power pair at n={n} is certified", "certificate",
            DERIVED, True, run)
    rep = box["rep"]
    s.relay(rep.checks, "certificate")
    if n == 9:
        s.check("the cube's centralizer order at n=9", "centralizer-size",
                REFERENCE, 352, rep.centralizer_order)
    s.check("certified distance", "path-length", REFERENCE, 5, rep.distance)


def _suite_nilpotent_pairs(s: SuiteReport, p: dict, ctx: CliContext):
    n = p.get("n", 4)
    ctx.guard("the nilpotent-pairs suite", n, GRAPH_SUITE_NS, floor=True)
    a, b = witnesses.extremal_nilpotent_pair(n)
    s.check(f"the spanning chain and its reversal sit at distance 4 in the"
            f" top proper ideal at n={n}", "pair-distance", REFERENCE, 4,
            lambda: graphmod.distance(ctx.graph(n, n - 1), a, b).value)


def _suite_sym_gap(s: SuiteReport, p: dict, ctx: CliContext):
    s.relay(witnesses.sym_counterexample().checks, "triple-commutation")
    rep2 = witnesses.dolzan_distance_check(10)
    s.relay(rep2.checks, "divisor-grid")
    s.check("the ten-point total-cycle pair is at distance five or more",
            "divisor-grid", REFERENCE, True, rep2.passed)


def _suite_properties(s: SuiteReport, p: dict, ctx: CliContext):
    samples = p.get("samples", 2000)
    if samples < 0:
        raise UsageError(f"the properties suite needs samples >= 0, got"
                         f" {samples}")
    seed = p.get("seed", 0)
    rng = random.Random(seed)

    def naive_agreement():
        elems3 = list(construct.enumerate_elements(3))
        bad = sum(commute.commutes_structural(a, b)
                  != commute.commutes_naive(a, b)
                  for a, b in itertools.product(elems3, repeat=2))
        for _ in range(samples):
            a, b = _random_element(rng, 6), _random_element(rng, 6)
            bad += (commute.commutes_structural(a, b)
                    != commute.commutes_naive(a, b))
        return bad

    s.check("structural and naive commutation agree (exhaustive n=3 plus"
            f" {samples} random pairs at n=6)", "naive-agreement", DERIVED,
            0, naive_agreement)

    def round_trip():
        bad = 0
        for e in construct.enumerate_elements(3):
            d = pinj.decompose(e)
            bad += pinj.join(e.n, d.cycles, d.chains) != e
        for _ in range(samples):
            e = _random_element(rng, 8)
            d = pinj.decompose(e)
            bad += pinj.join(e.n, d.cycles, d.chains) != e
        return bad

    s.check("decomposition round-trips (exhaustive n=3 plus"
            f" {samples} random at n=8)", "round-trip", TRIVIAL, 0,
            round_trip)

    def containments():
        elems3 = list(construct.enumerate_elements(3))
        bad = 0
        for a, b in itertools.product(elems3, repeat=2):
            if not commute.commutes_naive(a, b):
                continue
            binv = b.inverse()
            bad += any(b(x) != pinj.UNDEF and b(x) not in a.ima()
                       for x in a.ima())
            bad += any(binv(y) != pinj.UNDEF and binv(y) not in a.dom()
                       for y in a.dom())
        return bad

    s.check("commuting mates carry the image into the image and the domain"
            " back into the domain (all commuting pairs at n=3)",
            "containments", REFERENCE, 0, containments)

    def centralizer_shapes():
        n = 4
        zero, ident = pinj.PInj.zero(n), pinj.PInj.identity(n)
        bad = 0
        for tail in itertools.permutations(range(1, n)):
            a = pinj.PInj.cycle(n, (0,) + tail)
            expect = {zero} | {pinj.power(a, q) for q in range(1, n + 1)}
            bad += set(commute.centralizer(a).elements) != expect
        for seq in itertools.permutations(range(n)):
            a = pinj.PInj.chain(n, seq)
            expect = {zero, ident} | {pinj.power(a, q) for q in range(1, n)}
            bad += set(commute.centralizer(a).elements) != expect
        return bad

    s.check("full cycles centralize only their powers and zero; spanning"
            " chains add the identity (exhaustive n=4)", "centralizer-shape",
            REFERENCE, 0, centralizer_shapes)

    def inequalities():
        lam = _lambda_by_recurrence(40)
        ok = all(lam[m] > 2 * lam[m - 1] for m in range(6, 41))
        ok &= all(lam[m] + 1 > 2 * (lam[m - 1] + 1) for m in range(11, 41))
        ok &= all(lam[m] + 1 > (lam[k] + 1) * (lam[m - k] + 1)
                  for m in range(20, 41) for k in range(10, m - 9))
        for m in range(2, 41):
            vals = [_null_order(a, m - a) for a in range(m // 2 + 1)]
            ok &= all(x < y for x, y in zip(vals, vals[1:]))
        return ok

    s.check("the null-order inequalities hold in exact arithmetic up to"
            " n=40 (doubling, monoid doubling and products, balance"
            " monotonicity)", "inequalities", REFERENCE, True, inequalities)

    def route_validity():
        n, count, bad, worst = 6, 0, 0, 0
        zero, ident = pinj.PInj.zero(n), pinj.PInj.identity(n)
        while count < max(samples // 10, 50):
            a, b = _random_element(rng, n), _random_element(rng, n)
            if a in (zero, ident) or b in (zero, ident) or a == b:
                continue
            count += 1
            try:
                w = witnesses.build_path(a, b)
            except (ValueError, AssertionError):
                bad += 1
                continue
            worst = max(worst, w.length)
        return (bad, worst)

    s.check("random route construction at n=6 always verifies, never longer"
            " than four steps", "route-validity", REFERENCE, (0, 4),
            route_validity)

    def idempotent_neighbors():
        bad = 0
        n = 4
        for e in construct.enumerate_elements(n):
            c = pinj.classify(e)
            if e.is_zero() or e.is_identity() or c.is_n_cycle \
                    or (c.kind == "nilpotent" and c.nilpotent_index == n):
                continue
            eps = witnesses.commuting_idempotent(e)
            bad += not (eps.is_idempotent() and eps.rank <= e.rank
                        and commute.commutes_naive(e, eps))
        return bad

    s.check("every eligible element of the 4-point monoid gets a valid"
            " idempotent neighbor", "idempotent-neighbor", DERIVED, 0,
            idempotent_neighbors)

    def alignment():
        matchings = [pinj.join(6, cycles=m) for m in
                     _perfect_matchings(range(6))]
        bad = pairs = 0
        for g1, g2 in itertools.combinations(matchings, 2):
            if {frozenset(c) for c in pinj.decompose(g1).cycles} & \
                    {frozenset(c) for c in pinj.decompose(g2).cycles}:
                continue
            pairs += 1
            eta = witnesses.align_middle(g1, g2)
            bad += not (commute.commutes_naive(eta, g1)
                        and commute.commutes_naive(eta, g2))
        return (bad, pairs)

    s.check("aligned middles commute with both mates for every disjoint"
            " pair of perfect 2-cycle joins on six points", "alignment",
            DERIVED, (0, 60), alignment)

    def cycle_actions():
        bad = 0
        for a in construct.enumerate_elements(4, "permutation"):
            for g in commute.centralizer(a):
                try:
                    witnesses.cycle_action_map(a, g)
                except (ValueError, AssertionError):
                    bad += 1
        return bad

    s.check("the induced action on cycles is well defined, injective and"
            " length preserving for all commuting pairs at n=4",
            "cycle-action", REFERENCE, 0, cycle_actions)


_SUITES = {
    "lambda": _suite_lambda,
    "balanced-null": _suite_balanced_null,
    "extremal": _suite_extremal,
    "clique": _suite_clique,
    "ideal-diameters": _suite_ideal_diameters,
    "full-diameter": _suite_full_diameter,
    "distance5": _suite_distance5,
    "nilpotent-pairs": _suite_nilpotent_pairs,
    "sym-gap": _suite_sym_gap,
    "properties": _suite_properties,
}
SUITE_ORDER = tuple(_SUITES)
# the parameters each suite reads; giving a suite any other is a usage error
SUITE_PARAMS = {"lambda": ("max_n",), "balanced-null": ("n",),
                "extremal": ("n",), "clique": ("n",),
                "ideal-diameters": ("n",), "full-diameter": ("n",),
                "distance5": ("n",), "nilpotent-pairs": ("n",),
                "sym-gap": (), "properties": ("samples", "seed")}


def run_suite(name: str, params: dict | None = None,
              ctx: CliContext | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from"
                         f" {', '.join(SUITE_ORDER)} or 'all'")
    report = SuiteReport(name, dict(params or {}))
    unread = [k for k in report.params if k not in SUITE_PARAMS[name]]
    if unread:
        raise UsageError(f"the {name} suite does not read " + ", ".join(
            "--" + k.replace("_", "-") for k in unread))
    _SUITES[name](report, report.params, ctx or CliContext())
    return report


# -- sub-commands -----------------------------------------------------------------


def _require_n(args) -> int:
    if args.n is None:
        raise UsageError("--n is required here")
    return args.n


def _emit(args, out, lines) -> None:
    """Print ``out`` as indented JSON under ``--json``, else the text
    ``lines``."""
    if args.json:
        print(json.dumps(_jsonable(out), indent=2))
    else:
        for line in lines:
            print(line)


def _table(out: dict, width: int):
    return (f"{k:{width}} {_jsonable(v)}" for k, v in out.items())


def _report_lines(rep: SuiteReport):
    yield f"suite {rep.suite}" + (f"  {rep.params}" if rep.params else "")
    for c in rep.checks:
        mark = "PASS" if c.ok else "FAIL"
        yield (f"  [{mark}] {c.claim}: computed {_fmt(c.computed)},"
               f" expected {_fmt(c.expected)} [{c.provenance}]"
               f" ({c.ms:.0f} ms)")
    yield f"  => {'pass' if rep.passed else 'FAIL'}"


def cmd_elem(args, ctx) -> int:
    n = _require_n(args)
    if len(args.element) not in (1, 2):
        raise UsageError("give one element (inspect) or two (compose)")
    xs = [pinj.parse(t, n) for t in args.element]
    if len(xs) == 1:
        x = xs[0]
        c = pinj.classify(x)
        d = pinj.decompose(x)
        out = {
            "element": pinj.format_element(x),
            "n": n,
            "kind": c.kind,
            "rank": c.rank,
            "nilpotent_index": c.nilpotent_index,
            "full_cycle": c.is_n_cycle,
            "cycles": [list(cy) for cy in d.cycles],
            "chains": [list(ch) for ch in d.chains],
            "inverse": pinj.format_element(x.inverse()),
            "id": pinj.element_id(x),
        }
    else:
        a, b = xs
        ab, ba = pinj.compose(a, b), pinj.compose(b, a)
        agree = commute.commutes_naive(a, b)
        if agree != commute.commutes_structural(a, b):
            raise AssertionError("commutation routes disagree")
        out = {
            "a": pinj.format_element(a),
            "b": pinj.format_element(b),
            "ab": pinj.format_element(ab),
            "ba": pinj.format_element(ba),
            "commute": agree,
        }
    _emit(args, out, _table(out, 16))
    return EXIT_PASS


def cmd_centralizer(args, ctx) -> int:
    n = _require_n(args)
    x = pinj.parse(args.element, n)
    if x.is_permutation():
        order = commute.permutation_centralizer_order(x)
        elems = None
        if args.list:
            if order > CENTRALIZER_LIST_CAP and not ctx.force:
                raise UsageError(
                    f"listing a centralizer of order {order} is guarded to"
                    f" {CENTRALIZER_LIST_CAP} elements; --force lifts the"
                    " guard")
            elems = list(commute.iter_permutation_centralizer(x))
            if len(elems) != order:
                raise AssertionError("stream disagrees with the counting"
                                     " formula")
    else:
        ctx.guard("a general centralizer (it enumerates the whole monoid)",
                  n, GRAPH_NS)
        cz = commute.centralizer(x)
        order, elems = len(cz.elements), (list(cz.elements) if args.list
                                          else None)
    out = {"element": pinj.format_element(x), "order": order}
    if elems is not None:
        out["elements"] = sorted(pinj.format_element(e) for e in elems)
    _emit(args, out, [f"centralizer order {order}",
                      *(f"  {t}" for t in out.get("elements", ()))])
    return EXIT_PASS


def cmd_graph(args, ctx) -> int:
    n = _require_n(args)
    g = ctx.graph(n, args.ideal, args.filter)
    info = {"label": g.label, "n": n, "vertices": g.num_vertices,
            "edges": g.num_edges()}
    if g.num_vertices:
        degs = g.degrees()
        info["degree_min"] = int(degs.min())
        info["degree_max"] = int(degs.max())
    if args.diameter:
        res = graphmod.diameter(g)
        info["diameter"] = res.value
        if res.pair is not None and res.value != graphmod.INFINITY:
            a, b = (pinj.element_from_id(n, e) for e in res.pair)
            info["diameter_pair"] = [pinj.format_element(a),
                                     pinj.format_element(b)]
        if res.components is not None:
            info["components"] = len(res.components)
    if args.clique:
        # the lexicographically least maximum clique, which no seed moves
        wit = graphmod.maximum_cliques(g, budget_seconds=ctx.budget_seconds)[0]
        info["clique_number"] = len(wit)
        info["clique"] = [pinj.format_element(g.vertex_element(i))
                          for i in wit]
    if args.dot:
        graphmod.export_dot(g, args.dot)
        info["dot"] = args.dot
    if args.csv:
        graphmod.export_edge_csv(g, args.csv)
        info["csv"] = args.csv
    if args.save:
        graphmod.save_packed(g, args.save)
        info["saved"] = args.save
    _emit(args, info, _table(info, 14))
    return EXIT_PASS


def cmd_extremal(args, ctx) -> int:
    n = _require_n(args)
    rep = ctx.extremal(n)
    out = {"n": n, "max_order": rep.max_order, "count": rep.count,
           "elapsed_s": round(rep.elapsed_s, 3)}
    lines = [f"n={n}: maximum commutative nilpotent order {rep.max_order},"
             f" {rep.count} witnesses ({rep.elapsed_s:.1f}s)"]
    if args.list:
        out["witnesses"] = [w.serialize().splitlines() for w in rep.witnesses]
        lines += ["  " + " ".join(pinj.format_element(e) for e in w.elements)
                  for w in rep.witnesses]
    _emit(args, out, lines)
    return EXIT_PASS


def cmd_witness(args, ctx) -> int:
    n = _require_n(args)
    if args.pair == "extremal":
        a, b = witnesses.extremal_nilpotent_pair(n)
    elif args.pair == "ideal":
        if args.ideal is None:
            raise UsageError("--pair ideal needs --ideal r")
        a, b = witnesses.ideal_witness_pair(n, args.ideal)
    elif args.pair == "prime-power":
        ctx.guard("the prime-power pair", n, DISTANCE5_NS)
        a, b = witnesses.prime_power_pair(*witnesses._factor_odd_prime_power(n))
    elif args.idempotent:
        if len(args.element) != 1:
            raise UsageError("--idempotent takes exactly one element")
        x = pinj.parse(args.element[0], n)
        eps = pinj.format_element(witnesses.commuting_idempotent(x))
        _emit(args, {"element": pinj.format_element(x), "idempotent": eps},
              [eps])
        return EXIT_PASS
    elif len(args.element) == 2:
        a, b = (pinj.parse(t, n) for t in args.element)
        w = witnesses.build_path(a, b)
        vertices = [pinj.format_element(v) for v in w.vertices]
        _emit(args, {"length": w.length, "vertices": vertices},
              [f"length {w.length}", *(f"  {v}" for v in vertices)])
        return EXIT_PASS
    else:
        raise UsageError("give two elements for a path, --idempotent with"
                         " one element, or --pair"
                         " {extremal,ideal,prime-power}")
    out = {"a": pinj.format_element(a), "b": pinj.format_element(b)}
    _emit(args, out, out.values())
    return EXIT_PASS


def cmd_verify(args, ctx) -> int:
    params = {k: getattr(args, k) for k in ("n", "max_n", "samples", "seed")
              if getattr(args, k, None) is not None}
    if args.suite == "all":
        runs = [(nm, {k: v for k, v in params.items()
                      if k in SUITE_PARAMS[nm]}) for nm in SUITE_ORDER]
    else:
        runs = [(args.suite, params)]
    reports = [run_suite(nm, p, ctx) for nm, p in runs]
    payload = ([r.to_dict() for r in reports] if args.suite == "all"
               else reports[0].to_dict())
    _emit(args, payload, (line for r in reports for line in _report_lines(r)))
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def cmd_search_open(args, ctx) -> int:
    n = _require_n(args)
    rep = witnesses.search_open(n, samples=args.samples, seed=args.seed)
    hist = {str(_jsonable(k)): v for k, v in sorted(rep.histogram.items(),
                                                    key=lambda kv: str(kv[0]))}
    out = {"n": n, "samples": rep.samples, "seed": rep.seed,
           "histogram": hist}
    _emit(args, out, [f"n={n}, {rep.samples} sampled full-cycle pairs"
                      f" (seed {rep.seed})",
                      *(f"  distance {k}: {v}" for k, v in hist.items())])
    return EXIT_PASS


def _option(*names, **kw) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kw)
    return p


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None,
                        help="ground set size")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    ideal = _option("--ideal", type=int, default=None, metavar="R",
                    help="restrict to the ideal of rank at most R")
    budget = _option("--budget-seconds", type=float, default=None,
                     help="one deadline for the whole clique search (the"
                          " clique number, then any maximum-clique"
                          " enumeration), not the graph build; exit 3 on"
                          " overrun, no checkpoint kept")
    cache = _option("--cache-dir", default=None,
                    help="directory for packed graph caches")
    force = _option("--force", action="store_true",
                    help="lift runtime guards (slow, never wrong)")

    ap = argparse.ArgumentParser(
        prog="invsemi",
        description="Partial injective transformations: normal forms,"
                    " commutation, extremal subsemigroups, commuting"
                    " graphs.")
    ap.set_defaults(budget_seconds=None, cache_dir=None, force=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elem", parents=[common],
                       help="parse, classify, decompose, compose")
    p.add_argument("element", nargs="+",
                   help="element text, e.g. '(1 2)|[3 4]'")
    p.set_defaults(func=cmd_elem)

    p = sub.add_parser("centralizer", parents=[common, force],
                       help="centralizer order (and elements)")
    p.add_argument("element")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_centralizer)

    p = sub.add_parser("graph", parents=[common, ideal, budget, cache, force],
                       help="build a commuting graph; stats and exports")
    p.add_argument("--filter", default="all", choices=tuple(FILTER_CENTERS))
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--clique", action="store_true")
    p.add_argument("--dot", default=None, metavar="FILE")
    p.add_argument("--csv", default=None, metavar="FILE")
    p.add_argument("--save", default=None, metavar="FILE",
                   help="write the packed binary cache")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("extremal", parents=[common, budget, force],
                       help="maximum commutative nilpotent subsemigroups")
    p.add_argument("--list", action="store_true",
                   help="print every witness")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("witness", parents=[common, ideal, force],
                       help="explicit pairs and commuting paths")
    p.add_argument("element", nargs="*")
    p.add_argument("--idempotent", action="store_true",
                   help="emit a commuting idempotent for one element")
    p.add_argument("--pair", default=None,
                   choices=("extremal", "ideal", "prime-power"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", parents=[common, budget, cache, force],
                       help="run a verification suite")
    p.add_argument("suite", choices=SUITE_ORDER + ("all",))
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-open", parents=[common],
                       help="sample full-cycle pairs and report exact"
                            " distances")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search_open)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    ctx = CliContext(budget_seconds=args.budget_seconds,
                     cache_dir=args.cache_dir, force=args.force)
    try:
        return args.func(args, ctx)
    except graphmod.BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, pinj.ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
