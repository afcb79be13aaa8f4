"""End-to-end checks of every headline quantity the package computes.

Each test pins one deliverable: the null-semigroup order table, the
displayed seven-element example, extremal search results, clique numbers
and their uniqueness, ideal and full diameters, the distance-five
certificates, the worst-case nilpotent pairs, the symmetric-group gap
checks, and the always-on property batteries.  Stated time budgets are
asserted, not aspirational.
"""

import itertools
import math
import random
import time

import pytest

from invsemi import commute, construct, graph as gm, witnesses as wit
from invsemi.pinj import (PInj, classify, decompose, element_from_id,
                          format_element, join, monoid_order, power)

LAMBDA_REFERENCE = {2: 2, 3: 3, 4: 7, 5: 13, 6: 34, 7: 73, 8: 209, 9: 501,
                    10: 1546, 11: 4051}
EXTREMAL_ORDER = {4: 7, 5: 13, 6: 34, 7: 73}
EXTREMAL_COUNT = {4: 6, 5: 20, 6: 20, 7: 70}

DISPLAYED_SEVEN = {"0", "[1 3]", "[1 4]", "[2 3]", "[2 4]",
                   "[1 3]|[2 4]", "[1 4]|[2 3]"}


def timed():
    return time.perf_counter()


def expected_ideal_diameter(n, r):
    if r == n - 1:
        return 4
    return 3 if r > (n - 1) // 2 else 2


def proper_idempotents(n):
    return [e for e in construct.enumerate_elements(n)
            if e.is_idempotent() and not e.is_zero() and not e.is_identity()]


def random_noncentral(rng, n):
    zero, ident = PInj.zero(n), PInj.identity(n)
    while True:
        e = element_from_id(n, rng.randrange(monoid_order(n)))
        if e not in (zero, ident):
            return e


def test_c01_lambda_table_by_both_routes():
    t0 = timed()
    closed_form = {m: construct.balanced_null_order(m) for m in range(2, 12)}
    lam = {2: len(construct.null_semigroup((0,), (1,))),
           3: len(construct.null_semigroup((0, 1), (2,)))}
    for m in range(4, 12):
        lam[m] = lam[m - 1] + (m // 2) * lam[m - 2]
    assert closed_form == LAMBDA_REFERENCE
    assert lam == LAMBDA_REFERENCE
    assert timed() - t0 < 1.0


def test_c02_displayed_seven_element_null_semigroup():
    t0 = timed()
    s = construct.null_semigroup((0, 1), (2, 3))
    assert {format_element(e) for e in s} == DISPLAYED_SEVEN
    assert len(s) == 7
    assert s.is_null() and s.is_commutative() and s.is_closed()
    assert timed() - t0 < 1.0


@pytest.mark.parametrize("ns,budget", [((4, 5, 6), 120.0), ((7,), 1800.0)])
def test_c03_extremal_nilpotent_search(ns, budget):
    t0 = timed()
    for n in ns:
        rep = construct.max_commutative_nilpotent(n)
        assert rep.max_order == EXTREMAL_ORDER[n]
        assert rep.count == EXTREMAL_COUNT[n]
        balanced = {frozenset(s.ids)
                    for s in construct.balanced_null_semigroups(n)}
        assert {frozenset(w.ids) for w in rep.witnesses} == balanced
        for w in rep.witnesses:
            assert w.is_null() and w.is_commutative() and w.is_closed()
    assert timed() - t0 < budget


def test_c04_clique_numbers_and_uniqueness(full_graphs):
    t0 = timed()
    for n in (3, 4, 5):
        g = full_graphs(n)
        target = 2 ** n - 2
        size, witness = gm.clique_number(g)
        assert size == target
        idem = proper_idempotents(n)
        assert len(idem) == target
        idem_idx = frozenset(g.index_of(e) for e in idem)
        for a, b in itertools.combinations(sorted(idem_idx), 2):
            assert g.adjacent(a, b)
        zero, ident = PInj.zero(n), PInj.identity(n)
        closed = []
        cliques = gm.maximum_cliques(g)
        assert {len(c) for c in cliques} == {target}
        for clique in cliques:
            els = [g.vertex_element(i) for i in clique]
            s = construct.SemigroupSet.from_elements(n, els + [zero, ident])
            if s.is_closed():
                closed.append(frozenset(clique))
        assert closed == [idem_idx]
    assert timed() - t0 < 300.0


@pytest.mark.parametrize("ns,budget", [((3, 4, 5), 60.0), ((6,), 600.0)])
def test_c05_ideal_diameters(ns, budget, ideal_graphs):
    t0 = timed()
    for n in ns:
        for r in range(1, n):
            got = gm.diameter(ideal_graphs(n, r)).value
            assert got == expected_ideal_diameter(n, r), (n, r)
    assert timed() - t0 < budget


def test_c06_full_graph_diameters(full_graphs):
    t0 = timed()
    assert gm.diameter(full_graphs(4)).value == 4
    for n in (3, 5):
        res = gm.diameter(full_graphs(n))
        assert res.value == gm.INFINITY
        assert res.components is not None and len(res.components) > 1
    assert gm.diameter(full_graphs(6)).value == 4
    assert timed() - t0 < 600.0


def test_c07a_distance5_certificate_nine_points():
    t0 = timed()
    rep = wit.verify_distance5(9)
    assert rep.passed and rep.distance == 5
    assert rep.centralizer_order == 352
    claims = {c[0]: c[1] for c in rep.checks}
    assert claims["the first's power 3 and the second's power 3 generate a"
                  " transitive group centralized only by zero and the"
                  " identity"]
    assert any(ok for claim, ok in claims.items()
               if claim.startswith("streaming the full centralizer"))
    assert any(ok for claim, ok in claims.items()
               if claim.startswith("no proper power of one commutes"))
    assert rep.path.length == 5
    rep.path.validate(excluded=(PInj.zero(9), PInj.identity(9)))
    assert timed() - t0 < 120.0


def test_c07b_distance5_certificate_twenty_five_points():
    t0 = timed()
    rep = wit.verify_distance5(25)
    assert rep.passed and rep.distance == 5
    claims = {c[0]: c[1] for c in rep.checks}
    assert claims["the first's power 5 and the second's power 5 generate a"
                  " transitive group centralized only by zero and the"
                  " identity"]
    assert timed() - t0 < 600.0


def test_c08_worst_case_nilpotent_pairs(ideal_graphs):
    t0 = timed()
    for n in (3, 4, 5, 6):
        a, b = wit.extremal_nilpotent_pair(n)
        assert gm.distance(ideal_graphs(n, n - 1), a, b).value == 4
    assert timed() - t0 < 600.0


def test_c09_symmetric_group_gap():
    t0 = timed()
    rep = wit.sym_counterexample()
    assert rep.passed
    rep10 = wit.dolzan_distance_check(10)
    assert rep10.passed
    assert timed() - t0 < 300.0


def test_c10a_commutation_routes_agree():
    for n in (1, 2, 3, 4):
        els = list(construct.enumerate_elements(n))
        for a in els:
            chk = commute.CommuteChecker(a)
            for b in els:
                assert chk.commutes(b) == commute.commutes_naive(a, b)
    rng = random.Random(99)
    for n in range(5, 11):
        for _ in range(16667):
            a = element_from_id(n, rng.randrange(monoid_order(n)))
            b = element_from_id(n, rng.randrange(monoid_order(n)))
            assert (commute.commutes_structural(a, b)
                    == commute.commutes_naive(a, b))


def test_c10b_decomposition_round_trip_and_canonicity():
    for n in (1, 2, 3, 4):
        for e in construct.enumerate_elements(n):
            d = decompose(e)
            assert join(n, d.cycles, d.chains) == e
            rolled = tuple(c[1:] + c[:1] for c in reversed(d.cycles))
            again = decompose(join(n, rolled, tuple(reversed(d.chains))))
            assert (again.cycles, again.chains) == (d.cycles, d.chains)


def test_c10c_commuting_mates_preserve_image_and_domain():
    from invsemi.pinj import UNDEF
    for n in (2, 3, 4):
        els = list(construct.enumerate_elements(n))
        for a in els:
            chk = commute.CommuteChecker(a)
            ima, dom = set(a.ima()), set(a.dom())
            for b in els:
                if not chk.commutes(b):
                    continue
                binv = b.inverse()
                assert all(b(x) == UNDEF or b(x) in ima for x in ima)
                assert all(binv(y) == UNDEF or binv(y) in dom for y in dom)


def test_c10d_centralizer_characterizations():
    for n in (2, 3, 4, 5):
        zero, ident = PInj.zero(n), PInj.identity(n)
        for tail in itertools.permutations(range(1, n)):
            a = PInj.cycle(n, (0,) + tail)
            expect = {zero} | {power(a, q) for q in range(1, n + 1)}
            assert set(commute.centralizer(a).elements) == expect
        for seq in itertools.permutations(range(n)):
            a = PInj.chain(n, seq)
            expect = {zero, ident} | {power(a, q) for q in range(1, n)}
            assert set(commute.centralizer(a).elements) == expect


def test_c10e_order_inequalities_exact_to_forty():
    lam = {1: 1, 2: 2}
    for m in range(3, 41):
        lam[m] = lam[m - 1] + (m // 2) * lam[m - 2]
    assert all(lam[m] == construct.balanced_null_order(m)
               for m in range(1, 41))
    assert all(lam[m] > 2 * lam[m - 1] for m in range(6, 41))
    assert all(lam[m] + 1 > 2 * (lam[m - 1] + 1) for m in range(11, 41))
    assert all(lam[m] + 1 > (lam[k] + 1) * (lam[m - k] + 1)
               for m in range(20, 41) for k in range(10, m - 9))

    def split_order(a, b):
        return sum(math.comb(a, r) * math.comb(b, r) * math.factorial(r)
                   for r in range(min(a, b) + 1))

    for m in range(2, 41):
        vals = [split_order(a, m - a) for a in range(m // 2 + 1)]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def test_c10f_route_validity_with_bfs_cross_check(full_graphs):
    g = full_graphs(6)
    rng = random.Random(777)
    zero, ident = PInj.zero(6), PInj.identity(6)
    for _ in range(10_000):
        a = random_noncentral(rng, 6)
        b = random_noncentral(rng, 6)
        if a == b:
            continue
        path = wit.build_path(a, b)
        path.validate(excluded=(zero, ident))
        assert path.vertices[0] == a and path.vertices[-1] == b
        d = gm.distance(g, a, b).value
        assert d <= path.length <= 4
