import itertools
import math
import random
import time
import tracemalloc
from collections import deque

import pytest

from invsemi import _bulk, commute, graph as gm, witnesses as wit
from invsemi.pinj import (PInj, UNDEF, classify, decompose, element_from_id,
                          format_element, join, monoid_order, parse, power)

from helpers import (oracle_commutes, oracle_decode,
                     oracle_full_cycle_distance,
                     oracle_permutation_centralizer, perfect_matchings)


def noncentral_elements(n):
    zero, ident = PInj.zero(n), PInj.identity(n)
    return [e for e in (element_from_id(n, i) for i in range(monoid_order(n)))
            if e not in (zero, ident)]


def all_pairs_distances(g):
    """BFS distance matrix over a CommutingGraph, as a list of lists."""
    rows = g.rows()
    nv = g.num_vertices
    out = []
    for src in range(nv):
        dist = [-1] * nv
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            row = rows[u]
            while row:
                low = row & -row
                v = low.bit_length() - 1
                row ^= low
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        out.append(dist)
    return out


# -- idempotent neighbors ----------------------------------------------------------


@pytest.mark.parametrize("n,want_refusals", [(4, 32), (5, 146)])
def test_commuting_idempotent_exhaustive(n, want_refusals):
    refused = 0
    for e in (element_from_id(n, i) for i in range(monoid_order(n))):
        c = classify(e)
        try:
            eps = wit.commuting_idempotent(e)
        except ValueError:
            refused += 1
            assert (c.kind in ("zero", "identity") or c.is_n_cycle
                    or (c.kind == "nilpotent" and c.nilpotent_index == n))
            continue
        assert eps.is_idempotent()
        assert not eps.is_zero() and not eps.is_identity()
        assert eps.rank <= e.rank
        assert commute.commutes_naive(e, eps)
    assert refused == want_refusals


# -- explicit routes ---------------------------------------------------------------


def test_build_path_rejects_small_and_central():
    a3, b3 = PInj.chain(3, (0, 1)), PInj.chain(3, (1, 2))
    with pytest.raises(ValueError):
        wit.build_path(a3, b3)
    a, b = PInj.chain(4, (0, 1)), PInj.chain(4, (1, 2))
    with pytest.raises(ValueError):
        wit.build_path(PInj.zero(4), b)
    with pytest.raises(ValueError):
        wit.build_path(a, PInj.identity(4))
    with pytest.raises(ValueError):
        wit.build_path(a, PInj.chain(5, (0, 1)))


def test_build_path_exhaustive_n4(full_graphs):
    g = full_graphs(4)
    dists = all_pairs_distances(g)
    els = noncentral_elements(4)
    assert len(els) == g.num_vertices
    zero, ident = PInj.zero(4), PInj.identity(4)
    worst = 0
    checked = 0
    for a, b in itertools.combinations(els, 2):
        path = wit.build_path(a, b)
        path.validate(excluded=(zero, ident))
        assert path.vertices[0] == a and path.vertices[-1] == b
        d = dists[g.index_of(a)][g.index_of(b)]
        assert 0 < d <= path.length <= 4
        worst = max(worst, path.length)
        checked += 1
    assert checked == 21321
    assert worst == 4


def test_build_path_prime_ground_refusals():
    # On five points a full cycle commutes only with its own powers, so any
    # route out of that clique must be refused, not fabricated.
    cyc = PInj.cycle(5, (0, 1, 2, 3, 4))
    other = PInj.cycle(5, (0, 2, 1, 3, 4))
    assert not commute.commutes_naive(cyc, other)
    for a, b in ((cyc, other), (cyc, PInj.chain(5, (0, 1))),
                 (PInj.chain(5, (0, 1)), cyc)):
        with pytest.raises(ValueError):
            wit.build_path(a, b)
    # Commuting pairs still route directly even on a prime ground set.
    assert wit.build_path(cyc, power(cyc, 2)).length == 1
    # Non-cycle pairs are unaffected by primality.
    p = wit.build_path(PInj.chain(5, range(5)), PInj.chain(5, (4, 3, 2, 1, 0)))
    p.validate(excluded=(PInj.zero(5), PInj.identity(5)))
    assert p.length == 4


def test_build_path_sampled_n6(full_graphs):
    g = full_graphs(6)
    els = noncentral_elements(6)
    zero, ident = PInj.zero(6), PInj.identity(6)
    rng = random.Random(20260819)
    for _ in range(250):
        a, b = rng.sample(els, 2)
        path = wit.build_path(a, b)
        path.validate(excluded=(zero, ident))
        assert path.vertices[0] == a and path.vertices[-1] == b
        d = gm.distance(g, a, b).value
        assert d <= path.length <= 4


def test_build_path_trivial_cases():
    a = PInj.cycle(4, (0, 1, 2, 3))
    assert wit.build_path(a, a).vertices == (a,)
    sq = power(a, 2)
    assert wit.build_path(a, sq).length == 1


# -- aligned middles ---------------------------------------------------------------


def test_align_middle_all_disjoint_involution_pairs():
    joins = [join(6, cycles=m) for m in perfect_matchings(tuple(range(6)))]
    assert len(joins) == 15
    tested = 0
    for g, d in itertools.combinations(joins, 2):
        pg = {frozenset(c) for c in decompose(g).cycles}
        pd = {frozenset(c) for c in decompose(d).cycles}
        if pg & pd:
            with pytest.raises(ValueError):
                wit.align_middle(g, d)
            continue
        eta = wit.align_middle(g, d)
        assert commute.commutes_naive(eta, g)
        assert commute.commutes_naive(eta, d)
        assert not eta.is_zero() and not eta.is_identity()
        tested += 1
    assert tested == 60


def test_align_middle_rejections():
    g = join(6, cycles=((0, 1), (2, 3), (4, 5)))
    with pytest.raises(ValueError):
        wit.align_middle(g, join(6, cycles=((0, 1, 2), (3, 4, 5))))
    with pytest.raises(ValueError):
        wit.align_middle(g, join(6, cycles=((0, 2), (1, 3))))  # smaller span
    with pytest.raises(ValueError):
        wit.align_middle(g, g)  # every 2-cycle shared


# -- distinguished pairs -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_extremal_nilpotent_pair_distance(n, ideal_graphs):
    a, b = wit.extremal_nilpotent_pair(n)
    for e in (a, b):
        c = classify(e)
        assert c.kind == "nilpotent" and c.rank == n - 1
    g = ideal_graphs(n, n - 1)
    assert gm.distance(g, a, b).value == 4


def test_extremal_nilpotent_pair_guard():
    with pytest.raises(ValueError):
        wit.extremal_nilpotent_pair(1)


def test_ideal_witness_pair(ideal_graphs):
    a, b = wit.ideal_witness_pair(5, 3)
    g = ideal_graphs(5, 3)
    assert gm.distance(g, a, b).value == 3
    for bad in ((6, 2), (6, 5), (5, 4), (5, 2)):
        with pytest.raises(ValueError):
            wit.ideal_witness_pair(*bad)


def test_cycle_join_root():
    xi = join(6, cycles=((0, 1, 2), (3, 4, 5)))
    root = wit.cycle_join_root(xi)
    assert classify(root).is_n_cycle
    assert power(root, 2) == xi
    tri = join(6, cycles=((0, 1), (2, 3), (4, 5)))
    assert power(wit.cycle_join_root(tri), 3) == tri
    with pytest.raises(ValueError):
        wit.cycle_join_root(PInj.chain(4, (0, 1)))
    with pytest.raises(ValueError):
        wit.cycle_join_root(join(5, cycles=((0, 1, 2), (3, 4))))
    with pytest.raises(ValueError):
        wit.cycle_join_root(join(6, cycles=((0, 1, 2),)))


def test_prime_power_pair():
    alpha, beta = wit.prime_power_pair(3, 2)
    assert alpha == PInj.cycle(9, (0, 1, 2, 3, 4, 7, 6, 5, 8))
    assert beta == PInj.cycle(9, (0, 3, 6, 1, 4, 7, 2, 5, 8))
    for p, k in ((5, 2), (3, 3)):
        a, b = wit.prime_power_pair(p, k)
        assert a.n == b.n == p ** k
        assert classify(a).is_n_cycle and classify(b).is_n_cycle
        assert a != b
        assert not commute.commutes_naive(a, b)
    for p, k in ((2, 2), (9, 2), (3, 1), (1, 2)):
        with pytest.raises(ValueError):
            wit.prime_power_pair(p, k)


# -- distance-five certification ---------------------------------------------------


def test_centralizer_meet_matches_oracle():
    # every permutation of 5 points against random elements of I(5),
    # partial ones included, and the cube of a 9-cycle against the other
    # cycle's cube
    rng = random.Random(5)
    pairs = [(x, element_from_id(5, rng.randrange(monoid_order(5))))
             for x in noncentral_elements(5) if x.is_permutation()]
    alpha, beta = wit.prime_power_pair(3, 2)
    pairs.append((power(alpha, 3), power(beta, 3)))
    pairs.append((power(alpha, 3), PInj.chain(9, (0, 1, 2))))
    hits = 0
    for x, y in pairs:
        (survivors,), rows = wit._centralizer_meet(x, [y])
        expect = [g for g in oracle_permutation_centralizer(x)
                  if oracle_commutes(g, y)]
        assert len(survivors) == len(set(survivors))
        assert set(survivors) == set(expect)
        assert rows == commute.permutation_centralizer_order(x)
        hits += len(survivors) > 1
    assert hits > 20


def test_joint_centralizer_matches_streaming_n15():
    # divisor-power pairs of random 15-cycle pairs, and of a cycle and its
    # square, whose joint centralizer is the 15-cycle's powers and zero
    rng = random.Random(15)
    a = PInj.cycle(15, rng.sample(range(15), 15))
    pairs = [(a, power(a, 2))]
    pairs += [tuple(PInj.cycle(15, rng.sample(range(15), 15))
                    for _ in range(2)) for _ in range(8)]
    sizes = []
    for a, b in pairs:
        for dm in (3, 5):
            for dk in (3, 5):
                ga, gb = power(a, dm), power(b, dk)
                if len(commute.overlap_classes(ga, gb)) != 1:
                    continue
                joint = commute.permutation_joint_centralizer(ga, gb)
                (streamed,), rows = wit._centralizer_meet(ga, [gb])
                assert set(joint) == set(streamed)
                assert rows == commute.permutation_centralizer_order(ga)
                sizes.append(len(joint))
    assert sizes.count(16) == 2 and len(sizes) > 2


@pytest.mark.parametrize("n", [9, 15, 21])
def test_pair_distance_matches_full_grid_oracle(n):
    # 200 random pairs, plus a cycle with its square (distance 1) and with
    # another cube root of its cube (distance 2): the three cycles of the
    # cube threaded with the second one turned by a step
    rng = random.Random(n)
    pairs = [tuple(PInj.cycle(n, rng.sample(range(n), n)) for _ in range(2))
             for _ in range(200)]
    a = pairs[0][0]
    cyc = decompose(power(a, 3)).cycles
    root = PInj.cycle(n, [c[(t + j % 2) % len(c)]
                          for t in range(n // 3) for j, c in enumerate(cyc)])
    assert power(root, 3) == power(a, 3)
    pairs += [(a, power(a, 2)), (a, root)]
    hist = {}
    for a, b in pairs:
        dist = wit._full_cycle_pair_distance(a, b)
        assert dist == oracle_full_cycle_distance(a, b)
        hist[dist] = hist.get(dist, 0) + 1
    assert {1, 2, 4, 5} <= set(hist) and (n != 9 or 3 in hist)


def test_verify_distance5_nine_points():
    rep = wit.verify_distance5(9)
    assert rep.passed and rep.distance == 5
    assert (rep.n, rep.p, rep.k) == (9, 3, 2)
    assert rep.centralizer_order == 352
    assert len(rep.checks) == 10
    assert rep.path.length == 5
    assert rep.path.vertices[0] == rep.alpha
    assert rep.path.vertices[-1] == rep.beta
    rep.path.validate(excluded=(PInj.zero(9), PInj.identity(9)))


def checked_decode(monkeypatch) -> list:
    """Make every ``_bulk.decode`` call also run ``oracle_decode`` and
    demand the same bytes; returns the list of decoded row counts."""
    real, seen = _bulk.decode, []

    def decode(n, parts, idx):
        rows = real(n, parts, idx)
        want = oracle_decode(n, parts, idx)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
        seen.append(len(rows))
        return rows

    monkeypatch.setattr(_bulk, "decode", decode)
    return seen


def pivot_stream_n25():
    """The centralizer of the first cycle's power 5 at n = 25, and the
    second cycle's pivots, as ``verify_distance5(25)`` streams them."""
    alpha, beta = wit.prime_power_pair(5, 2)
    return power(alpha, 5), wit._powers(beta)[1].values()


def test_centralizer_stream_n25_matches_fancy_index_oracle(monkeypatch):
    seen = checked_decode(monkeypatch)
    meets, rows = wit._centralizer_meet(*pivot_stream_n25())
    assert rows == sum(seen) == 830_126 and len(seen) == 203
    assert [len(m) for m in meets] == [2]


@pytest.mark.parametrize("certify, n", [(wit.verify_distance5, 9),
                                        (wit.dolzan_distance_check, 10)])
def test_streamed_pivots_match_fancy_index_oracle(monkeypatch, certify, n):
    seen = checked_decode(monkeypatch)
    rep = certify(n)
    assert rep.passed and seen
    streamed = [c[2] for c in rep.checks if c[0].startswith("streaming")]
    assert sum(seen) >= sum(int(d.split()[0]) for d in streamed) > 0


def test_centralizer_stream_n25_memory():
    # each 4,096-row chunk is decoded and tested, then dropped: the traced
    # peak is about 1.1 MB, whatever the stream's length
    x, ys = pivot_stream_n25()
    tracemalloc.start()
    try:
        meets, rows = wit._centralizer_meet(x, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 830_126
    assert peak < 2 << 20


def lossy_stream(monkeypatch):
    # a stream that loses the last row of every chunk
    real = wit.iter_permutation_centralizer_chunks

    def lossy(a):
        for m in real(a):
            yield m[:-1]

    monkeypatch.setattr(wit, "iter_permutation_centralizer_chunks", lossy)


def test_verify_distance5_counts_streamed_rows(monkeypatch):
    # a lossy stream still finds the joint centralizer, so only the row
    # count can catch it
    lossy_stream(monkeypatch)
    rep = wit.verify_distance5(9)
    label, ok, detail = next(c for c in rep.checks
                             if c[0].startswith("streaming the full"))
    assert not ok and not rep.passed
    assert detail == "351 of 352 candidates streamed"


def test_dolzan_distance_check_counts_streamed_rows(monkeypatch):
    lossy_stream(monkeypatch)
    rep = wit.dolzan_distance_check(10)
    streamed = [c for c in rep.checks
                if c[0].startswith("streaming the full centralizer")]
    assert streamed and not rep.passed
    for label, ok, detail in streamed:
        rows, order = map(int, detail.split(" candidates")[0].split(" of "))
        assert not ok and rows < order


def test_verify_distance5_rejections():
    alpha, beta = wit.prime_power_pair(3, 2)
    with pytest.raises(ValueError):
        wit.verify_distance5(9, pair=(alpha, alpha))
    small = PInj.cycle(8, range(8)), PInj.cycle(8, (0, 2, 4, 6, 1, 3, 5, 7))
    with pytest.raises(ValueError):
        wit.verify_distance5(9, pair=small)
    for n in (8, 15, 3, 12):
        with pytest.raises(ValueError):
            wit.verify_distance5(n)


def test_certificate_rejects_closer_pairs():
    # full cycles on nine points at distances 1 to 4: a cycle with its
    # square, with another cube root of its cube, and the first search
    # hits at distances 3 and 4
    a, _ = wit.prime_power_pair(3, 2)
    cyc = decompose(power(a, 3)).cycles
    root = PInj.cycle(9, [c[(t + j % 2) % 3]
                          for t in range(3) for j, c in enumerate(cyc)])
    pairs = [(a, power(a, 2)), (a, root)]
    hits = wit.search_open(9, samples=200, seed=0).pairs
    pairs += [next((parse(sa, 9), parse(sb, 9)) for sa, sb, d in hits
                   if d == dist) for dist in (3, 4)]
    for dist, (a, b) in enumerate(pairs, 1):
        assert oracle_full_cycle_distance(a, b) == dist
        rep = wit.verify_distance5(9, pair=(a, b))
        assert not rep.passed and rep.distance is None
        engine = wit._far_pair_checks(wit._powers(a), wit._powers(b))
        label, _, _, failed_at = next(c for c in engine if not c[1])
        assert failed_at == dist
        assert next(c for c in rep.checks if not c[1])[0] == label


# -- cycle actions -----------------------------------------------------------------


def test_cycle_action_map_exhaustive_n4():
    perms = [e for e in noncentral_elements(4) if e.is_permutation()]
    assert len(perms) == 23  # 4! minus the identity
    for alpha in perms:
        for gamma in commute.centralizer(alpha):
            act = wit.cycle_action_map(alpha, gamma)
            assert act.injective
            dom_cycles = set(act.mapping)
            hit = {i for i, c in enumerate(act.cycles)
                   if any(gamma(x) != UNDEF for x in c)}
            assert dom_cycles == hit
            for i, j in act.mapping.items():
                assert len(act.cycles[i]) == len(act.cycles[j])


def test_cycle_action_map_rejections():
    alpha = join(4, cycles=((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        wit.cycle_action_map(PInj.chain(4, (0, 1)), alpha)
    noncomm = PInj.cycle(4, (0, 1, 2))
    assert not commute.commutes_naive(alpha, noncomm)
    with pytest.raises(ValueError):
        wit.cycle_action_map(alpha, noncomm)


# -- symmetric-group side ----------------------------------------------------------


def test_sym_counterexample():
    rep = wit.sym_counterexample()
    assert rep.passed and rep.n == 10
    assert len(rep.checks) == 5
    assert all(e.is_permutation() for e in rep.elements)


def test_dolzan_distance_check():
    rep = wit.dolzan_distance_check(10)
    assert rep.passed
    # 2 neighborhoods, 3 power checks, divisor pairs (2,3) and (5,3), and
    # streams of the 2nd and 5th powers
    assert len(rep.checks) == 9
    for n in (11, 17, 3, 2, 33):
        with pytest.raises(ValueError):
            wit.dolzan_distance_check(n)


@pytest.mark.parametrize("n", [9, 10, 15, 16, 21, 22, 25, 26, 27, 28])
def test_dolzan_distance_check_range(n):
    # every n up to the ground cap with n and n-1 composite; n=16 must not
    # stream the 101,817,089-row centralizer of its 8th power
    t0 = time.perf_counter()
    rep = wit.dolzan_distance_check(n)
    assert rep.passed and rep.n == n
    assert n != 16 or time.perf_counter() - t0 < 1.0


# -- sampling ----------------------------------------------------------------------


def test_search_open_deterministic_and_correct(full_graphs):
    r1 = wit.search_open(6, samples=60, seed=7)
    r2 = wit.search_open(6, samples=60, seed=7)
    assert r1.histogram == r2.histogram and r1.pairs == r2.pairs
    assert sum(r1.histogram.values()) == 60
    assert set(r1.histogram) <= {0, 1, 2, 3, 4}
    assert r1.max_distance <= 4
    g = full_graphs(6)
    for sa, sb, d in r1.pairs[:12]:
        a, b = parse(sa, 6), parse(sb, 6)
        assert gm.distance(g, a, b).value == d


def test_search_open_prime_ground():
    rep = wit.search_open(5, samples=40, seed=3)
    assert set(rep.histogram) <= {0, 1, math.inf}
    assert math.inf in rep.histogram


def test_search_open_rejects_small_ground_and_negative_samples():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n >= 2"):
            wit.search_open(n, samples=3)
    with pytest.raises(ValueError, match="samples >= 0"):
        wit.search_open(4, samples=-2)
    for n in (2, 3):
        assert wit.search_open(n, samples=5).histogram == {0: 5}
    assert wit.search_open(4, samples=0).histogram == {}
