import itertools
import math
import random
import tracemalloc
from dataclasses import astuple

import pytest

from invsemi import construct, graph as gm
from invsemi._bulk import _filter_mask, elements_matrix, iter_matrix_chunks
from invsemi.construct import (SemigroupFlags, SemigroupSet,
                               balanced_null_order,
                               balanced_null_semigroups, classify_semigroup,
                               closure, count_elements, enumerate_elements,
                               idempotent_semilattice,
                               max_commutative_nilpotent, null_semigroup)
from invsemi.pinj import (PInj, UNDEF, element_from_id, element_id,
                          format_element, monoid_order, power)

from helpers import (oracle_idempotent_semilattice,
                     oracle_max_commutative_nilpotent, oracle_semigroup_flags)

LAMBDA = {1: 1, 2: 2, 3: 3, 4: 7, 5: 13, 6: 34, 7: 73, 8: 209, 9: 501,
          10: 1546, 11: 4051}


# -- counting ----------------------------------------------------------------------


def test_balanced_null_order_table():
    for m, lam in LAMBDA.items():
        assert balanced_null_order(m) == lam


def test_balanced_null_order_recurrence():
    for m in range(4, 30):
        assert balanced_null_order(m) == (balanced_null_order(m - 1)
                                          + (m // 2) * balanced_null_order(m - 2))


def test_balanced_null_order_collapses():
    for m in range(1, 8):
        assert balanced_null_order(2 * m) == monoid_order(m)
    for m in range(1, 8):
        assert balanced_null_order(2 * m - 1) == count_elements(m, "nilpotent")


def test_count_elements_matches_enumeration():
    for n in (1, 2, 3, 4):
        for filt in ("all", "nilpotent", "idempotent", "permutation"):
            got = sum(1 for _ in enumerate_elements(n, filt))
            assert got == count_elements(n, filt)
    assert count_elements(4, "all") == monoid_order(4)
    assert count_elements(4, "idempotent") == 2 ** 4
    assert count_elements(4, "permutation") == math.factorial(4)


def test_enumerate_filters_are_correct():
    from invsemi.pinj import classify
    for filt, pred in (
            ("nilpotent", lambda e: classify(e).kind in ("zero", "nilpotent")),
            ("idempotent", lambda e: e.is_idempotent()),
            ("permutation", lambda e: e.is_permutation())):
        els = list(enumerate_elements(4, filt))
        assert all(pred(e) for e in els)
        assert len(set(els)) == len(els)


def test_enumerate_ascending_ids_match_matrix():
    for n in range(6):
        for filt in ("all", "nilpotent", "idempotent", "permutation"):
            for r in (None, -1, *range(n + 2)):
                got = [element_id(e) for e in enumerate_elements(n, filt, r)]
                ids, _ = elements_matrix(n, filt, r)
                assert got == ids.tolist(), (n, filt, r)
                assert all(a < b for a, b in zip(got, got[1:]))
                assert all(e == element_from_id(n, i) for e, i in
                           zip(enumerate_elements(n, filt, r), got))


def test_idempotents_match_decode_then_filter():
    # the partial identities are built directly, not filtered from I(n)
    for n in range(8):
        for r in (None, -1, *range(n + 2)):
            ids, m = elements_matrix(n, "all", r)
            keep = _filter_mask(m, n, "idempotent")
            got_ids, got = elements_matrix(n, "idempotent", r)
            assert got_ids.dtype == ids.dtype and got.dtype == m.dtype
            assert got_ids.tolist() == ids[keep].tolist(), (n, r)
            assert got.tolist() == m[keep].tolist(), (n, r)


def test_enumerate_rejects_bad_arguments():
    for call in (lambda: enumerate_elements(4, "bogus"),
                 lambda: elements_matrix(4, "bogus"),
                 lambda: iter_matrix_chunks(4, "bogus")):
        with pytest.raises(ValueError, match="unknown filter"):
            call()
    with pytest.raises(ValueError, match="n <= 10"):
        enumerate_elements(11)


def test_enumerate_max_rank():
    for r in range(5):
        els = list(enumerate_elements(4, max_rank=r))
        assert all(e.rank <= r for e in els)
        assert len(els) == sum(math.comb(4, k) ** 2 * math.factorial(k)
                               for k in range(r + 1))


# -- semigroup sets ----------------------------------------------------------------


def test_idempotent_semilattice_matches_oracle():
    for n in range(10):
        got, want = idempotent_semilattice(n), oracle_idempotent_semilattice(n)
        assert got.ids == want.ids and len(got.ids) == 2 ** n
        assert got.elements == want.elements


def test_semigroup_set_flags():
    skl = null_semigroup((0, 1), (2, 3))
    flags = classify_semigroup(skl)
    assert flags.order == 7 and flags.closed and flags.commutative
    assert flags.null and flags.nilpotent and not flags.semilattice

    idem = idempotent_semilattice(3)
    f2 = classify_semigroup(idem)
    assert f2.order == 8 and f2.closed and f2.commutative
    assert f2.semilattice and f2.inverse and not f2.null

    c = PInj.chain(3, (0, 1, 2))
    cyc = SemigroupSet.from_elements(3, (PInj.zero(3), c, power(c, 2)))
    f3 = classify_semigroup(cyc)
    assert f3.closed and f3.commutative and f3.nilpotent and not f3.null


def test_displayed_null_semigroup_n4():
    got = sorted(format_element(e) for e in null_semigroup((0, 1), (2, 3)))
    assert got == sorted(["0", "[1 3]", "[1 4]", "[2 3]", "[2 4]",
                          "[1 3]|[2 4]", "[1 4]|[2 3]"])


def test_null_semigroup_rejects_overlap():
    with pytest.raises(ValueError):
        null_semigroup((0, 1), (1, 2))


def test_serialize_round_trip():
    skl = null_semigroup((0, 2), (1, 3))
    back = SemigroupSet.deserialize(skl.serialize())
    assert back.ids == skl.ids and back.n == skl.n
    with pytest.raises(ValueError):
        SemigroupSet.deserialize("n=4 order=3\n0\n")


def test_deserialize_names_what_the_header_lacks():
    for text, words in (("order=3\n0\n", "n="), ("n=4\n0\n", "order="),
                        ("", "lacks n= and order=")):
        with pytest.raises(ValueError, match=words):
            SemigroupSet.deserialize(text)


def test_from_elements_dedupes_and_sorts():
    z = PInj.zero(3)
    s = SemigroupSet.from_elements(3, (z, z, PInj.identity(3)))
    assert len(s) == 2
    assert list(s.ids) == sorted(s.ids)


def test_closure_reaches_fixed_point():
    c = PInj.chain(4, (0, 1, 2, 3))
    s = closure([c])
    assert set(s.elements) == {c, power(c, 2), power(c, 3), PInj.zero(4)}
    assert s.is_closed()
    skl = null_semigroup((0, 1), (2, 3))
    assert set(closure(skl.elements).elements) == set(skl.elements)


def test_closure_matches_pairwise_fixed_point(monkeypatch):
    # against a loop that multiplies every ordered pair until nothing new
    # appears; the seed's first round forms each ordered pair once
    calls = []
    real = construct.compose
    monkeypatch.setattr(construct, "compose",
                        lambda a, b: calls.append(1) or real(a, b))
    seeds = ([PInj.cycle(4, (0, 1, 2)), PInj.chain(4, (1, 3))],
             [PInj.chain(5, range(5)), PInj.cycle(5, (0, 2)),
              PInj.chain(5, (4, 1))],
             list(null_semigroup((0, 1), (2, 3)).elements))
    for seed in seeds:
        want = set(seed)
        while True:
            more = want | {real(a, b) for a in want for b in want}
            if more == want:
                break
            want = more
        calls.clear()
        got = closure(seed)
        assert set(got.elements) == want
        if want == set(seed):
            assert len(calls) == len(want) ** 2


def test_closure_size_guard():
    gens = [PInj.cycle(5, range(5)), PInj.chain(5, range(5))]
    with pytest.raises(RuntimeError):
        closure(gens, max_size=50)


# -- balanced null families ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_balanced_null_family(n):
    sgs = list(balanced_null_semigroups(n))
    expect = math.comb(n, n // 2) if n % 2 == 0 else 2 * math.comb(n, n // 2)
    assert len(sgs) == expect
    assert len({tuple(s.ids) for s in sgs}) == expect
    for s in sgs:
        assert len(s) == balanced_null_order(n)
        assert s.is_null()


# -- extremal search ----------------------------------------------------------------


@pytest.mark.parametrize("n,order,count", [(3, 3, 12), (4, 7, 6), (5, 13, 20)])
def test_max_commutative_nilpotent_small(n, order, count):
    rep = max_commutative_nilpotent(n)
    assert rep.max_order == order
    assert rep.count == count
    for w in rep.witnesses:
        assert len(w) == order
        assert w.is_closed() and w.is_commutative()
        flags = classify_semigroup(w)
        assert flags.nilpotent


def test_max_commutative_nilpotent_witnesses_n4():
    rep = max_commutative_nilpotent(4)
    wits = {tuple(w.ids) for w in rep.witnesses}
    nulls = {tuple(s.ids) for s in balanced_null_semigroups(4)}
    assert wits == nulls


def test_max_commutative_nilpotent_witnesses_n3():
    # balanced nulls plus the cyclic chain semigroups {0, c, c^2}
    rep = max_commutative_nilpotent(3)
    wits = {tuple(w.ids) for w in rep.witnesses}
    nulls = {tuple(s.ids) for s in balanced_null_semigroups(3)}
    cyclic = set()
    for perm in itertools.permutations(range(3)):
        c = PInj.chain(3, perm)
        s = SemigroupSet.from_elements(3, (PInj.zero(3), c, power(c, 2)))
        cyclic.add(tuple(s.ids))
    assert len(cyclic) == 6
    assert wits == nulls | cyclic


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_max_commutative_nilpotent_matches_oracle(n):
    rep, want = max_commutative_nilpotent(n), oracle_max_commutative_nilpotent(n)
    assert (rep.max_order, rep.count) == (want.max_order, want.count)
    assert [w.ids for w in rep.witnesses] == [w.ids for w in want.witnesses]
    assert ([w.elements for w in rep.witnesses]
            == [w.elements for w in want.witnesses])
    # each vertex's element is built once and shared by its witnesses
    shared = {}
    for w in rep.witnesses:
        for i, e in zip(w.ids, w.elements):
            assert shared.setdefault(i, e) is e


def conjugate(e, perm):
    """perm·e·perm⁻¹: maps perm(x) to perm(e(x))."""
    img = [UNDEF] * e.n
    for x, y in enumerate(e.img):
        if y != UNDEF:
            img[perm[x]] = perm[y]
    return PInj(e.n, img)


@pytest.mark.parametrize("n,orbits", [(3, 3), (4, 1), (5, 2), (6, 1)])
def test_extremal_closes_one_clique_per_orbit(monkeypatch, n, orbits):
    calls = []
    real = construct.closure
    monkeypatch.setattr(construct, "closure",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    rep = max_commutative_nilpotent(n)
    if n <= 5:
        # each witness's orbit, named by its least conjugate's IDs
        least = {min(tuple(sorted(element_id(conjugate(e, p)) for e in w))
                     for p in itertools.permutations(range(n)))
                 for w in rep.witnesses}
        assert len(least) == orbits
    assert len(calls) == orbits


def test_extremal_guard():
    with pytest.raises(ValueError):
        max_commutative_nilpotent(8)


def test_extremal_cap_is_checked_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the nilpotents of I(8)")

    monkeypatch.setattr(construct, "elements_matrix", refuse, raising=False)
    monkeypatch.setattr(gm, "elements_matrix", refuse)
    with pytest.raises(ValueError, match="exceeds cap"):
        max_commutative_nilpotent(8)


# -- the product table against the pairwise oracle ----------------------------------


def flag_battery():
    """Seeded SemigroupSets covering every flag combination the oracle
    meets: every subset of I(2); 300 random subsets at each of n = 1, 3
    and 4, the empty set first; closures of {a, a⁻¹} at n = 2..4 and of
    {a, b} at n = 2, 3; the balanced null semigroups and idempotent
    semilattices for n = 2..6; and {∅} at n = 0."""
    rng = random.Random(15)
    els2 = list(enumerate_elements(2))
    for r in range(len(els2) + 1):
        for sub in itertools.combinations(els2, r):
            yield SemigroupSet.from_elements(2, sub)
    for n in (1, 3, 4):
        els = list(enumerate_elements(n))
        yield SemigroupSet.from_elements(n, ())
        for _ in range(299):
            yield SemigroupSet.from_elements(
                n, rng.sample(els, rng.randint(1, min(len(els), 12))))
    for n in (2, 3, 4):
        els = list(enumerate_elements(n))
        for _ in range(100):
            a = rng.choice(els)
            yield closure([a, a.inverse()], n)
    for n in (2, 3):
        els = list(enumerate_elements(n))
        for _ in range(150):
            yield closure(rng.sample(els, 2), n)
    for n in range(2, 7):
        yield from balanced_null_semigroups(n)
        yield idempotent_semilattice(n)
    yield SemigroupSet.from_elements(0, (PInj.zero(0),))


def test_flags_match_pairwise_oracle():
    combos, count = set(), 0
    for s in flag_battery():
        want = oracle_semigroup_flags(s)
        assert classify_semigroup(s) == want, s.serialize()
        assert (s.is_closed(), s.is_commutative(), s.is_null()) \
            == (want.closed, want.commutative, want.null)
        combos.add(astuple(want)[1:])
        count += 1
    assert count == 1688
    assert len(combos) == 12


def widened(elements, n, *extra):
    """``elements`` on n points, with the maps ``extra`` added."""
    return SemigroupSet.from_elements(n, [
        PInj(n, e.img + (UNDEF,) * (n - e.n)) for e in elements] +
        [PInj.from_dict(n, m) for m in extra])


def test_flags_across_product_blocks():
    # the table is made 64 rows at a time: sets of two to four blocks,
    # closed or not, with a flag's witness in any block
    rng = random.Random(64)
    i4 = SemigroupSet.from_elements(4, enumerate_elements(4))
    null7 = next(balanced_null_semigroups(7)).elements
    sets = [i4, idempotent_semilattice(7), idempotent_semilattice(8),
            widened(null7, 7), next(balanced_null_semigroups(8)),
            SemigroupSet.from_elements(4, rng.sample(i4.elements, 150)),
            SemigroupSet.from_elements(
                7, idempotent_semilattice(7).elements[1:])]
    assert [len(s) for s in sets] == [209, 128, 256, 73, 209, 150, 127]
    # each flag's only witness outside the first block, or only inside it,
    # on spare points whose products with the rest are the zero map
    sets += [
        # not regular: the chain 8 -> 9 ranks after the 65-row rank-1 ideal
        widened(enumerate_elements(8, max_rank=1), 10, {8: 9}),
        # not commutative: two permutations of 7..10 after the semilattice
        widened(idempotent_semilattice(7).elements, 11,
                {7: 8, 8: 9, 9: 10, 10: 7}, {7: 8, 8: 7, 9: 9, 10: 10}),
        # not null: an idempotent on point 10 among the first rows
        widened(null7, 11, {10: 10})]
    assert [len(s) for s in sets[-3:]] == [66, 130, 74]
    for s in sets:
        assert classify_semigroup(s) == oracle_semigroup_flags(s)


def test_classify_monoid_n5_memory():
    # the table keeps int32 positions and makes products 64 rows at a
    # time: all of I(5), 2.4 M products, peaks near 14 MB traced
    s = SemigroupSet.from_elements(5, enumerate_elements(5))
    tracemalloc.start()
    try:
        flags = classify_semigroup(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    # oracle_semigroup_flags(s) gives the same flags, in about 20 s
    assert flags == SemigroupFlags(1546, closed=True, commutative=False,
                                   null=False, nilpotent=False, inverse=True,
                                   semilattice=False)


def test_flags_above_int64_row_codes():
    # above n = 15 the table looks products up by void row keys; at n = 31
    # base-32 int64 codes would ignore points 13 and up, so partial
    # identities on those points would all look alike
    rng = random.Random(16)
    for n in (16, 23, 31):
        cyc = closure([PInj.cycle(n, range(n))], n)
        chain = closure([PInj.chain(n, range(n))], n)
        mixed = rng.sample(cyc.elements + chain.elements, 20)
        late = [PInj.from_dict(n, {x: x for x in pts})
                for pts in ((13,), (14,), (13, 14))]
        for s in (cyc, chain, SemigroupSet.from_elements(n, mixed),
                  SemigroupSet.from_elements(n, late[:2]),
                  closure(late, n)):
            assert classify_semigroup(s) == oracle_semigroup_flags(s)


def test_flags_at_n0():
    # the empty set and {∅} on no points are every kind of semigroup
    for elems, order in (((), 0), ((PInj.zero(0),), 1)):
        flags = classify_semigroup(SemigroupSet.from_elements(0, elems))
        assert flags == SemigroupFlags(order, *[True] * 6)
