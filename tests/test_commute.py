import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invsemi import _bulk
from invsemi._bulk import (commuting, element_rows, products,
                           row_element, row_index)
from invsemi.commute import (CommuteChecker, _cycle_classes, centralizer,
                             commutes_naive,
                             commutes_structural,
                             iter_permutation_centralizer,
                             iter_permutation_centralizer_chunks,
                             overlap_classes,
                             permutation_centralizer_order,
                             permutation_joint_centralizer)
from invsemi.pinj import (PInj, UNDEF, compose, element_from_id, monoid_order,
                          parse, power, join)
from invsemi.witnesses import _proper_divisors, prime_power_pair

from helpers import (oracle_commutes, oracle_decode, oracle_joint_centralizer,
                     oracle_overlap_classes, oracle_permutation_centralizer,
                     oracle_products, oracle_schreier_joint_centralizer)


def all_elements(n):
    return [element_from_id(n, i) for i in range(monoid_order(n))]


def elements(n):
    return st.integers(0, monoid_order(n) - 1).map(
        lambda i: element_from_id(n, i))


# -- the two routes ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_routes_agree_exhaustively(n):
    els = all_elements(n)
    for a in els:
        chk = CommuteChecker(a)
        for b in els:
            naive = commutes_naive(a, b)
            assert chk.commutes(b) == naive
            assert naive == oracle_commutes(a, b)


@settings(deadline=None, max_examples=300)
@given(st.integers(5, 10).flatmap(
    lambda n: st.tuples(elements(n), elements(n))))
def test_routes_agree_random(pair):
    a, b = pair
    assert commutes_structural(a, b) == commutes_naive(a, b)


@pytest.mark.parametrize("n", range(8))
def test_batch_kernel_matches_oracle(n):
    rng = random.Random(n)
    for size_a, size_b in ((0, 5), (5, 0), (1, 1), (1, 9), (9, 1), (17, 40)):
        xs, ys = ([element_from_id(n, rng.randrange(monoid_order(n)))
                   for _ in range(size)] for size in (size_a, size_b))
        for batch in (xs, ys):
            batch[:2] = [PInj.zero(n), PInj.identity(n)][:len(batch)]
        a, b = element_rows(xs, n), element_rows(ys, n)
        assert a.dtype == np.int8 and a.shape == (size_a, n)
        assert [row_element(n, row) for row in a] == xs
        got = commuting(a, b)
        assert got.dtype == bool and got.shape == (size_a, size_b)
        assert got.tolist() == [[oracle_commutes(x, y) for y in ys]
                                for x in xs]


@pytest.mark.parametrize("n", range(8))
def test_products_match_compose(n):
    # row [i, j] is x_i·y_j, x_i applied first, bit for bit
    rng = random.Random(100 + n)
    for size_a, size_b in ((0, 0), (0, 5), (5, 0), (1, 1), (9, 1), (17, 40)):
        xs, ys = ([element_from_id(n, rng.randrange(monoid_order(n)))
                   for _ in range(size)] for size in (size_a, size_b))
        got = products(element_rows(xs, n), element_rows(ys, n))
        assert got.dtype == np.int8 and got.shape == (size_a, size_b, n)
        want = element_rows([compose(x, y) for x in xs for y in ys], n)
        assert got.reshape(len(want), n).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_take_kernels_match_fancy_index_oracle(n):
    # rows of real elements with the zero map and the identity among them,
    # as they are, as strided row slices, and as Fortran-ordered copies
    rng = np.random.default_rng(n)
    parts = _bulk.monoid_decoder(n)
    for size_a, size_b in ((0, 0), (0, 4), (4, 0), (1, 1), (7, 13), (64, 40)):
        a, b = (_bulk.decode(n, parts, rng.integers(0, monoid_order(n), size))
                for size in (size_a, size_b))
        a[:2] = np.vstack([np.full(n, n), np.arange(n)])[:len(a)]
        b[-1:] = n
        for x, y in ((a, b), (a[::2], b[1::3]), (np.asfortranarray(a), b),
                     (a[::-1], np.asfortranarray(b[::2]))):
            got, want = products(x, y), oracle_products(x, y)
            assert got.dtype == np.int8 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(commuting(x, y), (want == oracle_products(
                y, x).transpose(1, 0, 2)).all(axis=2))


def test_decode_matches_fancy_index_oracle_on_mixed_cycle_lengths():
    # cycle type (3, 3, 2, 2, 1) on 11 points: three classes, decoded as
    # streamed, in random order with repeats, and straddling strata
    a = join(11, cycles=[(0, 4, 8), (1, 9, 2), (3, 10), (5, 7), (6,)])
    assert a.is_permutation()
    parts = _bulk.decoder(11, _cycle_classes(a))
    total = permutation_centralizer_order(a)
    assert total == 31 * 17 * 2
    rows = np.concatenate(list(iter_permutation_centralizer_chunks(a)))
    assert rows.tobytes() == oracle_decode(11, parts, np.arange(total)
                                           ).tobytes()
    ids = np.random.default_rng(11).integers(0, total, 3000)
    assert _bulk.decode(11, parts, ids).tobytes() == oracle_decode(
        11, parts, ids).tobytes()
    want = element_rows(list(oracle_permutation_centralizer(a)), 11)
    assert set(map(tuple, rows.tolist())) == set(map(tuple, want.tolist()))


@pytest.mark.parametrize("n", [0, 1, 3, 8, 20, 32])
def test_row_index_matches_dict_lookup(n):
    rng = np.random.default_rng(n)
    for size in (0, 1, 50):
        m = np.unique(rng.integers(0, n + 1, (size, n), dtype=np.int8),
                      axis=0)
        m = m[rng.permutation(len(m))]
        # the rows of m, and rows that may be absent from it
        q = np.vstack([m, rng.integers(0, n + 1, (30, n), dtype=np.int8)])
        index = {r.tobytes(): i for i, r in enumerate(m)}
        got = row_index(m, q)
        assert got.tolist() == [index.get(r.tobytes(), -1) for r in q]


def test_row_index_absent_rows():
    assert row_index(np.zeros((1, 3), np.int8),
                     np.ones((1, 3), np.int8)).tolist() == [-1]
    # rows differing only at point 20, alike to base-32 int64 codes
    late = np.full((2, 31), 31, np.int8)
    late[1, 20] = 20
    assert row_index(late[:1], late).tolist() == [0, -1]


def test_batch_kernel_rejects_size_mismatch():
    for kernel in (commuting, products):
        with pytest.raises(ValueError):
            kernel(element_rows([PInj.zero(3)], 3),
                   element_rows([PInj.zero(4)], 4))


def test_structural_rejects_size_mismatch():
    with pytest.raises(ValueError):
        commutes_structural(PInj.zero(3), PInj.zero(4))


def test_checker_is_reusable():
    els = all_elements(3)
    a = els[17]
    chk = CommuteChecker(a)
    once = [chk.commutes(b) for b in els]
    again = [chk.commutes(b) for b in els]
    assert once == again
    assert once == [commutes_naive(a, b) for b in els]


def test_zero_product_pairs_commute():
    # both products empty: disjoint spans, and head-to-offspan landings
    a = PInj.chain(4, (0, 1))
    b = PInj.chain(4, (0, 2))
    assert commutes_naive(a, b) and commutes_structural(a, b)
    c = PInj.chain(4, (2, 3))
    assert commutes_structural(a, c)


def test_commuting_carries_span_structure():
    # image into image, domain into domain, for every commuting pair
    for n in (3, 4):
        els = all_elements(n)
        for a in els:
            chk = CommuteChecker(a)
            ima, dom = set(a.ima()), set(a.dom())
            for b in els:
                if not chk.commutes(b):
                    continue
                binv = b.inverse()
                assert all(b(x) in ima for x in ima if b(x) != UNDEF)
                assert all(binv(y) in dom for y in dom if binv(y) != UNDEF)


# -- centralizers -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_centralizer_matches_brute(n):
    els = all_elements(n)
    for a in els:
        brute = {b for b in els if commutes_naive(a, b)}
        assert set(centralizer(a).elements) == brute


def test_centralizer_on_no_points():
    assert centralizer(PInj.zero(0)).elements == (PInj.zero(0),)


def test_centralizer_sample_n4():
    els = all_elements(4)
    rng = random.Random(11)
    for a in rng.sample(els, 25):
        brute = {b for b in els if commutes_naive(a, b)}
        assert set(centralizer(a).elements) == brute


def test_full_cycle_centralizer_is_powers_and_zero():
    for n in (3, 4, 5):
        a = PInj.cycle(n, range(n))
        expect = {PInj.zero(n)} | {power(a, q) for q in range(1, n + 1)}
        assert set(centralizer(a).elements) == expect
        assert len(expect) == n + 1


def test_spanning_chain_centralizer_is_powers_and_center():
    for n in (3, 4, 5):
        a = PInj.chain(n, range(n))
        expect = ({PInj.zero(n), PInj.identity(n)}
                  | {power(a, q) for q in range(1, n)})
        assert set(centralizer(a).elements) == expect
        assert len(expect) == n + 1


def test_centralizer_builds_only_survivors(monkeypatch):
    built = []
    init = PInj.__init__

    def counting(self, n, img):
        built.append(img)
        init(self, n, img)

    for a in (PInj.cycle(5, range(5)), join(5, cycles=((0,), (1,)))):
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr(PInj, "__init__", counting)
            cz = centralizer(a)
        assert 0 < len(built) == len(cz) < monoid_order(5)


# -- permutation centralizers ------------------------------------------------------


def test_permutation_stream_matches_brute():
    for n in (2, 3, 4):
        els = all_elements(n)
        for a in els:
            if not a.is_permutation():
                continue
            brute = {b for b in els if commutes_naive(a, b)}
            stream = list(iter_permutation_centralizer(a))
            assert len(stream) == len(set(stream))
            assert set(stream) == brute
            assert permutation_centralizer_order(a) == len(brute)


def partitions(n, most=None):
    """Integer partitions of n into parts of at most ``most``, largest
    part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, most or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def permutation_of_type(lengths):
    """A permutation with the given cycle lengths on shuffled points."""
    n = sum(lengths)
    points = list(range(n))
    random.Random(n * 1000 + len(lengths)).shuffle(points)
    cycles, pos = [], 0
    for length in lengths:
        cycles.append(tuple(points[pos:pos + length]))
        pos += length
    return join(n, cycles=tuple(cycles))


STREAM_CASES = [permutation_of_type(p) for n in range(1, 8)
                for p in partitions(n)]
STREAM_CASES.append(power(prime_power_pair(3, 2)[0], 3))


@functools.lru_cache(maxsize=None)
def oracle_rows(a):
    return frozenset(tuple(a.n if v == UNDEF else v for v in g.img)
                     for g in oracle_permutation_centralizer(a))


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
def test_chunk_stream_matches_oracle(chunk_rows, monkeypatch):
    # one permutation of every cycle type on at most 7 points, and the
    # cube of the 9-cycle of the distance-five pair (three 3-cycles); one
    # row per chunk only where the centralizer is small
    assert len(STREAM_CASES) == 15 + 11 + 7 + 5 + 3 + 2 + 1 + 1
    if chunk_rows is not None:
        monkeypatch.setattr(_bulk, "_CHUNK_ROWS", chunk_rows)
    limit = _bulk._CHUNK_ROWS
    cases = [a for a in STREAM_CASES
             if chunk_rows != 1 or permutation_centralizer_order(a) <= 5000]
    assert len(cases) > (30 if chunk_rows == 1 else 40)
    for a in cases:
        chunks = list(iter_permutation_centralizer_chunks(a))
        assert all(0 < len(m) <= limit for m in chunks)
        assert all(m.dtype == np.int8 and m.shape[1] == a.n for m in chunks)
        rows = list(map(tuple, np.concatenate(chunks).tolist()))
        assert len(rows) == permutation_centralizer_order(a)
        assert len(set(rows)) == len(rows)
        assert set(rows) == oracle_rows(a)
    assert permutation_centralizer_order(PInj.identity(7)) == 130_922


def test_chunk_stream_memory_is_bounded(monkeypatch):
    # the 8th power of the 16-cycle: eight 2-cycles, one class whose option
    # list alone would take gigabytes
    monkeypatch.setattr(_bulk, "_CHUNK_ROWS", 64)
    a = power(PInj.cycle(16, range(16)), 8)
    assert permutation_centralizer_order(a) == 101_817_089
    tracemalloc.start()
    try:
        stream = iter_permutation_centralizer_chunks(a)
        first = next(stream)
        more = [next(stream) for _ in range(50)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.shape == (64, 16)
    assert all(len(m) == 64 for m in more)
    assert peak < 2 << 20
    stream.close()


def test_chunk_stream_rejections():
    with pytest.raises(ValueError):
        iter_permutation_centralizer_chunks(PInj.chain(4, (0, 1)))
    with pytest.raises(ValueError):
        iter_permutation_centralizer_chunks(PInj.identity(32))


def test_permutation_order_formula_n5():
    els = all_elements(5)
    perms = [e for e in els if e.is_permutation()]
    assert len(perms) == math.factorial(5)
    for a in perms:
        brute = sum(commutes_naive(a, b) for b in els)
        assert permutation_centralizer_order(a) == brute


def test_permutation_stream_matches_centralizer():
    a = join(4, cycles=((0, 1), (2, 3)))
    stream = list(iter_permutation_centralizer(a))
    assert len(stream) == len(set(stream)) == permutation_centralizer_order(a)
    assert set(stream) == set(centralizer(a).elements)


# -- joint centralizers ------------------------------------------------------------


def test_overlap_classes_partition():
    d = join(6, cycles=((0, 1, 2), (3, 4, 5)))
    e = join(6, cycles=((0, 3), (1, 4), (2, 5)))
    cls = overlap_classes(d, e)
    assert len(cls) == 1 and cls[0] == frozenset(range(6))
    e2 = join(6, cycles=((0, 1, 2), (3, 4, 5)))
    assert len(overlap_classes(d, e2)) == 2


def test_joint_centralizer_matches_brute_single_class():
    els = all_elements(4)
    perms = [e for e in els if e.is_permutation()]
    hit = 0
    for a, b in itertools.combinations(perms, 2):
        if len(overlap_classes(a, b)) != 1:
            with pytest.raises(ValueError):
                permutation_joint_centralizer(a, b)
            continue
        brute = {c for c in els
                 if commutes_naive(a, c) and commutes_naive(b, c)}
        got = permutation_joint_centralizer(a, b)
        assert set(got) == brute
        assert got == oracle_schreier_joint_centralizer(a, b)
        hit += 1
    assert hit == 210


def test_joint_centralizer_nonzero_elements_are_total():
    a = PInj.cycle(6, range(6))
    b = join(6, cycles=((0, 2), (1, 4), (3, 5)))
    assert len(overlap_classes(a, b)) == 1
    for c in permutation_joint_centralizer(a, b):
        assert c.is_zero() or c.is_permutation()


def test_joint_centralizer_rejects_non_permutations():
    cycle = PInj.cycle(4, range(4))
    for d, e in ((parse("[1 2 3]", 4), cycle), (cycle, parse("(1 2 3)", 4)),
                 (cycle, PInj.cycle(5, range(5)))):
        with pytest.raises(ValueError):
            permutation_joint_centralizer(d, e)
        with pytest.raises(ValueError):
            overlap_classes(d, e)


def _regular_pair(rng, a, b):
    """Generators (+1, 0) and (0, +1) of the regular action of Z_a x Z_b
    on a*b points, relabelled at random: a transitive pair whose joint
    centralizer is the whole group, so it has a*b + 1 elements."""
    n = a * b
    label = rng.sample(range(n), n)

    def shift(di, dj):
        img = [0] * n
        for i in range(a):
            for j in range(b):
                img[label[i * b + j]] = label[(i + di) % a * b + (j + dj) % b]
        return PInj(n, img)

    return shift(1, 0), shift(0, 1)


@pytest.mark.parametrize("n", range(6, 16))
def test_joint_centralizer_matches_oracle(n):
    rng = random.Random(n)
    pairs = []
    while len(pairs) < 20:
        d, e = (PInj(n, rng.sample(range(n), n)) for _ in range(2))
        classes = overlap_classes(d, e)
        assert len(classes) == len(set(classes))
        assert set(classes) == oracle_overlap_classes(d, e)
        if len(classes) == 1:
            pairs.append((d, e))
        else:
            with pytest.raises(ValueError):
                permutation_joint_centralizer(d, e)
    for k in range(1, n):
        # permutations that each keep both blocks of a random split
        pts = rng.sample(range(n), n)
        d, e = (PInj.from_dict(n, {x: y for block in (pts[:k], pts[k:])
                                   for x, y in zip(block, rng.sample(
                                       block, len(block)))})
                for _ in range(2))
        classes = overlap_classes(d, e)
        assert len(classes) >= 2
        assert set(classes) == oracle_overlap_classes(d, e)
        with pytest.raises(ValueError):
            permutation_joint_centralizer(d, e)
    regular = [_regular_pair(rng, a, n // a)
               for a in range(2, n) if n % a == 0]
    for d, e in pairs + regular:
        got = permutation_joint_centralizer(d, e)
        assert len(got) == len(set(got))
        assert set(got) == set(oracle_joint_centralizer(d, e))
        assert got == oracle_schreier_joint_centralizer(d, e)
        assert got[0] == PInj.zero(n)
        if (d, e) in regular:
            # every candidate survives, listed by ascending image of 0
            assert [c(0) for c in got[1:]] == list(range(n))


@pytest.mark.parametrize("n", [15, 21])
def test_joint_centralizer_divisor_powers_match_oracle(n):
    rng = random.Random(n)
    for _ in range(50):
        a, b = (PInj.cycle(n, rng.sample(range(n), n)) for _ in range(2))
        for dm in _proper_divisors(n):
            for dk in _proper_divisors(n):
                ga, gb = power(a, dm), power(b, dk)
                try:
                    want = set(oracle_joint_centralizer(ga, gb))
                except ValueError:
                    with pytest.raises(ValueError):
                        permutation_joint_centralizer(ga, gb)
                    continue
                got = permutation_joint_centralizer(ga, gb)
                assert set(got) == want
                assert got == oracle_schreier_joint_centralizer(ga, gb)
