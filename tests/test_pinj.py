import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from invsemi import pinj
from invsemi.pinj import (PInj, UNDEF, ParseError, classify, compose,
                          decompose, element_from_id, element_id,
                          format_element, join, monoid_order, parse, power,
                          stratum_sizes)

from helpers import oracle_compose


def elements(n):
    return st.integers(0, monoid_order(n) - 1).map(
        lambda i: element_from_id(n, i))


def all_elements(n):
    return [element_from_id(n, i) for i in range(monoid_order(n))]


def element_triples(max_n=7):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(elements(n), elements(n), elements(n)))


# -- construction and basic maps --------------------------------------------------


def test_constructors_and_accessors():
    a = PInj.from_dict(4, {0: 2, 2: 3})
    assert a.dom() == (0, 2) and a.ima() == (2, 3)
    assert a(0) == 2 and a(1) == UNDEF and a.rank == 2
    z, e = PInj.zero(3), PInj.identity(3)
    assert z.rank == 0 and z.is_zero() and not z.is_identity()
    assert e.rank == 3 and e.is_identity() and e.is_permutation()
    assert PInj.cycle(5, (0, 2, 4)).dom() == (0, 2, 4)
    assert PInj.chain(5, (0, 2, 4)).dom() == (0, 2)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        PInj(33, [UNDEF] * 33)  # ground size cap
    with pytest.raises(ValueError):
        PInj(3, [0, 0, UNDEF])  # not injective
    with pytest.raises(ValueError):
        PInj(3, [3, UNDEF, UNDEF])  # out of range
    with pytest.raises(ValueError):
        PInj.cycle(4, (0, 1, 0))  # repeated point
    with pytest.raises(ValueError):
        PInj.chain(4, (2,))  # single-point chain is not a chain
    with pytest.raises(ValueError):
        join(4, cycles=((0, 1),), chains=((1, 2),))  # overlapping parts


def test_compose_against_oracle_exhaustive_n2():
    els = all_elements(2)
    for a, b in itertools.product(els, repeat=2):
        assert compose(a, b) == oracle_compose(a, b)


@settings(deadline=None)
@given(element_triples())
def test_compose_against_oracle_random(t):
    a, b, _ = t
    assert compose(a, b) == oracle_compose(a, b)


@settings(deadline=None)
@given(element_triples())
def test_compose_associative(t):
    a, b, c = t
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(deadline=None)
@given(element_triples())
def test_zero_identity_inverse_laws(t):
    a, _, _ = t
    n = a.n
    z, e = PInj.zero(n), PInj.identity(n)
    assert compose(a, z) == z and compose(z, a) == z
    assert compose(a, e) == a and compose(e, a) == a
    # a a^-1 a == a and a^-1 a a^-1 == a^-1
    ai = a.inverse()
    assert compose(compose(a, ai), a) == a
    assert compose(compose(ai, a), ai) == ai
    # a a^-1 is the identity on dom(a)
    assert compose(a, ai) == PInj.from_dict(n, {x: x for x in a.dom()})


def test_left_to_right_convention():
    # x(ab) = (xa)b: apply a first
    a = PInj.from_dict(3, {0: 1})
    b = PInj.from_dict(3, {1: 2})
    assert compose(a, b)(0) == 2
    assert compose(b, a)(0) == UNDEF


@settings(deadline=None)
@given(element_triples(), st.integers(1, 5), st.integers(1, 5))
def test_power_splits(t, i, j):
    a, _, _ = t
    assert power(a, i + j) == compose(power(a, i), power(a, j))


def test_power_rejects_nonpositive():
    a = PInj.identity(3)
    with pytest.raises(ValueError):
        power(a, 0)


# -- decomposition ----------------------------------------------------------------


def test_decompose_round_trip_exhaustive_small():
    for n in (1, 2, 3, 4):
        for e in all_elements(n):
            d = decompose(e)
            assert join(n, d.cycles, d.chains) == e


@settings(deadline=None)
@given(st.integers(5, 10).flatmap(lambda n: elements(n)))
def test_decompose_round_trip_random(e):
    d = decompose(e)
    assert join(e.n, d.cycles, d.chains) == e


def test_decompose_canonical_under_part_shuffle():
    rng = random.Random(5)
    for e in all_elements(4):
        d = decompose(e)
        cycles = [tuple(c) for c in d.cycles]
        # rotating a cycle or reordering parts must not change the result
        cycles = [c[1:] + c[:1] if len(c) > 1 else c for c in cycles]
        chains = [tuple(c) for c in d.chains]
        rng.shuffle(cycles)
        rng.shuffle(chains)
        e2 = join(4, cycles, chains)
        assert e2 == e
        d2 = decompose(e2)
        assert d2.cycles == d.cycles and d2.chains == d.chains


def test_decompose_cache_keys_on_value():
    # equal elements built apart share one cached result, which matches a
    # fresh decomposition even after more elements than the cache holds
    rng = random.Random(7)
    elems = all_elements(4) + [element_from_id(7, rng.randrange(
        monoid_order(7))) for _ in range(400)]
    for e in elems + elems[::-1]:
        twin = PInj(e.n, list(e.img))
        assert twin is not e
        assert decompose(twin) == decompose(e) == decompose.__wrapped__(twin)
    info = decompose.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256


def test_decompose_parts_partition_span():
    for e in all_elements(4):
        d = decompose(e)
        pts = [x for part in itertools.chain(d.cycles, d.chains)
               for x in part]
        assert len(pts) == len(set(pts))
        assert set(pts) == set(e.dom()) | set(e.ima())


def test_spanning_chain_powers():
    for n in (2, 3, 4, 5, 6):
        a = PInj.chain(n, range(n))
        assert power(a, n - 1) == PInj.chain(n, (0, n - 1))
        assert power(a, n).is_zero()
        if n > 2:
            assert not power(a, n - 1).is_zero()


def test_cycle_and_chain_power_parts():
    a = join(6, cycles=((0, 1, 2),), chains=((3, 4, 5),))
    d = decompose(power(a, 2))
    assert d.cycles == ((0, 2, 1),)
    assert d.chains == ((3, 5),)


# -- classification ---------------------------------------------------------------


def test_classify_kinds():
    assert classify(PInj.zero(3)).kind == "zero"
    assert classify(PInj.zero(3)).nilpotent_index == 1
    assert classify(PInj.identity(3)).kind == "identity"
    assert classify(PInj.from_dict(3, {0: 0})).kind == "idempotent"
    assert classify(PInj.cycle(3, (0, 1, 2))).kind == "permutation"
    assert classify(PInj.cycle(3, (0, 1, 2))).is_n_cycle
    assert classify(PInj.cycle(3, (0, 1))).kind == "mixed"
    c = classify(PInj.chain(4, (0, 1, 2, 3)))
    assert c.kind == "nilpotent" and c.nilpotent_index == 4
    assert classify(join(4, cycles=((0, 1),), chains=((2, 3),))).kind == "mixed"


def test_classify_nilpotent_index_matches_powers():
    for e in all_elements(4):
        c = classify(e)
        if c.kind in ("nilpotent", "zero"):
            k = c.nilpotent_index
            assert power(e, k).is_zero() if k > 1 else e.is_zero()
            if k > 1:
                assert not power(e, k - 1).is_zero()
        else:
            assert not power(e, 20).is_zero()


def test_kind_counts_n3():
    kinds = {}
    for e in all_elements(3):
        kinds[classify(e).kind] = kinds.get(classify(e).kind, 0) + 1
    # 34 elements: zero, identity, 5 non-trivial permutations, 6 proper
    # idempotents, 12 nonzero nilpotents, 9 mixed
    assert kinds == {"zero": 1, "identity": 1, "permutation": 5,
                     "idempotent": 6, "nilpotent": 12, "mixed": 9}


# -- text round trip ---------------------------------------------------------------


def test_parse_format_fixed_points():
    assert format_element(parse("0", 3)) == "0"
    assert format_element(parse("id", 3)) == "id"
    assert format_element(parse("(4 3)  | [ 2 1 ]", 4)) == "[2 1]|(3 4)"
    assert parse("(1 2)|[3 4]", 4) == join(4, cycles=((0, 1),),
                                           chains=((2, 3),))


def test_parse_format_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for e in all_elements(n):
            assert parse(format_element(e), n) == e


@settings(deadline=None)
@given(st.integers(5, 9).flatmap(lambda n: elements(n)))
def test_parse_format_round_trip_random(e):
    assert parse(format_element(e), e.n) == e


@pytest.mark.parametrize("bad", [
    "", "(1 2", "[1]", "(1 1)", "[1 2] [3 4]", "(0 1)", "(1 5)", "x",
    "(1 2)|(2 3)", "[1 2]|[2 3]", "()",
])
def test_parse_rejections(bad):
    with pytest.raises(ParseError):
        parse(bad, 4)


# -- dense IDs ---------------------------------------------------------------------


def test_stratum_sizes_and_order():
    assert stratum_sizes(3) == [1, 9, 18, 6]
    assert [monoid_order(n) for n in range(8)] == [
        1, 2, 7, 34, 209, 1546, 13327, 130922]


def test_element_id_bijection_small():
    for n in (0, 1, 2, 3, 4):
        seen = set()
        for eid in range(monoid_order(n)):
            e = element_from_id(n, eid)
            assert element_id(e) == eid
            seen.add(e)
        assert len(seen) == monoid_order(n)


def test_element_id_sorted_by_rank():
    # IDs stratify by rank: zero first, identity last in its stratum
    assert element_id(PInj.zero(4)) == 0
    boundaries = list(itertools.accumulate(stratum_sizes(4)))
    for e in (PInj.from_dict(4, {1: 2}),):
        assert boundaries[0] <= element_id(e) < boundaries[1]
    assert element_id(PInj.identity(4)) >= boundaries[-2]


def test_element_id_out_of_range():
    with pytest.raises(ValueError):
        element_from_id(3, monoid_order(3))
    with pytest.raises(ValueError):
        element_from_id(3, -1)
