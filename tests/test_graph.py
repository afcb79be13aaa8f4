import itertools
import math
import tracemalloc

import numpy as np
import pytest

from invsemi import _bulk
from invsemi import graph as gm
from invsemi._bulk import (adjacency_packed, decode, decode_chunks,
                           elements_matrix, iter_matrix_chunks, monoid_decoder,
                           orbit_forest, pack_bool_rows, row_element)
from invsemi.commute import iter_permutation_centralizer_chunks
from invsemi.construct import balanced_null_order, max_commutative_nilpotent
from invsemi.pinj import (PInj, UNDEF, classify, decompose, element_from_id,
                          element_id, format_element, monoid_order,
                          stratum_sizes)

from helpers import (brute_adjacency, brute_components, brute_distance,
                     brute_eccentricity, brute_max_cliques,
                     dense_adjacency_packed, multi_source_bfs,
                     oracle_clique_search, oracle_core_mask, oracle_decode,
                     oracle_degrees, oracle_forest_fill, oracle_greedy_from)


def graph_elements(g):
    return [g.vertex_element(i) for i in range(g.num_vertices)]


def dense_graph(mat, label, n=6):
    """Graph of a symmetric bool adjacency matrix; its rows are equal
    elements, so every vertex is its own class."""
    nv = len(mat)
    packed = pack_bool_rows(mat, nv)
    ids = np.arange(nv, dtype=np.int64)
    imgs = np.full((nv, n), n, dtype=np.int8)
    return gm.CommutingGraph(n, ids, imgs, packed, orbit_forest(imgs)[:3],
                             (), label)


def synthetic_graph(nv, p, seed, n=6):
    rng = np.random.default_rng(seed)
    mat = np.triu(rng.random((nv, nv)) < p, 1)
    return dense_graph(mat | mat.T, f"rand{nv}", n)


# -- bulk element matrices ---------------------------------------------------------


def test_elements_matrix_counts():
    for n in (1, 2, 3, 4):
        ids, mat = elements_matrix(n)
        assert len(ids) == monoid_order(n)
        assert mat.shape == (monoid_order(n), n)
        back = [element_from_id(n, int(i)) for i in ids]
        for e, row in zip(back, mat):
            assert [x if x != n else -1 for x in row] == list(e.img)


def test_nilpotent_mask_matches_classify():
    # the squaring test against the cycle-chain decomposition, on all of I(n)
    for n in range(8):
        _, mat = elements_matrix(n)
        want = [classify(row_element(n, row)).kind in ("zero", "nilpotent")
                for row in mat]
        assert _bulk._nilpotent_mask(mat, n).tolist() == want


def test_matrix_chunks_cover(monkeypatch):
    ids, mat = elements_matrix(4)
    monkeypatch.setattr(_bulk, "_CHUNK_ROWS", 37)
    got_ids = []
    for cids, cmat in iter_matrix_chunks(4):
        got_ids.extend(int(i) for i in cids)
    assert got_ids == [int(i) for i in ids]


def test_monoid_is_the_identity_centralizer():
    # one decoder: the identity's centralizer stream is I(n) in ID order
    for n in range(1, 7):
        stream = np.concatenate(list(
            iter_permutation_centralizer_chunks(PInj.identity(n))))
        assert np.array_equal(stream, elements_matrix(n)[1])


def test_decoder_at_stratum_edges():
    for n in range(7, 11):
        parts = monoid_decoder(n)
        bounds = np.cumsum([0] + stratum_sizes(n))
        ids = np.unique(np.concatenate([bounds[:-1], bounds[1:] - 1]))
        rows = decode(n, parts, ids)
        assert [row_element(n, r) for r in rows] == [
            element_from_id(n, int(i)) for i in ids]


def assert_same_rows(got, want):
    assert got.dtype == want.dtype == np.int8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(8))
def test_decode_matches_fancy_index_oracle_on_every_id(n):
    # all IDs at once straddle every stratum; the chunks of n = 7 include
    # some that lie in one stratum
    parts = monoid_decoder(n)
    ids = np.arange(monoid_order(n))
    assert_same_rows(decode(n, parts, ids), oracle_decode(n, parts, ids))
    for lo, rows in decode_chunks(n, parts, 0, monoid_order(n)):
        assert_same_rows(rows, oracle_decode(
            n, parts, np.arange(lo, lo + len(rows))))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_decode_matches_fancy_index_oracle_on_scrambled_ids(n):
    parts = monoid_decoder(n)
    bounds = np.cumsum([0] + stratum_sizes(n))
    rng = np.random.default_rng(n)
    # a run across every stratum edge, shuffled, then random and repeated
    # IDs; and random IDs of the top stratum alone (no flatnonzero)
    edges = (bounds[1:-1, None] + np.arange(-3, 3)).ravel().clip(0)
    ids = np.concatenate([rng.permutation(edges),
                          rng.integers(0, bounds[-1], 2000), edges[::-1],
                          np.repeat(bounds[-2] + rng.integers(0, 9, 7), 3)])
    top = bounds[-2] + rng.integers(0, math.factorial(n), 500)
    for batch in (ids, top):
        assert_same_rows(decode(n, parts, batch),
                         oracle_decode(n, parts, batch))
    # the oracle cannot reshape an empty batch; the kernel can
    assert decode(n, parts, ids[:0]).shape == (0, n)
    assert [row_element(n, r) for r in decode(n, parts, ids[:60])] == [
        element_from_id(n, int(i)) for i in ids[:60]]


@pytest.mark.parametrize("n, limit_mb", [(9, 32), (10, 256)])
def test_enumeration_memory_at_the_cap(n, limit_mb):
    # only the top stratum's tables are built for permutations; at n=9 the
    # r!-row block enumerator took 95 MB here
    tracemalloc.start()
    try:
        ids, m = next(iter_matrix_chunks(n, "permutation"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == _bulk._CHUNK_ROWS and (m != n).all()
    assert ids[0] == sum(stratum_sizes(n)[:n])
    assert peak < limit_mb << 20
    with pytest.raises(ValueError, match="n <= 10"):
        iter_matrix_chunks(11, "permutation")


def test_adjacency_packed_matches_oracle():
    for n in (2, 3):
        ids, mat = elements_matrix(n)
        packed = adjacency_packed(mat, orbit_forest(mat))
        els = [element_from_id(n, int(i)) for i in ids]
        adj = brute_adjacency(els)
        for i in range(len(els)):
            row = int.from_bytes(packed[i].astype("<u8").tobytes(), "little")
            bits = {j for j in range(len(els)) if (row >> j) & 1}
            assert bits == adj[i]


def row_type_keys(n, mat):
    """Cycle-chain type of each row of an image matrix, by way of
    ``decompose``: the oracle for the package's conjugacy classes, which it
    finds as orbits of conjugation."""
    keys = []
    for row in mat:
        d = decompose(PInj(n, tuple(UNDEF if v == n else int(v)
                                    for v in row)))
        keys.append((tuple(sorted(len(c) for c in d.cycles)),
                     tuple(sorted(len(c) for c in d.chains))))
    return keys


def row_types(n, mat):
    """Number of distinct cycle-chain types among the rows of an image
    matrix (see ``row_type_keys``)."""
    return len(set(row_type_keys(n, mat)))


def run_kernel(mat, monkeypatch):
    """``adjacency_packed`` of ``mat`` and its ``orbit_forest``, the number
    of rows it compared densely against the whole matrix, and the
    tracemalloc peak of both in bytes."""
    dense = []
    inner = _bulk.commuting

    def counting(a, b):
        assert len(b) == len(mat)
        dense.append(len(a))
        return inner(a, b)

    with monkeypatch.context() as mp:
        mp.setattr(_bulk, "commuting", counting)
        tracemalloc.start()
        try:
            packed = adjacency_packed(mat, orbit_forest(mat))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return packed, sum(dense), peak


def check_kernel(n, mat, closed, monkeypatch, sample=None, over_mb=None):
    """The kernel equals the all-pairs dense oracle bit for bit (on the
    ``sample`` rows if given), and compares one row per conjugacy class
    (one per cycle-chain type) densely on closed sets, every row
    otherwise.  Given ``over_mb``, its traced peak stays within that many
    MB of the packed output's size."""
    packed, dense, peak = run_kernel(mat, monkeypatch)
    assert packed.dtype == np.uint64
    assert packed.shape == (len(mat), (len(mat) + 63) // 64)
    want = dense_adjacency_packed(mat, sample)
    got = packed if sample is None else packed[sample]
    assert got.tobytes() == want.tobytes()
    assert dense == (row_types(n, mat) if closed else len(mat))
    if over_mb is not None:
        assert peak - packed.nbytes < over_mb << 20
    return packed


FILTERS = ("all", "nilpotent", "idempotent", "permutation")
CENTERS = ("monoid", "ideal", "group", ())


def test_adjacency_kernel_on_families(monkeypatch):
    for n in range(2, 6):
        for filt in FILTERS:
            for center in CENTERS:
                g = gm.build_graph(n, filt, center=center)
                packed = check_kernel(n, g.imgs, True, monkeypatch)
                assert packed.tobytes() == g.packed.tobytes()


def check_forest(mat):
    """The orbit pulls form a Schreier forest: each non-representative row
    is pulled last exactly once, from a row in its own class that is a
    representative or was pulled last at an earlier step."""
    reps, inverse, _, pulls = orbit_forest(mat)
    unset = len(pulls)
    step = np.full(len(mat), unset)
    step[reps] = -1
    for t, (g, rows) in enumerate(pulls):
        assert (step[rows] == unset).all()
        assert (inverse[g[rows]] == inverse[rows]).all()
        assert (step[g[rows]] < t).all()
        step[rows] = t
    assert (step < unset).all()


@pytest.mark.parametrize("block", [1, 5])
def test_forest_fill_at_every_block_boundary(block, monkeypatch):
    # representatives are compared in blocks of 1 and 5 rows, and the fill
    # works in chunks of one 64-row tile, so every pull of more than 64
    # rows is cut at tile boundaries and most end in a partial tile; the
    # idempotents of I(6) and I(7) fill whole tiles of 64 and 128 columns
    monkeypatch.setattr(_bulk, "_ADJACENCY_BLOCK", block)
    monkeypatch.setattr(_bulk, "_FILL_BYTES", 0)
    for n in range(6):
        for filt in FILTERS:
            for max_rank in (None, *range(1, n)):
                ids, mat = elements_matrix(n, filt, max_rank)
                for rows in (mat, mat[ids != 0]):
                    check_forest(rows)
                    check_kernel(n, rows, True, monkeypatch)
    for n in (6, 7):
        rows = elements_matrix(n, "idempotent")[1]
        assert len(rows) % 64 == 0
        check_forest(rows)
        check_kernel(n, rows, True, monkeypatch)


def test_forest_fill_matches_oracle():
    # the tile fill equals the byte-per-bit gather fill bit for bit: on
    # every family at n <= 5 with and without zero, on the largest closed
    # sets the package builds, on whole tiles, and on the row sets not
    # closed under conjugation, which have no pulls
    sets = []
    for n in range(6):
        for filt in FILTERS:
            for max_rank in (None, *range(1, n)):
                ids, mat = elements_matrix(n, filt, max_rank)
                sets += [mat, mat[ids != 0]]
    for n, filt, max_rank in ((6, "nilpotent", None), (6, "all", 3),
                              (6, "all", None), (7, "nilpotent", None)):
        ids, mat = elements_matrix(n, filt, max_rank)
        sets.append(mat[ids != 0])
    sets += [elements_matrix(n, "idempotent")[1] for n in (6, 7)]
    swap = PInj.cycle(4, (0, 1))
    open_sets = [
        gm.build_graph(4, center=(PInj.zero(4), PInj.identity(4), swap)).imgs,
        gm.build_graph(5, max_rank=2, center="ideal").imgs[1:]]
    for mat in sets + open_sets:
        forest = orbit_forest(mat)
        packed = adjacency_packed(mat, forest)
        assert packed.tobytes() == oracle_forest_fill(packed, forest).tobytes()
    assert all(not orbit_forest(mat)[3] for mat in open_sets)


def test_tile_transpose():
    # each 64×64 bit tile x[t, :, w] against unpacking, transposing and
    # packing its bits; a second transpose gives the input back
    rng = np.random.default_rng(25)
    top = np.iinfo(np.uint64).max
    for shape in ((1, 64, 1), (3, 64, 5)):
        x = rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True)
        # bits[t, i, w, j] is bit j of word x[t, i, w]
        bits = np.unpackbits(x.view(np.uint8), axis=2,
                             bitorder="little").reshape(*shape, 64)
        want = np.packbits(np.ascontiguousarray(bits.transpose(0, 3, 2, 1)),
                           axis=3, bitorder="little").view(np.uint64)
        got = _bulk._transpose_tiles(x.copy())
        assert got.tobytes() == want.reshape(shape).tobytes()
        assert _bulk._transpose_tiles(got).tobytes() == x.tobytes()


def test_conjugacy_classes_are_conjugation_orbits():
    # on every closed family at n <= 5, a row conjugated by seeded random
    # permutations stays in its class, the classes are exactly the
    # cycle-chain types, and each representative is its class's lowest index
    rng = np.random.default_rng(13)
    for n in range(6):
        for filt in FILTERS:
            for max_rank in (None, *range(1, n)):
                ids, mat = elements_matrix(n, filt, max_rank)
                for rows in (mat, mat[ids != 0]):
                    reps, inverse, _, _ = orbit_forest(rows)
                    index = {r.tobytes(): i for i, r in enumerate(rows)}
                    for _ in range(3):
                        s = rng.permutation(n)
                        conj = np.empty_like(rows)
                        conj[:, s] = np.append(s, n).astype(np.int8)[rows]
                        at = [index[r.tobytes()] for r in conj]
                        assert (inverse[at] == inverse).all()
                    keys = row_type_keys(n, rows)
                    assert len(set(zip(keys, inverse.tolist()))) \
                        == len(set(keys)) == len(reps)
                    assert (inverse[reps] == np.arange(len(reps))).all()
                    assert (reps[inverse] <= np.arange(len(rows))).all()


def with_twin(g, k):
    """``g`` with a copy of vertex k appended: same element, same
    neighbours, and adjacent to k.  Its rows repeat, so ``orbit_forest``
    gives every vertex its own class."""
    big_n = g.num_vertices
    idx = np.append(np.arange(big_n), k)
    packed = _bulk.gather_packed(g.packed, idx, idx)
    packed[k, big_n >> 6] |= np.uint64(1 << (big_n & 63))
    packed[big_n, k >> 6] |= np.uint64(1 << (k & 63))
    imgs = g.imgs[idx]
    return gm.CommutingGraph(g.n, g.ids[idx], imgs, packed,
                             orbit_forest(imgs)[:3])


def family_sweep():
    """Each family and rank ideal at n <= 6 as is, without row 0, and with
    one row twinned (every row its own class)."""
    for n in range(7):
        for filt in FILTERS:
            for max_rank in (None, *range(1, n)):
                ids, mat = elements_matrix(n, filt, max_rank)
                g = gm.graph_from_matrix(n, ids, mat)
                yield g
                yield gm.induced_subgraph(g, np.arange(1, len(ids)))
                if len(ids):
                    yield with_twin(g, len(ids) // 2)


def test_class_counts_match_row_oracles():
    # degrees and the k-core peel read one row per class; the row-level
    # oracles read every row
    for h in family_sweep():
        degs = oracle_degrees(h)
        assert h.degrees().tolist() == degs.tolist()
        omega, _ = gm.clique_number(h)
        top = int(degs.max(initial=0))
        for min_deg in {0, 1, 5, omega - 1, top, top + 1}:
            keep, kept_degs = gm._peel(h, min_deg)
            core = oracle_core_mask(h.packed, min_deg)
            assert keep[h.inverse].tolist() == core.tolist()
            words = pack_bool_rows(core[None, :], len(core))[0]
            want = np.bitwise_count(h.packed[core] & words).sum(axis=1)
            assert kept_degs[h.inverse][core].tolist() == want.tolist()


def test_adjacency_kernel_full_n6(full_graphs, monkeypatch):
    g = full_graphs(6)
    packed = check_kernel(6, g.imgs, True, monkeypatch)
    assert packed.tobytes() == g.packed.tobytes()


def test_adjacency_kernel_nilpotent_n7(monkeypatch):
    ids, mat = elements_matrix(7, "nilpotent")
    mat = mat[ids != 0]
    reps = orbit_forest(mat)[0]
    rng = np.random.default_rng(7)
    sample = np.union1d(reps, rng.choice(len(mat), 512, replace=False))
    # besides its 169 MB output the kernel holds a block of rows at a time
    packed = check_kernel(7, mat, True, monkeypatch, sample, over_mb=32)
    assert int(np.bitwise_count(packed).sum()) // 2 == 1_387_470


def test_adjacency_kernel_falls_back_when_not_closed(monkeypatch):
    swap = PInj.cycle(4, (0, 1))
    g = gm.build_graph(4, center=(PInj.zero(4), PInj.identity(4), swap))
    check_kernel(4, g.imgs, False, monkeypatch)
    ideal = gm.build_graph(5, max_rank=2, center="ideal")
    check_kernel(5, ideal.imgs[1:], False, monkeypatch)


def test_adjacency_kernel_edge_cases(monkeypatch):
    packed = check_kernel(4, np.empty((0, 4), np.int8), True, monkeypatch)
    assert packed.shape == (0, 0)
    for n in (0, 1):
        check_kernel(n, elements_matrix(n)[1], True, monkeypatch)
    # zero and identity: every row is alone in its class
    singletons = np.array([[4, 4, 4, 4], [0, 1, 2, 3]], np.int8)
    check_kernel(4, singletons, True, monkeypatch)
    # duplicate rows can fill a class's count without covering it
    _, mat = elements_matrix(3)
    dup = mat.copy()
    dup[element_id(PInj.cycle(3, (0, 2)))] = \
        dup[element_id(PInj.cycle(3, (0, 1)))]
    check_kernel(3, dup, False, monkeypatch)
    check_kernel(3, np.vstack([mat, mat]), False, monkeypatch)


# -- graph construction ------------------------------------------------------------


def test_build_graph_centers():
    g = gm.build_graph(3, center="monoid")
    assert g.num_vertices == monoid_order(3) - 2
    assert set(g.center_ids) == {0, element_id(PInj.identity(3))}
    gi = gm.build_graph(3, filt="nilpotent", center="ideal")
    assert g.n == gi.n == 3
    assert set(gi.center_ids) == {0}
    gp = gm.build_graph(3, filt="permutation", center="group")
    assert gp.num_vertices == math.factorial(3) - 1


def test_adjacency_matches_oracle(full_graphs):
    for n in (3, 4):
        g = full_graphs(n)
        els = graph_elements(g)
        adj = brute_adjacency(els)
        for i in range(g.num_vertices):
            assert {j for j in range(g.num_vertices) if g.adjacent(i, j)} \
                == adj[i]


def test_degrees_and_edges(full_graphs):
    g = full_graphs(4)
    adj = brute_adjacency(graph_elements(g))
    degs = g.degrees()
    assert [int(d) for d in degs] == [len(adj[i]) for i in range(len(adj))]
    assert g.num_edges() == sum(len(v) for v in adj.values()) // 2


def test_vertex_cap():
    with pytest.raises(ValueError):
        gm.build_graph(4, vertex_cap=10)


def test_vertex_cap_checked_before_enumeration(monkeypatch):
    assert gm.build_graph(4, vertex_cap=207).num_vertices == 207
    # the zero map is no permutation, so only the exact count trips here
    with pytest.raises(ValueError, match="23 vertices exceeds cap 22"):
        gm.build_graph(4, filt="permutation", vertex_cap=22)

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated an oversize family")

    monkeypatch.setattr(gm, "elements_matrix", enumerate_nothing)
    for n, filt in ((8, "nilpotent"), (10, "permutation"), (7, "all")):
        with pytest.raises(ValueError, match="exceeds cap"):
            gm.build_graph(n, filt)


def test_index_of_accepts_elements_and_ids(full_graphs):
    g = full_graphs(3)
    e = PInj.cycle(3, (0, 1, 2))
    i = g.index_of(e)
    assert g.index_of(element_id(e)) == i
    assert g.vertex_element(i) == e
    with pytest.raises(KeyError):
        g.index_of(PInj.zero(3))  # central, not a vertex


# -- distances ---------------------------------------------------------------------


def test_distance_matches_oracle(full_graphs):
    g = full_graphs(3)
    els = graph_elements(g)
    adj = brute_adjacency(els)
    for i, j in itertools.combinations(range(len(els)), 2):
        want = brute_distance(adj, i, j)
        got = gm.distance(g, els[i], els[j])
        if want == float("inf"):
            assert got.value == gm.INFINITY
            assert got.path is None and got.components
        else:
            assert got.value == want
            verts = got.path.vertices
            assert verts[0] == els[i] and verts[-1] == els[j]


def test_distance_path_edges_are_real(full_graphs):
    g = full_graphs(4)
    els = graph_elements(g)
    res = gm.distance(g, els[3], els[-1])
    verts = res.path.vertices
    for a, b in zip(verts, verts[1:]):
        assert g.adjacent(g.index_of(a), g.index_of(b))


def test_eccentricities_match_oracle(full_graphs):
    g = full_graphs(4)
    adj = brute_adjacency(graph_elements(g))
    ecc, reached = gm.eccentricities(g)
    for i in range(g.num_vertices):
        want_ecc, want_reached = brute_eccentricity(adj, i)
        assert int(ecc[i]) == want_ecc
        assert int(reached[i]) == want_reached


def all_source_bfs(g):
    """Oracle: one BFS per vertex, as (eccentricity, reached count,
    farthest lowest-index vertex) arrays."""
    rows, nverts = g.rows(), g.num_vertices
    out = np.zeros((3, nverts), dtype=np.int64)
    for s in range(nverts):
        levels, seen = gm._bfs(rows, nverts, s)
        far = int(gm._bit_indices(levels[-1], nverts)[0])
        out[:, s] = len(levels) - 1, seen.bit_count(), far
    return out


def check_against_all_source(g, closed, cross_check=True):
    """Eccentricities and the diameter's value, pair and geodesic equal the
    multi-source BFS from every vertex; conjugation-closed graphs use one
    BFS source per type, the others one per vertex.  With ``cross_check``,
    the multi-source BFS also equals one Python-int BFS per vertex."""
    want_ecc, want_reached, far = want = multi_source_bfs(g)
    if cross_check:
        assert (all_source_bfs(g) == want).all()
    ecc, reached = gm.eccentricities(g)
    assert (ecc == want_ecc).all() and (reached == want_reached).all()
    assert len(g.reps) == (row_types(g.n, g.imgs) if closed
                           else g.num_vertices)
    if not g.num_vertices:
        return
    res = gm.diameter(g)
    nverts = g.num_vertices
    if int(want_reached.min()) < nverts:
        assert res.value == gm.INFINITY and res.pair is None
        assert res.path is None
        return
    src = int(np.argmax(want_ecc))
    dst = int(far[src])
    rows = g.rows()
    levels, _ = gm._bfs(rows, nverts, src, until_bit=dst)
    assert res.value == int(want_ecc[src])
    assert res.pair == (int(g.ids[src]), int(g.ids[dst]))
    assert [g.index_of(v) for v in res.path.vertices] \
        == gm._backtrack(rows, levels, dst)


def test_eccentricity_reduction_on_families():
    centers = {"all": "monoid", "nilpotent": "ideal",
               "idempotent": "monoid", "permutation": "group"}
    for n in range(1, 6):
        for filt, center in centers.items():
            check_against_all_source(gm.build_graph(n, filt, center=center),
                                     closed=True)


@pytest.mark.parametrize("n", [5, 6])
def test_eccentricity_reduction_on_ideals(n, ideal_graphs):
    for r in range(1, n):
        check_against_all_source(ideal_graphs(n, r), closed=True,
                                 cross_check=n < 6)


def test_eccentricity_reduction_off_when_not_closed(ideal_graphs):
    sub = ideal_graphs(5, 2)
    check_against_all_source(
        gm.induced_subgraph(sub, np.arange(1, sub.num_vertices)),
        closed=False)
    swap = PInj.cycle(4, (0, 1))
    g = gm.build_graph(4, center=(PInj.zero(4), PInj.identity(4), swap))
    check_against_all_source(g, closed=False)


def test_components_match_oracle(full_graphs):
    for n in (3, 4, 5):
        g = full_graphs(n)
        adj = brute_adjacency(graph_elements(g)) if n < 5 else None
        comps = gm.components(g)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == list(range(g.num_vertices))
        if adj is not None:
            want = {c for c in brute_components(adj)}
            assert {frozenset(int(v) for v in c) for c in comps} == want
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)


def test_diameter_values(full_graphs):
    assert gm.diameter(full_graphs(4)).value == 4
    res3 = gm.diameter(full_graphs(3))
    assert res3.value == gm.INFINITY and res3.components
    res5 = gm.diameter(full_graphs(5))
    assert res5.value == gm.INFINITY


def test_diameter_reads_connectivity_from_eccentricities(ideal_graphs,
                                                         monkeypatch):
    # one BFS per conjugacy class, then one for the geodesic
    g = ideal_graphs(6, 3)
    classes = len(g.reps)
    assert classes == 17
    calls = []
    bfs = gm._bfs

    def counted(*args, **kwargs):
        calls.append(args[2])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(gm, "_bfs", counted)
    assert gm.diameter(g).value == 3
    assert len(calls) == classes + 1


def test_one_orbit_pass_per_graph(monkeypatch):
    # the build finds the classes and maps once, and the diameter's BFS
    # and the clique search read them
    calls = []
    maps = _bulk._conjugation_maps

    def counted(m):
        calls.append(len(m))
        return maps(m)

    monkeypatch.setattr(_bulk, "_conjugation_maps", counted)
    g = gm.build_graph(6, max_rank=3, center="ideal")
    assert gm.diameter(g).value == 3
    # the enumeration closes its finds under the maps the build kept
    assert [len(c) for c in gm.maximum_cliques(g)] == [41]
    assert calls == [2886]


def test_loaded_and_induced_graphs_keep_the_build_classes(ideal_graphs,
                                                          tmp_path):
    # the rank <= 3 ideal of I(6) without zero is a union of classes of
    # the full graph
    fresh = gm.build_graph(6, max_rank=3, center="ideal")
    path = tmp_path / "ideal.bin"
    gm.save_packed(fresh, path)
    assert len(fresh.reps) == 17
    for h in (ideal_graphs(6, 3), gm.load_packed(path)):
        assert h.ids.tolist() == fresh.ids.tolist()
        assert h.reps.tolist() == fresh.reps.tolist()
        assert h.inverse.tolist() == fresh.inverse.tolist()


def test_diameter_path_attains_value(full_graphs):
    g = full_graphs(4)
    res = gm.diameter(g)
    assert res.path.length == res.value == 4
    idx = [g.index_of(v) for v in res.path.vertices]
    for a, b in zip(idx, idx[1:]):
        assert g.adjacent(a, b)


def test_induced_subgraph(full_graphs, ideal_graphs):
    g = full_graphs(4)
    ranks = (g.imgs != 4).sum(axis=1)
    sub = ideal_graphs(4, 2)
    assert sub.num_vertices == int((ranks <= 2).sum())
    els = graph_elements(sub)
    adj = brute_adjacency(els)
    for i in range(sub.num_vertices):
        assert {j for j in range(sub.num_vertices) if sub.adjacent(i, j)} \
            == adj[i]


# -- cliques -----------------------------------------------------------------------


def test_clique_number_matches_brute(full_graphs):
    for n in (2, 3, 4):
        g = full_graphs(n)
        adj = brute_adjacency(graph_elements(g))
        want, _ = brute_max_cliques(adj)
        size, wit = gm.clique_number(g)
        assert size == want == 2 ** n - 2
        assert len(wit) == size
        for a, b in itertools.combinations(wit, 2):
            assert g.adjacent(a, b)


def test_maximum_cliques_match_brute(full_graphs):
    g = full_graphs(3)
    adj = brute_adjacency(graph_elements(g))
    want_size, want_cliques = brute_max_cliques(adj)
    got = gm.maximum_cliques(g)
    assert got == sorted(got)
    assert {len(c) for c in got} == {want_size}
    assert {frozenset(c) for c in got} == want_cliques


def test_maximum_cliques_rejects_a_non_clique():
    # on K5 minus the edge 0-1, an enumeration result of the right size
    # with that one edge missing, handed over as an enum checkpoint with no
    # roots left, fails the final check; a true maximum clique passes it
    mat = ~np.eye(5, dtype=bool)
    mat[0, 1] = mat[1, 0] = False
    g = dense_graph(mat, "k5-minus-edge")
    assert gm.maximum_cliques(g) == [(0, 2, 3, 4), (1, 2, 3, 4)]

    def enum_checkpoint(clique):
        return gm.CliqueCheckpoint(tuple(g.reps.tolist()), 0, 4, (clique,))

    good = (0, 2, 3, 4)
    assert gm.maximum_cliques(g, resume=enum_checkpoint(good)) == [good]
    with pytest.raises(AssertionError, match="enumerated set is not a clique"):
        gm.maximum_cliques(g, resume=enum_checkpoint((0, 1, 2, 3)))


def test_maximum_cliques_of_empty_graph():
    g = gm.build_graph(1, "nilpotent", center="ideal")
    assert g.num_vertices == 0
    assert gm.clique_number(g) == (0, ())
    assert gm.maximum_cliques(g) == [()]


def test_greedy_seed_starts_at_class_representatives(full_graphs,
                                                     monkeypatch):
    # one greedy clique per class representative already reaches the clique
    # number on the nilpotent graphs at n <= 6 and the full graphs at n <= 6
    nilpotent = {n: gm.build_graph(n, "nilpotent", center="ideal")
                 for n in range(3, 7)}
    for n, g in nilpotent.items():
        assert len(gm._greedy_best(g)) == balanced_null_order(n) - 1
    for n in range(2, 7):
        assert len(gm._greedy_best(full_graphs(n))) == 2 ** n - 2
    starts = []
    greedy_from = gm._greedy_from

    def counted(rows, degs, start):
        starts.append(start)
        return greedy_from(rows, degs, start)

    monkeypatch.setattr(gm, "_greedy_from", counted)
    for g in (full_graphs(6), nilpotent[5]):
        starts.clear()
        gm.clique_number(g)
        assert len(starts) == min(gm._GREEDY_STARTS, len(g.reps))
        assert set(starts) <= set(g.reps.tolist())


def check_greedy_seed(g):
    """Each greedy start, and on small graphs every vertex, walks to the
    clique of the oracle's scan over all vertices, and the seed is the
    largest oracle clique over the seed's starts."""
    if not g.num_vertices:
        return
    rows, degs = g.rows(), g.degrees()
    by_degree = np.argsort(-degs, kind="stable")
    seed_starts = g.reps[np.argsort(-degs[g.reps], kind="stable")]
    seed_starts = seed_starts[:gm._GREEDY_STARTS].tolist()
    starts = set(seed_starts)
    if g.num_vertices <= 250:
        starts.update(range(g.num_vertices))
    want = {s: oracle_greedy_from(rows, s, by_degree) for s in starts}
    assert {s: gm._greedy_from(rows, degs, s) for s in starts} == want
    assert gm._greedy_best(g) == max((want[s] for s in seed_starts), key=len)


def test_greedy_seed_matches_vertex_scan_oracle():
    # the candidate walk adds the vertices a scan of the global degree
    # order adds, on every family sweep graph, the nilpotents of I(7) and
    # random graphs (every vertex its own class)
    for g in family_sweep():
        check_greedy_seed(g)
    check_greedy_seed(gm.build_graph(7, "nilpotent", center="ideal"))
    for nv, p, seed in ((120, 0.4, 3), (300, 0.6, 42), (400, 0.05, 5)):
        check_greedy_seed(synthetic_graph(nv, p, seed))


def test_clique_on_synthetic_graph():
    g = synthetic_graph(120, 0.4, seed=3)
    rows = g.rows()
    adj = {i: {j for j in range(g.num_vertices) if (rows[i] >> j) & 1}
           for i in range(g.num_vertices)}
    want, _ = brute_max_cliques(adj)
    size, wit = gm.clique_number(g)
    assert size == want


def check_against_every_vertex_roots(g, brute=False):
    """Class roots give the clique number and maximum cliques of the
    search with one root per vertex, and (``brute``) the maximum cliques
    Bron-Kerbosch finds.  The witness is one of those cliques; where the
    greedy seed falls short of the clique number it is the first better
    clique of each search's own order, so it may differ."""
    size, _, cliques = oracle_clique_search(g)
    got, wit = gm.clique_number(g)
    assert got == size and wit in cliques
    assert gm.maximum_cliques(g) == cliques
    if brute:
        nv, rows = g.num_vertices, g.rows()
        adj = {i: {j for j in range(nv) if (rows[i] >> j) & 1}
               for i in range(nv)}
        assert brute_max_cliques(adj) == (size, {frozenset(c)
                                                 for c in cliques})


def test_class_roots_match_every_vertex_roots():
    # every family sweep graph (as is, without row 0, and twinned, where
    # every vertex is its own class), the nilpotents of I(7) and three
    # random graphs
    for g in family_sweep():
        check_against_every_vertex_roots(g, brute=g.num_vertices <= 100)
    check_against_every_vertex_roots(
        gm.build_graph(7, "nilpotent", center="ideal"))
    for nv, p, seed in ((60, 0.5, 1), (120, 0.4, 3), (400, 0.05, 5)):
        check_against_every_vertex_roots(synthetic_graph(nv, p, seed),
                                         brute=nv <= 120)


def test_clique_search_gathers_only_local_graphs(monkeypatch):
    # Each root reads its local graph from the packed matrix: on the
    # nilpotents of I(6) no gather holds more than one root and the largest
    # root neighbourhood, 58 vertices, let alone the 1,170-vertex core.
    g = gm.build_graph(6, "nilpotent", center="ideal")
    sizes = []

    def gather(packed, rows, cols):
        sizes.append(len(rows))
        return _bulk.gather_packed(packed, rows, cols)

    monkeypatch.setattr(gm, "gather_packed", gather)
    gm.maximum_cliques(g)
    assert sizes and max(sizes) <= 59


def test_budget_trips_and_resume_completes():
    g = synthetic_graph(300, 0.6, seed=42)
    full_size, _ = gm.clique_number(g)
    with pytest.raises(gm.BudgetExceeded) as exc:
        gm.clique_number(g, budget_seconds=0.3)
    ckpt = exc.value.checkpoint
    assert ckpt is not None
    size, wit = gm.clique_number(g, resume=ckpt)
    assert size == full_size
    for a, b in itertools.combinations(wit, 2):
        assert g.adjacent(a, b)


def resume_to_end(call, max_trips):
    """Call ``call(checkpoint)`` until it returns, passing back each budget
    overrun's checkpoint; fail after ``max_trips`` overruns."""
    ckpt = None
    for _ in range(max_trips + 1):
        try:
            return call(ckpt)
        except gm.BudgetExceeded as exc:
            ckpt = exc.checkpoint
    raise AssertionError(f"no result after {max_trips} budget overruns")


def test_zero_budget_resume_makes_progress():
    # Both phases have a root branch on the random graph that outlasts any
    # zero budget; the nilpotents of I(6) have a root per class.  The
    # chains end at the every-vertex-root oracle's results; the witness is
    # the first better clique of the search's own order, one of the
    # oracle's maximum cliques.
    for g in (synthetic_graph(160, 0.65, seed=42),
              gm.build_graph(6, "nilpotent", center="ideal")):
        size, _, cliques = oracle_clique_search(g)
        max_trips = len(g.reps) + 1
        got, wit = resume_to_end(lambda ckpt: gm.clique_number(
            g, budget_seconds=0, resume=ckpt), max_trips)
        assert got == size and wit in cliques
        # a run of both phases resumes from a checkpoint of either
        assert resume_to_end(lambda ckpt: gm.maximum_cliques(
            g, budget_seconds=0, resume=ckpt), 2 * max_trips) == cliques


def test_zero_budget_resume_is_exact(monkeypatch):
    # A chain of budget-0 calls roots one representative per call, the
    # representatives of one unbudgeted call in its order, phase by phase,
    # and ends at its result, witness included.
    calls = []
    search = gm._search_roots

    def recorded(*args):
        try:
            found, rooted = search(*args)
        except gm.BudgetExceeded as exc:
            calls.append((list(exc.checkpoint.rooted), exc.checkpoint.left))
            raise
        calls.append((rooted, 0))
        return found, rooted

    monkeypatch.setattr(gm, "_search_roots", recorded)
    for g in (gm.build_graph(6, "nilpotent", center="ideal"),
              synthetic_graph(160, 0.65, seed=42)):
        for call in (gm.clique_number, gm.maximum_cliques):
            calls.clear()
            whole = call(g)
            orders = [rooted for rooted, _ in calls]
            calls.clear()
            assert resume_to_end(lambda ckpt: call(
                g, budget_seconds=0, resume=ckpt), 2 * len(g.reps)) == whole
            phases, cur = [], []
            for rooted, left in calls:
                cur.append(rooted)
                if not left:
                    phases.append(cur)
                    cur = []
            assert [phase[-1] for phase in phases] == orders
            assert all(len(rooted) == k + 1 for phase in phases
                       for k, rooted in enumerate(phase))


def test_checkpoint_of_another_graph_is_rejected():
    # the rooted vertices of a checkpoint must be a prefix of the phase's
    # root order: not past the graph's last vertex, nor a class member
    # other than its class's representative, nor two representatives in
    # the reverse of that order (least core degree first, then lowest)
    g = gm.build_graph(4, "nilpotent", center="ideal")
    member = int(np.flatnonzero(g.reps[g.inverse] != np.arange(
        g.num_vertices))[0])
    core = oracle_core_mask(g.packed, 1)
    words = pack_bool_rows(core[None, :], len(core))[0]
    degs = np.bitwise_count(g.packed & words).sum(axis=1)
    reps = [int(r) for r in g.reps if core[r]]
    first, second = sorted(reps, key=lambda r: (degs[r], r))[:2]
    for rooted in ((g.num_vertices,), (member,), (second, first)):
        for call, ckpt in (
                (gm.clique_number,
                 gm.CliqueCheckpoint(rooted, 1, None, ((0,),))),
                (gm.maximum_cliques,
                 gm.CliqueCheckpoint(rooted, 1, 2, ()))):
            with pytest.raises(ValueError,
                               match="checkpoint does not match this graph"):
                call(g, resume=ckpt)
    # an enumeration checkpoint whose target is below the clique number,
    # 6 here, meets a larger clique
    with pytest.raises(ValueError,
                       match="checkpoint does not match this graph"):
        gm.maximum_cliques(g, resume=gm.CliqueCheckpoint((), 1, 2, ()))
    # a clique_number checkpoint holds at least the seed
    for ckpt in (gm.CliqueCheckpoint((), 1, None, ()),
                 gm.CliqueCheckpoint((), 1, 2, ())):
        with pytest.raises(ValueError, match="not from a clique_number run"):
            gm.clique_number(g, resume=ckpt)


def test_both_clique_phases_share_one_deadline(monkeypatch):
    # A fake clock that moves only when the clique number is done: the
    # enumeration must find the deadline already passed.
    clock = [0.0]
    monkeypatch.setattr(gm.time, "perf_counter", lambda: clock[0])
    clique_number = gm.clique_number

    def slow_clique_number(*args, **kwargs):
        result = clique_number(*args, **kwargs)
        clock[0] += 10.0
        return result

    monkeypatch.setattr(gm, "clique_number", slow_clique_number)
    g = synthetic_graph(120, 0.6, seed=11)
    with pytest.raises(gm.BudgetExceeded) as exc:
        gm.maximum_cliques(g, budget_seconds=5.0)
    ckpt = exc.value.checkpoint
    assert ckpt.phase == "enum"
    assert len(ckpt.rooted) == 1
    assert gm.maximum_cliques(g, resume=ckpt) == gm.maximum_cliques(g)
    # the extremal search runs both phases under its one budget too
    with pytest.raises(gm.BudgetExceeded) as exc:
        max_commutative_nilpotent(5, budget_seconds=5.0)
    assert exc.value.checkpoint.phase == "enum"


def test_budget_message_reports_progress():
    # done/total counts the root branches done and the classes still in
    # the core when the budget ran out, all read from the checkpoint
    assert str(gm.BudgetExceeded(None)) == "time budget exceeded"
    bare = gm.CliqueCheckpoint((3, 0), 4, 5, ((0, 1, 2, 3, 4),))
    assert str(gm.BudgetExceeded(bare)) == (
        "time budget exceeded after 2/6 root branches;"
        " 1 cliques of size 5 found so far")

    def first_enum_trip(g):
        ckpt = None
        while ckpt is None or ckpt.phase == "max":
            with pytest.raises(gm.BudgetExceeded) as exc:
                gm.maximum_cliques(g, budget_seconds=0, resume=ckpt)
            ckpt = exc.value.checkpoint
        return str(exc.value)

    # every vertex of the random graph is its own class and in the core;
    # the nilpotents of I(6) have 5 classes in the core, each rooted once
    for g, size, total, found in (
            (synthetic_graph(120, 0.6, seed=11), 12, 120, 1),
            (gm.build_graph(6, "nilpotent", center="ideal"), 33, 5, 0)):
        with pytest.raises(gm.BudgetExceeded) as exc:
            gm.clique_number(g, budget_seconds=0)
        assert str(exc.value) == (
            f"time budget exceeded after 1/{total} root branches;"
            f" best clique so far has {size} vertices")
        assert first_enum_trip(g) == (
            f"time budget exceeded after 1/{total} root branches;"
            f" {found} cliques of size {size} found so far")


# -- persistence and exports -------------------------------------------------------


def test_save_load_round_trip(full_graphs, tmp_path):
    g = full_graphs(4)
    path = tmp_path / "g4.bin"
    gm.save_packed(g, path)
    h = gm.load_packed(path)
    assert (h.packed == g.packed).all() and (h.ids == g.ids).all()
    assert h.imgs.dtype == g.imgs.dtype and (h.imgs == g.imgs).all()
    assert h.label == g.label and h.center_ids == g.center_ids
    assert h.n == g.n
    assert gm.diameter(h).value == 4


def test_load_detects_corruption(full_graphs, tmp_path):
    g = full_graphs(3)
    path = tmp_path / "g3.bin"
    gm.save_packed(g, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        gm.load_packed(bad)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(path.read_bytes()[: len(blob) // 2])
    with pytest.raises(ValueError):
        gm.load_packed(cut)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError):
        gm.load_packed(junk)
    magic_only = tmp_path / "magic.bin"
    magic_only.write_bytes(b"ICGR")
    with pytest.raises(ValueError):
        gm.load_packed(magic_only)
    # Checksummed files whose top vertex ID is past the end of I(3); -1 is
    # stored as 2**64 - 1, which must not wrap round to a valid index.
    for top in (monoid_order(3), -1):
        ids = g.ids.copy()
        ids[-1] = top
        far = tmp_path / "far.bin"
        gm.save_packed(gm.CommutingGraph(3, ids, g.imgs, g.packed,
                                           (g.reps, g.inverse, g.maps)), far)
        with pytest.raises(ValueError, match="out of range"):
            gm.load_packed(far)


def test_exports(full_graphs, tmp_path):
    # byte for byte: one node line per vertex, then each edge once as the
    # element IDs u < v, ascending, read from the unpacked adjacency
    g = full_graphs(4)
    dot = tmp_path / "g.dot"
    csv = tmp_path / "g.csv"
    gm.export_dot(g, dot)
    gm.export_edge_csv(g, csv)
    dense = np.unpackbits(g.packed.view(np.uint8), axis=1,
                          bitorder="little")[:, :g.num_vertices]
    i, j = np.nonzero(np.triu(dense, 1))
    pairs = list(zip(g.ids[i].tolist(), g.ids[j].tolist()))
    assert len(pairs) == g.num_edges()
    nodes = "".join(
        f'  e{e} [label="{format_element(g.vertex_element(k))}"];\n'
        for k, e in enumerate(g.ids.tolist()))
    edges = "".join(f"  e{u} -- e{v};\n" for u, v in pairs)
    assert dot.read_text() == f'graph "{g.label}" {{\n{nodes}{edges}}}\n'
    assert csv.read_text() == "".join(f"{u},{v}\n" for u, v in pairs)
