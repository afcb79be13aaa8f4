import itertools
import math
import tracemalloc

import numpy as np
import pytest

from invsemi import _bulk
from invsemi import graph as gm
from invsemi._bulk import (adjacency_packed, conjugacy_classes, decode,
                           elements_matrix, iter_matrix_chunks,
                           monoid_decoder, pack_bool_rows, row_element)
from invsemi.commute import iter_permutation_centralizer_chunks
from invsemi.construct import max_commutative_nilpotent
from invsemi.pinj import (PInj, UNDEF, decompose, element_from_id,
                          element_id, monoid_order, stratum_sizes)

from helpers import (brute_adjacency, brute_components, brute_distance,
                     brute_eccentricity, brute_max_cliques,
                     dense_adjacency_packed)


def graph_elements(g):
    return [g.vertex_element(i) for i in range(g.num_vertices)]


def synthetic_graph(nv, p, seed, n=6):
    rng = np.random.default_rng(seed)
    mat = np.triu(rng.random((nv, nv)) < p, 1)
    mat = mat | mat.T
    packed = pack_bool_rows(mat, nv)
    ids = np.arange(nv, dtype=np.int64)
    imgs = np.full((nv, n), n, dtype=np.int8)
    return gm.CommutingGraph(n, ids, imgs, packed, (), f"rand{nv}")


# -- bulk element matrices ---------------------------------------------------------


def test_elements_matrix_counts():
    for n in (1, 2, 3, 4):
        ids, mat = elements_matrix(n)
        assert len(ids) == monoid_order(n)
        assert mat.shape == (monoid_order(n), n)
        back = [element_from_id(n, int(i)) for i in ids]
        for e, row in zip(back, mat):
            assert [x if x != n else -1 for x in row] == list(e.img)


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
        packed = adjacency_packed(mat)
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
    """``adjacency_packed(mat)``, the number of rows it compared densely
    against the whole matrix, and its tracemalloc peak in bytes."""
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
            packed = adjacency_packed(mat)
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
CENTERS = ("monoid", "ideal", "group", "none")


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
    reps, inverse, pulls = _bulk._orbits(_bulk._conjugation_maps(mat),
                                         len(mat))
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
    # rows are built from their parents in blocks; blocks of 1 and 5 rows
    # cut every step's row list at many places
    monkeypatch.setattr(_bulk, "_ADJACENCY_BLOCK", block)
    for n in range(6):
        for filt in FILTERS:
            for max_rank in (None, *range(1, n)):
                ids, mat = elements_matrix(n, filt, max_rank)
                for rows in (mat, mat[ids != 0]):
                    check_forest(rows)
                    check_kernel(n, rows, True, monkeypatch)


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
                    reps, inverse = conjugacy_classes(rows)
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


def test_adjacency_kernel_full_n6(full_graphs, monkeypatch):
    g = full_graphs(6)
    packed = check_kernel(6, g.imgs, True, monkeypatch)
    assert packed.tobytes() == g.packed.tobytes()


def test_adjacency_kernel_nilpotent_n7(monkeypatch):
    ids, mat = elements_matrix(7, "nilpotent")
    mat = mat[ids != 0]
    reps, _ = conjugacy_classes(mat)
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


def check_against_all_source(g, closed):
    """Eccentricities and the diameter's value, pair and geodesic equal the
    all-source route; conjugation-closed graphs use one BFS source per
    type, the others one per vertex."""
    want_ecc, want_reached, far = all_source_bfs(g)
    ecc, reached = gm.eccentricities(g)
    assert (ecc == want_ecc).all() and (reached == want_reached).all()
    sources, _ = conjugacy_classes(g.imgs)
    assert len(sources) == (row_types(g.n, g.imgs) if closed
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
        check_against_all_source(ideal_graphs(n, r), closed=True)


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
    classes = len(conjugacy_classes(g.imgs)[0])
    assert classes == 17
    calls = []
    bfs = gm._bfs

    def counted(*args, **kwargs):
        calls.append(args[2])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(gm, "_bfs", counted)
    assert gm.diameter(g).value == 3
    assert len(calls) == classes + 1


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


def test_maximum_cliques_of_empty_graph():
    g = gm.build_graph(1, "nilpotent", center="ideal")
    assert g.num_vertices == 0
    assert gm.clique_number(g) == (0, ())
    assert gm.maximum_cliques(g) == [()]


def test_clique_on_synthetic_graph():
    g = synthetic_graph(120, 0.4, seed=3)
    rows = g.rows()
    adj = {i: {j for j in range(g.num_vertices) if (rows[i] >> j) & 1}
           for i in range(g.num_vertices)}
    want, _ = brute_max_cliques(adj)
    size, wit = gm.clique_number(g)
    assert size == want


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
    # Both phases have a root branch here that outlasts any zero budget.
    g = synthetic_graph(160, 0.65, seed=42)
    size, wit = gm.clique_number(g)
    cliques = gm.maximum_cliques(g)
    assert {len(c) for c in cliques} == {size}
    max_trips = g.num_vertices + 1
    assert resume_to_end(lambda ckpt: gm.clique_number(
        g, budget_seconds=0, resume=ckpt), max_trips) == (size, wit)
    # a run of both phases resumes from a checkpoint of either
    assert resume_to_end(lambda ckpt: gm.maximum_cliques(
        g, budget_seconds=0, resume=ckpt), 2 * max_trips) == cliques


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
    assert len(ckpt.order) - len(ckpt.roots_remaining) == 1
    assert gm.maximum_cliques(g, resume=ckpt) == gm.maximum_cliques(g)
    # the extremal search runs both phases under its one budget too
    with pytest.raises(gm.BudgetExceeded) as exc:
        max_commutative_nilpotent(5, budget_seconds=5.0)
    assert exc.value.checkpoint.phase == "enum"


def test_budget_message_reports_progress():
    assert str(gm.BudgetExceeded(None)) == "time budget exceeded"
    g = synthetic_graph(120, 0.6, seed=11)
    size, _ = gm.clique_number(g)
    with pytest.raises(gm.BudgetExceeded) as exc:
        gm.clique_number(g, budget_seconds=0)
    ckpt = exc.value.checkpoint
    total = len(ckpt.order)
    done = total - len(ckpt.roots_remaining)
    assert 1 <= done < total
    assert str(exc.value) == (
        f"time budget exceeded after {done}/{total} root branches;"
        f" best clique so far has {len(ckpt.best)} vertices")
    ckpt = None
    while ckpt is None or ckpt.phase == "max":
        with pytest.raises(gm.BudgetExceeded) as exc:
            gm.maximum_cliques(g, budget_seconds=0, resume=ckpt)
        ckpt = exc.value.checkpoint
    assert ckpt.target == size
    total = len(ckpt.order)
    done = total - len(ckpt.roots_remaining)
    assert 1 <= done < total and ckpt.found
    assert str(exc.value) == (
        f"time budget exceeded after {done}/{total} root branches;"
        f" {len(ckpt.found)} cliques of size {ckpt.target} found so far")


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
        gm.save_packed(gm.CommutingGraph(3, ids, g.imgs, g.packed), far)
        with pytest.raises(ValueError, match="out of range"):
            gm.load_packed(far)


def test_exports(full_graphs, tmp_path):
    g = full_graphs(3)
    dot = tmp_path / "g.dot"
    csv = tmp_path / "g.csv"
    gm.export_dot(g, dot)
    gm.export_edge_csv(g, csv)
    text = dot.read_text()
    assert text.startswith("graph") and text.rstrip().endswith("}")
    assert text.count(" -- ") == g.num_edges()
    lines = [ln for ln in csv.read_text().splitlines() if ln]
    assert len(lines) == g.num_edges()
    a, b = lines[0].split(",")
    assert int(a) >= 0 and int(b) >= 0
