"""Commuting graphs of element families, and exact algorithms on them.

Vertices are elements (stable element IDs, ascending), edges join distinct
commuting elements, and declared central elements are excluded up front.
Adjacency lives in a bit-packed uint64 matrix; breadth-first searches run
over Python-int rows (word-parallel OR).  The clique solver seeds with one
greedy clique per class representative, each a walk over its start's
neighbours only, then proves optimality by branch-and-bound with greedy
coloring bounds (Tomita & Seki's MCQ) on one small local graph per class
root, read from the packed matrix.  Each phase peels whole classes once,
then roots the survivors in one order, least degree first (a stand-in for
the degeneracy order of Eppstein, Löffler & Strash).  A graph keeps the
conjugacy classes and the two conjugation maps its build found
(conjugation is a graph automorphism): degrees, the peel, the greedy
starts, the clique roots and the BFS sources read one row per class, and
the enumerated maximum cliques are closed under the maps.

Everything here is deterministic: vertex order is ID order, path
reconstruction always picks the lowest-index predecessor, and clique
results come out sorted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._bulk import (adjacency_packed, elements_matrix, gather_packed,
                    orbit_forest, pack_bool_rows, row_element)
from .commute import commutes_naive
from .construct import count_elements
from .pinj import PInj, element_id, format_element

__all__ = [
    "INFINITY",
    "BudgetExceeded",
    "CliqueCheckpoint",
    "PathWitness",
    "DistanceResult",
    "CommutingGraph",
    "graph_from_matrix",
    "build_graph",
    "induced_subgraph",
    "distance",
    "eccentricities",
    "diameter",
    "components",
    "clique_number",
    "maximum_cliques",
    "export_dot",
    "export_edge_csv",
]

INFINITY = math.inf

# Hard ceiling on materialized vertex sets; big enough for every supported
# family (full monoid through n = 6, nilpotents through n = 7).
VERTEX_CAP = 50_000

# Greedy seeds of the clique search: one per class, highest degree first.
_GREEDY_STARTS = 48


class BudgetExceeded(RuntimeError):
    """A time budget ran out; ``checkpoint`` resumes where work stopped."""

    def __init__(self, checkpoint):
        msg = "time budget exceeded"
        if checkpoint is not None:
            done, found = len(checkpoint.rooted), checkpoint.found
            msg += f" after {done}/{done + checkpoint.left} root branches; "
            if checkpoint.phase == "max":
                msg += f"best clique so far has {len(found[-1])} vertices"
            else:
                msg += (f"{len(found)} cliques of size"
                        f" {checkpoint.target} found so far")
        super().__init__(msg)
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class CliqueCheckpoint:
    """Resumable state of a clique phase, at root-branch granularity.

    ``rooted`` are the class representatives whose root branches are
    done, a prefix of the phase's root order, and ``left`` counts the
    roots of that order not yet done.  ``found`` holds vertex-index
    cliques: in the ``clique_number`` phase (``target`` None) the seed
    and then each better clique, in the enumeration the cliques of
    ``target`` vertices found, before ``maximum_cliques`` closes them
    under conjugation.
    """

    rooted: tuple
    left: int
    target: int | None
    found: tuple

    @property
    def phase(self) -> str:
        return "max" if self.target is None else "enum"


@dataclass(frozen=True)
class PathWitness:
    """A concrete path: consecutive elements commute and all are distinct."""

    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, excluded=()) -> None:
        vs = self.vertices
        if not vs:
            raise AssertionError("empty path")
        if len(set(vs)) != len(vs):
            raise AssertionError("path repeats a vertex")
        for e in vs:
            if e.n != vs[0].n:
                raise AssertionError("mixed ground sizes in path")
        for banned in excluded:
            if banned in vs:
                raise AssertionError(
                    f"excluded element {format_element(banned)} on path")
        for a, b in zip(vs, vs[1:]):
            if not commutes_naive(a, b):
                raise AssertionError(
                    f"consecutive elements {format_element(a)} and "
                    f"{format_element(b)} do not commute")

    def __repr__(self):
        return " - ".join(format_element(e) for e in self.vertices)


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance or diameter query.

    ``value`` is a hop count, or ``INFINITY`` when no path exists, in which
    case ``components`` carries the vertex-index components.  ``pair``
    holds the element IDs of the endpoints that attain the value.
    """

    value: float
    pair: tuple | None = None
    path: PathWitness | None = None
    components: tuple | None = field(default=None, compare=False)


class CommutingGraph:
    """Bit-packed commuting graph over a fixed element family; ``classes``
    is (reps, inverse, maps) of its rows' ``_bulk.orbit_forest``."""

    __slots__ = ("n", "ids", "imgs", "packed", "reps", "inverse", "maps",
                 "center_ids", "label", "_rows", "_idmap")

    def __init__(self, n, ids, imgs, packed, classes, center_ids=(),
                 label=""):
        self.n = int(n)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.imgs = np.asarray(imgs, dtype=np.int8)
        self.packed = np.asarray(packed, dtype=np.uint64)
        self.reps, self.inverse, self.maps = classes
        self.center_ids = tuple(sorted(int(c) for c in center_ids))
        self.label = label
        self._rows = None
        self._idmap = None

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    def degrees(self) -> np.ndarray:
        """Per-vertex degree, counted on the representative rows."""
        return _peel(self, 0)[1][self.inverse]

    def num_edges(self) -> int:
        return int(self.degrees().sum()) // 2

    def vertex_element(self, i: int) -> PInj:
        return row_element(self.n, self.imgs[i])

    def index_of(self, x) -> int:
        """Vertex index of an element or element ID."""
        if self._idmap is None:
            self._idmap = {int(e): i for i, e in enumerate(self.ids)}
        eid = element_id(x) if isinstance(x, PInj) else int(x)
        try:
            return self._idmap[eid]
        except KeyError:
            raise KeyError(f"element ID {eid} is not a vertex") from None

    def adjacent(self, i: int, j: int) -> bool:
        return bool((int(self.packed[i, j >> 6]) >> (j & 63)) & 1)

    def rows(self) -> list:
        """Adjacency rows as Python ints (bit j set = adjacent to vertex j)."""
        if self._rows is None:
            self._rows = [int.from_bytes(r.tobytes(), "little")
                          for r in self.packed]
        return self._rows

    def __repr__(self):
        return (f"CommutingGraph({self.label or 'unlabeled'}: n={self.n}, "
                f"{self.num_vertices} vertices, {self.num_edges()} edges)")


# -- construction --------------------------------------------------------------


def graph_from_matrix(n, ids, mat, center_ids=(), label="",
                      vertex_cap=VERTEX_CAP) -> CommutingGraph:
    """Build the graph for the rows of ``mat`` (sentinel-n image tables),
    dropping any row whose ID is declared central."""
    ids = np.asarray(ids, dtype=np.int64)
    mat = np.asarray(mat, dtype=np.int8)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    if center_ids:
        keep = ~np.isin(ids, np.asarray(sorted(center_ids), dtype=np.int64))
        ids, mat = ids[keep], mat[keep]
    if len(ids) > vertex_cap:
        raise ValueError(f"{len(ids)} vertices exceeds cap {vertex_cap}")
    forest = orbit_forest(mat)
    packed = adjacency_packed(mat, forest)
    return CommutingGraph(n, ids, mat, packed, forest[:3], center_ids, label)


def build_graph(n: int, filt: str = "all", max_rank=None, center="monoid",
                label=None, vertex_cap=VERTEX_CAP) -> CommutingGraph:
    """Materialize a commuting graph over a standard element family.

    ``center`` names what to exclude: "monoid" drops the zero map and the
    identity, "ideal" drops only zero (right for proper ideals, whose
    center is trivial), "group" drops only the identity; or pass explicit
    element IDs / elements (``()`` keeps everything).  A family that
    exceeds ``vertex_cap`` even with every center dropped is rejected
    before any element is enumerated.
    """
    identity_id = element_id(PInj.identity(n))
    if center == "monoid":
        center_ids = (0, identity_id)
    elif center == "ideal":
        center_ids = (0,)
    elif center == "group":
        center_ids = (identity_id,)
    else:
        center_ids = tuple(element_id(c) if isinstance(c, PInj) else int(c)
                           for c in center)
    if label is None:
        scope = filt if max_rank is None else f"{filt}-rank{max_rank}"
        label = f"{scope}-n{n}"
    least = count_elements(n, filt, max_rank) - len(center_ids)
    if least > vertex_cap:
        raise ValueError(f"at least {least} vertices exceeds cap {vertex_cap}")
    ids, mat = elements_matrix(n, filt, max_rank)
    return graph_from_matrix(n, ids, mat, center_ids, label, vertex_cap)


def induced_subgraph(g: CommutingGraph, keep, label=None) -> CommutingGraph:
    """Subgraph on a subset of vertices (indices or a boolean mask), with
    the classes and maps ``orbit_forest`` finds on the kept rows."""
    keep = np.asarray(keep)
    if keep.dtype == bool:
        keep = np.flatnonzero(keep)
    else:
        keep = np.unique(keep)
    imgs = g.imgs[keep]
    return CommutingGraph(g.n, g.ids[keep], imgs,
                          gather_packed(g.packed, keep, keep),
                          orbit_forest(imgs)[:3], g.center_ids,
                          label or f"{g.label}-induced")


# -- breadth-first machinery ----------------------------------------------------


def _bit_indices(mask: int, nbits: int) -> np.ndarray:
    buf = mask.to_bytes((nbits + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(buf, np.uint8),
                                        bitorder="little"))


def _bfs(rows, nverts, src, until_bit=None):
    """Level masks from ``src``; optionally stop once a bit is reached."""
    seen = cur = 1 << src
    levels = [cur]
    while True:
        nxt = 0
        for v in _bit_indices(cur, nverts):
            nxt |= rows[v]
        nxt &= ~seen
        if not nxt:
            return levels, seen
        levels.append(nxt)
        seen |= nxt
        if until_bit is not None and (nxt >> until_bit) & 1:
            return levels, seen
        cur = nxt


def _backtrack(rows, levels, dst):
    path = [dst]
    cur = dst
    for k in range(len(levels) - 2, -1, -1):
        m = rows[cur] & levels[k]
        cur = (m & -m).bit_length() - 1
        path.append(cur)
    return path[::-1]


def distance(g: CommutingGraph, a, b) -> DistanceResult:
    """Shortest commuting path between two vertices, with a witness path.

    ``a`` and ``b`` are elements or element IDs.  A result of INFINITY
    carries the graph's components instead of a path.
    """
    ia, ib = g.index_of(a), g.index_of(b)
    pair = (int(g.ids[ia]), int(g.ids[ib]))
    if ia == ib:
        return DistanceResult(0, pair, PathWitness((g.vertex_element(ia),)))
    rows = g.rows()
    levels, seen = _bfs(rows, g.num_vertices, ia, until_bit=ib)
    if not (seen >> ib) & 1:
        return DistanceResult(INFINITY, pair, None, tuple(components(g)))
    verts = _backtrack(rows, levels, ib)
    path = PathWitness(tuple(g.vertex_element(v) for v in verts))
    return DistanceResult(len(verts) - 1, pair, path)


def eccentricities(g: CommutingGraph):
    """Per-vertex (eccentricity over reached set, reached count), as two
    arrays.

    On a vertex set closed under conjugation, conjugation is a graph
    automorphism, so BFS results are constant on each conjugacy class and
    one BFS from the class's representative, ``g.reps``, serves the whole
    class; otherwise every vertex is its own class and its own source.
    The classes are the ones the graph's build found (``g.inverse``).
    """
    nverts = g.num_vertices
    rows = g.rows()
    out = np.empty((2, len(g.reps)), dtype=np.int64)
    for k, s in enumerate(g.reps):
        levels, seen = _bfs(rows, nverts, int(s))
        out[:, k] = len(levels) - 1, seen.bit_count()
    return tuple(out[:, g.inverse])


def components(g: CommutingGraph):
    """Vertex-index components, largest first (ties by smallest index)."""
    nverts = g.num_vertices
    rows = g.rows()
    left = (1 << nverts) - 1
    comps = []
    while left:
        src = (left & -left).bit_length() - 1
        _, seen = _bfs(rows, nverts, src)
        comps.append(_bit_indices(seen, nverts))
        left &= ~seen
    comps.sort(key=lambda c: (-len(c), int(c[0])))
    return comps


def diameter(g: CommutingGraph) -> DistanceResult:
    """Exact diameter with an attaining geodesic.

    The pair starts at the lowest-index vertex of largest eccentricity and
    ends at the lowest-index vertex farthest from it.  Disconnected graphs
    report INFINITY and the component list, never the largest component's
    diameter.
    """
    nverts = g.num_vertices
    if nverts == 0:
        raise ValueError("empty graph has no diameter")
    ecc, reached = eccentricities(g)
    if reached[0] < nverts:
        return DistanceResult(INFINITY, None, None, tuple(components(g)))
    rows = g.rows()
    src = int(np.argmax(ecc))
    levels, _ = _bfs(rows, nverts, src)
    dst = int(_bit_indices(levels[-1], nverts)[0])
    verts = _backtrack(rows, levels, dst)
    path = PathWitness(tuple(g.vertex_element(v) for v in verts))
    return DistanceResult(int(ecc[src]), (int(g.ids[src]), int(g.ids[dst])),
                          path)


# -- exact maximum clique -------------------------------------------------------


def _peel(g: CommutingGraph, floor: int):
    """Iterated peel of the classes: drop whole classes with fewer than
    ``floor`` kept neighbours until none is left.  Returns the kept
    classes (a bool mask over ``g.reps``) and their degrees among them (0
    for the others); they hold every clique above ``floor``.  A class's
    degree is counted on its representative's row, which is exact for
    every member: the kept vertices are a union of classes, which
    conjugation maps onto itself."""
    keep = np.ones(len(g.reps), dtype=bool)
    while True:
        alive = pack_bool_rows(keep[g.inverse][None, :], g.num_vertices)[0]
        degs = np.zeros(len(keep), dtype=np.int64)
        degs[keep] = np.bitwise_count(g.packed[g.reps[keep]]
                                      & alive).sum(axis=1)
        if (degs[keep] >= floor).all():
            return keep, degs
        keep = keep & (degs >= floor)


def _greedy_from(rows, degs, start):
    """Greedy clique through ``start``: each step adds the candidate of
    highest degree, lowest index on ties.  Candidates are neighbours of
    the start, so one pass over those, in that order, adds them in turn."""
    clique = [start]
    cand = rows[start]
    nbrs = _bit_indices(cand, len(degs))
    for v in nbrs[np.argsort(-degs[nbrs], kind="stable")].tolist():
        if (cand >> v) & 1:
            clique.append(v)
            cand &= rows[v]
    return clique


def _greedy_best(g: CommutingGraph):
    """Largest greedy clique from the ``_GREEDY_STARTS`` class
    representatives of highest degree.  Conjugation is an automorphism, so
    a clique through any vertex has a conjugate through its class's
    representative."""
    rows, degs = g.rows(), g.degrees()
    starts = g.reps[np.argsort(-degs[g.reps], kind="stable")]
    return max((_greedy_from(rows, degs, int(s))
                for s in starts[:_GREEDY_STARTS]), key=len)


def _color_sort(p_mask: int, rows):
    """Greedy coloring of candidates; returns vertices and color numbers in
    ascending color order (the color is an upper bound for the clique
    inside that prefix)."""
    order = []
    colors = []
    uncolored = p_mask
    c = 0
    while uncolored:
        c += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~(rows[v] | low)
            uncolored ^= low
            order.append(v)
            colors.append(c)
    return order, colors


class _CliqueRun:
    """Shared state of one branch-and-bound pass over a graph's rows.

    A branch is pruned once its coloring bound cannot beat ``floor``, and
    ``found`` collects every leaf above it.  In max mode (``target``
    None) ``floor`` is the incumbent size and rises to each leaf found,
    so the last find is the best, and ``found`` is empty unless this pass
    itself improved on the initial floor (the caller's seed clique may
    live outside the searched graph).  In enum mode ``floor`` is
    ``target - 1``.
    """

    def __init__(self, rows, floor, target=None):
        self.rows = rows
        self.floor = floor
        self.target = target
        self.deadline = None
        self.found = []
        self.nodes = 0

    def expand(self, cur, p_mask):
        self.nodes += 1
        if self.deadline is not None and self.nodes % 2048 == 0:
            if time.perf_counter() > self.deadline:
                raise _OutOfTime()
        if not p_mask:
            if len(cur) > self.floor:
                if self.target is None:
                    self.floor = len(cur)
                elif len(cur) > self.target:
                    raise ValueError("checkpoint does not match this graph")
                self.found.append(tuple(cur))
            return
        order, colors = _color_sort(p_mask, self.rows)
        for j in range(len(order) - 1, -1, -1):
            if len(cur) + colors[j] <= self.floor:
                return
            v = order[j]
            cur.append(v)
            self.expand(cur, p_mask & self.rows[v])
            cur.pop()
            p_mask &= ~(1 << v)


class _OutOfTime(Exception):
    pass


def _search_roots(g, found, target, resume, deadline):
    """One clique phase: each clique above the floor as it raises it
    (``target`` None; ``found`` starts with the seed and ends with the
    best), or every clique of ``target`` vertices, appended to
    ``found``.  Peel whole classes once, at the phase's first floor,
    then root the surviving classes in one order, least degree first,
    lowest representative on ties: search the local graph of each
    class's representative r, which is r and its neighbours in r's class
    and the classes after it, gathered from the packed matrix.  Exact:
    the floor only rises, so a clique above it survives the peel;
    conjugate it so that its member in its first rooted class is r, and
    the rest lies in r's local graph.  A ``resume`` recomputes the order
    and skips the representatives rooted before.  Returns ``found`` and
    the order.  The first root always runs to the end; the clock is read
    before each later root and every 2048 nodes inside one, and a budget
    overrun drops the unfinished root's finds.
    """
    first = len(found[0]) if target is None else target - 1
    keep, degs = _peel(g, first)
    order = g.reps[keep][np.argsort(degs[keep], kind="stable")].tolist()
    rooted = [] if resume is None else [int(r) for r in resume.rooted]
    if order[:len(rooted)] != rooted:
        raise ValueError("checkpoint does not match this graph")
    floor = len(found[-1]) if target is None else first
    # each vertex's class place in the order (-1: peeled), padded to words
    place = np.full(len(g.reps), -1)
    place[g.inverse[order]] = np.arange(len(order))
    place = np.pad(place[g.inverse], (0, -len(g.ids) % 64), constant_values=-1)
    # the vertices by class place, and where each place's run starts
    members = np.argsort(place, kind="stable")
    starts = np.searchsorted(place[members], np.arange(len(order) + 1))
    # the vertices of the classes not rooted yet, packed like a row
    alive = np.packbits(place >= len(rooted),
                        bitorder="little").view(np.uint64)
    late = None
    try:
        for k in range(len(rooted), len(order)):
            if late is not None and time.perf_counter() > late:
                raise _OutOfTime()
            r = order[k]
            nbrs = g.packed[r] & alive
            done = members[starts[k]:starts[k + 1]]
            np.bitwise_and.at(alive, done >> 6, ~(
                np.uint64(1) << (done & 63).astype(np.uint64)))
            words = np.flatnonzero(nbrs)
            word, bit = np.nonzero(np.unpackbits(
                nbrs[words].view(np.uint8), bitorder="little").reshape(-1, 64))
            local = words[word] * 64 + bit
            # the other members of a clique above the floor through r have
            # ``floor - 1`` or more neighbours among r's: skip r if too few
            if (np.bitwise_count(g.packed[np.ix_(local, words)]
                                 & nbrs[words]).sum(axis=1)
                    >= floor - 1).sum() >= floor:
                local = np.concatenate(([r], local))
                block = gather_packed(g.packed, local, local)
                run = _CliqueRun([int.from_bytes(row.tobytes(), "little")
                                  for row in block], floor, target)
                run.deadline = late
                run.expand([0], run.rows[0])
                found += [tuple(sorted(local[list(clique)].tolist()))
                          for clique in run.found]
                floor = run.floor
            late = deadline
    except _OutOfTime:
        raise BudgetExceeded(CliqueCheckpoint(
            tuple(order[:k]), len(order) - k, target, tuple(found))) from None
    return found, order


def _conjugates(maps, cliques):
    """The cliques and their images under every product of the maps, as
    sorted tuples without duplicates, sorted."""
    seen = set(cliques)
    todo = list(seen)
    while todo:
        batch, todo = np.array(todo), []
        for m in maps:
            for clique in map(tuple, np.sort(m[batch], axis=1).tolist()):
                if clique not in seen:
                    seen.add(clique)
                    todo.append(clique)
    return sorted(seen)


def clique_number(g: CommutingGraph, budget_seconds=None,
                  resume: CliqueCheckpoint | None = None):
    """Exact clique number and one maximum clique (vertex indices).

    Seeds with one greedy clique per class representative (the
    ``_GREEDY_STARTS`` of highest degree), each a walk over its start's
    neighbours that adds the candidate of highest degree, lowest index on
    ties, until none is left; then proves optimality by branch and bound
    on one local graph per class root (see ``_search_roots``), the floor
    rising with each better clique.  A budget overrun raises
    BudgetExceeded carrying a checkpoint; pass it back as ``resume``.
    Each call finishes at least one root branch, so it can overrun its
    budget by at most one branch and a resumed run always completes, with
    the result of an unbudgeted call.
    """
    if not g.num_vertices:
        return 0, ()
    deadline = (time.perf_counter() + budget_seconds
                if budget_seconds is not None else None)
    if resume is not None and (resume.phase != "max" or not resume.found):
        raise ValueError("checkpoint is not from a clique_number run")
    found = ([tuple(sorted(_greedy_best(g)))] if resume is None
             else list(resume.found))
    best = _search_roots(g, found, None, resume, deadline)[0][-1]
    return len(best), best


def maximum_cliques(g: CommutingGraph, budget_seconds=None,
                    resume: CliqueCheckpoint | None = None):
    """Every maximum clique, as sorted tuples of vertex indices, sorted
    lexicographically; an empty graph has the one clique ``()``.

    Finds the clique number with ``clique_number``, then enumerates the
    cliques of that size on the class roots' local graphs, which meet
    every conjugation orbit of maximum cliques (see ``_search_roots``),
    and closes the finds under the graph's conjugation maps, which
    generate S_n.  Both phases share one deadline.  A budget overrun
    raises BudgetExceeded carrying a checkpoint from whichever phase was
    running, whose finds are not yet closed; pass it back as ``resume``.
    Each phase finishes at least one root branch per call, so a call can
    overrun its budget by at most one root branch per phase.
    """
    deadline = (time.perf_counter() + budget_seconds
                if budget_seconds is not None else None)
    if resume is None or resume.phase == "max":
        left = None if deadline is None else deadline - time.perf_counter()
        size, _ = clique_number(g, budget_seconds=left, resume=resume)
        if not size:
            return [()]
        resume, found = None, []
    else:
        size, found = resume.target, list(resume.found)
    found, _ = _search_roots(g, found, size, resume, deadline)
    found = _conjugates(g.maps, found)
    adj = g.rows()
    for clique in found:
        mask = sum(1 << v for v in clique)
        if any(adj[v] & mask != mask ^ (1 << v) for v in clique):
            raise AssertionError("enumerated set is not a clique")
    return found


# -- export ---------------------------------------------------------------------


def _edge_ids(g: CommutingGraph):
    """Element-ID pair (u, v) of each edge, u < v, ascending."""
    ids = g.ids.tolist()
    for i, row in enumerate(g.rows()):
        for j in _bit_indices(row >> (i + 1) << (i + 1), len(ids)).tolist():
            yield ids[i], ids[j]


def export_dot(g: CommutingGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f'graph "{g.label}" {{\n')
        for i in range(g.num_vertices):
            name = format_element(g.vertex_element(i))
            fh.write(f'  e{int(g.ids[i])} [label="{name}"];\n')
        fh.writelines(f"  e{u} -- e{v};\n" for u, v in _edge_ids(g))
        fh.write("}\n")


def export_edge_csv(g: CommutingGraph, path) -> None:
    """One ``u,v`` element-ID pair per line, u < v, ascending; no header,
    so the line count equals the edge count."""
    with open(path, "w") as fh:
        fh.writelines(f"{u},{v}\n" for u, v in _edge_ids(g))
