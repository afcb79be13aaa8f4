"""Commuting graphs of element families, and exact algorithms on them.

Vertices are elements (stable element IDs, ascending), edges join distinct
commuting elements, and declared central elements are excluded up front.
Adjacency lives in a bit-packed uint64 matrix; breadth-first searches run
over Python-int rows (word-parallel OR), and the clique solver is a
branch-and-bound with greedy coloring bounds over the same bitsets, with
k-core peeling in numpy to shrink hard instances first.

Everything here is deterministic: vertex order is ID order, path
reconstruction always picks the lowest-index predecessor, and clique
results come out sorted.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from ._bulk import (adjacency_packed, conjugacy_classes, decode,
                    elements_matrix, monoid_decoder, pack_bool_rows,
                    row_element)
from .commute import commutes_naive
from .construct import count_elements
from .pinj import PInj, element_from_id, element_id, format_element

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
    "save_packed",
    "load_packed",
]

INFINITY = math.inf

# Hard ceiling on materialized vertex sets; big enough for every supported
# family (full monoid through n = 6, nilpotents through n = 7).
VERTEX_CAP = 50_000

_FORMAT_MAGIC = b"ICGR"
_FORMAT_VERSION = 2
_FORMAT_HEAD = "<BHQHH"  # version, n, vertex count, center count, label length


class BudgetExceeded(RuntimeError):
    """A time budget ran out; ``checkpoint`` resumes where work stopped."""

    def __init__(self, checkpoint):
        msg = "time budget exceeded"
        if checkpoint is not None:
            total = len(checkpoint.order)
            done = total - len(checkpoint.roots_remaining)
            msg += f" after {done}/{total} root branches; "
            if checkpoint.phase == "max":
                msg += f"best clique so far has {len(checkpoint.best)} vertices"
            else:
                msg += (f"{len(checkpoint.found)} cliques of size"
                        f" {checkpoint.target} found so far")
        super().__init__(msg)
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class CliqueCheckpoint:
    """Resumable state of a clique run, at root-branch granularity.

    ``order`` is the vertex relabeling in effect (original indices in
    search order); ``roots_remaining`` are positions in that order whose
    branches still need work.  ``best``/``found`` hold original indices.
    """

    phase: str
    order: tuple
    roots_remaining: tuple
    best: tuple
    target: int | None
    found: tuple


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
    """Bit-packed commuting graph over a fixed element family."""

    __slots__ = ("n", "ids", "imgs", "packed", "center_ids", "label",
                 "_rows", "_idmap")

    def __init__(self, n, ids, imgs, packed, center_ids=(), label=""):
        self.n = int(n)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.imgs = np.asarray(imgs, dtype=np.int8)
        self.packed = np.asarray(packed, dtype=np.uint64)
        self.center_ids = tuple(sorted(int(c) for c in center_ids))
        self.label = label
        self._rows = None
        self._idmap = None

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    def degrees(self) -> np.ndarray:
        return np.bitwise_count(self.packed).sum(axis=1, dtype=np.int64)

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
    packed = adjacency_packed(mat)
    return CommutingGraph(n, ids, mat, packed, center_ids, label)


def build_graph(n: int, filt: str = "all", max_rank=None, center="monoid",
                label=None, vertex_cap=VERTEX_CAP) -> CommutingGraph:
    """Materialize a commuting graph over a standard element family.

    ``center`` names what to exclude: "monoid" drops the zero map and the
    identity, "ideal" drops only zero (right for proper ideals, whose
    center is trivial), "group" drops only the identity, "none" keeps
    everything; or pass explicit element IDs / elements.  A family that
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
    elif center == "none":
        center_ids = ()
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


def _extract_packed(packed: np.ndarray, row_idx: np.ndarray,
                    col_idx: np.ndarray) -> np.ndarray:
    """Sub-adjacency for selected rows and (reordered) columns."""
    out_words = (len(col_idx) + 63) // 64
    out = np.empty((len(row_idx), out_words), dtype=np.uint64)
    step = max(1, (1 << 24) // max(1, packed.shape[1] * 64))
    for s in range(0, len(row_idx), step):
        chunk = row_idx[s:s + step]
        bits = np.unpackbits(packed[chunk].view(np.uint8), axis=1,
                             bitorder="little")[:, col_idx]
        out[s:s + len(chunk)] = pack_bool_rows(bits.astype(bool), len(col_idx))
    return out


def induced_subgraph(g: CommutingGraph, keep, label=None) -> CommutingGraph:
    """Subgraph on a subset of vertices (indices or a boolean mask)."""
    keep = np.asarray(keep)
    if keep.dtype == bool:
        keep = np.flatnonzero(keep)
    else:
        keep = np.unique(keep)
    packed = _extract_packed(g.packed, keep, keep)
    return CommutingGraph(g.n, g.ids[keep], g.imgs[keep], packed,
                          g.center_ids, label or f"{g.label}-induced")


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
    one BFS from its lowest-index member serves the whole class; otherwise
    every vertex is its own source.  The classes are the orbits of the
    conjugations by the two generators of S_n, found by pulling the
    lowest index along them; the adjacency build follows the same pulls,
    building each other row from the row it pulled from (see
    ``_bulk.conjugacy_classes``).
    """
    nverts = g.num_vertices
    rows = g.rows()
    sources, inverse = conjugacy_classes(g.imgs)
    ecc = np.empty(len(sources), dtype=np.int64)
    reached = np.empty(len(sources), dtype=np.int64)
    for k, s in enumerate(sources):
        levels, seen = _bfs(rows, nverts, int(s))
        ecc[k] = len(levels) - 1
        reached[k] = seen.bit_count()
    return ecc[inverse], reached[inverse]


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


def _alive_words(alive: np.ndarray) -> np.ndarray:
    return pack_bool_rows(alive[None, :], len(alive))[0]


def _core_mask(packed: np.ndarray, min_deg: int) -> np.ndarray:
    """Iterated peel: keep vertices with at least ``min_deg`` surviving
    neighbors.  Contains every clique on more than ``min_deg`` vertices."""
    alive = np.ones(packed.shape[0], dtype=bool)
    while True:
        aw = _alive_words(alive)
        idx = np.flatnonzero(alive)
        if not len(idx):
            return alive
        degs = np.bitwise_count(packed[idx] & aw[None, :]).sum(axis=1)
        drop = degs < min_deg
        if not drop.any():
            return alive
        alive[idx[drop]] = False


def _greedy_from(rows, start, by_degree):
    clique = [start]
    cand = rows[start]
    for v in by_degree:
        if (cand >> int(v)) & 1:
            clique.append(int(v))
            cand &= rows[int(v)]
    return clique


def _greedy_best(rows, degs, starts=48, within=None):
    by_degree = np.argsort(-degs, kind="stable")
    if within is not None:
        by_degree = by_degree[within[by_degree]]
    best = []
    for s in by_degree[:starts]:
        c = _greedy_from(rows, int(s), by_degree)
        if len(c) > len(best):
            best = c
    return best


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
    """Shared state of one branch-and-bound pass over a relabeled graph.

    A branch is pruned once its coloring bound cannot beat ``floor``.  In
    max mode (``target`` None) ``floor`` is the incumbent size and rises
    at each better leaf; ``best`` holds a witness only when this pass
    itself improved on the initial floor (the caller's seed clique may
    live outside the peeled subgraph).  In enum mode ``floor`` is
    ``target - 1`` and ``found`` collects every leaf above it.
    """

    def __init__(self, rows, floor, target=None):
        self.rows = rows
        self.floor = floor
        self.target = target
        self.deadline = None
        self.best = []
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
                    self.best = list(cur)
                elif len(cur) > self.target:
                    raise AssertionError("target below true clique number")
                else:
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


def _relabeled_rows(g, alive: np.ndarray):
    """Alive vertices as rows reordered by descending degree, and that
    order as a tuple of original indices."""
    idx = np.flatnonzero(alive)
    if not len(idx):
        return [], ()
    aw = _alive_words(alive)
    sub_degs = np.bitwise_count(g.packed[idx] & aw[None, :]).sum(axis=1)
    order = idx[np.lexsort((idx, -sub_degs))]
    packed = _extract_packed(g.packed, order, order)
    rows = [int.from_bytes(r.tobytes(), "little") for r in packed]
    return rows, tuple(order.tolist())


def _resumed_rows(g, resume: CliqueCheckpoint):
    """Rebuild the relabeled rows a checkpoint was taken over."""
    alive = np.zeros(g.num_vertices, dtype=bool)
    alive[np.asarray(resume.order, dtype=np.int64)] = True
    rows, order = _relabeled_rows(g, alive)
    if order != resume.order:
        raise ValueError("checkpoint does not match this graph")
    return rows, order


def _run_roots(rows, roots, floor, target, deadline):
    """Expand root branches in order; returns the run and the roots left
    unfinished when the deadline passed.

    The first root always runs to the end, so every call makes progress
    however small its budget.  The clock is read before each later root
    and every 2048 nodes inside one.  Cliques found in an unfinished root
    are dropped: resuming expands that root again from the start.
    """
    run = _CliqueRun(rows, floor, target)
    for pos, i in enumerate(roots):
        if pos and deadline is not None and time.perf_counter() > deadline:
            return run, tuple(roots[pos:])
        cand = rows[i] >> (i + 1) << (i + 1)
        kept = len(run.found)
        try:
            if 1 + cand.bit_count() > run.floor:
                run.expand([i], cand)
        except _OutOfTime:
            del run.found[kept:]
            return run, tuple(roots[pos:])
        run.deadline = deadline
    return run, ()


def clique_number(g: CommutingGraph, budget_seconds=None,
                  resume: CliqueCheckpoint | None = None):
    """Exact clique number and one maximum clique (vertex indices).

    Runs greedy seeding, peels to the seed-size core, then proves
    optimality by branch and bound.  A budget overrun raises
    BudgetExceeded carrying a checkpoint; pass it back as ``resume``.
    Each call finishes at least one root branch, so it can overrun its
    budget by at most one branch and a resumed run always completes.
    """
    if not g.num_vertices:
        return 0, ()
    deadline = (time.perf_counter() + budget_seconds
                if budget_seconds is not None else None)
    if resume is not None:
        if resume.phase != "max":
            raise ValueError("checkpoint is not from a clique_number run")
        rows, order = _resumed_rows(g, resume)
        best = sorted(resume.best)
        roots = resume.roots_remaining
    else:
        full_rows = g.rows()
        degs = g.degrees()
        seed = _greedy_best(full_rows, degs)
        while True:
            alive = _core_mask(g.packed, min_deg=len(seed))
            if not alive.any():
                break
            improved = _greedy_best(full_rows, degs, starts=16, within=alive)
            if len(improved) > len(seed):
                seed = improved
            else:
                break
        rows, order = _relabeled_rows(g, alive)
        best = sorted(int(v) for v in seed)
        roots = range(len(rows))
    run, unfinished = _run_roots(rows, roots, len(best), None, deadline)
    if run.best:
        best = sorted(order[i] for i in run.best)
    if unfinished:
        raise BudgetExceeded(CliqueCheckpoint(
            "max", order, unfinished, tuple(best), None, ()))
    return len(best), tuple(best)


def maximum_cliques(g: CommutingGraph, budget_seconds=None,
                    resume: CliqueCheckpoint | None = None):
    """Every maximum clique, as sorted tuples of vertex indices, sorted
    lexicographically; an empty graph has the one clique ``()``.

    Finds the clique number with ``clique_number``, then enumerates every
    clique of that size over the matching core.  Both phases share one
    deadline.  A budget overrun raises BudgetExceeded carrying a
    checkpoint from whichever phase was running; pass it back as
    ``resume``.  Each phase finishes at least one root branch per call,
    so a call can overrun its budget by at most one root branch per phase.
    """
    deadline = (time.perf_counter() + budget_seconds
                if budget_seconds is not None else None)
    if resume is None or resume.phase == "max":
        left = None if deadline is None else deadline - time.perf_counter()
        size, _ = clique_number(g, budget_seconds=left, resume=resume)
        if not size:
            return [()]
        alive = _core_mask(g.packed, min_deg=size - 1)
        rows, order = _relabeled_rows(g, alive)
        roots = range(len(rows))
        found = []
    else:
        size = resume.target
        rows, order = _resumed_rows(g, resume)
        roots = resume.roots_remaining
        found = list(resume.found)
    run, unfinished = _run_roots(rows, roots, size - 1, size, deadline)
    found += [tuple(sorted(order[i] for i in clique)) for clique in run.found]
    found.sort()
    if unfinished:
        raise BudgetExceeded(CliqueCheckpoint(
            "enum", order, unfinished, (), size, tuple(found)))
    for clique in found:
        for x in range(len(clique)):
            for y in range(x + 1, len(clique)):
                if not g.adjacent(clique[x], clique[y]):
                    raise AssertionError("enumerated set is not a clique")
    return found


# -- export and binary cache ----------------------------------------------------


def export_dot(g: CommutingGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f'graph "{g.label}" {{\n')
        for i in range(g.num_vertices):
            name = format_element(g.vertex_element(i))
            fh.write(f'  e{int(g.ids[i])} [label="{name}"];\n')
        for i in range(g.num_vertices):
            row = g.rows()[i]
            for j in _bit_indices(row, g.num_vertices):
                if j > i:
                    fh.write(f"  e{int(g.ids[i])} -- e{int(g.ids[j])};\n")
        fh.write("}\n")


def export_edge_csv(g: CommutingGraph, path) -> None:
    """One ``u,v`` element-ID pair per line, u < v, ascending; no header,
    so the line count equals the edge count."""
    with open(path, "w") as fh:
        for i in range(g.num_vertices):
            row = g.rows()[i]
            for j in _bit_indices(row, g.num_vertices):
                if j > i:
                    fh.write(f"{int(g.ids[i])},{int(g.ids[j])}\n")


def save_packed(g: CommutingGraph, path) -> None:
    """Binary cache: magic, version byte, n (2B LE), vertex count (8B LE),
    center count (2B LE), label length (2B LE), center IDs (8B LE each),
    label (utf-8), vertex IDs (8B LE each), packed adjacency rows (64-bit
    padded, row-major, little-endian words), then the sha256 digest of
    everything before it.  A .sha256 sidecar repeats the digest so the
    bytes can also be audited externally.
    """
    label = g.label.encode("utf-8")
    payload = bytearray(_FORMAT_MAGIC)
    payload += struct.pack(_FORMAT_HEAD, _FORMAT_VERSION, g.n, g.num_vertices,
                           len(g.center_ids), len(label))
    payload += np.array(g.center_ids, dtype="<u8").tobytes() + label
    payload += g.ids.astype("<u8").tobytes()
    payload += g.packed.astype("<u8").tobytes()
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(digest)
    with open(f"{path}.sha256", "w") as fh:
        fh.write(f"{digest.hex()}  {os.path.basename(str(path))}\n")


def load_packed(path) -> CommutingGraph:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _FORMAT_MAGIC:
        raise ValueError("not a packed commuting-graph file")
    if len(blob) < 32 + 19:
        raise ValueError(f"truncated packed graph file {path}")
    if blob[4] != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {blob[4]}")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError(f"checksum mismatch for {path}")
    side = f"{path}.sha256"
    if os.path.exists(side):
        with open(side) as fh:
            recorded = fh.read().split()[0]
        if digest.hex() != recorded:
            raise ValueError(f"sidecar checksum mismatch for {path}")
    _, n, nverts, ncenter, nlabel = struct.unpack_from(_FORMAT_HEAD, blob, 4)
    center_ids = np.frombuffer(payload, "<u8", count=ncenter, offset=19)
    off = 19 + 8 * ncenter
    label = payload[off:off + nlabel].decode("utf-8")
    off += nlabel
    ids = np.frombuffer(payload, dtype="<u8", count=nverts, offset=off)
    off += nverts * 8
    words = (nverts + 63) // 64
    expect = off + nverts * words * 8
    if len(payload) != expect:
        raise ValueError(f"truncated packed graph file {path}")
    packed = np.frombuffer(payload, dtype="<u8", count=nverts * words,
                           offset=off).reshape(nverts, words)
    packed = packed.astype(np.uint64)
    # Still unsigned here, the top ID bounds them all; element_from_id
    # rejects it if too big.
    element_from_id(n, int(ids.max()) if nverts else 0)
    imgs = decode(n, monoid_decoder(n), ids.astype(np.int64))
    return CommutingGraph(n, ids, imgs, packed, center_ids, label)
