"""Per-layer tracing of invsemi from outside the package.

``Tracer`` wraps public functions and methods of the invsemi modules for
the duration of a ``with`` block and restores them afterwards.  A module
function is replaced in every invsemi module namespace that binds it,
because ``graph``, ``witnesses``, ``construct`` and the package itself
import names at load time; a method is replaced on its class.

Every wrapped call adds to a count and a summed time; nothing is recorded
per call, and everything stays in memory until ``metrics()`` is read.
``.s`` is inclusive seconds and ``.self_s`` excludes the time of wrapped
callees.  ``PInj`` construction is only counted, since it is the hottest
call of all.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Every per-layer metric, in output order, with its unit.
METRICS = {}
for _name in ("bulk.elements_matrix.s", "bulk.adjacency_packed.s",
              "graph.graph_from_matrix.self_s", "graph.rows.s",
              "graph.eccentricities.s", "graph.diameter.self_s",
              "graph.clique_number.s", "graph.maximum_cliques.s",
              "construct.max_commutative_nilpotent.self_s",
              "construct.closure.s",
              "commute.iter_permutation_centralizer.s",
              "commute.CommuteChecker.commutes.s",
              "commute.permutation_joint_centralizer.s",
              "pinj.power.s", "pinj.decompose.s",
              "witnesses.verify_distance5.self_s",
              "witnesses.search_open.self_s", "witnesses.build_path.s"):
    METRICS[_name] = "s"
for _name in ("bulk.elements_matrix.rows", "bulk.adjacency_packed.pairs",
              "graph.eccentricities.vertices", "construct.closure.calls",
              "commute.CommuteChecker.commutes.calls",
              "commute.CommuteChecker.build.calls",
              "commute.commutes_naive.calls",
              "commute.permutation_joint_centralizer.calls",
              "commute.overlap_classes.calls", "pinj.PInj.new.calls",
              "pinj.power.calls", "pinj.decompose.calls",
              "pinj.compose.calls", "witnesses.build_path.calls"):
    METRICS[_name] = "count"
for _name in ("bulk.adjacency_packed.edge_yield",
              "commute.CommuteChecker.commutes.yield",
              "trace.overhead_frac"):
    METRICS[_name] = "ratio"
del _name

# Counts that are exact results of the computation rather than costs (the
# edge count, the clique size and the number of maximum cliques, the sizes
# of the closures checked, the centralizer order).  They are reported
# beside the metrics, with no better direction, so that a wrong, smaller
# answer cannot read as an improvement.
RESULTS = ("bulk.adjacency_packed.edges", "graph.clique_number.size",
           "graph.maximum_cliques.found", "construct.closure.elements",
           "commute.iter_permutation_centralizer.items")


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` after."""

    def __init__(self):
        self.stats = defaultdict(float)
        # Child-time accumulators of the wrapped calls now running; the
        # bottom entry stands for the caller outside any wrapped call.
        self._child = [0.0]
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn, after=None):
        stats, child = self.stats, self._child
        key_s, key_self = name + ".s", name + ".self_s"
        key_calls = name + ".calls"

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                stats[key_s] += dt
                stats[key_self] += dt - inner
                stats[key_calls] += 1
            if after is not None:
                # Counting after the call is tracing cost, not the caller's.
                t1 = perf_counter()
                after(stats, args, result)
                child[-1] += perf_counter() - t1
            return result

        return wrapper

    def _counted(self, name, fn):
        stats = self.stats
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        """Time spent producing items counts; time the consumer spends
        between items does not."""
        stats, child = self.stats, self._child
        key_s, key_items = name + ".s", name + ".items"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            stats[name + ".calls"] += 1
            try:
                while True:
                    child.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child.pop()
                        child[-1] += dt
                        stats[key_s] += dt
                    stats[key_items] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` wherever an invsemi module binds it."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "invsemi" and not modname.startswith("invsemi."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def __enter__(self):
        from invsemi import _bulk, commute, construct, graph, pinj, witnesses

        def rows(stats, args, ids_mat):
            stats["bulk.elements_matrix.rows"] += len(ids_mat[0])

        def adjacency(stats, args, packed):
            stats["bulk.adjacency_packed.pairs"] += packed.shape[0] ** 2
            stats["bulk.adjacency_packed.edges"] += (
                int(np.bitwise_count(packed).sum()) // 2)

        def vertices(stats, args, _result):
            stats["graph.eccentricities.vertices"] += args[0].num_vertices

        def size(stats, args, result):
            stats["graph.clique_number.size"] = max(
                stats["graph.clique_number.size"], result[0])

        def found(stats, args, result):
            stats["graph.maximum_cliques.found"] += len(result)

        def elements(stats, args, result):
            stats["construct.closure.elements"] += len(result)

        def hits(stats, args, result):
            stats["commute.CommuteChecker.commutes.hits"] += result

        functions = [
            (_bulk.elements_matrix, "bulk.elements_matrix", rows),
            (_bulk.adjacency_packed, "bulk.adjacency_packed", adjacency),
            (graph.graph_from_matrix, "graph.graph_from_matrix", None),
            (graph.eccentricities, "graph.eccentricities", vertices),
            (graph.diameter, "graph.diameter", None),
            (graph.clique_number, "graph.clique_number", size),
            (graph.maximum_cliques, "graph.maximum_cliques", found),
            (construct.max_commutative_nilpotent,
             "construct.max_commutative_nilpotent", None),
            (construct.closure, "construct.closure", elements),
            (commute.permutation_joint_centralizer,
             "commute.permutation_joint_centralizer", None),
            (pinj.power, "pinj.power", None),
            (pinj.decompose, "pinj.decompose", None),
            (witnesses.verify_distance5, "witnesses.verify_distance5", None),
            (witnesses.search_open, "witnesses.search_open", None),
            (witnesses.build_path, "witnesses.build_path", None),
        ]
        try:
            for fn, name, after in functions:
                self._rebind(fn, self._timed(name, fn, after))
            counted = ((commute.commutes_naive, "commute.commutes_naive"),
                       (commute.overlap_classes, "commute.overlap_classes"),
                       (pinj.compose, "pinj.compose"))
            for fn, name in counted:
                self._rebind(fn, self._counted(name, fn))
            it = commute.iter_permutation_centralizer
            self._rebind(it, self._generator(
                "commute.iter_permutation_centralizer", it))
            self._set(graph.CommutingGraph, "rows", self._timed(
                "graph.rows", graph.CommutingGraph.rows))
            checker = commute.CommuteChecker
            self._set(checker, "commutes", self._timed(
                "commute.CommuteChecker.commutes", checker.commutes, hits))
            self._set(checker, "__init__", self._counted(
                "commute.CommuteChecker.build", checker.__init__))
            self._set(pinj.PInj, "__init__", self._counted(
                "pinj.PInj.new", pinj.PInj.__init__))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_frac``, which
        needs an untraced run to compare against, and every count in
        ``RESULTS``."""
        st = self.stats
        out = {name: float(st.get(name, 0.0))
               for name in (*METRICS, *RESULTS)}
        pairs = st.get("bulk.adjacency_packed.pairs", 0)
        if pairs:
            out["bulk.adjacency_packed.edge_yield"] = (
                2 * st["bulk.adjacency_packed.edges"] / pairs)
        calls = st.get("commute.CommuteChecker.commutes.calls", 0)
        if calls:
            out["commute.CommuteChecker.commutes.yield"] = (
                st["commute.CommuteChecker.commutes.hits"] / calls)
        del out["trace.overhead_frac"]
        return out


# Metric-name prefixes each workload is meant to exercise; a traced run
# fails when one of them reads zero, so a wrapper that misses a rebinding
# cannot hide.
_EXERCISED = {
    "extremal-n6": (
        "bulk.", "graph.graph_from_matrix.", "graph.rows.",
        "graph.clique_number.", "graph.maximum_cliques.", "construct.",
        "pinj.PInj.new.", "pinj.compose.", "trace."),
    "ideal-diam-n6r3": (
        "bulk.", "graph.graph_from_matrix.", "graph.rows.",
        "graph.eccentricities.", "graph.diameter.", "trace."),
    "distance5-n25": (
        "commute.", "pinj.PInj.new.", "pinj.power.", "pinj.decompose.",
        "witnesses.verify_distance5.", "witnesses.build_path.", "trace."),
    "search-open-n15": (
        "commute.CommuteChecker.", "commute.commutes_naive.",
        "commute.permutation_joint_centralizer.",
        "commute.overlap_classes.", "pinj.PInj.new.", "pinj.power.",
        "pinj.decompose.", "witnesses.search_open.",
        "witnesses.build_path.", "trace."),
}


def exercised(workload: str) -> list:
    """The per-layer metrics and result counts that must read nonzero on
    ``workload``."""
    return [name for name in (*METRICS, *RESULTS)
            if name.startswith(_EXERCISED[workload])]
