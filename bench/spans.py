"""Per-layer spans for ``locc``, installed from outside the package.

Each traced function is replaced, by name, on its defining module and on
every ``locc`` module that imported the name (``locc.cli.decompose`` as well
as ``locc.algebra.decompose``), so calls through either path are seen.  A
call records a span ``(name, start, end, parent)`` in memory; a layer's self
time is its span's duration minus the durations of its child spans.  A name
that no longer exists is skipped and reports zero calls.

``Graph.has_edge`` is counted, without a span, while the sender search is
the innermost open span, but only by a tracer made with ``count_edges``:
the counter runs about a million times per ``product_graphs`` pass and its
cost lands in the sender search's self time, so the caller takes times from
passes without it and the count from passes with it.  ``networkx.find_cliques`` gets a span over the
whole enumeration and a count of the maximal cliques it yields.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: Traced public functions, by ``locc`` module.
SPANNED = {
    "cli": ("main",),
    "io": ("load_state_set_file", "load_protocol_file", "load_graph_file"),
    "pauli": ("to_dense",),
    "core": ("require_unitaries", "verify_witness_states", "verify_witness_isometry"),
    "algebra": (
        "check_simultaneous_schmidt",
        "build_operator_system",
        "decide_by_algebra",
        "algebra_closure",
        "decompose",
        "find_separating_vector",
        "is_separating",
        "check_permutation_states",
    ),
    "graphs": (
        "graph_from_vectors",
        "decide_qubit_sender",
        "extract_qubit_protocol",
        "minimum_clique_cover",
    ),
    "oracles": ("simulate_one_way_protocol",),
}
CLIQUES = "networkx.find_cliques"
SENDER = "graphs.decide_qubit_sender"
EDGE_PROBES = "graphs.Graph.has_edge.calls"
S0_BUILDERS = ("algebra.check_simultaneous_schmidt", "algebra.build_operator_system",
               "algebra.decide_by_algebra")
IMPORTS = ("locc", "numpy", "networkx")


def metric_specs() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    specs = [(f"import.{m}_ms", "ms") for m in IMPORTS]
    for mod, names in SPANNED.items():
        for name in names:
            specs += [(f"{mod}.{name}.calls", "count"), (f"{mod}.{name}.self_ms", "ms")]
    specs += [
        (EDGE_PROBES, "count"),
        (f"{CLIQUES}.self_ms", "ms"),
        (f"{CLIQUES}.cliques", "count"),
        ("algebra.s0_builds_per_decide", "ratio"),
        ("algebra.is_separating.calls_per_vector", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_ms", "ms"),
    ]
    return specs


class Tracer:
    """Spans and counts of one traced pass; ``install``/``uninstall`` swap
    the wrappers in and out of the loaded modules."""

    def __init__(self, count_edges: bool = False) -> None:
        self.count_edges = count_edges
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self.stack: list[int] = []
        self.counts = {EDGE_PROBES: 0, f"{CLIQUES}.cliques": 0}
        self._restore: list[tuple[object, str, object]] = []

    # recording ----------------------------------------------------------

    def _open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1, tag])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            tag = args[0][0] if name == "cli.main" and args and args[0] else None
            idx = self._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _generator_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.counts[f"{name}.cliques"] += 1
                    yield item
            finally:
                self._close(idx)

        return traced

    def _counting_method(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def has_edge(graph, u, v):
            if stack and spans[stack[-1]][0] == SENDER:
                counts[EDGE_PROBES] += 1
            return fn(graph, u, v)

        return has_edge

    # installing ---------------------------------------------------------

    def _replace_everywhere(self, prefix: str, orig, wrapper) -> None:
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == prefix or mname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod, names in SPANNED.items():
            module = sys.modules.get(f"locc.{mod}")
            for name in names:
                orig = getattr(module, name, None)
                if orig is not None:
                    self._replace_everywhere("locc", orig, self._span_wrapper(f"{mod}.{name}", orig))
        graph = getattr(sys.modules.get("locc.graphs"), "Graph", None)
        if self.count_edges and graph is not None and hasattr(graph, "has_edge"):
            self._restore.append((graph, "has_edge", graph.has_edge))
            graph.has_edge = self._counting_method(graph.has_edge)
        nx = sys.modules.get("networkx")
        if nx is not None and hasattr(nx, "find_cliques"):
            orig = nx.find_cliques
            self._replace_everywhere("networkx", orig, self._generator_wrapper(CLIQUES, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # reporting ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (imports and overhead are
        filled in by the caller)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        root = []
        for i, (_, _, _, parent, _) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])

        out = {name: 0.0 for name, _ in metric_specs()}
        out.update(self.counts)
        for i, (name, start, end, _, _) in enumerate(spans):
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (end - start - child_time[i]) * 1000

        decides = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[4] == "decide"]
        in_decide = {i for i in range(len(spans)) if spans[root[i]][4] == "decide"}
        builds = sum(1 for i in in_decide if spans[i][0] in S0_BUILDERS)
        out["algebra.s0_builds_per_decide"] = builds / len(decides) if decides else 0.0

        samplers = [i for i in in_decide if spans[i][0] == "algebra.find_separating_vector"]
        draws = {i: 0 for i in samplers}
        for name, _, _, parent, _ in spans:
            if name == "algebra.is_separating" and parent in draws:
                draws[parent] += 1
        found = [n for n in draws.values() if n]
        out["algebra.is_separating.calls_per_vector"] = sum(found) / len(found) if found else 0.0
        out["trace.spans"] = float(len(spans))
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) of each top-level package in ``IMPORTS``
    from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in IMPORTS and parts[1].isdigit():
            out[f"import.{parts[2]}_ms"] = int(parts[1]) / 1000
    return out
