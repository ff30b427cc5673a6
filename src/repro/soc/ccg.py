"""The core connectivity graph (CCG) as an inspectable weighted digraph.

Nodes (paper Figure 9): chip PIs and POs, and per-core input/output port
*slices* (ports split where their fanin/fanout or transparency structure
splits them).  Edges:

* transparency edges inside a core (weight = transparency latency), and
* interconnect wires between cores / pins (weight 0).

The planner in :mod:`repro.soc.plan` performs its own recursive search
(with resource serialization the plain graph cannot express), but the
CCG is the right object for visualization, reachability analysis, and
the shortest-path intuition of Section 5.1 -- and the tests assert its
shape matches the paper's figure for the barcode system.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import METRICS, profile_section
from repro.soc.system import Soc

NodeId = Tuple[str, ...]  # ("PI", pin) | ("PO", pin) | ("CI"/"CO", core, port, lo, width)

_CCG_BUILDS = METRICS.counter("chiplevel.ccg.builds")
_CCG_QUERIES = METRICS.counter("chiplevel.ccg.queries")
_CCG_EXPANSIONS = METRICS.counter("chiplevel.ccg.expansions")


class Ccg:
    """Adjacency-dict digraph; nodes and successors keep insertion order."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: node -> attributes (``kind``; chip pins also carry ``width``)
        self.nodes: Dict[NodeId, Dict[str, Any]] = {}
        #: node -> successor -> edge attributes (``weight``, ``kind``)
        self.succ: Dict[NodeId, Dict[NodeId, Dict[str, Any]]] = {}

    def add_node(self, node: NodeId, **attrs: Any) -> None:
        if node not in self.nodes:
            self.nodes[node] = {}
            self.succ[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, source: NodeId, dest: NodeId, **attrs: Any) -> None:
        self.add_node(source)
        self.add_node(dest)
        self.succ[source].setdefault(dest, {}).update(attrs)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, Dict[str, Any]]]:
        for source, successors in self.succ.items():
            for dest, attrs in successors.items():
                yield source, dest, attrs


def build_ccg(soc: Soc, selection: Optional[Dict[str, int]] = None) -> Ccg:
    """Build the CCG for one version selection (default: all version 0)."""
    with profile_section("chiplevel.ccg", soc=soc.name):
        _CCG_BUILDS.inc()
        return _build_ccg(soc, selection)


def _build_ccg(soc: Soc, selection: Optional[Dict[str, int]] = None) -> Ccg:
    if selection is None:
        selection = {core.name: 0 for core in soc.testable_cores()}
    graph = Ccg(name=f"ccg:{soc.name}")

    for pin, width in soc.chip_inputs.items():
        graph.add_node(("PI", pin), width=width, kind="PI")
    for pin, width in soc.chip_outputs.items():
        graph.add_node(("PO", pin), width=width, kind="PO")

    # core port slice nodes from transparency edges + interconnect
    for core in soc.testable_cores():
        version = core.version(selection.get(core.name, 0))
        for port in core.circuit.inputs:
            graph.add_node(("CI", core.name, port.name, 0, port.width), kind="CI")
        for edge in version.edges:
            graph.add_node(
                ("CO", core.name, edge.output, edge.output_lo, edge.output_width),
                kind="CO",
            )
        for edge in version.edges:
            graph.add_edge(
                ("CI", core.name, edge.input_port, 0, core.port_width(edge.input_port)),
                ("CO", core.name, edge.output, edge.output_lo, edge.output_width),
                weight=edge.latency,
                kind="transparency",
            )

    # interconnect edges (weight 0); output-slice nodes may need matching
    for net in soc.nets:
        source = _find_source_node(graph, soc, net)
        dest = _find_dest_node(graph, soc, net)
        if source is not None and dest is not None:
            graph.add_edge(source, dest, weight=0, kind="wire")
    return graph


def _find_source_node(graph: Ccg, soc: Soc, net) -> Optional[NodeId]:
    if net.source.core is None:
        node = ("PI", net.source.port)
        return node if node in graph.nodes else None
    # find a CO slice node overlapping the net's source slice
    for node in graph.nodes:
        if node[0] != "CO" or node[1] != net.source.core or node[2] != net.source.port:
            continue
        lo, width = node[3], node[4]
        if lo < net.source.hi and net.source.lo < lo + width:
            return node
    return None


def _find_dest_node(graph: Ccg, soc: Soc, net) -> Optional[NodeId]:
    if net.dest.core is None:
        node = ("PO", net.dest.port)
        return node if node in graph.nodes else None
    for node in graph.nodes:
        if node[0] == "CI" and node[1] == net.dest.core and node[2] == net.dest.port:
            return node
    return None


def _dijkstra(
    graph: Ccg, source: NodeId, target: NodeId
) -> Optional[Tuple[int, List[NodeId]]]:
    """Min-weight ``source`` -> ``target`` path, or None when unreachable.

    Ties break deterministically: the heap orders ``(dist, push counter,
    node)``, successors are relaxed in insertion order, and a path is
    replaced only by a strictly shorter one.
    """
    if source == target:
        return 0, [source]
    counter = itertools.count()
    dist: Dict[NodeId, int] = {}
    seen = {source: 0}
    paths = {source: [source]}
    fringe = [(0, next(counter), source)]
    while fringe:
        d, _, node = heapq.heappop(fringe)
        if node in dist:
            continue
        dist[node] = d
        if node == target:
            return d, paths[node]
        for succ, attrs in graph.succ[node].items():
            cost = d + attrs["weight"]
            if succ not in dist and (succ not in seen or cost < seen[succ]):
                seen[succ] = cost
                paths[succ] = paths[node] + [succ]
                heapq.heappush(fringe, (cost, next(counter), succ))
    return None


def shortest_justification(
    graph: Ccg, target: NodeId
) -> Optional[Tuple[int, List[NodeId]]]:
    """Min-latency path from any PI to ``target`` (Dijkstra, Section 5.1).

    Returns (cost, node list) or None when the target is unreachable --
    the situation that calls for a system-level test multiplexer.  The
    first PI (in node order) with the strictly lowest cost wins.
    """
    _CCG_QUERIES.inc()
    best: Optional[Tuple[int, List[NodeId]]] = None
    for node, data in graph.nodes.items():
        if data.get("kind") != "PI":
            continue
        found = _dijkstra(graph, node, target)
        if found is None:
            continue
        cost, path = found
        _CCG_EXPANSIONS.inc(len(path))
        if best is None or cost < best[0]:
            best = (int(cost), path)
    return best
