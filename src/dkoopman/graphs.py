"""Undirected communication topology and its graph Laplacian.

Vertices are 0-indexed. Graphs are immutable after construction and edge
weights are fixed at -1 (unweighted Laplacian): off-diagonal entries are
-1 on edges and 0 otherwise, diagonal entries equal the vertex degree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import as_count, require_integer


class GraphError(ValueError):
    """Invalid graph construction (self-loop, out-of-range vertex, bad format)."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected communication graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on p vertices; edges stored once as (i, j) with i < j."""

    p: int
    edges: tuple[tuple[int, int], ...]


def build_graph(p: int, edges) -> Graph:
    """Validate, deduplicate, and canonically order an edge list."""
    require_integer("vertex count", p, GraphError)
    if p < 1:
        raise GraphError(f"vertex count must be a positive integer, got {p!r}")
    normalized = set()
    for edge in edges:
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise GraphError(f"edge {edge!r} is not a vertex pair") from None
        for vertex in (i, j):
            require_integer("vertex id", vertex, GraphError)
        i, j = int(i), int(j)
        if i == j:
            raise GraphError(f"self-loop ({i}, {j}) not allowed")
        if not (0 <= i < p and 0 <= j < p):
            raise GraphError(f"edge ({i}, {j}) out of range for p={p}")
        normalized.add((min(i, j), max(i, j)))
    return Graph(int(p), tuple(sorted(normalized)))


def is_connected(graph: Graph | np.ndarray) -> bool:
    """Breadth-first reachability of every vertex from vertex 0.

    A Laplacian array counts its nonzero off-diagonal entries as edges.
    """
    if isinstance(graph, Graph):
        p, edges = graph.p, graph.edges
    else:
        p = graph.shape[0]
        edges = zip(*np.nonzero(np.triu(graph, 1)))
    adjacency = [[] for _ in range(p)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == p


def laplacian(graph: Graph) -> np.ndarray:
    """L = D - A with unit edge weights, read-only; rows sum to zero exactly."""
    L = np.zeros((graph.p, graph.p))
    for i, j in graph.edges:
        L[i, j] = -1.0
        L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
    L.setflags(write=False)
    return L


PRESETS = ("ring", "path", "complete", "star")


def preset_graph(name: str, p: int) -> Graph:
    """Named topology: ring, path, complete, or star on p vertices."""
    if name == "ring":
        edges = [(i, (i + 1) % p) for i in range(p)] if p >= 3 else [(0, 1)] if p == 2 else []
    elif name == "path":
        edges = [(i, i + 1) for i in range(p - 1)]
    elif name == "complete":
        edges = [(i, j) for i in range(p) for j in range(i + 1, p)]
    elif name == "star":
        edges = [(0, i) for i in range(1, p)]
    else:
        raise GraphError(f"unknown graph preset {name!r}; choose from {PRESETS}")
    return build_graph(p, edges)


def parse_graph_text(text: str) -> Graph:
    """The graph of its text form: first line p, then one 'i j' line per
    edge, in ASCII digits alone."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    try:
        p = as_count(lines[0])
    except ValueError:
        raise GraphError(f"first line must be the vertex count, got {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        try:
            i, j = map(as_count, ln.split())
        except ValueError:  # not two integers
            raise GraphError(f"edge line must be 'i j', got {ln!r}") from None
        edges.append((i, j))
    return build_graph(p, edges)
