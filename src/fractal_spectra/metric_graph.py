"""Weighted metric graphs and their finite-difference discretization.

A finite-level approximation of a projective-limit fractal is represented as
a weighted metric graph: edges carry a length and a measure density (the
weight of the sheet they belong to).  Discretizing every edge at a common
pitch h yields a lumped-mass generalized eigenproblem A v = lambda M v with
Kirchhoff (natural) conditions at unmarked vertices and eliminated rows at
Dirichlet vertices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NonDividingPitch,
    NotPositiveMass,
)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: relative tolerance for the rational-pitch divisibility rule and for
#: mass-conservation checks
REL_TOL = 1e-12


class MetricGraph:
    """Connected weighted metric graph (multigraph; parallel edges allowed),
    held as arrays.

    Edge k joins vertices ``ends[k, 0]`` and ``ends[k, 1]``; it has length
    ``length[k]`` and measure density ``weight[k]`` (a scalar length or
    weight applies to every edge).  ``labels`` names the vertices, one
    distinct entry (or row) each; ``dirichlet`` marks the Dirichlet vertices.
    """

    def __init__(self, labels, ends, length, weight, dirichlet=None, total_mass=None):
        self.labels = np.asarray(labels)
        self.ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        n_edges = len(self.ends)
        self.length = np.broadcast_to(np.asarray(length, dtype=float), (n_edges,))
        self.weight = np.broadcast_to(np.asarray(weight, dtype=float), (n_edges,))
        n = len(self.labels)
        self.dirichlet = (np.zeros(n, dtype=bool) if dirichlet is None
                          else np.asarray(dirichlet, dtype=bool).reshape(n))
        self._validate(total_mass)

    def _validate(self, total_mass):
        n = self.n_vertices
        rows = self.labels if self.labels.ndim == 2 else self.labels[:, None]
        ordered = rows[np.lexsort(rows.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValueError("duplicate vertex label")
        if not (np.all(self.length > 0) and np.all(self.weight > 0)):
            raise ValueError("edge lengths and weights must be positive")
        if np.any((self.ends < 0) | (self.ends >= n)):
            raise ValueError("edge endpoint out of range")
        u, v = self.ends.T
        adjacency = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
        if n > 0 and connected_components(adjacency, directed=False)[0] != 1:
            raise DisconnectedGraph("metric graph is not connected")
        if total_mass is not None:
            m = self.total_measure()
            if abs(m - total_mass) > REL_TOL * max(1.0, abs(total_mass)):
                raise ValueError(f"total measure {m} != declared mass {total_mass}")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def total_measure(self) -> float:
        return float(np.sum(self.length * self.weight))

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> str:
        doc = {"labels": self.labels.tolist(), "dirichlet": self.dirichlet.tolist(),
               "ends": self.ends.tolist(), "length": self.length.tolist(),
               "weight": self.weight.tolist()}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricGraph":
        doc = json.loads(text)
        return cls(doc["labels"], doc["ends"], doc["length"], doc["weight"], doc["dirichlet"])


@dataclass
class Mesh:
    """Discretization of a MetricGraph at a common pitch.

    Nodes are numbered vertices first, then the interior nodes of every edge,
    edge after edge.  ``vertex_nodes[vi]`` is the node of vertex vi, or -1
    for an eliminated Dirichlet vertex; edge e is cut into ``segments[e]``
    cells, and its interior nodes, from u towards v, are ``edge_start[e]``
    onward.
    """

    graph: MetricGraph
    pitch: float
    masses: np.ndarray
    vertex_nodes: np.ndarray = field(repr=False)
    segments: np.ndarray = field(repr=False)
    edge_start: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.masses)


def _node_numbers(drop: np.ndarray) -> np.ndarray:
    """Consecutive numbers for the entries not dropped, -1 for dropped ones."""
    return np.where(drop, -1, np.cumsum(~drop) - 1)


def _laplacian(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Weighted Laplacian of the node pairs (a[k], b[k]) with conductances
    c[k], where -1 marks an eliminated node whose couplings reach only the
    diagonal.  Returns (A as CSR, its diagonal).

    ``np.add.at`` sums in index order, pair by pair and a before b, so the
    bits are those of a loop over the pairs; the off-diagonal entries enter
    the COO matrix in that order too.
    """
    tips = np.stack([a, b], axis=1).ravel()
    conductance = np.repeat(c, 2)
    live = tips >= 0
    diag = np.zeros(n)
    np.add.at(diag, tips[live], conductance[live])
    both = (a >= 0) & (b >= 0)
    rows = np.stack([a[both], b[both]], axis=1).ravel()
    cols = np.stack([b[both], a[both]], axis=1).ravel()
    off = sp.coo_matrix((-np.repeat(c[both], 2), (rows, cols)), shape=(n, n))
    return (off.tocsr() + sp.diags(diag)).tocsr(), diag


def discretize(g: MetricGraph, h: float) -> Mesh:
    """Subdivide every edge at pitch h and lump the measure into node masses.

    Interior nodes on edge e get mass h*weight(e); a surviving vertex gets the
    half-cell mass (h/2)*weight(e) from each incident edge end, summed in
    edge order.  Dirichlet vertices carry no node.
    """
    if h <= 0:
        raise NonDividingPitch("pitch must be positive")
    length = g.length
    r = length / h
    segments = np.rint(r).astype(np.int64)
    bad = np.flatnonzero((segments < 1) | (np.abs(r - segments) > REL_TOL * np.maximum(1.0, r)))
    if len(bad):
        e = bad[0]
        raise NonDividingPitch(
            f"pitch {h} does not divide edge length {length[e]} (ratio {r[e]})"
        )

    vertex_nodes = _node_numbers(g.dirichlet)
    n_vertex_nodes = int(np.count_nonzero(~g.dirichlet))
    inner = segments - 1
    edge_start = n_vertex_nodes + np.cumsum(inner) - inner

    cell = h * g.weight
    masses = np.zeros(n_vertex_nodes + int(inner.sum()))
    masses[n_vertex_nodes:] = np.repeat(cell, inner)
    tips = vertex_nodes[g.ends].ravel()  # u, v of edge 0, then of edge 1, ...
    half = np.repeat(cell / 2, 2)
    np.add.at(masses, tips[tips >= 0], half[tips >= 0])

    return Mesh(graph=g, pitch=h, masses=masses, vertex_nodes=vertex_nodes,
                segments=segments, edge_start=edge_start)


@dataclass
class DiscreteOperator:
    """Stiffness/lumped-mass pencil (A, M) for A v = lambda M v."""

    A: sp.csr_matrix
    M: np.ndarray  # diagonal of the mass matrix
    kept_vertices: np.ndarray | None = None  # graph vertex of each row (graph_operator only)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def validate(self):
        if np.any(self.M <= 0):
            raise NotPositiveMass("mass matrix has non-positive entries")
        d = (self.A - self.A.T).tocoo()
        if len(d.data) and np.max(np.abs(d.data)) > 0:
            raise ValueError("stiffness matrix is not symmetric")


def assemble(m: Mesh) -> DiscreteOperator:
    """Assemble the generalized pencil from a mesh.

    Each pair of consecutive nodes along an edge couples with conductance
    weight(e)/h.  Couplings to eliminated Dirichlet nodes contribute to the
    diagonal only.  Accumulation order is fixed by edge index, so results are
    bit-identical across runs.
    """
    ends = m.graph.ends
    # the cells of each edge in order from u to v: cell `step` runs from
    # node a to node b, the first from u's node and the last to v's
    edge = np.repeat(np.arange(len(m.segments)), m.segments)
    step = np.arange(len(edge)) - np.repeat(np.cumsum(m.segments) - m.segments, m.segments)
    a = np.where(step == 0, m.vertex_nodes[ends[edge, 0]], m.edge_start[edge] + step - 1)
    b = np.where(step == m.segments[edge] - 1, m.vertex_nodes[ends[edge, 1]],
                 m.edge_start[edge] + step)
    A, _ = _laplacian(m.n_nodes, a, b, (m.graph.weight / m.pitch)[edge])
    return DiscreteOperator(A=A, M=m.masses.copy())


def graph_operator(g: MetricGraph, boundary: str | None = None) -> DiscreteOperator:
    """Weighted graph-Laplacian pencil on the vertices of g.

    A is the weighted combinatorial Laplacian (edge lengths ignored), M the
    weighted degree, so the pencil eigenvalues are those of the probabilistic
    Laplacian I - D^{-1}W.  Used for the gasket-based spaces, whose continuum
    Laplacian is defined by decimation limits rather than edge-wise FD.

    ``boundary`` overrides vertex markings: "dirichlet" eliminates all marked
    vertices, None keeps everything (Neumann).
    """
    drop = g.dirichlet & (boundary == DIRICHLET)
    pos = _node_numbers(drop)
    A, deg = _laplacian(int(np.count_nonzero(~drop)), pos[g.ends[:, 0]], pos[g.ends[:, 1]],
                        g.weight)
    return DiscreteOperator(A=A, M=deg, kept_vertices=np.flatnonzero(~drop))


def dirichlet_energy(d: DiscreteOperator, v: np.ndarray) -> float:
    """Quadratic energy v^T A v of a mesh vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d.n,):
        raise DimensionMismatch(f"vector of length {v.shape} vs {d.n} nodes")
    return float(v @ (d.A @ v))
