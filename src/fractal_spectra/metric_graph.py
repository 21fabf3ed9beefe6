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


@dataclass(frozen=True)
class Vertex:
    """Graph vertex with its coordinate label.

    ``x`` is the base-point position (a float for interval-based spaces, a
    coordinate tuple for the gasket) and ``word`` the fiber word after
    collapsing glued coordinates.  ``boundary`` is None, "dirichlet" or
    "neumann".
    """

    x: object
    word: tuple = ()
    boundary: str | None = None


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    length: float
    weight: float


class MetricGraph:
    """Connected weighted metric graph (multigraph; parallel edges allowed)."""

    def __init__(self, vertices, edges, total_mass=None):
        self.vertices: list[Vertex] = list(vertices)
        self.edges: list[Edge] = [Edge(*e) if not isinstance(e, Edge) else e for e in edges]
        self._validate(total_mass)

    def _validate(self, total_mass):
        n = len(self.vertices)
        seen = set()
        for v in self.vertices:
            key = (v.x, v.word)
            if key in seen:
                raise ValueError(f"duplicate vertex label {key}")
            seen.add(key)
        for e in self.edges:
            if e.length <= 0 or e.weight <= 0:
                raise ValueError("edge lengths and weights must be positive")
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError("edge endpoint out of range")
        # connectivity via union-find
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            ra, rb = find(e.u), find(e.v)
            if ra != rb:
                parent[ra] = rb
        if n > 0 and len({find(i) for i in range(n)}) != 1:
            raise DisconnectedGraph("metric graph is not connected")
        if total_mass is not None:
            m = self.total_measure()
            if abs(m - total_mass) > REL_TOL * max(1.0, abs(total_mass)):
                raise ValueError(f"total measure {m} != declared mass {total_mass}")

    def total_measure(self) -> float:
        return float(sum(e.length * e.weight for e in self.edges))

    @property
    def dirichlet_vertices(self):
        return {i for i, v in enumerate(self.vertices) if v.boundary == DIRICHLET}

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "vertices": [
                {
                    "id": i,
                    "x": list(v.x) if isinstance(v.x, tuple) else v.x,
                    "word": list(v.word),
                    "boundary": v.boundary,
                }
                for i, v in enumerate(self.vertices)
            ],
            "edges": [
                {"u": e.u, "v": e.v, "length": e.length, "weight": e.weight}
                for e in self.edges
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricGraph":
        doc = json.loads(text)
        verts = sorted(doc["vertices"], key=lambda d: d["id"])
        vertices = [
            Vertex(
                x=tuple(d["x"]) if isinstance(d["x"], list) else d["x"],
                word=tuple(d["word"]),
                boundary=d["boundary"],
            )
            for d in verts
        ]
        edges = [(d["u"], d["v"], d["length"], d["weight"]) for d in doc["edges"]]
        return cls(vertices, edges)


@dataclass
class Mesh:
    """Discretization of a MetricGraph at a common pitch.

    ``chains[e]`` lists the node indices along edge e from u to v, with -1
    standing for an eliminated Dirichlet vertex.  ``node_keys[i]`` is either
    ("v", vertex_index) or ("e", edge_index, step); ``vertex_nodes[vi]`` is
    the node of vertex vi, or -1.
    """

    graph: MetricGraph
    pitch: float
    node_keys: list
    masses: np.ndarray
    chains: list = field(repr=False, default_factory=list)
    vertex_nodes: dict = field(repr=False, default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_keys)


def discretize(g: MetricGraph, h: float) -> Mesh:
    """Subdivide every edge at pitch h and lump the measure into node masses.

    Interior nodes on edge e get mass h*weight(e); a surviving vertex gets the
    half-cell mass (h/2)*weight(e) from each incident edge end.  Dirichlet
    vertices carry no node.
    """
    if h <= 0:
        raise NonDividingPitch("pitch must be positive")
    segs = []
    for e in g.edges:
        r = e.length / h
        n = int(round(r))
        if n < 1 or abs(r - n) > REL_TOL * max(1.0, r):
            raise NonDividingPitch(
                f"pitch {h} does not divide edge length {e.length} (ratio {r})"
            )
        segs.append(n)

    dirichlet = g.dirichlet_vertices
    node_keys = []
    vertex_nodes = {}
    for vi in range(len(g.vertices)):
        if vi in dirichlet:
            vertex_nodes[vi] = -1
        else:
            vertex_nodes[vi] = len(node_keys)
            node_keys.append(("v", vi))

    chains = []
    for ei, e in enumerate(g.edges):
        chain = [vertex_nodes[e.u]]
        for t in range(1, segs[ei]):
            chain.append(len(node_keys))
            node_keys.append(("e", ei, t))
        chain.append(vertex_nodes[e.v])
        chains.append(chain)

    masses = np.zeros(len(node_keys))
    for ei, e in enumerate(g.edges):
        cell = h * e.weight
        chain = chains[ei]
        for idx in chain[1:-1]:
            masses[idx] += cell
        for idx in (chain[0], chain[-1]):
            if idx >= 0:
                masses[idx] += cell / 2

    return Mesh(graph=g, pitch=h, node_keys=node_keys, masses=masses, chains=chains,
                vertex_nodes=vertex_nodes)


@dataclass
class DiscreteOperator:
    """Stiffness/lumped-mass pencil (A, M) for A v = lambda M v."""

    A: sp.csr_matrix
    M: np.ndarray  # diagonal of the mass matrix
    kept_vertices: list | None = None  # graph vertex of each row (graph_operator only)

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
    n = m.n_nodes
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    for ei, e in enumerate(m.graph.edges):
        c = e.weight / m.pitch
        chain = m.chains[ei]
        for a, b in zip(chain[:-1], chain[1:]):
            if a >= 0:
                diag[a] += c
            if b >= 0:
                diag[b] += c
            if a >= 0 and b >= 0:
                rows.extend((a, b))
                cols.extend((b, a))
                vals.extend((-c, -c))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A = A + sp.diags(diag)
    return DiscreteOperator(A=A.tocsr(), M=m.masses.copy())


def graph_operator(g: MetricGraph, boundary: str | None = None) -> DiscreteOperator:
    """Weighted graph-Laplacian pencil on the vertices of g.

    A is the weighted combinatorial Laplacian (edge lengths ignored), M the
    weighted degree, so the pencil eigenvalues are those of the probabilistic
    Laplacian I - D^{-1}W.  Used for the gasket-based spaces, whose continuum
    Laplacian is defined by decimation limits rather than edge-wise FD.

    ``boundary`` overrides vertex markings: "dirichlet" eliminates all marked
    vertices, None keeps everything (Neumann).
    """
    nv = len(g.vertices)
    drop = g.dirichlet_vertices if boundary == DIRICHLET else set()
    keep = [i for i in range(nv) if i not in drop]
    pos = {vi: k for k, vi in enumerate(keep)}
    n = len(keep)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    deg = np.zeros(n)
    for e in g.edges:
        a = pos.get(e.u, -1)
        b = pos.get(e.v, -1)
        if a >= 0:
            diag[a] += e.weight
            deg[a] += e.weight
        if b >= 0:
            diag[b] += e.weight
            deg[b] += e.weight
        if a >= 0 and b >= 0:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-e.weight, -e.weight))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr() + sp.diags(diag)
    return DiscreteOperator(A=A.tocsr(), M=deg, kept_vertices=keep)


def dirichlet_energy(d: DiscreteOperator, v: np.ndarray) -> float:
    """Quadratic energy v^T A v of a mesh vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d.n,):
        raise DimensionMismatch(f"vector of length {v.shape} vs {d.n} nodes")
    return float(v @ (d.A @ v))
