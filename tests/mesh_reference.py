"""The finite-difference mesh of a metric graph, kept as the reference that
the package's refined runs (``fiber.equilateral_spectra``) are held to.

``discretize`` cuts every edge at a common pitch and lumps the measure into
node masses, ``assemble`` builds the pencil A v = lambda M v, and
``discretize_levels`` / ``laakso_levels`` / ``stitched_levels`` give the
mesh pencils of every level of a loop-built family
(``tests/family_reference.py``) with their node-level fiber structures, on
which the block route and the classifier of ``tests/level_reference.py``
run.  Each walks the edges one at a time and
accumulates in edge order.  ``graph_operator`` is the loop version of the
array vertex pencil of ``tests/dense_reference.py``, which must match it
bit for bit (``tests/test_properties.py``).  ``interval_pencil`` is the
mesh pencil of the interval of one run of a path, which the package
refines instead of building it.  ``EquilateralMesh`` takes the mesh values
of any graph whose edges all have one length from its vertex values, by a
Chebyshev map, with the edge modes counted apart
(``piece_reference.equilateral_spectrum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from dense_reference import REL_TOL, DiscreteOperator, MetricGraph, NotPositiveMass
from family_reference import LevelFamily, LevelLink, build_laakso, build_stitched
from fractal_spectra.errors import FractalSpectraError
from fractal_spectra.laakso import LaaksoSpec
from fractal_spectra.metric_graph import DIRICHLET, SPECTRAL_BOUND
from fractal_spectra.strings import StringSpec
from lapack_reference import csr, operator
from level_reference import FiberStructure, IncompatibleMesh


class DimensionMismatch(FractalSpectraError):
    """Vector length does not match the operator or mesh size."""


class NonDividingPitch(FractalSpectraError):
    """Mesh pitch does not divide every edge length."""


def edges(g: MetricGraph) -> list[tuple]:
    """(u, v, length, weight) of every edge of g, in edge order."""
    return [(u, v, length, weight) for (u, v), length, weight in zip(g.ends, g.length, g.weight)]


def dirichlet_vertices(g: MetricGraph) -> set[int]:
    return {vi for vi, marked in enumerate(g.dirichlet) if marked}


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
    for _, _, length, _ in edges(g):
        r = length / h
        n = int(round(r))
        if n < 1 or abs(r - n) > REL_TOL * max(1.0, r):
            raise NonDividingPitch(
                f"pitch {h} does not divide edge length {length} (ratio {r})"
            )
        segs.append(n)

    dirichlet = dirichlet_vertices(g)
    node_keys = []
    vertex_nodes = {}
    for vi in range(g.n_vertices):
        if vi in dirichlet:
            vertex_nodes[vi] = -1
        else:
            vertex_nodes[vi] = len(node_keys)
            node_keys.append(("v", vi))

    chains = []
    for ei, (u, v, _, _) in enumerate(edges(g)):
        chain = [vertex_nodes[u]]
        for t in range(1, segs[ei]):
            chain.append(len(node_keys))
            node_keys.append(("e", ei, t))
        chain.append(vertex_nodes[v])
        chains.append(chain)

    masses = np.zeros(len(node_keys))
    for ei, (_, _, _, weight) in enumerate(edges(g)):
        cell = h * weight
        chain = chains[ei]
        for idx in chain[1:-1]:
            masses[idx] += cell
        for idx in (chain[0], chain[-1]):
            if idx >= 0:
                masses[idx] += cell / 2

    return Mesh(graph=g, pitch=h, node_keys=node_keys, masses=masses, chains=chains,
                vertex_nodes=vertex_nodes)


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
    for ei, (_, _, _, weight) in enumerate(edges(m.graph)):
        c = weight / m.pitch
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
    return operator(A, m.masses.copy())


def graph_operator(g: MetricGraph, boundary: str | None = None) -> DiscreteOperator:
    """Weighted graph-Laplacian pencil on the vertices of g.

    A is the weighted combinatorial Laplacian (edge lengths ignored), M the
    weighted degree, so the pencil eigenvalues are those of the probabilistic
    Laplacian I - D^{-1}W.  Used for the gasket-based spaces, whose continuum
    Laplacian is defined by decimation limits rather than edge-wise FD.

    ``boundary`` overrides vertex markings: "dirichlet" eliminates all marked
    vertices, None keeps everything (Neumann).
    """
    nv = g.n_vertices
    drop = dirichlet_vertices(g) if boundary == DIRICHLET else set()
    keep = [i for i in range(nv) if i not in drop]
    pos = {vi: k for k, vi in enumerate(keep)}
    n = len(keep)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    deg = np.zeros(n)
    for u, v, _, weight in edges(g):
        a = pos.get(u, -1)
        b = pos.get(v, -1)
        if a >= 0:
            diag[a] += weight
            deg[a] += weight
        if b >= 0:
            diag[b] += weight
            deg[b] += weight
        if a >= 0 and b >= 0:
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-weight, -weight))
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr() + sp.diags(diag)
    return operator(A, deg, keep)


def interval_pencil(key: int, refine: int, pitch: float) -> DiscreteOperator:
    """The mesh pencil at ``pitch`` of the interval of the run ``key`` of a
    path (``fiber.LevelFamily``): its m vertices in a path of edges
    ``refine * pitch`` long, with one more edge to an eliminated Dirichlet
    vertex at each end that is not free."""
    m, first, last = key >> 2, key >> 1 & 1, key & 1
    n = m + 2 - first - last
    g = MetricGraph(range(n), [(k, k + 1) for k in range(n - 1)], refine * pitch, 1.0,
                    [v == 0 and not first or v == n - 1 and not last for v in range(n)])
    return assemble(discretize(g, pitch))


def validate(d: DiscreteOperator) -> None:
    """Refuse a pencil with a non-positive mass or an unsymmetric stiffness."""
    if np.any(d.M <= 0):
        raise NotPositiveMass("mass matrix has non-positive entries")
    A = csr(d)
    asym = (A - A.T).tocoo()
    if len(asym.data) and np.max(np.abs(asym.data)) > 0:
        raise ValueError("stiffness matrix is not symmetric")


def dirichlet_energy(d: DiscreteOperator, v: np.ndarray) -> float:
    """Quadratic energy v^T A v of a mesh vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d.n,):
        raise DimensionMismatch(f"vector of length {v.shape} vs {d.n} nodes")
    return float(v @ (csr(d) @ v))


def mesh_fiber_structure(mesh_hi: Mesh, mesh_lo: Mesh, link: LevelLink) -> FiberStructure:
    """Node-level fiber structure from a graph link and two meshes at one
    pitch: a vertex node covers the node of the vertex its vertex covers,
    and step t along an edge covers step t along the parent edge (builders
    orient child edges like their parents)."""
    if abs(mesh_hi.pitch - mesh_lo.pitch) > 1e-12 * mesh_lo.pitch:
        raise IncompatibleMesh("meshes have different pitches")
    parent = np.full(mesh_hi.n_nodes, -1, dtype=np.int64)
    for vi, node in mesh_hi.vertex_nodes.items():
        if node >= 0:
            parent[node] = mesh_lo.vertex_nodes[int(link.vertex_parent[vi])]
    for e, chain in enumerate(mesh_hi.chains):
        low = mesh_lo.chains[int(link.edge_parent[e])]
        if len(low) != len(chain):
            raise IncompatibleMesh("an edge and its parent edge have different lengths")
        for node, p in zip(chain[1:-1], low[1:-1]):
            parent[node] = p
    if np.any(parent < 0):
        raise IncompatibleMesh("node maps onto an eliminated Dirichlet node")
    if np.any(np.bincount(parent, minlength=mesh_lo.n_nodes) == 0):
        raise IncompatibleMesh("some lower-level nodes are not covered")
    return FiberStructure(level=link.level, n_low=mesh_lo.n_nodes, n_high=mesh_hi.n_nodes,
                          parent=parent)


def discretize_levels(family: LevelFamily, pitch: float):
    """Mesh pencils of every level at a common pitch, plus the fiber
    structures between them (fibers[i] connects level i+1 to level i)."""
    meshes = [discretize(g, pitch) for g in family.graphs]
    fibers = [mesh_fiber_structure(meshes[i + 1], meshes[i], link)
              for i, link in enumerate(family.links)]
    return [assemble(m) for m in meshes], fibers


def laakso_levels(spec: LaaksoSpec):
    """Mesh pencils and fiber structures of Laakso levels 0..n at the spec's pitch."""
    return discretize_levels(build_laakso(spec), spec.pitch)


def stitched_levels(spec: StringSpec):
    """Mesh pencils and fiber structures of stitched levels 0..N at the spec's pitch."""
    return discretize_levels(build_stitched(spec), spec.pitch)


@dataclass(frozen=True)
class EquilateralMesh:
    """Finite differences at ``pitch`` on a graph whose edges all have the
    length ``refine * pitch``: r cells per edge, measure lumped into the
    nodes, Dirichlet vertices eliminated.

    Then M^{-1} A = (2/h^2)(I - P_r) for the walk P_r on the r-fold
    subdivision, and each mesh eigenvalue is (4/h^2) sin^2(theta/2) with
    theta in [0, pi] (von Below, Linear Algebra Appl. 1985).  Where
    sin(r theta) != 0 the vertex values of an eigenvector are an
    eigenvector of the vertex pencil for
    nu = 1 - cos(r theta): each vertex eigenvalue nu in (0, 2) gives one
    mesh eigenvalue, of its multiplicity, on each branch
    r theta in (b pi, (b + 1) pi), b = 0..r-1.  The rest are the edge modes
    theta = k pi / r, of multiplicity |E| - |V| + 2 dim ker(P - (-1)^k I)
    for 0 < k < r and dim ker(P - (-1)^k I) at k = 0 and r, |V| counting
    the kept vertices; so the vertex values 0 and 2 are not mapped.
    """

    pitch: float
    refine: int

    def _value(self, theta: float) -> float:
        y = 2 / self.pitch * math.sin(theta / 2)
        return y * y

    def theta(self, lam: float) -> float:
        """theta of the mesh value lam; pi for any lam above the spectrum."""
        x = self.pitch * math.sqrt(lam) / 2
        return math.pi if x >= 1 else 2 * math.asin(x)

    def branch_values(self, nu, lam_max: float) -> tuple[list[float], list[int]]:
        """The mesh eigenvalues <= lam_max (1 + 1e-12) of the
        vertex eigenvalues ``nu`` in (0, 2), and the index in ``nu`` of the
        vertex value of each, in the order of ``nu`` and, for each, of the
        branches: theta = (b pi + theta0) / r on even branches b
        and ((b + 1) pi - theta0) / r on odd ones, where
        theta0 = 2 atan2(sqrt(nu), sqrt(2 - nu)) = arccos(1 - nu) stays
        accurate at both ends."""
        r = self.refine
        branches = range(min(r, int(r * self.theta(lam_max) / math.pi) + 1))
        bound = lam_max * (1 + 1e-12)
        values, source = [], []
        for i, x in enumerate(nu):
            x = min(max(x, 0.0), SPECTRAL_BOUND)
            theta0 = 2 * math.atan2(math.sqrt(x), math.sqrt(SPECTRAL_BOUND - x))
            for b in branches:
                value = self._value((b * math.pi + theta0 if b % 2 == 0
                                     else (b + 1) * math.pi - theta0) / r)
                if value <= bound:
                    values.append(value)
                    source.append(i)
        return values, source

    def edge_modes(self, n_edges: int, n_kept: int, kernels: tuple[int, int],
                   lam_max: float) -> tuple[list[float], list[int]]:
        """Values (4/h^2) sin^2(k pi / 2r) <= lam_max (1 + 1e-12), k = 0..r,
        of the edge modes of a graph of ``n_edges`` edges, ``n_kept`` kept
        vertices and the walk kernels ``kernels``, dim ker(P - I) and
        dim ker(P + I), and their multiplicities.
        The values rise with k, so the listing stops at the first one above
        the cut."""
        r = self.refine
        bound = lam_max * (1 + 1e-12)
        values, mult = [], []
        for k in range(r + 1):
            value = self._value(k * math.pi / r)
            if value > bound:
                break
            values.append(value)
            mult.append(n_edges - n_kept + 2 * kernels[k % 2] if 0 < k < r else kernels[k % 2])
        return values, mult
