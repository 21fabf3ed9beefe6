"""Weighted metric graphs and the finite-difference spectrum of graphs
whose edges all have one length.

A finite-level approximation of a projective-limit fractal is represented as
a weighted metric graph: edges carry a length and a measure density (the
weight of the sheet they belong to), held in plain lists.  Its vertex
pencil is I - P for the walk P; the package never assembles it, as every
piece of a level has its spectrum in closed form, and finds connected
components by union-find over the edge list.  The finite-difference pencil
A v = lambda M v of an equal-edge graph, with Kirchhoff (natural)
conditions at unmarked vertices and eliminated rows at Dirichlet vertices,
is a Chebyshev image of that pencil (``EquilateralMesh``), so the mesh
itself is never built.  The assembled vertex pencil is the tests'
reference (``tests/dense_reference.py``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real

from .errors import DisconnectedGraph, NonDividingPitch

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: relative tolerance for the rational-pitch divisibility rule and for
#: mass-conservation checks
REL_TOL = 1e-12

#: the walk Laplacian I - D^{-1} W of any graph has its spectrum in [0, 2],
#: so solving below this bound returns every eigenvalue
SPECTRAL_BOUND = 2.0


class MetricGraph:
    """Connected weighted metric graph (multigraph; parallel edges allowed),
    held as lists.

    Edge k joins vertices ``ends[k][0]`` and ``ends[k][1]``; it has length
    ``length[k]`` and measure density ``weight[k]`` (a scalar length or
    weight applies to every edge).  ``labels`` names the vertices, one
    distinct number each, or one distinct row of numbers each, held as a
    tuple; ``dirichlet`` marks the Dirichlet vertices.
    """

    def __init__(self, labels, ends, length, weight, dirichlet=None, total_mass=None):
        self.labels = list(labels)
        if self.labels and isinstance(self.labels[0], Iterable):
            self.labels = [tuple(row) for row in self.labels]
        self.ends = [(int(u), int(v)) for u, v in ends]
        self.length = _per_edge(length, len(self.ends))
        self.weight = _per_edge(weight, len(self.ends))
        n = len(self.labels)
        self.dirichlet = [False] * n if dirichlet is None else [bool(x) for x in dirichlet]
        if len(self.dirichlet) != n:
            raise ValueError(f"{len(self.dirichlet)} Dirichlet marks for {n} vertices")
        self._validate(total_mass)

    def _validate(self, total_mass):
        n = self.n_vertices
        if len(set(self.labels)) != n:
            raise ValueError("duplicate vertex label")
        if not all(map((0.0).__lt__, self.length + self.weight)):  # NaN is refused too
            raise ValueError("edge lengths and weights must be positive")
        u, v = _columns(self.ends)
        if self.ends and not (0 <= min(min(u), min(v)) and max(max(u), max(v)) < n):
            raise ValueError("edge endpoint out of range")
        if n > 0 and _component_labels(n, u, v)[0] != 1:
            raise DisconnectedGraph("metric graph is not connected")
        if total_mass is not None:
            m = self.total_measure()
            if abs(m - total_mass) > REL_TOL * max(1.0, abs(total_mass)):
                raise ValueError(f"total measure {m} != declared mass {total_mass}")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def total_measure(self) -> float:
        return math.fsum(l * w for l, w in zip(self.length, self.weight))


def _per_edge(value, n_edges: int) -> list[float]:
    """A length or weight for each of ``n_edges`` edges: a number for all of
    them, or one number each."""
    values = [float(value)] * n_edges if isinstance(value, Real) else [float(x) for x in value]
    if len(values) != n_edges:
        raise ValueError(f"{len(values)} values for {n_edges} edges")
    return values


def _columns(ends: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The first and the second ends of the edges ``ends``."""
    return [u for u, _ in ends], [v for _, v in ends]


def _component_labels(n: int, u, v) -> tuple[int, list[int]]:
    """The number of connected components of the graph on the vertices
    0..n-1 with the edges (u[k], v[k]), and the component of each vertex,
    numbered in the order of their smallest vertices (the labels of SciPy's
    ``connected_components``).

    Union-find: every vertex points at a vertex of its component no larger
    than itself, the root being the smallest; each edge halves the paths
    from its ends to their roots and hooks the larger root under the
    smaller.  So one pass in vertex order takes every vertex to its root."""
    root = list(range(n))
    for a, b in zip(u, v):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    labels, count = [], 0
    for x in range(n):
        r = root[x] = root[root[x]]
        if r == x:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[r])
    return count, labels


def walk_kernels(g: MetricGraph) -> tuple[int, int]:
    """dim ker(P - I) and dim ker(P + I) for the walk P = I - M^{-1} A of
    the vertex pencil of the connected graph g with its Dirichlet vertices
    eliminated.

    A vector in either kernel has one |x| over g and vanishes next to an
    eliminated vertex, so with one eliminated both are 0.  Otherwise they
    hold the constants and the +-1 colourings, which exist when g is
    bipartite: when its double cover (u, v'), (u', v) has two components.
    """
    if any(g.dirichlet):
        return 0, 0
    n = g.n_vertices
    u, v = _columns(g.ends)
    return 1, int(_component_labels(2 * n, u + [a + n for a in u], [b + n for b in v] + v)[0] == 2)


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

    @classmethod
    def of(cls, g: MetricGraph, refine: int) -> "EquilateralMesh":
        """``refine`` cells per edge on a graph whose edges all have one length."""
        length = g.length[0]
        if any(abs(l - length) > REL_TOL * length for l in g.length):
            raise NonDividingPitch("edges of unequal length have no common mesh")
        return cls(length / refine, refine)

    def _value(self, theta: float) -> float:
        y = 2 / self.pitch * math.sin(theta / 2)
        return y * y

    def theta(self, lam: float) -> float:
        """theta of the mesh value lam; pi for any lam above the spectrum."""
        x = self.pitch * math.sqrt(lam) / 2
        return math.pi if x >= 1 else 2 * math.asin(x)

    def vertex_cut(self, lam_max: float) -> float:
        """The vertex cut whose eigenvalues map onto every branch value
        <= lam_max: 1 - cos(r theta_c) on branch 0, the whole spectrum from
        branch 1 on, whose smaller mesh values come from larger vertex ones.
        A cut within 1e-9 of 2 takes the whole spectrum too, so that a
        vertex value 2 is solved for only when it is known to be there."""
        phase = self.refine * self.theta(lam_max)
        cut = 2 * math.sin(phase / 2) ** 2
        return SPECTRAL_BOUND if phase >= math.pi or cut > SPECTRAL_BOUND - 1e-9 else cut

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
        vertices and ``walk_kernels`` ``kernels``, and their multiplicities.
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
