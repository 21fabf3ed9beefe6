"""Weighted metric graphs and the finite-difference spectrum of graphs
whose edges all have one length.

A finite-level approximation of a projective-limit fractal is represented as
a weighted metric graph: edges carry a length and a measure density (the
weight of the sheet they belong to).  Its vertex pencil is I - P for the
walk P; the package never assembles it, as every piece of a level has its
spectrum in closed form, and finds connected components by label
propagation with pointer jumping over the edge arrays.  The
finite-difference pencil A v = lambda M v of an equal-edge graph, with
Kirchhoff (natural) conditions at unmarked vertices and eliminated rows at
Dirichlet vertices, is a Chebyshev image of that pencil
(``EquilateralMesh``), so the mesh itself is never built.  The assembled
vertex pencil is the tests' reference (``tests/dense_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if n > 0 and _component_labels(n, *self.ends.T)[0] != 1:
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


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of connected components of the graph on the vertices
    0..n-1 with the edges (u[k], v[k]), and the component of each vertex,
    numbered in the order of their smallest vertices (the labels of SciPy's
    ``connected_components``).

    Every vertex points at a vertex of its component no larger than itself.
    The pointers are followed to their roots (pointer jumping), then every
    edge between two roots hooks the larger root under the smaller, until
    no edge joins two roots."""
    root = np.arange(n)
    while True:
        while not np.array_equal(jump := root[root], root):
            root = jump
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
    is_root = root == np.arange(n)
    return int(np.count_nonzero(is_root)), (np.cumsum(is_root) - 1)[root]


def walk_kernels(g: MetricGraph) -> tuple[int, int]:
    """dim ker(P - I) and dim ker(P + I) for the walk P = I - M^{-1} A of
    the vertex pencil of the connected graph g with its Dirichlet vertices
    eliminated.

    A vector in either kernel has one |x| over g and vanishes next to an
    eliminated vertex, so with one eliminated both are 0.  Otherwise they
    hold the constants and the +-1 colourings, which exist when g is
    bipartite: when its double cover (u, v'), (u', v) has two components.
    """
    if g.dirichlet.any():
        return 0, 0
    n = g.n_vertices
    u, v = g.ends.T
    return 1, int(_component_labels(2 * n, np.r_[u, u + n], np.r_[v + n, v])[0] == 2)


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
        if np.any(np.abs(g.length - length) > REL_TOL * length):
            raise NonDividingPitch("edges of unequal length have no common mesh")
        return cls(length / refine, refine)

    def _values(self, theta):
        return (2 / self.pitch * np.sin(theta / 2)) ** 2

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

    def branch_values(self, nu: np.ndarray, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
        """The mesh eigenvalues <= lam_max (1 + 1e-12) of the
        vertex eigenvalues ``nu`` in (0, 2), and the index in ``nu`` of the
        vertex value of each: theta = (b pi + theta0) / r on even branches b
        and ((b + 1) pi - theta0) / r on odd ones, where
        theta0 = 2 atan2(sqrt(nu), sqrt(2 - nu)) = arccos(1 - nu) stays
        accurate at both ends."""
        r = self.refine
        nu = np.clip(nu, 0.0, SPECTRAL_BOUND)[:, None]
        theta0 = 2 * np.arctan2(np.sqrt(nu), np.sqrt(SPECTRAL_BOUND - nu))
        b = np.arange(min(r, int(r * self.theta(lam_max) / math.pi) + 1))
        lam = self._values(np.where(b % 2 == 0, b * math.pi + theta0, (b + 1) * math.pi - theta0) / r)
        source, branch = np.nonzero(lam <= lam_max * (1 + 1e-12))
        return lam[source, branch], source

    def edge_modes(self, n_edges: int, n_kept: int, kernels: tuple[int, int],
                   lam_max: float) -> tuple[np.ndarray, np.ndarray]:
        """Values (4/h^2) sin^2(k pi / 2r), k = 0..r, of the edge modes of a
        graph of ``n_edges`` edges, ``n_kept`` kept vertices and
        ``walk_kernels`` ``kernels``, and their multiplicities, 0 above
        lam_max (1 + 1e-12)."""
        r = self.refine
        k = np.arange(r + 1)
        values = self._values(k * math.pi / r)
        kernel = np.where(k % 2 == 0, *kernels)
        mult = np.where((k > 0) & (k < r), n_edges - n_kept + 2 * kernel, kernel)
        return values, np.where(values <= lam_max * (1 + 1e-12), mult, 0)
