"""The finite-difference spectrum of graphs whose edges all have one
length, from the spectrum of their vertex pencil.

The vertex pencil of a weighted graph is I - P for the walk P.  The
finite-difference pencil A v = lambda M v of an equal-edge graph, with
Kirchhoff (natural) conditions at unmarked vertices and eliminated rows at
Dirichlet vertices, is a Chebyshev image of that pencil
(``EquilateralMesh``), so the mesh itself is never built.  The package
takes the vertex spectra of its path families in closed form
(``fiber``); the general metric graph, its assembled vertex pencil and its
mesh are the tests' reference (``tests/dense_reference.py``,
``tests/mesh_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: the walk Laplacian I - D^{-1} W of any graph has its spectrum in [0, 2],
#: so solving below this bound returns every eigenvalue
SPECTRAL_BOUND = 2.0


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
