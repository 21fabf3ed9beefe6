"""The boundary names and the spectral bound of the walk Laplacian.

The package takes the vertex spectra of its path families in closed form,
and their finite-difference spectra from the same closed form on the runs
of mesh nodes that refine the runs of vertices (``fiber``); the general
metric graph, its assembled vertex pencil and its mesh are the tests'
reference (``tests/dense_reference.py``, ``tests/mesh_reference.py``).
"""

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

#: the walk Laplacian I - D^{-1} W of any graph has its spectrum in [0, 2],
#: so solving below this bound returns every eigenvalue
SPECTRAL_BOUND = 2.0
