"""Spectra of Laplacians on finite-level approximations of projective-limit
fractals: Laakso spaces, the Sierpinski pate a choux, and connected spaces
isospectral to fractal strings.

The package namespace re-exports nothing: import from the submodules, so
that a run loads only the modules it uses."""

__version__ = "0.1.0"
