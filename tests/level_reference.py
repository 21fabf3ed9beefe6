"""The independent route to a level spectrum: solve the whole level pencil,
classify every eigenvector with ``classify_levels`` and cluster.  The
package solves only the new block of each level (``fiber.level_spectra``);
the tests hold it to this route."""

import numpy as np

from fractal_spectra.eigensolve import cluster, solve_below
from fractal_spectra.fiber import classify_levels


def reference_spectrum(ops, fibers, level, lam_max, **cluster_kw):
    """Clustered, origin-tagged spectrum of ``ops[level]`` below ``lam_max``,
    and the inertia count of its full-pencil solve."""
    pairs = solve_below(ops[level], lam_max)
    origins = classify_levels(pairs.values, pairs.vectors, ops[: level + 1], fibers[:level])
    tags = ["base" if o == 0 else f"new@{o}" for o in origins]
    return cluster(pairs.values, tags=tags, **cluster_kw), pairs.inertia_count


def assert_matches_reference(per_level, ops, fibers, lam_max, rtol=1e-10, levels=None):
    """Every spectrum of ``per_level`` (levels ``levels``, default 0, 1, ...)
    agrees with the independent route: values to ``rtol`` relative (floored
    at 1), multiplicities, tags and inertia counts exactly."""
    for level, got in zip(range(len(per_level)) if levels is None else levels, per_level):
        ref, count = reference_spectrum(ops, fibers, level, lam_max)
        assert got.meta["inertia_count"] == count == got.total_multiplicity(), level
        assert [(e.multiplicity, e.tag) for e in got.entries] == [
            (e.multiplicity, e.tag) for e in ref.entries
        ], level
        ours, theirs = got.values(), ref.values()
        assert np.all(np.abs(ours - theirs) <= rtol * np.maximum(1.0, np.abs(theirs))), level
