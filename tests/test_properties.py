"""Property tests over random Laakso, pâte à choux and fractal-string specs,
and over random small metric graphs.

On every level the multiplicities must add up to the inertia count, and the
block route must agree with the independent full-pencil route.  On every
graph the NumPy mesh and pencil builders must give the bits of the loop
versions in ``tests/mesh_reference.py``, and relabelling the vertices must
leave the spectrum alone.  The example counts and the deadline keep the file
to a few seconds; ``derandomize`` makes every run draw the same examples.
"""

from datetime import timedelta
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mesh_reference
from fractal_spectra import gasket, laakso, strings
from fractal_spectra.metric_graph import (
    DIRICHLET,
    MetricGraph,
    Vertex,
    assemble,
    discretize,
    graph_operator,
)
from lapack_reference import generalized_eigh
from level_reference import assert_matches_reference

SETTINGS = settings(max_examples=25, deadline=timedelta(seconds=20), derandomize=True,
                    database=None)

laakso_specs = st.builds(
    laakso.LaaksoSpec,
    j=st.lists(st.sampled_from([2, 3]), min_size=0, max_size=3),
    refine=st.sampled_from([2, 4, 8]),
    boundary=st.sampled_from(["neumann", "dirichlet"]),
)

choux_specs = st.integers(0, 2).flatmap(
    lambda i: st.builds(
        gasket.ChouxSpec,
        fiber_depth=st.just(i),
        gasket_level=st.integers(i, 4),
        boundary=st.sampled_from([None, "dirichlet"]),
    )
)

string_specs = st.lists(
    st.sampled_from([Fraction(1, 2), Fraction(3, 8), Fraction(1, 4), Fraction(3, 16),
                     Fraction(1, 8), Fraction(1, 16)]),
    min_size=1, max_size=3, unique=True,
).flatmap(
    lambda lengths: st.builds(
        strings.StringSpec,
        lengths=st.just(sorted(lengths, reverse=True)),
        mults=st.lists(st.integers(1, 3), min_size=len(lengths), max_size=len(lengths)),
        refine=st.sampled_from([2, 4]),
    )
)


def check_levels(per_level, ops, fibers, lam_max):
    assert len(per_level) == len(ops)
    for spectrum in per_level:
        assert spectrum.total_multiplicity() == spectrum.meta["inertia_count"]
    assert_matches_reference(per_level, ops, fibers, lam_max)


@SETTINGS
@given(spec=laakso_specs, lam_max=st.sampled_from([40.0, 200.0]))
def test_laakso_levels_add_up_and_match_reference(spec, lam_max):
    ops, fibers = laakso.laakso_levels(spec)
    check_levels(laakso.laakso_numeric_spectra(spec, lam_max), ops, fibers, lam_max)


@SETTINGS
@given(spec=choux_specs)
def test_choux_levels_add_up_and_match_reference(spec):
    ops, fibers = gasket.choux_levels(spec)
    check_levels(gasket.choux_numeric_spectra(spec), ops, fibers, gasket.SPECTRAL_BOUND)


@SETTINGS
@given(spec=string_specs, lam_max=st.sampled_from([200.0, 700.0]))
def test_string_levels_add_up_and_match_reference(spec, lam_max):
    ops, fibers = strings.stitched_levels(spec)
    check_levels(strings.stitched_numeric_spectra(spec, lam_max), ops, fibers, lam_max)


@st.composite
def metric_graphs(draw):
    """A connected metric graph on 2-12 vertices, a pitch that divides every
    edge and a relabelling of the vertices.

    A random spanning tree (each vertex hangs off an earlier one) keeps it
    connected; extra edges and repeated tree edges add cycles and parallel
    edges.  Lengths are 1-4 pitches, weights 1, 1/2, 1/3 or 1/4, and any
    vertex may be a Dirichlet vertex.
    """
    nv = draw(st.integers(2, 12))
    pitch = draw(st.sampled_from([0.25, 0.1, 1 / 3]))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    extra = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
                          .filter(lambda uv: uv[0] != uv[1]), max_size=nv))
    repeated = draw(st.lists(st.sampled_from(tree), max_size=3))
    edges = [
        (u, v, draw(st.integers(1, 4)) * pitch, draw(st.sampled_from([1.0, 1 / 2, 1 / 3, 1 / 4])))
        for u, v in draw(st.permutations(tree + extra + repeated))
    ]
    marks = draw(st.lists(st.booleans(), min_size=nv, max_size=nv))
    vertices = [Vertex(float(i), boundary=DIRICHLET if m else None) for i, m in enumerate(marks)]
    return MetricGraph(vertices, edges), pitch, draw(st.permutations(range(nv)))


def relabel(g, perm):
    """g with vertex i renamed perm[i]."""
    vertices = [None] * len(perm)
    for i, v in enumerate(g.vertices):
        vertices[perm[i]] = v
    return MetricGraph(vertices, [(perm[e.u], perm[e.v], e.length, e.weight) for e in g.edges])


def assert_same_bits(op, ref):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op.A, name), getattr(ref.A, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert op.A.shape == ref.A.shape
    assert op.M.dtype == ref.M.dtype and np.array_equal(op.M, ref.M)


@SETTINGS
@given(case=metric_graphs())
def test_pencils_have_the_bits_of_the_loop_reference(case):
    g, pitch, _ = case
    mesh, ref = discretize(g, pitch), mesh_reference.discretize(g, pitch)
    assert np.array_equal(mesh.masses, ref.masses)
    assert_same_bits(assemble(mesh), mesh_reference.assemble(ref))
    for boundary in (None, DIRICHLET):
        op, ref_op = graph_operator(g, boundary), mesh_reference.graph_operator(g, boundary)
        assert_same_bits(op, ref_op)
        assert op.kept_vertices == ref_op.kept_vertices


@SETTINGS
@given(case=metric_graphs())
def test_spectrum_is_unchanged_by_relabelling_the_vertices(case):
    g, pitch, perm = case
    h = relabel(g, perm)
    for build in (lambda x: assemble(discretize(x, pitch)),
                  lambda x: graph_operator(x, DIRICHLET)):
        op, op_relabelled = build(g), build(h)
        if not op.n:  # every node was a Dirichlet vertex
            continue
        values, relabelled = generalized_eigh(op)[0], generalized_eigh(op_relabelled)[0]
        assert np.abs(values - relabelled).max() <= 1e-12 * np.abs(values).max()
