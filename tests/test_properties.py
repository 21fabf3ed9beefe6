"""Property tests over random Laakso, pâte à choux and fractal-string specs,
over random small metric graphs, random symmetric matrices and random
spectrum lists.

On every level the multiplicities must add up to the count of values, and the
package's spectra must agree with the independent full-pencil route; the
Dirichlet pieces of the base graph, from which the package solves every
level, must give the spectra of the whole level pencils; the Chebyshev
map of the vertex spectra must give the spectra of the mesh pencils in
``tests/mesh_reference.py``, level by level, on any graph whose edges all
have one length and on the package's own path bases.  The families must have the level sizes of the loop
builders in ``tests/family_reference.py``, the counted run tables of the
Laakso path the runs of every one of its pieces listed as masks and
the tables of the mark walk over its birth levels, and the
path route the values of the component route fed those masks; and every
CLI subcommand run twice must write the same bytes.
On every graph the NumPy vertex pencil must give the bits of the loop
version in ``tests/mesh_reference.py``, and relabelling the vertices must
leave the spectrum alone.  The integer-keyed analytic string
spectrum must give the bits of the rational one in
``tests/strings_reference.py``; the per-string zeta sums must equal the
sums over that rational spectrum and, with the integral bounds on their
tails, bracket the closed-form limit pi^{-2s} zeta(2s) sum_i m_i l_i^{2s};
the number of values of ``solve_below`` must equal the dense count at
every cut clear of an eigenvalue, or the cut be refused, and its values
must agree with LAPACK's generalized driver on both sides of its size
threshold; the binary search of ``eigensolve._nearest`` must find the
first nearest value of the linear scan, ``verify_nesting`` must give the
reports of the loop in ``tests/nesting_reference.py`` and
``decimation_check`` those of the loop in
``tests/decimation_reference.py``; merging each level into the one below
must give the spectrum lists of sorting and clustering every level again
(``level_reference.sorted_levels``); and spectrum lists must survive
their CSV and JSON round trips, their CSV the bytes of the row-by-row
``csv.writer`` in ``tests/csv_reference.py``.
The example counts and the deadline keep the file to a few seconds;
``derandomize`` makes every run draw the same examples.
"""

import filecmp
import json
import math
import os
import tempfile
from datetime import timedelta
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csv_reference
import decimation_reference
import dense_reference
import family_reference
import level_reference
import mesh_reference
import nesting_reference
import piece_reference
import strings_reference
from dense_reference import (
    MetricGraph,
    gap_cluster,
    gap_runs,
    graph_operator,
    path_graph,
    solve_below,
)
from fractal_spectra import cli, fiber, gasket, laakso, strings
from fractal_spectra.eigensolve import (
    SpectrumEntry,
    SpectrumList,
    _nearest,
    verify_nesting,
)
from fractal_spectra.errors import NoConvergence
from fractal_spectra.metric_graph import DIRICHLET, SPECTRAL_BOUND
from json_reference import spectrum_from_json, spectrum_to_json
from lapack_reference import csr, eigenpairs_below, generalized_eigh, operator
from level_reference import assert_matches_reference, cluster, total_multiplicity

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
    assert_matches_reference(per_level, ops, fibers, lam_max)


@SETTINGS
@given(spec=laakso_specs, lam_max=st.sampled_from([40.0, 200.0]))
def test_laakso_levels_add_up_and_match_reference(spec, lam_max):
    ops, fibers = mesh_reference.laakso_levels(spec)
    check_levels(laakso.laakso_numeric_spectra(spec, lam_max), ops, fibers, lam_max)


@SETTINGS
@given(spec=choux_specs)
def test_choux_levels_add_up_and_match_reference(spec):
    ops, fibers = level_reference.choux_levels(spec)
    check_levels(gasket.choux_numeric_spectra(spec), ops, fibers, gasket.SPECTRAL_BOUND)


@SETTINGS
@given(spec=string_specs, lam_max=st.sampled_from([200.0, 700.0]))
def test_string_levels_add_up_and_match_reference(spec, lam_max):
    ops, fibers = mesh_reference.stitched_levels(spec)
    check_levels(strings.stitched_numeric_spectra(spec, lam_max), ops, fibers, lam_max)


# Every value the package lists comes from a closed form that gives the
# copies of an eigenvalue the same bits, so it merges equal values exactly;
# these hold that merge to the gap clustering of the dense route, so that a
# closed form that gives two copies different bits fails here.

merge_laakso_specs = st.builds(
    laakso.LaaksoSpec,
    j=st.lists(st.sampled_from([2, 3]), min_size=0, max_size=5),
    refine=st.sampled_from([4, 8, 16]),
    boundary=st.sampled_from(["neumann", "dirichlet"]),
)

merge_choux_specs = st.integers(0, 3).flatmap(
    lambda i: st.builds(
        gasket.ChouxSpec,
        fiber_depth=st.just(i),
        gasket_level=st.integers(max(i, 1), 9),
        boundary=st.sampled_from([None, "dirichlet"]),
    )
)


def assert_exact_merge_is_the_gap_merge(spectra):
    """``spectra()`` lists the same spectra, entry for entry and bit for
    bit, with the levels sorted again and merged by
    ``dense_reference.gap_cluster`` (``level_reference.sorted_levels``) in
    place of the exact merge of each level into the one below."""
    got = spectra()
    with mock.patch.object(fiber, "_cluster_levels", level_reference.sorted_levels), \
            mock.patch.object(level_reference, "cluster", gap_cluster):
        ref = spectra()
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.entries, a.origin, a.truncation, a.pitch) == \
            (b.entries, b.origin, b.truncation, b.pitch)


@settings(SETTINGS, max_examples=60)
@given(spec=merge_laakso_specs, lam_max=st.sampled_from([40.0, 400.0, 2000.0]))
def test_laakso_exact_merge_is_the_gap_merge(spec, lam_max):
    """{j, j+1} sequences up to depth 5, refinements 4-16, cuts from below
    the first edge mode to far above it."""
    assert_exact_merge_is_the_gap_merge(lambda: laakso.laakso_numeric_spectra(spec, lam_max))


@settings(SETTINGS, max_examples=60)
@given(spec=string_specs, lam_max=st.sampled_from([200.0, 700.0, 2000.0]))
def test_string_exact_merge_is_the_gap_merge(spec, lam_max):
    assert_exact_merge_is_the_gap_merge(lambda: strings.stitched_numeric_spectra(spec, lam_max))


@settings(SETTINGS, max_examples=40)
@given(spec=merge_choux_specs)
def test_choux_exact_merge_is_the_gap_merge(spec):
    """Fiber depth up to 3 over gasket levels up to 9, and the decimation
    chain of the gasket level."""
    assert_exact_merge_is_the_gap_merge(lambda: gasket.choux_numeric_spectra(spec))
    with mock.patch.object(decimation_reference, "cluster", gap_cluster):
        ref = decimation_reference.decimation_chain(spec.gasket_level)
    assert [s.entries for s in gasket.decimation_chain(spec.gasket_level)] == \
        [s.entries for s in ref]


# The package solves every level from Dirichlet pieces of its base graph
# and never builds a level above 0; these properties hold that
# decomposition to the whole level pencils of the loop-built families,
# classified eigenvector by eigenvector by the fiber projectors.

piece_laakso_specs = st.builds(
    lambda base, steps, boundary: laakso.LaaksoSpec([base + s for s in steps], 8, boundary),
    st.sampled_from([2, 3]), st.lists(st.sampled_from([0, 1]), min_size=1, max_size=4),
    st.sampled_from(["neumann", "dirichlet"]),
).filter(lambda spec: spec.d[-1] <= 96)

piece_choux_specs = st.integers(1, 3).flatmap(
    lambda i: st.builds(
        gasket.ChouxSpec,
        fiber_depth=st.just(i),
        gasket_level=st.integers(i, 4),
        boundary=st.sampled_from([None, "neumann", "dirichlet"]),
    )
)

#: vertex cuts inside the spectrum and above it
vertex_cuts = st.sampled_from([0.0437, 0.731, SPECTRAL_BOUND])


def assert_pieces_match_whole_levels(family, ref, cut):
    """The piece spectra of ``family`` against the whole level pencils of
    the loop-built ``ref``: multiplicities, tags and counts exactly,
    values to 1e-12 relative.  The scale is floored at 0.01, so a zero
    eigenvalue, which both routes give as a few units in the last place of
    the spectral bound 2, is held to 1e-14 absolute."""
    per_level = fiber.level_spectra(family, cut, "{}")
    ops, fibers = level_reference.graph_levels(ref, DIRICHLET)
    assert len(per_level) == len(ops)
    assert_matches_reference(per_level, ops, fibers, cut, rtol=1e-12, floor=1e-2)


@settings(SETTINGS, max_examples=15)
@given(spec=piece_laakso_specs, cut=vertex_cuts)
def test_laakso_pieces_give_the_whole_level_spectra(spec, cut):
    """{j, j+1} sequences up to depth 4 (d_n <= 96), both boundaries."""
    assert_pieces_match_whole_levels(laakso.laakso_family(spec),
                                     family_reference.build_laakso(spec), cut)


@SETTINGS
@given(spec=string_specs, cut=vertex_cuts)
def test_string_pieces_give_the_whole_level_spectra(spec, cut):
    assert_pieces_match_whole_levels(strings.stitched_family(spec),
                                     family_reference.build_stitched(spec), cut)


@settings(SETTINGS, max_examples=15)
@given(spec=piece_choux_specs)
def test_choux_pieces_give_the_whole_level_spectra(spec):
    """Fiber depth up to 3 over gasket levels up to 4, the corners kept or
    eliminated."""
    assert_pieces_match_whole_levels(gasket.choux_family(spec),
                                     family_reference.build_choux(spec), SPECTRAL_BOUND)



@SETTINGS
@given(spec=st.integers(0, 5).flatmap(lambda m: st.builds(
    gasket.ChouxSpec, fiber_depth=st.integers(0, m), gasket_level=st.just(m),
    boundary=st.sampled_from([None, "neumann", "dirichlet"]))))
def test_choux_closed_form_is_the_dense_piece_route(spec):
    """Fiber depth i <= m over gasket levels m <= 5, every boundary: the
    pieces by spectral decimation against each piece solved densely."""
    piece_reference.assert_same_levels(gasket.choux_numeric_spectra(spec),
                                       piece_reference.choux_spectra(spec))

# A pencil that the six symmetries of the gasket carry onto itself is solved
# as its A1, A2 and E blocks; these hold that split to the one dense
# reduction of the whole pencil.

def gasket_pencil(m, boundary):
    """The vertex pencil of the level-m gasket and its D3 maps in the
    numbering of the kept vertices."""
    g = dense_reference.build_gasket(m)
    op = graph_operator(dense_reference.gasket_graph(g, boundary), boundary)
    return op, np.searchsorted(op.kept_vertices, dense_reference.d3_maps(g)[:, op.kept_vertices])


@settings(SETTINGS, max_examples=40)
@given(m=st.integers(1, 6), boundary=st.sampled_from([None, DIRICHLET]),
       cut=st.one_of(st.sampled_from([SPECTRAL_BOUND, 1.5, 1.25, 0.5]), st.floats(0.01, 2.0)))
def test_block_split_of_a_symmetric_gasket_is_the_dense_solve(m, boundary, cut):
    """Whole gaskets of levels 1-6 under both boundaries, at cuts on values
    and at random ones: counts exactly, values to 1e-12 relative (floored
    at 1)."""
    op, maps = gasket_pencil(m, boundary)
    got, ref = solve_below(op, cut, maps), solve_below(op, cut)
    assert len(got.values) == len(ref.values)
    assert np.all(np.abs(got.values - ref.values) <= 1e-12 * np.maximum(1.0, np.abs(ref.values)))
    assert np.all(np.diff(got.values) >= 0)


# On a path base the package counts the runs of each length and end type of
# the pieces and takes their values in closed form; these properties hold
# its run tables to the runs of the pieces listed as masks, and its values
# to the connected-component route, which every other base takes and which
# solves each component with LAPACK, fed the same masks.

path_laakso_specs = st.builds(
    lambda base, steps, boundary: laakso.LaaksoSpec([base + s for s in steps], 8, boundary),
    st.sampled_from([2, 3]), st.lists(st.sampled_from([0, 1]), min_size=1, max_size=4),
    st.sampled_from(["neumann", "dirichlet"]),
)


@settings(SETTINGS, max_examples=20)
@given(spec=st.builds(
    lambda base, steps, boundary: laakso.LaaksoSpec([base + s for s in steps], 8, boundary),
    st.sampled_from([2, 3]), st.lists(st.sampled_from([0, 1]), min_size=0, max_size=8),
    st.sampled_from(["neumann", "dirichlet"]),
))
def test_laakso_run_tables_are_the_runs_of_every_piece(spec):
    """{j, j+1} sequences of depth 0-8, both boundaries: the counted table
    of every level has the keys and counts of the runs of its 2^(l-1)
    pieces, listed as masks."""
    family = laakso.laakso_family(spec)
    ref = family_reference.run_tables(path_graph(family), family_reference.path_pieces(spec))
    assert len(family.runs) == len(ref)
    for (keys, counts), (ref_keys, ref_counts) in zip(family.runs, ref):
        assert np.asarray(keys).tolist() == ref_keys.tolist()
        assert np.asarray(counts).tolist() == ref_counts.tolist()


def grid_specs(j):
    """{j, j+1} sequences of the deepest grid under 10^5 points, as often as
    of any depth up to it, under both boundaries."""
    top = {2: 10, 3: 8, 4: 7}[j]
    return st.builds(
        laakso.LaaksoSpec,
        st.one_of(st.just(top), st.integers(0, top)).flatmap(
            lambda depth: st.lists(st.sampled_from([j, j + 1]), min_size=depth, max_size=depth)),
        st.just(8), st.sampled_from(["neumann", "dirichlet"]),
    )


@settings(SETTINGS, max_examples=60)
@given(spec=st.sampled_from([2, 3, 4]).flatmap(grid_specs))
def test_laakso_closed_form_run_tables_are_the_mark_walk(spec):
    """{j, j+1} sequences, j in {2, 3, 4}, both boundaries, of depth up to
    10 on j = 2 and as deep as keeps the grid under 10^5 points on j = 3
    and 4: the run tables that ``laakso.laakso_family`` counts from d_l
    are those of the mark walk over the birth levels
    (``family_reference.binary_run_tables``), keys and counts alike."""
    assert laakso.laakso_family(spec).runs == family_reference.binary_run_tables(spec)


def expand(values, counts):
    """The sorted values of a (values, counts) table, each listed count times."""
    return np.sort(np.repeat(values, counts))


def assert_path_route_is_the_component_route(family, pieces, cut, base=None):
    """Level by level, the kept vertex counts and the values with their
    counts of the path route equal those of the component route fed the
    pieces ``pieces`` of ``family`` over the graph ``base``, by default the
    graph of ``family.base``, the sorted values to 1e-14 absolute."""
    values, kept = fiber._level_values(family, cut), family_reference.kept_counts(family)
    base = path_graph(family) if base is None else base
    ref_values, ref_kept = piece_reference.component_values(base, pieces, cut)
    assert kept == ref_kept and len(values) == len(ref_values)
    for got, ref in zip(values, ref_values):
        got, ref = expand(*got), expand(*ref)
        assert len(got) == len(ref)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-14


@SETTINGS
@given(spec=path_laakso_specs, cut=vertex_cuts)
def test_laakso_path_route_is_the_component_route(spec, cut):
    """{j, j+1} sequences of depth 1-4, both boundaries."""
    assert_path_route_is_the_component_route(laakso.laakso_family(spec),
                                             family_reference.path_pieces(spec), cut)


@SETTINGS
@given(spec=string_specs, cut=vertex_cuts)
def test_string_path_route_is_the_component_route(spec, cut):
    assert_path_route_is_the_component_route(strings.stitched_family(spec),
                                             family_reference.path_pieces(spec), cut)


@st.composite
def path_families(draw):
    """A path in vertex order of 2-40 vertices with one edge weight, random
    Dirichlet vertices (so runs that reach only one end of the path, and
    their mirror images) and 1-3 levels of 1-4 pieces with random marks and
    copies, as the family of their run tables, the pieces and the path,
    which no ``PathBase`` holds."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(n)
    base = MetricGraph(k, np.stack([k[:-1], k[1:]], axis=1), 1.0, draw(st.sampled_from([1.0, 0.375])),
                       rng.random(n) < draw(st.sampled_from([0.0, 0.2])))
    pieces = [[(rng.random(n) < 0.3, int(rng.integers(0, 4))) for _ in range(draw(st.integers(1, 4)))]
              for _ in range(draw(st.integers(1, 3)))]
    return (fiber.LevelFamily(None, runs=family_reference.run_tables(base, pieces)), pieces, base)


@SETTINGS
@given(case=path_families(), cut=vertex_cuts)
def test_path_route_is_the_component_route_on_any_path_family(case, cut):
    family, pieces, base = case
    assert_path_route_is_the_component_route(family, pieces, cut, base)


def test_path_route_is_the_component_route_on_bases_above_500_vertices():
    """Laakso [2]*9 and [3]*6, whose base paths have 513 and 730 vertices,
    both boundaries, at cuts inside the vertex spectrum and above it."""
    for j in ([2] * 9, [3] * 6):
        for boundary in ("neumann", "dirichlet"):
            spec = laakso.LaaksoSpec(j, 8, boundary)
            family, pieces = laakso.laakso_family(spec), family_reference.path_pieces(spec)
            for cut in (1e-3, 0.0437, SPECTRAL_BOUND):
                assert_path_route_is_the_component_route(family, pieces, cut)


def first_edge_mode(pitch, refine):
    """(4/h^2) sin^2(pi / 2r): the smallest mesh eigenvalue of an edge
    between two Dirichlet vertices, a run of no vertex."""
    return (2 / pitch * math.sin(math.pi / (2 * refine))) ** 2


def assert_same_spectra(got, ref):
    """Values to 1e-10 relative (floored at 1), multiplicities, tags and
    counts exactly."""
    assert len(got) == len(ref)
    for level, (g, r) in enumerate(zip(got, ref)):
        assert total_multiplicity(g) == total_multiplicity(r), level
        assert [(e.multiplicity, e.tag) for e in g.entries] == [
            (e.multiplicity, e.tag) for e in r.entries], level
        theirs = r.values()
        assert np.all(np.abs(np.asarray(g.values()) - theirs)
                      <= 1e-10 * np.maximum(1.0, np.abs(theirs))), level


# cuts from below the first edge mode to past the top of the spectrum
# (3.3 times the first edge mode is above 4/h^2 at refine 2)
edge_mode_factors = st.sampled_from([0.4, 0.95, 1.6, 3.3])

equilateral_laakso_specs = st.builds(
    lambda base, steps, refine, boundary: laakso.LaaksoSpec([base + s for s in steps], refine,
                                                            boundary),
    st.sampled_from([2, 3]), st.lists(st.sampled_from([0, 1]), max_size=3),
    st.sampled_from([2, 4, 8]), st.sampled_from(["neumann", "dirichlet"]),
)


@SETTINGS
@given(spec=equilateral_laakso_specs, factor=edge_mode_factors)
def test_laakso_refined_runs_match_the_mesh_route(spec, factor):
    """The refined runs give every level's mesh spectrum: that of the mesh
    pencils of ``tests/mesh_reference.py`` solved block by block, as the
    package did before."""
    lam_max = factor * first_edge_mode(spec.pitch, spec.refine)
    ref = level_reference.block_spectra(*mesh_reference.laakso_levels(spec), lam_max, "{}")
    assert_same_spectra(laakso.laakso_numeric_spectra(spec, lam_max), ref)


@SETTINGS
@given(spec=string_specs, factor=edge_mode_factors)
def test_string_refined_runs_match_the_mesh_route(spec, factor):
    lam_max = factor * first_edge_mode(spec.pitch, spec.refine)
    ref = level_reference.block_spectra(*mesh_reference.stitched_levels(spec), lam_max, "{}")
    assert_same_spectra(strings.stitched_numeric_spectra(spec, lam_max), ref)


family_laakso_specs = st.builds(
    laakso.LaaksoSpec,
    j=st.lists(st.sampled_from([2, 3]), min_size=0, max_size=4),
    refine=st.sampled_from([2, 4]),
    boundary=st.sampled_from(["neumann", "dirichlet"]),
)

family_choux_specs = st.integers(0, 3).flatmap(
    lambda i: st.builds(
        gasket.ChouxSpec,
        fiber_depth=st.just(i),
        gasket_level=st.integers(i, 5),
        boundary=st.sampled_from([None, "neumann", "dirichlet"]),
    )
)


def assert_sizes_of_the_loop_reference(family, ref, boundary):
    """The kept vertex counts of every level of ``family`` are those of the
    graphs of the loop-built ``ref``, and so are the base and the edges
    that the runs of each level span on a path family."""
    kept = family_reference.kept_counts(family)
    assert kept == [graph_operator(g, boundary).n for g in ref.graphs]
    if family.base is not None:  # the pâte à choux has no base, as it takes no mesh
        assert family_reference.edge_counts(family) == [len(g.ends) for g in ref.graphs]
        assert path_graph(family).ends == ref.graphs[0].ends


@SETTINGS
@given(spec=family_laakso_specs)
def test_laakso_family_has_the_sizes_of_the_loop_reference(spec):
    assert_sizes_of_the_loop_reference(laakso.laakso_family(spec),
                                       family_reference.build_laakso(spec), DIRICHLET)


@SETTINGS
@given(spec=family_choux_specs)
def test_choux_family_has_the_sizes_of_the_loop_reference(spec):
    assert_sizes_of_the_loop_reference(gasket.choux_family(spec),
                                       family_reference.build_choux(spec), spec.boundary)
    levels = dense_reference.gasket_levels(spec.gasket_level)
    ref_levels = family_reference.gasket_levels(spec.gasket_level)
    for g, r in zip(levels, ref_levels, strict=True):
        scale = 2 ** (g.level + 1)
        assert [(Fraction(int(x)), Fraction(int(y))) for x, y in g.points] == [
            (x * scale, y * scale) for x, y in r.points]
        assert g.birth.tolist() == r.birth
        assert [tuple(e) for e in g.edges.tolist()] == r.edges


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
    u, v, length, weight = zip(*edges)
    return (MetricGraph(np.arange(nv, dtype=float), np.stack([u, v], axis=1), length, weight,
                        dirichlet=marks),
            pitch, draw(st.permutations(range(nv))))


def relabel(g, perm):
    """g with vertex i renamed perm[i]."""
    perm = np.asarray(perm)
    labels, dirichlet = np.empty_like(g.labels), np.empty_like(g.dirichlet)
    labels[perm], dirichlet[perm] = g.labels, g.dirichlet
    return MetricGraph(labels, perm[g.ends], g.length, g.weight, dirichlet)


def assert_same_bits(op, ref):
    """The CSR arrays and the masses of op are those of ref: the index
    arrays equal (the package's are int64, SciPy's int32), the floats bit
    for bit."""
    assert op.n == ref.n
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(op, name), getattr(ref, name)), name
    for name in ("data", "M"):
        got, want = getattr(op, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.float64, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


@SETTINGS
@given(case=metric_graphs())
def test_pencils_have_the_bits_of_the_loop_reference(case):
    g, _, _ = case
    for boundary in (None, DIRICHLET):
        op, ref_op = graph_operator(g, boundary), mesh_reference.graph_operator(g, boundary)
        assert_same_bits(op, ref_op)
        assert op.kept_vertices.tolist() == ref_op.kept_vertices


@SETTINGS
@given(case=metric_graphs(), refine=st.integers(1, 4), data=st.data())
def test_chebyshev_map_gives_the_mesh_spectrum_of_any_equal_edge_graph(case, refine, data):
    """Any connected graph, with odd and even cycles, parallel edges and
    Dirichlet vertices anywhere or nowhere, whose edges all have the length
    ``refine`` pitches: the branch values and edge modes are the mesh
    pencil's spectrum up to a cut halfway between two of its distinct
    eigenvalues or above them all."""
    g, pitch, _ = case
    dirichlet = np.asarray(g.dirichlet) & data.draw(st.booleans())
    g = MetricGraph(g.labels, g.ends, refine * pitch, g.weight, dirichlet)
    op = mesh_reference.assemble(mesh_reference.discretize(g, pitch))
    values = generalized_eigh(op)[0] if op.n else np.zeros(0)
    distinct = values[[start for start, _ in gap_runs(values, 1e-9)]]
    cut = data.draw(st.sampled_from([*((distinct[:-1] + distinct[1:]) / 2), 5.0 / pitch**2]))
    ref = gap_cluster(values[values <= cut], tags=["base"] * np.count_nonzero(values <= cut))
    assert_same_spectra([piece_reference.equilateral_spectrum(g, refine, cut)], [ref])


@pytest.mark.parametrize("seed", range(60))
def test_refined_runs_give_the_mesh_spectrum_of_a_path_base(seed):
    """The package's own route on a ``PathBase`` of 2-12 vertices, its ends
    Dirichlet vertices on odd seeds (a run of no vertex on two), with edges
    of ``refine`` pitches: the level-0 spectrum of
    ``fiber.equilateral_spectra`` is the mesh pencil's spectrum of the
    path's graph up to a cut halfway between two of its distinct
    eigenvalues or above them all."""
    rng = np.random.default_rng(seed)
    n, refine = int(rng.integers(2, 13)), int(rng.integers(1, 5))
    pitch = float(rng.choice([0.25, 0.1, 1 / 3]))
    ends = seed % 2
    family = fiber.path_family(fiber.PathBase(n, refine * pitch), [[(ends, n - ends, 1)]])
    op = mesh_reference.assemble(mesh_reference.discretize(path_graph(family), pitch))
    values = generalized_eigh(op)[0] if op.n else np.zeros(0)
    distinct = values[[start for start, _ in gap_runs(values, 1e-9)]]
    cut = float(rng.choice([*((distinct[:-1] + distinct[1:]) / 2), 5.0 / pitch**2]))
    ref = gap_cluster(values[values <= cut], tags=["base"] * np.count_nonzero(values <= cut))
    assert_same_spectra(fiber.equilateral_spectra(family, [refine], cut, "{}")[0], [ref])


@SETTINGS
@given(case=metric_graphs())
def test_spectrum_is_unchanged_by_relabelling_the_vertices(case):
    g, pitch, perm = case
    h = relabel(g, perm)
    for build in (lambda x: mesh_reference.assemble(mesh_reference.discretize(x, pitch)),
                  lambda x: graph_operator(x, DIRICHLET)):
        op, op_relabelled = build(g), build(h)
        if not op.n:  # every node was a Dirichlet vertex
            continue
        values, relabelled = generalized_eigh(op)[0], generalized_eigh(op_relabelled)[0]
        assert np.abs(values - relabelled).max() <= 1e-12 * np.abs(values).max()


@st.composite
def rationalized_string_specs(draw, denominator_bound=10**6, max_mult=4):
    """A string of 1-5 lengths rationalized from random floats (so at the
    default bound some denominators come near 10^6 and the lcm of the
    lengths in grid units is large) and mults 1-``max_mult``."""
    floats = draw(st.lists(st.floats(max(0.01, 1 / denominator_bound), 1.0),
                           min_size=1, max_size=5))
    lengths = sorted(set(strings.rationalize(floats, denominator_bound)[0]), reverse=True)
    mults = draw(st.lists(st.integers(1, max_mult), min_size=len(lengths), max_size=len(lengths)))
    return strings.StringSpec(lengths, mults)


@SETTINGS
@given(spec=rationalized_string_specs(denominator_bound=6, max_mult=3))
def test_stitched_family_has_the_sizes_of_the_loop_reference(spec):
    """Lengths with denominators up to 6 keep the grid at most 60 cells
    long, which the loop reference enumerates in well under a second."""
    assert_sizes_of_the_loop_reference(strings.stitched_family(spec),
                                       family_reference.build_stitched(spec), DIRICHLET)


@st.composite
def analytic_string_cases(draw):
    """A random string and a cut that is random, equal to an eigenvalue
    float pi^2 k^2 / l_i^2 or one of that float's neighbours."""
    spec = draw(rationalized_string_specs())
    l, k = draw(st.sampled_from(spec.lengths)), draw(st.integers(1, 20))
    on = float(Fraction(k * k) / (l * l)) * math.pi**2
    cut = draw(st.one_of(st.floats(10.0, 1e5),
                         st.sampled_from([on, math.nextafter(on, 0.0), math.nextafter(on, math.inf)])))
    return spec, cut


@st.composite
def zeta_cases(draw):
    """A random string and a cut up to 10^7 clear of every eigenvalue: each
    l_i sqrt(cut) / pi lies more than 1e-9 of itself away from an integer,
    so string i has K_i = floor(l_i sqrt(cut) / pi) values below the cut
    whichever way they round."""
    spec = draw(rationalized_string_specs())
    cut = draw(st.floats(10.0, 1e7))
    ratios = [float(l) * math.sqrt(cut) / math.pi for l in spec.lengths]
    assume(all(abs(r - round(r)) > 1e-9 * r for r in ratios))
    return spec, cut, [math.floor(r) for r in ratios]


@SETTINGS
@given(case=analytic_string_cases())
def test_analytic_string_spectrum_has_the_bits_of_the_rational_reference(case):
    spec, cut = case
    s, ref = strings.string_analytic_spectrum(spec, cut), strings_reference.string_analytic_spectrum(spec, cut)
    rows = [(e.value, e.multiplicity, e.tag) for e in s.entries]
    assert rows == [(e.value, e.multiplicity, e.tag) for e in ref.entries]
    assert s.to_csv() == ref.to_csv()


@SETTINGS
@given(case=zeta_cases())
def test_zeta_partial_sums_the_rational_reference_spectrum(case):
    spec, cut, _ = case
    ref = strings_reference.string_analytic_spectrum(spec, cut)
    for s_val in cli.ZETA_S_GRID:
        merged = math.fsum(e.multiplicity * e.value ** -s_val for e in ref.entries)
        assert abs(strings.zeta_partial(spec, s_val, cut) - merged) <= 1e-13 * merged


@SETTINGS
@given(case=zeta_cases())
def test_zeta_partial_sum_and_its_tail_bracket_the_closed_form_limit(case):
    spec, cut, terms = case
    for s_val in (s for s in cli.ZETA_S_GRID if s > 0.5):
        partial = strings.zeta_partial(spec, s_val, cut)
        lower, upper = strings_reference.zeta_tail_bounds(spec, s_val, terms)
        limit = strings_reference.zeta_limit(spec, s_val)
        assert (partial + lower) * (1 - 1e-13) <= limit <= (partial + upper) * (1 + 1e-13)


@st.composite
def symmetric_matrices(draw):
    """A random symmetric matrix of at most 80 rows: Q diag(d) Q^T with d
    drawn from a few values, so eigenvalues repeat, or a random tridiagonal,
    whose zero off-diagonal entries split it into blocks."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        levels = rng.normal(scale=10.0, size=draw(st.integers(1, 6)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        S = (q * rng.choice(levels, size=n)) @ q.T
        S = (S + S.T) / 2
    else:
        off = rng.normal(size=n - 1) * (rng.random(n - 1) > 0.2)
        S = np.diag(rng.normal(size=n)) + np.diag(off, 1) + np.diag(off, -1)
    return S


@SETTINGS
@given(S=symmetric_matrices())
def test_sparse_inertia_count_is_the_dense_count_or_refused(S):
    """Cuts halfway between distinct eigenvalues and 1e-9 of the spectral
    scale off each side of every eigenvalue (a cut within 1e-10 of the
    scale of an eigenvalue is dropped: there the dense count itself depends
    on rounding), through solve_below on S as a sparse pencil with unit
    masses: it may refuse a cut (NoConvergence) but never returns a wrong
    count, and it returns as many values as it counts.  The count it is
    held to comes from LAPACK's generalized solver, not from the package's
    ``eigvalsh``."""
    op = operator(S, np.ones(len(S)))
    w = generalized_eigh(op)[0]
    scale = max(1.0, np.abs(w).max())
    distinct = np.unique(w)
    cuts = np.concatenate([(distinct[:-1] + distinct[1:]) / 2,
                           w - 1e-9 * scale, w + 1e-9 * scale])
    cuts = [c for c in cuts if np.abs(w - c).min() > 1e-10 * scale]
    for cut in cuts:
        try:
            got = solve_below(op, cut)
        except NoConvergence:
            continue
        assert len(got.values) == np.count_nonzero(w < cut), cut


@st.composite
def repeated_pencils(draw):
    """A pencil of 1-4 identical copies of a random weighted path Laplacian
    with a nonnegative potential and random masses, so that its eigenvalues
    repeat, and a cut halfway between two distinct eigenvalues or above
    them all (the whole-spectrum route)."""
    t, copies = draw(st.integers(2, 15)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.5, 2.0, t - 1)
    potential = rng.uniform(0.0, 1.0, t) * (rng.random(t) < 0.5)
    T = sp.diags([-w, np.r_[w, 0.0] + np.r_[0.0, w] + potential, -w], [-1, 0, 1])
    op = operator(sp.kron(sp.identity(copies), T), np.tile(rng.uniform(0.5, 2.0, t), copies))
    values = generalized_eigh(op)[0]
    distinct = values[[start for start, _ in gap_runs(values, 1e-9)]]
    cuts = [*((distinct[:-1] + distinct[1:]) / 2), 2.0 * values[-1] + 1.0]
    return op, draw(st.sampled_from(cuts))


@SETTINGS
@given(case=repeated_pencils())
def test_values_only_solve_matches_the_eigenpair_solve(case):
    """Through the dense reduction (solve_below) the number of values is
    the number of eigenpairs of LAPACK's generalized driver below the cut,
    and the values agree with theirs to 1e-13 relative (floored at 1)."""
    op, cut = case
    got = solve_below(op, cut)
    values, _ = eigenpairs_below(op, cut)
    assert len(got.values) == len(values)
    assert np.all(np.abs(got.values - values) <= 1e-13 * np.maximum(1.0, np.abs(values)))


@SETTINGS
@given(case=repeated_pencils(), above=st.booleans())
def test_solve_agrees_with_the_generalized_solver_on_both_sides_of_the_threshold(case, above):
    """Pencils of at most 500 unknowns and, repeated, of more (where
    ``dsytrd`` reduces in blocks): solve_below agrees with LAPACK's
    generalized driver to 1e-13 relative (floored at 1), with as many
    values."""
    op, cut = case
    if above:
        reps = 500 // op.n + 1
        op = operator(sp.block_diag([csr(op)] * reps), np.tile(op.M, reps))
    got = solve_below(op, cut)
    values, _ = eigenpairs_below(op, cut)
    assert len(got.values) == len(values)
    assert np.all(np.abs(got.values - values) <= 1e-13 * np.maximum(1.0, np.abs(values)))


@st.composite
def nesting_cases(draw):
    """Two spectrum lists and a tolerance for verify_nesting: lower values
    on, next to and halfway between upper ones (so that two upper values
    are equally near), or anywhere, with magnitudes from 1e-17 to 1e300 so
    that differences round and tie, and zeros of either sign, which the
    exact-key match takes for one another."""
    value = st.one_of(st.floats(-1e6, 1e6), st.integers(-20, 20).map(float),
                      st.sampled_from([-1e-17, -0.0, 0.0, 1e-17, 0.1, 0.3, 1e300, -1e300]))
    up = sorted(set(draw(st.lists(value, max_size=10))))
    near = [*up, *((a + b) / 2 for a, b in zip(up, up[1:])),
            *(u * (1 + 1e-10) for u in up), *(u + 1e-13 for u in up)]
    low = sorted(set(draw(st.lists(st.one_of(value, st.sampled_from(near)) if near else value,
                                   max_size=10))))

    def spectrum(values):
        return SpectrumList([SpectrumEntry(v, draw(st.integers(1, 3))) for v in values],
                            "numeric(test)", math.inf, pitch=0.1)

    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5, 2.0, 1e3]))
    return spectrum(low), spectrum(up), tol


@settings(SETTINGS, max_examples=200)
@given(case=nesting_cases())
def test_nesting_report_is_the_loop_reference_report(case):
    """The exact-key and binary-search nearest-neighbour match gives the
    report of the loop over every pair in tests/nesting_reference.py, float
    for float, its surplus as the number of the values the loop lists."""
    lower, upper, tol = case
    got = verify_nesting(lower, upper, tol)
    ref = nesting_reference.verify_nesting(lower, upper, tol)
    assert got["surplus"] == len(ref["surplus"])
    assert json.dumps({**got, "surplus": ref["surplus"]}) == json.dumps(ref)


@st.composite
def level_tables(draw):
    """Values and counts new at each of 0 to 14 levels, as ``_level_values``
    hands them to ``fiber._cluster_levels``, with the keywords that
    ``equilateral_spectra`` passes or none: values drawn from a small pool,
    so that they repeat within a level and across levels, zeros of either
    sign among them, zero counts and empty levels.  Twelve levels or more
    let a value be new at levels 2 and 10, whose tags sort "new@10"
    first."""
    pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
    value = st.one_of(st.sampled_from([*pool, 0.0, -0.0]), st.floats(-1e3, 1e3))
    n_levels = draw(st.one_of(st.integers(0, 3), st.integers(12, 14)))
    new = []
    for _ in range(n_levels):
        fresh = draw(st.lists(value, max_size=6))
        new.append((fresh, draw(st.lists(st.integers(0, 4), min_size=len(fresh),
                                          max_size=len(fresh)))))
    kw = draw(st.one_of(st.just({}), st.builds(lambda lam, pitch: {"truncation": lam,
                                                                   "pitch": pitch},
                                               st.floats(1.0, 1e3), st.floats(1e-3, 1.0))))
    return new, kw


def spectrum_fields(s: SpectrumList):
    """Everything a spectrum list holds, its values by their bits."""
    return ([(repr(e.value), type(e.value), e.multiplicity, type(e.multiplicity), e.tag)
             for e in s.entries], s.origin, s.truncation, s.pitch)


@settings(SETTINGS, max_examples=200)
@given(case=level_tables())
def test_level_merge_is_the_sort_and_cluster_reference(case):
    """Merging each level into the one below gives the spectrum lists of
    sorting every row up to each level again and clustering them
    (``level_reference.sorted_levels``): entries, their value bits, tags,
    origin, truncation and pitch."""
    new, kw = case
    got = fiber._cluster_levels(new, "level {}", **kw)
    ref = level_reference.sorted_levels(new, "level {}", **kw)
    assert [spectrum_fields(s) for s in got] == [spectrum_fields(s) for s in ref]


def test_level_merge_puts_new_at_10_before_new_at_2():
    """A value new at levels 0, 2, 10 and 11 lists its tags in string
    order, as the reference does."""
    new = [([1.0], [1]), *[([1.0], [level]) if level in (2, 10, 11) else ([], [])
                          for level in range(1, 12)]]
    got = fiber._cluster_levels(new, "{}")
    assert got[-1].entries == [SpectrumEntry(1.0, 24, "basex1;new@10x10;new@11x11;new@2x2")]
    assert got == level_reference.sorted_levels(new, "{}")


def ulp_steps(x: float, k: int) -> float:
    """The float k representable values above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


#: floats near 0, 1 and 1e16, a few units in the last place apart
near_anchors = st.builds(ulp_steps, st.sampled_from([0.0, 1.0, -1.0, 1e16]), st.integers(-4, 4))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(SETTINGS, max_examples=400)
@given(values=st.lists(st.one_of(near_anchors, finite_floats), min_size=1, max_size=12,
                       unique=True).map(sorted),
       data=st.data())
def test_nearest_is_the_first_argmin_of_the_linear_scan(values, data):
    """On a strictly increasing list, the binary search of ``_nearest``
    (which ``verify_nesting``, ``compare_spectra``, ``decimation_check``
    and ``verify --tol`` share) returns the index of the linear scan: the
    first value of least distance.  Queries on the values, between two
    neighbours, ulp-close to them or far outside them, where the
    differences overflow, make rounding ties."""
    mids = [a / 2 + b / 2 for a, b in zip(values, values[1:])]
    x = data.draw(st.one_of(st.sampled_from(values + (mids or values)), near_anchors, finite_floats,
                            st.sampled_from([-1.7976931348623157e308, -1e300, 1e300,
                                             1.7976931348623157e308])))
    dev = [abs(v - x) for v in values]
    assert _nearest(values, x) == dev.index(min(dev))


@st.composite
def decimation_cases(draw):
    """Two consecutive levels and a tolerance for decimation_check, in the
    variable lambda = 4 mu: upper values anywhere in [0, 6.25] or within a
    few tolerances of 2, 5 and 6; lower values on the image
    lambda (5 - lambda) of an upper value, off it by up to three
    tolerances, a power of two to either side of it (so that two lower
    values are equally near), or anywhere.  Either level may be empty."""
    # at a power of two the shifts of one tolerance land on it exactly, and
    # at 0 only the exceptional values themselves are exceptional
    tol = draw(st.sampled_from([0.0, 1e-8, 2.0**-20, 1e-6, 1e-3]))
    steps = st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0])
    near = st.builds(lambda x, k: x * (1 + k * tol), st.sampled_from(gasket.EXCEPTIONAL), steps)
    upper = sorted(set(draw(st.lists(st.one_of(st.floats(0.0, 6.25), near), max_size=12))))
    lower = draw(st.lists(st.floats(-8.0, 6.25), max_size=4))
    for lp in upper:
        image = lp * (5.0 - lp)
        scale = tol * max(1.0, abs(image))
        kind = draw(st.sampled_from(["none", "image", "off", "tie"]))
        if kind == "image":
            lower.append(image)
        elif kind == "off":
            lower.append(image + draw(steps) * scale)
        elif kind == "tie":
            half = 2.0 ** (math.floor(math.log2(scale or 1e-12)) + draw(st.integers(-1, 1)))
            lower += [image - half, image + half]

    def spectrum(values):
        return cluster(np.array(sorted(set(values))) / gasket.DECIMATION_SCALE)

    return spectrum(lower), spectrum(upper), tol


@settings(SETTINGS, max_examples=300)
@given(case=decimation_cases())
def test_decimation_check_is_the_loop_reference_report(case):
    """The sorted-search decimation check gives the report of the loop over
    every lower value in tests/decimation_reference.py: the same counts,
    the same unexplained values in the same order and a bit-equal
    max_deviation."""
    lower, upper, tol = case
    got = gasket.decimation_check(lower, upper, tol)
    assert json.dumps(got) == json.dumps(decimation_reference.decimation_check(lower, upper, tol))
    assert got["matched"] + got["exceptional"] + len(got["unexplained"]) == len(upper.entries)


@st.composite
def spectrum_lists(draw):
    """A spectrum list of up to 8 strictly increasing finite values (some
    drawn from subnormal and near-overflow ones), mults >= 1, tags (some
    repeated) and an origin with commas, semicolons, quotes, line breaks
    and non-ASCII text, or empty, a finite or infinite truncation and an
    optional pitch."""
    text = st.text(st.sampled_from('ab1 ,;"\n\r\t=@xé∂'), max_size=12)
    values = draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([5e-324, 1e-310, 2.2e-308, 1e300,
                                                      1.7976931348623157e308])),
                           max_size=8, unique=True))
    tags = st.one_of(text, st.sampled_from(draw(st.lists(text, min_size=1, max_size=3))))
    entries = [SpectrumEntry(v, draw(st.integers(1, 10**6)), draw(tags)) for v in sorted(values)]
    return SpectrumList(entries, draw(text),
                        draw(st.one_of(st.floats(allow_nan=False), st.just(math.inf))),
                        draw(st.one_of(st.none(), st.floats(1e-6, 1.0))))


@SETTINGS
@given(s=spectrum_lists())
def test_spectrum_lists_survive_csv_and_json_round_trips(s):
    text = s.to_csv()
    assert SpectrumList.from_csv(text).to_csv() == text
    back = spectrum_from_json(spectrum_to_json(s))
    assert back.entries == s.entries
    assert (back.origin, back.truncation, back.pitch) == (s.origin, s.truncation, s.pitch)


@settings(SETTINGS, max_examples=200)
@given(s=spectrum_lists())
def test_csv_is_the_row_by_row_csv_writer(s):
    """The CSV quoting each distinct tag and the origin once has the bytes
    of writing every row through ``csv.writer``
    (``tests/csv_reference.py``), and reads back to the same entries and,
    when it has a row, the same origin."""
    text = s.to_csv()
    assert text == csv_reference.spectrum_to_csv(s)
    back = SpectrumList.from_csv(text)
    assert back.entries == s.entries
    assert back.origin == (s.origin if s.entries else "unknown")


cli_runs = st.one_of(
    st.builds(lambda j, refine, lam, boundary: ("laakso", {"j": j, "refine": refine,
                                                           "lambda_max": lam,
                                                           "boundary": boundary}),
              st.lists(st.sampled_from([2, 3]), min_size=0, max_size=2),
              st.sampled_from([4, 8]), st.sampled_from([60.0, 200.0]),
              st.sampled_from(["neumann", "dirichlet"])),
    string_specs.flatmap(lambda spec: st.builds(
        lambda lam, terms: ("string", {"lengths": [float(l) for l in spec.lengths],
                                       "mults": spec.mults, "refine": spec.refine,
                                       "lambda_max": lam, "zeta_terms": terms}),
        st.sampled_from([200.0, 700.0]), st.integers(1, 50))),
    choux_specs.map(lambda spec: ("choux", {"fiber_depth": spec.fiber_depth,
                                            "gasket_level": spec.gasket_level,
                                            "boundary": spec.boundary})),
)


def assert_reruns_are_byte_identical(command, doc):
    """Two runs of one spec into two directories write the same files, with
    the same bytes, run.json included."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = f"{tmp}/spec.json"
        with open(spec, "w") as f:
            json.dump(doc, f)
        outs = [f"{tmp}/a", f"{tmp}/b"]
        codes = [cli.main([command, "--spec", spec, "--out", out]) for out in outs]
        assert codes[0] == codes[1] and codes[0] in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
        same, differ, missing = filecmp.cmpfiles(*outs, sorted(os.listdir(outs[0])),
                                                 shallow=False)
        assert "run.json" in same and not differ and not missing
        assert sorted(os.listdir(outs[0])) == sorted(os.listdir(outs[1]))


@settings(SETTINGS, max_examples=9)
@given(run=cli_runs)
def check_cli_reruns_are_byte_identical(run):
    assert_reruns_are_byte_identical(*run)


def test_cli_reruns_are_byte_identical():
    check_cli_reruns_are_byte_identical()


def test_cli_reruns_are_byte_identical_on_bases_above_500_vertices():
    """Laakso runs whose base paths have 513 and 730 vertices, both
    boundaries."""
    for j in ([2] * 9, [3] * 6):
        for boundary in ("neumann", "dirichlet"):
            assert_reruns_are_byte_identical("laakso", {"j": j, "refine": 8, "lambda_max": 400,
                                                        "boundary": boundary})
