"""Level spectra of projective-limit spaces from Dirichlet pieces of their
base graph.

A level-n approximation is a base graph times fibers, and the fiber
projector P of level l splits the level-l space into range(P), which
carries the spectrum of level l - 1, and ker(P), whose eigenfunctions
have mean zero over each fiber of coordinate l (on binary fibers: are odd
in it) and vanish where that coordinate is collapsed (arXiv 1204.5207;
Barlow & Evans, "Markov processes on vermiculated spaces", 2004).  So
every eigenvalue new at level l is an eigenvalue of a piece of the level-0
graph with extra Dirichlet vertices, and no level above 0 is built to find
it.  Every family hands the pipeline a LevelFamily: per level, the table
of its distinct pieces with their counts, and the spectrum of a piece in
closed form.

- a base graph times the binary fibers {0,1}^l, with coordinate b collapsed
  at the vertices born at level b (the Laakso space and the pâte à choux):
  the values new at level l are those of the base graph with Dirichlet
  marks at the vertices born at a level in S, for every S in {1..l} with
  max S = l.  On the Laakso path only the runs of each length and end type
  that these pieces cut it into are counted, in closed form from d_(l-1)
  and d_l, at most four per level (``laakso.laakso_family``); on the
  gasket each piece is keyed on its kept vertices of V_(l-1) and has its
  spectrum by spectral decimation, and no graph of the gasket is built
  (``gasket.choux_family``);
- the stitched strings (``strings.stitched_family``): m_1 - 1 copies of the
  base path at level 1, and m_k Dirichlet paths of l_k / g cells at
  level k, one run per level.

Both path families hand their runs to one constructor, as vertex spans with
their copies (``path_family``).

Every family goes through one pipeline: take the spectrum of each distinct
piece of a level once, up to the cut, with the number of its copies, and
tag each value with the level it is new at (``_level_values``), then merge
the equal values with their counts (``level_spectra``, which the pâte à
choux uses); no value is listed once per copy, and no eigensolver is
called.  The walk Laplacian of a run of a path has its values in closed
form (``_run_values``): no matrix is formed, and a run lists its values in
ascending order up to the first one above the cut.  A path family's base
is no graph either, only the two facts the pipeline reads of its path: the
vertex count and the edge length (``PathBase``).  The Laakso and string
levels, whose edges have one length, take their finite-difference mesh
the same way: the mesh nodes inside an edge are never collapsed, so each
run of vertices is a run of mesh nodes, only finer, and M^{-1} A of the
mesh is (2 / h^2) times its walk Laplacian (``equilateral_spectra``); as
intervals of the quantum graph the runs give the continuum spectrum,
whose values the mesh values approximate rank by rank
(``continuum_spectra``).  No
eigenvector is formed, and no array: run tables, values and counts are
lists of Python ints and floats.  Each level is the level below with its
own new values merged in, in one pass that sorts only those and rebuilds
only the entries that gain a count (``_cluster_levels``), as the spaces
nest.

The trade-off: the pipeline assumes the decomposition and the closed forms
instead of checking them on every run.  The tests hold them to the whole
level pencils, whose eigenvectors they classify by the fiber projectors of
the levels below (``tests/level_reference.py``), to a dense solve of every
piece (``tests/piece_reference.py``) and to the mesh pencils of
``tests/mesh_reference.py``.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from typing import NamedTuple

from .eigensolve import SpectrumEntry, SpectrumList


def _angles(key: int) -> tuple[int, int, int]:
    """(first, step, q) of a run key (``LevelFamily``): the k-th angle of
    the run is theta_k = pi (first + k step) / q."""
    m, free = key >> 2, (key >> 1 & 1) + (key & 1)
    return {2: (0, 1, m - 1), 1: (1, 2, 2 * m), 0: (1, 1, m + 1)}[free]


def _run_values(key: int, cut: float) -> list[float]:
    """The eigenvalues <= cut (1 + 1e-12) of the pencil of a run key
    (``LevelFamily``), ascending.

    The pencil of a run of m vertices is the walk Laplacian of the path
    with its free ends kept and every other end next to an eliminated
    vertex, whatever the edge weight; its values are 2 sin^2(theta_k / 2),
    k = 0..m-1, with theta_k = k pi / (m - 1) for two free ends,
    (2k + 1) pi / 2m for one and (k + 1) pi / (m + 1) for none (the
    discrete cosine and sine transforms diagonalize it).  The angles rise
    with k below pi, so the listing stops at the first value above the
    cut.  The sine keeps the small values to a few units in their last
    place.  theta / pi is taken as a reduced fraction, so equal angles of
    different runs give equal bits."""
    first, step, q = _angles(key)
    bound = cut * (1 + 1e-12)
    values = []
    for p in range(first, first + step * (key >> 2), step):
        g = math.gcd(p, q)
        y = math.sin(math.pi * (p // g) / (2 * (q // g)))
        value = 2 * (y * y)
        if value > bound:
            break
        values.append(value)
    return values


def _run_spectrum(level: int, key: int, cut: float) -> tuple[list[float], list[int]]:
    """The spectrum <= cut of a run key at level ``level``: its values
    (``_run_values``), each once; a run has the same values at every
    level."""
    values = _run_values(key, cut)
    return values, [1] * len(values)


class PathBase(NamedTuple):
    """The level-0 graph of a path family: ``n_vertices`` vertices in
    order, edge k joining vertices k and k + 1, every edge of ``length`` and
    one weight.  Which vertices are Dirichlet vertices the runs of each
    level say (``LevelFamily``)."""

    n_vertices: int
    length: float


class LevelFamily(NamedTuple):
    """Levels 0..n of a space, given by its level-0 path ``base`` and the
    table of the distinct pieces of each level.  A family that takes no
    mesh (``equilateral_spectra``) may have no base, as the pâte à choux
    has none.

    ``runs[l]``, for l = 0..n, is the table (keys, counts) of the pieces of
    level l, level 0 being ``base`` with its Dirichlet vertices: level l
    gains the spectrum of each piece ``count`` times.
    ``spectrum(l, key, cut)`` gives the spectrum <= cut (1 + 1e-12) of the
    piece ``key`` of level l, as the lists (values, multiplicities) in any
    order; at an infinite cut the multiplicities add up to its number of
    kept vertices.

    By default the pieces are the runs of kept vertices that the Dirichlet
    marks cut the base path into, hence the name (``path_family``).  A run
    of m vertices whose first (last) vertex is the first (last) of the
    path, so a free path end, has the key 4 m + 2 [first free] +
    [last free], and its values in closed form (``_run_values``).  A run
    may have no vertex: an edge between two Dirichlet vertices, key 0,
    which has no vertex value but has mesh nodes.  The pâte à choux keys
    its gasket pieces and gives their spectra itself
    (``gasket.choux_family``).
    """

    base: PathBase | None
    runs: list[tuple[list[int], list[int]]]
    spectrum: Callable[[int, int, float], tuple[list[float], list[int]]] = _run_spectrum


def path_family(base: PathBase, spans) -> LevelFamily:
    """Levels 0..n of a path base (see ``LevelFamily.runs``) whose level l
    gains the values of the runs ``spans[l]``, each given as
    (first, stop, copies): the kept vertices first..stop-1 of the base,
    ``copies`` times, between two Dirichlet vertices save at a path end.
    The runs of a level have distinct keys; its table lists them by key,
    leaving out those with no copy.  A run with no vertex (first == stop)
    is the edge between two Dirichlet vertices and stays: its mesh nodes
    carry values."""
    n = base.n_vertices
    runs = []
    for spans_l in spans:
        table = sorted((4 * (stop - first) + 2 * (first == 0) + (stop == n), copies)
                       for first, stop, copies in spans_l if copies)
        runs.append(([key for key, _ in table], [copies for _, copies in table]))
    return LevelFamily(base, runs)


def _level_values(family: LevelFamily, cut: float) -> list[tuple[list[float], list[int]]]:
    """Eigenvalues <= ``cut`` (1 + 1e-12) new at each level, as the lists
    (values, counts): level l gains each of its values ``count`` times.

    Each piece of ``family.runs`` is taken once per level, its spectrum up
    to the cut from ``family.spectrum``, and its values are counted its
    copies times: on self-similar spaces most pieces repeat, and no value is
    listed once per copy.
    """
    new = []
    for level, (keys, copies) in enumerate(family.runs):
        values, counts = [], []
        for key, copy in zip(keys, copies):
            piece, mult = family.spectrum(level, key, cut)
            values += piece
            counts += [copy * count for count in mult]
        new.append((values, counts))
    return new


def _with_tag(text: str, tag: str, count: int) -> str:
    """The tag list ``text`` (items "<name>x<count>" joined by ";", in the
    order of their names) with the item of ``tag``, which it lacks, added
    in its place: at the end while ``tag`` sorts last, but "new@10" sorts
    before "new@2"."""
    item = f"{tag}x{count}"
    if text.rpartition(";")[2].rpartition("x")[0] < tag:
        return f"{text};{item}"
    items = text.split(";")
    items.insert(bisect.bisect([i.rpartition("x")[0] for i in items], tag), item)
    return ";".join(items)


def _cluster_levels(new: list[tuple[list[float], list[int]]], origin: str,
                    truncation: float = math.inf,
                    pitch: float | None = None) -> list[SpectrumList]:
    """Level i's spectrum from the values and counts ``new[0..i]``, new[0]
    tagged "base" and new[k] "new@k", values of count 0 left out: each
    entry's multiplicity is the sum of the counts of its value, and its tag
    lists each level's count as "<tag>x<count>", joined by ";" in the order
    of the tags.  ``origin`` is formatted with the level.

    Level l is level l - 1 with the values new at l merged in, in one pass:
    equal values of level l are grouped first, their counts summed, and
    only these are sorted; each is then found in the level below by binary
    search, and the entries between two of them are copied by slice.  An
    entry that gains no count is the entry of the level below, unchanged
    (entries are frozen), and one that gains a count keeps its value and
    adds the count and its tag (``_with_tag``)."""
    entries: list[SpectrumEntry] = []
    out = []
    for level, (fresh, copies) in enumerate(new):
        tag = "base" if level == 0 else f"new@{level}"
        tally: dict[float, int] = {}
        for value, count in zip(fresh, copies):
            if count > 0:
                tally[value] = tally.get(value, 0) + count
        values = [e.value for e in entries]
        merged, start = [], 0
        for value in sorted(tally):
            count = tally[value]
            at = bisect.bisect_left(values, value, start)
            merged += entries[start:at]
            if at < len(values) and values[at] == value:
                old = entries[at]
                merged.append(SpectrumEntry(old.value, int(old.multiplicity + count),
                                            _with_tag(old.tag, tag, count)))
                start = at + 1
            else:
                merged.append(SpectrumEntry(float(value), int(count), f"{tag}x{count}"))
                start = at
        entries = merged + entries[start:]
        out.append(SpectrumList(entries, origin.format(level), truncation, pitch))
    return out


def level_spectra(family: LevelFamily, lam_max: float, origin: str) -> list[SpectrumList]:
    """Vertex-pencil spectrum below ``lam_max`` of every level 0..n with
    origin tags: level i's spectrum is the union of the base values (tag
    "base") and the piece values of levels 1..i (tag "new@k"), from
    ``_level_values``, each level merged into the one below
    (``_cluster_levels``)."""
    return _cluster_levels(_level_values(family, lam_max), origin)


def continuum_spectra(family: LevelFamily, lam_max: float, origin: str) -> list[SpectrumList]:
    """Spectrum below ``lam_max`` of every level of a path family with edges
    of the base's length l, as a quantum graph: a run of m vertices with f
    free ends is an interval of c = m + 1, m or m - 1 edges for f = 0, 1 or
    2, whose values are (pi x / l)^2 for x = p / c, p = 1, 2, ...,
    1/2, 3/2, ... or 0, 1, ...: the walk angles over pi (``_angles``) and
    those above.  x is a reduced fraction before the float, so equal values
    have equal bits; levels are merged and tagged as in ``level_spectra``."""
    scale = math.pi / family.base.length

    def spectrum(level: int, key: int, cut: float) -> tuple[list[float], list[int]]:
        first, step, q = _angles(key)
        bound = cut * (1 + 1e-12)
        values, p = [], first
        while True:
            g = math.gcd(p, q)
            value = (scale * ((p // g) / (q // g))) ** 2
            if value > bound:
                return values, [1] * len(values)
            values.append(value)
            p += step

    continuum = LevelFamily(family.base, family.runs, spectrum)
    return _cluster_levels(_level_values(continuum, lam_max), origin, truncation=lam_max)


def _mesh_key(key: int, refine: int) -> int:
    """The run key of the mesh nodes of the run ``key`` at ``refine`` cells
    per edge: a run of m vertices with f free ends spans m + 1 - f edges,
    whose mesh has (m + 1 - f) r + f - 1 nodes, (m + 1) r - 1, m r or
    (m - 1) r + 1, and the same free ends."""
    m, free = key >> 2, (key >> 1 & 1) + (key & 1)
    return ((m + 1 - free) * refine + free - 1) << 2 | key & 3


def equilateral_spectra(family: LevelFamily, refines: list[int], lam_max: float,
                        origin: str) -> list[list[SpectrumList]]:
    """Finite-difference spectra below ``lam_max`` of every level of a path
    family whose edges all have one length, cut into each of ``refines``
    cells at the pitch h = length / refine: r cells per edge, the measure
    lumped into the nodes, Dirichlet vertices eliminated.

    Then M^{-1} A = (2 / h^2)(I - P_r) for the walk P_r on the r-fold
    subdivision (von Below, Linear Algebra Appl. 1985), and the nodes
    inside an edge are never collapsed, so the mesh of a level splits into
    the runs of its vertices, each refined (``_mesh_key``): its values are
    those of ``level_spectra`` on the refined runs, at the walk cut
    lam_max h^2 / 2, times 2 / h^2.  A value is kept when it is
    <= lam_max (1 + 1e-12), and the levels are merged as in
    ``level_spectra``, so each level's multiplicities add up to the number
    of its mesh eigenvalues <= lam_max.
    """
    bound = lam_max * (1 + 1e-12)
    out = []
    for refine in refines:
        pitch = family.base.length / refine
        scale = 2 / (pitch * pitch)
        mesh = LevelFamily(family.base, [([_mesh_key(key, refine) for key in keys], copies)
                                         for keys, copies in family.runs])
        levels = []
        for values, counts in _level_values(mesh, lam_max / scale):
            kept = [k for k, value in enumerate(values) if scale * value <= bound]
            levels.append(([scale * values[k] for k in kept], [counts[k] for k in kept]))
        out.append(_cluster_levels(levels, origin, truncation=lam_max, pitch=pitch))
    return out
