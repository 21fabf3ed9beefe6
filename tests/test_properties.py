"""Property tests over random Laakso, pâte à choux and fractal-string specs.

On every level the multiplicities must add up to the inertia count, and the
block route must agree with the independent full-pencil route.  The example
counts and the deadline keep the file to a few seconds; ``derandomize``
makes every run draw the same examples.
"""

from datetime import timedelta
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fractal_spectra import gasket, laakso, strings
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
