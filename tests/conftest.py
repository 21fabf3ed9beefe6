import pytest

from fractal_spectra import eigensolve


@pytest.fixture
def eigsh_threshold(monkeypatch):
    """Set the size above which solve_below takes eigsh (0: always)."""
    return lambda n: monkeypatch.setattr(eigensolve, "EIGSH_THRESHOLD", n)
