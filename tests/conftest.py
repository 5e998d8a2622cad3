import hypothesis
import pytest

from stepweaver import optimizer

hypothesis.settings.register_profile(
    "ci", max_examples=100, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rows_filled(monkeypatch):
    """Counts DP rows filled: the fill calls ``_fill_row`` once per row."""
    count = [0]
    real = optimizer._fill_row

    def counted(n, cols, buf):
        count[0] += 1
        return real(n, cols, buf)

    monkeypatch.setattr(optimizer, "_fill_row", counted)
    return count
