import hypothesis
import pytest

from stepweaver import optimizer

hypothesis.settings.register_profile(
    "ci", max_examples=100, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rows_filled(monkeypatch):
    """Counts DP rows filled per table: the fill calls ``_fill`` once per
    table it extends, with the first and last row to fill."""
    count = {"s": 0, "f": 0}
    real = optimizer._fill

    def counted(t, first, last, buf):
        count["s" if t.half else "f"] += last - first + 1
        return real(t, first, last, buf)

    monkeypatch.setattr(optimizer, "_fill", counted)
    return count
