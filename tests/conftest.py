import hypothesis
import pytest

from stepweaver import optimizer

hypothesis.settings.register_profile(
    "ci", max_examples=100, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rows_filled(monkeypatch):
    """Counts DP rows filled per table: the fill calls ``_fill_s_row`` once
    per s row and ``_fill_f_row`` once per f row."""
    count = {"s": 0, "f": 0}

    def counting(table, real):
        def counted(n, cols, buf):
            count[table] += 1
            return real(n, cols, buf)

        return counted

    monkeypatch.setattr(optimizer, "_fill_s_row", counting("s", optimizer._fill_s_row))
    monkeypatch.setattr(optimizer, "_fill_f_row", counting("f", optimizer._fill_f_row))
    return count
