import pytest


@pytest.fixture
def symbol_rows(monkeypatch):
    """``symbol_rows(module)`` wraps ``module.symbol_stream`` and returns the list it fills:
    one (t, derivatives) per symbol row the module takes from the stream, in order."""
    rows = []

    def install(module):
        inner = module.symbol_stream

        def counted(m, times, lam, *, derivatives=True):
            times = list(times)
            for t, row in zip(times, inner(m, times, lam, derivatives=derivatives)):
                rows.append((t, derivatives))
                yield row

        monkeypatch.setattr(module, "symbol_stream", counted)
        return rows

    return install
