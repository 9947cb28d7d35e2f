import numpy as np
import pytest

import tricomi_lab.grids as grids
import tricomi_lab.symbols as symbols


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


@pytest.fixture
def nan_in_kernel(monkeypatch):
    """``nan_in_kernel(n)`` puts a NaN into one element of the n-th ``symbols._hyp0f1_kernel`` call
    and returns the list of the calls' argument shapes, which it fills."""
    calls = []

    def install(n):
        kernel = symbols._hyp0f1_kernel

        def faulty(nus, w):
            j = kernel(nus, w)
            calls.append(w.shape)
            if len(calls) == n:
                j[0].flat[3] = np.nan
            return j

        monkeypatch.setattr(symbols, "_hyp0f1_kernel", faulty)
        return calls

    return install


SMALL_SPLIT = 16


@pytest.fixture
def small_split(monkeypatch):
    """Lower ``grids.SPLIT_ABOVE_N`` to 16, so that small grids run the radix-2 split DST-I.

    Returns the list of the point counts n that were split, which it fills."""
    split, inner = [], grids._dst1

    def recorded(x, j, overwrite_x=False):
        n = x.shape[-1] + 1
        if n > SMALL_SPLIT and n % 2 == 0:
            split.append(n)
        return inner(x, j, overwrite_x)

    monkeypatch.setattr(grids, "SPLIT_ABOVE_N", SMALL_SPLIT)
    monkeypatch.setattr(grids, "_dst1", recorded)
    return split
