"""Data profiles and the one C-inf ramp behind every smooth cutoff."""

import numpy as np
import pytest

from tricomi_lab.profiles import annular_bump, bump, gaussian_truncated, smooth_ramp, two_bump


class TestSmoothRamp:
    def test_flat_outside_the_unit_interval(self):
        x = np.array([-np.inf, -3.0, -1e-300, 0.0, 1.0, 1.0 + 1e-15, 4.0, np.inf])
        assert smooth_ramp(x).tolist() == [0.0] * 4 + [1.0] * 4

    def test_increasing_and_symmetric_inside(self):
        x = np.linspace(0.01, 0.95, 1001)
        vals = smooth_ramp(x)
        assert np.all((0.0 < vals) & (vals < 1.0)) and np.all(np.diff(vals) > 0.0)
        assert smooth_ramp(0.5) == 0.5
        np.testing.assert_allclose(vals + smooth_ramp(1.0 - x), 1.0, rtol=0, atol=1e-15)


class TestSupport:
    R = np.linspace(0.0, 3.0, 3001)

    @pytest.mark.parametrize("sigma,radius", [(0.22, 0.95), (0.3, 1.7)])
    def test_gaussian_truncated(self, sigma, radius):
        vals = gaussian_truncated(sigma, radius, 2.0)(self.R)
        gauss = 2.0 * np.exp(-(self.R**2) / (2.0 * sigma * sigma))
        inner, outer = self.R <= radius / 2.0, self.R >= radius
        assert np.array_equal(vals[inner], gauss[inner])
        assert np.all(vals[outer] == 0.0)
        assert np.all((0.0 <= vals) & (vals <= gauss))

    @pytest.mark.parametrize("center,width", [(0.0, 0.8), (1.2, 0.5), (0.4, 0.4)])
    def test_annular_bump(self, center, width):
        vals = annular_bump(center, width, 1.5)(self.R)
        inside = np.abs(self.R - center) < width
        assert np.all(vals[~inside] == 0.0) and np.all(vals >= 0.0)
        assert annular_bump(center, width, 1.5)(center) == 1.5

    def test_bump_is_the_centered_annular_bump(self):
        assert np.array_equal(bump(0.9, 3.0)(self.R), annular_bump(0.0, 0.9, 3.0)(self.R))
        assert bump(0.9, 3.0)(0.0) == 3.0

    @pytest.mark.parametrize("radius", [0.95, 2.0])
    def test_two_bump(self, radius):
        vals = two_bump(radius, 1.0)(self.R)
        assert np.all(vals[self.R >= radius] == 0.0)
        assert vals[0] == 1.0 and np.all(vals >= 0.0)
