"""Domain geometry: profile field, cutoff, patch validation."""

import numpy as np
import pytest

from bousscontrol.exceptions import DomainError, GeometryError
from bousscontrol.geometry import (ControlPatch, build_eta0, bump_profile,
                                   eta0_gradient_margin, validate_patch)
from bousscontrol.grids import GridSpec, TimeGrid

from conftest import patch_area


def cutoff_1omega(grid: GridSpec, patch: ControlPatch) -> np.ndarray:
    """Sample the smooth cutoff at grid nodes."""
    validate_patch(grid, patch)
    x, y = grid.nodes()
    return bump_profile(patch)(x, y)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(4, 16)
    with pytest.raises(DomainError):
        GridSpec(16, 16, lx=-1.0)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 8)


def test_eta0_center_value_and_boundary():
    grid = GridSpec(32, 32)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2))
    eta = build_eta0(grid, patch)
    # even grid: the domain center is a node and carries the max, exactly 1
    assert eta[16, 16] == pytest.approx(1.0, abs=0.0)
    assert eta.max() == pytest.approx(1.0, rel=1e-15)
    assert np.all(eta[0, :] == 0.0) and np.all(eta[-1, :] == 0.0)
    assert np.all(eta[:, 0] == 0.0) and np.all(eta[:, -1] == 0.0)
    assert np.all(eta[1:-1, 1:-1] > 0.0)


def test_eta0_gradient_margin_positive():
    grid = GridSpec(32, 32)
    patch = ControlPatch((0.5, 0.5), (0.15, 0.15))
    eta = build_eta0(grid, patch)
    margin = eta0_gradient_margin(grid, patch, eta)
    assert margin > 0.0


def test_eta0_offcenter_patch_rejected():
    grid = GridSpec(32, 32)
    patch = ControlPatch((0.75, 0.5), (0.15, 0.15))
    with pytest.raises(GeometryError):
        build_eta0(grid, patch)


def test_patch_validation():
    grid = GridSpec(16, 16)
    with pytest.raises(GeometryError):
        validate_patch(grid, ControlPatch((0.9, 0.5), (0.2, 0.2)))
    with pytest.raises(GeometryError):
        ControlPatch((0.5, 0.5), (0.2, 0.2), inner_margin=1.5)
    for half_widths in ((float("nan"), 0.2), (0.2, float("nan"))):
        with pytest.raises(GeometryError):
            ControlPatch((0.5, 0.5), half_widths)


def test_cutoff_plateau_support_bounds():
    grid = GridSpec(32, 32)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2), inner_margin=0.25)
    cut = cutoff_1omega(grid, patch)
    assert cut[16, 16] == 1.0
    x, y = grid.nodes()
    outside = ~patch.contains(x, y)
    assert np.all(cut[outside] == 0.0)
    inside = patch.contains(x, y)
    assert np.all(cut[inside] > 0.0)
    assert cut.max() <= 1.0
    inner = patch.contains(x, y, inner=True)
    assert np.all(cut[inner] == 1.0)


def test_cutoff_integral_bounded_by_patch_area():
    grid = GridSpec(64, 64)
    patch = ControlPatch((0.5, 0.5), (0.2, 0.15))
    f = bump_profile(patch)
    xc, yc = grid.cell_centers()
    integral = float(np.sum(f(xc, yc)) * grid.cell_area)
    assert 0.0 < integral <= patch_area(patch)


def test_cutoff_smooth_shoulder_monotone():
    patch = ControlPatch((0.5, 0.5), (0.2, 0.2), inner_margin=0.5)
    f = bump_profile(patch)
    xs = np.linspace(0.5, 0.72, 200)
    vals = f(xs, np.full_like(xs, 0.5))
    assert np.all(np.diff(vals) <= 1e-12)
