"""Control-region geometry: the patch pair omega_0 <<= omega, the positive
profile eta0 used to build observability weights, and the smooth cutoff
supported on omega."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, GeometryError
from .grids import GridSpec
from .operators import d_center


@dataclass(frozen=True)
class ControlPatch:
    """Axis-aligned control region omega with inner region omega_0.

    ``inner_margin`` in (0,1) shrinks the half-widths to produce omega_0,
    which must contain the domain center (the profile's critical point).
    """

    center: tuple[float, float]
    half_widths: tuple[float, float]
    inner_margin: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.inner_margin < 1.0):
            raise GeometryError("inner_margin must lie in (0, 1)")
        if not all(h > 0.0 for h in self.half_widths):
            raise GeometryError("patch half-widths must be positive")

    @property
    def inner_half_widths(self) -> tuple[float, float]:
        f = 1.0 - self.inner_margin
        return (self.half_widths[0] * f, self.half_widths[1] * f)

    def contains(self, x, y, inner: bool = False):
        hw = self.inner_half_widths if inner else self.half_widths
        return (np.abs(x - self.center[0]) < hw[0]) & (np.abs(y - self.center[1]) < hw[1])


def validate_patch(grid: GridSpec, patch: ControlPatch) -> None:
    """Patch strictly inside the domain; inner patch strictly inside the patch."""
    cx, cy = patch.center
    ax, ay = patch.half_widths
    if not (0.0 < cx - ax and cx + ax < grid.lx and 0.0 < cy - ay and cy + ay < grid.ly):
        raise GeometryError(
            f"control patch [{cx - ax:.3g},{cx + ax:.3g}]x[{cy - ay:.3g},{cy + ay:.3g}] "
            f"is not strictly inside the domain [0,{grid.lx}]x[0,{grid.ly}]"
        )


def eta0_profile(grid: GridSpec):
    """Analytic eta0 = c * x(lx-x) y(ly-y), normalized to sup = 1 at the center.

    Positive inside, zero on the boundary, unique interior critical point at
    the domain center.
    """
    lx, ly = grid.lx, grid.ly
    scale = 16.0 / (lx * lx * ly * ly)

    def f(x, y):
        return scale * x * (lx - x) * y * (ly - y)

    return f


def validate_weight_patch(grid: GridSpec, patch: ControlPatch) -> None:
    """``validate_patch``, plus omega_0 containing the domain center so the
    eta0 profile's only interior critical point sits inside the inner patch."""
    validate_patch(grid, patch)
    cx, cy = grid.lx / 2.0, grid.ly / 2.0
    ihw = patch.inner_half_widths
    if abs(patch.center[0] - cx) >= ihw[0] or abs(patch.center[1] - cy) >= ihw[1]:
        raise GeometryError(
            "the profile's critical point (domain center) must lie inside omega_0; "
            "move the patch or enlarge its inner region"
        )


def build_eta0(grid: GridSpec, patch: ControlPatch) -> np.ndarray:
    """Sample the normalized eta0 profile at grid nodes ((nx+1) x (ny+1));
    the patch must pass ``validate_weight_patch``."""
    validate_weight_patch(grid, patch)
    x, y = grid.nodes()
    return eta0_profile(grid)(x, y)


def eta0_gradient_margin(grid: GridSpec, patch: ControlPatch, eta0: np.ndarray) -> float:
    """Min |grad eta0| over grid nodes outside omega_0 (discrete differences).

    Central differences at interior nodes, second-order one-sided at the
    boundary rows; exhaustive scan over all nodes not in omega_0.  The four
    corner nodes are excluded: any profile vanishing on the whole boundary of
    a rectangle has both tangential derivatives zero there, so the corner
    degeneracy is intrinsic, not a profile defect.
    """
    gx = d_center(eta0, grid.hx, axis=0)
    gy = d_center(eta0, grid.hy, axis=1)
    mag = np.hypot(gx, gy)
    x, y = grid.nodes()
    outside = ~patch.contains(x, y, inner=True)
    for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
        outside[i, j] = False
    if not outside.any():
        raise GeometryError("omega_0 covers every grid node; domain degenerate")
    return float(mag[outside].min())


def bump_profile(patch: ControlPatch):
    """Smooth cutoff 1~_omega: identically 1 on omega_0, in (0,1] on omega,
    exactly 0 outside omega.  Product of per-axis C^inf shoulder bumps."""

    def axis_bump(t, c, hw, ihw):
        r = np.abs(np.asarray(t, dtype=float) - c)
        out = np.zeros_like(r)
        out[r <= ihw] = 1.0
        shoulder = (r > ihw) & (r < hw)
        if np.any(shoulder):
            s = (r[shoulder] - ihw) / (hw - ihw)  # in (0, 1)
            out[shoulder] = np.exp(1.0 - 1.0 / (1.0 - s * s))
        return out

    ihx, ihy = patch.inner_half_widths

    def f(x, y):
        bx = axis_bump(x, patch.center[0], patch.half_widths[0], ihx)
        by = axis_bump(y, patch.center[1], patch.half_widths[1], ihy)
        return bx * by

    return f


def bump_on_solver_grids(grid: GridSpec, patch: ControlPatch):
    """Cutoff sampled at u-faces, v-faces and cell centers (solver layout)."""
    validate_patch(grid, patch)
    f = bump_profile(patch)
    xu, yu = grid.u_positions()
    xv, yv = grid.v_positions()
    xc, yc = grid.cell_centers()
    return f(xu, yu), f(xv, yv), f(xc, yc)


def control_box(bumps):
    """The box controls are stored on: per solver grid (u-faces, v-faces,
    cells), the index slices (rows, columns) of the bounding box of
    ``bump > 0``.  Every control is exactly zero outside it.  The bump is a
    product of per-axis bumps, so the box is its support."""
    box = []
    for b in bumps:
        rows, cols = (np.flatnonzero(np.any(b > 0.0, axis=a)) for a in (1, 0))
        box.append(tuple(slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)
                         for i in (rows, cols)))
    return tuple(box)


def grid_box(grid: GridSpec):
    """The box covering every u-face, v-face and cell (see ``control_box``)."""
    return tuple((slice(0, nx), slice(0, ny)) for nx, ny in
                 ((grid.nx + 1, grid.ny), (grid.nx, grid.ny + 1), (grid.nx, grid.ny)))


def box_within(box, outer):
    """Per part, the (rows, columns) slices that read ``box`` out of an array
    stored on ``outer``; DomainError when ``box`` is not inside ``outer``."""
    idx = []
    for b, own in zip(box, outer):
        if any(s.start < o.start or s.stop > o.stop for s, o in zip(b, own)):
            raise DomainError("controls cannot be read outside their box")
        idx.append(tuple(slice(s.start - o.start, s.stop - o.start)
                         for s, o in zip(b, own)))
    return tuple(idx)
