"""MAC staggered-grid operators, inner products, spectral constant-coefficient
solvers, and the model-specific algebra (symmetrized gradient, viscous-heating
product, nonlocal viscosity laws).

Boundary conventions: homogeneous Dirichlet for velocity and temperature.
Normal velocity lives exactly on the walls (pinned zeros); tangential velocity
and temperature use odd ghost reflection inside diffusion operators.  The
cutoff/heating gradients instead use one-sided interior stencils so they make
no boundary-condition assumption.

Stacked levels: every stencil, and ``ViscosityLaw.of_density``, takes arrays
shaped (..., rows, cols) and acts on the last two axes, so one call serves a
single level or a stack of time levels.  An ``axis`` argument names the grid
axis, 0 for x and 1 for y, whatever the leading axes.  The elementwise
operations are the same either way, so each level of a stack gets the bits
of the single-level call.  The reductions that ``level_sums`` and
``per_level`` make return a float for one level and one value per level for
a stack, again with the single-level bits: ``np.sum`` over the last two
axes of a contiguous stack equals the per-level sum.  The H^1 forms sum with
``np.vdot``, which a stacked sum would not match, and take one level.

Modal transforms (``ModalBasis``): every DST-I, DST-II and DCT-II basis
vector is symmetric or antisymmetric about the centre of its axis (Strang,
SIAM Review 41, 1999), and the DCT-to-DST change of basis never mixes the two
classes.  So the modes of an axis of n cells are kept in parity order: the
frequencies with the parity of n + 1 first, then those with the parity of n,
each block increasing (``mode_frequencies``).  Each transform's symmetric
and antisymmetric rows are then two contiguous blocks, each change of basis
is two diagonal blocks, and f = n, where kept, is last.  An axis of at least
FOLD_MIN points applies each transform as two half-size products on the
folded halves x[:h] +- x[::-1][:h] (``_FoldedMaps``), and one of at least
CHANGE_BLOCK_MIN points each change of basis as its two blocks
(``_BlockMaps``); a shorter axis applies one dense product with the same
rows.  The crossovers, in us per one-axis map on an n x n array (mean of
forward and inverse along both axes; 2 shared cores, numpy 2.4.6, OpenBLAS
0.3.31 on one thread), the transforms:

    n      dense   folded
    32       4.7     18.7
    64      12.4     23.4
    96      31.0     34.1
    104     58.5     52.1
    128     99.2     68.4
    256    894.4    634.4

so FOLD_MIN = 100 lies between the last length the dense products win (96)
and the first the folded ones do (104); the changes of basis (medians of 15
interleaved rounds):

    n      dense   blocks
    32       2.9      6.4
    40       4.6      7.0
    48       6.7      8.7
    56       8.1      9.3
    64      10.1      9.5
    96      31.9     20.1
    128     97.0     49.4
    256    654.4    361.6

so CHANGE_BLOCK_MIN = 60 lies between the last length the dense product
wins (56) and the first the blocks do (64).  At 32, 48, 64, 96 and 128
points the two give the same bits; at 40, 56 and 256 they differ in the
last place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import DomainError, ShapeError
from .grids import GridSpec


# ---------------------------------------------------------------------------
# per-level reductions


def level_sums(a: np.ndarray):
    """The sum over the last two axes: a numpy scalar for one level, an array
    over the leading axes for a stack (see the module docstring)."""
    return np.sum(a) if a.ndim == 2 else np.sum(a, axis=(-2, -1))


def per_level(x, finish):
    """``finish`` of each level's value of ``x``: its result for a scalar x
    (one level), an array of them over the leading axes of a stack.  The
    finishes are the single-level code's scalar steps (float conversion,
    max, Python float and numpy scalar powers); a power of an array does not
    always round like the scalar one, so a stack takes them level by level."""
    if not isinstance(x, np.ndarray):
        return finish(x)
    return np.array([finish(s) for s in x.ravel()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# basic stencils


def check_cells(f: np.ndarray, grid: GridSpec) -> None:
    if f.shape[-2:] != (grid.nx, grid.ny):
        raise ShapeError(f"cell field shape {f.shape} != {(grid.nx, grid.ny)}")


def check_faces(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> None:
    if u.shape[-2:] != (grid.nx + 1, grid.ny) or v.shape[-2:] != (grid.nx, grid.ny + 1):
        raise ShapeError(
            f"face field shapes {u.shape}/{v.shape} != "
            f"{(grid.nx + 1, grid.ny)}/{(grid.nx, grid.ny + 1)}")


def div(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    check_faces(u, v, grid)
    return (u[..., 1:, :] - u[..., :-1, :]) / grid.hx + (v[..., 1:] - v[..., :-1]) / grid.hy


def grad(p: np.ndarray, grid: GridSpec):
    """Cell scalar -> face vector, zero normal component on the boundary
    (homogeneous-Neumann ghost extension).  Exact negative adjoint of div."""
    check_cells(p, grid)
    gu = np.zeros(p.shape[:-2] + (grid.nx + 1, grid.ny))
    gv = np.zeros(p.shape[:-2] + (grid.nx, grid.ny + 1))
    gu[..., 1:-1, :] = (p[..., 1:, :] - p[..., :-1, :]) / grid.hx
    gv[..., 1:-1] = (p[..., 1:] - p[..., :-1]) / grid.hy
    return gu, gv


def _five_point(out, c, xm, xp, ym, yp, grid: GridSpec) -> np.ndarray:
    """Write (xp - 2 c + xm) / hx^2 + (yp - 2 c + ym) / hy^2 into ``out``,
    each operation rounded as written, in two scratch arrays."""
    twice = 2.0 * c
    np.subtract(xp, twice, out=out)
    out += xm
    out /= grid.hx**2
    np.subtract(yp, twice, out=twice)
    twice += ym
    twice /= grid.hy**2
    out += twice
    return out


def laplacian_cells(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """5-point Laplacian with odd (Dirichlet) ghost reflection."""
    check_cells(f, grid)
    g = np.empty(f.shape[:-2] + (grid.nx + 2, grid.ny + 2))  # corners never read
    g[..., 1:-1, 1:-1] = f
    g[..., 0, 1:-1] = -f[..., 0, :]
    g[..., -1, 1:-1] = -f[..., -1, :]
    g[..., 1:-1, 0] = -f[..., 0]
    g[..., 1:-1, -1] = -f[..., -1]
    return _five_point(np.empty_like(f), f, g[..., :-2, 1:-1], g[..., 2:, 1:-1],
                       g[..., 1:-1, :-2], g[..., 1:-1, 2:], grid)


def laplacian_u(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Laplacian of the x-velocity; boundary rows stay zero."""
    out = np.zeros_like(u)
    g = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    g[..., 1:-1] = u
    g[..., 0] = -u[..., 0]
    g[..., -1] = -u[..., -1]
    _five_point(out[..., 1:-1, :], u[..., 1:-1, :], u[..., :-2, :], u[..., 2:, :],
                g[..., 1:-1, :-2], g[..., 1:-1, 2:], grid)
    return out


def laplacian_v(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.zeros_like(v)
    g = np.empty(v.shape[:-2] + (v.shape[-2] + 2, v.shape[-1]))
    g[..., 1:-1, :] = v
    g[..., 0, :] = -v[..., 0, :]
    g[..., -1, :] = -v[..., -1, :]
    _five_point(out[..., 1:-1], v[..., 1:-1], g[..., :-2, 1:-1], g[..., 2:, 1:-1],
                v[..., :-2], v[..., 2:], grid)
    return out


def theta_to_vfaces(th: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cell scalar averaged onto interior y-faces (buoyancy injection)."""
    out = np.zeros(th.shape[:-2] + (grid.nx, grid.ny + 1))
    out[..., 1:-1] = 0.5 * (th[..., :-1] + th[..., 1:])
    return out


def vfaces_to_cells(g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact transpose of theta_to_vfaces; also the cell average of the
    vertical component."""
    return 0.5 * (g[..., :-1] + g[..., 1:])


# ---------------------------------------------------------------------------
# cell-centered gradients without boundary assumptions (heating, viscosity law)


def d_center(fc: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences, second-order one-sided at the first/last row."""
    g = np.empty_like(fc)
    f, gf = fc.swapaxes(0, axis - 2), g.swapaxes(0, axis - 2)   # grid axis first
    np.subtract(f[2:], f[:-2], out=gf[1:-1])
    gf[1:-1] /= 2.0 * h
    gf[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    gf[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return g


def center_gradients(u: np.ndarray, v: np.ndarray, grid: GridSpec):
    """(du/dx, du/dy, dv/dx, dv/dy) at cell centers; du/dy and dv/dx take
    ``d_center`` of twice the cell averages over 4h (see ``advect_scalar``)."""
    check_faces(u, v, grid)
    ux = u[..., 1:, :] - u[..., :-1, :]
    ux /= grid.hx
    vy = v[..., 1:] - v[..., :-1]
    vy /= grid.hy
    uy = d_center(u[..., :-1, :] + u[..., 1:, :], 2.0 * grid.hy, axis=1)
    vx = d_center(v[..., :-1] + v[..., 1:], 2.0 * grid.hx, axis=0)
    return ux, uy, vx, vy


def deformation(u: np.ndarray, v: np.ndarray, grid: GridSpec):
    """Symmetrized gradient (d11, d12, d22) at cell centers."""
    ux, uy, vx, vy = center_gradients(u, v, grid)
    return ux, 0.5 * (uy + vx), vy


def heating(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Viscous-heating density sum_ij (1/2)(d_j y_i + d_i y_j) d_j y_i."""
    return heating_from_gradients(center_gradients(u, v, grid))


def heating_from_gradients(grads) -> np.ndarray:
    """Heating density from the ``center_gradients`` tuple.

    Grouping the cross terms turns the sum into ux^2 + (uy+vx)^2/2 + vy^2,
    the squared deformation magnitude, so the result is nonnegative cellwise.
    """
    ux, uy, vx, vy = grads
    return ux * ux + 0.5 * (uy + vx) ** 2 + vy * vy


@dataclass(frozen=True)
class ViscosityLaw:
    """Nonlocal viscosity nu0 + nu1 * ||grad w||_{L^p}^2, with p naming the
    regime: p = 2 is the L^2 law nu0 + nu1 * integral |grad w|^2, and
    3 < p <= 6 the L^p law."""

    nu0: float = 1.0
    nu1: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if not (self.nu0 > 0.0):
            raise DomainError("nu0 must be positive")
        if not (self.nu1 >= 0.0):
            raise DomainError("nu1 must be nonnegative")
        if not (self.p == 2.0 or 3.0 < self.p <= 6.0):
            raise DomainError(f"p must be 2 or lie in (3, 6], got {self.p!r}")

    def of_density(self, gm2: np.ndarray, grid: GridSpec):
        """The law on a cellwise gradient-energy density |grad w|^2: a float
        for one level, one value per level of a stack."""
        q = grid.cell_area
        if self.p == 2.0:
            return per_level(level_sums(gm2) * q, lambda s: self.nu0 + self.nu1 * float(s))
        return per_level(level_sums(gm2 ** (self.p / 2.0)) * q,
                         lambda s: self.nu0 + self.nu1 * float(s) ** (2.0 / self.p))


def grad_sq_cells(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    return grad_sq_from_gradients(center_gradients(u, v, grid))


def grad_sq_from_gradients(grads) -> np.ndarray:
    """|grad y|^2 per cell from the ``center_gradients`` tuple."""
    ux, uy, vx, vy = grads
    return ux * ux + uy * uy + vx * vx + vy * vy


def nonlocal_viscosity(u: np.ndarray, v: np.ndarray, law: ViscosityLaw,
                       grid: GridSpec) -> float:
    return law.of_density(grad_sq_cells(u, v, grid), grid)


def nonlocal_viscosity_scalar(th: np.ndarray, law: ViscosityLaw, grid: GridSpec) -> float:
    """Same law evaluated on a cell scalar's gradient (temperature variant)."""
    gx = d_center(th, grid.hx, axis=0)
    gy = d_center(th, grid.hy, axis=1)
    return law.of_density(gx * gx + gy * gy, grid)


# ---------------------------------------------------------------------------
# advection (conservative centered fluxes; skew-symmetric for div-free carrier)


def _wall_flux_difference(flux: np.ndarray, h: float, axis: int,
                          out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the difference along grid ``axis``, over h, of a
    face flux that is ``flux`` on the interior faces and zero on both walls."""
    f, o = flux.swapaxes(0, axis - 2), out.swapaxes(0, axis - 2)
    o[0] = f[0]
    np.subtract(f[1:], f[:-1], out=o[1:-1])
    np.negative(f[-1], out=o[-1])
    out /= h
    return out


def _difference(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """(f[i+1] - f[i]) / h along grid ``axis``."""
    d = np.diff(f, axis=axis - 2)
    d /= h
    return d


def advect_scalar(f: np.ndarray, cu: np.ndarray, cv: np.ndarray,
                  grid: GridSpec) -> np.ndarray:
    """div(c f) with centered face averages; equals (c . grad) f when the
    carrier is discretely divergence-free.  Wall fluxes vanish with the normal
    carrier component, so only the interior face fluxes are formed.  Fluxes
    are formed from face sums, not averages, and differenced over 2h per sum;
    a power-of-two scaling is exact, so this is the averaged form bit for bit."""
    check_cells(f, grid)
    check_faces(cu, cv, grid)
    fx = f[..., :-1, :] + f[..., 1:, :]
    fx *= cu[..., 1:-1, :]
    out = _wall_flux_difference(fx, 2.0 * grid.hx, 0, np.empty_like(f))
    fy = f[..., :-1] + f[..., 1:]
    fy *= cv[..., 1:-1]
    out += _wall_flux_difference(fy, 2.0 * grid.hy, 1, np.empty_like(f))
    return out


def advect_velocity(u: np.ndarray, v: np.ndarray, grid: GridSpec):
    """Divergence-form MAC transport of (u, v) by itself, face sums over 4h
    (see ``advect_scalar``).  The corner flux, zero on the walls, is formed
    once on the interior corners and differenced along y for u, x for v."""
    check_faces(u, v, grid)
    corner = v[..., :-1, 1:-1] + v[..., 1:, 1:-1]
    corner *= u[..., 1:-1, :-1] + u[..., 1:-1, 1:]

    au = np.empty_like(u)
    au[..., 0, :] = au[..., -1, :] = 0.0
    au_in = au[..., 1:-1, :]
    _wall_flux_difference(corner, 4.0 * grid.hy, 1, au_in)
    cell = u[..., :-1, :] + u[..., 1:, :]
    cell *= cell
    au_in += _difference(cell, 4.0 * grid.hx, 0)

    av = np.empty_like(v)
    av[..., 0] = av[..., -1] = 0.0
    av_in = av[..., 1:-1]
    _wall_flux_difference(corner, 4.0 * grid.hx, 0, av_in)
    cell = v[..., :-1] + v[..., 1:]
    cell *= cell
    av_in += _difference(cell, 4.0 * grid.hy, 1)
    return au, av


# ---------------------------------------------------------------------------
# inner products and norms (midpoint quadrature, uniform weights)


# Each is a float for one level and one value per level of a stack.


def _sqrt_nonneg(x) -> float:
    return float(np.sqrt(max(x, 0.0)))


def inner_cells(a: np.ndarray, b: np.ndarray, grid: GridSpec):
    return per_level(level_sums(a * b) * grid.cell_area, float)


def norm_cells(a: np.ndarray, grid: GridSpec):
    return per_level(inner_cells(a, a, grid), _sqrt_nonneg)


def inner_velocity(u1, v1, u2, v2, grid: GridSpec):
    return per_level((level_sums(u1 * u2) + level_sums(v1 * v2)) * grid.cell_area, float)


def norm_velocity(u, v, grid: GridSpec):
    return per_level(inner_velocity(u, v, u, v, grid), _sqrt_nonneg)


def state_norm_sq(u, v, th, grid: GridSpec) -> float:
    """|y|^2 + |theta|^2 of one state (one level)."""
    return norm_velocity(u, v, grid) ** 2 + norm_cells(th, grid) ** 2


def lp_norm_cells(f: np.ndarray, p: float, grid: GridSpec):
    if p < 1.0:
        raise DomainError("p >= 1 required")
    return per_level(level_sums(np.abs(f) ** p) * grid.cell_area,
                     lambda s: float(s ** (1.0 / p)))


def _sum_sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a))


def _sum_sq_diff(f: np.ndarray, axis: int) -> float:
    """Sum of the squared first differences of a 2-D ``f`` along ``axis``.

    Along axis 1 the rows are differenced end to end as one flat sequence
    (contiguous, so cheaper than a strided difference), and the terms that
    pair a row's last entry with the next row's first are taken back out.
    """
    if axis == 0:
        return _sum_sq(f[1:] - f[:-1])
    flat = f.ravel()
    return _sum_sq(flat[1:] - flat[:-1]) - _sum_sq(f[1:, 0] - f[:-1, -1])


def _odd_ghost_form(f: np.ndarray, axis: int) -> float:
    """-sum_i f_i (f_{i+1} - 2 f_i + f_{i-1}) along ``axis``, with the odd
    ghosts f_{-1} = -f_0 and f_n = -f_{n-1}, summed by parts:
    sum_{i<n-1} (f_{i+1} - f_i)^2 + 2 f_0^2 + 2 f_{n-1}^2."""
    g = f if axis == 0 else f.T
    return _sum_sq_diff(f, axis) + 2.0 * (_sum_sq(g[0]) + _sum_sq(g[-1]))


def _wall_form(f: np.ndarray, axis: int) -> float:
    """-sum_{0<i<m} f_i (f_{i+1} - 2 f_i + f_{i-1}) along ``axis`` for values
    f_0..f_m whose first and last are the wall values, summed by parts:
    sum_{0<i<m-1} (f_{i+1} - f_i)^2 + f_1 (f_1 - f_0) + f_{m-1} (f_{m-1} - f_m),
    that is, every squared difference plus f_0 d_0 - f_m d_{m-1} with
    d_i = f_{i+1} - f_i (zero for pinned walls)."""
    g = f if axis == 0 else f.T
    return (_sum_sq_diff(f, axis) + float(np.vdot(g[0], g[1] - g[0]))
            - float(np.vdot(g[-1], g[-1] - g[-2])))


def _one_level(*fields) -> None:
    """The H^1 forms sum with ``np.vdot`` and take one level (module docstring)."""
    if any(f.ndim != 2 for f in fields):
        raise ShapeError("the H^1 forms take one level, not a stack of levels")


def h1_seminorm_sq_cells(f: np.ndarray, grid: GridSpec) -> float:
    """Dirichlet energy <-lap f, f>, the operator-consistent |grad f|^2
    quadrature, summed by parts (``_odd_ghost_form`` per axis) so that no
    Laplacian is formed.  It is a sum of squares, so it is not clipped."""
    check_cells(f, grid)
    _one_level(f)
    return (_odd_ghost_form(f, 0) / grid.hx**2
            + _odd_ghost_form(f, 1) / grid.hy**2) * grid.cell_area


def h1_seminorm_sq_velocity(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> float:
    """<-lap_u u, u> + <-lap_v v, v> summed by parts like
    ``h1_seminorm_sq_cells``.  The Laplacians act on the interior faces:
    the normal direction of each component runs between its wall values
    (``_wall_form``), the tangential one takes odd ghosts.  The wall terms
    can be negative for nonzero wall values, so the sum is clipped at zero."""
    check_faces(u, v, grid)
    _one_level(u, v)
    sx = _wall_form(u, 0) + _odd_ghost_form(v[:, 1:-1], 0)
    sy = _odd_ghost_form(u[1:-1, :], 1) + _wall_form(v, 1)
    return max((sx / grid.hx**2 + sy / grid.hy**2) * grid.cell_area, 0.0)


# ---------------------------------------------------------------------------
# spectral solves: DST/DCT diagonalization of the constant-coefficient operators


@lru_cache(maxsize=16)
def _ortho_matrix(kind: str, n: int) -> np.ndarray:
    """The orthonormal n-point DST-I, DST-II or DCT-II matrix ``kind``, rows
    in mode order, from its closed form (Strang, SIAM Review 41, 1999).
    Entry (k, j) is sin(pi * phase / h) for an integer phase:
      dst1: phase (k+1)(j+1), h = n+1, times sqrt(2 / (n+1))
      dst2: phase (k+1)(2j+1), h = 2n, times sqrt(2 / n), last row / sqrt(2)
      dct2: phase k(2j+1) + n, h = 2n (the cosine of pi k(2j+1) / 2n),
            times sqrt(2 / n), first row / sqrt(2)
    read from one sine table over the period 2h at the phase reduced modulo
    2h.  The table takes each value from an argument of at most pi/2.  The
    matrices are shared between the solvers of a grid, so they are read-only.
    """
    k = np.arange(n)
    if kind == "dst1":
        phase, h, scale, edge = np.multiply.outer(k + 1, k + 1), n + 1, 2.0 / (n + 1), None
    elif kind == "dst2":
        phase, h, scale, edge = np.multiply.outer(k + 1, 2 * k + 1), 2 * n, 2.0 / n, -1
    else:
        phase, h, scale, edge = np.multiply.outer(k, 2 * k + 1) + n, 2 * n, 2.0 / n, 0
    phase %= 2 * h
    i = np.arange(h)
    half = np.sin(np.pi * np.minimum(i, h - i) / h)   # sin(pi i / h), i < h
    table = np.concatenate([half, -half])
    table *= np.sqrt(scale)
    q = table.take(phase)
    if edge is not None:
        q[edge] *= np.sqrt(0.5)
    q.flags.writeable = False
    return q


_SYMMETRIC = {"dst1": 1, "dst2": 1, "dct2": 0}   # f % 2 of the symmetric modes
FOLD_MIN = 100   # points from which an axis folds (module docstring)
CHANGE_BLOCK_MIN = 60   # points from which a change of basis takes its blocks (same)


def mode_frequencies(kind: str, n: int) -> np.ndarray:
    """The frequencies ``ModalBasis`` keeps of the transform ``kind`` along an
    axis of n cells, in parity order: 1..n-1 for "dst1" (on the n - 1
    interior faces) and "dct2" (the constant mode f = 0 dropped), 1..n for
    "dst2"."""
    f = np.arange(1, n + 1 if kind == "dst2" else n)
    return np.concatenate([f[f % 2 != n % 2], f[f % 2 == n % 2]])


def _mode_matrix(kind: str, n: int) -> np.ndarray:
    """The orthonormal rows of ``mode_frequencies`` over the points of the
    axis: its n + 1 faces for "dst1", whose wall columns are zero, else its
    n cells (``_ortho_matrix``)."""
    f = mode_frequencies(kind, n)
    if kind == "dst1":
        return np.pad(_ortho_matrix(kind, n - 1), ((0, 0), (1, 1)))[f - 1]
    return _ortho_matrix(kind, n)[f if kind == "dct2" else f - 1]


def _block(mask: np.ndarray) -> slice:
    """The slice of the True entries of ``mask``, which are contiguous."""
    i = np.flatnonzero(mask)
    return slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)


def _symmetric_rows(kind: str, n: int):
    """(symmetric, antisymmetric) blocks of the ``mode_frequencies`` rows."""
    sym = mode_frequencies(kind, n) % 2 == _SYMMETRIC[kind]
    return _block(sym), _block(~sym)


def _grid_maps(x, y):
    """(forward, inverse) 2-D maps from the (forward, inverse) pairs of axis 0
    and of axis 1; forward runs axis 0 first, inverse axis 1 first."""
    (fx, ix), (fy, iy) = x, y
    return (lambda a: fy(fx(a))), (lambda a: ix(iy(a)))


def _matrix_maps(q: np.ndarray, axis: int):
    """(forward, inverse) maps applying ``q`` along ``axis``, and q^T, each a
    dense product with a C-contiguous matrix."""
    fwd, inv = (np.ascontiguousarray(m) for m in ((q, q.T) if axis == 0 else (q.T, q)))
    if axis == 0:
        return (lambda a: fwd @ a), (lambda a: inv @ a)
    return (lambda a: a @ fwd), (lambda a: a @ inv)


class _AxisKernel:
    """Block products along one grid axis (0 or 1, of the last two axes) of
    a level or a stack of levels: each matrix is stored C-contiguous in the
    orientation it multiplies, and each product writes its block of a fresh
    output in place."""

    def __init__(self, axis: int):
        self.axis = axis

    def _orient(self, m: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(m if self.axis == 0 else m.T)

    def _at(self, i):
        """The index of ``i`` (an int or a slice) along the axis."""
        return (Ellipsis, i, slice(None)) if self.axis == 0 else (Ellipsis, i)

    def _empty(self, a: np.ndarray, size: int) -> np.ndarray:
        shape = list(a.shape)
        shape[self.axis - 2] = size
        return np.empty(shape)

    def _mul(self, m: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
        if self.axis == 0:
            np.matmul(m, a, out=out)
        else:
            np.matmul(a, m, out=out)

    @property
    def maps(self):
        return self.forward, self.inverse


class _FoldedMaps(_AxisKernel):
    """``q`` along ``axis`` as two half-size products, and q^T back, for a q
    whose ``sym`` rows are symmetric and whose ``anti`` rows antisymmetric
    about the centre of its columns.  Going forward, the symmetric rows take
    x[:h] + x[::-1][:h] and the centre of an odd length once, the others
    x[:h] - x[::-1][:h]; going back, the two partial products are added for
    the first half and subtracted for the mirrored one.  The halves and the
    partial products live in scratch arrays kept per map."""

    def __init__(self, q: np.ndarray, axis: int, sym: slice, anti: slice):
        super().__init__(axis)
        self.modes, self.points = q.shape
        self.half = h = self.points // 2
        c = self.points - h   # the symmetric half holds the centre of an odd length
        self._blocks = tuple((rows, self._orient(m), self._orient(m.T))
                             for rows, m in ((sym, q[sym, :c]), (anti, q[anti, :h])))
        self._scratch = {}

    def _halves(self, a: np.ndarray):
        """The (symmetric, antisymmetric) scratch halves for arrays like ``a``."""
        key = a.shape[:-2] + (a.shape[-1 - self.axis],)
        if key not in self._scratch:
            self._scratch[key] = (self._empty(a, self.points - self.half),
                                  self._empty(a, self.half))
        return self._scratch[key]

    def forward(self, x: np.ndarray) -> np.ndarray:
        at, head = self._at, self._at(slice(self.half))
        even, odd = self._halves(x)
        mirror = x[at(slice(None, None, -1))][head]
        np.add(x[head], mirror, out=even[head])
        if self.points % 2:
            even[at(self.half)] = x[at(self.half)]
        np.subtract(x[head], mirror, out=odd)
        out = self._empty(x, self.modes)
        for (rows, fwd, _), part in zip(self._blocks, (even, odd)):
            self._mul(fwd, part, out[at(rows)])
        return out

    def inverse(self, y: np.ndarray) -> np.ndarray:
        at, head = self._at, self._at(slice(self.half))
        even, odd = self._halves(y)
        for (rows, _, inv), part in zip(self._blocks, (even, odd)):
            self._mul(inv, y[at(rows)], part)
        out = self._empty(y, self.points)
        np.add(even[head], odd, out=out[head])
        np.subtract(even[head], odd, out=out[at(slice(None, None, -1))][head])
        if self.points % 2:
            out[at(self.half)] = even[at(self.half)]
        return out


class _BlockMaps(_AxisKernel):
    """A map along ``axis`` with ``size`` = (outputs, inputs) that is the
    products ``m`` of (out rows, in rows, m) ``blocks`` and zero elsewhere,
    and its transpose back.  The blocks' indices are made once, and each
    block writes its slice of the fresh output through ``out=``."""

    def __init__(self, blocks, axis: int, size):
        super().__init__(axis)
        self.size = size
        self._blocks = tuple((self._at(o), self._at(i), self._orient(m), self._orient(m.T))
                             for o, i, m in blocks)

    def forward(self, a: np.ndarray) -> np.ndarray:
        out = self._empty(a, self.size[0])
        for o, i, fwd, _ in self._blocks:
            self._mul(fwd, a[i], out[o])
        return out

    def inverse(self, a: np.ndarray) -> np.ndarray:
        out = self._empty(a, self.size[1])
        for o, i, _, inv in self._blocks:
            self._mul(inv, a[o], out[i])
        return out


def _axis_maps(kind: str, n: int, axis: int, rows: slice = slice(None)):
    """(forward, inverse) maps along ``axis`` between values on ``rows`` of an
    axis of n cells and the ``mode_frequencies`` coefficients of ``kind``
    (``_mode_matrix``; a wall value is ignored going forward and comes back
    zero).  Folded (``_FoldedMaps``) when the rows span at least FOLD_MIN
    points placed symmetrically about the centre of the axis."""
    q = _mode_matrix(kind, n)
    start, stop, _ = rows.indices(q.shape[1])
    folds = stop - start >= FOLD_MIN and start + stop == q.shape[1]
    q = q[:, start:stop]
    return _FoldedMaps(q, axis, *_symmetric_rows(kind, n)).maps if folds else \
        _matrix_maps(q, axis)


def _change_maps(n: int, axis: int):
    """(forward, inverse) orthonormal change of basis along ``axis`` from the
    DCT-II coefficients 1..n-1 of n cells (the constant one taken as zero)
    to their n DST-II coefficients, and back, both in parity order.  A mode
    of one symmetry has coefficients on modes of the same symmetry only
    (Schumann & Sweet, J. Comput. Phys. 75, 1988), so the map is two blocks;
    from CHANGE_BLOCK_MIN points on it applies them, below one dense product."""
    s, c = _mode_matrix("dst2", n), _mode_matrix("dct2", n)
    blocks = [(o, i, s[o] @ c[i].T)
              for o, i in zip(_symmetric_rows("dst2", n), _symmetric_rows("dct2", n))]
    if n >= CHANGE_BLOCK_MIN:
        return _BlockMaps(blocks, axis, (n, n - 1)).maps
    q = np.zeros((n, n - 1))
    for o, i, m in blocks:
        q[o, i] = m
    return _matrix_maps(q, axis)


_WHOLE = ((slice(None), slice(None)),) * 3   # every point of each part


class ModalBasis:
    """Orthonormal bases in which the linear system's MAC operators act per
    mode (Schumann & Sweet, J. Comput. Phys. 75, 1988).

    Projection basis: interior u-faces in DST-I(x) x DCT-II(y), interior
    v-faces in DCT-II(x) x DST-I(y).  There div maps mode (k, l) of u and
    of v to pressure mode (k, l) of DCT-II x DCT-II with the factors
    d_x(k) = 2/hx sin(pi k / 2 nx) and d_y(l), and grad is -div^T, so the
    Leray projection is a rank-one update per mode (``project``).  The
    modes only one component has (l = 0 of u, k = 0 of v) are gradients,
    which the projection removes; so ``u`` and ``v`` map a physical field
    to its coefficients on the shared modes k, l >= 1 alone, an
    (nx - 1) x (ny - 1) array each, and back.
    Helmholtz basis: u in DST-I x DST-II, v in DST-II x DST-I, theta in
    DST-II x DST-II.  There each (I - c lap) is the scaling
    1 / (1 + c (d_x^2 + d_y^2)), and ``theta_to_vfaces`` maps theta mode
    (k, l) to v mode (k, l) times cos(pi l / 2 ny) (``buoyancy``).  The two
    velocity bases differ along one axis each: ``change_u`` (along y) and
    ``change_v`` (along x) map shared-mode to Helmholtz coefficients and back.

    Each of ``u``, ``v``, ``hu``, ``hv`` and ``cells`` is a (forward,
    inverse) pair between a whole-grid physical field and its coefficients;
    wall values of the normal velocity are pinned zeros.  Along each axis
    the coefficients are in parity order (``mode_frequencies``): the
    frequencies with the parity of n + 1 first, then those with the parity
    of n, each block increasing, so the symmetric and the antisymmetric
    modes are two blocks and f = n, where kept, is last (theta's l = ny,
    which the v-faces lack, is its last column).  Every per-mode table
    (``lap_*``, the projection, ``buoyancy``, the ``on_box`` maps) is in
    that order; ``d_x`` and ``d_y`` hold the factors for k = 0..nx and
    l = 0..ny by frequency.  From FOLD_MIN points on an axis, each transform
    takes two half-size products on the folded halves, and from
    CHANGE_BLOCK_MIN points each change of basis its two diagonal blocks;
    below, one dense product (the crossover table is in the module
    docstring).  The maps take a level or a stack
    of levels.  Every map is built on first use, so a basis that only reads
    ``on_box`` builds no whole-grid map.  The linear propagator marches in
    these bases and the nonlinear step solves and projects in them, so
    ``project`` is the one Leray projection.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        self._on_box = {}
        self.d_x = dx = 2.0 / grid.hx * np.sin(0.5 * np.pi * np.arange(nx + 1) / nx)
        self.d_y = dy = 2.0 / grid.hy * np.sin(0.5 * np.pi * np.arange(ny + 1) / ny)
        # shared (DST-I, DCT-II) and Helmholtz (DST-II) frequencies per axis
        self._kx, self._ky = mode_frequencies("dst1", nx), mode_frequencies("dst1", ny)
        hx, hy = mode_frequencies("dst2", nx), mode_frequencies("dst2", ny)
        self.lap_u = dx[self._kx, None] ** 2 + dy[None, hy] ** 2      # -eigenvalues
        self.lap_v = dx[hx, None] ** 2 + dy[None, self._ky] ** 2
        self.lap_cells = dx[hx, None] ** 2 + dy[None, hy] ** 2
        self.buoyancy = np.cos(0.5 * np.pi * self._ky / ny)

    # the whole-grid and shared-mode maps, the changes of basis and the
    # projection coefficients are built on first use

    hu = cached_property(lambda self: self.on_box(_WHOLE)[0])
    hv = cached_property(lambda self: self.on_box(_WHOLE)[1])
    cells = cached_property(lambda self: self.on_box(_WHOLE)[2])

    @cached_property
    def u(self):
        return _grid_maps(_axis_maps("dst1", self.grid.nx, 0),
                          _axis_maps("dct2", self.grid.ny, 1))

    @cached_property
    def v(self):
        return _grid_maps(_axis_maps("dct2", self.grid.nx, 0),
                          _axis_maps("dst1", self.grid.ny, 1))

    @cached_property
    def change_u(self):
        return _change_maps(self.grid.ny, axis=1)

    @cached_property
    def change_v(self):
        return _change_maps(self.grid.nx, axis=0)

    @cached_property
    def _projection(self):
        """(d_y, -d_x) / |d| on the shared modes."""
        dx, dy = self.d_x[self._kx, None], self.d_y[None, self._ky]
        r = np.hypot(dx, dy)
        return dy / r, -dx / r

    def on_box(self, box):
        """Helmholtz-basis (forward, inverse) pairs of the u-face, v-face and
        cell parts stored on ``box`` (``geometry.control_box`` layout): the
        transforms restricted to its rows and columns, built once per box."""
        key = tuple((s.start, s.stop) for part in box for s in part)
        if key not in self._on_box:
            nx, ny = self.grid.nx, self.grid.ny
            (ur, uc), (vr, vc), (cr, cc) = box
            self._on_box[key] = (
                _grid_maps(_axis_maps("dst1", nx, 0, ur), _axis_maps("dst2", ny, 1, uc)),
                _grid_maps(_axis_maps("dst2", nx, 0, vr), _axis_maps("dst1", ny, 1, vc)),
                _grid_maps(_axis_maps("dst2", nx, 0, cr), _axis_maps("dst2", ny, 1, cc)))
        return self._on_box[key]

    def project(self, us: np.ndarray, vs: np.ndarray) -> None:
        """Leray projection of shared-mode coefficients, in place: per mode
        (u, v) -> (u, v) - n n^T (u, v) with n = (d_x, d_y) / |d|, that is
        (d_y, -d_x) w / |d| with w = (d_y u - d_x v) / |d|."""
        beta, neg_alpha = self._projection
        w = beta * us
        w += neg_alpha * vs
        np.multiply(beta, w, out=us)
        np.multiply(neg_alpha, w, out=vs)

    def project_faces(self, u: np.ndarray, v: np.ndarray):
        """``project`` of physical face fields; returns new (u, v), with zero
        normal wall values."""
        us, vs = self.u[0](u), self.v[0](v)
        self.project(us, vs)
        return self.u[1](us), self.v[1](vs)


class SpectralSolver:
    """Physical-field Helmholtz/Poisson solves on one grid, which no run calls
    (the propagators solve in ``ModalBasis``); the benchmark's solve layers
    and the solver tests use them.

    The Helmholtz solves run in the Helmholtz bases of ``ModalBasis``, where
    (I - c lap) is the scaling 1 / (1 + c (d_x^2 + d_y^2)), and the Neumann
    pressure Laplacian is diagonalized by DCT-II x DCT-II with the
    eigenvalues -(d_x^2 + d_y^2) of the same table.  Each solve is
    Q^T D^-1 Q with an orthonormal Q, so all solves are symmetric to machine
    precision.  The Helmholtz solves use the maps of ``ModalBasis``; the
    Poisson pair applies the dense DCT-II matrices in natural mode order.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.modes = m = ModalBasis(grid)
        self._p = _grid_maps(_matrix_maps(_ortho_matrix("dct2", grid.nx), 0),
                             _matrix_maps(_ortho_matrix("dct2", grid.ny), 1))
        # the null mode (0, 0) divides by 1 and is zeroed after the division
        self._eig_p = -(m.d_x[:-1, None] ** 2 + m.d_y[None, :-1] ** 2)
        self._eig_p[0, 0] = 1.0

    @staticmethod
    def _helmholtz(maps, lap: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
        fwd, inv = maps
        bh = fwd(b)
        bh /= 1.0 + c * lap
        return inv(bh)

    def helmholtz_cells(self, b: np.ndarray, c: float) -> np.ndarray:
        """(I - c lap) x = b with Dirichlet walls, c >= 0."""
        check_cells(b, self.grid)
        return self._helmholtz(self.modes.cells, self.modes.lap_cells, b, c)

    def helmholtz_u(self, b: np.ndarray, c: float) -> np.ndarray:
        """The u-face solve; wall values of b are ignored and come back zero."""
        return self._helmholtz(self.modes.hu, self.modes.lap_u, b, c)

    def helmholtz_v(self, b: np.ndarray, c: float) -> np.ndarray:
        return self._helmholtz(self.modes.hv, self.modes.lap_v, b, c)

    def poisson_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """lap p = rhs with Neumann walls; the zero-mean solution."""
        check_cells(rhs, self.grid)
        fwd, inv = self._p
        bh = fwd(rhs)
        bh /= self._eig_p
        bh[0, 0] = 0.0
        return inv(bh)

    def project(self, u: np.ndarray, v: np.ndarray):
        """``ModalBasis.project_faces``; returns (u, v)."""
        return self.modes.project_faces(u, v)
