"""MAC staggered-grid operators, inner products, spectral constant-coefficient
solvers, and the model-specific algebra (symmetrized gradient, viscous-heating
product, nonlocal viscosity laws).

Boundary conventions: homogeneous Dirichlet for velocity and temperature.
Normal velocity lives exactly on the walls (pinned zeros); tangential velocity
and temperature use odd ghost reflection inside diffusion operators.  The
cutoff/heating gradients instead use one-sided interior stencils so they make
no boundary-condition assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dst, idct, idst

from .exceptions import DomainError, ShapeError
from .grids import GridSpec


# ---------------------------------------------------------------------------
# basic stencils


def check_cells(f: np.ndarray, grid: GridSpec) -> None:
    if f.shape != (grid.nx, grid.ny):
        raise ShapeError(f"cell field shape {f.shape} != {(grid.nx, grid.ny)}")


def check_faces(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> None:
    if u.shape != (grid.nx + 1, grid.ny) or v.shape != (grid.nx, grid.ny + 1):
        raise ShapeError(
            f"face field shapes {u.shape}/{v.shape} != "
            f"{(grid.nx + 1, grid.ny)}/{(grid.nx, grid.ny + 1)}")


def div(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> np.ndarray:
    check_faces(u, v, grid)
    return (u[1:, :] - u[:-1, :]) / grid.hx + (v[:, 1:] - v[:, :-1]) / grid.hy


def grad(p: np.ndarray, grid: GridSpec):
    """Cell scalar -> face vector, zero normal component on the boundary
    (homogeneous-Neumann ghost extension).  Exact negative adjoint of div."""
    check_cells(p, grid)
    gu = grid.zeros_u()
    gv = grid.zeros_v()
    gu[1:-1, :] = (p[1:, :] - p[:-1, :]) / grid.hx
    gv[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / grid.hy
    return gu, gv


def laplacian_cells(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """5-point Laplacian with odd (Dirichlet) ghost reflection."""
    check_cells(f, grid)
    g = np.pad(f, 1)
    g[0, 1:-1] = -f[0, :]
    g[-1, 1:-1] = -f[-1, :]
    g[1:-1, 0] = -f[:, 0]
    g[1:-1, -1] = -f[:, -1]
    return ((g[2:, 1:-1] - 2.0 * f + g[:-2, 1:-1]) / grid.hx**2
            + (g[1:-1, 2:] - 2.0 * f + g[1:-1, :-2]) / grid.hy**2)


def laplacian_u(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Laplacian of the x-velocity; boundary rows stay zero."""
    out = np.zeros_like(u)
    g = np.pad(u, ((0, 0), (1, 1)))
    g[:, 0] = -u[:, 0]
    g[:, -1] = -u[:, -1]
    out[1:-1, :] = ((u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / grid.hx**2
                    + (g[1:-1, 2:] - 2.0 * u[1:-1, :] + g[1:-1, :-2]) / grid.hy**2)
    return out


def laplacian_v(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.zeros_like(v)
    g = np.pad(v, ((1, 1), (0, 0)))
    g[0, :] = -v[0, :]
    g[-1, :] = -v[-1, :]
    out[:, 1:-1] = ((g[2:, 1:-1] - 2.0 * v[:, 1:-1] + g[:-2, 1:-1]) / grid.hx**2
                    + (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / grid.hy**2)
    return out


def theta_to_vfaces(th: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Cell scalar averaged onto interior y-faces (buoyancy injection)."""
    out = grid.zeros_v()
    out[:, 1:-1] = 0.5 * (th[:, :-1] + th[:, 1:])
    return out


def vfaces_to_cells(g: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact transpose of theta_to_vfaces; also the cell average of the
    vertical component."""
    return 0.5 * (g[:, :-1] + g[:, 1:])


# ---------------------------------------------------------------------------
# cell-centered gradients without boundary assumptions (heating, viscosity law)


def d_center(fc: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences, second-order one-sided at the first/last row."""
    f = np.moveaxis(fc, axis, 0)
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(g, 0, axis)


def center_gradients(u: np.ndarray, v: np.ndarray, grid: GridSpec):
    """(du/dx, du/dy, dv/dx, dv/dy) at cell centers."""
    check_faces(u, v, grid)
    ux = (u[1:, :] - u[:-1, :]) / grid.hx
    vy = (v[:, 1:] - v[:, :-1]) / grid.hy
    uc = 0.5 * (u[:-1, :] + u[1:, :])
    vc = 0.5 * (v[:, :-1] + v[:, 1:])
    uy = d_center(uc, grid.hy, axis=1)
    vx = d_center(vc, grid.hx, axis=0)
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
    """Nonlocal viscosity: nu0 + nu1 * (global gradient energy).

    variant "l2": nu0 + nu1 * integral |grad w|^2;
    variant "lp": nu0 + nu1 * ||grad w||_{L^p}^2 for 3 < p <= 6 (p = 2 is the
    consistency alias of "l2").
    """

    variant: str = "l2"
    nu0: float = 1.0
    nu1: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.variant not in ("l2", "lp"):
            raise DomainError(f"unknown viscosity variant {self.variant!r}")
        if not (self.nu0 > 0.0):
            raise DomainError("nu0 must be positive")
        if not (self.nu1 >= 0.0):
            raise DomainError("nu1 must be nonnegative")
        if self.variant == "lp" and not (3.0 < self.p <= 6.0 or self.p == 2.0):
            raise DomainError("lp variant needs 3 < p <= 6 (or p = 2 alias)")

    def of_density(self, gm2: np.ndarray, grid: GridSpec) -> float:
        """The law on a cellwise gradient-energy density |grad w|^2."""
        q = grid.cell_area
        if self.variant == "l2":
            return self.nu0 + self.nu1 * float(np.sum(gm2) * q)
        total = float(np.sum(gm2 ** (self.p / 2.0)) * q)
        return self.nu0 + self.nu1 * total ** (2.0 / self.p)


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


def advect_scalar(f: np.ndarray, cu: np.ndarray, cv: np.ndarray,
                  grid: GridSpec) -> np.ndarray:
    """div(c f) with centered face averages; equals (c . grad) f when the
    carrier is discretely divergence-free.  Wall fluxes vanish with the normal
    carrier component, so no ghost values enter."""
    check_cells(f, grid)
    check_faces(cu, cv, grid)
    fx = np.zeros_like(cu)
    fy = np.zeros_like(cv)
    fx[1:-1, :] = cu[1:-1, :] * 0.5 * (f[:-1, :] + f[1:, :])
    fy[:, 1:-1] = cv[:, 1:-1] * 0.5 * (f[:, :-1] + f[:, 1:])
    return (fx[1:, :] - fx[:-1, :]) / grid.hx + (fy[:, 1:] - fy[:, :-1]) / grid.hy


def advect_velocity(wu: np.ndarray, wv: np.ndarray, cu: np.ndarray,
                    cv: np.ndarray, grid: GridSpec):
    """Divergence-form MAC transport of (wu, wv) by the carrier (cu, cv)."""
    check_faces(wu, wv, grid)
    check_faces(cu, cv, grid)
    hx, hy = grid.hx, grid.hy

    # u-component: d/dx(cu~ wu~)|cells + d/dy(cv~ wu~)|corners
    cu_c = 0.5 * (cu[:-1, :] + cu[1:, :])
    wu_c = 0.5 * (wu[:-1, :] + wu[1:, :])
    fxx = cu_c * wu_c                                   # (nx, ny)
    fxy = np.zeros((grid.nx + 1, grid.ny + 1))          # corners
    cvx = 0.5 * (cv[:-1, :] + cv[1:, :])                # (nx-1, ny+1) at corners i=1..nx-1
    wuy = np.zeros((grid.nx - 1, grid.ny + 1))
    wuy[:, 1:-1] = 0.5 * (wu[1:-1, :-1] + wu[1:-1, 1:])
    fxy[1:-1, :] = cvx * wuy                            # wall rows stay zero (cv=0 there)
    au = np.zeros_like(wu)
    au[1:-1, :] = (fxx[1:, :] - fxx[:-1, :]) / hx + (fxy[1:-1, 1:] - fxy[1:-1, :-1]) / hy

    # v-component: d/dx(cu~ wv~)|corners + d/dy(cv~ wv~)|cells
    cv_c = 0.5 * (cv[:, :-1] + cv[:, 1:])
    wv_c = 0.5 * (wv[:, :-1] + wv[:, 1:])
    fyy = cv_c * wv_c
    fyx = np.zeros((grid.nx + 1, grid.ny + 1))
    cuy = 0.5 * (cu[:, :-1] + cu[:, 1:])                # (nx+1, ny-1) at corners j=1..ny-1
    wvx = np.zeros((grid.nx + 1, grid.ny - 1))
    wvx[1:-1, :] = 0.5 * (wv[:-1, 1:-1] + wv[1:, 1:-1])
    fyx[:, 1:-1] = cuy * wvx
    av = np.zeros_like(wv)
    av[:, 1:-1] = (fyx[1:, 1:-1] - fyx[:-1, 1:-1]) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy
    return au, av


# ---------------------------------------------------------------------------
# inner products and norms (midpoint quadrature, uniform weights)


def inner_cells(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> float:
    return float(np.sum(a * b) * grid.cell_area)


def norm_cells(a: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(max(inner_cells(a, a, grid), 0.0)))


def inner_velocity(u1, v1, u2, v2, grid: GridSpec) -> float:
    return float((np.sum(u1 * u2) + np.sum(v1 * v2)) * grid.cell_area)


def norm_velocity(u, v, grid: GridSpec) -> float:
    return float(np.sqrt(max(inner_velocity(u, v, u, v, grid), 0.0)))


def state_norm_sq(u, v, th, grid: GridSpec) -> float:
    """|y|^2 + |theta|^2 of one state."""
    return norm_velocity(u, v, grid) ** 2 + norm_cells(th, grid) ** 2


def lp_norm_cells(f: np.ndarray, p: float, grid: GridSpec) -> float:
    if p < 1.0:
        raise DomainError("p >= 1 required")
    return float((np.sum(np.abs(f) ** p) * grid.cell_area) ** (1.0 / p))


def h1_seminorm_sq_cells(f: np.ndarray, grid: GridSpec) -> float:
    """Dirichlet energy <-lap f, f>, the operator-consistent |grad f|^2 quadrature."""
    return max(inner_cells(-laplacian_cells(f, grid), f, grid), 0.0)


def h1_seminorm_sq_velocity(u: np.ndarray, v: np.ndarray, grid: GridSpec) -> float:
    val = float(np.sum(-laplacian_u(u, grid) * u) + np.sum(-laplacian_v(v, grid) * v))
    return max(val * grid.cell_area, 0.0)


# ---------------------------------------------------------------------------
# spectral solves: DST/DCT diagonalization of the constant-coefficient operators


# Axes of at most this many transform points use dense orthonormal matrices:
# there one matmul beats the scipy.fft dispatch overhead, while above it the
# pocketfft kernels win (at 128 points the two tie, measured per solve).
_DENSE_MAX_POINTS = 64

_SCIPY_R2R = {"dst1": (dst, idst, 1), "dst2": (dst, idst, 2), "dct2": (dct, idct, 2)}


def _axis_transform(kind: str, n: int, axis: int):
    """(forward, inverse) pair of the 1-D transform ``kind`` over ``n`` points
    along ``axis``; the two compose to the identity.

    Short axes apply the orthonormal matrix Q (rows in the scipy.fft mode
    order) and its transpose; long axes call scipy.fft's unnormalized pair.
    """
    fwd, inv, t = _SCIPY_R2R[kind]
    if n > _DENSE_MAX_POINTS:
        return (lambda a: fwd(a, type=t, axis=axis),
                lambda a: inv(a, type=t, axis=axis))
    q = fwd(np.eye(n), type=t, norm="ortho", axis=0)
    if axis == 0:
        return (lambda a: q @ a), (lambda a: q.T @ a)
    return (lambda a: a @ q.T), (lambda a: a @ q)


def _grid_transform(kind_x: str, nx: int, kind_y: str, ny: int):
    """(forward, inverse) 2-D transform pair: axis 0 then 1, inverse reversed."""
    (fx, ix), (fy, iy) = _axis_transform(kind_x, nx, 0), _axis_transform(kind_y, ny, 1)
    return (lambda a: fy(fx(a))), (lambda a: ix(iy(a)))


class SpectralSolver:
    """Exact solvers for the Helmholtz/Poisson systems on one grid.

    The cell-centered Dirichlet Laplacian is diagonalized by DST-II, the
    face-interior one by DST-I (normal direction) x DST-II (tangential), and
    the Neumann pressure Laplacian by DCT-II.  Each solve is Q^T D^-1 Q with
    an orthogonal Q, so all solves are symmetric to machine precision, which
    the discrete-adjoint construction relies on.  Each axis picks its
    transform backend from its length (see ``_axis_transform``).
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy

        def eig_dst1(n, h):
            k = np.arange(1, n)
            return (2.0 * np.cos(np.pi * k / n) - 2.0) / h**2

        def eig_dst2(n, h):
            k = np.arange(1, n + 1)
            return (2.0 * np.cos(np.pi * k / n) - 2.0) / h**2

        def eig_dct2(n, h):
            k = np.arange(n)
            return (2.0 * np.cos(np.pi * k / n) - 2.0) / h**2

        self._lam_cells = eig_dst2(nx, hx)[:, None] + eig_dst2(ny, hy)[None, :]
        self._lam_u = eig_dst1(nx, hx)[:, None] + eig_dst2(ny, hy)[None, :]
        self._lam_v = eig_dst2(nx, hx)[:, None] + eig_dst1(ny, hy)[None, :]
        # the null mode (0, 0) divides by 1 and is zeroed after the division
        self._lam_p = eig_dct2(nx, hx)[:, None] + eig_dct2(ny, hy)[None, :]
        self._lam_p[0, 0] = 1.0

        # DST-I runs over the n - 1 interior faces of the normal direction
        self._tf_cells = _grid_transform("dst2", nx, "dst2", ny)
        self._tf_u = _grid_transform("dst1", nx - 1, "dst2", ny)
        self._tf_v = _grid_transform("dst2", nx, "dst1", ny - 1)
        self._tf_p = _grid_transform("dct2", nx, "dct2", ny)

    def helmholtz_cells(self, b: np.ndarray, c: float) -> np.ndarray:
        """(I - c lap) x = b with Dirichlet walls, c >= 0."""
        check_cells(b, self.grid)
        fwd, inv = self._tf_cells
        bh = fwd(b)
        bh /= (1.0 - c * self._lam_cells)
        return inv(bh)

    def helmholtz_u(self, b: np.ndarray, c: float) -> np.ndarray:
        out = np.zeros_like(b)
        fwd, inv = self._tf_u
        bh = fwd(b[1:-1, :])
        bh /= (1.0 - c * self._lam_u)
        out[1:-1, :] = inv(bh)
        return out

    def helmholtz_v(self, b: np.ndarray, c: float) -> np.ndarray:
        out = np.zeros_like(b)
        fwd, inv = self._tf_v
        bh = fwd(b[:, 1:-1])
        bh /= (1.0 - c * self._lam_v)
        out[:, 1:-1] = inv(bh)
        return out

    def poisson_neumann(self, rhs: np.ndarray) -> np.ndarray:
        """lap p = rhs with Neumann walls; the zero-mean solution."""
        check_cells(rhs, self.grid)
        fwd, inv = self._tf_p
        bh = fwd(rhs)
        bh /= self._lam_p
        bh[0, 0] = 0.0
        return inv(bh)

    def project(self, u: np.ndarray, v: np.ndarray):
        """Discrete Leray projection; returns (u, v, potential)."""
        rhs = div(u, v, self.grid)
        phi = self.poisson_neumann(rhs)
        gu, gv = grad(phi, self.grid)
        return u - gu, v - gv, phi

