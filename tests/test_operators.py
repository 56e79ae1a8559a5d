"""MAC operator identities, spectral solves, viscosity laws, heating algebra."""

import mpmath as mp
import numpy as np
import pytest
import scipy.fft

from bousscontrol import operators as ops
from bousscontrol.exceptions import DomainError, ShapeError
from bousscontrol.grids import GridSpec
from bousscontrol.operators import SpectralSolver, ViscosityLaw

from conftest import (GRID_IDS, REFERENCE_AXES, SOLVE_GRIDS, cg_solve, max_rel_diff,
                      project_div_free, rand_cells, rand_div_free, rand_u, rand_v,
                      reference_advect_scalar, reference_axis_matrix, reference_change_maps,
                      reference_frequencies, reference_maps,
                      reference_advect_velocity, reference_center_gradients,
                      reference_h1_seminorm_sq_cells, reference_h1_seminorm_sq_velocity,
                      reference_laplacian_cells, reference_laplacian_u,
                      reference_laplacian_v)

RNG = np.random.default_rng(20240811)

# A square grid and a non-square one with hx != hy.
REFERENCE_GRIDS = [GridSpec(16, 16), GridSpec(33, 20, lx=1.3, ly=0.7)]


def _walled_fields(grid, rng):
    """Random cell, u and v fields whose wall rows are nonzero too."""
    return (rng.standard_normal((grid.nx, grid.ny)),
            rng.standard_normal((grid.nx + 1, grid.ny)),
            rng.standard_normal((grid.nx, grid.ny + 1)))


class TestStencils:
    def test_grad_of_constant_vanishes(self, grid16):
        gu, gv = ops.grad(np.full((16, 16), 3.7), grid16)
        assert np.all(gu == 0.0) and np.all(gv == 0.0)

    def test_div_grad_equals_laplacian_interior(self, grid16):
        f = rand_cells(grid16, RNG)
        gu, gv = ops.grad(f, grid16)
        dg = ops.div(gu, gv, grid16)
        lap = ops.laplacian_cells(f, grid16)
        assert np.abs((dg - lap)[1:-1, 1:-1]).max() < 1e-12 * np.abs(lap).max()

    def test_laplacian_eigenfunction_refinement(self):
        errs = []
        for n in (16, 32):
            g = GridSpec(n, n)
            x, y = g.cell_centers()
            f = np.sin(np.pi * x) * np.sin(np.pi * y)
            lap = ops.laplacian_cells(f, g)
            errs.append(np.abs(lap + 2 * np.pi ** 2 * f).max() / (2 * np.pi ** 2))
        assert errs[1] < errs[0] / 3.0  # ~ factor 4 for O(h^2)

    def test_shape_mismatch_raises(self, grid16):
        with pytest.raises(ShapeError):
            ops.laplacian_cells(np.zeros((8, 8)), grid16)

    def test_sbp_adjointness(self, grid16):
        f = rand_cells(grid16, RNG)
        u, v = rand_u(grid16, RNG), rand_v(grid16, RNG)
        gu, gv = ops.grad(f, grid16)
        lhs = ops.inner_velocity(gu, gv, u, v, grid16)
        rhs = -ops.inner_cells(f, ops.div(u, v, grid16), grid16)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)

    def test_operator_linearity(self, grid16):
        a, b = 2.3, -0.7
        f, g = rand_cells(grid16, RNG), rand_cells(grid16, RNG)
        lab = ops.laplacian_cells(a * f + b * g, grid16)
        sep = a * ops.laplacian_cells(f, grid16) + b * ops.laplacian_cells(g, grid16)
        assert np.abs(lab - sep).max() < 1e-10 * np.abs(sep).max()


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["16x16", "33x20"])
def test_laplacians_match_the_padded_form(grid):
    f, u, v = _walled_fields(grid, RNG)
    assert np.array_equal(ops.laplacian_cells(f, grid), reference_laplacian_cells(f, grid))
    assert np.array_equal(ops.laplacian_u(u, grid), reference_laplacian_u(u, grid))
    assert np.array_equal(ops.laplacian_v(v, grid), reference_laplacian_v(v, grid))


@pytest.mark.parametrize("grid", REFERENCE_GRIDS + [GridSpec(128, 128)],
                         ids=["16x16", "33x20", "128x128"])
class TestModalLaplacian:
    """The modal identity the outer loop's frozen sources rest on: the
    Helmholtz coefficients of the 5-point Laplacian of a field with zero
    normal wall values are its own coefficients times -lap_*, on short axes
    and on folded ones (128 >= FOLD_MIN)."""

    def test_laplacians_are_per_mode_scalings(self, grid):
        m = ops.ModalBasis(grid)
        for (fwd, _), lap, stencil, draw in (
                (m.hu, m.lap_u, ops.laplacian_u, rand_u),
                (m.hv, m.lap_v, ops.laplacian_v, rand_v),
                (m.cells, m.lap_cells, ops.laplacian_cells, rand_cells)):
            f = draw(grid, RNG)
            assert max_rel_diff([-lap * fwd(f)], [fwd(stencil(f, grid))]) <= 1e-14


@pytest.mark.parametrize("grid", SOLVE_GRIDS, ids=GRID_IDS)
class TestProjection:
    def test_div_free_input_unchanged(self, grid):
        u, v = rand_div_free(grid, RNG)
        u2, v2 = project_div_free(u, v, grid)
        scale = max(np.abs(u).max(), np.abs(v).max())
        assert np.abs(u2 - u).max() < 1e-12 * scale
        assert np.abs(v2 - v).max() < 1e-12 * scale

    def test_pure_gradient_projects_to_zero(self, grid):
        f = rand_cells(grid, RNG)
        gu, gv = ops.grad(f, grid)
        u2, v2 = project_div_free(gu, gv, grid)
        scale = max(np.abs(gu).max(), 1.0)
        assert np.abs(u2).max() < 1e-12 * scale
        assert np.abs(v2).max() < 1e-12 * scale

    def test_random_field_divergence_below_tol(self, grid):
        u, v = rand_u(grid, RNG), rand_v(grid, RNG)
        u2, v2 = project_div_free(u, v, grid, tol=1e-10)
        assert np.abs(ops.div(u2, v2, grid)).max() <= 1e-10 * ops.norm_velocity(
            u, v, grid) / np.sqrt(grid.cell_area)

    def test_idempotence_and_orthogonality(self, grid):
        u, v = rand_u(grid, RNG), rand_v(grid, RNG)
        u2, v2 = project_div_free(u, v, grid)
        u3, v3 = project_div_free(u2, v2, grid)
        assert np.abs(u3 - u2).max() < 1e-12
        ortho = ops.inner_velocity(u2, v2, u - u2, v - v2, grid)
        assert abs(ortho) <= 1e-10 * ops.norm_velocity(u, v, grid) ** 2

    def test_zero_mean_potential(self, grid):
        u, v = rand_u(grid, RNG), rand_v(grid, RNG)
        phi = SpectralSolver(grid).poisson_neumann(ops.div(u, v, grid))
        assert abs(phi.mean()) < 1e-13 * max(np.abs(phi).max(), 1.0)


class TestSpectralVsCG:
    def test_helmholtz_cells_matches_cg(self, grid16):
        sp = SpectralSolver(grid16)
        b = rand_cells(grid16, RNG)
        c = 0.02
        x_fft = sp.helmholtz_cells(b, c)
        x_cg, _ = cg_solve(lambda z: z - c * ops.laplacian_cells(z, grid16), b,
                           tol=1e-13, max_iters=4000)
        assert np.abs(x_fft - x_cg).max() < 1e-10 * np.abs(x_fft).max()

    def test_poisson_neumann_matches_cg(self, grid16):
        sp = SpectralSolver(grid16)
        rhs = rand_cells(grid16, RNG)
        rhs -= rhs.mean()
        p_fft = sp.poisson_neumann(rhs)

        def neg_lap_neumann(p):
            g = np.pad(p, 1, mode="edge")
            return -((g[2:, 1:-1] - 2 * p + g[:-2, 1:-1]) / grid16.hx ** 2
                     + (g[1:-1, 2:] - 2 * p + g[1:-1, :-2]) / grid16.hy ** 2)

        p_cg, _ = cg_solve(neg_lap_neumann, -rhs, tol=1e-13, max_iters=8000,
                           project_nullspace=lambda z: z - z.mean())
        assert np.abs(p_fft - p_cg).max() < 1e-9 * np.abs(p_fft).max()


HELMHOLTZ = {  # solve -> (Laplacian it inverts, random right-hand side)
    "helmholtz_cells": (ops.laplacian_cells, rand_cells),
    "helmholtz_u": (ops.laplacian_u, rand_u),
    "helmholtz_v": (ops.laplacian_v, rand_v),
}


def _neumann_rhs(grid, rng):
    rhs = rand_cells(grid, rng)
    return rhs - rhs.mean()


class TestSpectralSolves:
    @pytest.mark.parametrize("grid", SOLVE_GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("name", sorted(HELMHOLTZ))
    def test_helmholtz_residual(self, grid, name):
        lap, rand = HELMHOLTZ[name]
        b = rand(grid, RNG)
        c = 0.03
        x = getattr(SpectralSolver(grid), name)(b, c)
        stiff = 1.0 + 4.0 * c * (1.0 / grid.hx ** 2 + 1.0 / grid.hy ** 2)
        assert np.abs(x - c * lap(x, grid) - b).max() <= 1e-13 * stiff * np.abs(b).max()

    @pytest.mark.parametrize("grid", SOLVE_GRIDS, ids=GRID_IDS)
    def test_poisson_neumann_residual(self, grid):
        rhs = _neumann_rhs(grid, RNG)
        p = SpectralSolver(grid).poisson_neumann(rhs)
        lap_p = ops.div(*ops.grad(p, grid), grid)   # the Neumann Laplacian
        stiff = 4.0 * (1.0 / grid.hx ** 2 + 1.0 / grid.hy ** 2)
        assert np.abs(lap_p - rhs).max() <= 1e-13 * stiff * np.abs(p).max()
        assert abs(p.mean()) <= 1e-13 * np.abs(p).max()

    @pytest.mark.parametrize("grid", SOLVE_GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("name", sorted(HELMHOLTZ) + ["poisson_neumann"])
    def test_solve_is_symmetric(self, grid, name):
        sp = SpectralSolver(grid)
        if name == "poisson_neumann":
            solve, rand = sp.poisson_neumann, _neumann_rhs
        else:
            solve, rand = (lambda b: getattr(sp, name)(b, 0.03)), HELMHOLTZ[name][1]
        b1, b2 = rand(grid, RNG), rand(grid, RNG)
        s1, s2 = solve(b1), solve(b2)
        lhs, rhs = np.sum(s1 * b2), np.sum(b1 * s2)
        scale = np.linalg.norm(s1) * np.linalg.norm(b2)
        assert abs(lhs - rhs) <= 1e-13 * scale


def _lowest_profile(kind: str, n: int) -> np.ndarray:
    """The k = 1 vector of the n-point transform ``kind`` along one axis
    (n + 1 faces with zero walls for "dst1"), or the constant k = 0 one."""
    if kind == "dst1":
        p = np.sin(np.pi * np.arange(n + 1) / n)
        p[[0, -1]] = 0.0
        return p
    mid = (np.arange(n) + 0.5) / n
    return {"dst2": np.sin(np.pi * mid), "dct2": np.cos(np.pi * mid),
            "const": np.ones(n)}[kind]


LOWEST_MODES = {  # solve -> transform kinds of its lowest mode along x and y
    "poisson_neumann": ("dct2", "const"),
    "helmholtz_cells": ("dst2", "dst2"),
    "helmholtz_u": ("dst1", "dst2"),
    "helmholtz_v": ("dst2", "dst1"),
}


@pytest.mark.parametrize("name", sorted(LOWEST_MODES))
def test_lowest_mode_solve_matches_the_exact_eigenvalue(name):
    """Each solve of the k = 1 mode f at 128^2 returns f / lambda, with lambda
    evaluated in 40-digit arithmetic.  The lowest mode has the smallest
    eigenvalue, so the rounding of f is not amplified, and c is large, so
    the Laplacian's eigenvalue carries the Helmholtz one."""
    grid, c = GridSpec(128, 128), 1.0e4
    kx, ky = LOWEST_MODES[name]
    f = np.outer(_lowest_profile(kx, grid.nx), _lowest_profile(ky, grid.ny))
    with mp.workdps(40):
        neg_eig = sum((2 / mp.mpf(h) * mp.sin(mp.pi / (2 * n))) ** 2
                      for kind, n, h in ((kx, grid.nx, grid.hx), (ky, grid.ny, grid.hy))
                      if kind != "const")
        lam = float(-neg_eig if name == "poisson_neumann" else 1 + c * neg_eig)
    sp = SpectralSolver(grid)
    x = sp.poisson_neumann(f) if name == "poisson_neumann" else getattr(sp, name)(f, c)
    want = f / lam
    assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()


SCIPY_TRANSFORMS = {"dst1": (scipy.fft.dst, 1), "dst2": (scipy.fft.dst, 2),
                    "dct2": (scipy.fft.dct, 2)}


@pytest.mark.parametrize("n", [1, 2, 3, 12, 31, 64, 127, 128, 143, 144, 256])
@pytest.mark.parametrize("kind", sorted(SCIPY_TRANSFORMS))
def test_closed_form_matrix_matches_scipy(kind, n):
    """Each dense transform matrix against scipy.fft's orthonormal transform
    of the identity, and its orthogonality: within 2e-15, or as close as the
    oracle's own matrix comes (its DST-I at 143 and 144 points is 2.3e-15
    and 2.5e-15 off)."""
    transform, t = SCIPY_TRANSFORMS[kind]
    q = ops._ortho_matrix(kind, n)
    oracle = transform(np.eye(n), type=t, norm="ortho", axis=0)
    assert np.abs(q - oracle).max() <= 1e-15

    def defect(m):
        return np.linalg.norm(m.T @ m - np.eye(n), 2)

    assert defect(q) <= max(2e-15, 1.1 * defect(oracle))


# axis lengths on both sides of FOLD_MIN, even and odd, and non-square grids
LAYOUT_GRIDS = [GridSpec(n, n) for n in (16, 33, 127, 128, 129, 130)] + [
    GridSpec(128, 33, lx=1.0, ly=0.4), GridSpec(33, 128, lx=0.5, ly=1.0)]
LAYOUT_IDS = ["16", "33", "127", "128", "129", "130", "128x33", "33x128"]


def _physical(name, grid, rng):
    return {"u": rand_u, "hu": rand_u, "v": rand_v, "hv": rand_v,
            "cells": rand_cells}[name](grid, rng)


def _boxes(grid):
    """(rows, columns) pairs per map part of ``on_box``: one placed
    symmetrically about the centre of each axis, which folds from FOLD_MIN
    points, and an off-centre one, which never folds."""
    def parts(lo, hi):
        return tuple(tuple(slice(lo * n // 16, n - hi * n // 16) for n in shape)
                     for shape in ((grid.nx + 1, grid.ny), (grid.nx, grid.ny + 1),
                                   (grid.nx, grid.ny)))
    return [parts(1, 1), parts(2, 5)]


class TestParityLayout:
    """``ModalBasis`` against dense products of the closed-form matrices
    whose rows are put in the order of its rule (``conftest``), on both
    kernels: below FOLD_MIN the dense one, from FOLD_MIN on the folded
    transforms and the block changes of basis."""

    def test_fold_min_splits_the_layout_grids(self):
        assert 33 < ops.FOLD_MIN <= 127

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=LAYOUT_IDS)
    def test_maps_equal_the_permuted_dense_products(self, grid):
        rng = np.random.default_rng(grid.nx * 1000 + grid.ny)
        m = ops.ModalBasis(grid)
        pairs = [(getattr(m, name), reference_maps(name, grid), name) for name in REFERENCE_AXES]
        pairs += [(m.change_u, reference_change_maps(grid.ny, 1), "shared"),
                  (m.change_v, reference_change_maps(grid.nx, 0), "shared")]
        for box in _boxes(grid):
            pairs += [(got, reference_maps(name, grid, box=part), (name, part))
                      for got, name, part in zip(m.on_box(box), ("hu", "hv", "cells"), box)]
        for (fwd, inv), (ref_fwd, ref_inv), name in pairs:
            if name == "shared":
                x = rng.standard_normal((grid.nx - 1, grid.ny - 1))
            elif isinstance(name, tuple):
                x = _physical(name[0], grid, rng)[name[1]]
            else:
                x = _physical(name, grid, rng)
            want = ref_fwd(x)
            assert max_rel_diff([fwd(x)], [want]) <= 1e-14, name
            c = rng.standard_normal(want.shape)
            assert max_rel_diff([inv(c)], [ref_inv(c)]) <= 1e-14, name

    @pytest.mark.parametrize("n", [ops.CHANGE_BLOCK_MIN - 1, ops.CHANGE_BLOCK_MIN, 64])
    def test_changes_of_basis_block_from_their_own_crossover(self, n):
        """The changes of basis take their blocks from CHANGE_BLOCK_MIN
        points, below FOLD_MIN, and match the dense products on both sides
        of it, on a level and on a stack of levels."""
        assert 48 <= ops.CHANGE_BLOCK_MIN <= 64 < ops.FOLD_MIN
        rng = np.random.default_rng(n)
        for axis in (0, 1):
            fwd, inv = ops._change_maps(n, axis)
            blocked = isinstance(getattr(fwd, "__self__", None), ops._BlockMaps)
            assert blocked == (n >= ops.CHANGE_BLOCK_MIN)
            ref_fwd, ref_inv = reference_change_maps(n, axis)
            shape = [n, n]
            shape[axis] = n - 1
            for x in (rng.standard_normal(shape), rng.standard_normal([3] + shape)):
                assert max_rel_diff([fwd(x)], [ref_fwd(x)]) <= 1e-14
                c = rng.standard_normal(x.shape[:-2] + (n, n))
                assert max_rel_diff([inv(c)], [ref_inv(c)]) <= 1e-14

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=LAYOUT_IDS)
    def test_inverse_undoes_forward(self, grid):
        """Physical fields come back through the Helmholtz maps (zero walls),
        coefficients through the shared-mode maps, shared coefficients
        through the changes of basis."""
        rng = np.random.default_rng(7)
        m = ops.ModalBasis(grid)
        for name in ("hu", "hv", "cells"):
            x = _physical(name, grid, rng)
            fwd, inv = getattr(m, name)
            assert max_rel_diff([inv(fwd(x))], [x]) <= 1e-14, name
        shared = rng.standard_normal((grid.nx - 1, grid.ny - 1))
        for name in ("u", "v"):
            fwd, inv = getattr(m, name)
            assert max_rel_diff([fwd(inv(shared))], [shared]) <= 1e-14, name
        for fwd, inv in (m.change_u, m.change_v):
            assert max_rel_diff([inv(fwd(shared))], [shared]) <= 1e-14

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=LAYOUT_IDS)
    def test_tables_follow_the_order_rule(self, grid):
        """Each per-mode table entry belongs to the frequencies the rule puts
        at its place, bit for bit; d_x and d_y stay indexed by frequency."""
        m = ops.ModalBasis(grid)
        dx, dy = m.d_x, m.d_y
        assert np.array_equal(dx, 2.0 / grid.hx * np.sin(0.5 * np.pi * np.arange(grid.nx + 1)
                                                        / grid.nx))
        sx, sy = (reference_frequencies("dst1", n) for n in (grid.nx, grid.ny))
        kx, ky = (reference_frequencies("dst2", n) for n in (grid.nx, grid.ny))
        assert np.array_equal(m.lap_u, dx[sx, None] ** 2 + dy[None, ky] ** 2)
        assert np.array_equal(m.lap_v, dx[kx, None] ** 2 + dy[None, sy] ** 2)
        assert np.array_equal(m.lap_cells, dx[kx, None] ** 2 + dy[None, ky] ** 2)
        assert np.array_equal(m.buoyancy, np.cos(0.5 * np.pi * sy / grid.ny))
        # dropping theta's last column (l = ny) leaves the v-face order
        assert ky[-1] == grid.ny and np.array_equal(ky[:-1], sy)

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=LAYOUT_IDS)
    def test_highest_frequency_sits_last(self, grid):
        """The f = ny mode of theta along y (cells alternating in sign) has
        coefficients in the last column only, the f = nx mode along x in the
        last row only."""
        m = ops.ModalBasis(grid)
        rng = np.random.default_rng(3)
        qx = reference_axis_matrix("dst2", grid.nx)
        qy = reference_axis_matrix("dst2", grid.ny)
        for th, keep in ((np.outer(rng.standard_normal(grid.nx), qy[-1]), (slice(None), -1)),
                         (np.outer(qx[-1], rng.standard_normal(grid.ny)), (-1, slice(None)))):
            c = m.cells[0](th)
            rest = c.copy()
            rest[keep] = 0.0
            assert np.abs(rest).max() <= 1e-14 * np.abs(c).max()
            assert np.abs(c[keep]).min() > 0.0


class TestHeating:
    def test_rigid_rotation_exactly_zero(self, grid16):
        xu, yu = grid16.u_positions()
        xv, yv = grid16.v_positions()
        u, v = -yu, xv
        assert np.abs(ops.heating(u, v, grid16)).max() == 0.0

    def test_shear_constant_value(self, grid16):
        a = 0.7
        _, yu = grid16.u_positions()
        u = a * yu
        v = grid16.zeros_v()
        h = ops.heating(u, v, grid16)
        assert np.abs(h - a * a / 2).max() < 1e-13

    def test_nonnegative_for_random_fields(self, grid16):
        for _ in range(20):
            u, v = rand_u(grid16, RNG), rand_v(grid16, RNG)
            assert ops.heating(u, v, grid16).min() >= -1e-12

    def test_sum_formula_equals_squared_deformation(self, grid16):
        u, v = rand_u(grid16, RNG), rand_v(grid16, RNG)
        ux, uy, vx, vy = ops.center_gradients(u, v, grid16)
        d11, d12, d22 = ops.deformation(u, v, grid16)
        literal = d11 * ux + d12 * (uy + vx) + d22 * vy
        assert np.abs(literal - ops.heating(u, v, grid16)).max() < 1e-12 * max(
            np.abs(literal).max(), 1.0)


class TestViscosityLaws:
    def test_zero_field_returns_nu0(self, grid16):
        law = ViscosityLaw(nu0=0.7, nu1=2.0)
        assert ops.nonlocal_viscosity(grid16.zeros_u(), grid16.zeros_v(),
                                      law, grid16) == 0.7

    def test_manufactured_gradient_energy(self):
        # stream function A sin^2 sin^2 has integral |grad y|^2 = 2 pi^4 A^2;
        # A = 1/pi^2 makes the integral exactly 2
        from bousscontrol.forward import stream_velocity
        amp = 1.0 / np.pi ** 2
        law = ViscosityLaw(1.0, 1.0)
        errs = []
        for n in (32, 64):
            g = GridSpec(n, n)
            u, v = stream_velocity(g, amp)
            errs.append(abs(ops.nonlocal_viscosity(u, v, law, g) - 3.0))
        assert errs[0] < 0.05
        assert errs[1] < errs[0] / 3.0

    def test_law_validation(self):
        with pytest.raises(DomainError):
            ViscosityLaw(nu0=0.0)
        for p in (2.5, 3.0, 6.5):
            with pytest.raises(DomainError, match="p must be 2"):
                ViscosityLaw(1.0, 0.1, p=p)
        ViscosityLaw(1.0, 0.1, p=4.0)
        ViscosityLaw(1.0, 0.1, p=6.0)


class TestAdvection:
    def test_zero_carrier_gives_zero(self, grid16):
        f = rand_cells(grid16, RNG)
        adv = ops.advect_scalar(f, grid16.zeros_u(), grid16.zeros_v(), grid16)
        assert np.all(adv == 0.0)

    def test_constant_scalar_gives_zero(self, grid16):
        cu, cv = rand_div_free(grid16, RNG)
        adv = ops.advect_scalar(np.full((16, 16), 2.0), cu, cv, grid16)
        assert np.abs(adv).max() < 1e-12 * max(np.abs(cu).max(), 1.0)

    def test_scalar_skew_symmetry(self):
        g = GridSpec(32, 32)
        cu, cv = rand_div_free(g, RNG)
        f = rand_cells(g, RNG)
        defect = abs(ops.inner_cells(ops.advect_scalar(f, cu, cv, g), f, g))
        scale = ops.norm_velocity(cu, cv, g) * ops.norm_cells(f, g) ** 2
        assert defect <= 1e-12 * scale

    def test_velocity_skew_symmetry(self):
        # the general transport, of which the program's self-advection is the
        # case (wu, wv) = (cu, cv)
        g = GridSpec(32, 32)
        cu, cv = rand_div_free(g, RNG)
        wu, wv = rand_u(g, RNG), rand_v(g, RNG)
        au, av = reference_advect_velocity(wu, wv, cu, cv, g)
        defect = abs(ops.inner_velocity(au, av, wu, wv, g))
        scale = ops.norm_velocity(cu, cv, g) * ops.norm_velocity(wu, wv, g) ** 2
        assert defect <= 1e-12 * scale


    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["16x16", "33x20"])
    def test_interior_fluxes_match_the_whole_grid_flux_form(self, grid):
        # the face sums over 2h and 4h equal the averaged fluxes bit for bit
        for _ in range(3):
            f, u, v = _walled_fields(grid, RNG)
            _, cu, cv = _walled_fields(grid, RNG)
            assert np.array_equal(ops.advect_scalar(f, cu, cv, grid),
                                  reference_advect_scalar(f, cu, cv, grid))
            for a, r in zip(ops.advect_velocity(u, v, grid),
                            reference_advect_velocity(u, v, u, v, grid)):
                assert np.array_equal(a, r)

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["16x16", "33x20"])
    def test_center_gradients_match_the_averaged_form(self, grid):
        for _ in range(3):
            _, u, v = _walled_fields(grid, RNG)
            for a, r in zip(ops.center_gradients(u, v, grid),
                            reference_center_gradients(u, v, grid)):
                assert np.array_equal(a, r)


class TestNorms:
    def test_zero_norm(self, grid16):
        assert ops.norm_cells(grid16.zeros_cells(), grid16) == 0.0

    def test_lp2_equals_l2(self, grid16):
        f = rand_cells(grid16, RNG)
        assert ops.lp_norm_cells(f, 2.0, grid16) == pytest.approx(
            ops.norm_cells(f, grid16), rel=1e-14)

    def test_sine_mode_l2_norm(self):
        # integral sin^2 sin^2 over the unit square is 1/4 => norm 1/2; the
        # midpoint sum of sin^2 over half-integer nodes is exactly n/2, so
        # this quadrature is exact for the mode
        for n in (16, 32):
            g = GridSpec(n, n)
            x, y = g.cell_centers()
            f = np.sin(np.pi * x) * np.sin(np.pi * y)
            assert abs(ops.norm_cells(f, g) - 0.5) < 1e-14

    def test_cauchy_schwarz(self, grid16):
        a, b = rand_cells(grid16, RNG), rand_cells(grid16, RNG)
        assert abs(ops.inner_cells(a, b, grid16)) <= (
            ops.norm_cells(a, grid16) * ops.norm_cells(b, grid16) + 1e-15)

    def test_h1_seminorms_nonnegative(self, grid16):
        f = rand_cells(grid16, RNG)
        u, v = rand_u(grid16, RNG), rand_v(grid16, RNG)
        assert ops.h1_seminorm_sq_cells(f, grid16) >= 0.0
        assert ops.h1_seminorm_sq_velocity(u, v, grid16) >= 0.0

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["16x16", "33x20"])
    def test_h1_seminorms_match_the_laplacian_form(self, grid):
        fields = [_walled_fields(grid, RNG) for _ in range(5)]
        # constant along axis 1: the y-sums consist of their wall terms alone
        f, u, v = _walled_fields(grid, RNG)
        fields.append((np.repeat(f[:, :1], grid.ny, axis=1),
                       np.repeat(u[:, :1], grid.ny, axis=1), v))
        for f, u, v in fields:
            ref = reference_h1_seminorm_sq_cells(f, grid)
            assert abs(ops.h1_seminorm_sq_cells(f, grid) - ref) <= 1e-13 * ref
            ref = reference_h1_seminorm_sq_velocity(u, v, grid)
            assert abs(ops.h1_seminorm_sq_velocity(u, v, grid) - ref) <= 1e-13 * ref


def test_cg_failure_reports_residual(grid16):
    from conftest import LinearSolverError
    rng = np.random.default_rng(0)
    b = rng.standard_normal((grid16.nx, grid16.ny))
    with pytest.raises(LinearSolverError) as err:
        cg_solve(lambda z: z - 0.5 * ops.laplacian_cells(z, grid16), b,
                 tol=1e-14, max_iters=2)
    assert err.value.residual is not None


def _stack(levels):
    """Per-level results (arrays, tuples of arrays or scalars) stacked."""
    if isinstance(levels[0], tuple):
        return tuple(np.stack(parts) for parts in zip(*levels))
    return np.stack(levels)


def _equal(got, want) -> bool:
    if isinstance(want, tuple):
        return all(np.array_equal(g, w) for g, w in zip(got, want))
    return np.array_equal(got, want)


STACK_GRIDS = REFERENCE_GRIDS + [GridSpec(31, 30)]
STACKED = {
    "div": lambda f, u, v, g: ops.div(u, v, g),
    "grad": lambda f, u, v, g: ops.grad(f, g),
    "laplacian_cells": lambda f, u, v, g: ops.laplacian_cells(f, g),
    "laplacian_u": lambda f, u, v, g: ops.laplacian_u(u, g),
    "laplacian_v": lambda f, u, v, g: ops.laplacian_v(v, g),
    "theta_to_vfaces": lambda f, u, v, g: ops.theta_to_vfaces(f, g),
    "vfaces_to_cells": lambda f, u, v, g: ops.vfaces_to_cells(v, g),
    "d_center_x": lambda f, u, v, g: ops.d_center(f, g.hx, axis=0),
    "d_center_y": lambda f, u, v, g: ops.d_center(f, g.hy, axis=1),
    "center_gradients": lambda f, u, v, g: ops.center_gradients(u, v, g),
    "heating": lambda f, u, v, g: ops.heating(u, v, g),
    "advect_scalar": lambda f, u, v, g: ops.advect_scalar(f, u, v, g),
    "advect_velocity": lambda f, u, v, g: ops.advect_velocity(u, v, g),
    "inner_cells": lambda f, u, v, g: ops.inner_cells(f, f, g),
    "norm_cells": lambda f, u, v, g: ops.norm_cells(f, g),
    "norm_velocity": lambda f, u, v, g: ops.norm_velocity(u, v, g),
    "lp_norm_cells": lambda f, u, v, g: ops.lp_norm_cells(f, 1.5, g),
    "law_l2": lambda f, u, v, g: ViscosityLaw(0.1, 0.3).of_density(f * f, g),
    "law_lp": lambda f, u, v, g: ViscosityLaw(0.1, 0.3, p=4.5).of_density(f * f, g),
}


class TestStackedLevels:
    """Every stencil and per-level reduction on a stack of levels equals its
    single-level calls bit for bit (``operators`` module docstring)."""

    @pytest.mark.parametrize("grid", STACK_GRIDS, ids=["16x16", "33x20", "31x30"])
    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_stack_equals_levels(self, name, grid):
        levels = [_walled_fields(grid, RNG) for _ in range(3)]
        one = STACKED[name]
        got = one(*(np.stack(parts) for parts in zip(*levels)), grid)
        want = _stack([one(*level, grid) for level in levels])
        assert _equal(got, want)
        if not isinstance(want, tuple) and want.ndim == 1:   # a reduction
            assert all(type(one(*level, grid)) is float for level in levels)

    def test_h1_forms_refuse_a_stack(self, grid16):
        f, u, v = (np.stack([a, a]) for a in _walled_fields(grid16, RNG))
        with pytest.raises(ShapeError, match="one level"):
            ops.h1_seminorm_sq_cells(f, grid16)
        with pytest.raises(ShapeError, match="one level"):
            ops.h1_seminorm_sq_velocity(u, v, grid16)


class TestModalEnergy:
    """``ModalBasis.energy`` of a modal state against the physical oracle:
    the H^1 forms with the Laplacians formed (``conftest``) and the cell
    norm, of the state ``ModalBasis.physical`` gives, within 1e-13
    relative.  The fields have large values next to the walls, where the
    odd-ghost terms of the velocity's form live."""

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS + [GridSpec(128, 128)],
                             ids=["16x16", "33x20", "128x128"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_physical_forms(self, grid, seed):
        rng = np.random.default_rng(seed)
        m = ops.ModalBasis(grid)
        u, v, th = rand_u(grid, rng), rand_v(grid, rng), rand_cells(grid, rng)
        u[1:-1, 0] += 5.0       # tangential velocity and theta next to the walls
        u[1:-1, -1] -= 4.0
        v[0, 1:-1] += 3.0
        v[-1, 1:-1] -= 6.0
        th[0, :] += 5.0
        th[:, -1] -= 4.0
        us, vs = m.u[0](u), m.v[0](v)
        m.project(us, vs)
        th_hat = m.cells[0](th)
        pu, pv, pth = m.physical(us, vs, th_hat)
        for wall in (pu[1:-1, 0], pu[1:-1, -1], pv[0, 1:-1], pv[-1, 1:-1]):
            assert np.abs(wall).max() > 0.1 * max(np.abs(pu).max(), np.abs(pv).max())
        got = m.energy(us, vs, th_hat)
        want = (reference_h1_seminorm_sq_velocity(pu, pv, grid),
                ops.norm_cells(pth, grid) ** 2, reference_h1_seminorm_sq_cells(pth, grid))
        assert all(type(x) is float for x in got)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w
