"""Adjoint solver: transposition fidelity, coupling direction, time reversal."""

import numpy as np
import pytest

from bousscontrol import operators as ops
from bousscontrol.adjoint import duality_defect, run_adjoint
from bousscontrol.forward import LinearPropagator, sine_theta
from bousscontrol.geometry import ControlPatch, bump_on_solver_grids, control_box
from bousscontrol.grids import GridSpec, TimeGrid

from conftest import (MODAL_GRIDS, MODAL_IDS, PhysicalLinear, max_rel_diff, rand_cells,
                      rand_div_free, rand_u, rand_v, run_linearized)


class TestDuality:
    def test_defect_below_tolerance(self, grid16, tgrid64, bumps16):
        rng = np.random.default_rng(100)
        worst = max(duality_defect(grid16, tgrid64, 0.1, bumps16, rng)
                    for _ in range(10))
        assert worst <= 1e-10

    def test_defect_below_tolerance_on_a_132_grid(self, patch):
        # longer axes than any workload runs
        grid = GridSpec(132, 132)
        bumps = bump_on_solver_grids(grid, patch)
        defect = duality_defect(grid, TimeGrid(0.1, 16), 0.1, bumps,
                                np.random.default_rng(101))
        assert defect <= 1e-10

    def test_defect_below_tolerance_on_a_folded_axis(self):
        # 128 x 16, nt = 16: the 128-point axis takes the folded transforms
        # and block changes of basis, the 16-point one the dense products
        grid = GridSpec(128, 16, ly=0.25)
        bumps = bump_on_solver_grids(grid, ControlPatch((0.5, 0.125), (0.45, 0.1)))
        defect = duality_defect(grid, TimeGrid(0.25, 16), 0.1, bumps,
                                np.random.default_rng(102), coupling=0.3)
        assert defect <= 1e-10

    def test_defect_checks_the_sourced_path(self, grid16, bumps16, monkeypatch):
        # the random physical sources reach the forward run as source_modes,
        # and a wrong conversion of them shows in the defect
        tg = TimeGrid(1.0, 16)
        run, seen = LinearPropagator.run, []

        def recording_run(prop, *args, sources=None, **kwargs):
            seen.append(sources)
            return run(prop, *args, sources=sources, **kwargs)

        monkeypatch.setattr(LinearPropagator, "run", recording_run)
        assert duality_defect(grid16, tg, 0.1, bumps16, np.random.default_rng(5)) <= 1e-10
        assert [f.shape for f in seen[0]] == [(16, 15, 16), (16, 16, 15), (16, 16, 16)]
        convert = LinearPropagator.source_modes
        monkeypatch.setattr(LinearPropagator, "source_modes",
                            lambda prop, *f: tuple(2.0 * a for a in convert(prop, *f)))
        assert duality_defect(grid16, tg, 0.1, bumps16, np.random.default_rng(5)) > 1e-3

    def test_zero_inputs_give_zero_defect(self, grid16, bumps16):
        tg = TimeGrid(1.0, 16)
        prop = LinearPropagator(grid16, tg, 0.1, bumps=bumps16)
        adj = run_adjoint((grid16.zeros_u(), grid16.zeros_v()),
                          grid16.zeros_cells(), None, None, prop)
        for arr in (adj.zeta_u, adj.zeta_v, adj.zeta_th, *adj.phi0, adj.psi0):
            assert np.all(arr == 0.0)

    def test_scaling_invariance(self, grid16, bumps16):
        # the defect is relative, so rescaling all random inputs (through the
        # rng seed trick: identical draws scaled) leaves it unchanged in order
        tg = TimeGrid(1.0, 32)
        d1 = duality_defect(grid16, tg, 0.1, bumps16, np.random.default_rng(4))
        d2 = duality_defect(grid16, tg, 0.1, bumps16, np.random.default_rng(4))
        assert d1 == d2  # determinism of the relative formulation
        assert d1 <= 1e-10


class TestAdjointStructure:
    def test_one_way_coupling_with_zero_phi_terminal(self, grid16):
        tg = TimeGrid(1.0, 64)
        nu0 = 0.2
        prop = LinearPropagator(grid16, tg, nu0)
        psi_t = sine_theta(grid16, 1.0)
        adj = run_adjoint((grid16.zeros_u(), grid16.zeros_v()), psi_t,
                          None, None, prop)
        for arr in (adj.zeta_u, adj.zeta_v, *adj.phi0):
            assert np.all(arr == 0.0)
        # psi follows the backward heat semigroup: reversed in time it decays
        # like e^{-2 pi^2 nu0 (T - t)}
        n0 = ops.norm_cells(psi_t, grid16)
        nT = ops.norm_cells(adj.psi0, grid16)
        measured = -np.log(nT / n0)
        assert measured == pytest.approx(2 * np.pi ** 2 * nu0, rel=5e-2)

    def test_time_reversal_matches_forward_heat(self, grid16):
        # the backward adjoint solve applies the same solve operator as the
        # forward heat mode, so the reversed adjoint equals the forward run;
        # with zero velocity and no coupling, psi^n = zeta_th^n exactly
        tg = TimeGrid(0.5, 32)
        nu0 = 0.3
        prop = LinearPropagator(grid16, tg, nu0, coupling=0.0)
        psi_t = rand_cells(grid16, np.random.default_rng(8))
        adj = run_adjoint((grid16.zeros_u(), grid16.zeros_v()), psi_t,
                          None, None, prop)
        fwd = run_linearized((grid16.zeros_u(), grid16.zeros_v()), psi_t,
                             None, None, None, nu0, grid16, tg, coupling=0.0)
        for k in range(1, tg.nt + 1):
            assert np.allclose(adj.zeta_th[tg.nt - k], fwd.theta[k], rtol=0, atol=1e-13)
        assert np.allclose(adj.psi0, fwd.theta[tg.nt], rtol=0, atol=1e-13)

    def test_coupling_carries_nu0(self, grid16):
        # transpose of the forward buoyancy: with phi terminal data, psi picks
        # up the vertical adjoint velocity scaled by the coupling constant
        tg = TimeGrid(0.5, 32)
        rng = np.random.default_rng(9)
        phi_t = rand_div_free(grid16, rng)
        for coupling in (0.25, 0.5):
            prop = LinearPropagator(grid16, tg, 0.2, coupling=coupling)
            # one backward step from T: psi = dt * coupling * E_v^T S phi-part
            psi_first = prop.step_adjoint(*phi_t, grid16.zeros_cells())[3]
            assert ops.norm_cells(psi_first, grid16) > 0.0
            if coupling == 0.25:
                base = psi_first.copy()
        assert np.allclose(psi_first, 2.0 * base, rtol=1e-12)


def test_adjoint_states_divergence_free_per_step(grid16):
    tg = TimeGrid(1.0, 32)
    rng = np.random.default_rng(21)
    prop = LinearPropagator(grid16, tg, 0.1)
    phi_t = rand_div_free(grid16, rng)
    psi_t = rand_cells(grid16, rng)
    g1 = (np.stack([0.1 * rng.standard_normal((17, 16)) for _ in range(tg.nt)]),
          np.stack([0.1 * rng.standard_normal((16, 17)) for _ in range(tg.nt)]))
    for arr in g1[0]:
        arr[0] = arr[-1] = 0.0
    for arr in g1[1]:
        arr[:, 0] = arr[:, -1] = 0.0
    # only phi^0 is kept; an unprojected intermediate level would break the
    # transpose and the duality defect (TestDuality, with g1 sources)
    adj = run_adjoint(phi_t, psi_t, g1, None, prop)
    scale = max(ops.norm_velocity(*adj.phi0, grid16), 1e-30)
    assert np.abs(ops.div(*adj.phi0, grid16)).max() \
        <= 1e-10 * scale / np.sqrt(grid16.cell_area)


def test_adjoint_keeps_only_zeta_and_level_zero(grid16):
    tg = TimeGrid(0.5, 16)
    rng = np.random.default_rng(22)
    prop = LinearPropagator(grid16, tg, 0.1)
    adj = run_adjoint(rand_div_free(grid16, rng), rand_cells(grid16, rng),
                      None, None, prop)
    assert set(vars(adj)) == {"zeta_u", "zeta_v", "zeta_th", "phi0", "psi0"}
    assert adj.zeta_u.shape == (tg.nt, grid16.nx + 1, grid16.ny)
    assert adj.zeta_v.shape == (tg.nt, grid16.nx, grid16.ny + 1)
    assert adj.zeta_th.shape == (tg.nt, grid16.nx, grid16.ny)
    assert adj.phi0[0].shape == (grid16.nx + 1, grid16.ny)
    assert adj.phi0[1].shape == (grid16.nx, grid16.ny + 1)
    assert adj.psi0.shape == (grid16.nx, grid16.ny)


@pytest.mark.parametrize("grid", MODAL_GRIDS, ids=MODAL_IDS)
def test_adjoint_matches_physical_reference(grid, patch):
    # the modal backward march, with sources and zeta read on the patch's
    # box, against the physical transpose steps it replaced
    tg = TimeGrid(0.5, 16)
    rng = np.random.default_rng(23)
    bumps = bump_on_solver_grids(grid, patch)
    prop = LinearPropagator(grid, tg, 0.1, bumps=bumps, coupling=0.3)
    phi_t, psi_t = rand_div_free(grid, rng), rand_cells(grid, rng)
    g1 = tuple(np.stack([draw(grid, rng) for _ in range(tg.nt)])
               for draw in (rand_u, rand_v))
    g2 = np.stack([rand_cells(grid, rng) for _ in range(tg.nt)])
    box = control_box(bumps)
    adj = run_adjoint(phi_t, psi_t, g1, g2, prop, box)
    zeta, phi0, psi0 = PhysicalLinear(prop).run_adjoint(phi_t, psi_t, g1, g2, box)
    assert max_rel_diff((adj.zeta_u, adj.zeta_v, adj.zeta_th), zeta) <= 1e-12
    assert max_rel_diff((*adj.phi0, adj.psi0), (*phi0, psi0)) <= 1e-12
