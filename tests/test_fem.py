"""Solver layer: assembly, forward solves, perturbation solves, reciprocity."""

import numpy as np
import pytest

from eitrev import fem
from eitrev.mesh import build_mesh, define_electrodes, disk_electrode_midpoints, generate_disk_mesh
from eitrev.model import ConductivityPair, Parametrization
from eitrev.fem import IndefiniteSystemError


def one_cell_setup():
    """Reference triangle with one electrode on each leg."""
    mesh = build_mesh(
        2,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )
    layout = define_electrodes(
        mesh, np.array([[0.5, 0.0], [0.0, 0.5]]), 0.3, 0.2
    )
    return mesh, layout


def random_tau(layout, rng):
    n_cells = layout.mesh.n_cells
    sigma = np.exp(-3.0 + 0.4 * rng.standard_normal(n_cells))
    zeta = np.exp(0.2 * rng.standard_normal(layout.equad_weights.shape))
    zeta *= 0.05 / layout.equad_weights.sum()
    return ConductivityPair(sigma, zeta)


class TestCurrentBasis:
    def test_orthonormal_and_mean_free(self):
        basis = fem.current_basis(16)
        assert np.allclose(basis.B.T @ basis.B, np.eye(15), atol=1e-13)
        assert np.allclose(basis.B.sum(axis=0), 0.0, atol=1e-13)
        assert np.allclose(basis.Bhat.sum(axis=0), 0.0)

    def test_pseudo_inverses(self):
        basis = fem.current_basis(9)
        one = np.ones(9)
        assert np.allclose(basis.B_pinv @ basis.B, np.eye(8), atol=1e-12)
        assert np.allclose(basis.Bhat_pinv @ basis.Bhat, np.eye(8), atol=1e-12)
        assert np.allclose(basis.B_pinv @ one, 0.0, atol=1e-12)
        assert np.allclose(basis.Bhat_pinv @ one, 0.0, atol=1e-12)

    def test_physical_patterns(self):
        basis = fem.current_basis(4)
        assert np.array_equal(
            basis.Bhat,
            np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]], dtype=float),
        )


class TestAssemble:
    def test_spd_fails_when_contact_vanishes(self, disk2, layout8, smooth8):
        tau = smooth8.tau(smooth8.zero())
        zeta = tau.zeta.copy()
        zeta[layout8.efacet_slices[3]] = 0.0
        with pytest.raises(IndefiniteSystemError):
            fem.assemble(disk2, layout8, ConductivityPair(tau.sigma, zeta))

    def test_matrix_doubles_with_tau(self, disk2, layout8, smooth8):
        tau = smooth8.tau(smooth8.zero())
        k1 = fem.assemble(disk2, layout8, tau).matrix
        k2 = fem.assemble(disk2, layout8, 2.0 * tau).matrix
        diff = (k2 - 2.0 * k1).toarray()
        assert np.abs(diff).max() < 1e-14 * np.abs(k1.toarray()).max()

    def test_symmetric(self, disk2, layout8, smooth8):
        K = fem.assemble(disk2, layout8, smooth8.tau(smooth8.zero())).matrix
        asym = (K - K.T).toarray()
        assert np.abs(asym).max() < 1e-13

    def test_positive_pivots_for_admissible_tau(self, disk2, layout8):
        rng = np.random.default_rng(4)
        for _ in range(5):
            fem.assemble(disk2, layout8, random_tau(layout8, rng))  # must not raise


class TestSolveForward:
    def test_zero_current(self, stack8):
        sols = fem.solve_forward(stack8.system, np.zeros(8))
        assert np.all(sols.u == 0.0)
        assert np.all(sols.U == 0.0)

    def test_linearity(self, stack8, basis8):
        i1 = basis8.B[:, 0]
        i2 = basis8.B[:, 3]
        s1 = fem.solve_forward(stack8.system, i1)
        s2 = fem.solve_forward(stack8.system, i2)
        s12 = fem.solve_forward(stack8.system, i1 + i2)
        assert np.allclose(s12.u, s1.u + s2.u, atol=1e-11)
        assert np.allclose(s12.U, s1.U + s2.U, atol=1e-11)

    def test_residual(self, stack8, basis8):
        sols = fem.solve_forward(stack8.system, basis8.B)
        system = stack8.system
        x = np.vstack([sols.u, basis8.B.T @ sols.U])
        rhs = np.vstack([np.zeros((system.n_interior, 7)), basis8.B.T @ basis8.B])
        res = system.matrix @ x - rhs
        assert np.linalg.norm(res) < 1e-10 * np.linalg.norm(rhs)

    def test_non_mean_free_rejected(self, stack8):
        with pytest.raises(ValueError):
            fem.solve_forward(stack8.system, np.ones(8))

    def test_zero_mean_potentials(self, stack8, basis8):
        sols = fem.solve_forward(stack8.system, basis8.B)
        assert np.abs(sols.U.sum(axis=0)).max() < 1e-12


class TestApplyP:
    def test_zero_perturbation(self, stack8, smooth8):
        zero = ConductivityPair(
            np.zeros(stack8.system.mesh.n_cells),
            np.zeros_like(stack8.system.layout.equad_weights),
        )
        out = fem.apply_P(stack8.system, zero, stack8.base)
        assert np.all(out.u == 0.0)
        assert np.all(out.U == 0.0)

    def test_bilinear_in_eta_and_input(self, stack8, smooth8):
        rng = np.random.default_rng(7)
        tau = smooth8.tau(smooth8.zero())
        e1 = ConductivityPair(
            rng.standard_normal(len(tau.sigma)), rng.standard_normal(tau.zeta.shape)
        )
        e2 = ConductivityPair(
            rng.standard_normal(len(tau.sigma)), rng.standard_normal(tau.zeta.shape)
        )
        a, b = 0.3, -1.7
        base = stack8.base
        out = fem.apply_P(stack8.system, a * e1 + b * e2, base)
        o1 = fem.apply_P(stack8.system, e1, base)
        o2 = fem.apply_P(stack8.system, e2, base)
        assert np.allclose(out.u, a * o1.u + b * o2.u, atol=1e-10)
        # linearity in the input pair
        sub = fem.SolutionSet(base.u[:, :2] + 2.0 * base.u[:, 2:4], base.U[:, :2] + 2.0 * base.U[:, 2:4])
        lhs = fem.apply_P(stack8.system, e1, sub)
        parts = fem.apply_P(stack8.system, e1, base)
        assert np.allclose(lhs.u, parts.u[:, :2] + 2.0 * parts.u[:, 2:4], atol=1e-10)

    def test_first_difference_slope(self, disk2, layout8, smooth8, basis8):
        # the perturbation solve is the derivative of the forward solution:
        # N(tau + s dtau) I - N(tau) I - s P(dtau) N(tau) I = O(s^2)
        iota = smooth8.zero()
        tau = smooth8.tau(iota)
        rng = np.random.default_rng(8)
        dsigma = tau.sigma * (0.5 * rng.standard_normal(len(tau.sigma)))
        dzeta = tau.zeta * 0.4
        eta = ConductivityPair(dsigma, dzeta)
        system = fem.assemble(disk2, layout8, tau, basis8)
        current = basis8.B[:, 0]
        base = fem.solve_forward(system, current)
        step = fem.apply_P(system, eta, base)
        svals = [2.0 ** (-k) for k in range(2, 8)]
        rems = []
        for s in svals:
            shifted = ConductivityPair(tau.sigma + s * dsigma, tau.zeta + s * dzeta)
            sol_s = fem.solve_forward(fem.assemble(disk2, layout8, shifted, basis8), current)
            diff = fem.SolutionSet(
                sol_s.u - base.u - s * step.u, sol_s.U - base.U - s * step.U
            )
            rems.append(system.energy_norm(diff))
        slope = np.polyfit(np.log(svals), np.log(rems), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestBformEval:
    def test_weak_form_identity(self, stack8, basis8):
        # with the perturbation equal to tau itself and both pairs the
        # solution, the form equals the driven power I . U
        system = stack8.system
        current = basis8.B[:, 2]
        sol = fem.solve_forward(system, current)
        val = fem.bform_eval(system, system.tau, sol[0], sol[0])[0, 0]
        assert val == pytest.approx(float(current @ sol.U[:, 0]), rel=1e-10)

    def test_zero_perturbation(self, stack8):
        zero = ConductivityPair(
            np.zeros(stack8.system.mesh.n_cells),
            np.zeros_like(stack8.system.layout.equad_weights),
        )
        assert fem.bform_eval(stack8.system, zero, stack8.base[0], stack8.base[1])[0, 0] == 0.0

    def test_symmetry(self, stack8, smooth8):
        rng = np.random.default_rng(10)
        tau = stack8.system.tau
        eta = ConductivityPair(
            rng.standard_normal(len(tau.sigma)), rng.standard_normal(tau.zeta.shape)
        )
        a, b = stack8.base[0], stack8.base[3]
        assert fem.bform_eval(stack8.system, eta, a, b)[0, 0] == pytest.approx(
            fem.bform_eval(stack8.system, eta, b, a)[0, 0], rel=1e-12
        )

    def test_hand_quadrature_on_one_cell(self):
        # independent oracle: affine interpolation and dense Gauss quadrature
        mesh, layout = one_cell_setup()
        system = fem.assemble(
            mesh,
            layout,
            ConductivityPair(np.array([0.8]), np.full(layout.equad_weights.shape, 0.3)),
        )
        rng = np.random.default_rng(11)
        eta = ConductivityPair(rng.standard_normal(1), rng.standard_normal(layout.equad_weights.shape))
        # eta.zeta must be facet-constant for the interpolated oracle below
        eta = ConductivityPair(eta.sigma, np.repeat(eta.zeta[:, :1], eta.zeta.shape[1], axis=1))
        u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
        U1, U2 = rng.standard_normal(2), rng.standard_normal(2)
        p1 = fem.SolutionSet(u1, U1)
        p2 = fem.SolutionSet(u2, U2)
        got = fem.bform_eval(system, eta, p1, p2)[0, 0]

        # hand computation: gradients of the affine interpolants
        verts = mesh.vertices[mesh.cells[0]]
        A = np.column_stack([verts, np.ones(3)])
        g1 = np.linalg.solve(A, u1)[:2]
        g2 = np.linalg.solve(A, u2)[:2]
        area = 0.5
        expect = float(eta.sigma[0]) * area * float(g1 @ g2)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        ts = 0.5 * (nodes + 1.0)
        ws = 0.5 * weights
        for k, fid in enumerate(layout.efacets):
            fverts = mesh.vertices[mesh.boundary_facets[fid]]
            m = layout.efacet_electrode[k]
            length = np.linalg.norm(fverts[1] - fverts[0])
            dz = eta.zeta[k, 0]
            for t, w in zip(ts, ws):
                x = fverts[0] + t * (fverts[1] - fverts[0])
                lam = np.linalg.solve(A.T, np.array([x[0], x[1], 1.0]))
                v1 = float(lam @ u1)
                v2 = float(lam @ u2)
                expect += w * length * dz * (U1[m] - v1) * (U2[m] - v2)
        assert got == pytest.approx(expect, rel=1e-12)


class TestForwardMap:
    def test_reciprocity_random_tau(self, disk2, layout8):
        rng = np.random.default_rng(12)
        for _ in range(10):
            lam = fem.forward_map(fem.assemble(disk2, layout8, random_tau(layout8, rng)))
            assert np.linalg.norm(lam - lam.T) < 1e-10 * np.linalg.norm(lam)

    def test_uniform_sigma_increase_lowers_power(self, disk2, layout8, smooth8, basis8):
        tau = smooth8.tau(smooth8.zero())
        lam1 = fem.forward_map(fem.assemble(disk2, layout8, tau, basis8), basis8)
        tau2 = ConductivityPair(1.5 * tau.sigma, tau.zeta)
        lam2 = fem.forward_map(fem.assemble(disk2, layout8, tau2, basis8), basis8)
        current = np.zeros(7)
        current[0] = 1.0
        assert current @ lam2 @ current < current @ lam1 @ current

    def test_scaling_inverse_in_tau(self, disk2, layout8, smooth8, basis8):
        tau = smooth8.tau(smooth8.zero())
        lam = fem.forward_map(fem.assemble(disk2, layout8, tau, basis8), basis8)
        lam3 = fem.forward_map(fem.assemble(disk2, layout8, 3.0 * tau, basis8), basis8)
        assert np.allclose(lam3, lam / 3.0, rtol=1e-12)

    def test_mesh_refinement_trend(self, config):
        # consecutive refinements of the map differ by a shrinking amount
        mids = disk_electrode_midpoints(8)
        lams = []
        for level in (2, 3, 4):
            mesh = generate_disk_mesh(level)
            layout = define_electrodes(mesh, mids, 0.3, 0.2)
            from eitrev.mesh import cluster_partition

            part = cluster_partition(mesh, 10, seed=1)
            param = Parametrization(config, part, layout, "smooth")
            lams.append(fem.forward_map(fem.assemble(mesh, layout, param.tau(param.zero()))))
        d12 = np.linalg.norm(lams[1] - lams[0])
        d23 = np.linalg.norm(lams[2] - lams[1])
        assert d23 <= d12 / 2.0


class TestShuntLimit:
    def test_dense_solve_and_shunt_trend(self):
        # oracle: dense independently assembled system on a coarse mesh
        mesh = generate_disk_mesh(1)
        layout = define_electrodes(mesh, disk_electrode_midpoints(2), 0.45, 0.3)
        basis = fem.current_basis(2)
        current = np.array([1.0, -1.0])

        def dense_solve(zeta_value):
            n = mesh.n_vertices
            A = np.zeros((n, n))
            for cell in mesh.cells:
                verts = mesh.vertices[cell]
                M3 = np.column_stack([verts, np.ones(3)])
                area = 0.5 * abs(np.linalg.det(M3))
                grads = np.linalg.inv(M3)[:2, :].T  # rows: grad of each hat
                A[np.ix_(cell, cell)] += area * grads @ grads.T
            S = np.zeros((n, n))
            R = np.zeros((n, 2))
            D = np.zeros(2)
            nodes, weights = np.polynomial.legendre.leggauss(6)
            ts = 0.5 * (nodes + 1.0)
            ws = 0.5 * weights
            for k, fid in enumerate(layout.efacets):
                fv = mesh.boundary_facets[fid]
                coords = mesh.vertices[fv]
                length = np.linalg.norm(coords[1] - coords[0])
                m = layout.efacet_electrode[k]
                for t, w in zip(ts, ws):
                    phi = np.array([1.0 - t, t])
                    wq = w * length * zeta_value
                    S[np.ix_(fv, fv)] += wq * np.outer(phi, phi)
                    R[fv, m] += wq * phi
                    D[m] += wq
            B = basis.B
            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = A + S
            K[:n, n:] = -R @ B
            K[n:, :n] = (-R @ B).T
            K[n:, n:] = B.T @ (D[:, None] * B)
            rhs = np.zeros(n + 1)
            rhs[n:] = B.T @ current
            x = np.linalg.solve(K, rhs)
            return x[:n], B @ x[n:]

        deviations = []
        for k in range(4):
            zeta_value = 1.0 * 10.0**k
            tau = ConductivityPair(
                np.ones(mesh.n_cells), np.full(layout.equad_weights.shape, zeta_value)
            )
            sols = fem.solve_forward(fem.assemble(mesh, layout, tau, basis), current)
            u_oracle, U_oracle = dense_solve(zeta_value)
            assert np.allclose(sols.u[:, 0], u_oracle, atol=1e-9 * max(1, abs(U_oracle).max()))
            assert np.allclose(sols.U[:, 0], U_oracle, atol=1e-9 * max(1, abs(U_oracle).max()))
            # distance of U_m from the electrode average of u
            from eitrev.quadrature import facet_rule

            bary, _ = facet_rule(2)
            dev = 0.0
            for m in range(2):
                sl = layout.efacet_slices[m]
                w = layout.equad_weights[sl]
                fv = layout.efacet_vertices[sl]
                uq = sols.u[fv, 0] @ bary.T  # (n_f, n_q)
                avg = float((w * uq).sum() / w.sum())
                dev = max(dev, abs(sols.U[m, 0] - avg))
            deviations.append(dev)
        assert all(b < a for a, b in zip(deviations[:-1], deviations[1:]))


class TestAccounting:
    def test_one_factorization_many_solves(self, disk2, layout8, smooth8, basis8):
        system = fem.assemble(disk2, layout8, smooth8.tau(smooth8.zero()), basis8)
        assert system.factor_count == 1
        assert system.solve_count == 0
        fem.solve_forward(system, basis8.B)
        assert system.solve_count == 7
        sols = fem.solve_forward(system, basis8.B[:, :3])
        fem.apply_P(
            system,
            ConductivityPair(
                np.ones(disk2.n_cells), np.zeros_like(layout8.equad_weights)
            ),
            sols,
        )
        assert system.solve_count == 13
        assert system.factor_count == 1
