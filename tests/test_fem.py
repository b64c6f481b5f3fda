"""Solver layer: assembly, forward solves, perturbation solves, reciprocity."""

import numpy as np
import pytest
import scipy.sparse as sp

from eitrev import fem
from eitrev.mesh import (
    build_mesh,
    cluster_partition,
    define_electrodes,
    disk_electrode_midpoints,
    generate_disk_mesh,
)
from eitrev.model import ConductivityPair, ModelConfig, Parametrization
from eitrev.fem import IndefiniteSystemError
from test_three_dimensional import kuhn_cube


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

    def test_one_shared_read_only_basis_per_count(self, layout8, smooth8):
        basis = fem.current_basis(8)
        assert fem.current_basis(8) is basis
        assert fem.AssembledSystem(layout8, smooth8.tau(smooth8.zero())).basis is basis
        for arr in (basis.B, basis.Bhat, basis.B_pinv, basis.Bhat_pinv):
            assert not arr.flags.writeable


class TestAssemble:
    def test_spd_fails_when_contact_vanishes(self, disk2, layout8, smooth8):
        tau = smooth8.tau(smooth8.zero())
        zeta = tau.zeta.copy()
        zeta[layout8.efacet_slices[3]] = 0.0
        with pytest.raises(IndefiniteSystemError):
            fem.AssembledSystem(layout8, ConductivityPair(tau.sigma, zeta))

    def test_vanishing_contact_density_rejected(self, layout8, smooth8):
        tau = smooth8.tau(smooth8.zero())
        with pytest.raises(IndefiniteSystemError, match="vanishes identically"):
            fem.AssembledSystem(layout8, ConductivityPair(tau.sigma, np.zeros_like(tau.zeta)))

    def test_matrix_doubles_with_tau(self, disk2, layout8, smooth8):
        tau = smooth8.tau(smooth8.zero())
        k1 = fem.AssembledSystem(layout8, tau).matrix
        k2 = fem.AssembledSystem(layout8, 2.0 * tau).matrix
        diff = (k2 - 2.0 * k1).toarray()
        assert np.abs(diff).max() < 1e-14 * np.abs(k1.toarray()).max()

    def test_symmetric(self, disk2, layout8, smooth8):
        K = fem.AssembledSystem(layout8, smooth8.tau(smooth8.zero())).matrix
        asym = (K - K.T).toarray()
        assert np.abs(asym).max() < 1e-13

    def test_positive_pivots_for_admissible_tau(self, disk2, layout8):
        rng = np.random.default_rng(4)
        for _ in range(5):
            fem.AssembledSystem(layout8, random_tau(layout8, rng))  # must not raise


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
    def test_inputs_must_sample_the_cells_and_the_facet_quadrature(self, stack8):
        system = stack8.system
        sigma = np.zeros(system.mesh.n_cells)
        zeta = np.zeros_like(system.layout.equad_weights)
        with pytest.raises(ValueError, match="sigma perturbation must be a per-cell field"):
            system.perturbation(ConductivityPair(sigma[:-1], zeta))
        with pytest.raises(ValueError, match="zeta perturbation must sample the facet quadrature"):
            system.perturbation(ConductivityPair(sigma, zeta[:, :-1]))

    def test_zero_perturbation(self, stack8, smooth8):
        zero = ConductivityPair(
            np.zeros(stack8.system.mesh.n_cells),
            np.zeros_like(stack8.system.layout.equad_weights),
        )
        out = stack8.system.perturbation(zero).apply(stack8.base)
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
        out = stack8.system.perturbation(a * e1 + b * e2).apply(base)
        o1 = stack8.system.perturbation(e1).apply(base)
        o2 = stack8.system.perturbation(e2).apply(base)
        assert np.allclose(out.u, a * o1.u + b * o2.u, atol=1e-10)
        # linearity in the input pair
        sub = fem.SolutionSet(base.u[:, :2] + 2.0 * base.u[:, 2:4], base.U[:, :2] + 2.0 * base.U[:, 2:4])
        lhs = stack8.system.perturbation(e1).apply(sub)
        parts = stack8.system.perturbation(e1).apply(base)
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
        system = fem.AssembledSystem(layout8, tau)
        current = basis8.B[:, 0]
        base = fem.solve_forward(system, current)
        step = system.perturbation(eta).apply(base)
        svals = [2.0 ** (-k) for k in range(2, 8)]
        rems = []
        for s in svals:
            shifted = ConductivityPair(tau.sigma + s * dsigma, tau.zeta + s * dzeta)
            sol_s = fem.solve_forward(fem.AssembledSystem(layout8, shifted), current)
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
        val = system.perturbation(system.tau).bform(sol[0], sol[0])[0, 0]
        assert val == pytest.approx(float(current @ sol.U[:, 0]), rel=1e-10)

    def test_zero_perturbation(self, stack8):
        zero = ConductivityPair(
            np.zeros(stack8.system.mesh.n_cells),
            np.zeros_like(stack8.system.layout.equad_weights),
        )
        form = stack8.system.perturbation(zero)
        assert form.bform(stack8.base[0], stack8.base[1])[0, 0] == 0.0

    def test_symmetry(self, stack8, smooth8):
        rng = np.random.default_rng(10)
        tau = stack8.system.tau
        eta = ConductivityPair(
            rng.standard_normal(len(tau.sigma)), rng.standard_normal(tau.zeta.shape)
        )
        a, b = stack8.base[0], stack8.base[3]
        assert stack8.system.perturbation(eta).bform(a, b)[0, 0] == pytest.approx(
            stack8.system.perturbation(eta).bform(b, a)[0, 0], rel=1e-12
        )

    def test_hand_quadrature_on_one_cell(self):
        # independent oracle: affine interpolation and dense Gauss quadrature
        mesh, layout = one_cell_setup()
        system = fem.AssembledSystem(
            layout, ConductivityPair(np.array([0.8]), np.full(layout.equad_weights.shape, 0.3))
        )
        rng = np.random.default_rng(11)
        eta = ConductivityPair(rng.standard_normal(1), rng.standard_normal(layout.equad_weights.shape))
        # eta.zeta must be facet-constant for the interpolated oracle below
        eta = ConductivityPair(eta.sigma, np.repeat(eta.zeta[:, :1], eta.zeta.shape[1], axis=1))
        u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
        U1, U2 = rng.standard_normal(2), rng.standard_normal(2)
        p1 = fem.SolutionSet(u1, U1)
        p2 = fem.SolutionSet(u2, U2)
        got = system.perturbation(eta).bform(p1, p2)[0, 0]

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
            lam = fem.forward_map(fem.AssembledSystem(layout8, random_tau(layout8, rng)))
            assert np.linalg.norm(lam - lam.T) < 1e-10 * np.linalg.norm(lam)

    def test_uniform_sigma_increase_lowers_power(self, disk2, layout8, smooth8, basis8):
        tau = smooth8.tau(smooth8.zero())
        lam1 = fem.forward_map(fem.AssembledSystem(layout8, tau))
        tau2 = ConductivityPair(1.5 * tau.sigma, tau.zeta)
        lam2 = fem.forward_map(fem.AssembledSystem(layout8, tau2))
        current = np.zeros(7)
        current[0] = 1.0
        assert current @ lam2 @ current < current @ lam1 @ current

    def test_scaling_inverse_in_tau(self, disk2, layout8, smooth8, basis8):
        tau = smooth8.tau(smooth8.zero())
        lam = fem.forward_map(fem.AssembledSystem(layout8, tau))
        lam3 = fem.forward_map(fem.AssembledSystem(layout8, 3.0 * tau))
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
            lams.append(fem.forward_map(fem.AssembledSystem(layout, param.tau(param.zero()))))
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
            sols = fem.solve_forward(fem.AssembledSystem(layout, tau), current)
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
    def test_one_factorization_many_solves(
        self, disk2, layout8, smooth8, basis8, monkeypatch
    ):
        factored = []
        splu = fem.spla.splu

        def counted(matrix, **kwargs):
            factored.append(matrix)
            return splu(matrix, **kwargs)

        monkeypatch.setattr(fem.spla, "splu", counted)
        system = fem.AssembledSystem(layout8, smooth8.tau(smooth8.zero()))
        assert len(factored) == 1
        assert system.solve_count == 0
        fem.solve_forward(system, basis8.B)
        assert system.solve_count == 7
        sols = fem.solve_forward(system, basis8.B[:, :3])
        system.perturbation(
            ConductivityPair(np.ones(disk2.n_cells), np.zeros_like(layout8.equad_weights))
        ).apply(sols)
        assert system.solve_count == 13
        assert len(factored) == 1


class TestPerturbationBlocks:
    """Every block is built for a coordinate direction, and the forms are the blocks' forms."""

    @staticmethod
    def _full_forms(system, pair, sols):
        dsigma = np.asarray(pair.sigma, dtype=float)
        dzeta = np.asarray(pair.zeta, dtype=float)
        C, R, D = fem._contact_blocks(system.layout, dzeta)
        A = fem._stiffness(system, dsigma) + C
        u, U = sols.u, sols.U
        bform = u.T @ (A @ u) - u.T @ (R @ U) - U.T @ (R.T @ u) + U.T @ (D[:, None] * U)
        f_u = A @ u - R @ U
        f_c = system.basis.B.T @ (D[:, None] * U - R.T @ u)
        return bform, -np.vstack([f_u, f_c])

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    @pytest.mark.parametrize("at_origin", [True, False])
    def test_coordinate_forms_equal_full_block_forms(
        self, kind, at_origin, smooth8, cem8, monkeypatch
    ):
        param = smooth8 if kind == "smooth" else cem8
        iota = param.zero()
        if not at_origin:
            rng = np.random.default_rng(12)
            iota = param.from_flat(0.05 * rng.standard_normal(param.dim))
            assert param.admissible(iota)
        system = fem.AssembledSystem(param.layout, param.tau(iota))
        base = fem.solve_forward(system, system.basis.B)
        n_kappa, M = param.partition.n_clusters, param.n_electrodes
        coordinates = {"kappa": 3, "rho": n_kappa + 2}
        if kind == "smooth":
            coordinates["xi"] = n_kappa + M + 5

        built = []

        def recorded(name, block):
            def wrapper(*args):
                built.append(name)
                return block(*args)

            return wrapper

        for name in ("_stiffness", "_contact_blocks"):
            monkeypatch.setattr(fem, name, recorded(name, getattr(fem, name)))
        for coordinate, index in coordinates.items():
            pair = param.dtau(system.tau, [param.from_flat(np.eye(param.dim)[index])])
            built.clear()
            op = system.perturbation(pair)
            assert sorted(built) == ["_contact_blocks", "_stiffness"], coordinate
            bform, rhs = self._full_forms(system, pair, base)
            # tobytes, not array_equal: the sign of a zero entry must match too
            assert op.bform(base, base).tobytes() == bform.tobytes(), coordinate
            assert op.rhs(base).tobytes() == rhs.tobytes(), coordinate


class TestLabelGrams:
    """The block Gram kernels give one perturbation's form per label, bit for bit."""

    def test_grams_equal_the_form_of_each_label(self, stack8, smooth8):
        system, base = stack8.system, stack8.base
        layout, partition = system.layout, smooth8.partition
        rng = np.random.default_rng(14)
        n_cells = system.mesh.n_cells
        # signed fields with zeros of both signs, one electrode without contact
        sigma = rng.standard_normal(n_cells) * (rng.random(n_cells) < 0.7)
        zeta = rng.standard_normal(layout.equad_weights.shape)
        zeta *= (rng.random(len(zeta)) < 0.7)[:, None]
        zeta[layout.efacet_slices[3]] = 0.0
        no_zeta = np.zeros_like(zeta)
        grams = fem.cluster_grams(system, sigma, partition.cell_stack, base)
        for i in range(partition.n_clusters):
            own = ConductivityPair(np.where(partition.cluster_of == i, sigma, 0.0), no_zeta)
            assert grams[i].tobytes() == system.perturbation(own).bform(base, base).tobytes()
        grams = fem.electrode_grams(system, zeta, base)
        for m in range(layout.n_electrodes):
            on = (layout.efacet_electrode == m)[:, None]
            own = ConductivityPair(np.zeros(n_cells), np.where(on, zeta, 0.0))
            assert grams[m].tobytes() == system.perturbation(own).bform(base, base).tobytes()


# name: mesh, electrode midpoints, electrode and contact radii, clusters
CUBE_MIDPOINTS = np.array([[0.5, 0.0, 0.5], [1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5]])
MATRIX_GEOMETRIES = {
    "disk1": (lambda: generate_disk_mesh(1), disk_electrode_midpoints(4), (0.3, 0.2), 4),
    "disk2": (lambda: generate_disk_mesh(2), disk_electrode_midpoints(8), (0.3, 0.2), 20),
    "disk3": (lambda: generate_disk_mesh(3), disk_electrode_midpoints(16), (0.15, 0.10), 80),
    "disk4": (lambda: generate_disk_mesh(4), disk_electrode_midpoints(16), (0.15, 0.10), 40),
    "cube2": (lambda: kuhn_cube(2), CUBE_MIDPOINTS, (0.5, 0.4), 6),
    "cube3": (lambda: kuhn_cube(3), CUBE_MIDPOINTS, (0.5, 0.4), 6),
}


def _block_matrix(system):
    """The system matrix as the former construction gave it: sp.bmat of four sparse blocks."""
    form = fem.PerturbationOperator(system, system.tau)
    R, D, B = form.Rmat, form.Dvec, system.basis.B
    return sp.bmat(
        [
            [form.A, sp.csr_matrix(-R @ B)],
            [sp.csr_matrix(-(R @ B).T), sp.csr_matrix(B.T @ (D[:, None] * B))],
        ],
        format="csc",
    )


def _cancelling_pair(system):
    """``system.tau`` with one cell's conductivity set so that a nodal entry sums to exactly 0.

    Bisection on that cell's (negative) conductivity, over the cells in
    order, until an off-diagonal entry of the nodal block is exactly zero
    and the system stays positive definite. Also returns the entry.
    """
    tau = system.tau
    mesh = system.mesh

    def entry(sigma, i, j):
        return fem.PerturbationOperator(system, ConductivityPair(sigma, tau.zeta)).A[i, j]

    for c, cell in enumerate(mesh.cells):
        i, j = sorted(cell[:2])
        sigma = np.array(tau.sigma, dtype=float)
        lo, hi = -10.0 * sigma.max(), 0.0
        sigma[c] = lo
        sign_lo = np.sign(entry(sigma, i, j))
        sigma[c] = hi
        if sign_lo * np.sign(entry(sigma, i, j)) >= 0:
            continue
        while lo < 0.5 * (lo + hi) < hi:
            sigma[c] = 0.5 * (lo + hi)
            value = entry(sigma, i, j)
            if value == 0.0:
                pair = ConductivityPair(sigma, tau.zeta)
                try:
                    fem.AssembledSystem(system.layout, pair)
                except IndefiniteSystemError:
                    break
                return pair, (i, j)
            if np.sign(value) == sign_lo:
                lo = sigma[c]
            else:
                hi = sigma[c]
    raise AssertionError("no cell conductivity cancels a nodal entry")


class TestSystemMatrix:
    """The system matrix from one triplet set equals the former block build bit for bit."""

    @pytest.fixture(scope="class", params=sorted(MATRIX_GEOMETRIES))
    def geometry(self, request):
        make_mesh, midpoints, radii, n_clusters = MATRIX_GEOMETRIES[request.param]
        mesh = make_mesh()
        layout = define_electrodes(mesh, midpoints, *radii)
        return layout, cluster_partition(mesh, n_clusters, seed=1)

    @staticmethod
    def _assert_same_matrix(system):
        K, expected = system.matrix, _block_matrix(system)
        for name in ("data", "indices", "indptr"):
            assert getattr(K, name).tobytes() == getattr(expected, name).tobytes(), name

    @pytest.mark.parametrize("kind", ["smooth", "cem"])
    def test_matrix_equals_the_block_build(self, geometry, kind):
        layout, partition = geometry
        param = Parametrization(ModelConfig(), partition, layout, kind)
        rng = np.random.default_rng(31)
        points = [param.zero()]
        while len(points) < 4:
            iota = param.from_flat(0.1 * rng.standard_normal(param.dim))
            if param.admissible(iota):
                points.append(iota)
        for iota in points:
            self._assert_same_matrix(fem.AssembledSystem(layout, param.tau(iota)))

        origin = fem.AssembledSystem(layout, param.tau(param.zero()))
        pair, (i, j) = _cancelling_pair(origin)
        system = fem.AssembledSystem(layout, pair)
        K = system.matrix
        stored = K.indices[K.indptr[j] : K.indptr[j + 1]]
        assert i in origin.matrix.indices[origin.matrix.indptr[j] : origin.matrix.indptr[j + 1]]
        assert i not in stored  # the cancelled entry is dropped, as the block build drops it
        self._assert_same_matrix(system)
