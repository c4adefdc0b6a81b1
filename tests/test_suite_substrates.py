"""Tests for the ODE, GP, and spline substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import check_grad, ops, value_and_grad, var
from repro.models.distributions import multi_normal_prec_quad_lpdf
from repro.suite.gp import rbf_kernel, rbf_kernel_np, squared_distance_matrix
from repro.suite.odes import (
    FribergKarlsson,
    ode_solution_op,
    rk4_solve,
    rk4_solve_with_sensitivities,
)
from repro.suite.splines import i_spline_basis, m_spline_basis


class TestRK4:
    def test_exponential_decay_exact(self):
        # y' = -k y has solution y0 * exp(-k t); RK4 is 4th order.
        k = 0.7

        def rhs(t, y, theta):
            return -theta[0] * y

        t = np.linspace(0.0, 5.0, 26)
        out = rk4_solve(rhs, np.array([2.0]), t, np.array([k]),
                        steps_per_interval=4)
        assert np.allclose(out[:, 0], 2.0 * np.exp(-k * t), rtol=1e-6)

    def test_harmonic_oscillator_energy(self):
        def rhs(t, y, theta):
            return np.array([y[1], -theta[0] * y[0]])

        t = np.linspace(0.0, 10.0, 101)
        out = rk4_solve(rhs, np.array([1.0, 0.0]), t, np.array([1.0]))
        energy = out[:, 0] ** 2 + out[:, 1] ** 2
        assert np.allclose(energy, 1.0, atol=1e-4)

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            rk4_solve(lambda t, y, th: -y, np.ones(1), np.array([0.0, 0.0, 1.0]),
                      np.zeros(1))

    def test_first_row_is_initial_state(self):
        out = rk4_solve(lambda t, y, th: -y, np.array([3.0]),
                        np.array([0.0, 1.0]), np.zeros(1))
        assert out[0, 0] == 3.0


class TestSensitivities:
    def test_linear_decay_sensitivity_exact(self):
        # y = y0 exp(-k t); dy/dk = -t y.
        def rhs(t, y, theta):
            return -theta[0] * y

        def jac_y(t, y, theta):
            return np.array([[-theta[0]]])

        def jac_theta(t, y, theta):
            return np.array([[-y[0]]])

        t = np.linspace(0.0, 3.0, 13)
        sol, sens = rk4_solve_with_sensitivities(
            rhs, jac_y, jac_theta, np.array([2.0]), t, np.array([0.5]),
            steps_per_interval=4,
        )
        expected = -t * sol[:, 0]
        assert np.allclose(sens[:, 0, 0], expected, rtol=1e-5, atol=1e-8)

    def test_initial_sensitivity_propagates(self):
        # With s0 = dy0/dtheta = 1 and rhs independent of theta and y,
        # the sensitivity stays 1.
        def rhs(t, y, theta):
            return np.zeros(1)

        zero = lambda t, y, theta: np.zeros((1, 1))
        sol, sens = rk4_solve_with_sensitivities(
            rhs, zero, zero, np.array([1.0]), np.array([0.0, 1.0]),
            np.array([0.3]), s0=np.ones((1, 1)),
        )
        assert np.allclose(sens[:, 0, 0], 1.0)

    def test_ode_solution_op_gradient(self):
        def rhs(t, y, theta):
            return np.array([-theta[0] * y[0] + theta[1]])

        def jac_y(t, y, theta):
            return np.array([[-theta[0]]])

        def jac_theta(t, y, theta):
            return np.array([[-y[0], 1.0]])

        t = np.linspace(0.0, 2.0, 6)

        def f(v):
            sol = ode_solution_op(rhs, jac_y, jac_theta, np.array([1.0]), t,
                                  ops.exp(v))
            return ops.sum(sol)

        assert check_grad(f, np.array([-0.3, 0.2]), rtol=1e-3, atol=1e-5)


class TestFribergKarlsson:
    @pytest.fixture
    def system(self):
        return FribergKarlsson()

    @pytest.fixture
    def theta(self):
        return np.array([10.0, 35.0, 90.0, 5.0, 0.17, 0.3])

    def test_steady_state_without_drug(self, system, theta):
        y0 = system.initial_state(0.0, theta[3])
        out = rk4_solve(system.rhs, y0, np.linspace(0, 50, 11), theta)
        # No drug: the cell cascade stays at the CIRC0 baseline.
        assert np.allclose(out[:, 1:], theta[3], rtol=1e-6)

    def test_drug_suppresses_neutrophils(self, system, theta):
        y0 = system.initial_state(80.0, theta[3])
        t = np.linspace(0, 160, 33)
        out = rk4_solve(system.rhs, y0, t, theta)
        assert out[:, 5].min() < theta[3] * 0.95  # nadir below baseline
        assert out[0, 0] == 80.0
        assert out[-1, 0] < 1.0  # drug cleared

    def test_jacobians_match_finite_differences(self, system, theta):
        y = np.array([40.0, 4.0, 4.5, 5.0, 5.2, 4.8])
        eps = 1e-6
        jac_y = system.jac_y(0.0, y, theta)
        jac_t = system.jac_theta(0.0, y, theta)
        for j in range(6):
            dy = np.zeros(6)
            dy[j] = eps
            num = (system.rhs(0, y + dy, theta) - system.rhs(0, y - dy, theta)) / (2 * eps)
            assert np.allclose(jac_y[:, j], num, rtol=1e-4, atol=1e-7), f"state {j}"
            dth = np.zeros(6)
            dth[j] = eps
            num = (system.rhs(0, y, theta + dth) - system.rhs(0, y, theta - dth)) / (2 * eps)
            assert np.allclose(jac_t[:, j], num, rtol=1e-4, atol=1e-7), f"theta {j}"

    def test_combined_matches_separate(self, system, theta):
        y = np.array([40.0, 4.0, 4.5, 5.0, 5.2, 4.8])
        dy, j_y, j_t = system.rhs_and_jacobians(0.0, y, theta)
        assert np.allclose(dy, system.rhs(0.0, y, theta))
        assert np.allclose(j_y, system.jac_y(0.0, y, theta))
        assert np.allclose(j_t, system.jac_theta(0.0, y, theta))


class TestGP:
    def test_squared_distance_matrix(self):
        x = np.array([0.0, 1.0, 3.0])
        sq = squared_distance_matrix(x)
        assert sq[0, 1] == 1.0
        assert sq[0, 2] == 9.0
        assert np.allclose(sq, sq.T)
        assert np.allclose(np.diag(sq), 0.0)

    def test_kernel_np_spd(self):
        x = np.linspace(0, 5, 12)
        k = rbf_kernel_np(x, 1.0, 1.5, 0.1)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > 0

    def test_kernel_var_matches_np(self):
        x = np.linspace(0, 3, 8)
        sq = squared_distance_matrix(x)
        k_var = rbf_kernel(sq, var(np.array([0.9])), var(np.array([1.3])),
                           var(np.array([0.2])))
        k_np = rbf_kernel_np(x, 0.9, 1.3, 0.2)
        assert np.allclose(k_var.value, k_np, atol=1e-7)

    def test_marginal_loglik_matches_scipy(self):
        from scipy import stats
        x = np.linspace(0, 3, 7)
        y = np.sin(x)
        sq = squared_distance_matrix(x)
        ll = multi_normal_prec_quad_lpdf(y, rbf_kernel(
            sq, var(np.array([0.8])), var(np.array([1.1])),
            var(np.array([0.3]))))
        cov = rbf_kernel_np(x, 0.8, 1.1, 0.3) + 1e-8 * np.eye(7)
        expected = stats.multivariate_normal.logpdf(y, np.zeros(7), cov)
        assert np.isclose(float(ll.value), expected, atol=1e-6)

    def test_marginal_loglik_gradient(self):
        x = np.linspace(0, 3, 6)
        y = np.sin(x)
        sq = squared_distance_matrix(x)

        def f(v):
            return multi_normal_prec_quad_lpdf(y, rbf_kernel(
                sq, ops.exp(v[0:1]), ops.exp(v[1:2]), ops.exp(v[2:3])))

        assert check_grad(f, np.array([-0.2, 0.1, -1.0]), rtol=1e-3, atol=1e-5)


class TestSplines:
    def test_m_splines_nonnegative_and_local(self):
        x = np.linspace(0, 1, 200)
        basis = m_spline_basis(x, np.array([0.3, 0.6]), degree=3)
        assert basis.shape == (200, 6)
        assert np.all(basis >= 0)

    def test_m_splines_integrate_to_one(self):
        x = np.linspace(0, 1, 4001)
        basis = m_spline_basis(x, np.array([0.25, 0.5, 0.75]), degree=3)
        integrals = np.trapezoid(basis, x, axis=0)
        assert np.allclose(integrals, 1.0, atol=5e-3)

    def test_i_splines_monotone_zero_to_one(self):
        x = np.linspace(0, 1, 150)
        basis = i_spline_basis(x, np.array([0.4, 0.7]), degree=3)
        assert np.all(np.diff(basis, axis=0) >= -1e-9)
        assert np.allclose(basis[0], 0.0, atol=1e-6)
        assert np.allclose(basis[-1], 1.0, atol=2e-2)

    def test_nonneg_combination_is_monotone(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 100)
        basis = i_spline_basis(x, np.array([0.5]), degree=3)
        for _ in range(5):
            w = rng.uniform(0, 2, size=basis.shape[1])
            curve = basis @ w
            assert np.all(np.diff(curve) >= -1e-9)

    def test_rejects_x_outside_domain(self):
        with pytest.raises(ValueError, match="domain"):
            m_spline_basis(np.array([1.5]), np.array([0.5]))

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError, match="strictly inside"):
            m_spline_basis(np.array([0.5]), np.array([0.0]))

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=20, deadline=None)
    def test_partition_property(self, point):
        # M-splines of degree d are a basis: at any interior point at most
        # d+1 are nonzero, and the I-spline columns stay within [0, 1].
        basis = i_spline_basis(np.array([point]), np.array([0.3, 0.7]))
        assert np.all(basis >= 0.0)
        assert np.all(basis <= 1.0)
