import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy.special import sph_legendre_p

from pcfield import harmonics
from pcfield.harmonics import (
    GridResolutionError,
    HarmonicIndex,
    SphereGrid,
    decompose_field,
    design_matrix,
    evaluate_harmonic,
    flat_index,
    gauss_legendre_grid,
    harmonic_count,
    n_harmonics,
    synthesize_field,
)


def brute_force_harmonic_dimension(m):
    """Dimension of degree-m homogeneous harmonic polynomials in R^3.

    Counts the null space of the Laplacian acting on the monomial basis;
    completely independent of the closed-form count.
    """
    monos = [e for e in combinations_with_replacement(range(3), m)]
    basis = []
    for combo in combinations_with_replacement(range(3), m):
        exps = [combo.count(i) for i in range(3)]
        basis.append(tuple(exps))
    basis = sorted(set(basis))
    if m < 2:
        return len(basis)
    target = sorted(set(
        tuple(e) for e in
        (tuple(c.count(i) for i in range(3))
         for c in combinations_with_replacement(range(3), m - 2))
    ))
    index = {mono: i for i, mono in enumerate(target)}
    lap = np.zeros((len(target), len(basis)))
    for j, (a, b, c) in enumerate(basis):
        for axis, e in enumerate((a, b, c)):
            if e >= 2:
                reduced = [a, b, c]
                reduced[axis] -= 2
                lap[index[tuple(reduced)], j] += e * (e - 1)
    rank = np.linalg.matrix_rank(lap)
    return len(basis) - rank


class TestHarmonicCount:
    def test_degree_zero_any_dimension(self):
        assert harmonic_count(0, 5) == 1

    def test_three_dimensions_closed_form(self):
        assert harmonic_count(3, 3) == 7
        for m in range(12):
            assert harmonic_count(m, 3) == 2 * m + 1

    def test_four_dimensions_hand_value(self):
        assert harmonic_count(2, 4) == 9

    @pytest.mark.parametrize("m", range(6))
    def test_matches_laplacian_nullity(self, m):
        assert harmonic_count(m, 3) == brute_force_harmonic_dimension(m)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            harmonic_count(2, 2)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            harmonic_count(-1, 3)


class TestHarmonicIndex:
    def test_order_range_enforced(self):
        HarmonicIndex(2, 5, 3)
        with pytest.raises(ValueError):
            HarmonicIndex(2, 6, 3)
        with pytest.raises(ValueError):
            HarmonicIndex(2, 0, 3)

    def test_dimension_below_three_rejected(self):
        with pytest.raises(ValueError):
            HarmonicIndex(1, 1, 2)


class TestEvaluation:
    def test_constant_harmonic(self):
        val = evaluate_harmonic(HarmonicIndex(0, 1), 0.3, 1.2)
        assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-14)

    def test_degree_one_zonal_at_pole(self):
        val = evaluate_harmonic(HarmonicIndex(1, 1), 0.0, 0.0)
        assert val == pytest.approx(math.sqrt(3 / (4 * math.pi)), rel=1e-13)

    def test_dimension_other_than_three_rejected(self):
        with pytest.raises(ValueError):
            evaluate_harmonic(HarmonicIndex(1, 1, n=4), 0.0, 0.0)

    def test_grid_orthonormality(self):
        m_max = 6
        grid = gauss_legendre_grid(m_max)
        design = design_matrix(m_max, grid)
        gram = design.T @ (grid.weights[:, None] * design)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8

    @pytest.mark.parametrize("m_max", [0, 1, 4, 8, 16])
    def test_design_matrix_is_the_per_index_evaluation(self, m_max):
        grid = gauss_legendre_grid(m_max)
        columns = [evaluate_harmonic(HarmonicIndex(m, l), grid.theta, grid.phi)
                   for m in range(m_max + 1) for l in range(1, 2 * m + 2)]
        assert np.array_equal(design_matrix(m_max, grid), np.column_stack(columns))

    def test_design_matrix_evaluates_legendre_per_colatitude(self, monkeypatch):
        grid = gauss_legendre_grid(6)
        sizes = []

        def recorded(m, order, theta):
            sizes.append(np.size(theta))
            return sph_legendre_p(m, order, theta)

        monkeypatch.setattr(harmonics, "sph_legendre_p", recorded)
        design_matrix(6, grid)
        assert sizes == [grid.n_theta] and grid.n_theta < grid.n_nodes

    def test_degree_two_closed_forms(self):
        # the textbook real harmonics of degree <= 2 in Cartesian form
        rng = np.random.default_rng(5)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 50))
        phi = rng.uniform(0.0, 2 * math.pi, 50)
        x, y, z = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        c1, c2 = math.sqrt(3 / (4 * math.pi)), math.sqrt(15 / (4 * math.pi))
        expected = {
            (0, 1): np.full_like(x, 0.5 / math.sqrt(math.pi)),
            (1, 1): c1 * z, (1, 2): c1 * x, (1, 3): c1 * y,
            (2, 1): math.sqrt(5 / (16 * math.pi)) * (3 * z ** 2 - 1),
            (2, 2): c2 * x * z, (2, 3): c2 * y * z,
            (2, 4): 0.5 * c2 * (x ** 2 - y ** 2), (2, 5): c2 * x * y,
        }
        for (m, l), reference in expected.items():
            values = evaluate_harmonic(HarmonicIndex(m, l), theta, phi)
            assert np.max(np.abs(values - reference)) <= 1e-14, (m, l)

    @pytest.mark.parametrize("m", [86, 150, 300])
    def test_addition_theorem_at_high_degree(self, m):
        # sum_l Y_{m,l}(x)^2 = (2m + 1) / (4 pi) at every point x
        rng = np.random.default_rng(m)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 4))
        phi = rng.uniform(0.0, 2 * math.pi, 4)
        total = sum(evaluate_harmonic(HarmonicIndex(m, l), theta, phi) ** 2
                    for l in range(1, 2 * m + 2))
        exact = (2 * m + 1) / (4 * math.pi)
        assert np.max(np.abs(total - exact)) <= 1e-12 * exact

    def test_degree_where_values_are_not_finite_refused(self):
        theta = np.array([0.3, 1.2, 2.5])
        with pytest.raises(ValueError, match="degree 700"):
            evaluate_harmonic(HarmonicIndex(700, 1), theta, np.zeros(3))

    def test_gram_matrix_at_degree_twenty(self):
        grid = gauss_legendre_grid(20)
        design = design_matrix(20, grid)
        gram = design.T @ (grid.weights[:, None] * design)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12

    def test_specific_cross_orthogonality(self):
        grid = gauss_legendre_grid(4)
        s11 = evaluate_harmonic(HarmonicIndex(1, 1), grid.theta, grid.phi)
        s21 = evaluate_harmonic(HarmonicIndex(2, 1), grid.theta, grid.phi)
        assert abs(np.sum(grid.weights * s11 * s21)) < 1e-10


class TestFlatIndex:
    @pytest.mark.parametrize("m, l", [(1, 4), (0, 0), (2, 6), (-1, 1)])
    def test_key_outside_its_degree_refused(self, m, l):
        with pytest.raises(ValueError, match=rf"\({m}, {l}\)"):
            flat_index(m, l)


class TestSphereGrid:
    def test_weights_sum_to_sphere_area(self):
        grid = gauss_legendre_grid(5)
        assert grid.area == pytest.approx(4 * math.pi, rel=1e-10)

    def test_nodes_outside_the_product_layout_refused(self):
        grid = gauss_legendre_grid(3)
        perm = np.random.default_rng(2).permutation(grid.n_nodes)
        with pytest.raises(ValueError, match="theta-major product"):
            SphereGrid(grid.theta[perm], grid.phi[perm], grid.weights[perm],
                       n_theta=grid.n_theta, n_phi=grid.n_phi)
        with pytest.raises(ValueError, match="theta-major product"):
            SphereGrid(grid.theta, grid.phi, grid.weights,
                       n_theta=grid.n_phi, n_phi=grid.n_theta)
        same = SphereGrid(grid.theta, grid.phi, grid.weights,
                          n_theta=grid.n_theta, n_phi=grid.n_phi)
        assert np.array_equal(design_matrix(3, same), design_matrix(3, grid))


class TestDecomposition:
    def test_constant_field(self):
        grid = gauss_legendre_grid(3)
        c = 2.5
        coeffs = decompose_field(np.full(grid.n_nodes, c), 3, grid)
        assert coeffs[flat_index(0, 1)] == pytest.approx(c * math.sqrt(4 * math.pi),
                                                         rel=1e-12)
        others = np.delete(coeffs, flat_index(0, 1))
        assert np.max(np.abs(others)) < 1e-10

    def test_pure_harmonic(self):
        grid = gauss_legendre_grid(4)
        field = evaluate_harmonic(HarmonicIndex(2, 1), grid.theta, grid.phi)
        coeffs = decompose_field(field, 4, grid)
        expect = np.zeros(n_harmonics(4))
        expect[flat_index(2, 1)] = 1.0
        assert np.max(np.abs(coeffs - expect)) < 1e-10

    def test_roundtrip_random_band_limited(self):
        m_max = 5
        grid = gauss_legendre_grid(m_max)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=n_harmonics(m_max))
        field = synthesize_field(coeffs, m_max, grid)
        back = decompose_field(field, m_max, grid)
        assert np.max(np.abs(back - coeffs)) < 1e-8

    def test_batched_transforms_match_per_sample_calls(self):
        m_max = 4
        grid = gauss_legendre_grid(m_max)
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(2, 3, n_harmonics(m_max)))
        fields = synthesize_field(coeffs, m_max, grid)
        assert fields.shape == (2, 3, grid.n_nodes)
        one_by_one = np.array([[synthesize_field(c, m_max, grid) for c in row]
                               for row in coeffs])
        assert np.max(np.abs(fields - one_by_one)) <= 1e-14 * np.max(np.abs(one_by_one))
        back = decompose_field(fields, m_max, grid)
        assert back.shape == coeffs.shape
        one_by_one = np.array([[decompose_field(f, m_max, grid) for f in row]
                               for row in fields])
        assert np.max(np.abs(back - one_by_one)) <= 1e-14 * np.max(np.abs(one_by_one))
        assert np.max(np.abs(back - coeffs)) < 1e-10

    def test_under_resolved_grid_reports_requirement(self):
        grid = gauss_legendre_grid(2)
        with pytest.raises(GridResolutionError, match="n_theta >= 6"):
            decompose_field(np.zeros(grid.n_nodes), 5, grid)

    def test_shape_mismatch(self):
        grid = gauss_legendre_grid(2)
        with pytest.raises(ValueError):
            decompose_field(np.zeros(grid.n_nodes + 1), 2, grid)
        with pytest.raises(ValueError):
            decompose_field(np.zeros((4, grid.n_nodes + 1)), 2, grid)
        with pytest.raises(ValueError):
            synthesize_field(np.zeros(3), 2, grid)
        with pytest.raises(ValueError):
            synthesize_field(np.zeros((4, 3)), 2, grid)
