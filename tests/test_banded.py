from fractions import Fraction

import numpy as np
import pytest
from oracles import identity, to_dense

from urnchain.banded import (
    BandedMatrix,
    birth_factor,
    death_factor,
    multiply,
    reconstructed_matrix,
    verify_factorization,
    verify_lu,
)
from urnchain.coefficients import (
    IntegerParameters,
    LUCoefficients,
    Parameters,
    lu_coefficients,
    lu_coefficients_integer,
    reconstruct_row,
)

F = Fraction
IP = IntegerParameters(2, 3, 1)


def random_banded(gen: np.random.Generator, size: int, lower: int, upper: int) -> BandedMatrix:
    entries = {
        (i, j): F(int(gen.integers(-9, 10)), int(gen.integers(1, 10)))
        for i in range(size)
        for j in range(max(0, i - lower), min(size, i + upper + 1))
    }
    return BandedMatrix.build(size, lower, upper, lambda i, j: entries[(i, j)])


class TestBandedMatrix:
    def test_entry_and_band_zeros(self):
        m = random_banded(np.random.default_rng(0), 5, 1, 1)
        assert m.entry(0, 3) == 0
        assert m.entry(4, 1) == 0
        with pytest.raises(IndexError):
            m.entry(5, 0)

    def test_interior_flag(self):
        m = random_banded(np.random.default_rng(1), 4, 0, 1)
        assert [m.is_interior(i) for i in range(4)] == [True, True, True, False]

    def test_scalar_kind(self):
        assert identity(3).scalar_kind() == "int"
        assert random_banded(np.random.default_rng(2), 3, 1, 0).scalar_kind() == "exact"
        f = BandedMatrix.build(3, 0, 0, lambda i, j: 0.5)
        assert f.scalar_kind() == "float"

    def test_kind_mismatch_rejected(self):
        exact = random_banded(np.random.default_rng(3), 3, 1, 0)
        floats = BandedMatrix.build(3, 0, 0, lambda i, j: 0.5)
        with pytest.raises(ValueError, match="kind"):
            multiply(exact, floats)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            multiply(identity(3), identity(4))


class TestMultiply:
    def test_identity_is_neutral(self):
        m = random_banded(np.random.default_rng(4), 6, 2, 1)
        assert to_dense(multiply(identity(6), m)) == to_dense(m)
        assert to_dense(multiply(m, identity(6))) == to_dense(m)

    def test_bandwidths_add(self):
        a = random_banded(np.random.default_rng(5), 6, 1, 0)
        b = random_banded(np.random.default_rng(6), 6, 0, 2)
        product = multiply(a, b)
        assert (product.lower_bandwidth, product.upper_bandwidth) == (1, 2)

    def test_matches_dense_product(self):
        gen = np.random.default_rng(7)
        a = random_banded(gen, 7, 2, 1)
        b = random_banded(gen, 7, 1, 1)
        dense = [
            [sum(a.entry(i, k) * b.entry(k, j) for k in range(7)) for j in range(7)]
            for i in range(7)
        ]
        assert to_dense(multiply(a, b)) == dense

    def test_associative_on_random_triples(self):
        gen = np.random.default_rng(8)
        for _ in range(3):
            a = random_banded(gen, 6, 1, 1)
            b = random_banded(gen, 6, 2, 0)
            c = random_banded(gen, 6, 0, 1)
            left = multiply(multiply(a, b), c)
            right = multiply(a, multiply(b, c))
            assert to_dense(left) == to_dense(right)


class TestFactors:
    def test_death_factor_smallest_truncation(self):
        c = lu_coefficients_integer(IP, 0)
        assert to_dense(death_factor(c, 1)) == [[1]]

    def test_death_factor_row_two(self):
        c = lu_coefficients_integer(IP, 2)
        m = death_factor(c, 3)
        assert m.row_entries(2) == [(0, F(14, 297)), (1, F(1369, 4752)), (2, F(117, 176))]
        assert (m.lower_bandwidth, m.upper_bandwidth) == (2, 0)

    def test_death_factor_rows_sum_to_one(self):
        c = lu_coefficients_integer(IntegerParameters(5, 3, 2), 49)
        m = death_factor(c, 50)
        assert all(m.row_sum(i) == 1 for i in range(50))

    def test_birth_factor_rows(self):
        c = lu_coefficients_integer(IP, 2)
        m = birth_factor(c, 3)
        assert m.row_entries(0) == [(0, F(3, 7)), (1, F(4, 7))]
        assert all(m.row_sum(i) == 1 for i in range(2))
        assert not m.is_interior(2)

    def test_birth_factor_smallest_grid_point(self):
        c = lu_coefficients_integer(IntegerParameters(1, 1, 0), 1)
        m = birth_factor(c, 2)
        assert m.row_entries(0) == [(0, F(2, 3)), (1, F(1, 3))]

    def test_insufficient_coefficients(self):
        c = lu_coefficients_integer(IP, 3)
        with pytest.raises(ValueError, match="insufficient"):
            death_factor(c, 5)

    def test_product_row_two_down_two_entry(self):
        c = lu_coefficients_integer(IP, 4)
        product = multiply(death_factor(c, 5), birth_factor(c, 5))
        assert product.entry(2, 0) == F(2, 99)

    def test_product_interior_rows_sum_to_one(self):
        c = lu_coefficients_integer(IP, 49)
        product = multiply(death_factor(c, 50), birth_factor(c, 50))
        assert all(product.row_sum(i) == 1 for i in range(49))

    def test_reconstructed_matrix_matches_rows(self):
        c = lu_coefficients_integer(IP, 9)
        m = reconstructed_matrix(c, 10)
        for n in range(10):
            probs = reconstruct_row(c, n).probabilities()
            for j, value in m.row_entries(n):
                assert value == probs.get(j, 0)


class TestVerify:
    def test_exact_run_passes_with_zero_deviation(self):
        report = verify_lu(IP, 100)
        assert report.passed and report.kind == "exact" and report.tolerance == 0
        assert max(check.deviation for check in report.checks) == 0

    def test_float_run_passes_within_tolerance(self):
        report = verify_lu(Parameters(0.9, 0.1, 0.5), 100)
        assert report.passed and report.kind == "float" and report.tolerance == 1e-12

    def test_smallest_grid_point(self):
        assert verify_lu(IntegerParameters(1, 1, 0), 10).passed

    def test_report_dict_shape(self):
        payload = verify_lu(IP, 20).to_dict()
        assert payload["passed"] is True
        assert {check["name"] for check in payload["checks"]} >= {
            "lu_identity",
            "band_structure",
            "product_row_sums",
        }

    def test_nan_coefficient_fails_every_check_that_reads_it(self):
        c = lu_coefficients(Parameters(0.5, 0.3, 1.0), 19)
        x = list(c.x)
        x[5] = float("nan")
        report = verify_factorization(LUCoefficients(tuple(x), c.y, c.t, c.r, c.s), 20)
        failed = {check.name for check in report.checks if not check.passed}
        assert failed == {
            "coefficient_row_sums", "coefficient_bounds", "factor_row_sums",
            "lu_identity", "product_row_sums",
        }
        assert not report.passed

    def test_nan_tolerance_fails_everything(self):
        report = verify_factorization(lu_coefficients_integer(IP, 19), 20, tolerance=float("nan"))
        assert not any(check.passed for check in report.checks if check.name != "band_structure")

    def test_negative_tolerance_fails_everything(self):
        report = verify_factorization(lu_coefficients_integer(IP, 19), 20, tolerance=-1.0)
        assert not report.passed
