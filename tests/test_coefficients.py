"""Factorials, F-nomials, multi F-nomials, and their identities."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cobweb import (
    Fp,
    Gaussian,
    Natural,
    NonIntegralCoefficient,
    CustomTable,
    Powers,
    TLambdaAB,
    build_layer,
    check_fnomial_recurrence,
    check_identities,
    check_multi_recurrence,
    f_factorial,
    falling_f_factorial,
    fnomial,
    lambda_split,
    multi_fnomial,
    term,
)
from conftest import TABLE_A, TABLE_B, TABLE_C, TABLE_E, TABLE_F, compositions_of, lambda_families

# the lambda roster and the example tables the suite builds
PRODUCT_FAMILIES = lambda_families() + [
    Powers(1), TABLE_A, TABLE_B, TABLE_C, TABLE_E, TABLE_F,
    CustomTable((1, 2, 2, 1, 4, 3)), CustomTable((1, 2, 4, 5, 7)),
]


class TestFactorials:
    def test_empty_product(self):
        assert f_factorial(Natural(), 0) == 1
        assert f_factorial(Gaussian(2), 0) == 1

    def test_natural_factorial(self):
        assert f_factorial(Natural(), 4) == 24

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 10_000))
    @example(n=10_000)
    def test_natural_factorial_matches_math(self, n):
        # iterative, so large n does not hit the recursion limit
        assert f_factorial(Natural(), n) == math.factorial(n)

    def test_fibonacci_factorial(self):
        assert f_factorial(Fp(1), 5) == 1 * 1 * 2 * 3 * 5

    def test_falling(self):
        assert falling_f_factorial(Natural(), 4, 2) == 12
        assert falling_f_factorial(Fp(1), 7, 3) == 13 * 8 * 5
        assert falling_f_factorial(Gaussian(2), 9, 0) == 1

    def test_falling_rejects_n_below_m(self):
        with pytest.raises(ValueError):
            falling_f_factorial(Natural(), 2, 3)

    @pytest.mark.parametrize("F", PRODUCT_FAMILIES, ids=lambda F: F.spec_string())
    def test_balanced_product_equals_left_to_right(self, F):
        # every n <= 60 (a table's length at most) and every m <= n,
        # n = 0 and m = 0 included
        top = min(60, len(F.terms)) if isinstance(F, CustomTable) else 60
        whole = 1
        for n in range(top + 1):
            if n:
                whole *= term(F, n)
            assert f_factorial(F, n) == whole
            falling = 1
            for m in range(n + 1):
                assert falling_f_factorial(F, n, m) == falling, (n, m)
                if m < n:
                    falling *= term(F, n - m)

    def test_volume_of_a_deep_layer(self):
        assert build_layer(Natural(), 1, 100_000).volume() == math.factorial(100_000)


class TestFnomial:
    def test_binomial(self):
        assert fnomial(Natural(), 4, 2) == 6

    def test_fibonomial(self):
        assert fnomial(Fp(1), 5, 2) == 15

    def test_zero_when_n_below_m(self):
        assert fnomial(Natural(), 2, 5) == 0

    def test_boundaries(self):
        for F in lambda_families():
            for n in range(0, 10):
                assert fnomial(F, n, 0) == 1
                assert fnomial(F, n, n) == 1

    def test_non_integral_is_reported_not_truncated(self):
        bad = CustomTable((1, 2, 4, 5, 7))
        with pytest.raises(NonIntegralCoefficient) as err:
            fnomial(bad, 5, 2)
        assert err.value.n == 5

    def test_integrality_sweep(self):
        for F in lambda_families():
            for n in range(0, 17):
                for m in range(0, n + 1):
                    fnomial(F, n, m)  # would raise on a remainder


class TestMultiFnomial:
    def test_example_two_two(self):
        assert multi_fnomial(Natural(), (2, 2)) == 6

    def test_single_part_is_one(self):
        for F in lambda_families():
            for n in range(1, 8):
                assert multi_fnomial(F, (n,)) == 1

    def test_fibonacci_quotient(self):
        assert multi_fnomial(Fp(1), (2, 2, 1)) == 30

    def test_parts_must_be_positive(self):
        with pytest.raises(ValueError):
            multi_fnomial(Natural(), (2, 0, 2))

    def test_integrality_sweep(self):
        for F in lambda_families():
            for n in range(1, 13):
                for parts in compositions_of(n, max_parts=4):
                    multi_fnomial(F, parts)


class TestRecurrences:
    def test_pascal(self):
        assert check_fnomial_recurrence(Natural(), 5, 2)

    def test_gaussian_coefficients(self):
        F = Gaussian(2)
        assert check_fnomial_recurrence(F, 5, 2)
        lam = lambda_split(F, 2, 3)
        assert tuple(lam) == (1, 4)

    def test_fibonomial_recurrence_closed_coefficients(self):
        # explicit two-term recurrence with lambda_K = (m-1)_F, lambda_M = (k+1)_F
        F = Fp(1)
        assert check_fnomial_recurrence(F, 6, 3)
        for n in range(2, 17):
            for k in range(1, n):
                m = n - k
                lam_k = term(F, m - 1) if m >= 2 else 0  # 0_F = 0 convention
                lam_m = term(F, k + 1)
                assert fnomial(F, n, k) == (
                    lam_k * fnomial(F, n - 1, k - 1) + lam_m * fnomial(F, n - 1, k)
                )

    def test_recurrence_sweep(self):
        for F in lambda_families():
            for n in range(2, 17):
                for k in range(1, n):
                    assert check_fnomial_recurrence(F, n, k), (F.spec_string(), n, k)

    def test_multi_recurrence_examples(self):
        assert check_multi_recurrence(Natural(), (1, 1))
        assert check_multi_recurrence(Natural(), (2, 2))
        assert check_multi_recurrence(TLambdaAB(1, 2), (2, 1))

    def test_multi_recurrence_sweep(self):
        for F in lambda_families():
            for n in range(1, 11):
                for parts in compositions_of(n, max_parts=4):
                    assert check_multi_recurrence(F, parts)


class TestIdentities:
    def test_symmetry(self):
        assert fnomial(Natural(), 5, 2) == fnomial(Natural(), 5, 3) == 10
        assert check_identities(Natural(), 5, 2)

    def test_part_permutation(self):
        assert multi_fnomial(Fp(1), (2, 2, 1)) == multi_fnomial(Fp(1), (1, 2, 2)) == 30

    def test_product_identity_instance(self):
        assert fnomial(Natural(), 4, 2) * multi_fnomial(Natural(), (2,)) == \
            multi_fnomial(Natural(), (2, 2)) == 6
        assert check_identities(Natural(), 4, 2, rest=(2,))

    def test_identity_sweep(self):
        for F in lambda_families():
            for n in range(2, 13):
                for b in range(1, n):
                    assert check_identities(F, n, b)
                for parts in compositions_of(n, max_parts=4):
                    if len(parts) >= 2:
                        b, rest = parts[0], parts[1:]
                        assert check_identities(F, n, b, rest=rest)

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(2, 14), b=st.integers(1, 13))
    def test_symmetry_property(self, n, b):
        if b >= n:
            b = n - 1
        for F in (Natural(), Fp(1), Gaussian(2)):
            assert fnomial(F, n, b) == fnomial(F, n, n - b)
