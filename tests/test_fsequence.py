"""Sequence families, splitting coefficients, and admissibility reports."""

import re
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import (
    CapExceeded,
    CustomTable,
    CustomTLambda,
    FamilySpecError,
    Fp,
    Gaussian,
    LambdaRuleError,
    ModifiedGaussian,
    Natural,
    Powers,
    TableRangeError,
    TLambdaAB,
    is_cobweb_admissible,
    lambda_composition,
    lambda_composition_reversed,
    lambda_split,
    parse_family_spec,
    term,
    term_via_ones,
)
from conftest import TABLE_A, TABLE_B, TABLE_C, TABLE_E, TABLE_F, compositions_of, lambda_families


class TestTerm:
    def test_natural_identity(self):
        assert term(Natural(), 5) == 5

    def test_fp2_published_prefix(self):
        # F(2) runs 0, 1, 2, 5, 12, 29, 70, 169, ... from index 0
        got = [term(Fp(2), n) for n in range(1, 12)]
        assert got == [1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741]

    def test_fp3_fp4_published_prefixes(self):
        assert [term(Fp(3), n) for n in range(1, 8)] == [1, 3, 10, 33, 109, 360, 1189]
        assert [term(Fp(4), n) for n in range(1, 8)] == [1, 4, 17, 72, 305, 1292, 5473]

    def test_modified_gaussian_prefix(self):
        got = [term(ModifiedGaussian(2), n) for n in range(1, 9)]
        assert got == [1, 4, 12, 32, 80, 192, 448, 1024]

    def test_gaussian_closed_form(self):
        # oracle: (a^n - b^n)/(a - b) with a=1, b=2 gives 7 at n=3
        assert term(Gaussian(2), 3) == 7
        assert [term(Gaussian(2), n) for n in range(1, 6)] == [1, 3, 7, 15, 31]

    def test_powers(self):
        assert [term(Powers(2), n) for n in range(1, 6)] == [2, 4, 8, 16, 32]

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            term(Natural(), 0)

    def test_custom_table_range(self):
        table = CustomTable((1, 2, 5))
        assert term(table, 3) == 5
        with pytest.raises(TableRangeError):
            term(table, 4)

    def test_degenerate_tlab_rejected(self):
        with pytest.raises(FamilySpecError):
            TLambdaAB(0, 0)


class TestLambdaSplit:
    def test_natural_pair(self):
        assert tuple(lambda_split(Natural(), 3, 4)) == (1, 1)

    def test_fibonacci_pair(self):
        lam = lambda_split(Fp(1), 2, 3)
        assert tuple(lam) == (1, 2)
        assert lam.lambda_k * term(Fp(1), 2) + lam.lambda_m * term(Fp(1), 3) == term(Fp(1), 5) == 5

    def test_gaussian_pair(self):
        for k in range(1, 6):
            for m in range(1, 6):
                assert tuple(lambda_split(Gaussian(2), k, m)) == (1, 2**k)

    def test_powers_pair_skips_m_branch(self):
        lam = lambda_split(Powers(2), 3, 4)
        assert lam.lambda_m == 0
        assert lam.lambda_k == 2**4

    def test_split_identity_sweep(self):
        for F in lambda_families():
            for k in range(1, 13):
                for m in range(1, 13):
                    lam = lambda_split(F, k, m)
                    assert lam.lambda_k * term(F, k) + lam.lambda_m * term(F, m) == term(F, k + m)

    def test_table_has_no_rule(self):
        with pytest.raises(LambdaRuleError):
            lambda_split(TABLE_C, 1, 2)

    @settings(deadline=None, max_examples=60)
    @given(k=st.integers(1, 12), m=st.integers(1, 12),
           p=st.integers(1, 4))
    def test_fp_split_property(self, k, m, p):
        F = Fp(p)
        lam = lambda_split(F, k, m)
        assert lam.lambda_k * term(F, k) + lam.lambda_m * term(F, m) == term(F, k + m)


class TestLambdaComposition:
    def test_all_ones_natural(self):
        assert lambda_composition(Natural(), (1, 1, 1)) == (1, 1, 1)

    def test_tlab_closed_form_example(self):
        # alpha=1, beta=2: coefficients alpha^suffix * beta^prefix
        lams = lambda_composition(TLambdaAB(1, 2), (2, 1))
        assert lams == (1, 4)
        F = TLambdaAB(1, 2)
        assert 1 * term(F, 2) + 4 * term(F, 1) == term(F, 3) == 7

    def test_fibonacci_two_twos(self):
        lams = lambda_composition(Fp(1), (2, 2))
        assert lams == (1, 2)
        assert 1 * term(Fp(1), 2) + 2 * term(Fp(1), 2) == term(Fp(1), 4) == 3

    def test_composition_identity_sweep(self):
        for F in lambda_families():
            for n in range(1, 11):
                for parts in compositions_of(n):
                    lams = lambda_composition(F, parts)
                    total = sum(l * term(F, b) for l, b in zip(lams, parts))
                    assert total == term(F, n)

    def test_forward_and_reversed_agree_on_sum(self):
        for F in lambda_families():
            for n in range(2, 9):
                for parts in compositions_of(n, max_parts=4):
                    fwd = lambda_composition(F, parts)
                    rev = lambda_composition_reversed(F, parts)
                    weigh = lambda lams: sum(l * term(F, b) for l, b in zip(lams, parts))
                    assert weigh(fwd) == weigh(rev) == term(F, n)

    def test_tlab_closed_form_agrees_with_fold(self):
        # the folded coefficients equal alpha^suffix * beta^prefix directly
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                F = TLambdaAB(a, b)
                for n in range(2, 9):
                    for parts in compositions_of(n, max_parts=4):
                        fold = lambda_composition(F, parts)
                        closed = tuple(
                            a ** sum(parts[s + 1:]) * b ** sum(parts[:s])
                            for s in range(len(parts))
                        )
                        assert fold == closed


class TestTermViaOnes:
    def test_examples(self):
        assert term_via_ones(Natural(), 4) == 4
        assert term_via_ones(Gaussian(2), 3) == 7
        assert term_via_ones(Fp(2), 4) == 12

    def test_matches_term_everywhere(self):
        for F in lambda_families():
            for n in range(1, 21):
                assert term_via_ones(F, n) == term(F, n)


class TestClosedForms:
    def test_tlab_closed_form_vs_split_folding(self):
        # closed-form terms agree with folding the split rule up from 1_F
        for a in (0, 1, 2, 3):
            for b in (1, 2, 3):
                F = TLambdaAB(a, b, one=2)
                folded = {1: term(F, 1)}
                for n in range(2, 21):
                    lam = lambda_split(F, 1, n - 1)
                    folded[n] = lam.lambda_k * folded[1] + lam.lambda_m * folded[n - 1]
                    assert folded[n] == term(F, n)

    def test_k_times_n_identity(self):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                F = TLambdaAB(a, b)
                for k in range(1, 7):
                    for n in range(1, 7):
                        rhs = term(F, n) * sum(
                            a ** ((k - s) * n) * b ** ((s - 1) * n)
                            for s in range(1, k + 1)
                        )
                        assert term(F, k * n) == rhs

    def test_fp_explicit_phi_formula(self):
        getcontext().prec = 60
        for p in (1, 2, 3, 4):
            root = Decimal(p * p + 4).sqrt()
            phi1 = (Decimal(p) + root) / 2
            phi2 = (Decimal(p) - root) / 2
            F = Fp(p)
            for n in range(1, 31):
                approx = (phi1**n - phi2**n) / root
                rounded = int(approx.to_integral_value(rounding="ROUND_HALF_EVEN"))
                assert rounded == term(F, n)

    def test_fp_linear_recurrence(self):
        for p in (1, 2, 3, 4):
            F = Fp(p)
            for n in range(3, 31):
                assert term(F, n) == p * term(F, n - 1) + term(F, n - 2)


class TestAdmissibility:
    def test_natural_binomials(self):
        report = is_cobweb_admissible(Natural(), 12)
        assert report.admissible_up_to_bound and report.first_failure is None

    def test_fibonomials(self):
        assert is_cobweb_admissible(Fp(1), 12).admissible_up_to_bound

    def test_custom_table_failure_witness(self):
        report = is_cobweb_admissible(CustomTable((1, 2, 4, 5, 7)), 5)
        assert not report.admissible_up_to_bound
        assert report.first_failure == (5, 2)

    def test_example_table_fixtures(self):
        # bounded verdicts for the printed table prefixes
        assert is_cobweb_admissible(TABLE_A, 7).first_failure == (4, 2)
        for table in (TABLE_B, TABLE_C, TABLE_E, TABLE_F):
            report = is_cobweb_admissible(table, len(table.terms))
            assert report.admissible_up_to_bound, table.spec_string()

    def test_report_is_bounded(self):
        report = is_cobweb_admissible(Natural(), 6)
        assert report.bound == 6

    def test_cap_refuses_up_front(self):
        # n + 1 F-nomials for each n <= n_max: 90 for n_max = 12
        with pytest.raises(CapExceeded, match="n_max 12 checks 90 F-nomials, over the cap 89"):
            is_cobweb_admissible(Natural(), 12, cap=89)
        assert is_cobweb_admissible(Natural(), 12, cap=90).admissible_up_to_bound
        # the default cap refuses at once what would otherwise run for hours
        with pytest.raises(CapExceeded, match="5000150000 F-nomials, over the cap 200000"):
            is_cobweb_admissible(Natural(), 100000)


class TestCustomTLambda:
    def test_valid_rule_accepted(self):
        F = CustomTLambda(
            term_rule=lambda n: n,
            lambda_k_rule=lambda k, m: 1,
            lambda_m_rule=lambda k, m: 1,
            validated_to=10,
            label="natural-again",
        )
        assert term(F, 7) == 7
        assert tuple(lambda_split(F, 3, 4)) == (1, 1)

    def test_invalid_rule_rejected_with_witness(self):
        with pytest.raises(LambdaRuleError) as err:
            CustomTLambda(
                term_rule=lambda n: n,
                lambda_k_rule=lambda k, m: 2,
                lambda_m_rule=lambda k, m: 1,
                validated_to=8,
            )
        assert "(k=1, m=1)" in str(err.value)


class TestFamilySpec:
    @pytest.mark.parametrize("spec", [
        "natural", "powers:q=2", "gaussian:q=3", "modgauss:q=2",
        "tlab:a=1,b=2,one=1", "fp:p=3", "table:[1,2,5]",
    ])
    def test_round_trip(self, spec):
        F = parse_family_spec(spec)
        assert parse_family_spec(F.spec_string()) == F

    def test_bad_specs(self):
        for bad in ("nope", "powers:z=1", "tlab:a=1", "table:[1,x]", "natural:q=2",
                    "fp:p=1,p=2", "tlab:a=1,b=2,a=3", "table:[1,,2]", "table:[]"):
            with pytest.raises(FamilySpecError):
                parse_family_spec(bad)


# Each named family with the point (alpha, beta, 1_F) of TLambdaAB it sits at,
# and the error its spec raises at q = 0.
NAMED_POINTS = [(Natural(), (1, 1, 1), "natural", "unknown parameters ['q'] for natural")] + [
    (cls(q), point(q), f"{name}:q={q}", f"{name} needs q >= 1")
    for cls, name, point in (
        (Powers, "powers", lambda q: (q, 0, q)),
        (Gaussian, "gaussian", lambda q: (1, q, 1)),
        (ModifiedGaussian, "modgauss", lambda q: (q, q, 1)),
    )
    for q in range(1, 5)
]


class TestNamedPoints:
    @pytest.mark.parametrize("F, point, spec, zero_error", NAMED_POINTS,
                             ids=[spec for _, _, spec, _ in NAMED_POINTS])
    def test_named_family_is_its_tlab_point(self, F, point, spec, zero_error):
        G = TLambdaAB(*point)
        assert [term(F, n) for n in range(1, 31)] == [term(G, n) for n in range(1, 31)]
        for k in range(1, 9):
            for m in range(1, 9):
                assert lambda_split(F, k, m) == lambda_split(G, k, m)
        assert F.spec_string() == spec
        assert parse_family_spec(spec) == F
        assert F != G
        name = spec.partition(":")[0]
        with pytest.raises(FamilySpecError, match=f"^{re.escape(zero_error)}$"):
            parse_family_spec(f"{name}:q=0")
        if name != "natural":
            with pytest.raises(FamilySpecError, match=f"^{re.escape(zero_error)}$"):
                type(F)(0)


class TestFamilyRecords:
    """Families are immutable values, equal only within one class."""

    def test_equal_instances_share_a_hash(self):
        assert Natural() == Natural() and hash(Natural()) == hash(Natural())
        assert Fp(2) == Fp(2) and hash(Fp(2)) == hash(Fp(2)) and Fp(2) != Fp(3)

    def test_a_named_point_keeps_its_own_cache_entry(self):
        assert Natural() != TLambdaAB(1, 1, 1)
        assert Powers(2) != TLambdaAB(2, 0, 2)
        term.cache_clear()
        for F in (Natural(), TLambdaAB(1, 1, 1), Powers(2), TLambdaAB(2, 0, 2)):
            term(F, 3)
        term(Natural(), 3)
        info = term.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 4, 4)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for record, name in (
            (Natural(), "alpha"), (Powers(2), "beta"), (Gaussian(2), "one"),
            (ModifiedGaussian(2), "alpha"), (TLambdaAB(1, 2), "beta"), (Fp(), "p"),
            (CustomTable((1, 2)), "terms"), (is_cobweb_admissible(Natural(), 3), "bound"),
            (CustomTLambda(lambda n: n, lambda k, m: 1, lambda k, m: 1), "label"),
        ):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_constructor_defaults(self):
        assert (TLambdaAB(2, 3).one, Fp().p) == (1, 1)
        F = CustomTLambda(lambda n: n, lambda k, m: 1, lambda k, m: 1)
        assert (F.validated_to, F.label) == (12, "custom")
        report = is_cobweb_admissible(Natural(), 4)
        assert (report.admissible_up_to_bound, report.first_failure, report.bound) == (
            True, None, 4)

    def test_construction_checks_keep_their_messages(self):
        for make, error, message in (
            (lambda: TLambdaAB(0, 0), FamilySpecError, "tlab with alpha = beta = 0 has zero terms"),
            (lambda: TLambdaAB(-1, 1), FamilySpecError, "tlab needs alpha, beta >= 0"),
            (lambda: TLambdaAB(1, 1, 0), FamilySpecError, "tlab needs 1_F >= 1"),
            (lambda: Fp(0), FamilySpecError, "fp needs p >= 1"),
            (lambda: CustomTable((1, 0, 2)), FamilySpecError, "table needs positive entries"),
            (lambda: CustomTLambda(lambda n: n, lambda k, m: 2, lambda k, m: 1, 5, "bad"),
             LambdaRuleError, "bad: split identity fails at (k=1, m=1)"),
        ):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                make()

    def test_table_terms_are_ints(self):
        F = CustomTable(["1", 2.0, 5])
        assert F.terms == (1, 2, 5) and all(type(t) is int for t in F.terms)
        assert F == CustomTable((1, 2, 5)) and hash(F) == hash(CustomTable((1, 2, 5)))

    def test_copies_and_pickles_are_equal(self):
        import copy
        import pickle

        from cobweb import build_layer, construct_tiling

        tiling = construct_tiling(Fp(2), 2, 3)
        for record in (Natural(), Powers(3), CustomTable((1, 2)), build_layer(Fp(2), 2, 3),
                       tiling, tiling.blocks[0]):
            for again in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert again == record and hash(again) == hash(record)
                assert type(again) is type(record) and repr(again) == repr(record)
