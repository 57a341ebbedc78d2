"""Exact F-factorials, F-nomial and multi F-nomial coefficients.

Coefficients are computed as exact factorial quotients with an explicit
remainder check, never via the recurrences.  A remainder is reported as
NonIntegralCoefficient: it is the witness that the sequence is not cobweb
admissible at those parameters.  The recurrence checkers below then serve
as independent validation rather than as the computation path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import prod
from operator import mul

from .errors import NonIntegralCoefficient
from .fsequence import FSequence, composition, lambda_composition, lambda_split, term


@lru_cache(maxsize=1 << 16)
def f_factorial(F: FSequence, n: int) -> int:
    """n_F! = n_F * (n-1)_F * ... * 1_F, with 0_F! = 1."""
    if n < 0:
        raise ValueError("f_factorial needs n >= 0")
    return falling_f_factorial(F, n, n)


def falling_f_factorial(F: FSequence, n: int, m: int) -> int:
    """n_F * (n-1)_F * ... * (n-m+1)_F; the empty product for m = 0.

    The terms are multiplied pairwise in a balanced tree, so the large
    products are of operands of about equal size, which Karatsuba
    multiplication serves far better than one product growing left to
    right: for the natural numbers and n = 100000 it takes about twice
    the time of `math.factorial`, where the left-to-right product takes
    over twenty times."""
    if m < 0 or n < m:
        raise ValueError(f"falling factorial needs n >= m >= 0, got ({n}, {m})")
    factors = [term(F, n - i) for i in range(m)]
    while len(factors) > 2:
        factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1:]]
    return prod(factors)


def fnomial(F: FSequence, n: int, m: int) -> int:
    """The F-nomial coefficient n_F! / (m_F! (n-m)_F!); zero when n < m."""
    if n < 0 or m < 0:
        raise ValueError("fnomial needs n, m >= 0")
    if n < m:
        return 0
    value, rem = divmod(falling_f_factorial(F, n, m), f_factorial(F, m))
    if rem:
        raise NonIntegralCoefficient(F.spec_string(), n, (m, n - m), rem)
    return value


def multi_fnomial(F: FSequence, parts) -> int:
    """n_F! / ((b_1)_F! ... (b_k)_F!) over a composition of n."""
    parts = composition(parts)
    n = sum(parts)
    denom = 1
    for b in parts:
        denom *= f_factorial(F, b)
    value, rem = divmod(f_factorial(F, n), denom)
    if rem:
        raise NonIntegralCoefficient(F.spec_string(), n, parts, rem)
    return value


def fnomial_recurrence_rhs(F: FSequence, n: int, k: int) -> int:
    """lambda_K (n-1 over k-1)_F + lambda_M (n-1 over k)_F, split over (k, n-k)."""
    if not 1 <= k <= n - 1:
        raise ValueError("recurrence check needs 1 <= k <= n-1")
    lam = lambda_split(F, k, n - k)
    return lam.lambda_k * fnomial(F, n - 1, k - 1) + lam.lambda_m * fnomial(F, n - 1, k)


def check_fnomial_recurrence(F: FSequence, n: int, k: int) -> bool:
    """Interior two-term recurrence: (n over k)_F equals its right-hand side."""
    return fnomial_recurrence_rhs(F, n, k) == fnomial(F, n, k)


def check_multi_recurrence(F: FSequence, parts) -> bool:
    """Multi coefficient as a lambda-weighted sum over decremented parts.

    Parts that reach zero are dropped from the smaller composition.
    """
    parts = composition(parts)
    lams = lambda_composition(F, parts)
    total = 0
    for s, lam in enumerate(lams):
        smaller = parts[:s] + (parts[s] - 1,) + parts[s + 1:]
        smaller = tuple(b for b in smaller if b > 0)
        total += lam * (multi_fnomial(F, smaller) if smaller else 1)
    return total == multi_fnomial(F, parts)


def check_identities(F: FSequence, n: int, b: int, rest=()) -> bool:
    """Symmetry, part-permutation invariance, and the product identity.

    * symmetry: (n over b) = (n over n-b) = (n over b, n-b);
    * invariance: permuting the parts of (b, *rest) keeps the value;
    * product: (n over b) * (n-b over rest) = (n over b, *rest),
      requiring sum(rest) = n - b.
    """
    if not 0 < b < n:
        raise ValueError("check_identities needs 0 < b < n")
    sym = fnomial(F, n, b) == fnomial(F, n, n - b) == multi_fnomial(F, (b, n - b))

    parts = composition((b,) + tuple(rest)) if rest else (b, n - b)
    reference = multi_fnomial(F, parts)
    invariant = all(
        multi_fnomial(F, order) == reference for order in set(permutations(parts))
    )

    product = True
    if rest:
        rest = composition(rest)
        if sum(rest) != n - b:
            raise ValueError("product identity needs sum(rest) = n - b")
        product = fnomial(F, n, b) * multi_fnomial(F, rest) == multi_fnomial(
            F, (b,) + rest
        )
    return sym and invariant and product
