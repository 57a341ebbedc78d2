"""Natural-valued sequence families and their splitting coefficients.

An F-sequence assigns to every index n >= 1 a positive integer term n_F.
All built-in families except plain tables carry a splitting rule: a pair of
natural (possibly zero) coefficient functions lambda_K, lambda_M with

    (k + m)_F = lambda_K(k, m) * k_F + lambda_M(k, m) * m_F

for all k, m >= 1.  The splitting rule is what drives the recursive layer
tiler and the coefficient recurrences, so it is validated on every call.

Built-in families
-----------------
TLambdaAB(a, b, 1_F) n_F = 1_F * sum a^(n-1-i) b^i, split (a^m, b^k);
                    the next four are its points (a, b, 1_F)
Natural             (1, 1, 1): n_F = n, split (1, 1)
Powers(q)           (q, 0, q): n_F = q^n, split (q^m, 0)
Gaussian(q)         (1, q, 1): n_F = 1 + q + ... + q^(n-1), split (1, q^k)
ModifiedGaussian(q) (q, q, 1): n_F = n * q^(n-1), split (q^m, q^k)
Fp(p)               1_F = 1, 2_F = p, n_F = p*(n-1)_F + (n-2)_F,
                    split ((m-1)_F, (k+1)_F) with the 0_F = 0 convention
CustomTable(terms)  finite table, no splitting rule
CustomTLambda(...)  user term rule plus user coefficient rules, validated
                    eagerly on construction
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .errors import DEFAULT_BLOCK_CAP, CapExceeded, FamilySpecError, LambdaRuleError, TableRangeError
from .record import Record, _set

LambdaPair = namedtuple("LambdaPair", "lambda_k lambda_m")


def composition(parts) -> tuple[int, ...]:
    """Validate an ordered composition: every part a natural >= 1."""
    parts = tuple(int(b) for b in parts)
    if not parts:
        raise ValueError("composition needs at least one part")
    if any(b < 1 for b in parts):
        raise ValueError(f"composition parts must be >= 1, got {parts}")
    return parts


class FSequence(Record):
    """Base class; concrete families set their fields with `_init`, which
    computes their hash once, and override _term and maybe _lambda.

    The hash covers the class too, so a named point and its `tlab:`
    spelling, which are never equal, do not collide in the term caches."""

    __slots__ = ("_hash",)

    def _init(self, *values) -> None:
        super()._init(*values)
        _set(self, "_hash", hash((type(self), values)))

    def __hash__(self):
        return self._hash

    def _term(self, n: int) -> int:
        raise NotImplementedError

    def _lambda(self, k: int, m: int) -> LambdaPair:
        raise LambdaRuleError(f"{self.spec_string()} carries no splitting rule")

    def spec_string(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spec_string()


class TLambdaAB(FSequence):
    """Two-parameter family with geometric splitting coefficients.

    Terms come from the expansion of 1_F * x / ((1 - a*x)(1 - b*x)):
    n_F = 1_F * n * a^(n-1) when a == b, and 1_F * (a^n - b^n)/(a - b)
    otherwise.  Both cases are the single sum below.

    Four named families are points (a, b, 1_F) of this family and share
    its term and splitting rules: Natural (1, 1, 1), Powers(q) (q, 0, q),
    Gaussian(q) (1, q, 1) and ModifiedGaussian(q) (q, q, 1).  A point
    keeps its own class, so it is not equal to its `tlab:` spelling.
    """

    __slots__ = _fields = ("alpha", "beta", "one")

    def __init__(self, alpha: int, beta: int, one: int = 1):
        self._init(alpha, beta, one)
        if self.alpha < 0 or self.beta < 0:
            raise FamilySpecError("tlab needs alpha, beta >= 0")
        if self.alpha == 0 and self.beta == 0:
            raise FamilySpecError("tlab with alpha = beta = 0 has zero terms")
        if self.one < 1:
            raise FamilySpecError("tlab needs 1_F >= 1")

    def _term(self, n):
        a, b = self.alpha, self.beta
        if a == b:
            return self.one * n * a ** (n - 1)
        return self.one * (a**n - b**n) // (a - b)

    def _lambda(self, k, m):
        return LambdaPair(self.alpha**m, self.beta**k)

    def spec_string(self):
        return f"tlab:a={self.alpha},b={self.beta},one={self.one}"


class Natural(TLambdaAB):
    __slots__ = ()

    def __init__(self):
        super().__init__(1, 1, 1)

    def spec_string(self):
        return "natural"


class Powers(TLambdaAB):
    __slots__ = ()

    # lambda_M = 0^k = 0: the tiler skips its batch step entirely.
    def __init__(self, q: int = 2):
        if q < 1:
            raise FamilySpecError("powers needs q >= 1")
        super().__init__(q, 0, q)

    def spec_string(self):
        return f"powers:q={self.alpha}"


class Gaussian(TLambdaAB):
    __slots__ = ()

    def __init__(self, q: int = 2):
        if q < 1:
            raise FamilySpecError("gaussian needs q >= 1")
        super().__init__(1, q, 1)

    def spec_string(self):
        return f"gaussian:q={self.beta}"


class ModifiedGaussian(TLambdaAB):
    __slots__ = ()

    def __init__(self, q: int = 2):
        if q < 1:
            raise FamilySpecError("modgauss needs q >= 1")
        super().__init__(q, q, 1)

    def spec_string(self):
        return f"modgauss:q={self.alpha}"


class Fp(FSequence):
    """Fibonacci-type family: 1_F = 1, 2_F = p, n_F = p*(n-1)_F + (n-2)_F."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int = 1):
        self._init(p)
        if self.p < 1:
            raise FamilySpecError("fp needs p >= 1")

    def _term(self, n):
        # 0_F = 0: the split's lambda_K = (m-1)_F reads it at m = 1.
        if n == 0:
            return 0
        prev, cur = 0, 1
        for _ in range(n - 1):
            prev, cur = cur, self.p * cur + prev
        return cur

    def _lambda(self, k, m):
        return LambdaPair(self._term(m - 1), self._term(k + 1))

    def spec_string(self):
        return f"fp:p={self.p}"


class CustomTable(FSequence):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[int, ...]):
        self._init(tuple(int(t) for t in terms))
        if not self.terms or any(t < 1 for t in self.terms):
            raise FamilySpecError("table needs positive entries")

    def _term(self, n):
        if n > len(self.terms):
            raise TableRangeError(
                f"index {n} outside table of length {len(self.terms)}"
            )
        return self.terms[n - 1]

    def spec_string(self):
        return "table:[" + ",".join(map(str, self.terms)) + "]"


class CustomTLambda(FSequence):
    """User-supplied term rule plus splitting rules.

    The splitting identity is checked eagerly for all k, m >= 1 with
    k + m <= validated_to; the first failing pair is reported.
    """

    __slots__ = _fields = ("term_rule", "lambda_k_rule", "lambda_m_rule", "validated_to", "label")

    def __init__(self, term_rule: Callable[[int], int], lambda_k_rule: Callable[[int, int], int],
                 lambda_m_rule: Callable[[int, int], int], validated_to: int = 12,
                 label: str = "custom"):
        self._init(term_rule, lambda_k_rule, lambda_m_rule, validated_to, label)
        for total in range(2, self.validated_to + 1):
            for k in range(1, total):
                m = total - k
                lk, lm = self.lambda_k_rule(k, m), self.lambda_m_rule(k, m)
                if lk < 0 or lm < 0:
                    raise LambdaRuleError(
                        f"{self.label}: negative coefficient at (k={k}, m={m})"
                    )
                if self.term_rule(total) != lk * self.term_rule(k) + lm * self.term_rule(m):
                    raise LambdaRuleError(
                        f"{self.label}: split identity fails at (k={k}, m={m})"
                    )

    def _term(self, n):
        return int(self.term_rule(n))

    def _lambda(self, k, m):
        return LambdaPair(int(self.lambda_k_rule(k, m)), int(self.lambda_m_rule(k, m)))

    def spec_string(self):
        return f"custom:{self.label}"


@lru_cache(maxsize=1 << 16)
def term(F: FSequence, n: int) -> int:
    """The n-th term n_F, exact.  Defined for n >= 1 only."""
    if n < 1:
        raise ValueError(f"terms are defined for n >= 1, got {n}")
    value = F._term(n)
    if value < 1:
        raise FamilySpecError(f"{F.spec_string()} has non-positive term at {n}")
    return value


def lambda_split(F: FSequence, k: int, m: int) -> LambdaPair:
    """Coefficients (lambda_K, lambda_M) with (k+m)_F = lK*k_F + lM*m_F.

    The identity is re-checked against the actual terms on every call, so
    an inconsistent custom rule surfaces here rather than corrupting a
    tiling construction downstream.
    """
    if k < 1 or m < 1:
        raise ValueError("lambda_split needs k, m >= 1")
    pair = F._lambda(k, m)
    if pair.lambda_k * term(F, k) + pair.lambda_m * term(F, m) != term(F, k + m):
        raise LambdaRuleError(
            f"{F.spec_string()}: split ({k},{m}) -> {tuple(pair)} contradicts terms"
        )
    return pair


def lambda_composition(F: FSequence, parts) -> tuple[int, ...]:
    """Per-part coefficients lambda_s with sum_s lambda_s * (b_s)_F = n_F.

    Obtained by splitting off parts left to right: lambda_s is the
    lambda_K of the split (b_s, rest) times the lambda_M factors collected
    from the earlier splits; the last part keeps only the collected
    product.
    """
    parts = composition(parts)
    lams = []
    carried = 1
    remaining = sum(parts)
    for i, b in enumerate(parts):
        remaining -= b
        if i == len(parts) - 1:
            lams.append(carried)
        else:
            lk, lm = lambda_split(F, b, remaining)
            lams.append(carried * lk)
            carried *= lm
    total = sum(l * term(F, b) for l, b in zip(lams, parts))
    if total != term(F, sum(parts)):
        raise LambdaRuleError(
            f"{F.spec_string()}: composition coefficients for {parts} do not total"
        )
    return tuple(lams)


def lambda_composition_reversed(F: FSequence, parts) -> tuple[int, ...]:
    """The mirror coefficient vector, splitting parts off right to left.

    Generally a different vector than lambda_composition, but with the
    same weighted sum; useful as a cross-check.  Every split it reads is
    (suffix, part) with both sides >= 1, checked by lambda_split.
    """
    parts = composition(parts)
    k = len(parts)
    lams = []
    for s in range(k):
        suffix = sum(parts[s + 1:])
        lam = lambda_split(F, suffix, parts[s]).lambda_m if suffix > 0 else 1
        for i in range(s):
            lam *= lambda_split(F, sum(parts[i + 1:]), parts[i]).lambda_k
        lams.append(lam)
    total = sum(l * term(F, b) for l, b in zip(lams, parts))
    if total != term(F, sum(parts)):
        raise LambdaRuleError(
            f"{F.spec_string()}: reversed coefficients for {parts} do not total"
        )
    return tuple(lams)


def term_via_ones(F: FSequence, n: int) -> int:
    """Recompute n_F from the all-ones composition; a pure cross-check."""
    if n < 1:
        raise ValueError("term_via_ones needs n >= 1")
    lams = lambda_composition(F, (1,) * n)
    return sum(lams) * term(F, 1)


class AdmissibilityReport(Record):
    """Bounded verdict: admissibility itself quantifies over all n."""

    __slots__ = _fields = ("admissible_up_to_bound", "first_failure", "bound")

    def __init__(self, admissible_up_to_bound: bool, first_failure: tuple[int, int] | None,
                 bound: int):
        self._init(admissible_up_to_bound, first_failure, bound)


def admissibility_checks(n_max: int) -> int:
    """F-nomials `is_cobweb_admissible` checks: n + 1 for each 1 <= n <= n_max."""
    n_max = max(n_max, 0)
    return n_max * (n_max + 3) // 2


def is_cobweb_admissible(
    F: FSequence, n_max: int, *, cap: int = DEFAULT_BLOCK_CAP
) -> AdmissibilityReport:
    """Check integrality of every F-nomial with n <= n_max, 0 <= m <= n.

    Raises CapExceeded up front when that is more than `cap` F-nomials."""
    from .coefficients import fnomial
    from .errors import NonIntegralCoefficient

    checks = admissibility_checks(n_max)
    if checks > cap:
        raise CapExceeded(f"n_max {n_max} checks {checks} F-nomials, over the cap {cap}")
    for n in range(1, n_max + 1):
        for m in range(0, n + 1):
            try:
                fnomial(F, n, m)
            except NonIntegralCoefficient:
                return AdmissibilityReport(False, (n, m), n_max)
    return AdmissibilityReport(True, None, n_max)


def parse_family_spec(spec: str) -> FSequence:
    """Parse a family specification string.

    Grammar: `natural`, `powers:q=2`, `gaussian:q=2`, `modgauss:q=2`,
    `tlab:a=1,b=2,one=1`, `fp:p=1`, `table:[1,2,5,...]`.
    """
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    name = name.lower()
    if name == "table":
        body = rest.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise FamilySpecError(f"bad table spec {spec!r}")
        inner = body[1:-1]
        try:
            values = [int(v) for v in inner.split(",")] if inner.strip() else []
        except ValueError as exc:
            raise FamilySpecError(f"bad table entry in {spec!r}") from exc
        return CustomTable(tuple(values))

    params: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise FamilySpecError(f"bad parameter {item!r} in {spec!r}")
            if key in params:
                raise FamilySpecError(f"repeated parameter {key!r} in {spec!r}")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise FamilySpecError(f"bad value in {item!r}") from exc
    makers: dict[str, tuple[Callable[..., FSequence], tuple[str, ...], dict[str, int]]] = {
        "natural": (Natural, (), {}),
        "powers": (Powers, ("q",), {"q": 2}),
        "gaussian": (Gaussian, ("q",), {"q": 2}),
        "modgauss": (ModifiedGaussian, ("q",), {"q": 2}),
        "tlab": (TLambdaAB, ("a", "b", "one"), {"one": 1}),
        "fp": (Fp, ("p",), {"p": 1}),
    }
    if name not in makers:
        raise FamilySpecError(f"unknown family {name!r}")
    maker, names, defaults = makers[name]
    unknown = set(params) - set(names)
    if unknown:
        raise FamilySpecError(f"unknown parameters {sorted(unknown)} for {name}")
    args = []
    for key in names:
        if key in params:
            args.append(params[key])
        elif key in defaults:
            args.append(defaults[key])
        else:
            raise FamilySpecError(f"{name} is missing parameter {key!r}")
    return maker(*args)
