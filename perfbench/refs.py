"""Pinned answers and independent oracles the benchmark checks against.

Every value here is a property of the mathematics or of the artifact
format, never of one implementation: totals, graph sizes, census counts
and artifact digests must survive any correct speed-up.  Search node
counts are deliberately absent; they are checked for repeatability
within a run instead, because a better branching rule changes them.
"""

from __future__ import annotations

import itertools
import math

# exact-cover totals of the plain tilings, (family spec, k, n) -> total
TILING_TOTALS = {
    ("natural", 2, 6): 12142,
    ("natural", 4, 5): 44928,
    ("natural", 2, 5): 386,
    ("natural", 3, 4): 132,
    ("natural", 2, 4): 32,
    ("powers:q=2", 2, 3): 4620,
}

# admissible table whose layer has 18 candidate blocks but no tiling
CERTIFICATE = ("table:[1,2,2,1,4,3]", 4, 6)

# construction census, (family spec, k, n) -> (choice sequences, distinct tilings)
CENSUSES = {
    ("natural", 3, 5): (2160, 2160),
    ("natural", 4, 5): (180, 180),
    ("powers:q=2", 2, 3): (2520, 105),
    ("fp:p=1", 2, 5): (120, 30),
}

# block graphs, (family spec, k, n) -> (vertices, edges, clique size d)
GRAPHS = {
    ("natural", 4, 6): (2900, 3368980, 20),
    ("natural", 3, 5): (550, 99675, 10),
    ("fp:p=1", 4, 6): (780, 294450, 60),
    ("natural", 4, 5): (70, 1995, 10),
    ("powers:q=2", 2, 3): (448, 18480, 4),
    ("natural", 2, 5): (375, 27460, 5),
    ("natural", 3, 4): (30, 315, 6),
}

# SHA-256 of the CLI artifacts for the fixed seed 42:
# `tile natural 2 4 --seed 42`, `render` of that file, `graph natural 3 4 --dot`
ARTIFACT_SHA256 = {
    "fixed.json": "ce92f3a21458dd38e569f5fe8cd5456a0592c25859bc578cc81f8ec3b0032f15",
    "fixed.svg": "ebe2017ac6843501189354f3ff53200d680fa0c61d5f775561239b5f298eb42d",
    "fixed.dot": "442f54a468a0a72a8e20c476969d089e0b56f92aac89ce4847449088b4c54d53",
}


def pell(count: int) -> list[int]:
    """Terms of fp:p=2 (1, 2, 5, 12, ...), by its own recurrence."""
    out = [1, 2]
    while len(out) < count:
        out.append(2 * out[-1] + out[-2])
    return out[:count]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n over k]_q as the quotient of q-factor products."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{n} over {k}]_{q} left remainder {rem}")
    return value


def fibonomial(n: int, parts) -> int:
    """Multi-fibonomial n over parts, from iterated Fibonacci products."""
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])

    def fact(m: int) -> int:
        out = 1
        for i in range(1, m + 1):
            out *= fib[i]
        return out

    den = 1
    for b in parts:
        den *= fact(b)
    value, rem = divmod(fact(n), den)
    if rem:
        raise ArithmeticError(f"fibonomial {n} over {parts} left remainder {rem}")
    return value


def multinomial(n: int, parts) -> int:
    out = math.factorial(n)
    for b in parts:
        out //= math.factorial(b)
    return out


def natural_paths(k: int, n: int) -> list[list[int]]:
    """Maximal paths of the natural layer <k -> n>, lexicographic."""
    return [list(p) for p in itertools.product(*[range(1, s + 1) for s in range(k, n + 1)])]
