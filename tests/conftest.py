"""Shared fixtures: the family roster used across the suite."""

import gc

from cobweb import (
    CustomTable,
    Fp,
    Gaussian,
    ModifiedGaussian,
    Natural,
    Powers,
    TLambdaAB,
)


def lambda_families():
    """Every built-in family that carries a splitting rule."""
    fams = [Natural(), Powers(2), Gaussian(2), ModifiedGaussian(2)]
    fams += [Fp(p) for p in (1, 2, 3, 4)]
    fams += [TLambdaAB(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    return fams


def compositions_of(n, max_parts=None):
    """All ordered compositions of n, optionally bounded in length."""
    out = []
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        if max_parts is None or len(parts) <= max_parts:
            out.append(tuple(parts))
    return out


def cyclic_garbage(call):
    """Objects that `call()` leaves for the cycle collector to free, counted
    with the collector off so that none is freed early."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


# Printed prefixes of the example tables used as fixtures.
TABLE_A = CustomTable((1, 3, 5, 7, 9, 11, 13))
TABLE_B = CustomTable((1, 2, 2, 2, 1, 4, 1, 2))
TABLE_C = CustomTable((1, 2, 2, 1, 2, 2, 1))
TABLE_E = CustomTable((1, 2, 3, 2, 1, 6, 1))
TABLE_F = CustomTable((1, 2, 1, 2, 1, 2))
