"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `CRITERION n: PASS/FAIL` line (run with -s to
see them live) and then asserts, so the suite doubles as a checklist.
Criterion 5 is asserted exactly as stated; see the assertion message for
the instances where the construction-count formula disagrees with the
enumerated counts on sequences with repeated terms.
"""

import itertools
import json
import time

from cobweb import (
    CapExceeded,
    CustomTable,
    Fp,
    Gaussian,
    ModifiedGaussian,
    Natural,
    PlainShape,
    Powers,
    TLambdaAB,
    block_count_formula,
    build_block_graph,
    build_layer,
    check_fnomial_recurrence,
    check_identities,
    check_multi_recurrence,
    clique_to_tiling,
    construct_multi_tiling,
    construct_tiling,
    construction_census,
    count_construction_tilings,
    count_size_d_cliques,
    enumerate_all_tilings,
    enumerate_size_d_cliques,
    fnomial,
    is_cobweb_admissible,
    lambda_composition,
    multi_fnomial,
    term,
    tiling_to_clique,
    verify_tiling,
)
from cobweb.cli import main as cli_main
from conftest import compositions_of

FAMILIES = (
    [Natural(), Powers(2), Gaussian(2), ModifiedGaussian(2)]
    + [Fp(p) for p in (1, 2, 3, 4)]
    + [TLambdaAB(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
)

TLAB_FAMILIES = [(a, b, TLambdaAB(a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]

# calibration targets: naturals with k >= 2, n <= 5; Fibonacci with n <= 6, m <= 3
CALIBRATION_TARGETS = (
    [(Natural(), k, n) for n in range(2, 6) for k in range(2, n + 1)]
    + [(Fp(1), k, n) for n in range(1, 7) for k in range(1, n + 1) if n - k + 1 <= 3]
)

SEARCH_NODE_BUDGET = 20_000_000
CENSUS_LIMIT = 250_000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_coefficient_integrality():
    t0 = time.time()
    checked = 0
    for F in FAMILIES:
        for n in range(0, 17):
            for m in range(0, n + 1):
                fnomial(F, n, m)  # raises NonIntegralCoefficient on failure
                checked += 1
        for n in range(1, 13):
            for parts in compositions_of(n, max_parts=4):
                multi_fnomial(F, parts)
                checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 10
    _report(1, ok, f"{checked} coefficients exact across {len(FAMILIES)} families "
                   f"in {elapsed:.1f}s (limit 10s)")
    assert ok


def test_criterion_2_recurrence_identities():
    t0 = time.time()
    checks = 0

    # two-term recurrence over the full range
    for F in FAMILIES:
        for n in range(2, 17):
            for k in range(1, n):
                assert check_fnomial_recurrence(F, n, k), (F.spec_string(), n, k)
                checks += 1

    # multi recurrence and the symmetry / permutation / product identities
    for F in FAMILIES:
        for n in range(1, 13):
            for parts in compositions_of(n, max_parts=4):
                assert check_multi_recurrence(F, parts), (F.spec_string(), parts)
                checks += 1
            for b in range(1, n):
                assert check_identities(F, n, b)
                checks += 1
            for parts in compositions_of(n, max_parts=4):
                if len(parts) >= 2:
                    assert check_identities(F, n, parts[0], rest=parts[1:])
                    checks += 1

    # closed coefficient form and the two-part split for the
    # alpha/beta family, plus the multiple-of-n identity
    for a, b, F in TLAB_FAMILIES:
        for n in range(2, 9):
            for parts in compositions_of(n, max_parts=4):
                closed = tuple(
                    a ** sum(parts[s + 1:]) * b ** sum(parts[:s])
                    for s in range(len(parts))
                )
                assert lambda_composition(F, parts) == closed
                assert sum(l * term(F, p) for l, p in zip(closed, parts)) == term(F, n)
                checks += 1
        for m in range(1, 9):
            for c in range(1, 9):
                assert term(F, m + c) == a**c * term(F, m) + b**m * term(F, c)
                checks += 1
        for k in range(1, 7):
            for n in range(1, 7):
                rhs = term(F, n) * sum(
                    a ** ((k - s) * n) * b ** ((s - 1) * n) for s in range(1, k + 1)
                )
                assert term(F, k * n) == rhs
                checks += 1

    # fibonomial recurrence with its explicit coefficients
    F = Fp(1)
    for n in range(2, 17):
        for k in range(1, n):
            m = n - k
            lam_k = term(F, m - 1) if m >= 2 else 0
            lam_m = term(F, k + 1)
            assert fnomial(F, n, k) == (
                lam_k * fnomial(F, n - 1, k - 1) + lam_m * fnomial(F, n - 1, k)
            )
            checks += 1

    elapsed = time.time() - t0
    ok = elapsed < 30
    _report(2, ok, f"{checks} identity instances, zero failures, "
                   f"in {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_3_constructive_tiling():
    t0 = time.time()
    plain = multi = 0
    for F in FAMILIES:
        for n in range(1, 8):
            for k in range(1, n + 1):
                layer = build_layer(F, k, n)
                if layer.m > 4 or layer.volume() > 5000:
                    continue
                tiling = construct_tiling(F, k, n)
                report = verify_tiling(tiling)
                assert report.valid, (F.spec_string(), k, n, report.violations[:3])
                assert len(tiling.blocks) == fnomial(F, n, layer.m)
                plain += 1
        for n in range(1, 6):
            if build_layer(F, 1, n).volume() > 5000:
                continue
            for parts in compositions_of(n):
                tiling = construct_multi_tiling(F, n, parts)
                report = verify_tiling(tiling)
                assert report.valid, (F.spec_string(), parts, report.violations[:3])
                assert len(tiling.blocks) == multi_fnomial(F, parts)
                multi += 1
    elapsed = time.time() - t0
    ok = elapsed < 60
    _report(3, ok, f"{plain} layer tilings and {multi} multi tilings verified "
                   f"in {elapsed:.1f}s (limit 60s)")
    assert ok


def test_criterion_4_example_reproduction():
    tiling = construct_multi_tiling(Natural(), 4, (2, 2))
    report = verify_tiling(tiling)
    ok = report.valid and len(tiling.blocks) == 6
    _report(4, ok, f"<1->4> naturals with parts (2,2): {len(tiling.blocks)} "
                   f"pairwise-disjoint multi blocks, valid={report.valid}")
    assert ok


_CALIBRATION_CACHE: list | None = None


def _calibration_runs():
    """Shared by criteria 5 and 6: exhaustive searches on the targets,
    run once and cached for the session."""
    global _CALIBRATION_CACHE
    if _CALIBRATION_CACHE is None:
        runs = []
        for F, k, n in CALIBRATION_TARGETS:
            layer = build_layer(F, k, n)
            result = enumerate_all_tilings(
                layer, PlainShape(layer.m), limit=0, node_budget=SEARCH_NODE_BUDGET
            )
            runs.append((F, k, n, layer, result))
        _CALIBRATION_CACHE = runs
    return _CALIBRATION_CACHE


def test_criterion_5_count_calibration():
    t0 = time.time()
    failures = []
    completed = 0
    strict_witness = None
    for F, k, n, layer, result in _calibration_runs():
        if not result.complete:
            continue
        completed += 1
        eq3 = count_construction_tilings(F, k, n)
        try:
            distinct = construction_census(F, k, n, limit=CENSUS_LIMIT).distinct
        except CapExceeded:
            distinct = None  # bounded above by the total, checked below
        name = f"{F.spec_string()} <{k}->{n}>"
        if distinct is not None and eq3 != distinct:
            failures.append(f"{name}: formula {eq3} != distinct constructions {distinct}")
        if eq3 > result.total:
            failures.append(f"{name}: formula {eq3} > exhaustive total {result.total}")
        if eq3 < result.total and strict_witness is None:
            strict_witness = f"{name}: {eq3} < {result.total}"
    elapsed = time.time() - t0
    ok = not failures and strict_witness is not None and elapsed < 300
    _report(5, ok, f"{completed} completed instances in {elapsed:.0f}s (limit 300s); "
                   f"strict witness: {strict_witness}; "
                   + (f"{len(failures)} discrepancies" if failures else "no discrepancies"))
    assert ok, (
        "construction-count formula disagrees with enumeration on: "
        + "; ".join(failures)
        + " | The formula counts construction choice sequences; on sequences "
          "with repeated terms distinct choices assemble identical tilings."
    )


def test_criterion_6_clique_equivalence():
    # every completed exact cover is compared with a size-d clique count;
    # the per-clique checks run where the cliques are few enough to list
    t0 = time.time()
    compared = listed = 0
    for F, k, n, layer, result in _calibration_runs():
        if not result.complete:
            continue
        graph = build_block_graph(layer)
        counted = count_size_d_cliques(graph, node_budget=SEARCH_NODE_BUDGET)
        if not counted.complete:
            continue
        name = f"{F.spec_string()} <{k}->{n}>"
        assert counted.total == result.total, (
            f"{name}: {counted.total} size-d cliques vs {result.total} tilings"
        )
        compared += 1
        if counted.total > CENSUS_LIMIT:
            continue
        cliques = enumerate_size_d_cliques(graph, node_budget=SEARCH_NODE_BUDGET)
        assert cliques.complete and len(cliques.cliques) == counted.total, (
            f"{name}: listed {len(cliques.cliques)} size-d cliques "
            f"(complete={cliques.complete}), counted {counted.total}"
        )
        full = (1 << graph.vertex_count()) - 1
        for clique in cliques.cliques:
            common = full
            for v in clique:
                common &= graph.adjacency[v]
            assert common == 0, f"{name}: clique {clique} is extendable"
            tiling = clique_to_tiling(graph, clique)
            assert tiling_to_clique(graph, tiling) == clique
        if cliques.cliques:
            assert verify_tiling(clique_to_tiling(graph, cliques.cliques[0])).valid
        listed += 1
    elapsed = time.time() - t0
    ok = compared >= 10 and elapsed < 300
    _report(6, ok, f"clique count = tiling count on {compared} instances, maximality "
                   f"and round-trip verified on the {listed} listed, in {elapsed:.0f}s "
                   f"(limit 300s)")
    assert ok


def test_criterion_7_block_count_formula():
    checked = 0
    for F in (Natural(), Fp(1), Gaussian(2), ModifiedGaussian(2), Powers(2)):
        for k in range(1, 8):
            for n in range(k, k + 3):
                layer = build_layer(F, k, n)
                if layer.m > 3 or max(layer.level_sizes()) > 8:
                    continue
                brute = 0
                for sigma in itertools.permutations(range(1, layer.m + 1)):
                    pools = [
                        list(itertools.combinations(range(1, size + 1), term(F, v)))
                        for size, v in zip(layer.level_sizes(), sigma)
                    ]
                    brute += len(list(itertools.product(*pools)))
                assert block_count_formula(F, k, n).pair_count == brute, (
                    F.spec_string(), k, n
                )
                checked += 1
    ok = checked > 0
    _report(7, ok, f"pair-count formula equals brute-force enumeration on "
                   f"{checked} instances")
    assert ok


def test_criterion_8_nonexistence_witness():
    witnesses = []
    for tail in itertools.product(range(1, 5), repeat=3):
        table = CustomTable((1,) + tail)
        if not is_cobweb_admissible(table, 4).admissible_up_to_bound:
            continue
        for k in range(2, 4):
            for n in range(k + 1, 5):
                layer = build_layer(table, k, n)
                result = enumerate_all_tilings(layer, PlainShape(layer.m),
                                               limit=1, node_budget=500_000)
                if result.complete and result.total == 0:
                    witnesses.append((table.terms, k, n))

    # a larger pinned instance where candidate blocks exist but never cover
    table = CustomTable((1, 2, 2, 1, 4, 3))
    assert is_cobweb_admissible(table, 6).admissible_up_to_bound
    layer = build_layer(table, 4, 6)
    from cobweb import block_family

    assert len(block_family(layer, PlainShape(3)).blocks) == 18
    pinned = enumerate_all_tilings(layer, PlainShape(3))
    if pinned.complete and pinned.total == 0:
        witnesses.append((table.terms, 4, 6))

    ok = len(witnesses) >= 1
    _report(8, ok, f"{len(witnesses)} admissible zero-tiling instances with "
                   f"exhaustion certificates, e.g. {witnesses[0] if witnesses else None}")
    assert ok


def test_criterion_9_determinism(tmp_path, capsys):
    def run(*argv):
        rc = cli_main(list(argv))
        out = capsys.readouterr().out
        assert rc == 0, argv
        return out

    stable = []

    for argv in (
        ("seq", "fp:p=2", "--count", "8", "--json"),
        ("coeff", "tlab:a=2,b=3,one=1", "6", "2", "--json"),
        ("multicoeff", "fp:p=1", "5", "2,2,1", "--json"),
        ("count-tilings", "natural", "2", "4", "--mode", "exhaustive", "--json"),
    ):
        stable.append(run(*argv) == run(*argv))

    tiling_a, tiling_b = tmp_path / "a.json", tmp_path / "b.json"
    run("tile", "natural", "2", "4", "--strategy", "seed:42", "--out", str(tiling_a))
    run("tile", "natural", "2", "4", "--strategy", "seed:42", "--out", str(tiling_b))
    stable.append(tiling_a.read_bytes() == tiling_b.read_bytes())

    dot_a, dot_b = tmp_path / "a.dot", tmp_path / "b.dot"
    run("graph", "natural", "3", "4", "--dot", str(dot_a))
    run("graph", "natural", "3", "4", "--dot", str(dot_b))
    stable.append(dot_a.read_bytes() == dot_b.read_bytes())

    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    run("render", str(tiling_a), "--out", str(svg_a))
    run("render", str(tiling_a), "--out", str(svg_b))
    stable.append(svg_a.read_bytes() == svg_b.read_bytes())

    json.loads(tiling_a.read_text())  # emitted artifacts parse
    ok = all(stable)
    _report(9, ok, f"{len(stable)} repeated-run comparisons byte-identical "
                   f"(JSON, DOT, SVG, seeded tiling)")
    assert ok
