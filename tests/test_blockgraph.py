"""Block graphs, the family-size formula, and the clique picture."""

import itertools

import pytest

from cobweb import (
    CustomTable,
    Fp,
    Gaussian,
    Natural,
    PlainShape,
    Powers,
    SearchBudgetExceeded,
    block_count_formula,
    blocks_disjoint,
    build_block_graph,
    build_layer,
    clique_to_tiling,
    count_size_d_cliques,
    enumerate_all_tilings,
    enumerate_maximal_cliques,
    enumerate_size_d_cliques,
    find_clique,
    fnomial,
    term,
    tiling_to_clique,
    to_dot,
    verify_tiling,
)
from cobweb import tiling as tiling_module


class TestBlockCountFormula:
    def test_natural_three_four(self):
        report = block_count_formula(Natural(), 3, 4)
        assert report.pair_count == 30
        assert report.distinct_count == 30

    def test_single_level(self):
        report = block_count_formula(Natural(), 4, 4)
        assert report.pair_count == report.distinct_count == 4

    def test_fibonacci_duplicates(self):
        report = block_count_formula(Fp(1), 1, 3)
        assert report.pair_count == 2
        assert report.distinct_count == 1
        assert report.distinct_count < report.pair_count

    def test_formula_matches_brute_force(self):
        # literal (sigma, subsets) enumeration as the oracle
        for F in (Natural(), Fp(1)):
            for k in range(1, 6):
                for n in range(k, k + 3):
                    layer = build_layer(F, k, n)
                    if layer.m > 3 or max(layer.level_sizes()) > 8:
                        continue
                    count = 0
                    for sigma in itertools.permutations(range(1, layer.m + 1)):
                        pools = [
                            list(itertools.combinations(range(1, size + 1), term(F, v)))
                            for size, v in zip(layer.level_sizes(), sigma)
                        ]
                        count += len(list(itertools.product(*pools)))
                    assert block_count_formula(F, k, n).pair_count == count


class TestBuildBlockGraph:
    def test_single_level_complete_graph(self):
        graph = build_block_graph(build_layer(Natural(), 4, 4))
        v = graph.vertex_count()
        assert v == 4
        assert graph.edge_count() == v * (v - 1) // 2
        assert graph.d == 4

    def test_edge_soundness(self):
        for F, k, n in [(Natural(), 3, 4), (Natural(), 2, 4), (Fp(1), 3, 5)]:
            graph = build_block_graph(build_layer(F, k, n))
            assert graph.vertex_count() <= 2000
            for i in range(graph.vertex_count()):
                for j in range(i + 1, graph.vertex_count()):
                    expect = blocks_disjoint(graph.blocks[i], graph.blocks[j])
                    assert bool((graph.adjacency[i] >> j) & 1) == expect

    def test_d_is_the_fnomial(self):
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        assert graph.d == fnomial(Natural(), 4, 2) == 6


class TestCliqueSearch:
    def test_single_level_unique_maximum(self):
        graph = build_block_graph(build_layer(Natural(), 4, 4))
        assert find_clique(graph) == (0, 1, 2, 3)
        res = enumerate_size_d_cliques(graph)
        assert res.complete and len(res.cliques) == 1

    def test_clique_count_equals_tiling_count(self):
        for F, k, n in [(Natural(), 2, 3), (Natural(), 2, 4), (Natural(), 3, 4),
                        (Fp(1), 2, 4), (Fp(1), 3, 4)]:
            layer = build_layer(F, k, n)
            graph = build_block_graph(layer)
            cliques = enumerate_size_d_cliques(graph)
            covers = enumerate_all_tilings(layer, PlainShape(layer.m), limit=0)
            assert cliques.complete and covers.complete
            assert len(cliques.cliques) == covers.total

    def test_every_size_d_clique_is_maximal(self):
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        full = (1 << graph.vertex_count()) - 1
        for clique in enumerate_size_d_cliques(graph).cliques:
            common = full
            for v in clique:
                common &= graph.adjacency[v]
            assert common == 0  # no vertex extends it

    def test_no_clique_on_nonexistence_witness(self):
        from cobweb import CustomTable

        graph = build_block_graph(build_layer(CustomTable((1, 2, 2, 1, 4, 3)), 4, 6))
        assert graph.vertex_count() == 18
        assert find_clique(graph) is None
        assert not enumerate_size_d_cliques(graph).cliques

    def test_budget_raises_not_no(self):
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        with pytest.raises(SearchBudgetExceeded):
            find_clique(graph, node_budget=2)

    SMALL_GRAPHS = [
        (Natural(), 2, 3),
        (Natural(), 4, 4),
        (Natural(), 1, 3),
        (Fp(1), 2, 4),
        (Fp(1), 3, 4),
        (CustomTable((1, 2, 2, 1, 4, 3)), 4, 6),
    ]

    @pytest.mark.parametrize("F, k, n", SMALL_GRAPHS)
    def test_size_d_cliques_match_combinations(self, F, k, n):
        # every vertex set of the size, in lexicographic order, kept when
        # all its pairs are adjacent
        graph = build_block_graph(build_layer(F, k, n))
        adjacency = graph.adjacency
        for want in sorted({0, 1, graph.d - 1, graph.d, graph.d + 1} - {-1}):
            reference = tuple(
                combo
                for combo in itertools.combinations(range(graph.vertex_count()), want)
                if all(adjacency[a] >> b & 1 for a, b in itertools.combinations(combo, 2))
            )
            result = enumerate_size_d_cliques(graph, want)
            assert result.complete
            assert result.cliques == reference, want
            first = find_clique(graph, want)
            assert first == (reference[0] if reference else None), want
            counted = count_size_d_cliques(graph, want)
            assert counted.complete and counted.total == len(reference), want

    @staticmethod
    def reference_cliques(graph, want):
        """Size-`want` cliques by a plain depth-first extension with no
        memo: candidates above the last vertex taken, in index order."""
        out = []

        def extend(prefix, cand):
            if len(prefix) == want:
                out.append(tuple(prefix))
                return
            while cand.bit_count() >= want - len(prefix):
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                extend(prefix + [v], cand & graph.adjacency[v])

        extend([], (1 << graph.vertex_count()) - 1)
        return tuple(out)

    @pytest.mark.parametrize("F, k, n", SMALL_GRAPHS + [
        (Natural(), 2, 5), (Powers(2), 2, 3), (Gaussian(2), 2, 3),
    ])
    def test_memoised_search_matches_plain_reference(self, F, k, n):
        layer = build_layer(F, k, n)
        graph = build_block_graph(layer)
        reference = self.reference_cliques(graph, graph.d)
        listed = enumerate_size_d_cliques(graph)
        assert listed.complete
        assert listed.cliques == reference
        assert find_clique(graph) == (reference[0] if reference else None)
        counted = count_size_d_cliques(graph)
        covers = enumerate_all_tilings(layer, PlainShape(layer.m), limit=0)
        assert counted.complete and covers.complete
        assert counted.total == len(reference) == covers.total

    @pytest.mark.parametrize("budget", [1, 10])
    def test_size_d_budget_stop_keeps_a_prefix_and_a_lower_bound(self, budget):
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        whole = enumerate_size_d_cliques(graph)
        assert whole.complete and len(whole.cliques) == 132
        cut = enumerate_size_d_cliques(graph, node_budget=budget)
        assert not cut.complete
        assert cut.nodes == budget + 1
        assert cut.cliques == whole.cliques[:len(cut.cliques)]
        counted = count_size_d_cliques(graph, node_budget=budget)
        assert not counted.complete
        assert counted.nodes == budget + 1
        assert 0 <= counted.total <= 132

    @pytest.mark.parametrize("memo_bytes,states", [(0, 0), (256, 1)],
                             ids=["no-memo", "memo-of-one"])
    def test_full_memo_keeps_lists_and_counts(self, monkeypatch, memo_bytes, states):
        # a memo with no room left changes the work but not the answers
        graphs = [build_block_graph(build_layer(F, k, n))
                  for F, k, n in [(Natural(), 3, 4), (Natural(), 2, 5)]]
        before = [(enumerate_size_d_cliques(g).cliques, count_size_d_cliques(g).total)
                  for g in graphs]
        monkeypatch.setattr(tiling_module, "MEMO_BYTES", memo_bytes)
        for graph, (cliques, total) in zip(graphs, before):
            listed = enumerate_size_d_cliques(graph)
            counted = count_size_d_cliques(graph)
            assert listed.complete and counted.complete
            assert listed.cliques == cliques
            assert counted.total == total == len(cliques)
            assert listed.states == counted.states == states

    def test_negative_size_refused(self):
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        with pytest.raises(ValueError):
            find_clique(graph, -1)
        with pytest.raises(ValueError):
            enumerate_size_d_cliques(graph, -1)
        with pytest.raises(ValueError):
            count_size_d_cliques(graph, -1)

    @pytest.mark.parametrize("budget", [1, 10])
    def test_maximal_clique_budget_stop_keeps_a_prefix(self, budget):
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        whole = enumerate_maximal_cliques(graph)
        cut = enumerate_maximal_cliques(graph, node_budget=budget)
        assert whole.complete
        assert not cut.complete
        assert cut.nodes == budget + 1
        assert cut.cliques == whole.cliques[:len(cut.cliques)]

    def test_maximal_clique_enumeration_small(self):
        graph = build_block_graph(build_layer(Natural(), 4, 4))
        res = enumerate_maximal_cliques(graph)
        assert res.complete
        assert res.cliques == ((0, 1, 2, 3),)


class TestCliqueTilingCorrespondence:
    def test_round_trip_all_cliques(self):
        layer = build_layer(Natural(), 2, 3)
        graph = build_block_graph(layer)
        for clique in enumerate_size_d_cliques(graph).cliques:
            tiling = clique_to_tiling(graph, clique)
            assert verify_tiling(tiling).valid
            assert tiling_to_clique(graph, tiling) == clique

    def test_single_block_tiling(self):
        from cobweb import construct_tiling

        layer = build_layer(Natural(), 1, 3)
        graph = build_block_graph(layer)
        tiling = construct_tiling(Natural(), 1, 3)
        clique = tiling_to_clique(graph, tiling)
        assert len(clique) == 1
        assert clique_to_tiling(graph, clique).key() == tiling.key()

    def test_non_clique_rejected(self):
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        adjacency_missing = None
        for i in range(graph.vertex_count()):
            for j in range(i + 1, graph.vertex_count()):
                if not (graph.adjacency[i] >> j) & 1:
                    adjacency_missing = (i, j)
                    break
            if adjacency_missing:
                break
        with pytest.raises(ValueError):
            clique_to_tiling(graph, adjacency_missing)

    def test_foreign_tiling_rejected(self):
        from cobweb import construct_tiling

        graph = build_block_graph(build_layer(Natural(), 2, 3))
        other = construct_tiling(Natural(), 2, 4)
        with pytest.raises(ValueError):
            tiling_to_clique(graph, other)


class TestDot:
    def test_deterministic_and_labelled(self):
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        dot = to_dot(graph)
        assert dot == to_dot(graph)
        assert dot.startswith("graph blockgraph {")
        assert dot.count("--") == graph.edge_count()
