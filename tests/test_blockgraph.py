"""Block graphs, the family-size formula, and the clique picture."""

import hashlib
import itertools
import random

import pytest

from cobweb import (
    BlockGraph,
    CustomTable,
    Fp,
    Gaussian,
    Natural,
    PlainShape,
    Powers,
    SearchBudgetExceeded,
    Tiling,
    block_count_formula,
    block_family,
    blocks_disjoint,
    build_block_graph,
    build_layer,
    clique_to_tiling,
    count_maximal_cliques,
    count_size_d_cliques,
    enumerate_all_tilings,
    enumerate_size_d_cliques,
    find_clique,
    fnomial,
    term,
    tiling_to_clique,
    to_dot,
    verify_tiling,
)
from cobweb import blockgraph as blockgraph_module
from cobweb import tiling as tiling_module
from conftest import TABLE_B, cyclic_garbage


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
        # literal (sigma, subsets) enumeration as the oracle: every pair,
        # and the distinct vertex data among them; Fp(1), Powers(1) (all
        # terms 1) and TABLE_B repeat terms, so orientations collide
        for F in (Natural(), Fp(1), Powers(1), TABLE_B):
            for k in range(1, 6):
                for n in range(k, k + 3):
                    layer = build_layer(F, k, n)
                    if layer.m > 3 or max(layer.level_sizes()) > 8:
                        continue
                    count = 0
                    distinct = set()
                    for sigma in itertools.permutations(range(1, layer.m + 1)):
                        pools = [
                            list(itertools.combinations(range(1, size + 1), term(F, v)))
                            for size, v in zip(layer.level_sizes(), sigma)
                        ]
                        for subsets in itertools.product(*pools):
                            count += 1
                            distinct.add(subsets)
                    report = block_count_formula(F, k, n)
                    assert report.pair_count == count
                    assert report.distinct_count == len(distinct)
                    blocks = block_family(layer, PlainShape(layer.m)).blocks
                    assert len(blocks) == len(distinct)
                    assert {block.levels for block in blocks} == distinct


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

    def test_clique_deeper_than_recursion_limit(self):
        # one level of 1200 vertices: V = d = 1200, and the one clique is
        # every vertex, 1200 deep
        graph = build_block_graph(build_layer(Natural(), 1200, 1200))
        whole = tuple(range(1200))
        assert find_clique(graph) == whole
        count = count_size_d_cliques(graph)
        assert count.complete and count.total == 1
        listed = enumerate_size_d_cliques(graph)
        assert listed.complete and listed.cliques == (whole,)

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

    @pytest.mark.parametrize("F, k, n", SMALL_GRAPHS + [(Natural(), 4, 5)])
    def test_listing_memoises_what_the_count_does(self, F, k, n):
        # a listing stores every finished subtree, as a count does, and a
        # hit replays it: the search part is the count's, and the replayed
        # edges come on top
        graph = build_block_graph(build_layer(F, k, n))
        listed = enumerate_size_d_cliques(graph)
        counted = count_size_d_cliques(graph)
        assert listed.complete and counted.complete
        assert len(listed.cliques) == counted.total <= listed.nodes
        assert listed.states == counted.states
        assert listed.nodes >= counted.nodes

    def test_listing_and_count_pinned_on_natural_four_five(self):
        # cliques, their order and the work of both searches, as first
        # measured with the DAG memo and the remainder hit (a sibling loop
        # whose candidates left are a memoised set takes that entry and
        # ends); natural <4->5> replays most of its cliques through chains
        # of single-edge nodes
        graph = build_block_graph(build_layer(Natural(), 4, 5))
        listed = enumerate_size_d_cliques(graph)
        assert listed.complete and len(listed.cliques) == 44928
        assert hashlib.sha256(repr(listed.cliques).encode()).hexdigest() == (
            "9daccb0977f1efc5c49acda60c9efb6586ce47697bd20480816706d06fa53288")
        assert (listed.nodes, listed.states) == (269_173, 30_780)
        counted = count_size_d_cliques(graph)
        assert (counted.total, counted.complete) == (44928, True)
        assert (counted.nodes, counted.states) == (126_838, 30_780)

    RANDOM_GRAPHS = [(6, 0.5), (10, 0.5), (14, 0.3), (14, 0.6), (18, 0.25),
                     (18, 0.5), (18, 0.75), (12, 0.9)]

    @staticmethod
    def random_graph(v, density):
        """A seeded graph on v vertices, each edge present with the given
        probability; no block graph, so it has no d."""
        rng = random.Random(f"{v}/{density}")
        adjacency = [0] * v
        for a, b in itertools.combinations(range(v), 2):
            if rng.random() < density:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        return BlockGraph(None, (None,) * v, tuple(adjacency), 0)

    @pytest.mark.parametrize("v, density", RANDOM_GRAPHS)
    def test_random_graphs_match_combinations(self, monkeypatch, v, density):
        # graphs that are no block graph, where other candidate sets repeat:
        # at every size up to one past the clique number, the listing is
        # the lexicographic brute force, the count its length and the first
        # clique its first; every budget stops at the first node over it
        # with the start of the list, and a memo with no room changes no list
        graph = self.random_graph(v, density)
        adjacency = graph.adjacency
        listings = []
        for want in range(v + 1):
            reference = tuple(
                combo
                for combo in itertools.combinations(range(v), want)
                if all(adjacency[a] >> b & 1 for a, b in itertools.combinations(combo, 2))
            )
            listed = enumerate_size_d_cliques(graph, want)
            assert listed.complete and listed.cliques == reference, want
            assert find_clique(graph, want) == (reference[0] if reference else None), want
            counted = count_size_d_cliques(graph, want)
            assert counted.complete and counted.total == len(reference), want
            assert listed.states == counted.states, want
            for budget in range(1, listed.nodes):
                cut = enumerate_size_d_cliques(graph, want, node_budget=budget)
                assert not cut.complete and cut.nodes == budget + 1, (want, budget)
                assert cut.cliques == reference[:len(cut.cliques)], (want, budget)
            for budget in range(1, counted.nodes):
                cut = count_size_d_cliques(graph, want, node_budget=budget)
                assert not cut.complete and cut.nodes == budget + 1, (want, budget)
                assert cut.total <= len(reference), (want, budget)
            listings.append(reference)
            if not reference:
                break
        monkeypatch.setattr(tiling_module, "MEMO_BYTES", 0)
        for want, reference in enumerate(listings):
            assert enumerate_size_d_cliques(graph, want).cliques == reference, want
            assert count_size_d_cliques(graph, want).total == len(reference), want

    def test_every_limit_keeps_a_prefix(self):
        # the listings ask for the first clique (limit=1), where the search
        # unwinds right after it, or for all of them (limit=0)
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        whole = enumerate_size_d_cliques(graph)
        assert whole.complete and len(whole.cliques) == 132
        for limit, want in [(1, 1), (0, 132)]:
            cliques, run = blockgraph_module._size_d_cliques(graph, None, 10**6, limit)
            assert cliques == list(whole.cliques[:want]), limit
            assert run.complete, limit

    def test_budget_sweep_keeps_a_prefix(self):
        # each replayed edge is a node, chain links included, so a budget
        # anywhere in the listing stops at the first node over it, with the
        # start of the full list; where every budget is tried, one more
        # node adds at most one clique
        for F, k, n, count in [(Natural(), 2, 5, 60), (Natural(), 3, 4, None),
                               (Natural(), 4, 5, 20)]:
            graph = build_block_graph(build_layer(F, k, n))
            whole = enumerate_size_d_cliques(graph)
            assert whole.complete
            step = whole.nodes // count if count else 1
            budgets = range(1, whole.nodes, step)
            assert len(budgets) >= (count or 50)
            found = 0
            for budget in budgets:
                cut = enumerate_size_d_cliques(graph, node_budget=budget)
                assert not cut.complete and cut.nodes == budget + 1, budget
                assert cut.cliques == whole.cliques[:len(cut.cliques)], budget
                assert len(cut.cliques) <= cut.nodes, budget
                assert count or len(cut.cliques) - found <= 1, budget
                found = len(cut.cliques)
            assert enumerate_size_d_cliques(graph, node_budget=whole.nodes) == whole

    @pytest.mark.parametrize("F, k, n, rooms", [
        (Natural(), 3, 4, 300), (Fp(1), 3, 4, 300), (Natural(), 2, 5, 15), (Powers(2), 2, 3, 15),
    ])
    def test_memo_too_small_for_listing_entries_keeps_lists(self, monkeypatch,
                                                            F, k, n, rooms):
        # both searches store a closing node while their memo holds fewer
        # than `memo_room(V)` entries, so at any room a listing stores what
        # a count does, the first nodes to close, and lists the same
        # cliques; about `rooms` rooms below the full state count are
        # tried, every one where there are fewer states than that
        graph = build_block_graph(build_layer(F, k, n))
        whole = enumerate_size_d_cliques(graph)
        states = count_size_d_cliques(graph).states
        assert whole.complete and whole.states == states
        entry_bytes = 128 + graph.vertex_count() // 8
        step = max(1, states // rooms)
        for room in [*range(0, states, step), states - 1, states, states + 1]:
            monkeypatch.setattr(tiling_module, "MEMO_BYTES", room * entry_bytes)
            assert tiling_module.memo_room(graph.vertex_count()) == room
            listed = enumerate_size_d_cliques(graph)
            counted = count_size_d_cliques(graph)
            assert listed.complete and listed.cliques == whole.cliques, room
            assert counted.complete and counted.total == len(whole.cliques), room
            assert listed.states == counted.states == min(room, states), room

    def test_entry_left_out_of_the_memo_is_never_replayed(self, monkeypatch):
        # 0 and 1 are each joined to 2 and to the independent set 3..10,
        # which 2 is joined to as well: the subtree on {2, 3..10} is met
        # twice.  A memo of room 3 takes the first three nodes to close:
        # the one on 3..10 below 2 (eight cliques), the one on {2, 3..10}
        # holding it, replayed under 1, and the one on 3..10 below the
        # root's 2, with no clique.  The root closes last and is left out.
        adjacency = [0] * 11
        for a, b in [(top, v) for top in (0, 1) for v in range(2, 11)] + [
                (2, v) for v in range(3, 11)]:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        graph = BlockGraph(None, (None,) * 11, tuple(adjacency), 3)
        reference = self.reference_cliques(graph, 3)
        assert len(reference) == 16
        assert count_size_d_cliques(graph).states == 4
        monkeypatch.setattr(tiling_module, "MEMO_BYTES", 3 * (128 + 11 // 8))
        listed = enumerate_size_d_cliques(graph)
        assert listed.complete and listed.cliques == reference
        assert listed.states == count_size_d_cliques(graph).states == 3

    def test_searches_leave_no_cyclic_garbage(self):
        # each search holds its memo in plain locals, so it is freed when
        # the search returns, not at the next cycle collection
        graph = build_block_graph(build_layer(Natural(), 2, 5))
        searches = {
            "listing": lambda: enumerate_size_d_cliques(graph),
            "listing to a budget": lambda: enumerate_size_d_cliques(graph, node_budget=5000),
            "first clique": lambda: find_clique(graph),
            "count": lambda: count_size_d_cliques(graph),
            "count to a budget": lambda: count_size_d_cliques(graph, node_budget=5000),
            "maximal cliques": lambda: count_maximal_cliques(graph),
            "maximal cliques to a budget":
                lambda: count_maximal_cliques(graph, node_budget=10),
        }
        for name, search in searches.items():
            assert cyclic_garbage(search) == 0, name

    def test_negative_size_refused(self):
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        with pytest.raises(ValueError):
            find_clique(graph, -1)
        with pytest.raises(ValueError):
            enumerate_size_d_cliques(graph, -1)
        with pytest.raises(ValueError):
            count_size_d_cliques(graph, -1)

    def test_maximal_clique_count_small(self):
        graph = build_block_graph(build_layer(Natural(), 4, 4))
        res = count_maximal_cliques(graph)
        assert (res.total, res.complete) == (1, True)

    @pytest.mark.parametrize("budget", [1, 10])
    def test_maximal_clique_count_budget_stop(self, budget):
        graph = build_block_graph(build_layer(Natural(), 3, 4))
        whole = count_maximal_cliques(graph)
        cut = count_maximal_cliques(graph, node_budget=budget)
        assert whole.complete
        assert not cut.complete
        assert cut.nodes == budget + 1
        assert cut.total <= whole.total

    @pytest.mark.parametrize("F, k, n, total, nodes", [
        (Natural(), 3, 4, 852, 1657),
        (Natural(), 2, 4, 536, 802),
        (Natural(), 2, 5, 167_976, 194_500),
        (Powers(2), 2, 3, 22_260, 36_305),
    ])
    def test_maximal_clique_count_pinned(self, F, k, n, total, nodes):
        # pinned from a listing of the cliques by the same search: its
        # length and the calls it made
        res = count_maximal_cliques(build_block_graph(build_layer(F, k, n)))
        assert (res.total, res.complete, res.nodes) == (total, True, nodes)

    @pytest.mark.parametrize("v, density", [g for g in RANDOM_GRAPHS if g[0] <= 14])
    def test_maximal_clique_count_matches_brute_force(self, v, density):
        # every vertex subset that is a clique no outside vertex extends;
        # every budget stops at the first node over it with no more
        graph = self.random_graph(v, density)
        adjacency = graph.adjacency
        brute = 0
        for subset in range(1 << v):
            inside = [u for u in range(v) if subset >> u & 1]
            outside = [u for u in range(v) if not subset >> u & 1]
            if all(subset & ~adjacency[u] == 1 << u for u in inside) and not any(
                    subset & ~adjacency[u] == 0 for u in outside):
                brute += 1
        res = count_maximal_cliques(graph)
        assert (res.total, res.complete) == (brute, True)
        for budget in range(1, res.nodes):
            cut = count_maximal_cliques(graph, node_budget=budget)
            assert not cut.complete and cut.nodes == budget + 1, budget
            assert cut.total <= brute, budget


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

    @pytest.mark.parametrize("clique, message", [
        ([-1], "vertex -1 outside 0..8"),
        ([9], "vertex 9 outside 0..8"),
        ([0, 14], "vertex 14 outside 0..8"),
    ])
    def test_vertex_outside_the_graph_rejected(self, clique, message):
        # not read from the end of the block tuple, no IndexError, and no
        # adjacency looked up past the last vertex
        graph = build_block_graph(build_layer(Natural(), 2, 3))
        assert graph.vertex_count() == 9
        with pytest.raises(ValueError, match=f"^{message}$"):
            clique_to_tiling(graph, clique)

    def test_invalid_tiling_rejected(self):
        from cobweb import construct_tiling

        graph = build_block_graph(build_layer(Natural(), 2, 3))
        tiling = construct_tiling(Natural(), 2, 3)
        short = Tiling(tiling.layer, tiling.blocks[1:], tiling.kind, "tampered")
        with pytest.raises(ValueError, match="^not a valid tiling: "):
            tiling_to_clique(graph, short)

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
