import hashlib
import math
import re
import types
from fractions import Fraction
from itertools import combinations
from random import Random

import networkx as nx
import networkx.algorithms.flow.edmondskarp as edmondskarp_module
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.flow import boykov_kolmogorov

from conftest import fractions_between, make_params
from regencost import (
    InsufficientRepairBandwidthError,
    InvalidConstructionError,
    NonIntegerDownloadError,
    NonPositiveError,
    UsageError,
    alpha_min,
    beta2_min,
    tradeoff_curve,
)
from regencost import cutflow
from regencost.cutflow import (
    SINK,
    SOURCE,
    FlowEdge,
    FlowGraph,
    alpha_min_oracle,
    build_gstar,
    cut_capacity_sum,
    cut_terms,
    default_beta2_grid,
    history_graph,
    max_flow,
    random_history_graph,
    to_edge_list,
    verification_sweep,
    verify_closed_form,
)
from regencost.params import repair_history

F = Fraction

A_SMALL = make_params(2, 2, 1, kprime=2)
CONFIG_A = make_params(5, 8, 6, kprime=2, n=15)
CONFIG_B = make_params(5, 4, 10, kprime=2, n=15)
B_SMALL = make_params(3, 1, 2, kprime=2)

SAMPLE_CONFIGS = [
    A_SMALL,
    B_SMALL,
    CONFIG_A,
    CONFIG_B,
    make_params(3, 0, 4, kprime=3),  # no cheap tier
    make_params(3, 5, 0, kprime=2),  # no expensive tier
    make_params(1, 1, 1, kprime=4),  # single collector read
    make_params(3, 3, 2, kprime=2),  # d1 = k boundary
]


# ---------------------------------------------------------------------------
# cut terms and the clipped sum


def test_cut_terms_scenario_a():
    assert cut_terms(A_SMALL, F(3, 20)) == [F(3, 4), F(9, 20)]


def test_cut_terms_scenario_b():
    assert cut_terms(B_SMALL, F(1, 4)) == [1, F(1, 2), F(1, 4)]


def test_cut_terms_scale_linearly():
    unit = cut_terms(B_SMALL, 1)
    assert cut_terms(B_SMALL, F(2, 7)) == [term * F(2, 7) for term in unit]


def test_cut_capacity_sum_at_alpha_min_meets_file_size():
    assert cut_capacity_sum(A_SMALL, F(11, 20), F(3, 20)) == 1
    assert cut_capacity_sum(B_SMALL, F(3, 8), F(1, 4)) == 1


def test_cut_capacity_sum_degenerate_inputs():
    assert cut_capacity_sum(A_SMALL, 0, F(3, 20)) == 0
    with pytest.raises(NonPositiveError):
        cut_capacity_sum(A_SMALL, -1, F(3, 20))
    with pytest.raises(NonPositiveError):
        cut_terms(A_SMALL, F(-1, 4))


def test_cut_capacity_sum_is_monotone_and_concave_in_alpha():
    grid = [F(i, 40) for i in range(0, 41)]
    values = [cut_capacity_sum(A_SMALL, a, F(3, 20)) for a in grid]
    deltas = [hi - lo for lo, hi in zip(values, values[1:])]
    assert all(delta >= 0 for delta in deltas)
    assert all(left >= right for left, right in zip(deltas, deltas[1:]))


# ---------------------------------------------------------------------------
# closed-form-free inversions


def test_oracle_values():
    assert alpha_min_oracle(A_SMALL, F(3, 20)) == F(11, 20)
    assert alpha_min_oracle(B_SMALL, F(1, 4)) == F(3, 8)


def test_oracle_rejects_starved_bandwidth():
    # at beta2 = 1/10 the whole cut sums to 4/5 < file size
    assert sum(cut_terms(A_SMALL, F(1, 10))) == F(4, 5)
    with pytest.raises(InsufficientRepairBandwidthError):
        alpha_min_oracle(A_SMALL, F(1, 10))


def test_oracle_handles_exact_totals():
    # at beta2_min the terms sum exactly to the file size
    b2 = beta2_min(A_SMALL)
    assert sum(cut_terms(A_SMALL, b2)) == 1
    assert alpha_min_oracle(A_SMALL, b2) == alpha_min(A_SMALL, b2)


def test_oracle_matches_closed_form_on_default_grids():
    for params in SAMPLE_CONFIGS:
        for b2 in default_beta2_grid(params):
            try:
                closed = alpha_min(params, b2)
            except InsufficientRepairBandwidthError:
                with pytest.raises(InsufficientRepairBandwidthError):
                    alpha_min_oracle(params, b2)
                continue
            assert alpha_min_oracle(params, b2) == closed, (params, b2)


# ---------------------------------------------------------------------------
# explicit graphs


def _downloads_into(graph, name):
    return sorted(
        (edge.tail, edge.capacity)
        for edge in graph.edges
        if edge.head == f"{name}.in" and edge.tail != SOURCE
    )


def test_gstar_wiring_scenario_a():
    graph = build_gstar(A_SMALL, F(11, 20), F(3, 20))
    b1, b2 = F(3, 10), F(3, 20)
    assert _downloads_into(graph, "x0") == [("o0.out", b1), ("o1.out", b1), ("o2.out", b2)]
    assert _downloads_into(graph, "x1") == [("o0.out", b1), ("o2.out", b2), ("x0.out", b1)]
    assert len(graph.edges) == 3 + 3 + 2 + 2 + 6  # S, original alpha, newcomer alpha, DC, downloads


def test_gstar_wiring_scenario_b():
    graph = build_gstar(B_SMALL, F(3, 8), F(1, 4))
    b1, b2 = F(1, 2), F(1, 4)
    assert _downloads_into(graph, "x0") == [("o0.out", b1), ("o1.out", b2), ("o2.out", b2)]
    assert _downloads_into(graph, "x1") == [("o1.out", b2), ("o2.out", b2), ("x0.out", b1)]
    assert _downloads_into(graph, "x2") == [("o1.out", b2), ("x0.out", b1), ("x1.out", b2)]


def test_gstar_source_and_collector_edges():
    graph = build_gstar(A_SMALL, F(11, 20), F(3, 20))
    assert (SOURCE, SINK) == ("S", "DC") == graph.nodes[:2]
    source_heads = {edge.head for edge in graph.edges if edge.tail == "S"}
    assert source_heads == {"o0.in", "o1.in", "o2.in"}  # newcomers are never source-fed
    collector_tails = {edge.tail for edge in graph.edges if edge.head == "DC"}
    assert collector_tails == {"x0.out", "x1.out"}
    assert all(
        edge.capacity is None for edge in graph.edges if edge.tail == "S" or edge.head == "DC"
    )


def test_gstar_storage_pairs_and_acyclicity():
    graph = build_gstar(B_SMALL, F(3, 8), F(1, 4))
    names = [node for node in graph.nodes if node.endswith(".in")]
    assert names == [f"o{i}.in" for i in range(3)] + [f"x{j}.in" for j in range(3)]
    assert len(graph.nodes) == 2 + 2 * len(names)  # the terminals and one in/out pair per stored node
    order = {node: index for index, node in enumerate(graph.nodes)}
    for edge in graph.edges:
        if edge.tail == "S" or edge.head == "DC":
            continue
        # each alpha edge stays inside a pair; downloads flow strictly forward
        assert order[edge.tail] < order[edge.head]
        if edge.tail.endswith(".in"):
            assert edge.head == edge.tail[:-3] + ".out"
            assert edge.capacity == F(3, 8)


def test_gstar_edge_lists_match_frozen_digest():
    # every edge of every G* in a sweep of both scenarios, in build order, frozen so a
    # change of any newcomer's helpers or of their order shows
    digest = hashlib.sha256()
    for params in verification_sweep(max_k=6, max_d=9, kprimes=(1, 2, F(5, 2))):
        digest.update(to_edge_list(build_gstar(params, F(1, 2), F(1, 3))).encode() + b"\n")
    assert digest.hexdigest() == "39ce1e7f96a89a1a87bdfa8ad12e70d1850acdc575822773b7523c5f74c9432d"


def test_max_flow_values():
    assert max_flow(build_gstar(A_SMALL, F(11, 20), F(3, 20))) == 1
    assert max_flow(build_gstar(A_SMALL, 2, F(3, 20))) == F(6, 5)  # alpha stops binding
    assert max_flow(build_gstar(A_SMALL, 0, F(3, 20))) == 0


def test_max_flow_tracks_clipped_sum_around_alpha_min():
    for params, b2 in ((A_SMALL, F(3, 20)), (B_SMALL, F(1, 4)), (B_SMALL, F(1, 7))):
        exact = alpha_min(params, b2)
        for alpha in (exact / 2, exact, exact * 2):
            flow = max_flow(build_gstar(params, alpha, b2))
            assert flow == cut_capacity_sum(params, alpha, b2)
            assert (flow >= params.file_size) == (alpha >= exact)


def test_max_flow_sums_parallel_edges():
    graph = FlowGraph(
        edges=(
            FlowEdge("S", "a.in", None),
            FlowEdge("a.in", "a.out", F(1, 3)),
            FlowEdge("a.in", "a.out", F(1, 6)),
            FlowEdge("a.out", "DC", None),
        ),
    )
    assert max_flow(graph) == F(1, 2)


def _reference_max_flow(graph):
    """The plain solve: every edge kept, integer-scaled, networkx's Boykov-Kolmogorov on its own residual network."""
    scale = math.lcm(1, *(e.capacity.denominator for e in graph.edges if e.capacity is not None))
    capacities = {}
    for edge in graph.edges:
        if edge.capacity is not None:
            key = (edge.tail, edge.head)
            capacities[key] = capacities.get(key, 0) + edge.capacity.numerator * (scale // edge.capacity.denominator)
    bound = 1 + sum(capacities.values())
    capacities.update(dict.fromkeys(((e.tail, e.head) for e in graph.edges if e.capacity is None), bound))
    digraph = nx.DiGraph()
    digraph.add_nodes_from((SOURCE, SINK))
    digraph.add_edges_from((tail, head, {"capacity": capacity}) for (tail, head), capacity in capacities.items())
    return Fraction(nx.maximum_flow_value(digraph, SOURCE, SINK, flow_func=boykov_kolmogorov), scale)


def _finite_total(graph):
    return sum(edge.capacity for edge in graph.edges if edge.capacity is not None)


def _graph(*edges):
    return FlowGraph(edges=tuple(FlowEdge(tail, head, capacity) for tail, head, capacity in edges))


def _gstar_sweep_graphs(**sweep):
    """G* at alpha_min on each default grid point, or above every cut term where infeasible."""
    for params in verification_sweep(**sweep):
        for b2 in default_beta2_grid(params):
            try:
                alpha = alpha_min(params, b2)
            except InsufficientRepairBandwidthError:
                alpha = sum(cut_terms(params, b2)) + 1
            yield (params, b2), build_gstar(params, alpha, b2)


def _history_graphs(seed, count):
    rng = Random(seed)
    for index in range(count):
        params = (CONFIG_A, CONFIG_B)[index % 2]
        b2 = beta2_min(params) * Fraction(rng.randint(100, 300), 100)
        yield index, random_history_graph(
            params, alpha_min(params, b2), b2, Random(rng.getrandbits(32)), rng.randint(0, 3 * params.n)
        )


def _assert_consistent_residual(residual, capacities, value):
    """One solve's residual network, read through networkx's public API after the solve.

    ``capacities`` are its edge capacities as the solve found them and ``value``
    is the integer flow value the solve returned.
    """
    succ, pred = residual.succ, residual.pred
    edges = {(u, v): data for u, v, data in residual.edges(data=True)}
    assert {(u, v) for u in residual.adj for v in residual.adj[u]} == edges.keys()
    assert {(u, v) for u in succ for v in succ[u]} == edges.keys()
    assert set(residual.nodes) == set(succ) == set(pred) >= {SOURCE, SINK}
    assert {key: data["capacity"] for key, data in edges.items()} == capacities
    for (u, v), data in edges.items():
        assert data is succ[u][v] is pred[v][u] is residual[u][v]
        assert (v, u) in edges  # each pair beside its reverse, one of the two positive
        assert isinstance(data["capacity"], int) and data["capacity"] >= 0
        assert data["capacity"] > 0 or edges[(v, u)]["capacity"] > 0
        # the flow Edmonds-Karp left: antisymmetric and within capacity
        assert data["flow"] == -edges[(v, u)]["flow"]
        assert data["flow"] <= data["capacity"]
    for node in residual.nodes:
        if node not in (SOURCE, SINK):
            assert sum(data["flow"] for data in succ[node].values()) == 0, node  # conserved
    assert sum(data["flow"] for data in succ[SOURCE].values()) == value
    assert residual.graph["inf"] == (3 * sum(capacities.values()) or 1)


def _assert_max_flow_matches_reference(monkeypatch, graphs):
    """max_flow equals the reference on each graph, never asks networkx for a residual network,
    and leaves a consistent residual network and flow behind each solve."""
    # the reference solve builds a residual network itself, so every reference comes first
    cases = [(where, graph, _reference_max_flow(graph)) for where, graph in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("max_flow must pass its own residual network")

    monkeypatch.setattr(edmondskarp_module, "build_residual_network", refuse)
    solves = []
    solve = nx.maximum_flow_value

    def recording(graph, *args, **kwargs):
        capacities = {(u, v): capacity for u, v, capacity in graph.edges(data="capacity")}
        value = solve(graph, *args, **kwargs)
        solves.append((kwargs["residual"], capacities, value))
        return value

    monkeypatch.setattr(nx, "maximum_flow_value", recording)
    for where, graph, reference in cases:
        assert max_flow(graph) == reference, where
        (solved,) = solves
        _assert_consistent_residual(*solved)
        scale = math.lcm(1, *(e.capacity.denominator for e in graph.edges if e.capacity is not None))
        assert solved[2] == reference * scale, where
        solves.clear()


def test_max_flow_matches_reference_on_gstar_sweep(monkeypatch):
    _assert_max_flow_matches_reference(monkeypatch, _gstar_sweep_graphs(max_k=4, max_d=6))


def test_max_flow_matches_reference_on_random_histories(monkeypatch):
    graphs = (
        ((seed, index), graph)
        for seed, count in ((2024, 200), (77, 40))
        for index, graph in _history_graphs(seed, count)
    )
    _assert_max_flow_matches_reference(monkeypatch, graphs)


_NODES = ("S", "DC", "a", "b", "c", "d")
_CAPACITIES = st.one_of(
    st.none(), st.just(Fraction(0)), fractions_between(0, 3, max_denominator=6)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES), _CAPACITIES), max_size=14))
def test_max_flow_matches_reference_on_random_graphs(edges):
    # unbounded edges, parallel edges, self-loops, edges into S and out of DC all occur
    graph = _graph(*edges)
    reference = _reference_max_flow(graph)
    if reference <= _finite_total(graph):
        assert max_flow(graph) == reference
    else:  # an all-unbounded path: both values only need to exceed every finite cut
        assert max_flow(graph) > _finite_total(graph)


def test_max_flow_unbounded_path_exceeds_every_finite_capacity():
    graph = _graph(("S", "v", None), ("v", "DC", None), ("S", "w", F(1, 3)), ("w", "DC", F(1, 2)))
    assert max_flow(graph) > _finite_total(graph) == F(5, 6)


def test_max_flow_inner_unbounded_edge_keeps_the_bound_rule():
    # u and w merge into S and DC; u->w is left as an S->DC edge of capacity 1 + finite total
    graph = _graph(("S", "u", None), ("u", "w", None), ("w", "DC", None), ("a", "b", F(1, 3)))
    assert max_flow(graph) == _reference_max_flow(graph) == F(2, 3)
    # an inner unbounded edge between finite edges is not a bottleneck
    graph = _graph(("S", "u", F(1, 2)), ("u", "w", None), ("w", "DC", F(1, 3)))
    assert max_flow(graph) == F(1, 3)


def test_max_flow_of_empty_graphs_is_zero():
    assert max_flow(_graph()) == 0
    assert max_flow(_graph(("S", "a", None), ("b", "DC", None))) == 0


def _solves(monkeypatch):
    """Record the residual network of each networkx solve that max_flow makes."""
    residuals = []
    solve = nx.maximum_flow_value

    def recording(graph, *args, **kwargs):
        residuals.append(graph)
        return solve(graph, *args, **kwargs)

    monkeypatch.setattr(nx, "maximum_flow_value", recording)
    return residuals


def test_max_flow_prunes_a_heavy_branch_that_cannot_reach_the_collector(monkeypatch):
    # a and b are fed from the source with far more than the live path carries, but their
    # only way on is a zero-capacity pair; c is live yet also feeds the dead d
    graph = _graph(
        ("S", "a", None),
        ("a", "b", F(1000)),
        ("S", "b", F(500, 3)),
        ("b", "c", F(0)),
        ("S", "c", F(1, 3)),
        ("c", "d", F(700)),
        ("d", "e", F(700)),
        ("c", "DC", F(1, 2)),
    )
    expected = _reference_max_flow(graph)
    residuals = _solves(monkeypatch)
    assert max_flow(graph) == expected == F(1, 3)
    (residual,) = residuals
    assert set(residual) == {"S", "c", "DC"}
    assert {(u, v): data["capacity"] for u, v, data in residual.edges(data=True)} == {
        ("S", "c"): 2, ("c", "S"): 0, ("c", "DC"): 3, ("DC", "c"): 0
    }


def test_max_flow_with_zero_capacity_and_antiparallel_pairs(monkeypatch):
    graph = _graph(
        ("S", "a", F(1)),
        ("a", "b", F(2, 3)),
        ("b", "a", F(1, 2)),
        ("a", "c", F(1, 4)),
        ("c", "a", F(0)),
        ("S", "b", F(1, 6)),
        ("b", "c", F(1, 3)),
        ("c", "b", F(1, 5)),
        ("b", "DC", F(1, 2)),
        ("c", "DC", F(1)),
        ("S", "c", F(0)),
    )
    expected = _reference_max_flow(graph)
    residuals = _solves(monkeypatch)
    assert max_flow(graph) == expected
    (residual,) = residuals
    capacities = {(u, v): data["capacity"] for u, v, data in residual.edges(data=True)}
    scale = 60
    # an antiparallel pair keeps both capacities; a zero pair is only present as a reverse
    assert capacities[("a", "b")] == 40 and capacities[("b", "a")] == 30
    assert capacities[("b", "c")] == 20 and capacities[("c", "b")] == 12
    assert capacities[("a", "c")] == 15 and capacities[("c", "a")] == 0
    assert ("S", "c") not in capacities and ("c", "S") not in capacities
    assert residual.graph["inf"] == 3 * scale * sum(
        F(c) for c in (1, F(2, 3), F(1, 2), F(1, 4), F(1, 6), F(1, 3), F(1, 5), F(1, 2), 1)
    )


def test_max_flow_scales_through_the_module_lcm_once_per_solve(monkeypatch):
    # the benchmark's scale-size counter replaces cutflow.math.lcm, so the scale must come from it
    calls = []

    def lcm(*values):
        calls.append(values)
        return math.lcm(*values)

    monkeypatch.setattr(cutflow, "math", types.SimpleNamespace(**{**vars(math), "lcm": lcm}))
    graphs = [graph for _, graph in _history_graphs(77, 6)] + [build_gstar(B_SMALL, F(3, 8), F(1, 4)), _graph()]
    for graph in graphs:
        max_flow(graph)
    assert len(calls) == len(graphs)


def _with_a_new_fraction_per_edge(graph):
    return FlowGraph(tuple(
        FlowEdge(tail, head, None if capacity is None else Fraction(capacity.numerator, capacity.denominator))
        for tail, head, capacity in graph.edges
    ))


def test_max_flow_reads_shared_and_separate_capacity_objects_alike(monkeypatch):
    # the builders share one Fraction per capacity; max_flow scales each distinct object
    # once, which must neither merge two edges' capacities nor miss one
    a, b2 = F(11, 20), F(3, 20)
    shared = [
        build_gstar(B_SMALL, F(3, 8), F(1, 4)),
        history_graph(A_SMALL, a, b2, [(0, [1, 2], [3]), (1, [0, 2], [3]), (2, [0, 1], [3])], [2, 3]),
        # one object on two parallel edges counts twice; equal values on other objects count apart
        _graph(("S", "a.in", None), ("a.in", "a.out", a), ("a.in", "a.out", a), ("a.in", "a.out", F(11, 20)),
               ("a.out", "b", b2), ("a.out", "b", b2), ("b", "DC", F(1))),
    ]
    references = [_reference_max_flow(graph) for graph in shared]
    assert references[2] == F(3, 10)
    residuals = _solves(monkeypatch)
    for graph, reference in zip(shared, references):
        finite = [edge.capacity for edge in graph.edges if edge.capacity is not None]
        separate = _with_a_new_fraction_per_edge(graph)
        assert len({id(capacity) for capacity in finite}) < len(finite)  # some edges share one object
        assert len({id(edge.capacity) for edge in separate.edges if edge.capacity is not None}) == len(finite)
        assert max_flow(graph) == max_flow(separate) == reference
        first, second = (
            {(u, v): data["capacity"] for u, v, data in residual.edges(data=True)} for residual in residuals
        )
        assert first == second
        residuals.clear()


@pytest.mark.parametrize(
    "call, error",
    [
        # a negative capacity silently removed flow
        (lambda: max_flow(_graph(("S", "DC", F(-1)), ("S", "DC", F(2)))), NonPositiveError),
        (lambda: max_flow(_graph(("S", "a", F(1)), ("a", "DC", -1))), NonPositiveError),
        (lambda: to_edge_list(_graph(("S", "DC", F(-1, 2)))), NonPositiveError),
        (lambda: max_flow(_graph(("S", "DC", 0.5))), UsageError),
        (lambda: max_flow(_graph(("S", "DC", float("nan")))), UsageError),
        (lambda: max_flow(_graph(("S", "DC", True))), UsageError),
        (lambda: max_flow(_graph(("S", "DC", "1/2"))), UsageError),
        (lambda: max_flow(_graph(("S", "DC", [1]))), UsageError),
        (lambda: to_edge_list(_graph(("S", "DC", 0.5))), UsageError),
        (lambda: max_flow(None), UsageError),
        (lambda: max_flow(build_gstar(A_SMALL, 1, 1).edges), UsageError),
        (lambda: to_edge_list(None), UsageError),
        # malformed edges and unhashable names raised bare ValueError and TypeError
        (lambda: max_flow(FlowGraph(edges=(("S", "DC"),))), InvalidConstructionError),
        (lambda: max_flow(FlowGraph(edges=(("S", "DC", F(1), 0),))), InvalidConstructionError),
        (lambda: max_flow(FlowGraph(edges=(7,))), InvalidConstructionError),
        (lambda: max_flow(FlowGraph(edges=None)), InvalidConstructionError),
        (lambda: max_flow(_graph(("S", ["a"], F(1)), ("a", "DC", None))), InvalidConstructionError),
        (lambda: max_flow(_graph(("S", "a", None), (["a"], "DC", None))), InvalidConstructionError),
        (lambda: to_edge_list(FlowGraph(edges=(("S", "DC"),))), InvalidConstructionError),
        (lambda: to_edge_list(FlowGraph(edges=(7,))), InvalidConstructionError),
        (lambda: to_edge_list(FlowGraph(edges=None)), InvalidConstructionError),
    ],
    ids=["negative", "negative-int", "negative-edge-list", "float", "nan", "bool", "str", "list",
         "float-edge-list", "none-graph", "edge-tuple-graph", "none-edge-list", "pair-edge",
         "four-edge", "int-edge", "none-edges", "list-name-finite", "list-name-unbounded",
         "pair-edge-list", "int-edge-list", "none-edges-edge-list"],
)
def test_max_flow_and_edge_list_refuse_bad_graphs_with_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_plain_tuple_edges_have_nodes():
    # FlowGraph.nodes read edge.tail and edge.head, which a plain tuple does not have
    graph = FlowGraph(edges=(("S", "a", F(1)), ("a", "DC", None)))
    assert graph.nodes == ("S", "DC", "a")
    assert max_flow(graph) == 1
    assert to_edge_list(graph) == "S a 1/1\na DC inf"


@pytest.mark.parametrize(
    "edges",
    [
        (("S", ["a"], F(1)), ("a", "DC", None)),
        (("S", "a", None), (["a"], "DC", None)),
        # max_flow skipped a zero-capacity edge before it hashed the edge's names
        (("S", ["a"], F(0)), ("S", "DC", F(1))),
        (("S", "DC"),),
        (("S", "DC", F(1), 0),),
        (7,),
    ],
    ids=["list-name-finite", "list-name-unbounded", "list-name-zero", "pair-edge", "four-edge", "int-edge"],
)
def test_max_flow_edge_list_and_nodes_refuse_the_same_graphs(edges):
    # to_edge_list printed a list name that max_flow refused, and nodes raised a bare error
    graph = FlowGraph(edges=edges)
    for read in (max_flow, to_edge_list, lambda graph: graph.nodes):
        with pytest.raises(InvalidConstructionError):
            read(graph)


def test_max_flow_reads_any_iterable_of_edges_once():
    # an iterator of edges was used up by the first of max_flow's two passes, which returned 0
    edges = build_gstar(A_SMALL, F(11, 20), F(3, 20)).edges
    value = max_flow(FlowGraph(edges=edges))
    assert value > 0
    assert max_flow(FlowGraph(edges=iter(edges))) == max_flow(FlowGraph(edges=list(edges))) == value
    assert max_flow(FlowGraph(edges=iter(_graph(("S", "a", F(1)), ("a", "DC", F(1))).edges))) == 1
    assert to_edge_list(FlowGraph(edges=iter(edges))) == to_edge_list(FlowGraph(edges=edges))
    graph = FlowGraph(edges=iter(edges))
    assert graph.nodes == graph.nodes == FlowGraph(edges=edges).nodes
    assert FlowGraph(edges=edges).edges is edges  # a tuple is kept, not copied


def test_max_flow_takes_int_capacities_as_they_are():
    graph = _graph(("S", "a", 2), ("a", "DC", F(3, 2)), ("S", "DC", 0))
    assert max_flow(graph) == F(3, 2)
    assert to_edge_list(graph) == "S a 2/1\na DC 3/2\nS DC 0/1"


@pytest.mark.parametrize(
    "graph",
    [
        build_gstar(CONFIG_A, F(1, 2), F(1, 7)),
        random_history_graph(CONFIG_B, F(1, 2), F(1, 7), Random(3), failures=40),
    ],
    ids=["gstar", "history"],
)
def test_builders_format_each_node_name_once(graph):
    # every edge out of (or into) a node holds the one str the builder made for it,
    # so max_flow hashes each name once however many edges it ends
    names = {}
    for edge in graph.edges:
        for end in (edge.tail, edge.head):
            assert names.setdefault(end, end) is end, end
    assert len(names) == len(graph.nodes)


def test_edge_list_rendering():
    graph = build_gstar(A_SMALL, F(11, 20), F(3, 20))
    lines = to_edge_list(graph).splitlines()
    assert len(lines) == len(graph.edges)
    assert all(re.fullmatch(r"\S+ \S+ (\d+/\d+|inf)", line) for line in lines)
    assert "S o0.in inf" in lines
    assert "x0.in x0.out 11/20" in lines
    assert "x0.out x1.in 3/10" in lines


def test_edge_list_prints_capacities_beyond_the_int_string_limit():
    # str() of an int over 4300 digits raises by default, and so does int() of such a string,
    # so the huge capacities are compared as strings
    lines = to_edge_list(build_gstar(make_params(2, 2, 1), F(1, 2), 10**5000)).splitlines()
    huge = "1" + "0" * 5000 + "/1"
    capacities = [line.rsplit(" ", 1)[1] for line in lines]
    assert set(capacities) == {"inf", "1/2", huge}
    # kprime is 1, so every helper edge, cheap or expensive, carries beta2
    assert all(capacity == huge for line, capacity in zip(lines, capacities) if ".out x" in line)


# ---------------------------------------------------------------------------
# agreement reports


def test_default_grid_covers_breakpoints_and_both_sides():
    grid = default_beta2_grid(A_SMALL)
    curve = tradeoff_curve(A_SMALL)
    assert set(curve.breakpoints()) <= set(grid)
    assert min(grid) < beta2_min(A_SMALL)  # an infeasible probe is always included
    assert max(grid) > curve.breakpoints()[-1]
    assert all(b2 > 0 for b2 in grid)
    assert grid == sorted(set(grid))


def test_verify_closed_form_explicit_grid():
    grid = [F(1, 8), F(9, 64), F(3, 20), F(1, 6), F(1, 4)]
    reports = verify_closed_form(A_SMALL, grid)
    assert [report.beta2 for report in reports] == grid
    assert [report.alpha_closed for report in reports] == [
        F(5, 8),
        F(37, 64),
        F(11, 20),
        F(1, 2),
        F(1, 2),
    ]
    for report in reports:
        assert report.ok
        assert report.alpha_oracle == report.alpha_closed
        assert report.maxflow_at_alpha == 1


def test_verify_closed_form_certifies_infeasibility(monkeypatch):
    (report,) = verify_closed_form(A_SMALL, [F(1, 10)])
    assert report.alpha_closed is None and report.alpha_oracle is None
    assert report.maxflow_at_alpha == F(4, 5)  # saturated graph still falls short
    assert report.agree and report.flow_ok and report.ok
    # one route infeasible and the other not is a disagreement, either way round
    monkeypatch.setattr(cutflow, "alpha_min_oracle", lambda params, beta2: F(1))
    (report,) = verify_closed_form(A_SMALL, [F(1, 10)])
    assert report.alpha_closed is None and report.alpha_oracle == 1
    assert not report.agree and report.flow_ok and not report.ok

    def starved(params, beta2):
        raise InsufficientRepairBandwidthError("starved")

    monkeypatch.setattr(cutflow, "alpha_min_oracle", starved)
    (report,) = verify_closed_form(A_SMALL, [F(3, 20)])
    assert report.alpha_closed == F(11, 20) and report.alpha_oracle is None
    assert not report.agree and report.flow_ok and not report.ok


def test_verify_closed_form_probes_infeasibility_without_the_cut_oracle(monkeypatch):
    # the flow route's probe alpha must not come from cut_terms: with the oracle's terms
    # zeroed, the probe still exceeds what any storage node can pass on, so no alpha edge binds
    params = make_params(2, 2, 1, kprime=2, file_size=100)
    b2 = F(10)  # below beta2_min = 25/2
    monkeypatch.setattr(cutflow, "cut_terms", lambda params, beta2: [F(0)] * params.k)
    (report,) = verify_closed_form(params, [b2])
    assert report.alpha_closed is None
    assert report.maxflow_at_alpha == max_flow(build_gstar(params, 10**6, b2))


def test_verify_closed_form_default_grid_samples():
    for params in SAMPLE_CONFIGS:
        assert all(report.ok for report in verify_closed_form(params))


def test_verification_sweep_size_and_shape():
    configs = list(verification_sweep())
    assert len(configs) == 580
    assert len({(p.k, p.d1, p.d2, p.kprime) for p in configs}) == 580
    assert all(p.n == p.d + 1 for p in configs)
    assert all(p.k <= p.d <= 7 and p.k <= 5 for p in configs)
    assert all(p.kprime in (1, 2, 3, 5) for p in configs)


def test_verification_sweep_reads_an_iterator_of_kprimes_once():
    configs = list(verification_sweep(kprimes=(1, 2)))
    assert len(configs) == 290
    assert list(verification_sweep(kprimes=iter((1, 2)))) == configs


def test_verification_sweep_stops_k_at_max_d():
    # no config has k > d, so a max_k past max_d lists the same configs, and at once
    assert list(verification_sweep(max_k=10**100, max_d=3)) == list(verification_sweep(max_k=3, max_d=3))


# ---------------------------------------------------------------------------
# random histories


def test_random_history_is_deterministic():
    first = random_history_graph(A_SMALL, F(11, 20), F(3, 20), Random(7), failures=5)
    second = random_history_graph(A_SMALL, F(11, 20), F(3, 20), Random(7), failures=5)
    assert first == second
    third = random_history_graph(A_SMALL, F(11, 20), F(3, 20), Random(8), failures=5)
    assert third != first


def test_random_history_without_failures_reads_originals():
    graph = random_history_graph(B_SMALL, F(3, 8), F(1, 4), Random(0), failures=0)
    assert [node for node in graph.nodes if node.endswith(".in")] == [
        f"o{i}.in" for i in range(B_SMALL.n)
    ]
    reads = [edge for edge in graph.edges if edge.head == "DC"]
    assert len(reads) == B_SMALL.k
    assert max_flow(graph) == B_SMALL.k * F(3, 8)


def test_random_history_respects_helper_counts():
    params = make_params(3, 3, 2, kprime=2, n=7)
    graph = random_history_graph(params, F(1, 2), F(1, 10), Random(3), failures=6)
    b1, b2 = F(1, 5), F(1, 10)
    for t in range(6):
        downloads = _downloads_into(graph, f"x{t}")
        assert len(downloads) == params.d
        amounts = sorted(capacity for _, capacity in downloads)
        assert amounts == [b2] * params.d2 + [b1] * params.d1


def test_random_history_min_cut_never_beats_the_adversarial_bound():
    rng = Random(123)
    params = make_params(3, 2, 2, kprime=3, n=6)
    b2 = beta2_min(params)
    bound = alpha_min(params, b2)
    for _ in range(25):
        graph = random_history_graph(params, bound, b2, rng, failures=rng.randrange(7))
        assert max_flow(graph) >= cut_capacity_sum(params, bound, b2)


def test_random_history_tier_pinning():
    # a pinned tiering is repair_history's events built by history_graph; at alpha_min every
    # history and every collector reach the file size
    a, b2 = F(11, 20), F(3, 20)
    assert alpha_min(A_SMALL, b2) == a
    for n_cheap in (A_SMALL.d1, A_SMALL.n - A_SMALL.d2):
        events = list(repair_history(A_SMALL, n_cheap, 3, Random(1)))
        for readers in combinations(range(A_SMALL.n), A_SMALL.k):
            assert max_flow(history_graph(A_SMALL, a, b2, events, readers)) >= A_SMALL.file_size
    with pytest.raises(InvalidConstructionError):
        repair_history(A_SMALL, 1, 1, Random(1))
    with pytest.raises(InvalidConstructionError):
        repair_history(A_SMALL, A_SMALL.n, 1, Random(1))
    with pytest.raises(NonPositiveError):
        random_history_graph(A_SMALL, a, b2, Random(1), failures=-1)
    for failures in (2.5, True):
        with pytest.raises(NonIntegerDownloadError, match="must be an integer count"):
            random_history_graph(A_SMALL, a, b2, Random(1), failures)
    for n_cheap in (2.5, True):
        with pytest.raises(NonIntegerDownloadError, match="must be an integer count"):
            repair_history(A_SMALL, n_cheap, 1, Random(1))


def test_history_graph_of_a_hand_written_history():
    # x1 is helped by the earlier newcomer x0, and the collector reads the replaced id 2 (x2)
    events = [(0, [1, 2], [3]), (1, [0, 2], [3]), (2, [0, 1], [3])]
    a, b1, b2 = F(11, 20), F(3, 10), F(3, 20)
    graph = history_graph(A_SMALL, a, b2, events, [2, 3])
    originals = [
        edge for i in range(4) for edge in (FlowEdge(f"o{i}.in", f"o{i}.out", a), FlowEdge(SOURCE, f"o{i}.in", None))
    ]
    assert list(graph.edges) == originals + [
        FlowEdge("x0.in", "x0.out", a),
        FlowEdge("o1.out", "x0.in", b1),
        FlowEdge("o2.out", "x0.in", b1),
        FlowEdge("o3.out", "x0.in", b2),
        FlowEdge("x1.in", "x1.out", a),
        FlowEdge("x0.out", "x1.in", b1),
        FlowEdge("o2.out", "x1.in", b1),
        FlowEdge("o3.out", "x1.in", b2),
        FlowEdge("x2.in", "x2.out", a),
        FlowEdge("x0.out", "x2.in", b1),
        FlowEdge("x1.out", "x2.in", b1),
        FlowEdge("o3.out", "x2.in", b2),
        FlowEdge("x2.out", SINK, None),
        FlowEdge("o3.out", SINK, None),
    ]
    assert max_flow(graph) == 2 * a  # each reader's whole alpha gets through


@pytest.mark.parametrize("params", [CONFIG_A, CONFIG_B, B_SMALL], ids=["A", "B", "B_SMALL"])
def test_random_history_graph_builds_its_draws_with_history_graph(params):
    b2 = 2 * beta2_min(params)
    a = alpha_min(params, b2)
    for seed in range(60):
        failures = seed % (2 * params.n)
        rng = Random(seed)
        n_cheap = rng.randint(params.d1, params.n - params.d2)
        events = list(repair_history(params, n_cheap, failures, rng))
        readers = rng.sample(range(params.n), params.k)
        assert random_history_graph(params, a, b2, Random(seed), failures) == history_graph(
            params, a, b2, events, readers
        ), seed


def test_random_history_edge_lists_match_frozen_digest():
    # configs A and B at twice beta2_min, frozen so a change of the drawn histories shows;
    # hashed after solving, since max_flow must leave its graph untouched
    lists = []
    for params in (CONFIG_A, CONFIG_B):
        b2 = 2 * beta2_min(params)
        graph = random_history_graph(params, alpha_min(params, b2), b2, Random(5), failures=30)
        before = to_edge_list(graph)
        assert max_flow(graph) >= params.file_size
        assert to_edge_list(graph) == before
        lists.append(before)
    digest = hashlib.sha256("\n".join(lists).encode()).hexdigest()
    assert digest == "6ea67e705e7ad8d23b41dd3b4473bb625cea9384fa0345030b3ea6ec5ab1ad0c"
