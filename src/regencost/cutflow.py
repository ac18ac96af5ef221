"""Information-flow-graph verification of the closed-form tradeoff.

Repair histories become directed graphs: each stored node is an in/out
pair joined by an edge of capacity alpha, helpers feed newcomers through
edges of capacity beta1 (cheap tier) or beta2 (expensive tier), and a data
collector reads k nodes over unbounded edges.  :func:`build_gstar` builds
the worst-case history, :func:`history_graph` any given one from its
repair events and readers, and :func:`random_history_graph` draws a
history and its readers, then builds them with :func:`history_graph`.
The file is recoverable in a history exactly when the source/collector
max flow reaches the file size, so the closed forms in
:mod:`regencost.tradeoff` can be checked three independent ways:

* a clipped-sum evaluation of the adversarial cut,
* a piecewise-linear inversion of that sum (no closed forms involved),
* exact max flow on the explicitly built worst-case graph.

All capacities stay rational; max flow runs on integer-scaled capacities
so the comparisons are exact, never approximate.  The solve is networkx's
Edmonds-Karp on the graph with terminal-adjacent unbounded edges merged,
on a residual network pruned to the nodes that reach the collector.  That
network's successor and predecessor dicts are filled here in one pass and
handed to networkx as a DiGraph that Edmonds-Karp reads as plain dicts,
not through networkx's adjacency views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

import networkx as nx
from networkx.algorithms.flow import edmonds_karp

from . import tradeoff
from .errors import (
    InsufficientHelpersError,
    InsufficientRepairBandwidthError,
    InvalidConstructionError,
    NonPositiveError,
    RegenError,
    UsageError,
)
from .params import (
    RationalLike,
    SystemParams,
    as_count,
    as_instance,
    as_node_ids,
    as_nonnegative,
    as_repair_event,
    as_values,
    exact_str,
    repair_history,
)


# ---------------------------------------------------------------------------
# the adversarial cut, evaluated directly


def cut_terms(params: SystemParams, beta2: RationalLike) -> list[Fraction]:
    """Unclipped in-capacities of the worst-case newcomers, in replacement order.

    The i earlier newcomers, all on the collector side of the cut, fill
    min(i, d1) of newcomer i's cheap helper slots and max(i - d1, 0) of its
    expensive ones.  Term i is its download from the originals: d1 -
    min(i, d1) cheap helpers at beta1 = kprime * beta2 and d2 - max(i - d1, 0)
    expensive ones at beta2; it competes with alpha.  This is the helper
    rule of :func:`build_gstar`, counted here without building the graph.

    Per unit beta2, term m is an integer line D_m = a_m*kprime + b_m, and neither
    coefficient grows with m.  The oracle's piece i reads S_i, the sum of the i smallest
    terms, and the (i+1)-th smallest; both are sums of arithmetic progressions in m, so
    in each of ``tradeoff._piece``'s three regions they are polynomials of degree <= 2
    in each of its four variables, as the closed form's are.
    """
    b2 = as_nonnegative(beta2, "beta2")
    k, d1, d2, kp = params.k, params.d1, params.d2, params.kprime
    return [((d1 - min(i, d1)) * kp + d2 - max(i - d1, 0)) * b2 for i in range(k)]


def cut_capacity_sum(params: SystemParams, alpha: RationalLike, beta2: RationalLike) -> Fraction:
    """Capacity of the adversarial cut: sum of min(term, alpha) over newcomers."""
    a = as_nonnegative(alpha, "alpha")
    return sum(min(term, a) for term in cut_terms(params, beta2))


def alpha_min_oracle(params: SystemParams, beta2: RationalLike) -> Fraction:
    """Invert the clipped cut sum for the least alpha with capacity >= file size.

    Sorts the terms and walks the linear pieces of the concave sum; this
    never touches the closed-form breakpoints, so agreement with
    :func:`regencost.tradeoff.alpha_min` is a genuine cross-check.
    """
    terms = sorted(cut_terms(params, beta2))
    target = params.file_size
    if sum(terms) < target:
        raise InsufficientRepairBandwidthError(
            f"total cut capacity {exact_str(sum(terms))} cannot reach file size {exact_str(target)}"
        )
    saturated = Fraction(0)
    for index, term in enumerate(terms[:-1]):
        candidate = (target - saturated) / (len(terms) - index)
        if candidate <= term:
            return candidate
        saturated += term
    # the last piece: the guard above keeps what is left within the largest term
    return target - saturated


# ---------------------------------------------------------------------------
# explicit flow graphs


class FlowEdge(NamedTuple):
    tail: str
    head: str
    capacity: Fraction | None  # None marks an unbounded edge


# the terminals of every flow graph
SOURCE = "S"
SINK = "DC"


@dataclass(frozen=True)
class FlowGraph:
    """A repair history as a capacitated DAG from SOURCE to SINK: just its edges.

    ``edges`` is read once, into a tuple (a tuple is kept as it is, not
    copied), so every later pass over it sees the same edges, also when
    an iterator was given; edges that cannot be iterated raise
    InvalidConstructionError.
    """

    edges: tuple[FlowEdge, ...]

    def __post_init__(self) -> None:
        try:
            edges = tuple(self.edges)
        except TypeError as exc:
            raise _malformed(exc) from None
        object.__setattr__(self, "edges", edges)

    @property
    def nodes(self) -> tuple[str, ...]:
        """SOURCE and SINK, then every other edge end in order of first appearance.

        An edge that is not a ``(tail, head, capacity)`` triple, or a node
        name that cannot be hashed, raises InvalidConstructionError, as in
        :func:`max_flow` and :func:`to_edge_list`.
        """
        try:
            ends = [name for tail, head, _ in self.edges for name in (tail, head)]
            return tuple(dict.fromkeys((SOURCE, SINK, *ends)))
        except (TypeError, ValueError) as exc:
            raise _malformed(exc) from None


class _GraphBuilder:
    """A repair history's edges, one stored node (an in/out pair joined by alpha) at a time.

    Originals are fed by the source over unbounded edges; a newcomer
    downloads beta1 = kprime * beta2 from each cheap helper, then beta2 from each expensive one.
    Each node's names are formatted once: ``add_original`` and
    ``add_newcomer`` return the node's out-end (``"x3.out"``), and helpers
    and collector reads are given as out-ends, so every edge out of a node
    shares one ``str``, whose hash is computed once.
    """

    def __init__(self, params: SystemParams, alpha: RationalLike, beta2: RationalLike) -> None:
        self.alpha = as_nonnegative(alpha, "alpha")
        self.beta2 = as_nonnegative(beta2, "beta2")
        self.beta1 = params.kprime * self.beta2
        self.edges: list[FlowEdge] = []

    def add_original(self, name: str) -> str:
        head, out = f"{name}.in", f"{name}.out"
        self.edges += (FlowEdge(head, out, self.alpha), FlowEdge(SOURCE, head, None))
        return out

    def add_newcomer(self, name: str, cheap: Iterable[str], expensive: Iterable[str]) -> str:
        head, out = f"{name}.in", f"{name}.out"
        self.edges.append(FlowEdge(head, out, self.alpha))
        self.edges += (FlowEdge(helper, head, self.beta1) for helper in cheap)
        self.edges += (FlowEdge(helper, head, self.beta2) for helper in expensive)
        return out

    def add_collector_read(self, out: str) -> None:
        self.edges.append(FlowEdge(out, SINK, None))


def build_gstar(params: SystemParams, alpha: RationalLike, beta2: RationalLike) -> FlowGraph:
    """Build the adversarial history: k newcomers, each helped by all previous ones.

    The originals are d1 cheap nodes, then d2 expensive ones; each
    newcomer tops its helper sets up from them to d1 cheap and d2
    expensive helpers.  Newcomer j's cheap helpers are the first d1
    earlier newcomers and the first d1 - j cheap originals (none once
    j >= d1); its expensive helpers are the other earlier newcomers and
    the first d - j expensive originals, all of them while j <= d1.
    The collector reads exactly the k newcomers.
    """
    k, d, d1 = params.k, params.d, params.d1
    builder = _GraphBuilder(params, alpha, beta2)
    cheap_pool = [builder.add_original(f"o{i}") for i in range(d1)]
    expensive_pool = [builder.add_original(f"o{i}") for i in range(d1, d)]
    newcomers: list[str] = []
    for j in range(k):
        cheap = newcomers[:d1] + cheap_pool[: max(d1 - j, 0)]
        expensive = newcomers[d1:] + expensive_pool[: d - j]
        out = builder.add_newcomer(f"x{j}", cheap, expensive)
        builder.add_collector_read(out)
        newcomers.append(out)
    return FlowGraph(edges=tuple(builder.edges))


class _ResidualNetwork(nx.DiGraph):
    """A DiGraph over successor and predecessor dicts filled by :func:`max_flow`.

    Edmonds-Karp reads ``succ``, ``pred`` and ``R[u]`` at every step of its
    searches and augments; here each returns the plain dict rather than a
    networkx view, so each read is a dict lookup, not a Python call.
    """

    def __init__(self, succ: dict, pred: dict, inf: int) -> None:
        super().__init__(inf=inf)
        # set together, as networkx's cache-resetting descriptors on these names expect
        self._adj = self._succ = succ
        self._pred = pred
        self._node = {node: {} for node in succ}

    @property
    def succ(self) -> dict:
        return self._succ

    @property
    def pred(self) -> dict:
        return self._pred

    def __getitem__(self, node: str) -> dict:
        return self._succ[node]


def _check_capacity(capacity: object) -> None:
    """A finite capacity is a nonnegative int or Fraction: UsageError or NonPositiveError otherwise."""
    if isinstance(capacity, bool) or not isinstance(capacity, (int, Fraction)):
        raise UsageError(f"an edge capacity must be a Fraction, an int or None, got {type(capacity).__name__}")
    if capacity.numerator < 0:  # a Fraction's sign is its numerator's, and this skips Fraction's comparison
        raise NonPositiveError(f"an edge capacity must be nonnegative, got {exact_str(capacity)}")


def _malformed(exc: Exception) -> InvalidConstructionError:
    """The error for graph edges that are not ``(tail, head, capacity)`` triples of hashable names."""
    return InvalidConstructionError(f"graph edges must be (tail, head, capacity) triples of hashable names: {exc}")


def max_flow(graph: FlowGraph) -> Fraction:
    """Exact max flow: scale capacities to integers, merge the terminals, run networkx.

    A node fed by an unbounded edge from the source lies on the source side
    of every finite cut, and a node read over an unbounded edge by the sink
    lies on the sink side, so each is merged into its terminal (the source
    wins a node joined to both).  Self-loops, edges into the source and
    edges out of the sink cross no cut and are dropped.  Every finite cut
    keeps its capacity, so the value is unchanged whenever it is finite;
    remaining unbounded edges get a capacity above all finite ones
    together.  Edmonds-Karp is strongly polynomial, so the size of the
    integer scale does not slow it down.

    A graph carries few distinct capacity objects (a repair history three:
    alpha, beta1 and beta2), so a first pass over the edges collects them
    by ``id``, beside the terminal merges; the edges keep each one alive
    for the whole call, so no id is reused.  Each distinct capacity
    is checked once and scaled once, by the one lcm of their
    denominators.  A second pass reads each edge's integer by identity
    and adds it into ``into[head][tail]``, the merged capacities grouped
    by head; zero contributions are skipped.  :class:`FlowGraph` holds its
    edges as a tuple, so both passes read the same edges.  An argument
    that is not a :class:`FlowGraph`, or a capacity that is not an int, a
    Fraction or None, raises UsageError; a negative capacity raises NonPositiveError;
    an edge that is not a ``(tail, head, capacity)`` triple, or a node
    name that cannot be hashed, raises InvalidConstructionError.

    The residual network Edmonds-Karp runs on is built here and passed as
    ``residual=``, so networkx copies no graph.  It holds only the
    positive-capacity pairs whose head can reach the sink: flow into a
    node that cannot reach the sink has nowhere to go, so dropping those
    pairs leaves the value as it is.  One walk over ``into``, back from
    the sink, finds those heads and places each one's pairs in the
    network's successor and predecessor dicts, the layout of a networkx
    DiGraph, and :class:`_ResidualNetwork` hands Edmonds-Karp those dicts
    themselves where a DiGraph would wrap them in views.
    """
    edges = as_instance(graph, FlowGraph, "graph").edges
    try:
        side: dict[str, str] = {}
        distinct: dict[int, Fraction] = {}
        for tail, head, capacity in edges:
            if capacity is not None:
                distinct[id(capacity)] = capacity
            elif tail == SOURCE and head not in (SOURCE, SINK):
                side[head] = SOURCE
            elif head == SINK and tail not in (SOURCE, SINK):
                side.setdefault(tail, SINK)
        for capacity in distinct.values():
            _check_capacity(capacity)
        scale = math.lcm(1, *(capacity.denominator for capacity in distinct.values()))
        scaled = {key: capacity.numerator * (scale // capacity.denominator) for key, capacity in distinct.items()}
        into: dict[str, dict[str, int]] = {}
        finite_total = 0
        unbounded: list[tuple[str, str]] = []
        merged = side.get
        for tail, head, capacity in edges:
            # merged before a zero capacity is skipped, so every name is hashed, as FlowGraph.nodes hashes it
            tail = merged(tail, tail)
            head = merged(head, head)
            if capacity is not None:
                amount = scaled[id(capacity)]
                if not amount:
                    continue
                finite_total += amount
            if tail == head or head == SOURCE or tail == SINK:
                continue
            if capacity is None:
                unbounded.append((tail, head))
                continue
            tails = into.get(head)
            if tails is None:
                into[head] = {tail: amount}
            elif tail in tails:
                tails[tail] += amount
            else:
                tails[tail] = amount
    except RegenError:
        raise
    except (TypeError, ValueError) as exc:  # an edge that is not a triple, or an unhashable name
        raise _malformed(exc) from None
    bound = 1 + finite_total  # exceeds any cut made of finite edges
    for tail, head in unbounded:
        into.setdefault(head, {})[tail] = bound
    # Edmonds-Karp's residual network as networkx lays out a DiGraph: successor and
    # predecessor dicts with one entry per node, each edge dict shared by both.  The
    # nodes are the terminals and every node that reaches the sink, entered as the walk
    # back from the sink meets them; each head's pairs are placed when it is popped.
    # No pair leads into the source, so entering it up front is safe
    succ: dict[str, dict[str, dict[str, int]]] = {SOURCE: {}, SINK: {}}
    pred: dict[str, dict[str, dict[str, int]]] = {SOURCE: {}, SINK: {}}
    kept_total = 0
    stack = [SINK]
    while stack:
        head = stack.pop()
        tails = into.get(head)
        if tails is None:
            continue
        out_of_head, into_head = succ[head], pred[head]
        kept_total += sum(tails.values())
        for tail, capacity in tails.items():
            out_of_tail = succ.get(tail)
            if out_of_tail is None:
                out_of_tail = succ[tail] = {}
                pred[tail] = {}
                stack.append(tail)
            edge = out_of_tail.get(head)
            if edge is None:
                # each pair beside its reverse, which has capacity 0 unless it is a pair of its own
                out_of_tail[head] = into_head[tail] = {"capacity": capacity}
                out_of_head[tail] = pred[tail][head] = {"capacity": 0}
            else:  # placed first as the reverse of its own reverse
                edge["capacity"] = capacity
    # networkx's stand-in for an infinite capacity; no augmenting path can carry half of it
    residual = _ResidualNetwork(succ, pred, inf=3 * kept_total or 1)
    value = nx.maximum_flow_value(
        residual, SOURCE, SINK, flow_func=edmonds_karp, residual=residual
    )
    return Fraction(value, scale)


def to_edge_list(graph: FlowGraph) -> str:
    """One line per edge: `tail head num/den`, with `inf` for unbounded edges; num and den are
    printed in full at any size, past the interpreter's int-to-str digit limit too.

    The graph, its capacities, the shape of its edges and its node names
    are checked as :func:`max_flow` checks them: reading ``graph.nodes``
    refuses an edge that is not a triple and a name that cannot be hashed.
    """
    graph = as_instance(graph, FlowGraph, "graph")
    graph.nodes  # read for its check of the edges' shape and names
    lines = []
    for tail, head, capacity in graph.edges:
        if capacity is None:
            lines.append(f"{tail} {head} inf")
        else:
            _check_capacity(capacity)
            lines.append(f"{tail} {head} {exact_str(capacity.numerator)}/{exact_str(capacity.denominator)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# closed form vs oracle vs flow


@dataclass(frozen=True)
class CutReport:
    """Agreement record for one beta2: closed form vs oracle vs max flow.

    ``agree`` is exact equality of the two alpha routes (both infeasible
    counts as agreement); ``flow_ok`` asserts the graph route matched the
    clipped sum, reaching the file size exactly when feasible.
    """

    beta2: Fraction
    alpha_closed: Fraction | None
    alpha_oracle: Fraction | None
    maxflow_at_alpha: Fraction
    agree: bool
    flow_ok: bool

    @property
    def ok(self) -> bool:
        return self.agree and self.flow_ok


def default_beta2_grid(params: SystemParams) -> list[Fraction]:
    """Breakpoints, their midpoints, and breakpoints +- 1/1000 (positive only)."""
    breakpoints = tradeoff.tradeoff_curve(params).breakpoints()
    nudge = Fraction(1, 1000)
    grid = set(breakpoints)
    for left, right in zip(breakpoints, breakpoints[1:]):
        grid.add((left + right) / 2)
    for point in breakpoints:
        grid.add(point + nudge)
        if point - nudge > 0:
            grid.add(point - nudge)
    return sorted(grid)


def verify_closed_form(
    params: SystemParams,
    beta2_grid: Iterable[RationalLike] | None = None,
) -> list[CutReport]:
    """Compare alpha_min against the oracle and the graph on each grid point.

    A given grid must be a non-string iterable of beta2 values
    (UsageError otherwise) holding at least one of them
    (NonPositiveError otherwise): an empty check would pass vacuously.
    """
    if beta2_grid is None:
        grid = default_beta2_grid(params)
    else:
        grid = sorted({as_nonnegative(b2, "beta2") for b2 in as_values(beta2_grid, "beta2_grid", "beta2 values")})
        if not grid:
            raise NonPositiveError("beta2_grid must hold at least one beta2 value")
    reports = []
    for b2 in grid:
        try:
            closed: Fraction | None = tradeoff.alpha_min(params, b2)
        except InsufficientRepairBandwidthError:
            closed = None
        try:
            oracle: Fraction | None = alpha_min_oracle(params, b2)
        except InsufficientRepairBandwidthError:
            oracle = None
        # with no closed form, probe one above a newcomer's whole download (cut term 0, the largest),
        # more than any storage node can pass on: the graph itself must certify infeasibility, at an
        # alpha the oracle route did not give
        alpha = closed if closed is not None else params.gamma_per_beta2 * b2 + 1
        flow = max_flow(build_gstar(params, alpha, b2))
        M = params.file_size
        flow_ok = flow == cut_capacity_sum(params, alpha, b2) and (flow == M if closed is not None else flow < M)
        reports.append(
            CutReport(
                beta2=b2,
                alpha_closed=closed,
                alpha_oracle=oracle,
                maxflow_at_alpha=flow,
                agree=closed == oracle,
                flow_ok=flow_ok,
            )
        )
    return reports


def verification_sweep(
    max_k: int = 5,
    max_d: int = 7,
    kprimes: Iterable[RationalLike] = (1, 2, 3, 5),
) -> Iterator[SystemParams]:
    """Every (k, d1, d2, kprime) with k <= max_k, k <= d1+d2 <= max_d; n = d+1.

    ``max_k`` and ``max_d`` are counts of at least 1 and ``kprimes`` is a
    non-empty, non-string iterable, read once; all are checked when the
    sweep is created, so a sweep never covers zero configurations.  Each
    kprime goes to :class:`SystemParams` as given, which checks it.  No
    config has k > d, so k runs only to min(max_k, max_d) and a huge
    ``max_k`` costs nothing.
    """
    max_k = as_count(max_k, "max_k", minimum=1)
    max_d = as_count(max_d, "max_d", minimum=1)
    # a tuple: every (k, d1, d2) reads them again, and an iterator would be spent after the first
    kprimes = as_values(kprimes, "kprimes", "download ratios")
    if not kprimes:
        raise NonPositiveError("kprimes must hold at least one download ratio")
    return (
        SystemParams(n=d1 + d2 + 1, k=k, d1=d1, d2=d2, kprime=kprime, cost_expensive=Fraction(2))
        for k in range(1, min(max_k, max_d) + 1)
        for d1 in range(max_d + 1)
        for d2 in range(max(k - d1, 0), max_d - d1 + 1)
        for kprime in kprimes
    )


# ---------------------------------------------------------------------------
# repair histories


def history_graph(
    params: SystemParams,
    alpha: RationalLike,
    beta2: RationalLike,
    events: Iterable[tuple[int, Sequence[int], Sequence[int]]],
    readers: Iterable[int],
) -> FlowGraph:
    """The flow graph of a given repair history over n live nodes, read by a collector.

    ``events`` are ``(failed, cheap, expensive)`` triples in repair order,
    as :func:`regencost.params.repair_history` yields them, and node ids
    0..n-1 name the nodes live when each event happens.  The originals are
    o0..o{n-1}; event t adds newcomer x{t}, which downloads beta1 from each
    cheap helper, then beta2 from each expensive one, and takes the failed
    node's id.  The collector then reads the live nodes ``readers`` names.
    Nothing is drawn.

    Each event is checked by :func:`regencost.params.as_repair_event` and
    the readers by :func:`regencost.params.as_node_ids`.  Helper counts are
    checked, tiers are not, so any helper-selection model can be built: an
    event without d1 cheap and d2 expensive helpers raises
    InsufficientHelpersError; events that are not an iterable of triples,
    or readers that are not k distinct ids, raise InvalidConstructionError.
    """
    n, d1, d2 = params.n, params.d1, params.d2
    builder = _GraphBuilder(params, alpha, beta2)
    live = [builder.add_original(f"o{i}") for i in range(n)]
    try:
        events = tuple(events)
    except TypeError as exc:
        raise InvalidConstructionError(f"events must be an iterable, got {type(events).__name__}") from exc
    for t, event in enumerate(events):
        try:
            failed, cheap, expensive = event
        except (TypeError, ValueError) as exc:
            raise InvalidConstructionError(f"repair event {t} is not a (failed, cheap, expensive) triple") from exc
        failed, cheap, expensive = as_repair_event(failed, cheap, expensive, n, f"repair event {t}")
        if len(cheap) != d1 or len(expensive) != d2:
            raise InsufficientHelpersError(
                f"repair event {t} needs {d1} cheap and {d2} expensive helpers, "
                f"got {len(cheap)} cheap and {len(expensive)} expensive"
            )
        live[failed] = builder.add_newcomer(f"x{t}", [live[h] for h in cheap], [live[h] for h in expensive])
    readers = as_node_ids(readers, n, "readers")
    if len(readers) != params.k or len(set(readers)) != params.k:
        raise InvalidConstructionError(
            f"the collector reads k={params.k} distinct nodes, got {len(set(readers))} in {len(readers)} readers"
        )
    for reader in readers:
        builder.add_collector_read(live[reader])
    return FlowGraph(edges=tuple(builder.edges))


def random_history_graph(
    params: SystemParams,
    alpha: RationalLike,
    beta2: RationalLike,
    rng: Random,
    failures: int,
) -> FlowGraph:
    """A uniformly random valid repair history over all n nodes, plus a random collector.

    Draws, in this order: the cheap tier's size from d1..n-d2, every event
    of :func:`regencost.params.repair_history` (a node may fail only while
    its tier can still field a full helper set, and every replacement
    inherits the failed node's tier), then k distinct readers.  The graph
    is :func:`history_graph` of those events and readers.
    """
    a = as_nonnegative(alpha, "alpha")
    b2 = as_nonnegative(beta2, "beta2")
    n_cheap = as_instance(rng, Random, "rng").randint(params.d1, params.n - params.d2)
    # a list, so that every event is drawn before the readers
    events = list(repair_history(params, n_cheap, failures, rng))
    return history_graph(params, a, b2, events, rng.sample(range(params.n), params.k))
