"""Per-layer metrics: which functions a traced run wraps and what it reports.

The layers are the package's modules.  Every public function defined in
``tradeoff``, ``cutflow``, ``rlnc`` and ``cli`` is wrapped by replacing
the module attribute, which is how the package's own callers reach them;
``networkx.maximum_flow_value`` is wrapped so the max-flow solve shows
apart from the scaling and graph build in ``cutflow.max_flow``.
``params`` only validates and is timed inside its callers.  Generator
functions (``cutflow.verification_sweep``) are not wrapped: only the
benchmark's set-up calls them.
"""

from __future__ import annotations

import importlib
import inspect
import math
import types

import networkx
from regencost import cutflow, rlnc

from tracer import Tracer, per_function

LAYERS = ("tradeoff", "cutflow", "rlnc", "cli")

# functions reported one by one, each as .calls, .self_s and .raised
REPORTED = (
    "cutflow.max_flow", "networkx.maximum_flow_value", "cutflow.build_gstar",
    "cutflow.alpha_min_oracle", "cutflow.cut_capacity_sum", "cutflow.cut_terms",
    "cutflow.verify_closed_form", "cutflow.default_beta2_grid", "cutflow.random_history_graph",
    "tradeoff.alpha_min", "tradeoff.alpha_min_a", "tradeoff.alpha_min_b", "tradeoff.breakpoint_a",
    "tradeoff.breakpoint_b1", "tradeoff.breakpoint_b2", "tradeoff.operating_point",
    "tradeoff.tradeoff_curve", "tradeoff.bandwidth_ratio", "tradeoff.cost_ratio",
    "tradeoff.cost_threshold", "tradeoff.cost_ratio_limit", "cli.main", "cli.cmd_curve",
    "cli.cmd_ratio", "cli.cmd_threshold", "rlnc.matrix_rank", "rlnc.repair",
    "rlnc.encode_initial", "rlnc.can_reconstruct", "rlnc.run_trial",
)


class Counters:
    """Work counts taken at the wrapped boundaries, beside the spans."""

    def __init__(self) -> None:
        self.graph_nodes = 0
        self.graph_edges = 0
        self.scale_bits_max = 0
        self.rank_cells = 0
        self.symbols_received = 0
        self.reconstructed = 0

    def max_flow(self, args, kwargs, result) -> None:
        graph = args[0] if args else kwargs["graph"]
        self.graph_nodes += len(graph.nodes)
        self.graph_edges += len(graph.edges)

    def matrix_rank(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs["rows"]
        self.rank_cells += len(rows) * len(rows[0]) if rows else 0

    def repair(self, args, kwargs, result) -> None:
        bound = _REPAIR_SIGNATURE.bind(*args, **kwargs).arguments
        self.symbols_received += (len(bound["helpers_cheap"]) * bound["beta1_sym"]
                                  + len(bound["helpers_expensive"]) * bound["beta2_sym"])

    def can_reconstruct(self, args, kwargs, result) -> None:
        self.reconstructed += bool(result)


_REPAIR_SIGNATURE = inspect.signature(rlnc.repair)


def install(tracer: Tracer) -> Counters:
    """Wrap the layers' public functions; undo with ``tracer.uninstall()``."""
    counters = Counters()
    hooks = {
        "cutflow.max_flow": counters.max_flow,
        "rlnc.matrix_rank": counters.matrix_rank,
        "rlnc.repair": counters.repair,
        "rlnc.can_reconstruct": counters.can_reconstruct,
    }
    for layer in LAYERS:
        module = importlib.import_module(f"regencost.{layer}")
        for attr, value in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__ and not inspect.isgeneratorfunction(value)):
                label = f"{layer}.{attr}"
                tracer.wrap(module, attr, label, hooks.get(label))
    tracer.wrap(networkx, "maximum_flow_value", "networkx.maximum_flow_value")

    # max_flow's integer scale is the lcm of the capacity denominators: read its size where it is computed
    def lcm(*values: int) -> int:
        scale = math.lcm(*values)
        if not tracer.paused:
            counters.scale_bits_max = max(counters.scale_bits_max, scale.bit_length())
        return scale

    tracer.patch(cutflow, "math", types.SimpleNamespace(**{**vars(math), "lcm": lcm}))
    return counters


def metrics(tracer: Tracer, counters: Counters, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced phase of ``rounds`` rounds as name -> (value, unit).

    Calls, raised calls and self time are per round, that is per pass over
    the workload's items, so calls repeat exactly from run to run.
    """
    table = per_function([s for s in tracer.spans if s is not None], tracer.names)
    out: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        row = table[name]
        out[f"{name}.calls"] = (row["calls"] / rounds, "count")
        out[f"{name}.self_s"] = (row["self_s"] / rounds, "s")
        out[f"{name}.raised"] = (row["raised"] / rounds, "count")
    flows = max(1, table["cutflow.max_flow"]["calls"])
    out["cutflow.max_flow.graph_nodes"] = (counters.graph_nodes / flows, "count")
    out["cutflow.max_flow.graph_edges"] = (counters.graph_edges / flows, "count")
    out["cutflow.max_flow.scale_bits_max"] = (counters.scale_bits_max, "bits")
    out["rlnc.matrix_rank.cells"] = (counters.rank_cells / max(1, table["rlnc.matrix_rank"]["calls"]), "count")
    out["rlnc.repair.symbols_received"] = (
        counters.symbols_received / max(1, table["rlnc.repair"]["calls"]), "count")
    out["rlnc.can_reconstruct.success_ratio"] = (
        counters.reconstructed / max(1, table["rlnc.can_reconstruct"]["calls"]), "ratio")
    for layer in (*LAYERS, "networkx"):
        out[f"layer.{layer}.self_s"] = (
            sum(row["self_s"] for name, row in table.items() if name.startswith(layer + ".")) / rounds, "s")
    return out


def uncalled(tracer: Tracer, names: tuple[str, ...]) -> list[str]:
    """Those of ``names`` that recorded no call."""
    called = {tracer.names[s[0]] for s in tracer.spans if s is not None}
    return [name for name in names if name not in called]
