"""Per-layer metrics of one traced operation, named ``<module>.<metric>``.

Counts are exact.  Times are self times (a span minus the traced calls
inside it), so the times of all layers add up to the operation's wall.
A metric whose traced name no longer exists in the library is dropped
(the tracer already warned), never reported as zero.
"""

from __future__ import annotations

import numpy as np

#: The named layers, in the order their shares are reported.
LAYERS = (
    "experiments", "plan", "parallel", "durable", "rng", "graphs", "batch",
    "serve.loadgen", "serve.service", "serve.state", "serve.metrics",
)


def _q(values, q):
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, setup_id: int, op_id: int, trace_rounds: int) -> dict:
    """``{name: (value, unit)}`` for one traced operation.

    ``graphs.*`` cover set-up and operation (serving builds its graph at
    set-up only); everything else covers the operation.
    """
    op = tracer.self_times(op_id)
    both = tracer.self_times(setup_id)
    for name, e in op.items():
        b = both.setdefault(name, dict(e, self_s=0.0, total_s=0.0, calls=0))
        for key in ("self_s", "total_s", "calls"):
            b[key] += e[key]
    counts = tracer.counts
    wall = op["op"]["total_s"]

    def self_s(name, table=op):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name, table=op):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name, table=op):
        return table.get(name, {}).get("calls", 0)

    rounds_ms = [1e3 * d for d in tracer.durations("serve.service.round", op_id)]
    rounds_ms = rounds_ms[:trace_rounds]  # the drain is not part of the trace
    work = counts["batch.work"]
    routed = counts["serve.state.routed_balls"]
    edges_s = total_s("graphs.build", both)

    # (name, unit, traced names it needs, value)
    table = [
        ("graphs.build_s", "s", ["graphs.build"], self_s("graphs.build", both)),
        ("graphs.builds", "count", ["graphs.build"], calls("graphs.build", both)),
        ("graphs.edges", "count", ["graphs.build"], counts["graphs.edges"]),
        ("graphs.edges_per_s", "1/s", ["graphs.build"],
         counts["graphs.edges"] / edges_s if edges_s else 0.0),
        ("graphs.report_s", "s", ["graphs.report"], self_s("graphs.report")),
        ("rng.spawn_s", "s", ["rng.spawn"], self_s("rng.spawn")),
        ("rng.seeds", "count", ["rng.spawn"], counts["rng.seeds"]),
        ("batch.engine_s", "s", ["batch.engine"], self_s("batch.engine")),
        ("batch.kernel_s", "s", ["batch.kernel"], self_s("batch.kernel")),
        ("batch.kernel_calls", "count", ["batch.kernel"], calls("batch.kernel")),
        ("batch.trial_rounds", "count", ["batch.engine"], counts["batch.trial_rounds"]),
        ("batch.work", "count", ["batch.engine"], work),
        ("batch.ns_per_ball", "ns", ["batch.engine"],
         1e9 * total_s("batch.engine") / work if work else 0.0),
        ("plan.execute_s", "s", ["plan.execute"], total_s("plan.execute")),
        ("plan.self_s", "s", ["plan.execute"], self_s("plan.execute")),
        ("plan.worker_s", "s", ["plan.worker"], self_s("plan.worker")),
        ("parallel.dispatch_s", "s", ["parallel.dispatch"], self_s("parallel.dispatch")),
        ("parallel.assemble_s", "s", ["parallel.assemble"], self_s("parallel.assemble")),
        ("durable.supervise_s", "s", ["durable.supervise"], self_s("durable.supervise")),
        ("durable.block_write_s", "s", ["durable.block_write"],
         self_s("durable.block_write")),
        ("durable.blocks", "count", ["durable.block_write"], calls("durable.block_write")),
        ("durable.block_bytes", "bytes", ["durable.block_write"],
         counts["durable.block_bytes"]),
        ("durable.journal_s", "s", ["durable.journal"], self_s("durable.journal")),
        ("durable.journal_lines", "count", ["durable.journal"], calls("durable.journal")),
        ("durable.read_s", "s", ["durable.read"], self_s("durable.read")),
        ("experiments.rows_s", "s", ["experiments.runner"], self_s("experiments.runner")),
        ("serve.loadgen.self_s", "s", ["serve.loadgen"],
         self_s("serve.loadgen") + self_s("serve.loadgen.callback")),
        ("serve.loadgen.resubmitted", "count", ["serve.loadgen"],
         counts["serve.loadgen.resubmitted"]),
        ("serve.loadgen.lost", "count", ["serve.loadgen"], counts["serve.loadgen.lost"]),
        ("serve.service.submit_s", "s", ["serve.service.submit"],
         self_s("serve.service.submit")),
        ("serve.service.submit_calls", "count", ["serve.service.submit"],
         calls("serve.service.submit")),
        ("serve.service.balls", "count", ["serve.service.submit"],
         counts["serve.service.balls"]),
        ("serve.service.round_self_s", "s", ["serve.service.round"],
         self_s("serve.service.round")),
        ("serve.service.round_ms_p50", "ms", ["serve.service.round"], _q(rounds_ms, 0.5)),
        ("serve.service.round_ms_p90", "ms", ["serve.service.round"], _q(rounds_ms, 0.9)),
        ("serve.service.round_ms_p99", "ms", ["serve.service.round"], _q(rounds_ms, 0.99)),
        ("serve.service.round_samples", "count", ["serve.service.round"], len(rounds_ms)),
        ("serve.state.begin_s", "s", ["serve.state.begin"], self_s("serve.state.begin")),
        ("serve.state.route_s", "s", ["serve.state.route"], self_s("serve.state.route")),
        ("serve.state.routed_balls", "count", ["serve.state.route"], routed),
        ("serve.state.accept_ratio", "ratio", ["serve.state.route"],
         counts["serve.state.assigned"] / routed if routed else 0.0),
        ("serve.state.admit_s", "s", ["serve.state.admit"], self_s("serve.state.admit")),
        ("serve.state.evict_s", "s", ["serve.state.evict"], self_s("serve.state.evict")),
        ("serve.state.evicted", "count", ["serve.state.evict"],
         counts["serve.state.evicted"]),
        ("serve.metrics.observe_s", "s", ["serve.metrics.observe"],
         self_s("serve.metrics.observe")),
        ("serve.metrics.observes", "count", ["serve.metrics.observe"],
         counts["serve.metrics.observes"]),
    ]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for e in op.values():
        if e["layer"] in layer_self:
            layer_self[e["layer"]] += e["self_s"]
    for layer, spent in layer_self.items():
        table.append((f"{layer}.share", "ratio", [], spent / wall))
    table.append(("trace.unattributed_share", "ratio", [], self_s("op") / wall))
    table.append(("trace.spans", "count", [], len(tracer.spans)))

    dropped = set(tracer.dropped)
    return {
        name: (float(value), unit)
        for name, unit, needs, value in table
        if not dropped.intersection(needs)
    }
