"""Which calls the traced run wraps, and the per-layer metrics.

Each layer is timed at the public callable its caller uses, looked up
where the caller looks it up.  Counts come from the program's own
stats; the trace's counts are checked against them.  Per-integration-
step calls (``ChargingMap.current``, ``_advance``) are never wrapped.
"""

from __future__ import annotations

from ledger import OPEN_OPS, Target, Tracer, op_stats, self_times, unattributed_frac

STORE_READS = ("load", "load_many", "peek")
STORE_WRITES = ("persist", "persist_many")
QUEUE_OPS = (
    "submit",
    "lease",
    "complete",
    "complete_many",
    "fail",
    "fail_many",
    "heartbeat",
    "heartbeat_many",
    "reclaim",
    "requeue",
    "purge",
    "job",
    "jobs",
)
#: Batched calls that return early, uncounted, on an empty batch.
BATCHED = {"load_many", "persist_many", "submit", "complete_many", "fail_many", "heartbeat_many"}
JOURNAL_WRITES = ("create", "begin_round", "complete_round", "advance_round", "finish")


def _round_trip(op: str):
    """Span ``n``: 1 when the call cost the program one round trip."""
    if op in BATCHED:
        return lambda args, result, state: 1.0 if len(args[-1]) else 0.0
    return lambda args, result, state: 1.0


def targets(tracer: Tracer) -> list[Target]:
    import repro.campaign.acquisition as acquisition
    import repro.campaign.campaign as campaign
    import repro.core.explorer as explorer
    import repro.core.toolkit as toolkit
    import repro.exec.engine as engine
    from repro.campaign.journal import SQLiteCampaignJournal
    from repro.core.rsm.surface import ResponseSurface
    from repro.exec.cache import EvalCache
    from repro.exec.queue import SQLiteWorkQueue
    from repro.exec.store import MemoryStore, SQLiteStore
    from repro.sim.envelope import EnvelopeEngine
    from repro.sim.newton import NewtonRaphsonEngine
    from repro.sim.state_space import LinearizedStateSpaceEngine

    def newton_count(args, result, state):
        started, iterations = state
        stepped = args[0]
        tracer.bump(
            "sim.newton.iterations",
            stepped.stats.n_newton_iterations - iterations,
        )
        return stepped.time - started

    def leased(args, result, state):
        tracer.bump("exec.queue.leased", len(result or ()))
        return 1.0

    out = [
        Target(toolkit, "default_system", "presets", "default_system"),
        Target(
            toolkit,
            "simulate_batch",
            "sim.batch",
            "simulate_batch",
            count=lambda args, result, state: float(len(args[0])),
        ),
        Target(EnvelopeEngine, "run", "sim.envelope", "run"),
        Target(
            NewtonRaphsonEngine,
            "step_to",
            "sim.newton",
            "step_to",
            before=lambda args: (args[0].time, args[0].stats.n_newton_iterations),
            count=newton_count,
        ),
        Target(
            LinearizedStateSpaceEngine,
            "step_to",
            "sim.state_space",
            "step_to",
            before=lambda args: args[0].time,
            count=lambda args, result, started: args[0].time - started,
        ),
        Target(toolkit, "evaluate_indicators", "indicators", "evaluate_indicators"),
        Target(engine, "point_fingerprint", "exec.cache", "fingerprint"),
        Target(EvalCache, "get_many", "exec.cache", "get_many"),
        Target(EvalCache, "put_many", "exec.cache", "put_many"),
        Target(engine.EvaluationEngine, "map_points", "exec.engine", "map_points"),
        Target(explorer, "fit_response_surface", "core.rsm", "fit"),
        Target(explorer, "anova_table", "core.rsm", "anova"),
        Target(campaign, "anova_table", "core.rsm", "anova"),
        Target(campaign, "press", "core.rsm", "crossval"),
        Target(campaign, "loo_residuals", "core.rsm", "crossval"),
        Target(ResponseSurface, "predict", "core.rsm", "predict"),
        Target(toolkit, "optimize_desirability", "core.optimize", "optimize_desirability"),
        Target(campaign, "optimize_desirability", "core.optimize", "optimize_desirability"),
        Target(campaign, "optimize_surface", "core.optimize", "optimize_surface"),
        Target(SQLiteWorkQueue, "__init__", "exec.queue", "open"),
        Target(SQLiteCampaignJournal, "__init__", "campaign.journal", "open"),
        Target(
            SQLiteCampaignJournal,
            "load",
            "campaign.journal",
            "load",
            count=lambda args, result, state: 0.0,
        ),
    ]
    for store in (SQLiteStore, MemoryStore):
        out.append(Target(store, "__init__", "exec.store", "open"))
        for op in STORE_READS + STORE_WRITES:
            out.append(Target(store, op, "exec.store", op, count=_round_trip(op)))
    for op in QUEUE_OPS:
        count = leased if op == "lease" else _round_trip(op)
        out.append(Target(SQLiteWorkQueue, op, "exec.queue", op, count=count))
    for op in JOURNAL_WRITES:
        out.append(
            Target(
                SQLiteCampaignJournal,
                op,
                "campaign.journal",
                op,
                count=lambda args, result, state: 1.0,
            )
        )
    for name in dir(acquisition):
        cls = getattr(acquisition, name)
        if (
            isinstance(cls, type)
            and issubclass(cls, acquisition.AcquisitionStrategy)
            and "propose" in cls.__dict__
        ):
            out.append(Target(cls, "propose", "campaign.acquisition", "propose"))
    return out


def count_retries(tracer: Tracer) -> None:
    """Count masked transient failures: every substrate call goes
    through ``RetryPolicy.call``, whose ``on_retry`` hook fires once
    per retry."""
    from repro.exec.resilience import RetryPolicy

    def make(original):
        def call(self, fn, *args, on_retry=None, **kwargs):
            def counted(attempt, error):
                tracer.bump("exec.retries")
                if on_retry is not None:
                    on_retry(attempt, error)

            return original(self, fn, *args, on_retry=counted, **kwargs)

        return call

    tracer.replace(RetryPolicy, "call", make)


def layer_metrics(
    tracer: Tracer,
    counters: dict[str, int],
    failed: int,
    untraced_wall_s: float,
    rsm_predict_s: float,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, plus consistency problems."""
    spans = tracer.spans
    ops = op_stats(spans)

    def pick(layer, names=None, key="calls", skip=()):
        return sum(
            value[key]
            for (span_layer, op), value in ops.items()
            if span_layer == layer
            and (names is None or op in names)
            and op not in skip
        )

    def ratio(num, den):
        return num / den if den else 0.0

    inclusive_sim_s = sum(
        span.duration for span in spans if span.layer in ("sim.batch", "sim.envelope")
    )
    lanes = pick("sim.batch", key="n")
    missions = pick("sim.envelope")
    simulated = counters["points_evaluated"]
    sim_point_s = ratio(inclusive_sim_s, lanes + missions)
    newton_sim = pick("sim.newton", key="n")
    ss_sim = pick("sim.state_space", key="n")
    round_trips = pick("exec.store", key="n", skip=OPEN_OPS)
    transactions = pick("exec.queue", key="n", skip=OPEN_OPS)
    busy = self_times(spans)
    metrics = {
        "presets.calls": pick("presets"),
        "presets.busy_s": busy.get("presets", 0.0),
        "sim.batch.calls": pick("sim.batch"),
        "sim.batch.lanes_per_call": ratio(lanes, pick("sim.batch")),
        "sim.batch.busy_s": busy.get("sim.batch", 0.0),
        "sim.envelope.missions": missions,
        "sim.envelope.busy_s": busy.get("sim.envelope", 0.0),
        "sim.maps.built": counters["maps_built"],
        "sim.maps.hit_ratio": ratio(
            counters["maps_hits"], counters["maps_hits"] + counters["maps_misses"]
        ),
        "sim.newton.busy_s": busy.get("sim.newton", 0.0),
        "sim.newton.sim_s": newton_sim,
        "sim.newton.iterations": tracer.counters.get("sim.newton.iterations", 0),
        "sim.state_space.busy_s": busy.get("sim.state_space", 0.0),
        "sim.state_space.sim_s": ss_sim,
        "table3.newton_host_s_per_sim_s": ratio(busy.get("sim.newton", 0.0), newton_sim),
        "table3.state_space_host_s_per_sim_s": ratio(
            busy.get("sim.state_space", 0.0), ss_sim
        ),
        "table3.sim_s_per_point": sim_point_s,
        "table3.rsm_speedup": ratio(sim_point_s, rsm_predict_s),
        "indicators.calls": pick("indicators"),
        "indicators.busy_s": busy.get("indicators", 0.0),
        "exec.cache.fingerprint_s": pick("exec.cache", ("fingerprint",), key="self_s"),
        "exec.cache.hit_ratio": ratio(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "exec.store.round_trips": round_trips,
        "exec.store.load_s": pick("exec.store", STORE_READS, key="self_s"),
        "exec.store.persist_s": pick("exec.store", STORE_WRITES, key="self_s"),
        "exec.queue.transactions": transactions,
        "exec.queue.jobs_per_lease": ratio(
            tracer.counters.get("exec.queue.leased", 0), pick("exec.queue", ("lease",))
        ),
        "exec.queue.busy_s": busy.get("exec.queue", 0.0),
        "exec.queue.poll_sleeps": counters["poll_sleeps"],
        "exec.engine.batches": counters["batches"],
        "exec.engine.points_evaluated": simulated,
        "exec.engine.self_s": busy.get("exec.engine", 0.0),
        "exec.failed": failed,
        "exec.retries": tracer.counters.get("exec.retries", 0),
        "core.rsm.fits": pick("core.rsm", ("fit",)),
        "core.rsm.fit_s": pick("core.rsm", ("fit",), key="self_s"),
        "core.rsm.anova_s": pick("core.rsm", ("anova",), key="self_s"),
        "core.rsm.predict_calls": pick("core.rsm", ("predict",)),
        "core.rsm.predict_s": pick("core.rsm", ("predict",), key="self_s"),
        "core.optimize.calls": pick("core.optimize"),
        "core.optimize.busy_s": busy.get("core.optimize", 0.0),
        "campaign.rounds": counters.get("rounds", 0),
        "campaign.acquisition.busy_s": busy.get("campaign.acquisition", 0.0),
        "campaign.journal.busy_s": busy.get("campaign.journal", 0.0),
        "campaign.journal.writes": pick("campaign.journal", key="n"),
        "trace.overhead_frac": ratio(tracer.wall_s, untraced_wall_s) - 1.0,
        "trace.unattributed_frac": unattributed_frac(spans, tracer.wall_s),
    }
    problems = []
    if round_trips != counters["round_trips"]:
        problems.append(
            f"traced store round trips {round_trips:g} != "
            f"program's {counters['round_trips']}"
        )
    if transactions != counters["transactions"]:
        problems.append(
            f"traced queue transactions {transactions:g} != "
            f"program's {counters['transactions']}"
        )
    if lanes + missions != simulated:
        problems.append(
            f"traced lanes {lanes:g} + missions {missions} != "
            f"points evaluated {simulated}"
        )
    return metrics, problems
