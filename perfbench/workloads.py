"""The four closed-loop workloads.

Each runs in this one process with no extra threads and no external
workers, and each repetition ("rep") builds fresh toolkits and stores,
so reps are independent and a rep's seed alone fixes its inputs.  The
program receives only generated designs; the held-out validation
points are one fixed set (``VALIDATION_SEED``) so accuracy figures
compare like with like across seeds.

Timed calls run inside ``tracer.region()``: the region adds to the
rep's wall time and, in a traced run, switches span recording on.
Everything else (input generation, output checks) stays outside.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ledger import Tracer
from measure import array_digest, json_digest

from repro.campaign import CampaignConfig
from repro.campaign.acquisition import FactorBox
from repro.campaign.journal import SQLiteCampaignJournal
from repro.core.doe.lhs import latin_hypercube
from repro.core.factors import canonical_space
from repro.core.toolkit import SensorNodeDesignToolkit, standard_desirability
from repro.exec.queue import resolve_queue
from repro.exec.store import MemoryStore
from repro.sim.envelope import (
    EnvelopeOptions,
    charging_cache_stats,
    clear_charging_cache,
)
from repro.vibration.profiles import machine_room_profile

#: Seed of the held-out validation LHS shared by every rep.
VALIDATION_SEED = 42

#: Seed of the reference rep whose output digest is pinned in
#: ``digests.json``.
REFERENCE_SEED = 20130318

#: Single-point predictions timed per rep for ``rsm_predict_us``.
PREDICT_SAMPLES = 200

#: Map-measurement budget of the drifting-tone study: the repo's
#: reduced benchmark envelope, so one cold rep builds its 7 grids in
#: seconds instead of tens of seconds.
DRIFT_ENVELOPE = EnvelopeOptions(
    map_v_points=4,
    map_nr_warmup_cycles=4,
    map_warmup_cycles=8,
    map_measure_cycles=6,
    map_max_blocks=3,
    map_steps_per_period=80,
)


@dataclass
class Rep:
    """What one repetition measured and produced."""

    surrogate_s: float
    optimum_s: float
    warm_s: list[float]
    simulated: int
    attempted: int
    failed: int
    desirability: float
    nrmse: float
    predict_s: list[float]
    wall_s: float
    #: The program's own counters over the rep (see ``program_counters``).
    counters: dict[str, int]
    #: Output arrays (or payload) the digest and equality checks read.
    outputs: object
    problems: list[str] = field(default_factory=list)


def rep_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def program_counters(toolkits) -> dict[str, int]:
    """Engine, cache, store and queue counters summed over toolkits.

    Toolkits built in one rep are fresh, so lifetime totals are the
    rep's totals; a store shared by several toolkits counts once.
    """
    out = dict.fromkeys(
        (
            "points_evaluated",
            "batches",
            "transactions",
            "poll_sleeps",
            "degraded",
            "cache_hits",
            "cache_misses",
            "round_trips",
        ),
        0,
    )
    stores = {}
    for toolkit in toolkits:
        engine = toolkit.exec_engine
        out["points_evaluated"] += engine.points_evaluated
        out["batches"] += engine.batches_dispatched
        backend = engine.backend
        out["transactions"] += getattr(backend, "queue_transactions", 0)
        out["poll_sleeps"] += getattr(backend, "poll_sleeps", 0)
        out["degraded"] += getattr(backend, "degraded_evaluations", 0)
        if engine.cache is not None:
            out["cache_hits"] += engine.cache.stats.hits
            out["cache_misses"] += engine.cache.stats.misses
            stores[id(engine.cache.store)] = engine.cache.store
    out["round_trips"] = sum(
        store.stats.round_trips for store in stores.values()
    )
    return out


def failed_jobs(toolkits) -> int:
    """Terminally failed jobs in the toolkits' work queues.

    Read through a connection of its own, so the scan adds nothing to
    the toolkits' transaction counters."""
    queues = [getattr(t.exec_engine.backend, "queue", None) for t in toolkits]
    paths = {str(queue.path) for queue in queues if queue is not None}
    total = 0
    for path in paths:
        queue = resolve_queue(path)
        try:
            total += queue.stats().failed
        finally:
            queue.close()
    return total


def map_delta(before: dict) -> dict[str, int]:
    after = charging_cache_stats()
    return {
        f"maps_{key}": after[key] - before[key]
        for key in ("built", "hits", "misses")
    }


def time_predictions(surfaces, k: int, seed: int) -> list[float]:
    """Wall seconds to predict every response at one coded point."""
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (PREDICT_SAMPLES, k))
    gc.collect()
    samples = []
    for row in rows:
        point = row[None, :]
        started = time.perf_counter()
        for surface in surfaces.values():
            surface.predict(point)
        samples.append(time.perf_counter() - started)
    return samples


def no_response(columns: dict[str, np.ndarray]) -> int:
    """Points whose responses came back non-finite (counted as failed)."""
    stacked = np.vstack([np.asarray(v, dtype=float) for v in columns.values()])
    return int(np.count_nonzero(~np.all(np.isfinite(stacked), axis=0)))


class Workload:
    """Shared set-up and the one-shot study rep (design -> optimum)."""

    name = ""
    design_runs = 0
    validate_points = 0
    warm_repeats = 3

    def __init__(self, scratch: str, tracer: Tracer):
        self.scratch = scratch
        self.tracer = tracer

    # -- configuration ---------------------------------------------------------

    def toolkit(self, **kwargs) -> SensorNodeDesignToolkit:
        raise NotImplementedError

    def store_kwargs(self, tag: str) -> dict:
        """Cache arguments for one rep's toolkits: a fresh memory store."""
        return {"cache_store": MemoryStore()}

    def setup(self) -> None:
        """Build the toolkit and store and prewarm the charging map."""
        toolkit = self.toolkit(**self.store_kwargs("setup"))
        try:
            toolkit.prewarm()
        finally:
            toolkit.close()
        self.discard("setup")

    def discard(self, tag: str) -> None:
        """Remove a rep's on-disk store, if it has one."""
        path = os.path.join(self.scratch, tag)
        if os.path.isdir(path):
            shutil.rmtree(path)

    def start_rep(self) -> None:
        """Per-rep preparation outside the timed region."""

    # -- one rep -----------------------------------------------------------------

    def run_rep(self, seed: int, tag: str) -> Rep:
        self.start_rep()
        maps_before = charging_cache_stats()
        wall_before = self.tracer.wall_s
        store_kwargs = self.store_kwargs(tag)
        design = latin_hypercube(self.design_runs, 5, seed=seed)
        study_args = dict(
            design=design,
            validate_points=self.validate_points,
            validation_seed=VALIDATION_SEED,
        )
        with self.tracer.region():
            started = time.perf_counter()
            toolkit = self.toolkit(**store_kwargs)
            study = toolkit.run_study(**study_args)
            surrogate_s = time.perf_counter() - started
            outcome, _ = study.optimize(standard_desirability())
            optimum_s = time.perf_counter() - started
        # Closed before the warm reruns: an open connection would make
        # their best-effort hit-count updates wait on its locks.
        toolkit.close()
        # Per response: the design's values, then the held-out points'.
        columns = {
            name: np.concatenate([values, study.validation.reference[name]])
            for name, values in study.exploration.responses.items()
        }
        toolkits = [toolkit]
        warm_s = []
        problems = []
        for _ in range(self.warm_repeats):
            with self.tracer.region():
                started = time.perf_counter()
                again = self.toolkit(**store_kwargs)
                repeat = again.run_study(**study_args)
                warm_s.append(time.perf_counter() - started)
            again.close()
            toolkits.append(again)
            if repeat.meta["exec"]["points_evaluated"] != 0:
                problems.append("warm rerun simulated points")
            if not all(
                np.array_equal(repeat.exploration.responses[k], v)
                for k, v in study.exploration.responses.items()
            ):
                problems.append("warm rerun answered different responses")
        counters = program_counters(toolkits)
        counters.update(map_delta(maps_before))
        failed = counters["degraded"] + failed_jobs(toolkits) + no_response(columns)
        self.discard(tag)
        nrmse = [
            m["normalized_rmse"]
            for m in study.validation.metrics.values()
            if np.isfinite(m["normalized_rmse"])
        ]
        return Rep(
            surrogate_s=surrogate_s,
            optimum_s=optimum_s,
            warm_s=warm_s,
            simulated=int(study.meta["exec"]["points_evaluated"]),
            attempted=design.n_runs + self.validate_points,
            failed=failed,
            desirability=float(outcome.value),
            nrmse=float(max(nrmse)),
            predict_s=time_predictions(study.surfaces, 5, seed),
            wall_s=self.tracer.wall_s - wall_before,
            counters=counters,
            outputs={
                "points": [study.space.point_to_dict(row) for row in design.matrix]
                + [
                    study.space.point_to_dict(row)
                    for row in study.validation.x_coded
                ],
                "columns": columns,
            },
            problems=problems,
        )

    def digest(self, rep: Rep) -> str:
        return array_digest(rep.outputs["columns"])

    def accuracy(self, reps: list[Rep], reference: Rep) -> float:
        """``rsm_nrmse``: mean over the reference rep and the timed reps.

        Each rep's figure repeats exactly for its seed but varies
        between designs; the mean of a run's few designs moves less
        between runs than their median."""
        return statistics.fmean(rep.nrmse for rep in [reference, *reps])

    def check(self, reps: list[Rep]) -> list[str]:
        """Whole-run output checks, outside the timed phase."""
        return []


class Study(Workload):
    """The paper's one-shot flow, in process, batch core on."""

    name = "study"
    design_runs = 256
    validate_points = 64

    def toolkit(self, **kwargs) -> SensorNodeDesignToolkit:
        return SensorNodeDesignToolkit(mission_time=900.0, **kwargs)


class Fleet(Workload):
    """The same flow through the cooperative distributed backend."""

    name = "fleet"
    design_runs = 512
    validate_points = 64
    warm_repeats = 5

    def toolkit(self, **kwargs) -> SensorNodeDesignToolkit:
        return SensorNodeDesignToolkit(
            mission_time=120.0, backend="distributed", **kwargs
        )

    def store_kwargs(self, tag: str) -> dict:
        path = os.path.join(self.scratch, tag, "store.sqlite")
        return {"cache_dir": path}

    def check(self, reps: list[Rep]) -> list[str]:
        """Fleet responses must equal in-process batch evaluation."""
        first = reps[0].outputs
        local = SensorNodeDesignToolkit(mission_time=120.0, cache=False)
        try:
            evaluated = local.evaluate_points_timed(first["points"])
        finally:
            local.close()
        problems = []
        for name, fleet_values in first["columns"].items():
            local_values = np.array([responses[name] for responses, _ in evaluated])
            if not np.array_equal(local_values, fleet_values):
                problems.append(f"fleet {name} differs from in-process evaluation")
        return problems


class DriftCold(Workload):
    """A study under the drifting tone, from an empty charging-map cache."""

    name = "drift_cold"
    design_runs = 96
    validate_points = 48

    def toolkit(self, **kwargs) -> SensorNodeDesignToolkit:
        return SensorNodeDesignToolkit(
            mission_time=450.0,
            vibration=machine_room_profile(
                base_frequency=66.0, drift_hz=4.0, drift_rate=0.002
            ),
            envelope=DRIFT_ENVELOPE,
            **kwargs,
        )

    def setup(self) -> None:
        """Build the toolkit and store; no prewarm (the maps stay cold)."""
        self.toolkit(**self.store_kwargs("setup")).close()

    def start_rep(self) -> None:
        clear_charging_cache()


class Campaign(Workload):
    """An adaptive campaign journaled in the SQLite store."""

    name = "campaign"
    validate_points = 24
    warm_repeats = 5
    rounds = 4
    batch = 8

    def toolkit(self, **kwargs) -> SensorNodeDesignToolkit:
        return SensorNodeDesignToolkit(mission_time=900.0, **kwargs)

    def store_kwargs(self, tag: str) -> dict:
        return {"cache_dir": os.path.join(self.scratch, tag, "store.sqlite")}

    def config(self, seed: int) -> CampaignConfig:
        # The seed picks the initial LHS; trust-region zoom rounds then
        # spend a near-constant number of points per round.  The
        # default "auto" strategy switches moves by seed, so its
        # evaluation count and wall time vary by +-25% between seeds,
        # more than a run's few campaigns can average out.
        return CampaignConfig(
            max_rounds=self.rounds,
            batch=self.batch,
            initial_design="lhs",
            acquisition="zoom",
            seed=seed,
            eval_chunk=self.batch,
        )

    def run_rep(self, seed: int, tag: str) -> Rep:
        maps_before = charging_cache_stats()
        wall_before = self.tracer.wall_s
        store_kwargs = self.store_kwargs(tag)
        config = self.config(seed)
        with self.tracer.region():
            started = time.perf_counter()
            toolkit = self.toolkit(**store_kwargs)
            result = toolkit.run_campaign(config=config)
            elapsed = time.perf_counter() - started
        toolkit.close()
        points, journaled = self.journaled_points(store_kwargs["cache_dir"])
        toolkits = [toolkit]
        problems = []
        warm_s = []
        for _ in range(self.warm_repeats):
            # A fresh toolkit answers the same campaign: the result from
            # the journal, every evaluation from the store.
            with self.tracer.region():
                started = time.perf_counter()
                again = self.toolkit(**store_kwargs)
                resumed = again.run_campaign(config=config, resume=True)
                answers = again.exec_engine.map_points(points)
                warm_s.append(time.perf_counter() - started)
            again.close()
            toolkits.append(again)
            if resumed.history != result.history:
                problems.append("resumed campaign history differs")
            if again.exec_engine.points_evaluated != 0:
                problems.append("warm rerun simulated points")
            if any(
                answer.responses[name] != journaled[name][i]
                for i, answer in enumerate(answers)
                for name in journaled
            ):
                problems.append("store answers differ from the journal")
        counters = program_counters(toolkits)
        counters.update(map_delta(maps_before))
        counters["rounds"] = result.n_rounds
        # A point without responses aborts the campaign's round, so
        # degraded evaluations are the failures left to count.
        failed = counters["degraded"]
        self.discard(tag)
        return Rep(
            surrogate_s=elapsed,
            optimum_s=elapsed,
            warm_s=warm_s,
            simulated=int(result.evaluations["simulated"]),
            attempted=int(result.evaluations["total_points"]),
            failed=failed,
            desirability=float(result.best["value"]),
            nrmse=(
                self.held_out_nrmse(result)
                if seed == REFERENCE_SEED
                else float("nan")
            ),
            predict_s=time_predictions(result.surfaces, 5, seed),
            wall_s=self.tracer.wall_s - wall_before,
            counters=counters,
            outputs={"history": result.history},
            problems=problems,
        )

    def journaled_points(self, path: str):
        """Every point the campaign evaluated, as physical parameter
        dicts, and the responses its journal recorded for them."""
        journal = SQLiteCampaignJournal(path)
        try:
            rounds = journal.load("default").rounds
        finally:
            journal.close()
        space = canonical_space()
        points = [
            space.point_to_dict(np.asarray(row, dtype=float))
            for entry in rounds
            for row in entry.planned["points"]
        ]
        journaled = {
            name: [v for entry in rounds for v in entry.completed["responses"][name]]
            for name in rounds[0].completed["responses"]
        }
        return points, journaled

    def held_out_nrmse(self, result) -> float:
        """Largest NRMSE of the final surfaces at fixed held-out points
        inside the final trust region, simulated in process without a
        cache."""
        box = FactorBox.from_dict(result.history[-1]["box"])
        x_local = latin_hypercube(self.validate_points, 5, seed=VALIDATION_SEED).matrix
        local = self.toolkit(cache=False)
        try:
            truth = local.evaluate_points(
                [
                    local.space.point_to_dict(row)
                    for row in np.clip(box.to_global(x_local), -1.0, 1.0)
                ]
            )
        finally:
            local.close()
        worst = 0.0
        for name, surface in result.surfaces.items():
            values = np.array([responses[name] for responses in truth])
            span = float(values.max() - values.min())
            if span > 0.0:
                error = surface.predict(x_local) - values
                worst = max(worst, float(np.sqrt(np.mean(error**2))) / span)
        return worst

    def accuracy(self, reps: list[Rep], reference: Rep) -> float:
        """The reference campaign's figure: where the final trust region
        lands decides the final surrogate's error, which varies tenfold
        between seeds (0.01-0.15), more than a run's few campaigns can
        average out."""
        return reference.nrmse

    def digest(self, rep: Rep) -> str:
        return json_digest(rep.outputs["history"])


WORKLOADS = {cls.name: cls for cls in (Study, Fleet, Campaign, DriftCold)}
