"""The ``selective`` workload: in-process filter-and-verify scoring.

Set-up (timed, repeated): database build, offline fit, engine build and the
first verified answer.  Then a ``BatchQueryEngine.query`` loop and a
``query_batch`` phase in batches of 64, each after a warm-up, one caller.
The 4,096-query pool is walked in order with fresh query objects; it is
larger than the engine's result cache, so the LRU never hits.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import hooks
import layers
from common import (
    Phase,
    cross_check_phase,
    fastest_steps,
    in_phases,
    log,
    log_setup,
    median,
    oracle_answers,
    percentile,
    query_of,
    pooled,
    reference_phase,
    tail_line,
)
from spans import SpanRecorder, within

#: Rounds of (query loop, batch) phases in a run.
ROUNDS = 5
#: Share of ``--seconds`` given to each kind of phase: (warm-up, measured).
PHASES = {"loop": (0.05, 0.45), "batch": (0.05, 0.45)}
#: In a traced run the loop phase first runs untraced for this share.
UNTRACED_SHARE = 0.2
#: The consecutive timed steps of a set-up; they add up to ``setup_s``.
SETUP_STEPS = ("database_s", "fit_s", "engine_s", "first_answer_s")


class SelectiveRun:
    def __init__(self, spec, inputs, seed: int, seconds: int, trace: bool) -> None:
        self.spec = spec
        self.inputs = inputs
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.pool = inputs["pool"]
        self.cursor = seed % spec.pool_size
        self.oracle: List = []
        self.phases: List[Phase] = []
        self.setup_breakdown: List[Dict[str, float]] = []
        self.recorder = SpanRecorder()
        self.layer: Dict[str, float] = {}
        self.reasons: Dict[str, str] = {}
        self.self_times: Dict[str, List[str]] = {}

    def _next(self) -> int:
        index = self.cursor
        self.cursor = (self.cursor + 1) % self.spec.pool_size
        return index

    # ------------------------------------------------------------------ #
    # set-up and oracle
    # ------------------------------------------------------------------ #
    def setup(self, repeats: int = 3) -> None:
        from repro import GraphDatabase, OfflineFitter

        spec = self.spec
        check = Phase("setup")
        firsts = []
        for index in range(repeats):
            self.engine = self.fitter = None
            gc.collect()
            started = time.perf_counter()
            database = GraphDatabase(self.inputs["graphs"], name="selective")
            built = time.perf_counter()
            fitter = OfflineFitter(
                database, max_tau=spec.max_tau, num_prior_pairs=spec.prior_pairs, seed=self.seed
            ).fit()
            fitted = time.perf_counter()
            engine = fitter.build_engine()
            engine_built = time.perf_counter()
            first_index = self._next()
            first = engine.query(query_of(self.pool[first_index], spec.gamma))
            finished = time.perf_counter()
            breakdown = {
                "setup_s": finished - started,
                "database_s": built - started,
                "fit_s": fitted - built,
                "engine_s": engine_built - fitted,
                "first_answer_s": finished - engine_built,
            }
            self.setup_breakdown.append(breakdown)
            firsts.append((first_index, first))
            log_setup(index, breakdown)
            self.engine, self.fitter = engine, fitter
            del database, fitter, engine  # freed by the next set-up
        self.build_oracle()
        for first_index, first in firsts:
            check.sent += 1
            check.check(first, self.oracle[first_index])
        self.phases.append(check)
        log(check.report())

    def build_oracle(self) -> None:
        self.oracle = oracle_answers(self.fitter, self.pool, self.spec.gamma, self.spec.batch_size)
        self.phases.append(
            reference_phase(self.spec, self.seed, self.fitter.database, self.pool, self.oracle)
        )
        gc.collect()

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def loop(self, name: str, seconds: float) -> Phase:
        phase = Phase(name)
        gamma = self.spec.gamma
        engine = self.engine
        results = []
        phase.begin()
        stop = phase.start + seconds
        while time.perf_counter() < stop:
            index = self._next()
            query = query_of(self.pool[index], gamma)
            started = time.perf_counter()
            answer = engine.query(query)
            phase.latencies.append(time.perf_counter() - started)
            results.append((index, answer))
        phase.finish()
        return self.verify(phase, results)

    def batches(self, name: str, seconds: float) -> Phase:
        phase = Phase(name)
        gamma = self.spec.gamma
        size = self.spec.batch_size
        engine = self.engine
        results = []
        call_seconds = []
        phase.begin()
        stop = phase.start + seconds
        while time.perf_counter() < stop:
            indices = [self._next() for _ in range(size)]
            batch = [query_of(self.pool[index], gamma) for index in indices]
            started = time.perf_counter()
            answers = engine.query_batch(batch)
            call_seconds.append(time.perf_counter() - started)
            results.extend(zip(indices, answers))
        phase.finish()
        phase.latencies = call_seconds
        phase.notes["queries"] = len(results)
        return self.verify(phase, results)

    def verify(self, phase: Phase, results) -> Phase:
        for index, answer in results:
            phase.sent += 1
            phase.check(answer, self.oracle[index])
        self.phases.append(phase)
        log(phase.report())
        return phase

    def run_rounds(self, scale: float, suffix: str = "") -> Dict[str, List[Phase]]:
        """``ROUNDS`` rounds of the query loop and the batch phase.

        The first round warms each phase up.  Interleaving spreads both
        phases over the whole run, and the end-to-end metrics are medians
        over rounds, so a burst of contention on the host spoils one round
        rather than the run.
        """
        seconds = self.seconds * scale
        out: Dict[str, List[Phase]] = {"loop": [], "batch": []}
        for round_index in range(1, ROUNDS + 1):
            tag = f"{suffix}-{round_index}"
            warm, measured = PHASES["loop"]
            if round_index == 1:
                self.loop(f"loop-warmup{suffix}", warm * seconds)
            out["loop"].append(self.loop(f"loop{tag}", measured * seconds / ROUNDS))
            warm, measured = PHASES["batch"]
            if round_index == 1:
                self.batches(f"batch-warmup{suffix}", warm * seconds)
            out["batch"].append(self.batches(f"batch{tag}", measured * seconds / ROUNDS))
        return out

    def run(self) -> None:
        if self.trace:
            # Set-up is traced too, so the offline stage shows in the spans.
            hooks.install_engine_hooks(self.recorder)
            self.setup()
            self.recorder.uninstall()
            warm, measured = PHASES["loop"]
            share = self.seconds * UNTRACED_SHARE
            self.loop("loop-warmup-untraced", share * warm / (warm + measured))
            untraced = self.loop("loop-untraced", share * measured / (warm + measured))
            hooks.install_engine_hooks(self.recorder)
            counters_before = self.engine.prune_counters
            registry_before = layers.registry_kernel_counts()
            window_start = time.perf_counter()
            self.measured = self.run_rounds(1.0 - UNTRACED_SHARE, suffix="-traced")
            self.window = (window_start, time.perf_counter())
            registry_after = layers.registry_kernel_counts()
            counters_after = self.engine.prune_counters
            self.recorder.uninstall()
            self.per_layer(
                untraced, (counters_before, counters_after), (registry_before, registry_after)
            )
        else:
            self.setup()
            self.measured = self.run_rounds(1.0)

    def per_layer(self, untraced: Phase, counters, registry) -> None:
        spans = self.recorder.spans
        loops, batches = self.measured["loop"], self.measured["batch"]
        loop_spans = in_phases(spans, loops)
        batch_spans = in_phases(spans, batches)
        loop_queries = sum(phase.sent for phase in loops)
        batch_queries = sum(phase.sent for phase in batches)
        out: Dict[str, float] = {}
        loop_metrics = layers.engine_metrics(loop_spans, loop_queries)
        for key in ("engine.query_us", "core.execute_pruned_us", "cache.hit_share", "cache.probe_us"):
            if key in loop_metrics:
                out[key] = loop_metrics[key]
        batch_metrics = layers.engine_metrics(batch_spans, batch_queries)
        for key in ("engine.query_batch_us_per_query", "core.execute_batch_us_per_query"):
            if key in batch_metrics:
                out[key] = batch_metrics[key]
        window = within(spans, *self.window)
        queries = sum(phase.sent for phase in self.phases if "-traced" in phase.name)
        whole = layers.engine_metrics(window, queries)
        for key, value in whole.items():
            if key.startswith("columnar.") or key in ("core.self_us", "engine.self_us"):
                out[key] = value
        out.update(layers.kernel_deltas(registry[0], registry[1], queries))
        ratio = layers.kernel_calls_ratio(registry[0], registry[1], window)
        self.phases.append(
            cross_check_phase({"kernel calls, spans / registry": (ratio, 1.0, 1.0)})
        )
        out.update(layers.prune_metrics(counters[0], counters[1], queries))
        fits = [span for span in spans if span[0] == "offline.fit"]
        out["offline.fit_s"] = median([span[2] - span[1] for span in fits])
        traced = percentile(pooled(loops), 50)
        base = percentile(untraced.latencies, 50)
        out["obs.trace_overhead_share"] = (traced - base) / base
        self.layer = out
        self.self_times = {
            "query loop": layers.self_time_table(loop_spans, loop_queries),
            "query_batch(64)": layers.self_time_table(batch_spans, batch_queries),
        }

    def end_to_end(self) -> Dict[str, float]:
        loops, batches = self.measured["loop"], self.measured["batch"]
        loop = pooled(loops)
        batch = pooled(batches)
        setups = [entry["setup_s"] for entry in self.setup_breakdown]
        metrics = {
            "setup_s": fastest_steps(self.setup_breakdown, SETUP_STEPS),
            "latency_ms": median([percentile(phase.latencies, 50) for phase in loops]) * 1e3,
            "rate": median(
                [phase.notes["queries"] / sum(phase.latencies) for phase in batches]
            ),
        }
        self.named = [
            ("setup_s", metrics["setup_s"], "s"),
            ("setup_median_s", median(setups), "s"),
            ("p50_ms", metrics["latency_ms"], "ms"),
            ("p90_ms", median([percentile(phase.latencies, 90) for phase in loops]) * 1e3, "ms"),
            ("qps", len(loop) / sum(loop), "q/s"),
            ("batch_qps", metrics["rate"], "q/s"),
        ]
        log(tail_line("query call", loop))
        log(tail_line("query_batch(64) call", batch))
        return metrics




def run(spec, inputs, seed: int, seconds: int, trace: bool):
    workload = SelectiveRun(spec, inputs, seed, seconds, trace)
    workload.run()
    return workload
