"""The ``ingest`` workload: writes beside reads, through to a published snapshot.

Set-up (timed, repeated through the run): database build, offline fit,
engine build and the first verified answer.  Then, for as long as the run
lasts, one fixed 250-graph chunk at a time is published onto the fitted
2,000-graph base:

``add_many`` -> one query -> ``refit`` -> ``save_engine`` -> ``load_engine``
-> a probe set answered by the loaded snapshot at the new model version.

Every publish starts from the same restored base state, with a serving
engine that has already answered a few queries, so the samples are
independent; the chunks rotate through 4 distinct ones, so each is
published several times in a run.  The clock pauses while the fresh
query's answer is checked against an unpruned engine over the same data
and model; the probe answers are checked against the in-memory
``fitter.build_engine()`` answers afterwards.

The gated numbers add up each step's fastest repeat (see ``end_to_end``):
the host alternates between two speeds, about 1.6x apart, for seconds at a
time, so a median reports whichever speed held for most of the run.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
from collections import defaultdict
from typing import Dict, List, Sequence

import hooks
import layers
from common import (
    WORK_DIR,
    Phase,
    fastest_steps,
    log,
    log_setup,
    median,
    percentile,
    query_of,
)
from spans import SpanRecorder, within

#: In a traced run, publishes run untraced until this share of the time.
UNTRACED_SHARE = 0.35
#: Timed set-ups before the first publish (more follow each publish).
INITIAL_SETUPS = 5
#: The consecutive timed steps of a set-up; they add up to ``setup_s``.
SETUP_STEPS = ("database_s", "fit_s", "engine_s", "first_answer_s")
#: The timed steps of a publish, in order; they add up to ``publish_s``.
PUBLISH_STEPS = ("add", "query", "refit", "save", "load", "first")
#: The write-then-read steps of a publish.
ADD_QUERY_STEPS = ("add", "query")


class IngestRun:
    def __init__(self, spec, inputs, seed: int, seconds: int, trace: bool) -> None:
        self.spec = spec
        self.inputs = inputs
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.phases: List[Phase] = []
        self.setup_breakdown: List[Dict[str, float]] = []
        self.recorder = SpanRecorder()
        self.layer: Dict[str, float] = {}
        self.reasons: Dict[str, str] = {}
        self.self_times: Dict[str, List[str]] = {}
        self.snapshot_path = WORK_DIR / f"ingest-{os.getpid()}.snapshot"
        self.published = 0
        self.setup_check = Phase("setup")
        self.phases.append(self.setup_check)

    def _query(self, index: int):
        return query_of(self.inputs["pool"][index], self.spec.gamma)

    def _chunk_queries(self, chunk: int):
        """The fresh query and the probe set of one chunk."""
        spec = self.spec
        first = spec.warm_queries + chunk * (1 + spec.probes)
        return self._query(first), [self._query(first + 1 + k) for k in range(spec.probes)]

    def _unpruned(self, database, estimator, version: int):
        from repro.serving.engine import BatchQueryEngine

        engine = BatchQueryEngine(
            database, estimator, max_tau=self.spec.max_tau, pruned_execution=False, cache_size=None
        )
        engine.model_version = version
        return engine

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """One timed set-up; the first also makes the base state publishes restart from.

        Set-up takes ~0.1 s here; the run repeats it once after every
        publish as well, spreading the samples of ``setup_s`` over the
        whole run.
        """
        from repro import GraphDatabase, OfflineFitter

        spec = self.spec
        gc.collect()
        started = time.perf_counter()
        database = GraphDatabase(self.inputs["graphs"], name="ingest")
        built = time.perf_counter()
        fitter = OfflineFitter(
            database, max_tau=spec.max_tau, num_prior_pairs=spec.prior_pairs, seed=self.seed
        ).fit()
        fitted = time.perf_counter()
        engine = fitter.build_engine()
        engine_built = time.perf_counter()
        first = engine.query(self._query(0))
        finished = time.perf_counter()
        expected = self._unpruned(database, fitter.estimator, fitter.version).query(
            self._query(0)
        )
        self.setup_check.sent += 1
        self.setup_check.check(first, expected)
        breakdown = {
            "setup_s": finished - started,
            "database_s": built - started,
            "fit_s": fitted - built,
            "engine_s": engine_built - fitted,
            "first_answer_s": finished - engine_built,
        }
        log_setup(len(self.setup_breakdown), breakdown)
        self.setup_breakdown.append(breakdown)
        if len(self.setup_breakdown) == 1:
            self.base = pickle.dumps((database, fitter), protocol=pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------ #
    # publishes
    # ------------------------------------------------------------------ #
    def publish(self, phase: Phase) -> None:
        """Publish the next chunk onto a freshly restored base state."""
        import repro.serving.snapshot as snapshot

        spec = self.spec
        chunk_index = self.published % spec.distinct_chunks
        self.published += 1
        chunk = self.inputs["chunks"][chunk_index]
        fresh_query, probes = self._chunk_queries(chunk_index)
        database, fitter = pickle.loads(self.base)
        live = fitter.build_engine()
        for index in range(spec.warm_queries):
            live.query(self._query(index))
        # Dead engines of earlier samples still hold database subscriptions
        # until collected; collect outside the timed steps.
        gc.collect()

        started = time.perf_counter()
        database.add_many(chunk)
        query_started = time.perf_counter()
        fresh = live.query(fresh_query)
        paused = time.perf_counter()
        # Clock paused: check the fresh answer (old model, new data).
        expected = self._unpruned(database, live.estimator, live.model_version).query(fresh_query)
        phase.sent += 1
        phase.check(fresh, expected)
        del expected
        notes = phase.notes
        notes.setdefault("add_windows", []).append((started, query_started, paused))
        resumed = time.perf_counter()
        fitter.refit()
        refitted = time.perf_counter()
        engine = fitter.build_engine()
        snapshot.save_engine(engine, self.snapshot_path)
        saved = time.perf_counter()
        loaded = snapshot.load_engine(self.snapshot_path)
        loaded_at = time.perf_counter()
        first = loaded.query(probes[0])
        published = time.perf_counter()

        answers = [first] + [loaded.query(query) for query in probes[1:]]
        phase.sent += len(probes)
        if loaded.model_version != fitter.version:
            phase.failed += len(probes)
        else:
            # Oracle: the in-memory engine at the same model version.
            for query, answer in zip(probes, answers):
                phase.check(answer, engine.query(query))
        steps = {
            "add": query_started - started,
            "query": paused - query_started,
            "refit": refitted - resumed,
            "save": saved - refitted,
            "load": loaded_at - saved,
            "first": published - loaded_at,
        }
        notes.setdefault("chunk", []).append(chunk_index)
        notes.setdefault("steps", []).append(steps)
        notes.setdefault("refit_pairs", []).append(fitter.last_report.num_new_pairs)
        notes.setdefault("publish_windows", []).append((resumed, published))
        notes["snapshot_bytes"] = self.snapshot_path.stat().st_size
        log(f"  publish chunk {chunk_index}: " + " ".join(f"{k} {v:.4f}" for k, v in steps.items()))
        self.snapshot_path.unlink()

    def publishes(self, name: str, seconds: float, at_least: int = 1) -> Phase:
        """Publish chunks until ``seconds`` have passed and ``at_least`` are published.

        Each publish is followed by one more timed set-up.
        """
        phase = Phase(name).begin()
        stop = phase.start + seconds
        while len(phase.notes.get("chunk", ())) < at_least or time.perf_counter() < stop:
            self.publish(phase)
            self.setup()
        phase.finish()
        self.phases.append(phase)
        log(phase.report())
        return phase

    def run(self) -> None:
        if self.trace:
            hooks.install_engine_hooks(self.recorder)
            for _ in range(INITIAL_SETUPS):
                self.setup()
            self.recorder.uninstall()
            # The first publish after set-up pays one-time costs: warm-up.
            self.publishes("publish-warmup", 0)
            every = self.spec.distinct_chunks
            untraced = self.publishes("publish-untraced", self.seconds * UNTRACED_SHARE, every)
            hooks.install_engine_hooks(self.recorder)
            self.measured = self.publishes(
                "publish-traced", self.seconds * (1 - UNTRACED_SHARE), every
            )
            self.recorder.uninstall()
            self.per_layer(untraced)
        else:
            for _ in range(INITIAL_SETUPS):
                self.setup()
            self.publishes("publish-warmup", 0)
            self.measured = self.publishes("publish", self.seconds, self.spec.distinct_chunks)

    def per_layer(self, untraced: Phase) -> None:
        """Layer numbers from the timed steps only (verification is excluded)."""
        spans = self.recorder.spans
        notes = self.measured.notes
        adds, fresh, publish = [], [], []
        for started, query_started, paused in notes["add_windows"]:
            adds += within(spans, started, query_started)
            fresh += within(spans, query_started, paused)
        for resumed, published in notes["publish_windows"]:
            publish += within(spans, resumed, published)
        chunks = len(notes["add_windows"])
        out: Dict[str, float] = {}
        out.update(layers.engine_metrics(adds, chunks))
        fresh_metrics = layers.engine_metrics(fresh, chunks)
        for key, value in fresh_metrics.items():
            if key.startswith(("engine.", "core.", "cache.", "columnar.")):
                out[key] = value
                self.reasons[key] = "first query after each add_many, per chunk"

        def median_seconds(name):
            return median([span[2] - span[1] for span in publish if span[0] == name])

        out["offline.refit_s"] = median_seconds("offline.refit")
        out["offline.refit_pairs"] = median(self.measured.notes["refit_pairs"])
        out["snapshot.save_s"] = median_seconds("snapshot.save")
        out["snapshot.load_s"] = median_seconds("snapshot.load")
        out["snapshot.bytes"] = self.measured.notes["snapshot_bytes"]
        out["offline.fit_s"] = median(
            [span[2] - span[1] for span in spans if span[0] == "offline.fit"]
        )
        traced = fastest_per_chunk(self.measured.notes, PUBLISH_STEPS)
        base = fastest_per_chunk(untraced.notes, PUBLISH_STEPS)
        out["obs.trace_overhead_share"] = (traced - base) / base
        self.layer = out
        self.self_times = {
            "add_many": layers.self_time_table(adds, chunks, "chunk"),
            "first query after add_many": layers.self_time_table(fresh, chunks, "chunk"),
            "refit to first answer from the loaded snapshot": layers.self_time_table(
                publish, len(notes["publish_windows"]), "publish"
            ),
        }

    def end_to_end(self) -> Dict[str, float]:
        """Gated: set-up, publish and write-then-read, each step at its fastest.

        Chunks differ in work (refit's EM runs 120 to 200 iterations), so
        publish steps are taken at their fastest per chunk and averaged
        over the chunks.  The medians the workload's own table names are
        printed beside them.
        """
        notes = self.measured.notes
        steps = notes["steps"]
        publish = [sum(sample.values()) for sample in steps]
        add_query = [sum(sample[step] for step in ADD_QUERY_STEPS) for sample in steps]
        chunk = self.spec.chunk_size
        metrics = {
            "setup_s": fastest_steps(self.setup_breakdown, SETUP_STEPS),
            "latency_ms": fastest_per_chunk(notes, PUBLISH_STEPS) * 1e3,
            "rate": chunk / fastest_per_chunk(notes, ADD_QUERY_STEPS),
        }
        self.named = [
            ("setup_s", metrics["setup_s"], "s"),
            ("setup_median_s", median([entry["setup_s"] for entry in self.setup_breakdown]), "s"),
            ("publish_fastest_ms", metrics["latency_ms"], "ms"),
            ("add_query_fastest_gps", metrics["rate"], "graphs/s"),
            ("ingest_gps", chunk * len(add_query) / sum(add_query), "graphs/s"),
            ("fresh_query_ms", median([sample["query"] for sample in steps]) * 1e3, "ms"),
            ("publish_s", median(publish), "s"),
            ("publish_p90_s", percentile(publish, 90), "s"),
        ]
        log(f"chunks published: {len(publish)}, set-ups: {len(self.setup_breakdown)}")
        return metrics


def fastest_per_chunk(notes, steps: Sequence[str]) -> float:
    """Mean over the chunks of :func:`fastest_steps` over each chunk's publishes."""
    by_chunk: Dict[int, List[Dict[str, float]]] = defaultdict(list)
    for chunk, sample in zip(notes["chunk"], notes["steps"]):
        by_chunk[chunk].append(sample)
    return sum(fastest_steps(samples, steps) for samples in by_chunk.values()) / len(by_chunk)


def run(spec, inputs, seed: int, seconds: int, trace: bool):
    workload = IngestRun(spec, inputs, seed, seconds, trace)
    workload.run()
    return workload
