"""The ``serve`` workload: a child server process driven over the wire.

Set-up (timed, repeated): database build, offline fit, engine build,
snapshot save, child process start from the snapshot, two connections,
``ping``, and the first verified answer.  Then three phases from one
asyncio thread with two ``AsyncServiceClient`` connections, each after a
warm-up: unloaded (closed loop, one query in flight), light (open loop,
Poisson arrivals) and peak (closed loop, 2 x 32 outstanding).  Open-loop
latency is timed from each request's due time.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import hooks
import layers
from common import (
    ROOT,
    WORK_DIR,
    Phase,
    cross_check_phase,
    fastest_steps,
    in_phases,
    log,
    log_setup,
    median,
    oracle_answers,
    percentile,
    pooled,
    query_of,
    reference_phase,
    tail_line,
)
from spans import ATTRS, END, NAME, START, SpanRecorder, load_rows, self_seconds, within

CHILD = Path(__file__).resolve().parent / "serve_child.py"

#: Rounds of (unloaded, light, peak) phases in a run.
ROUNDS = 5
#: Share of ``--seconds`` given to each kind of phase over all rounds:
#: (warm-up, measured).  The gated phases (unloaded, peak) get the most.
PHASES = {"unloaded": (0.04, 0.24), "light": (0.04, 0.20), "peak": (0.04, 0.44)}
#: In a traced run the unloaded phase first runs untraced for this share.
UNTRACED_SHARE = 0.15
#: The open-loop generator counts as behind when its p99 lateness exceeds
#: this, or when it achieved less than this share of the offered rate.
BEHIND_LATENESS_S = 0.010
BEHIND_RATE_SHARE = 0.95
CHILD_TIMEOUT_S = 60.0
#: The consecutive timed steps of a set-up; they add up to ``setup_s``.
SETUP_STEPS = ("database_s", "fit_s", "engine_s", "save_s", "child_s", "first_answer_s")
#: Allowed range of span medians over the server's own waterfall medians:
#: the two time slightly different boundaries of the same stage.
WATERFALL_TOLERANCE = (0.8, 1.25)


class ServerProcess:
    """The child server: started from a snapshot, driven by stdin commands."""

    def __init__(self, snapshot: Path, env: Dict[str, str]) -> None:
        self.snapshot = snapshot
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(snapshot)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
            env=env,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            ready = json.loads(self._readline())
        except BaseException:
            self.stop()
            raise
        self.port = int(ready["port"])
        self.start_s = float(ready["start_s"])

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _readline(self) -> str:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("server process did not answer in time") from None
        if line is None:
            raise RuntimeError(f"server process exited (code {self.proc.poll()})")
        return line

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self._readline().strip()
        if reply != "ok":
            raise RuntimeError(f"server process refused {text!r}: {reply}")

    def stop(self) -> None:
        """Stop the child (killing it if it does not stop) and drop its snapshot."""
        try:
            if self.proc.poll() is None:
                self.command("stop")
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._reader.join(timeout=CHILD_TIMEOUT_S)
            self.snapshot.unlink(missing_ok=True)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def zipf_sequence(pool_size: int, exponent: float, seed: int):
    """Endless Zipf(exponent)-distributed pool indices (rank 1 = index 0)."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** exponent
    probabilities = weights / weights.sum()
    generator = np.random.default_rng(seed)
    while True:
        yield from generator.choice(pool_size, size=65536, p=probabilities).tolist()


class ServeRun:
    def __init__(self, spec, inputs, seed: int, seconds: int, trace: bool) -> None:
        self.spec = spec
        self.inputs = inputs
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.queries = [query_of(entry, spec.gamma) for entry in inputs["pool"]]
        self.sequence = zipf_sequence(spec.pool_size, spec.zipf_exponent, seed)
        self.arrivals = random.Random(f"arrivals:{seed}")
        self.oracle: List = []
        self.phases: List[Phase] = []
        self.setup_breakdown: List[Dict[str, float]] = []
        self.server: Optional[ServerProcess] = None
        self.clients: List = []
        self.recorder = SpanRecorder()
        self.layer: Dict[str, float] = {}
        self.reasons: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    async def setup_once(self, index: int):
        from repro import GraphDatabase, OfflineFitter
        from repro.service import AsyncServiceClient
        import repro.serving.snapshot as snapshot

        spec = self.spec
        path = WORK_DIR / f"serve-{os.getpid()}-{index}.snapshot"
        marks = {}
        started = time.perf_counter()
        database = GraphDatabase(self.inputs["graphs"], name="serve")
        marks["database_s"] = time.perf_counter()
        fitter = OfflineFitter(
            database, max_tau=spec.max_tau, num_prior_pairs=spec.prior_pairs, seed=self.seed
        ).fit()
        marks["fit_s"] = time.perf_counter()
        engine = fitter.build_engine()
        marks["engine_s"] = time.perf_counter()
        snapshot.save_engine(engine, path)
        marks["save_s"] = time.perf_counter()
        server = ServerProcess(path, child_env())
        marks["child_s"] = time.perf_counter()
        clients = [
            await AsyncServiceClient.connect("127.0.0.1", server.port)
            for _ in range(spec.connections)
        ]
        await clients[0].ping()
        first_index = next(self.sequence)
        first = await clients[0].query(self.queries[first_index])
        finished = time.perf_counter()
        breakdown = {"setup_s": finished - started}
        previous = started
        for key, mark in marks.items():
            breakdown[key] = mark - previous
            previous = mark
        breakdown["first_answer_s"] = finished - previous
        breakdown["child_start_s"] = server.start_s
        breakdown["snapshot_bytes"] = path.stat().st_size
        return breakdown, fitter, server, clients, (first_index, first)

    async def setup(self, repeats: int = 5) -> None:
        check = Phase("setup")
        for index in range(repeats):
            breakdown, fitter, server, clients, first = await self.setup_once(index)
            self.setup_breakdown.append(breakdown)
            if index == 0:
                self.build_oracle(fitter)
            check.sent += 1
            check.check(first[1], self.oracle[first[0]])
            log_setup(index, breakdown)
            if index < repeats - 1:
                for client in clients:
                    await client.close()
                server.stop()
            else:
                self.server, self.clients = server, clients
            del fitter
            gc.collect()
        self.phases.append(check)

    def build_oracle(self, fitter) -> None:
        pool = self.inputs["pool"]
        self.oracle = oracle_answers(fitter, pool, self.spec.gamma)
        self.phases.append(
            reference_phase(self.spec, self.seed, fitter.database, pool, self.oracle)
        )

    # ------------------------------------------------------------------ #
    # load generation
    # ------------------------------------------------------------------ #
    async def _one(self, client, phase: Phase, index: int, due: float, results, stop: float):
        try:
            answer = await client.query(self.queries[index])
        except Exception as exc:  # refused, timed out or broken: a failure
            answer = exc
        done = time.perf_counter()
        results.append((index, answer))
        phase.latencies.append(done - due)
        if done <= stop:
            phase.notes["completed_in_window"] = phase.notes.get("completed_in_window", 0) + 1

    async def closed_loop(self, name: str, seconds: float, outstanding: int) -> Phase:
        """``outstanding`` workers, spread over the connections, each one query at a time."""
        phase = Phase(name)
        results: List = []
        phase.begin()
        stop = phase.start + seconds

        async def worker(slot: int) -> None:
            turn = slot
            while time.perf_counter() < stop:
                client = self.clients[turn % len(self.clients)]
                turn += outstanding
                index = next(self.sequence)
                phase.sent += 1
                await self._one(client, phase, index, time.perf_counter(), results, stop)

        await asyncio.gather(*(worker(slot) for slot in range(outstanding)))
        phase.end = stop
        self.verify(phase, results)
        return phase

    async def open_loop(self, name: str, seconds: float, rate: float) -> Phase:
        """Poisson arrivals at ``rate``; latency runs from each request's due time."""
        phase = Phase(name)
        results: List = []
        lateness: List[float] = []
        tasks = []
        phase.begin()
        stop = phase.start + seconds
        due = phase.start
        turn = 0
        while True:
            due += self.arrivals.expovariate(rate)
            if due >= stop:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            index = next(self.sequence)
            phase.sent += 1
            client = self.clients[turn % len(self.clients)]
            turn += 1
            tasks.append(
                asyncio.ensure_future(self._one(client, phase, index, due, results, stop))
            )
        await asyncio.gather(*tasks)
        phase.end = stop
        phase.notes["lateness"] = lateness
        self.verify(phase, results)
        return phase

    def verify(self, phase: Phase, results) -> None:
        for index, answer in results:
            phase.check(answer, self.oracle[index])
        self.phases.append(phase)
        extra = ""
        if "lateness" in phase.notes:
            extra = " " + json.dumps(
                {key: round(value, 4) for key, value in loadgen_summary([phase]).items()}
            )
        log(phase.report() + extra)

    async def run_rounds(self, scale: float, suffix: str = "") -> Dict[str, List[Phase]]:
        """A warm-up round, then ``ROUNDS`` rounds of unloaded, light and peak.

        Each phase also runs after its own short warm-up.  Interleaving the
        three phases spreads each over the whole run, and the end-to-end
        metrics are medians over rounds, so a burst of contention on the
        host spoils one round rather than the run.
        """
        seconds = self.seconds * scale / ROUNDS
        spec = self.spec
        out: Dict[str, List[Phase]] = {"unloaded": [], "light": [], "peak": []}
        for round_index in range(ROUNDS + 1):
            tag = f"{suffix}-{round_index}" if round_index else f"{suffix}-warmup"
            warm, measured = PHASES["unloaded"]
            await self.closed_loop(f"unloaded-warmup{tag}", warm * seconds, 1)
            unloaded = await self.closed_loop(f"unloaded{tag}", measured * seconds, 1)
            if self.trace and suffix and round_index == 1:
                await self.cross_check_traces()
            warm, measured = PHASES["light"]
            await self.open_loop(f"light-warmup{tag}", warm * seconds, spec.light_rate)
            light = await self.open_loop(f"light{tag}", measured * seconds, spec.light_rate)
            warm, measured = PHASES["peak"]
            outstanding = spec.peak_outstanding * spec.connections
            await self.closed_loop(f"peak-warmup{tag}", warm * seconds, outstanding)
            before = await self.clients[0].stats()
            peak = await self.closed_loop(f"peak{tag}", measured * seconds, outstanding)
            after = await self.clients[0].stats()
            peak.notes["stats_delta"] = _batcher_delta(before, after)
            if round_index:  # round 0 warms the fresh server up as a whole
                out["unloaded"].append(unloaded)
                out["light"].append(light)
                out["peak"].append(peak)
        return out

    # ------------------------------------------------------------------ #
    # traced run
    # ------------------------------------------------------------------ #
    async def cross_check_traces(self) -> None:
        """Collect the server's own sampled waterfalls of an unloaded phase."""
        recent = (await self.clients[0].traces(limit=64))["recent"]
        stages: Dict[str, List[float]] = {}
        for trace in recent:
            totals: Dict[str, float] = {}
            for span in trace["spans"]:
                key = f"{span['name']}@{span['depth']}"
                totals[key] = totals.get(key, 0.0) + span["duration_ms"] / 1e3
            for key, value in totals.items():
                stages.setdefault(key, []).append(value)
        self.trace_stages = {key: median(values) for key, values in stages.items()}
        self.trace_count = len(recent)

    async def run(self) -> None:
        await self.setup()
        if not self.trace:
            self.measured = await self.run_rounds(1.0)
            return
        warm, measured = PHASES["unloaded"]
        seconds = self.seconds * UNTRACED_SHARE
        await self.closed_loop("unloaded-warmup-untraced", seconds * warm / (warm + measured), 1)
        untraced = await self.closed_loop(
            "unloaded-untraced", seconds * measured / (warm + measured), 1
        )
        hooks.install_client_hooks(self.recorder)
        self.server.command("trace on")
        stats_before = await self.clients[0].stats()
        registry_before = layers.prometheus_kernel_counts(await self.clients[0].prometheus())
        window = [time.perf_counter()]
        self.measured = await self.run_rounds(1.0 - UNTRACED_SHARE, suffix="-traced")
        window.append(time.perf_counter())
        registry_after = layers.prometheus_kernel_counts(await self.clients[0].prometheus())
        stats_after = await self.clients[0].stats()
        self.recorder.uninstall()
        dump = WORK_DIR / f"serve-spans-{os.getpid()}.json"
        self.server.command(f"dump {dump}")
        self.server.command("trace off")
        server_spans = load_rows(json.loads(dump.read_text()))
        dump.unlink()
        self.per_layer(
            untraced,
            server_spans,
            tuple(window),
            (stats_before, stats_after),
            (registry_before, registry_after),
        )

    def per_layer(self, untraced, server_spans, window, stats, registry) -> None:
        client_spans = self.recorder.spans
        unloaded = self.measured["unloaded"]
        peak = self.measured["peak"]
        out: Dict[str, float] = {}

        def queries_in(spans):
            return sum(1 for span in spans if span[NAME] == "client.query")

        cu, su = in_phases(client_spans, unloaded), in_phases(server_spans, unloaded)
        n = queries_in(cu)
        out.update(protocol_metrics(cu + su, n))
        out["client.query_us"] = layers.mean(
            [s[END] - s[START] for s in cu if s[NAME] == "client.query"]
        ) * 1e6
        out["client.self_us"] = layers.mean(self_seconds(cu, "client.query")) * 1e6
        out["server.self_us"] = layers.mean(self_seconds(su, "server.request")) * 1e6
        waits = [s[END] - s[START] for s in su if s[NAME] == "batcher.queue_wait"]
        out["batcher.queue_wait_us"] = layers.mean(waits) * 1e6
        out["batcher.flush_self_us"] = layers.mean(self_seconds(su, "batcher.flush")) * 1e6
        unloaded_engine = layers.engine_metrics(su, n)
        for key, value in unloaded_engine.items():
            if key.startswith(("cache.", "engine.self")):
                out[key] = value
        # Where the unloaded round trip goes (means per query).
        rtt = out["client.query_us"]
        protocol_us = sum(
            out[f"protocol.{key}_us"]
            for key in ("encode_query", "decode_query", "encode_answer", "decode_answer")
        )
        if rtt:
            out["rtt.batcher_wait_share"] = out["batcher.queue_wait_us"] / rtt
            out["rtt.protocol_share"] = protocol_us / rtt
            out["rtt.engine_share"] = (
                unloaded_engine.get("engine.query_batch_us_per_query", 0.0) / rtt
            )
            out["rtt.rest_share"] = 1.0 - (
                out["rtt.batcher_wait_share"] + out["rtt.protocol_share"] + out["rtt.engine_share"]
            )
        # Cross-check against the server's own waterfalls, fetched right after
        # the first traced unloaded phase: the same last queries of that phase.
        first = in_phases(server_spans, unloaded[:1])

        def last_durations(name):
            ours = sorted((s for s in first if s[NAME] == name), key=lambda s: s[START])
            return [s[END] - s[START] for s in ours[-self.trace_count:]]

        checks = {
            "queue_wait@1": last_durations("batcher.queue_wait"),
            "decode@0": last_durations("protocol.decode_query"),
            "score@1": last_durations("batcher.score"),
        }
        low, high = WATERFALL_TOLERANCE
        cross_checks = {}
        for stage, values in checks.items():
            theirs = self.trace_stages.get(stage)
            ratio = median(values) / theirs if theirs and values else None
            cross_checks[f"{stage}, span median / server waterfall median"] = (ratio, low, high)

        # Peak: batching and scoring cost per query.
        sp = in_phases(server_spans, peak)
        engine_peak = layers.engine_metrics(sp, queries_in(in_phases(client_spans, peak)))
        for key in ("engine.query_batch_us_per_query", "core.execute_batch_us_per_query"):
            if key in engine_peak:
                out[key] = engine_peak[key]
        batches = sum(phase.notes["stats_delta"]["batches"] for phase in peak)
        if batches:
            out["batcher.batch_size_mean"] = (
                sum(phase.notes["stats_delta"]["queries"] for phase in peak) / batches
            )
            out["batcher.full_flush_share"] = (
                sum(phase.notes["stats_delta"]["full"] for phase in peak) / batches
            )

        # Whole traced window: kernels, admission, filter counters.
        all_server = within(server_spans, *window)
        n_all = queries_in(within(client_spans, *window))
        for key, value in layers.engine_metrics(all_server, n_all).items():
            if key.startswith("columnar.") or key == "core.self_us":
                out[key] = value
        out.update(layers.kernel_deltas(registry[0], registry[1], n_all))
        ratio = layers.kernel_calls_ratio(registry[0], registry[1], all_server)
        cross_checks["kernel calls, spans / registry"] = (ratio, 1.0, 1.0)
        log(f"cross-checks against {self.trace_count} server waterfalls and the kernel counters:")
        self.phases.append(cross_check_phase(cross_checks))
        out["admission.rejected"] = (
            stats[1]["admission"]["rejected"] - stats[0]["admission"]["rejected"]
        )
        out.update(
            layers.prune_metrics(
                stats[0]["engine"]["prune_counters"], stats[1]["engine"]["prune_counters"], n_all
            )
        )
        light = loadgen_summary(self.measured["light"])
        out["loadgen.lateness_p99_ms"] = light["lateness_p99_ms"]
        out["loadgen.achieved_rate_share"] = light["achieved_qps"] / light["offered_qps"]
        setups = self.setup_breakdown
        out["offline.fit_s"] = median([entry["fit_s"] for entry in setups])
        out["snapshot.save_s"] = median([entry["save_s"] for entry in setups])
        out["snapshot.load_s"] = median([entry["child_start_s"] for entry in setups])
        out["snapshot.bytes"] = setups[-1]["snapshot_bytes"]
        self.reasons["snapshot.load_s"] = (
            "load and start inside the child process (start_service_thread), median of set-ups"
        )
        traced_rtt = percentile(pooled(unloaded), 50)
        untraced_rtt = percentile(untraced.latencies, 50)
        out["obs.trace_overhead_share"] = (traced_rtt - untraced_rtt) / untraced_rtt
        self.layer = out
        self.self_times = {
            "client, unloaded (parent process)": layers.self_time_table(cu, n),
            "server, unloaded (child process)": layers.self_time_table(su, n),
        }

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def end_to_end(self) -> Dict[str, float]:
        rounds = self.measured
        setups = [entry["setup_s"] for entry in self.setup_breakdown]
        metrics = {
            "setup_s": fastest_steps(self.setup_breakdown, SETUP_STEPS),
            "latency_ms": round_median(rounds["unloaded"], 50) * 1e3,
            "rate": median(
                [phase.notes.get("completed_in_window", 0) / phase.seconds for phase in rounds["peak"]]
            ),
        }
        unloaded = pooled(rounds["unloaded"])
        light = pooled(rounds["light"])
        peak = rounds["peak"]
        # Light-phase latency and every p90 are printed, not gated: queueing
        # turns contention from other tenants of a small host into swings of
        # 40% and more between runs (see README).
        self.named = [
            ("setup_s", metrics["setup_s"], "s"),
            ("setup_median_s", median(setups), "s"),
            ("rtt_p50_ms", metrics["latency_ms"], "ms"),
            ("rtt_p90_ms", round_median(rounds["unloaded"], 90) * 1e3, "ms"),
            ("p50_ms", round_median(rounds["light"], 50) * 1e3, "ms"),
            ("p90_ms", round_median(rounds["light"], 90) * 1e3, "ms"),
            ("peak_qps", metrics["rate"], "q/s"),
        ]
        log(tail_line("unloaded round trip", unloaded))
        log(tail_line("light load (from due time)", light))
        log(tail_line("peak", pooled(peak)))
        summary = loadgen_summary(self.measured["light"])
        log("light-load generator: " + json.dumps({k: round(v, 4) for k, v in summary.items()}))
        if summary["generator_behind"]:
            log("WARNING: the open-loop generator fell behind its schedule in the light phase")
        return metrics

    async def close(self) -> None:
        for client in self.clients:
            try:
                await client.close()
            except Exception:
                pass
        if self.server is not None:
            self.server.stop()



def round_median(phases: List[Phase], q: float) -> float:
    """Median over rounds of each round's ``q``-th latency percentile."""
    return median([percentile(phase.latencies, q) for phase in phases])



def loadgen_summary(phases: List[Phase]) -> Dict[str, float]:
    """Offered vs achieved rate and generator lateness of open-loop phases."""
    seconds = sum(phase.seconds for phase in phases)
    lateness = [value for phase in phases for value in phase.notes["lateness"]]
    offered = sum(phase.sent for phase in phases) / seconds
    achieved = sum(phase.notes.get("completed_in_window", 0) for phase in phases) / seconds
    late_p99 = percentile(lateness, 99) if lateness else 0.0
    behind = late_p99 > BEHIND_LATENESS_S or achieved < BEHIND_RATE_SHARE * offered
    return {
        "offered_qps": offered,
        "achieved_qps": achieved,
        "lateness_p50_ms": percentile(lateness, 50) * 1e3 if lateness else 0.0,
        "lateness_p99_ms": late_p99 * 1e3,
        "lateness_max_ms": max(lateness) * 1e3 if lateness else 0.0,
        "generator_behind": float(behind),
    }


def _batcher_delta(before, after) -> Dict[str, float]:
    b, a = before["batcher"], after["batcher"]
    batches = a["batches_flushed"] - b["batches_flushed"]
    queries = a["queries_batched"] - b["queries_batched"]
    full = a["full_flushes"] - b["full_flushes"]
    return {"batches": batches, "queries": queries, "full": full}


def protocol_metrics(spans, num_queries: int) -> Dict[str, float]:
    """Per-query codec cost (payload codec + JSON frame) and frame sizes."""
    totals = {"encode_query": 0.0, "decode_query": 0.0, "encode_answer": 0.0, "decode_answer": 0.0}
    sizes = {"query": [], "answer": []}
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        if name in ("protocol.encode_query", "protocol.decode_query",
                    "protocol.encode_answer", "protocol.decode_answer"):
            totals[name[9:]] += duration
        elif name == "protocol.encode_frame" and span[ATTRS]:
            kind, size = span[ATTRS]
            if kind in sizes:
                totals[f"encode_{kind}"] += duration
                sizes[kind].append(size)
        elif name == "protocol.decode_frame" and span[ATTRS]:
            kind = span[ATTRS][0]
            if kind in sizes:
                totals[f"decode_{kind}"] += duration
    out = {
        f"protocol.{key}_us": value * 1e6 / num_queries if num_queries else 0.0
        for key, value in totals.items()
    }
    out["protocol.query_frame_bytes"] = layers.mean(sizes["query"])
    out["protocol.answer_frame_bytes"] = layers.mean(sizes["answer"])
    return out


def run(spec, inputs, seed: int, seconds: int, trace: bool):
    workload = ServeRun(spec, inputs, seed, seconds, trace)

    async def main():
        try:
            await workload.run()
        finally:
            await workload.close()

    asyncio.run(main())
    return workload
