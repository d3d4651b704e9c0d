"""Shared pieces of the benchmark: workload specs, cached inputs, phases, checks.

Workload specs follow the "one class per workload, parameters as fields"
pattern; :func:`load_inputs` generates a workload's inputs from its seed
once and reuses them from ``.perfbench_cache/`` in the checkout on later
runs with the same seed and parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from spans import within

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
WORK_DIR = ROOT / ".perfbench_work"


def log(message: str) -> None:
    """Human-readable progress line (stdout; the result is the last line)."""
    print(f"[perfbench] {message}", flush=True)


# ---------------------------------------------------------------------- #
# workload specs
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class ServeSpec:
    """Served round trip: small graphs, Zipf-popular queries, one child server."""

    name: str = "serve"
    num_graphs: int = 2000
    vertices: tuple = (8, 12)
    edges: tuple = (9, 18)
    tau_hats: tuple = (1, 2, 3)
    gamma: float = 0.5
    pool_size: int = 4096
    zipf_exponent: float = 0.9
    light_rate: float = 400.0
    connections: int = 2
    peak_outstanding: int = 32
    max_tau: int = 3
    prior_pairs: int = 400
    reference_sample: int = 8


@dataclasses.dataclass(frozen=True)
class SelectiveSpec:
    """Selective scoring: size-diverse database, tight thresholds, in-process."""

    name: str = "selective"
    num_graphs: int = 16_000
    db_vertices: tuple = (8, 120)
    query_vertices: tuple = (8, 12)
    tau_hats: tuple = (0, 1)
    gamma: float = 0.95
    pool_size: int = 4096
    batch_size: int = 64
    max_tau: int = 3
    prior_pairs: int = 300
    reference_sample: int = 4


@dataclasses.dataclass(frozen=True)
class IngestSpec:
    """Ingest to publish: add, query, refit, save, load, verify, per chunk."""

    name: str = "ingest"
    base_graphs: int = 2000
    chunk_size: int = 250
    distinct_chunks: int = 4
    vertices: tuple = (8, 12)
    edges: tuple = (9, 18)
    tau_hats: tuple = (1, 2, 3)
    gamma: float = 0.5
    warm_queries: int = 16
    probes: int = 16
    max_tau: int = 3
    prior_pairs: int = 400


SPECS = {spec.name: spec for spec in (ServeSpec(), SelectiveSpec(), IngestSpec())}


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def _small_graph(rng: random.Random, vertices, edges):
    from repro.graphs.generators import random_labeled_graph

    return random_labeled_graph(rng.randint(*vertices), rng.randint(*edges), seed=rng)


def _sized_graph(rng: random.Random, vertices):
    from repro.graphs.generators import random_labeled_graph

    order = rng.randint(*vertices)
    return random_labeled_graph(order, rng.randint(order - 1, 2 * order), seed=rng)


def generate_inputs(spec, seed: int) -> Dict[str, Any]:
    """Generate one workload's inputs: graphs and (graph, τ̂) query pool."""
    rng = random.Random(f"{spec.name}:{seed}")
    if spec.name == "serve":
        graphs = [_small_graph(rng, spec.vertices, spec.edges) for _ in range(spec.num_graphs)]
        pool = [
            (_small_graph(rng, spec.vertices, spec.edges), spec.tau_hats[i % len(spec.tau_hats)])
            for i in range(spec.pool_size)
        ]
        return {"graphs": graphs, "pool": pool}
    if spec.name == "selective":
        graphs = [_sized_graph(rng, spec.db_vertices) for _ in range(spec.num_graphs)]
        pool = [
            (_sized_graph(rng, spec.query_vertices), spec.tau_hats[i % len(spec.tau_hats)])
            for i in range(spec.pool_size)
        ]
        return {"graphs": graphs, "pool": pool}
    if spec.name == "ingest":
        graphs = [_small_graph(rng, spec.vertices, spec.edges) for _ in range(spec.base_graphs)]
        chunks = [
            [_small_graph(rng, spec.vertices, spec.edges) for _ in range(spec.chunk_size)]
            for _ in range(spec.distinct_chunks)
        ]
        queries = [
            (_small_graph(rng, spec.vertices, spec.edges), spec.tau_hats[i % len(spec.tau_hats)])
            for i in range(spec.warm_queries + spec.distinct_chunks * (1 + spec.probes))
        ]
        return {"graphs": graphs, "chunks": chunks, "pool": queries}
    raise ValueError(f"unknown workload {spec.name!r}")


def spec_digest(spec) -> str:
    fields = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return hashlib.sha256(fields.encode()).hexdigest()[:12]


def load_inputs(spec, seed: int) -> Dict[str, Any]:
    """Inputs for ``(spec, seed)``: from the checkout's cache, else generated.

    The cache key covers the program's sources too: the graphs come from
    its generator and are stored as its own objects.
    """
    path = CACHE_DIR / f"{spec.name}-{spec_digest(spec)}-{source_digest()}-{seed}.pkl"
    if path.exists():
        # Only this benchmark writes the cache directory.
        with path.open("rb") as handle:
            return pickle.load(handle)
    inputs = generate_inputs(spec, seed)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    with partial.open("wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return inputs


def query_of(entry, gamma: float):
    """A fresh query object for one pool entry (no cached branch multiset)."""
    from repro.db.query import SimilarityQuery

    graph, tau_hat = entry
    return SimilarityQuery(graph, tau_hat, gamma)


# ---------------------------------------------------------------------- #
# phases and checks
# ---------------------------------------------------------------------- #
class Phase:
    """Counts and latency samples of one named phase of a run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.start = 0.0
        self.end = 0.0
        self.latencies: List[float] = []
        self.notes: Dict[str, Any] = {}

    def begin(self) -> "Phase":
        self.start = time.perf_counter()
        return self

    def finish(self) -> "Phase":
        self.end = time.perf_counter()
        return self

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def check(self, received, expected) -> bool:
        """Count one answer: failed unless it equals the oracle's exactly."""
        good = (
            received is not None
            and not isinstance(received, BaseException)
            and expected is not None
            and received.accepted_ids == expected.accepted_ids
            and received.scores == expected.scores
        )
        if good:
            self.ok += 1
        else:
            self.failed += 1
        return good

    def report(self) -> str:
        line = f"phase {self.name}: sent {self.sent} ok {self.ok} failed {self.failed}"
        if self.latencies:
            line += f" (p50 {percentile(self.latencies, 50) * 1e3:.3f} ms)"
        return line


def cross_check_phase(checks: Dict[str, tuple]) -> Phase:
    """Count checks of ``name -> (value, low, high)``: failed outside the range or missing."""
    phase = Phase("cross-check")
    for name, (value, low, high) in checks.items():
        phase.sent += 1
        good = value is not None and low <= value <= high
        if good:
            phase.ok += 1
        else:
            phase.failed += 1
        shown = "missing" if value is None else f"{value:.4f}"
        log(f"cross-check {name}: {shown} (allowed {low:g} to {high:g}) {'ok' if good else 'FAIL'}")
    log(phase.report())
    return phase


def log_setup(index: int, breakdown: Dict[str, float]) -> None:
    log(f"setup {index + 1}: " + ", ".join(f"{key} {value:.4f}" for key, value in breakdown.items()))


def pooled(phases: List[Phase]) -> List[float]:
    """Latency samples of several phases of one kind."""
    return [value for phase in phases for value in phase.latencies]


def in_phases(spans, phases: List[Phase]) -> List[list]:
    """Spans that started inside any of the phases' windows."""
    return [span for phase in phases for span in within(spans, phase.start, phase.end)]


def oracle_answers(fitter, pool, gamma: float, batch_size: int = 64) -> List:
    """Answers of an unpruned in-process engine over the same fit, for the whole pool."""
    unpruned = fitter.build_engine(pruned_execution=False, cache_size=None)
    answers: List = []
    for offset in range(0, len(pool), batch_size):
        batch = [query_of(entry, gamma) for entry in pool[offset:offset + batch_size]]
        answers.extend(unpruned.query_batch(batch))
    return answers


def reference_phase(spec, seed: int, database, pool, oracle) -> Phase:
    """``GBDASearch.query_reference`` against the oracle on a fixed sample of the pool.

    The search is fitted separately with the workload's parameters, so the
    check also covers the offline stage.
    """
    from repro import GBDASearch

    search = GBDASearch(
        database, max_tau=spec.max_tau, num_prior_pairs=spec.prior_pairs, seed=seed
    ).fit()
    phase = Phase("oracle-reference")
    step = len(pool) // spec.reference_sample
    for index in range(0, len(pool), step)[: spec.reference_sample]:
        result = search.query_reference(query_of(pool[index], spec.gamma))
        accepted = result.answer.accepted_ids
        expected = oracle[index]
        phase.sent += 1
        if (
            accepted == expected.accepted_ids
            and {gid: result.posteriors[gid] for gid in accepted} == expected.scores
        ):
            phase.ok += 1
        else:
            phase.failed += 1
    log(phase.report())
    return phase


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail_line(name: str, values: Sequence[float], scale: float = 1e3, unit: str = "ms") -> str:
    """p50/p90/p99 of a sample with its size and how many lie beyond p99."""
    if not values:
        return f"{name}: no samples"
    p99 = percentile(values, 99)
    beyond = sum(1 for value in values if value > p99)
    return (
        f"{name}: p50 {percentile(values, 50) * scale:.3f} {unit}, "
        f"p90 {percentile(values, 90) * scale:.3f} {unit}, "
        f"p99 {p99 * scale:.3f} {unit} (n={len(values)}, {beyond} beyond p99)"
    )


def fastest_steps(samples: Sequence[Dict[str, float]], steps: Sequence[str]) -> float:
    """Sum over ``steps`` of each step's fastest time among ``samples``.

    Repeats of a step do the same work, and contention from other tenants
    of the host only ever adds time, so a step's fastest repeat is its cost
    on an uncontended machine (the convention of ``timeit``).  A short step
    meets an uncontended moment far more often than a whole sample does.
    """
    return sum(min(sample[step] for sample in samples) for step in steps)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def source_digest() -> str:
    """sha256 over the program's source files (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """The commit of a git checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(spec, seed: int, seconds: int, trace: bool, backend: str) -> Dict[str, Any]:
    """Run manifest: what ran, on what, with which parameters."""
    import numpy

    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "parameters": dataclasses.asdict(spec),
        "argv": sys.argv[1:],
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
