"""Per-layer metrics of a traced run, computed from spans and the program's counters.

Every workload reports every per-layer metric ``BENCHMARK.json`` declares;
a layer the workload does not exercise reads 0 and is listed as not
exercised.
Times are microseconds per query unless the name says otherwise
(``_s`` seconds, ``_bytes`` bytes, ``_share`` a fraction of 1).
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from hooks import KERNELS
from spans import ATTRS, END, NAME, PARENT, START, self_seconds

_CORE = ("core.execute", "core.execute_pruned", "core.execute_batch")


def _durations(spans: Iterable[list], name: str) -> List[float]:
    return [span[END] - span[START] for span in spans if span[NAME] == name]


def _outer(spans: Iterable[list], name: str) -> List[list]:
    """Spans called ``name`` not nested in a span of the same layer.

    The execution core calls itself (the pruned paths fall back to the
    dense ones), so per-query core time counts the outermost call only.
    """
    layer = name.split(".", 1)[0] + "."
    return [
        span
        for span in spans
        if span[NAME] == name
        and (span[PARENT] is None or not span[PARENT][NAME].startswith(layer))
    ]


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _put_mean(out: Dict[str, float], name: str, seconds: List[float]) -> None:
    if seconds:
        out[name] = mean(seconds) * 1e6


def engine_metrics(spans: List[list], num_queries: int) -> Dict[str, float]:
    """engine, cache, core, columnar and database metrics of one span window."""
    out: Dict[str, float] = {}
    per_query = 1e6 / num_queries if num_queries else 0.0

    batch = [span for span in spans if span[NAME] == "engine.query_batch"]
    batched = sum(span[ATTRS] or 0 for span in batch)
    if batched:
        out["engine.query_batch_us_per_query"] = (
            sum(span[END] - span[START] for span in batch) * 1e6 / batched
        )
    _put_mean(out, "engine.query_us", _durations(spans, "engine.query"))
    engine_self = self_seconds(spans, "engine.query") + self_seconds(spans, "engine.query_batch")
    if engine_self:
        out["engine.self_us"] = sum(engine_self) * per_query

    probes = [span for span in spans if span[NAME] == "cache.get"]
    if probes:
        out["cache.hit_share"] = sum(1 for span in probes if span[ATTRS]) / len(probes)
        out["cache.probe_us"] = mean([span[END] - span[START] for span in probes]) * 1e6

    core_batch = _outer(spans, "core.execute_batch")
    core_batched = sum(span[ATTRS] or 0 for span in core_batch)
    if core_batched:
        out["core.execute_batch_us_per_query"] = (
            sum(span[END] - span[START] for span in core_batch) * 1e6 / core_batched
        )
    _put_mean(
        out,
        "core.execute_pruned_us",
        [span[END] - span[START] for span in _outer(spans, "core.execute_pruned")],
    )
    core_self = [value for name in _CORE for value in self_seconds(spans, name)]
    if core_self:
        out["core.self_us"] = sum(core_self) * per_query

    for kernel in KERNELS:
        calls = _durations(spans, f"columnar.{kernel}")
        if calls:
            out[f"columnar.{kernel}_us"] = sum(calls) * per_query
    compacts = _durations(spans, "columnar.compact")
    if compacts:
        out["columnar.compact_us"] = sum(compacts) * per_query

    adds = [span for span in spans if span[NAME] == "database.add_many"]
    added = sum(span[ATTRS] or 0 for span in adds)
    if added:
        out["database.add_many_us_per_graph"] = (
            sum(span[END] - span[START] for span in adds) * 1e6 / added
        )
    return out


def kernel_calls_from_spans(spans: List[list]) -> Dict[str, int]:
    """Kernel call counts as the spans saw them, keyed by registry label."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        name = span[NAME]
        if name.startswith("columnar.") and name[9:] in KERNELS:
            counts[KERNELS[name[9:]]] += 1
    return dict(counts)


def registry_kernel_counts() -> Dict[str, Dict[str, float]]:
    """This process's kernel call/row counters by kernel label (all backends summed)."""
    from repro.obs.export import snapshot

    data = snapshot()
    out: Dict[str, Dict[str, float]] = {"calls": defaultdict(float), "rows": defaultdict(float)}
    for key, family in (("calls", "repro_kernel_calls_total"), ("rows", "repro_kernel_rows_total")):
        for sample in data.get(family, {}).get("samples", []):
            out[key][sample["labels"]["kernel"]] += sample["value"]
    return out


_PROM_LINE = re.compile(
    r'^(repro_kernel_(?:calls|rows)_total)\{([^}]*)\}\s+([0-9.eE+-]+)$'
)


def prometheus_kernel_counts(text: str) -> Dict[str, Dict[str, float]]:
    """The same counters parsed from a server's ``prometheus`` admin text."""
    out: Dict[str, Dict[str, float]] = {"calls": defaultdict(float), "rows": defaultdict(float)}
    for line in text.splitlines():
        match = _PROM_LINE.match(line.strip())
        if not match:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2)))
        key = "calls" if match.group(1).endswith("calls_total") else "rows"
        out[key][labels.get("kernel", "")] += float(match.group(3))
    return out


def kernel_deltas(before, after, num_queries: int) -> Dict[str, float]:
    """Rows per query from the registry's kernel counters."""
    out: Dict[str, float] = {}
    for kernel, label in KERNELS.items():
        rows = after["rows"].get(label, 0.0) - before["rows"].get(label, 0.0)
        out[f"columnar.{kernel}_rows_per_query"] = rows / num_queries if num_queries else 0.0
    return out


def kernel_calls_ratio(before, after, spans: List[list]) -> Optional[float]:
    """Kernel calls seen by the spans / calls counted by the registry (None: no calls counted)."""
    registry_calls = sum(after["calls"].values()) - sum(before["calls"].values())
    if not registry_calls:
        return None
    return sum(kernel_calls_from_spans(spans).values()) / registry_calls


def prune_metrics(before: Dict[str, float], after: Dict[str, float], num_queries: int):
    """core.* filter counters from ``engine.prune_counters`` deltas."""
    delta = {key: after[key] - before[key] for key in after if key != "prune_rate"}
    generated = delta["candidates_generated"]
    return {
        "core.prune_share": delta["candidates_pruned"] / generated if generated else 0.0,
        "core.verified_per_query": delta["candidates_verified"] / num_queries
        if num_queries
        else 0.0,
        "core.dense_passes": delta["dense_passes"] / num_queries if num_queries else 0.0,
        "core.sparse_passes": delta["sparse_passes"] / num_queries if num_queries else 0.0,
    }


def self_time_table(spans: List[list], num_queries: int, per: str = "query") -> List[str]:
    """One line per span name: calls, total and self µs per query (or ``per``)."""
    from spans import summarize

    lines = []
    for name, entry in sorted(summarize(spans).items()):
        scale = 1e6 / num_queries if num_queries else 0.0
        lines.append(
            f"  {name:<34} calls {entry['calls']:>8}  total {entry['total_s'] * scale:>12.2f}"
            f" us/{per}  self {entry['self_s'] * scale:>12.2f} us/{per}"
        )
    return lines


def complete(
    measured: Dict[str, float], declared: Iterable[str], reasons: Dict[str, str]
) -> Dict[str, float]:
    """Every declared name: measured values, 0 for the rest (reasons logged)."""
    declared = list(declared)
    undeclared = set(measured) - set(declared)
    if undeclared:
        raise ValueError(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    out = {}
    for name in declared:
        if name in measured:
            out[name] = float(measured[name])
        else:
            out[name] = 0.0
            reasons.setdefault(name, "not exercised on this workload")
    return out
