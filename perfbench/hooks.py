"""Which public entry points of each layer a traced run wraps, and how.

Every wrapper is installed on the ``repro`` package from the benchmark's
own files and removed again by :meth:`SpanRecorder.uninstall`.  Span names
are ``<layer>.<operation>``.
"""

from __future__ import annotations

import time

from spans import SpanRecorder

#: Columnar store kernels (public methods of ``ColumnarBranchStore``) and the
#: label the metrics registry counts each one under.
KERNELS = {
    "intersection_row": "row",
    "intersection_matrix": "matrix",
    "intersection_subrow": "subrow",
    "intersection_submatrix": "submatrix",
    "intersection_for_orders": "for_orders",
    "gbd_lower_bound_row": "bound_row",
    "gbd_lower_bound_matrix": "bound_matrix",
    "filter_verify_row": "filter_verify_row",
    "filter_verify_matrix": "filter_verify_matrix",
}


def _length(args, kwargs, result):
    return len(result)


def _frame_out(args, kwargs, result):
    return [args[0].get("kind"), len(result)]


def _frame_in(args, kwargs, result):
    return [result.get("kind"), len(args[0])]


def install_engine_hooks(recorder: SpanRecorder) -> None:
    """serving.engine, serving.cache, core.plan, db.columnar, db.database, offline, snapshot."""
    import repro.serving.snapshot as snapshot
    from repro.core.plan import ExecutionCore
    from repro.db.columnar import ColumnarBranchStore
    from repro.db.database import GraphDatabase
    from repro.offline.fitter import OfflineFitter
    from repro.serving.cache import QueryResultCache
    from repro.serving.engine import BatchQueryEngine

    recorder.wrap(BatchQueryEngine, "query", "engine.query")
    recorder.wrap(
        BatchQueryEngine, "query_batch", "engine.query_batch", attrs=_length, adopt=True
    )
    recorder.wrap(
        QueryResultCache, "get", "cache.get", attrs=lambda a, k, result: result is not None
    )
    recorder.wrap(ExecutionCore, "execute", "core.execute")
    recorder.wrap(ExecutionCore, "execute_pruned", "core.execute_pruned")
    recorder.wrap(ExecutionCore, "execute_batch", "core.execute_batch", attrs=_length)
    for kernel in KERNELS:
        recorder.wrap(ColumnarBranchStore, kernel, f"columnar.{kernel}")
    recorder.wrap(ColumnarBranchStore, "compact", "columnar.compact")
    recorder.wrap(GraphDatabase, "add_many", "database.add_many", attrs=_length)
    recorder.wrap(OfflineFitter, "fit", "offline.fit")
    recorder.wrap(OfflineFitter, "refit", "offline.refit")
    recorder.wrap(snapshot, "save_engine", "snapshot.save")
    recorder.wrap(snapshot, "load_engine", "snapshot.load")


def install_server_hooks(recorder: SpanRecorder) -> None:
    """service.server, service.protocol (server side), service.batcher, service.admission."""
    import repro.service.protocol as protocol
    import repro.service.server as server
    from repro.service.admission import AdmissionController
    from repro.service.batcher import MicroBatcher
    from repro.service.server import SimilarityService

    recorder.wrap(SimilarityService, "_handle_query", "server.request")
    recorder.wrap(server, "decode_query", "protocol.decode_query")
    recorder.wrap(server, "encode_answer", "protocol.encode_answer")
    recorder.wrap(server, "encode_frame", "protocol.encode_frame", attrs=_frame_out)
    recorder.wrap(protocol, "decode_frame", "protocol.decode_frame", attrs=_frame_in)
    recorder.wrap(
        AdmissionController, "try_admit", "admission.try_admit", attrs=lambda a, k, r: r
    )

    # The request that submitted each queued future, so the flush can hang
    # the query's queue wait and scoring time below that request's span.
    requests = {}

    def submit_wrapper(original):
        def submit(self, *args, **kwargs):
            future = original(self, *args, **kwargs)
            requests[id(future)] = recorder.current.get()
            return future

        return submit

    def flush_wrapper(original):
        async def _flush(self, batch):
            span = recorder.open("batcher.flush", attrs=len(batch))
            recorder.adopter = span
            started = span[1] = time.perf_counter()
            try:
                await original(self, batch)
            finally:
                recorder.adopter = None
                recorder.close(span)
            for item in batch:
                parent = requests.pop(id(item[1]), None)
                recorder.add("batcher.queue_wait", item[3], started, parent)
                recorder.add("batcher.score", started, span[2], parent, len(batch))

        return _flush

    recorder.replace(MicroBatcher, "submit", submit_wrapper)
    recorder.replace(MicroBatcher, "_flush", flush_wrapper)
    install_engine_hooks(recorder)


def install_client_hooks(recorder: SpanRecorder) -> None:
    """service.client and service.protocol (client side)."""
    import repro.service.client as client
    import repro.service.protocol as protocol
    from repro.service.client import AsyncServiceClient

    recorder.wrap(AsyncServiceClient, "query", "client.query")
    recorder.wrap(client, "query_request", "protocol.encode_query")
    recorder.wrap(client, "encode_frame", "protocol.encode_frame", attrs=_frame_out)
    recorder.wrap(protocol, "decode_frame", "protocol.decode_frame", attrs=_frame_in)
    recorder.wrap(client, "decode_answer", "protocol.decode_answer")

    def register_wrapper(original):
        def _register(self, message):
            future = original(self, message)
            if message.get("kind") == "query":
                parent = recorder.current.get()
                started = time.perf_counter()
                future.add_done_callback(
                    lambda _f: recorder.add(
                        "client.await_reply", started, time.perf_counter(), parent
                    )
                )
            return future

        return _register

    recorder.replace(AsyncServiceClient, "_register", register_wrapper)
