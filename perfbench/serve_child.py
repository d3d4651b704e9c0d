"""Server process of the ``serve`` workload.

Starts a default-configured :class:`SimilarityService` from a snapshot with
``start_service_thread``, prints one JSON line ``{"port", "start_s"}``, then
obeys one command per stdin line, answering ``ok`` (or ``error ...``):

* ``trace on`` / ``trace off`` — install / remove the span wrappers and set
  the server's own trace sample rate to 1.0 / back to its default;
* ``dump PATH`` — write the recorded spans as JSON;
* ``stop`` (or end of input) — stop the service gracefully and exit.

Usage: ``python serve_child.py SNAPSHOT``
"""

from __future__ import annotations

import json
import sys
import time

from spans import SpanRecorder

import hooks


def main(snapshot_path: str) -> int:
    from repro.service import start_service_thread

    started = time.perf_counter()
    handle = start_service_thread(snapshot_path=snapshot_path)
    start_s = time.perf_counter() - started
    default_rate = handle.service.tracer.sample_rate
    recorder = SpanRecorder()
    print(json.dumps({"port": handle.port, "start_s": start_s}), flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "stop":
                break
            if command == ["trace", "on"]:
                hooks.install_server_hooks(recorder)
                handle.service.tracer.sample_rate = 1.0
            elif command == ["trace", "off"]:
                recorder.uninstall()
                handle.service.tracer.sample_rate = default_rate
            elif command[0] == "dump" and len(command) == 2:
                with open(command[1], "w", encoding="utf-8") as out:
                    json.dump(recorder.export(), out)
            else:
                print(f"error unknown command {line.strip()!r}", flush=True)
                continue
            print("ok", flush=True)
    finally:
        recorder.uninstall()
        handle.stop()
    print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
