"""Benchmark-owned launcher of the evolution query service.

``python3 perfbench/server.py STORE_DIR [SPANS_OUT]`` loads the
published store, binds the stdlib asyncio server of
:mod:`repro.service.http` on a free loopback port, prints ``PORT <n>``
and serves until SIGTERM.  With ``SPANS_OUT`` it first wraps
``EvolutionStore.load_graph`` and ``EvolutionQueryService.handle_request``
(see :mod:`layers`), tags every handled request as a cache hit or miss
from the service's own counters, and on shutdown writes the spans there.
"""

from __future__ import annotations

import asyncio
import signal
import sys


def main(argv) -> int:
    from common import pin_to_cpu

    # The load generator polls on the first CPU; the server gets the
    # last one to itself instead of being scheduled next to it.
    pin_to_cpu(-1)
    store_dir = argv[0]
    spans_out = argv[1] if len(argv) > 1 else ""
    tracer = None
    hits = []
    if spans_out:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install_service(tracer)
        from repro.service.core import EvolutionQueryService

        traced = EvolutionQueryService.handle_request

        def classified(self, method, target):
            before = self.stats["cache_hits"]
            answer = traced(self, method, target)
            hits.append(self.stats["cache_hits"] > before)
            return answer

        EvolutionQueryService.handle_request = classified

    from repro.service import EvolutionQueryService, EvolutionStore
    from repro.service.http import start_service_server

    service = EvolutionQueryService(EvolutionStore(store_dir))

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        server = await start_service_server(service, port=0)
        print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
        await stop.wait()
        server.close()
        await server.wait_closed()

    asyncio.run(serve())
    if tracer is not None:
        from common import write_json

        handles = [span for span in tracer.spans if span.name == "service.core"]
        write_json(spans_out, {
            "handle": [[span.start, span.duration_s, hit]
                       for span, hit in zip(handles, hits)],
            "load_s": [span.duration_s for span in tracer.spans
                       if span.name == "service.store.load"],
            "calls": tracer.calls(),
            "events": tracer.trace_events(),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
