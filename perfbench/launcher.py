"""Start ``repro serve`` from the checkout's sources.

    python3 perfbench/launcher.py [--traced] serve --dataset nyc --port 0 ...

Everything after the optional ``--traced`` is passed to the ``repro``
command line unchanged.  The launcher runs the host-speed reference
(``reference.py``) three times before the boot and three times after
it, and prints the samples on one line before the daemon's ``serving``
line, so the client can scale ``setup_s`` like the in-process
workloads do.  With ``--traced`` the layer wrappers of
:mod:`tracer` are installed inside the daemon before it boots, a
:mod:`repro.obs` trace records the boot, and three control paths,
answered before the daemon's own routing, drive the recording:

``GET /perfbench/on`` / ``GET /perfbench/off``
    switch recording on or off; while off, per-request JSONL traces are
    not written either, so an untraced segment costs what an untraced
    daemon costs;
``GET /perfbench/dump``
    the recorded spans and the boot trace's spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _install_control(recorder: Any, boot: Any) -> None:
    import tracer
    from repro.serve import api

    handle = api.PlanService.handle
    write_jsonl = api.write_jsonl

    def gated_write_jsonl(*args: Any, **kwargs: Any) -> None:
        if recorder.enabled:
            write_jsonl(*args, **kwargs)

    def controlled_handle(self: Any, method: str, path: str, payload: Any) -> Any:
        if path == "/perfbench/on":
            recorder.enabled = True
            return 200, {}
        if path == "/perfbench/off":
            recorder.enabled = False
            return 200, {}
        if path == "/perfbench/dump":
            return 200, {
                "spans": [s.to_json() for s in list(recorder.spans)],
                "program": [s.to_json() for s in tracer.obs_spans(boot)],
            }
        return handle(self, method, path, payload)

    api.write_jsonl = gated_write_jsonl
    api.PlanService.handle = controlled_handle


def _reference_boot() -> None:
    import repro.serve
    from reference import BOOT_LINE, Reference

    began = time.perf_counter()
    reference = Reference()
    samples = [reference.run() for _ in range(3)]
    spent = time.perf_counter() - began
    create_server = repro.serve.create_server

    # The CLI creates the server once every tenant is loaded and warm,
    # just before it prints the serving line.
    def create_server_after_reference(*args: Any, **kwargs: Any) -> Any:
        began = time.perf_counter()
        samples.extend(reference.run() for _ in range(3))
        report = {"samples": samples, "spent_s": spent + time.perf_counter() - began}
        print(BOOT_LINE + json.dumps(report), flush=True)
        return create_server(*args, **kwargs)

    repro.serve.create_server = create_server_after_reference


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    _reference_boot()
    if args and args[0] == "--traced":
        args = args[1:]
        import tracer
        from repro import obs

        recorder = tracer.Recorder()
        recorder.install(tracer.LAYERS + tracer.SERVE_LAYERS)
        recorder.enabled = True
        _install_control(recorder, obs.enable())
    from repro.cli import main as repro_main

    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main())
