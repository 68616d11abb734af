#!/usr/bin/env python3
"""Start a ``repro serve`` daemon with the benchmark's layer wrappers.

The traced run of ``serve_http`` launches the daemon through this file
instead of ``python3 -m repro serve``: it installs the same wrappers the
in-process workloads use (plus the daemon-only layers), calls
``repro.serve.daemon.run_serve`` with the command line's settings, and
when the daemon shuts down writes its span aggregates (with per-request
``handle`` durations) and its raw spans.  Each request the daemon
handles carries its sequence number as the span request id, which is
the client's op sequence number.

    python3 perfbench/serve_launcher.py JOURNAL -m 128 --window 500 \\
        --port-file PORT --aggs AGGS.json --spans SPANS.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import tracer as tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("journal")
    parser.add_argument("-m", "--machines", type=int, required=True)
    parser.add_argument("--window", type=int, default=0)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--aggs", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    harness.bootstrap()
    from repro.serve.daemon import run_serve

    tracer = tracing.Tracer()
    tracing.install_layers(tracer, serve_side=True)
    try:
        code = run_serve(args.journal, m=args.machines, window=args.window,
                         port_file=args.port_file)
    finally:
        tracer.uninstall()
        with open(args.aggs, "w") as fh:
            json.dump(tracer.dump_aggs(), fh)
        tracer.write_spans(args.spans, {"side": "daemon"})
    return code


if __name__ == "__main__":
    sys.exit(main())
