"""One benchmark process: set up, run one pass of a workload, report.

    python3 perfbench/worker.py WORKLOAD SEED MODE [TRACE_FILE]

MODE is ``setup`` (stop after set-up), ``run`` or ``trace`` (run with the
layer wrappers installed and write the spans to TRACE_FILE).  The line
``ready`` on stdout marks the end of set-up: interpreter start, ``import
hfpc.cli`` and input generation.  The last line is a JSON report.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import hfpc.cli  # noqa: F401

    import workloads

    data = workloads.load_data()
    if workload == "verify-cchm":
        requests = workloads.build_requests(seed, data)
    print("ready", flush=True)

    report: dict = {}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        if workload == "verify-cchm":
            result = workloads.run_requests(requests, tracer)
        else:
            result = workloads.run_search_pass(workload, data, tracer)
        report.update(zip(("attempted", "failed", "wall_s", "latencies"), result))
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracing.layer_metrics(tracer)
            report["trace_problems"] = tracing.check_spans(tracer.spans)
            tracer.dump(argv[3])
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        from hfpc import _backend

        report["backend"] = _backend.BACKEND_NAME
    except (ImportError, AttributeError):
        report["backend"] = "absent"
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
