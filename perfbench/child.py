"""One measured run of one stoclaw verb, in the fresh interpreter the
benchmark starts for it.

    python3 perfbench/child.py --root R --config C --verb run --workers 2 \\
        --out DIR --result R.json --t0-ns NS [--trace] [--setup-only]

``--t0-ns`` is the wall clock (``time.time_ns``) just before the parent
started this interpreter, so ``setup_s`` covers interpreter start, the
numpy/scipy/stoclaw imports and resolving the config, spec and grid.
The verb goes through ``stoclaw.cli.main``, exactly as the console script
calls it; ``report_s`` runs from that call until its last artifact is
written.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--verb", required=True, choices=("run", "study"))
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import scipy
    from stoclaw import cli
    from stoclaw.config import ExperimentConfig

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    cfg = ExperimentConfig.from_file(args.config)
    cfg.build_spec()
    cfg.build_grid()
    resolve_s = time.perf_counter() - start
    setup_s = (time.time_ns() - args.t0_ns) / 1e9
    result = {"setup_s": setup_s, "resolve_s": resolve_s,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}

    if not args.setup_only:
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        code = cli.main([args.verb, "--config", args.config,
                         "--workers", str(args.workers), "--out", args.out])
        report_s = time.perf_counter() - start
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update({
            "exit_code": code,
            "report_s": report_s,
            "cpu_s": (_cpu(self1) - _cpu(self0)) + (_cpu(kids1) - _cpu(kids0)),
            # ru_maxrss is in KiB on Linux; children: the largest worker
            "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        })
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
