"""Record the gate's reference for a workload at some seeds.

    python3 perfbench/record.py --workload ladder-1d --seeds 0-23,7919

Runs the workload once per seed (untraced, at the workload's worker count)
and stores every report row -- check or lane, status exactly as produced,
value -- with the exit code in ``refs/<workload>.json``.  Seeds already in
the file are kept; delete the file to record afresh.  Record only from a
version whose results you trust: later versions are gated against these
rows.
"""

from __future__ import annotations

import argparse
import sys

import gate
from run import launcher_for
from workloads import WORKLOADS, split_seeds, worker_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=split_seeds)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    refs = gate.load_references(workload.name)
    for seed in args.seeds:
        if str(seed) in refs:
            continue
        with launcher_for(workload, seed, 900.0) as launcher:
            res = launcher.launch(workers=worker_count(workload))
        if res.get("rows") is None:
            print("seed %d: no report (%s)" % (seed, res["stderr"][-500:]),
                  file=sys.stderr)
            return 1
        refs[str(seed)] = {"exit_code": res["exit_code"],
                           "rows": [list(r) for r in res["rows"]]}
        statuses = sorted({r[1] for r in res["rows"]})
        print("seed %d: exit %d, statuses %s, %.1f s"
              % (seed, res["exit_code"], ",".join(statuses), res["wall_s"]),
              flush=True)
        gate.save_references(workload.name, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
