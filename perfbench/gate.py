"""Correctness gate: every report row against a recorded reference.

An operation is one row of ``report.csv`` (run) or ``rates.csv`` (study),
or the verb's exit code.  A row fails when it is missing or unexpected,
when its status differs from the reference, or when its value leaves
``|a - b| <= RTOL * max(|a|, |b|) + ATOL``: low-order-bit drift is allowed,
a byte-equality gate would be too strict across versions.  Within one
benchmark run every repeat must still write byte-identical reports.

References live in ``refs/<workload>.json``, keyed by benchmark seed, and
hold statuses exactly as produced, pass or fail: at the benchmark's small
path counts a statistical check may fail on some seeds, and that is part of
the reference.  A seed without a recorded reference gets a weaker gate:
the exit code must be the one the row statuses imply, and the repeats must
agree byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-9
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

def read_rows(path: str, artifact: str):
    """[(key, status, value text)] in file order; None if not written."""
    if not os.path.isfile(path):
        return None
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if artifact == "rates.csv":
        return [("%s@%s" % (r["lane"], r["parameter"]), r["status"],
                 r["error"]) for r in rows]
    return [(r["check"], r["status"], r["value"]) for r in rows]


def digest(path: str) -> str:
    if not os.path.isfile(path):
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_references(workload: str) -> dict:
    path = os.path.join(REF_DIR, "%s.json" % workload)
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["seeds"]


def save_references(workload: str, seeds: dict) -> None:
    """Write ``refs/<workload>.json`` with one report row per line."""
    os.makedirs(REF_DIR, exist_ok=True)
    lines = ['{"workload": %s, "rtol": %r, "atol": %r, "seeds": {'
             % (json.dumps(workload), RTOL, ATOL)]
    keys = sorted(seeds, key=int)
    for i, key in enumerate(keys):
        ref = seeds[key]
        rows = ",\n".join("  " + json.dumps(row) for row in ref["rows"])
        lines.append(' "%s": {"exit_code": %d, "rows": [\n%s\n ]}%s'
                     % (key, ref["exit_code"], rows,
                        "," if i + 1 < len(keys) else ""))
    lines.append("}}")
    with open(os.path.join(REF_DIR, "%s.json" % workload), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def implied_exit(rows) -> int:
    """The exit code stoclaw's CLI gives for these row statuses."""
    statuses = {status for _, status, _ in rows}
    if "fail" in statuses:
        return 1
    return 3 if "inconclusive" in statuses else 0


def check(reference, rows, exit_code):
    """(attempted, failed, problems) for one verb run.

    ``reference`` is {"exit_code", "rows"} or None; ``rows`` is None when
    the verb crashed before writing its report, which fails every row.
    """
    problems = []
    if reference is not None:
        expected = {key: (status, value)
                    for key, status, value in reference["rows"]}
        want_exit = reference["exit_code"]
    else:
        expected = None
        want_exit = implied_exit(rows or [])
    if rows is None:
        n = len(expected) if expected is not None else 1
        return n + 1, n + 1, ["no report written (exit code %r)"
                              % (exit_code,)]

    failed = 0
    seen = set()
    for key, status, value in rows:
        seen.add(key)
        if expected is None:
            continue
        if key not in expected:
            failed += 1
            problems.append("%s: not in the reference" % key)
            continue
        ref_status, ref_value = expected[key]
        if status != ref_status:
            failed += 1
            problems.append("%s: status %s, reference %s"
                            % (key, status, ref_status))
        elif not _close(value, ref_value):
            failed += 1
            problems.append("%s: value %s, reference %s"
                            % (key, value, ref_value))
    missing = [] if expected is None else [k for k in expected
                                           if k not in seen]
    failed += len(missing)
    problems.extend("%s: missing" % k for k in missing)
    if exit_code != want_exit:
        failed += 1
        problems.append("exit code %r, expected %r" % (exit_code, want_exit))
    return len(seen) + len(missing) + 1, failed, problems
