"""The benchmark's traced check, run in-process: each workload's report must
match its recorded reference at seed 0, and the traced call counts must
match the workload's closed forms.  The workloads, references and closed
forms are read from ``perfbench/``, so they are defined in one place."""

import importlib.util
import os
import sys

import pytest

from stoclaw import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(ROOT, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing, workloads, gate = (load(name)
                            for name in ("tracing", "workloads", "gate"))


@pytest.mark.parametrize("name", ["residual-1d", "ladder-1d", "checks-2d"])
def test_traced_run_matches_reference_and_closed_forms(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "workload.cfg"
    config.write_text(workloads.config_text(ROOT, workload, 0))
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main([workload.verb, "--config", str(config),
                         "--workers", "1", "--out", str(out)])
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()

    rows = gate.read_rows(str(out / workload.artifact), workload.artifact)
    _, failed, problems = gate.check(
        gate.load_references(name)["0"], rows, code)
    assert failed == 0, problems
    for counter, form in workload.counts.items():
        assert layers[counter] == form(workload.paths), counter
