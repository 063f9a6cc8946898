"""The benchmark tracer wraps stoclaw functions by module attribute name;
installing it here catches a renamed or deleted binding in seconds."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from stoclaw import diagnostics, entropy, harness

    before = (diagnostics.martingale_term, harness.entropy_residual,
              entropy.batch_simpson)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert diagnostics.martingale_term is not before[0]
    finally:
        tracer.uninstall()
    assert (diagnostics.martingale_term, harness.entropy_residual,
            entropy.batch_simpson) == before
