"""In-memory spans around the calls stoclaw's modules make into each other.

The package imports functions by name, so a wrapper is installed at every
binding a caller actually looks up (``harness.solve_path`` and
``diagnostics.solve_path``, ``solver.spsolve``, ...).  Closures returned by
``kirchhoff`` and ``make_beta_theta`` are wrapped on the way out, the
latter through ``dataclasses.replace`` on the frozen triple.  Nothing under
``src/`` changes, and the wrappers pass arguments and results through
untouched, so traced reports are byte-identical to untraced ones.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time covered by its children; spans of one process never overlap
except by nesting, so that is the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for plain call-through wrappers.
_PLAIN = (
    ("cli", "run_experiment", "harness.verb"),
    ("cli", "convergence_study", "harness.verb"),
    ("harness", "_path_reductions", "harness.path_job"),
    ("harness", "validate_assumptions", "model.validate_assumptions"),
    ("harness", "sample_jump_path", "noise.sample_jump_path"),
    ("diagnostics", "sample_jump_path", "noise.sample_jump_path"),
    ("solver", "compensated_increment", "noise.compensated_increment"),
    ("diagnostics", "martingale_term", "noise.martingale_term"),
    ("solver", "implicit_step", "solver.implicit_step"),
    ("solver", "_operator_jacobian", "solver.jacobian"),
    ("solver", "spsolve", "solver.linear_solve"),
    ("solver", "splu", "solver.linear_solve"),
    ("harness", "discrete_energy_report", "solver.energy_report"),
    ("harness", "entropy_residual", "diagnostics.entropy_residual"),
    ("harness", "cauchy_rate_test", "diagnostics.check_loop"),
    ("harness", "viscosity_convergence_test", "diagnostics.check_loop"),
    ("harness", "contraction_test", "diagnostics.check_loop"),
    ("harness", "moment_bound_test", "diagnostics.check_loop"),
    ("harness", "max_principle_test", "diagnostics.check_loop"),
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("config.resolve_s", "s"),
    ("model.validate_assumptions_s", "s"),
    ("noise.sample_jump_path.calls", "count"),
    ("noise.compensated_increment.calls", "count"),
    ("noise.compensated_increment_us", "us"),
    ("noise.martingale_term_s", "s"),
    ("solver.solve_path.calls", "count"),
    ("solver.distinct_solve_ratio", "ratio"),
    ("solver.implicit_step.calls", "count"),
    ("solver.implicit_step_us.p50", "us"),
    ("solver.implicit_step_us.p90", "us"),
    ("solver.jacobian_s", "s"),
    ("solver.linear_solve_s", "s"),
    ("solver.linear_solve.calls", "count"),
    ("solver.newton_iters_per_step", "count"),
    ("solver.picard_fallbacks", "count"),
    ("solver.energy_report_s", "s"),
    ("entropy.kirchhoff.evals", "count"),
    ("entropy.kirchhoff_s", "s"),
    ("entropy.zeta.evals", "count"),
    ("entropy.zeta_s", "s"),
    ("entropy.nu.evals", "count"),
    ("entropy.nu_s", "s"),
    ("entropy.identity_check_s_per_kpair", "s"),
    ("quadrature.batch_simpson.calls", "count"),
    ("quadrature.batch_simpson_s", "s"),
    ("quadrature.points_per_integral", "count"),
    ("diagnostics.entropy_residual.calls", "count"),
    ("diagnostics.entropy_residual_self_ms", "ms"),
    ("diagnostics.check_loops_self_s", "s"),
    ("harness.path_job_s.p50", "s"),
    ("harness.path_job_s.max", "s"),
    ("harness.self_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("harness.parallel_speedup", "ratio"),
    ("cli.exit_code", "code"),
    ("trace.overhead", "ratio"),
)

# Deterministic per-layer values, which two traced runs must repeat exactly.
EXACT_COUNTS = tuple(name for name, unit in LAYER_METRICS
                     if unit in ("count", "bytes", "code")) + (
    "solver.distinct_solve_ratio",)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent]
        self._stack = []
        self.counts = defaultdict(int)
        self._solve_keys = set()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def _solve_path(self, fn):
        traced = self.wrap("solver.solve_path", fn)

        @functools.wraps(fn)
        def solve_path(spec, grid, n_steps, path, u0_field=None):
            traj = traced(spec, grid, n_steps, path, u0_field=u0_field)
            self._solve_keys.add(_trajectory_key(traj, path))
            for st in traj.stats:
                self.counts["newton_iterations"] += st.newton_iterations
                self.counts["step_stats"] += 1
                self.counts["picard_fallbacks"] += int(st.used_fallback)
            return traj

        return solve_path

    def _kirchhoff(self, factory):
        @functools.wraps(factory)
        def kirchhoff(*args, **kwargs):
            return self.wrap("entropy.kirchhoff", factory(*args, **kwargs))

        return kirchhoff

    def _make_beta_theta(self, factory):
        @functools.wraps(factory)
        def make_beta_theta(*args, **kwargs):
            triple = factory(*args, **kwargs)
            changes = {}
            if triple.zeta is not None:
                changes["zeta"] = self.wrap("entropy.zeta", triple.zeta)
            if triple.nu is not None:
                changes["nu"] = self.wrap("entropy.nu", triple.nu)
            return dataclasses.replace(triple, **changes)

        return make_beta_theta

    def _identity_check(self, fn):
        traced = self.wrap("entropy.identity_check", fn)

        @functools.wraps(fn)
        def identity_check_batch(a, b, *args, **kwargs):
            self.counts["identity_pairs"] += int(np.asarray(a).size)
            return traced(a, b, *args, **kwargs)

        return identity_check_batch

    def _batch_simpson(self, fn):
        traced = self.wrap("quadrature.batch_simpson", fn)
        counts = self.counts

        @functools.wraps(fn)
        def batch_simpson(f, lo, hi, *args, **kwargs):
            def integrand(x):
                counts["quadrature_points"] += int(np.size(x))
                return f(x)

            out = traced(integrand, lo, hi, *args, **kwargs)
            counts["quadrature_integrals"] += int(np.size(out))
            return out

        return batch_simpson

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self):
        from stoclaw import diagnostics, entropy, harness

        for mod, attr, name in _PLAIN:
            m = importlib.import_module("stoclaw." + mod)
            self._patch(m, attr, self.wrap(name, getattr(m, attr)))
        for mod in (harness, diagnostics):
            self._patch(mod, "solve_path", self._solve_path(mod.solve_path))
            self._patch(mod, "kirchhoff", self._kirchhoff(mod.kirchhoff))
        self._patch(harness, "make_beta_theta",
                    self._make_beta_theta(harness.make_beta_theta))
        self._patch(harness, "identity_check_batch",
                    self._identity_check(harness.identity_check_batch))
        self._patch(entropy, "batch_simpson",
                    self._batch_simpson(entropy.batch_simpson))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, total and self seconds, and durations."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            durations[name].append(end - start)
        return {"calls": calls, "total": total, "self": self_s,
                "durations": durations}

    def layer_metrics(self) -> dict:
        """Every per-layer metric this process can see by itself.

        ``config.resolve_s``, ``harness.artifact_bytes``,
        ``harness.parallel_speedup``, ``cli.exit_code`` and
        ``trace.overhead`` come from outside the traced process.
        """
        s = self.summary()
        calls, total, self_s, dur = (s["calls"], s["total"], s["self"],
                                     s["durations"])
        c = self.counts

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps = dur["solver.implicit_step"]
        jobs = dur["harness.path_job"]
        return {
            "model.validate_assumptions_s":
                total["model.validate_assumptions"],
            "noise.sample_jump_path.calls": calls["noise.sample_jump_path"],
            "noise.compensated_increment.calls":
                calls["noise.compensated_increment"],
            "noise.compensated_increment_us": per(
                total["noise.compensated_increment"],
                calls["noise.compensated_increment"], 1e6),
            "noise.martingale_term_s": total["noise.martingale_term"],
            "solver.solve_path.calls": calls["solver.solve_path"],
            "solver.distinct_solve_ratio": per(len(self._solve_keys),
                                               calls["solver.solve_path"]),
            "solver.implicit_step.calls": calls["solver.implicit_step"],
            "solver.implicit_step_us.p50": _quantile(steps, 0.5) * 1e6,
            "solver.implicit_step_us.p90": _quantile(steps, 0.9) * 1e6,
            "solver.jacobian_s": total["solver.jacobian"],
            "solver.linear_solve_s": total["solver.linear_solve"],
            "solver.linear_solve.calls": calls["solver.linear_solve"],
            "solver.newton_iters_per_step": per(c["newton_iterations"],
                                                c["step_stats"]),
            "solver.picard_fallbacks": c["picard_fallbacks"],
            "solver.energy_report_s": total["solver.energy_report"],
            "entropy.kirchhoff.evals": calls["entropy.kirchhoff"],
            "entropy.kirchhoff_s": total["entropy.kirchhoff"],
            "entropy.zeta.evals": calls["entropy.zeta"],
            "entropy.zeta_s": total["entropy.zeta"],
            "entropy.nu.evals": calls["entropy.nu"],
            "entropy.nu_s": total["entropy.nu"],
            "entropy.identity_check_s_per_kpair": per(
                total["entropy.identity_check"], c["identity_pairs"], 1e3),
            "quadrature.batch_simpson.calls":
                calls["quadrature.batch_simpson"],
            "quadrature.batch_simpson_s": total["quadrature.batch_simpson"],
            "quadrature.points_per_integral": per(
                c["quadrature_points"], c["quadrature_integrals"]),
            "diagnostics.entropy_residual.calls":
                calls["diagnostics.entropy_residual"],
            "diagnostics.entropy_residual_self_ms": per(
                self_s["diagnostics.entropy_residual"],
                calls["diagnostics.entropy_residual"], 1e3),
            "diagnostics.check_loops_self_s": self_s["diagnostics.check_loop"],
            "harness.path_job_s.p50": _quantile(jobs, 0.5),
            "harness.path_job_s.max": max(jobs, default=0.0),
            "harness.self_s": self_s["harness.verb"],
        }


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def _trajectory_key(traj, path) -> str:
    """Identity of one solved trajectory: its initial field, viscosity,
    step count, grid and driving events."""
    h = hashlib.sha1()
    h.update(repr((traj.spec.epsilon, traj.n_steps, traj.grid.cells,
                   traj.grid.half_width, traj.grid.bc)).encode())
    h.update(np.ascontiguousarray(traj.fields[0]).tobytes())
    if path is not None:
        h.update(np.ascontiguousarray(path.times).tobytes())
        h.update(np.ascontiguousarray(path.sizes).tobytes())
    return h.hexdigest()
