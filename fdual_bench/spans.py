"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` swaps each traced function for a timing wrapper in
every ``fdual`` module that imported it (``fdual.primal.r_functional``
alongside ``fdual.divergence.r_functional``), and ``uninstall`` puts the
originals back. Spans are kept in memory as ``[name, parent, start,
end, leaf_seconds]``; the vectorised generator callables are too hot
and too small for a span each, so their time is charged to the
enclosing span as leaf time and counted in aggregate. A span's self
time is its duration minus its child spans and its leaf time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
from collections import Counter
from time import perf_counter

# Span names of each reported layer. A layer's calls are the spans of
# its entry functions; its self time sums the self time of all its spans.
SELF_GROUPS = {
    "primal": ("primal.restricted_div_primal", "primal.regularized_div_primal"),
    "divergence.r_functional": ("divergence.r_functional", "divergence.r_functional_numeric"),
    "dual": ("dual.duality_gap", "dual.restricted_div_dual"),
    "dual.moment_projection": ("dual.moment_projection",),
    "estimators": ("estimators.fit_mle", "estimators.fit_gmm", "estimators.fit_linear_fgan"),
    "cli": ("cli.main", "cli.parse_instance"),
}

VEC_FIELDS = ("f_vec", "fstar_vec", "fstar_prime_vec", "f_prime_vec")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.fgen_seconds = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._instrumented: dict[int, object] = {}
        self._mp_results: dict[int, object] = {}

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        return traced

    def _leaf(self, fn):
        def timed(x):
            t0 = perf_counter()
            out = fn(x)
            dt = perf_counter() - t0
            self.fgen_seconds += dt
            self.counts["fgen.vec_calls"] += 1
            if self.stack:
                self.spans[self.stack[-1]][4] += dt
            return out

        return timed

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fdual" or mod_name.startswith("fdual.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        from fdual import cli, divergence, dual, estimators, fgen, optim1d, primal, space

        def after_primal(idx, args, kwargs, rep):
            self.counts["primal.iterations"] += rep.iterations
            self.counts["primal.not_converged"] += rep.status == "not_converged"

        def after_dual(idx, args, kwargs, rep):
            self.counts["dual.iterations"] += rep.iterations
            mp = self._mp_results.pop(idx, None)
            spec = args[3] if len(args) > 3 else kwargs["spec"]
            spec = getattr(spec, "spec", spec)
            radius = getattr(spec, "radius", None)
            if radius is None or not radius.is_finite:
                return
            self.counts["dual.finite_radius_solves"] += 1
            if mp is not None and mp.pprime is not None and rep.pprime is not None:
                won = bool((mp.pprime.p == rep.pprime.p).all())
                self.counts["dual.mp_won"] += won

        def after_mp(idx, args, kwargs, rep):
            self.counts["dual.moment_projection.iterations"] += rep.iterations
            parent = self.spans[idx][1]
            if parent >= 0 and self.spans[parent][0] == "dual.restricted_div_dual":
                self._mp_results[parent] = rep

        def after_fit(idx, args, kwargs, rep):
            traj = rep.trajectory
            iters = traj.get("iterations", 0)
            self.counts["estimators.outer_iterations"] += iters
            cfg = None
            for value in list(args) + list(kwargs.values()):
                if isinstance(value, estimators.FitConfig):
                    cfg = value
            cfg = cfg or estimators.FitConfig()
            if "iterations" in traj and iters >= traj.get("starts", 1) * cfg.max_iters:
                self.counts["estimators.fits_at_cap"] += 1

        def bisect(dfun, lo, hi, *rest, **kwargs):
            def counted(b):
                self.counts["optim1d.bisect.evals"] += 1
                return dfun(b)

            return original_bisect(counted, lo, hi, *rest, **kwargs)

        original_bisect = optim1d.bisect_sign_change
        targets = [
            (primal, "restricted_div_primal", after_primal),
            (primal, "regularized_div_primal", after_primal),
            (divergence, "r_functional", None),
            (divergence, "r_functional_numeric", None),
            (dual, "duality_gap", None),
            (dual, "restricted_div_dual", after_dual),
            (dual, "moment_projection", after_mp),
            (estimators, "fit_mle", after_fit),
            (estimators, "fit_gmm", after_fit),
            (estimators, "fit_linear_fgan", after_fit),
            (cli, "main", None),
            (cli, "parse_instance", None),
        ]
        for module, attr, after in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.removeprefix('fdual.')}.{attr}"
            self._patch_everywhere(original, self._wrap(name, original, after))
        self._patch_everywhere(
            original_bisect, self._wrap("optim1d.bisect", functools.wraps(original_bisect)(bisect))
        )

        original_builtin = fgen.builtin

        @functools.wraps(original_builtin)
        def builtin(name):
            g = original_builtin(name)
            if id(g) not in self._instrumented:
                fields = {f: self._leaf(getattr(g, f)) for f in VEC_FIELDS}
                self._instrumented[id(g)] = (g, dataclasses.replace(g, **fields))
            return self._instrumented[id(g)][1]

        self._patch_everywhere(original_builtin, builtin)

        original_post_init = space.Dist.__post_init__

        def post_init(dist):
            self.counts["space.dist_new"] += 1
            original_post_init(dist)

        self._restore.append((space.Dist, "__post_init__", original_post_init))
        space.Dist.__post_init__ = post_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, leaf in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for (name, parent, t0, t1, leaf), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c - leaf
        return out

    def has_ancestor(self, idx: int, names: tuple[str, ...]) -> bool:
        parent = self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][1]
        return False

    def layer_metrics(self, ops: int, report_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as {name: (value, unit)}."""
        calls = Counter(s[0] for s in self.spans)
        self_s = self.self_seconds()
        inclusive = Counter()
        for name, parent, t0, t1, leaf in self.spans:
            inclusive[name] += t1 - t0
        fit_names = SELF_GROUPS["estimators"]
        primal_names = SELF_GROUPS["primal"]
        inner = sum(
            1 for i, s in enumerate(self.spans) if s[0] in primal_names and self.has_ancestor(i, fit_names)
        )

        def group_ms(group):
            return 1e3 * sum(self_s[n] for n in SELF_GROUPS[group]) / ops

        def per_op(x):
            return x / ops

        c = self.counts
        solves = c["dual.finite_radius_solves"]
        return {
            "primal.calls": (per_op(sum(calls[n] for n in primal_names)), "calls/op"),
            "primal.self_ms": (group_ms("primal"), "ms/op"),
            "primal.iterations": (per_op(c["primal.iterations"]), "iters/op"),
            "primal.not_converged": (per_op(c["primal.not_converged"]), "solves/op"),
            "divergence.r_functional.calls": (per_op(calls["divergence.r_functional"]), "calls/op"),
            "divergence.r_functional.self_ms": (group_ms("divergence.r_functional"), "ms/op"),
            "optim1d.bisect.calls": (per_op(calls["optim1d.bisect"]), "calls/op"),
            "optim1d.bisect.evals": (per_op(c["optim1d.bisect.evals"]), "evals/op"),
            "dual.calls": (per_op(calls["dual.restricted_div_dual"]), "calls/op"),
            "dual.self_ms": (group_ms("dual"), "ms/op"),
            "dual.iterations": (per_op(c["dual.iterations"]), "iters/op"),
            "dual.moment_projection.calls": (per_op(calls["dual.moment_projection"]), "calls/op"),
            "dual.moment_projection.self_ms": (group_ms("dual.moment_projection"), "ms/op"),
            "dual.moment_projection.iterations": (per_op(c["dual.moment_projection.iterations"]), "iters/op"),
            "dual.mp_won_ratio": (c["dual.mp_won"] / solves if solves else 0.0, "ratio"),
            "fgen.vec_calls": (per_op(c["fgen.vec_calls"]), "calls/op"),
            "fgen.vec_ms": (1e3 * self.fgen_seconds / ops, "ms/op"),
            "estimators.fits": (per_op(sum(calls[n] for n in fit_names)), "fits/op"),
            "estimators.self_ms": (group_ms("estimators"), "ms/op"),
            "estimators.outer_iterations": (per_op(c["estimators.outer_iterations"]), "iters/op"),
            "estimators.inner_solves": (per_op(inner), "solves/op"),
            "estimators.fits_at_cap": (per_op(c["estimators.fits_at_cap"]), "fits/op"),
            "space.dist_new": (per_op(c["space.dist_new"]), "objects/op"),
            "cli.requests": (per_op(calls["cli.main"]), "requests/op"),
            "cli.parse_ms": (1e3 * inclusive["cli.parse_instance"] / ops, "ms/op"),
            "cli.self_ms": (group_ms("cli"), "ms/op"),
            "cli.report_bytes": (per_op(report_bytes), "B/op"),
        }

