"""Per-layer tracing done from outside the package.

`Tracer.install()` replaces the public functions of each gtnbounds module by
wrappers, in every gtnbounds module namespace that holds the same function
object (so `from x import f` bindings are covered too), and `uninstall()`
puts the originals back.  Statistics accumulate across installs.  Nothing
under src/ is edited.

A wrapper opens a span on a stack.  When the span closes, its duration is
added to the span below it, so each name gets calls, total time and self time
(duration minus the time covered by child spans).  A group (`bounds`,
`verify.serialize`) also gets busy time: the duration of its outermost spans
only, so nested calls inside the group are not counted twice.

Spans are aggregated in memory rather than kept one by one: the member-sweep
makes hundreds of thousands of series calls per run.  `series.mul` and
`series.div` are only counted, because a timing wrapper costs as much as
these small calls; their time stays in the self time of their caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, function, group).  A group sums busy time over its members.
TIMED = (
    ("caratheodory", "brute_force_sup", None),
    ("verify", "run_experiment", None),
    ("verify", "reports_to_lines", "verify.serialize"),
    ("verify", "write_reports", "verify.serialize"),
    ("bazilevic", "derive_relation", None),
    ("bazilevic", "w_functional", None),
    ("bazilevic", "solve_from_schwarz", None),
    ("bazilevic", "membership_witness", None),
    ("series", "pow_real", None),
    ("series", "log_series", None),
    ("series", "exp_series", None),
    ("series", "compose", None),
    ("series", "revert", None),
    ("telephone", "x_series", None),
    ("telephone", "gtn_sequence", None),
    ("distributions", "coefficients", None),
    ("distributions", "convolve", None),
    ("cli", "main", None),
)
COUNTED = (("series", "mul"), ("series", "div"))

# The public formulas of gtnbounds.bounds, summed into bounds.calls/busy_s.
BOUNDS_FORMULAS = (
    "a2_bound", "a3_bound", "a3_printed_subclass_kappa",
    "a3_printed_subclass_starlike", "a3_printed_subclass_convex",
    "a3_printed_subclass_theta", "a3_printed_subclass_mixed", "fs_real",
    "fs_complex", "fs_complex_alternate", "inverse_d2_bound",
    "inverse_d3_bound", "inverse_fs", "log_coeff_bounds", "log_gamma2_oracle",
    "conv_fs_complex", "conv_fs_real",
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child_time]
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def call(self, name: str, group: str | None, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        if group:
            self._depth[group] += 1
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stack.pop()
            st = self.stats[name]
            st.calls += 1
            st.total += dt
            st.self_time += dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if group:
                self._depth[group] -= 1
                if self._depth[group] == 0:
                    self.busy[group] += dt

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, group, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, group, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _brute_force_sup(self, fn):
        from gtnbounds.caratheodory import GridSpec

        def wrapper(functional, grid=GridSpec(), *args, **kwargs):
            self.counts["caratheodory.grid_points"] += (
                grid.rho_steps * grid.alpha_steps * grid.tau_steps * grid.beta_steps
            )
            name = ("verify.functional" if self.inside("verify.run_experiment")
                    else "cli.functional")

            def traced_functional(c1, c2):
                self.counts["caratheodory.functional_evals"] += 1
                return self.call(name, None, functional, (c1, c2), {})

            return self.call("caratheodory.brute_force_sup", None, fn,
                             (traced_functional, grid) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _serializer(self, fn):
        def wrapper(*args, **kwargs):
            lines = self.call("verify.reports_to_lines", "verify.serialize",
                              fn, args, kwargs)
            self.counts["verify.serialize.bytes"] += sum(
                len(line.encode()) + 1 for line in lines)
            return lines

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "Tracer":
        import gtnbounds
        import gtnbounds.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items()
                   if n == "gtnbounds" or n.startswith("gtnbounds.")]
        replace: dict[int, object] = {}

        def target(mod, fname):
            return getattr(sys.modules[f"gtnbounds.{mod}"], fname)

        for mod, fname, group in TIMED:
            fn = target(mod, fname)
            if (mod, fname) == ("caratheodory", "brute_force_sup"):
                replace[id(fn)] = self._brute_force_sup(fn)
            elif (mod, fname) == ("verify", "reports_to_lines"):
                replace[id(fn)] = self._serializer(fn)
            else:
                replace[id(fn)] = self._timed(f"{mod}.{fname}", group, fn)
        for mod, fname in COUNTED:
            fn = target(mod, fname)
            replace[id(fn)] = self._counted(f"{mod}.{fname}", fn)
        for fname in BOUNDS_FORMULAS:
            fn = target("bounds", fname)
            replace[id(fn)] = self._timed(f"bounds.{fname}", "bounds", fn)

        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int, cache_hits: int, cache_misses: int,
                      cli_exit: dict, tracebacks: int, malformed_unmet: int,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: counts and times per traced pass, except the
        relation cache, whose hits and misses are totals for the process."""
        per = 1.0 / passes
        out: dict[str, tuple[float, str]] = {}

        def st(name):
            return self.stats.get(name) or Stat()

        out["caratheodory.brute_force_sup.calls"] = (
            st("caratheodory.brute_force_sup").calls * per, "count/pass")
        out["caratheodory.brute_force_sup.self_s"] = (
            st("caratheodory.brute_force_sup").self_time * per, "s/pass")
        out["caratheodory.grid_points"] = (
            self.counts["caratheodory.grid_points"] * per, "count/pass")
        out["caratheodory.functional_evals"] = (
            self.counts["caratheodory.functional_evals"] * per, "count/pass")
        out["verify.functional.busy_s"] = (st("verify.functional").total * per, "s/pass")
        out["verify.run_experiment.calls"] = (st("verify.run_experiment").calls * per,
                                              "count/pass")
        out["verify.run_experiment.self_s"] = (
            st("verify.run_experiment").self_time * per, "s/pass")
        lookups = cache_hits + cache_misses
        out["verify.relation_cache.hit_ratio"] = (
            cache_hits / lookups if lookups else 0.0, "ratio")
        out["verify.relation_cache.hits"] = (cache_hits, "count")
        out["verify.relation_cache.misses"] = (cache_misses, "count")
        out["verify.serialize.busy_s"] = (self.busy["verify.serialize"] * per, "s/pass")
        out["verify.serialize.bytes"] = (self.counts["verify.serialize.bytes"] * per,
                                         "bytes/pass")
        for fname in ("derive_relation", "w_functional", "solve_from_schwarz",
                      "membership_witness"):
            s = st(f"bazilevic.{fname}")
            out[f"bazilevic.{fname}.calls"] = (s.calls * per, "count/pass")
            out[f"bazilevic.{fname}.self_s"] = (s.self_time * per, "s/pass")
        for fname in ("mul", "div"):
            out[f"series.{fname}.calls"] = (self.counts[f"series.{fname}"] * per,
                                            "count/pass")
        for fname in ("pow_real", "log_series", "exp_series", "compose", "revert"):
            s = st(f"series.{fname}")
            out[f"series.{fname}.calls"] = (s.calls * per, "count/pass")
            out[f"series.{fname}.self_s"] = (s.self_time * per, "s/pass")
        for name in ("telephone.x_series", "telephone.gtn_sequence",
                     "distributions.coefficients", "distributions.convolve", "cli.main"):
            out[f"{name}.self_s"] = (st(name).self_time * per, "s/pass")
        out["bounds.calls"] = (
            sum(st(f"bounds.{f}").calls for f in BOUNDS_FORMULAS) * per, "count/pass")
        out["bounds.busy_s"] = (self.busy["bounds"] * per, "s/pass")
        for code in (0, 1, 2):
            out[f"cli.exit_code.{code}"] = (cli_exit.get(code, 0) * per, "count/pass")
        out["cli.tracebacks"] = (tracebacks * per, "count/pass")
        out["cli.malformed_unmet"] = (malformed_unmet * per, "count/pass")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out
