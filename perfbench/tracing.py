"""In-memory span tracing of gphier's public functions, from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, job, units).  The
wrapper is put wherever the original function is bound: in its own module
and in every gphier module that imported it by name.  Calls made through a
function-local `from .x import y` see the wrapper too, because that import
reads the module attribute at call time.  `uninstall()` restores the
originals.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of one
job's spans add up to the duration of its root span.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time

PACKAGE = "gphier"
# modules whose public functions get spans; lattice and expansion cost
# milliseconds in the pinned jobs and are left to their callers' self time
TRACED_MODULES = ("cli", "tensor", "dynamics", "duhamel", "randomization", "nls")
# public methods that carry layer work of their own
TRACED_METHODS = {"duhamel.DuhamelEvaluator": ("term_batch",)}
# constructors that are counted, not timed
COUNTED_INITS = ("duhamel.DuhamelEvaluator",)


def _steps(fn):
    """Work units of a time stepper: the T/dt steps one call asks for."""
    sig = inspect.signature(fn)

    def units(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return math.ceil(bound.arguments["T"] / bound.arguments["dt"] - 1e-9)

    return units


def _nnz(fn):
    """Size of a returned sparse matrix."""
    return lambda args, kwargs, result: int(result.nnz)


# per-span work units recorded next to the timing; each entry builds the
# hook for the function it wraps
UNIT_HOOKS = {
    "dynamics.evolve_truncated": _steps,
    "nls.nls_evolve": _steps,
    "dynamics.full_collision_matrix": _nnz,
}


class Tracer:
    """Records spans of wrapped gphier functions; one instance per run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, job, units]
        self.counts = {}       # (job, name) -> count, for COUNTED_INITS
        self.job = -1
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # --- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name, fn, units=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if units is not None:
                record[5] = units(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (self.job, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced functions everywhere they are bound."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in TRACED_MODULES}
        package_mods = [mod for key, mod in sorted(sys.modules.items())
                        if mod is not None and (key == PACKAGE
                                                or key.startswith(PACKAGE + "."))]
        replacements = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    hook = UNIT_HOOKS.get(name)
                    replacements[id(obj)] = (
                        obj, self._span_wrapper(name, obj,
                                                hook(obj) if hook else None))
        for pmod in package_mods:
            for attr, val in list(vars(pmod).items()):
                if id(val) in replacements and replacements[id(val)][0] is val:
                    self._patch(pmod, attr, replacements[id(val)][1])
        for qual, methods in TRACED_METHODS.items():
            short, cls_name = qual.split(".")
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                self._patch(cls, meth, self._span_wrapper(
                    f"{short}.{meth}", getattr(cls, meth)))
        for qual in COUNTED_INITS:
            short, cls_name = qual.split(".")
            cls = getattr(mods[short], cls_name)
            self._patch(cls, "__init__",
                        self._count_wrapper(f"{short}.{cls_name}", cls.__init__))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def job_profile(self, job):
        """Per-name self time, inclusive time, calls and units of one job.

        Returns (root_s, by_name, extra) where root_s is the summed duration
        of the job's top-level spans, by_name maps a span name to a dict
        with 'self', 'incl', 'calls', 'units', 'max_units', and extra holds
        counted constructors and `omega_evaluations`, the `term_batch`
        calls made under an Omega-average span.
        """
        idx = [i for i, s in enumerate(self.spans) if s[4] == job]
        child_time = {}
        for i in idx:
            s = self.spans[i]
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        by_name, root_s = {}, 0.0
        omega_evals = 0
        for i in idx:
            name, start, end, parent, _, units = self.spans[i]
            dur = end - start
            if parent < 0:
                root_s += dur
            agg = by_name.setdefault(name, {"self": 0.0, "incl": 0.0, "calls": 0,
                                            "units": 0, "max_units": 0})
            agg["self"] += dur - child_time.get(i, 0.0)
            agg["calls"] += 1
            if units is not None:
                agg["units"] += units
                agg["max_units"] = max(agg["max_units"], units)
            if not self._has_ancestor(i, name):
                agg["incl"] += dur
            if name == "duhamel.term_batch" \
                    and self._has_ancestor(i, "randomization.omega_l2_h_alpha"):
                omega_evals += 1
        extra = {name: n for (j, name), n in self.counts.items() if j == job}
        extra["omega_evaluations"] = omega_evals
        return root_s, by_name, extra

    def _has_ancestor(self, i, name):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, fh):
        """Write every span as one JSON array per line."""
        for sid, (name, start, end, parent, job, units) in enumerate(self.spans):
            fh.write(json.dumps([sid, name, start, end, parent, job, units]))
            fh.write("\n")
