"""Outside-in tracing of the integral_census layers.

``Tracer.install`` replaces the public functions of each module (its
``__all__``) plus a few named internals with wrappers that record a span
per call: name, start, end and the enclosing span.  Spans stay in memory;
``layer_metrics`` turns them into the per-layer metrics of BENCHMARK.json.
A layer is a module, and its self time is the time of its spans minus the
time of the spans nested in them.

A wrapper only counts the calls that reach it, so every binding site of a
function is patched: module globals that imported it by name (``repulsion``
imports five functions that way), default arguments
(``per_rank_bound(code_fn=best_code_bound)``) and class attributes.
``install`` then searches those modules for any other holder of an
original function (a dispatch table, a closure) and refuses to trace if
one is left.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ["families", "points", "divpoly", "heights", "repulsion", "codes", "optimizer", "cli"]

# internals that carry a named per-layer metric
EXTRA = {"divpoly": ["_wmul"], "cli": ["run"]}

# (module, global): a foreign function patched only where it is bound, so
# the aggregation LP is counted apart from the LPs inside codes.lp_bound
LOCAL = [("optimizer", "linprog")]

HARNESS = "bench"
# benchmark modules that call into the package: their bindings count too
HARNESS_MODULES = ("workloads", "checks")
_PERF = time.perf_counter


def _filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sig_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return repr(tuple(bound.arguments.values()))

    return key


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.maxima: dict[str, float] = defaultdict(float)
        self._restore: list = []
        self._wrapped: dict[int, object] = {}  # id(wrapper) -> original

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(_PERF())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = _PERF()
        self.stack.pop()

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install on enter, restore every patched site on exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        mods = {name: importlib.import_module(f"integral_census.{name}") for name in LAYERS}
        scope = [
            m for n, m in sys.modules.items()
            if n.startswith("integral_census") or n in HARNESS_MODULES
        ]
        originals = []
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", [])) + EXTRA.get(layer, [])
            for attr in names:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fn.__name__}", fn)
                self._wrapped[id(wrapper)] = fn
                self._patch_everywhere(fn, wrapper, scope)
                originals.append(fn)
        for layer, attr in LOCAL:
            fn = getattr(mods[layer], attr)
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            setattr(mods[layer], attr, wrapper)
            self._restore.append((vars(mods[layer]), attr, fn))
        leftover = self._unpatched(originals, scope)
        if leftover:
            raise RuntimeError(f"unpatched binding sites: {leftover}")

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            if isinstance(holder, types.FunctionType):
                setattr(holder, key, value)
            else:
                holder[key] = value
        self._restore.clear()
        self._wrapped.clear()

    def _patch_everywhere(self, fn, wrapper, modules) -> None:
        holders = []
        for mod in modules:
            holders.append(vars(mod))
            holders += [vars(v) for v in vars(mod).values() if inspect.isclass(v)]
        for ns in holders:
            for key, value in list(ns.items()):
                if value is fn:
                    if isinstance(ns, types.MappingProxyType):
                        raise RuntimeError(f"cannot patch class attribute {key}")
                    self._restore.append((ns, key, fn))
                    ns[key] = wrapper
            for value in list(ns.values()):
                func = self._function(value)
                if func is None:
                    continue
                if func.__defaults__ and any(d is fn for d in func.__defaults__):
                    self._restore.append((func, "__defaults__", func.__defaults__))
                    func.__defaults__ = tuple(wrapper if d is fn else d for d in func.__defaults__)
                kw = func.__kwdefaults__
                if kw and any(d is fn for d in kw.values()):
                    self._restore.append((func, "__kwdefaults__", dict(kw)))
                    func.__kwdefaults__ = {k: wrapper if d is fn else d for k, d in kw.items()}

    def _function(self, value):
        """The plain function behind a global or class attribute, if any;
        for a wrapper, the function it wraps, whose defaults still count."""
        func = getattr(value, "__func__", value)  # staticmethod/classmethod
        func = self._wrapped.get(id(func), func)
        return func if isinstance(func, types.FunctionType) else None

    def _unpatched(self, originals, modules) -> list[str]:
        """Places in ``modules`` that still hold an original function:
        globals, class attributes, default arguments, closures, and the
        items of module-level containers such as dispatch tables."""
        ids = {id(fn): f"{fn.__module__}.{fn.__name__}" for fn in originals}
        found = []

        def look(where, values):
            found.extend(f"{ids[id(v)]} in {where}" for v in values if id(v) in ids)

        for mod in modules:
            for key, value in vars(mod).items():
                where = f"{mod.__name__}.{key}"
                look(where, [value])
                if isinstance(value, dict):
                    look(where, value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    look(where, value)
                elif inspect.isclass(value):
                    look(where, vars(value).values())
                func = self._function(value)
                if func is not None:
                    look(where, func.__defaults__ or ())
                    look(where, (func.__kwdefaults__ or {}).values())
                    look(where, [c.cell_contents for c in func.__closure__ or () if _filled(c)])
        return found

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        distinct = _sig_key(fn) if name in _DISTINCT else None
        begin, end, counts, keys = self.begin, self.end, self.counts, self.keys

        if inspect.isgeneratorfunction(fn):
            # time each next(): the caller's work between items is not ours
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end(i)
                    counts[name + ".items"] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                end(i)
            if distinct is not None:
                keys[name].add(distinct(args, kwargs))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- metrics -------------------------------------------------------------

    def durations(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, self time."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += d
            own[name] += d - child[i]
        return calls, total, own

    def span_times(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]


def _observe_scan(tr, args, kwargs, result):
    tr.counts["points.integral_points.x_values"] += 2 * _arg(args, kwargs, 1, "x_bound") + 1
    tr.counts["points.integral_points.points"] += len(result)


def _observe_filter(tr, args, kwargs, result):
    tr.counts["families.filter_diagnostics.passed"] += bool(result.passes_all)


def _observe_lp(tr, args, kwargs, result):
    tr.counts["codes.lp_bound.certified"] += bool(result.certified)


def _observe_psi(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    tr.maxima["divpoly.psi.n"] = max(tr.maxima["divpoly.psi.n"], n)


_OBSERVERS = {
    "points.integral_points": _observe_scan,
    "families.filter_diagnostics": _observe_filter,
    "codes.lp_bound": _observe_lp,
    "divpoly.psi": _observe_psi,
}
_DISTINCT = {
    "heights.canonical_height",
    "codes.lp_bound",
    "codes.best_code_bound",
    "optimizer.check_constraints",
}

# per-layer metric name -> span name
ALIASES = {
    "points.scan": "points.integral_points",
    "families.enumerate": "families.enumerate_family",
    "families.filter": "families.filter_diagnostics",
    "heights.canonical": "heights.canonical_height",
    "heights.pairing": "heights.height_pairing",
    "repulsion.gap_excess": "repulsion.gap_excess",
    "repulsion.survey": "repulsion.repulsion_survey",
    "divpoly.psi": "divpoly.psi",
    "divpoly.multiply": "divpoly._wmul",
    "divpoly.verify_growth": "divpoly.verify_coeff_growth",
    "codes.lp": "codes.lp_bound",
    "codes.cap": "codes.cap_bound",
    "codes.best": "codes.best_code_bound",
    "optimizer.check_constraints": "optimizer.check_constraints",
    "optimizer.per_rank": "optimizer.per_rank_bound",
    "optimizer.aggregate": "optimizer.aggregate_bound",
    "optimizer.aggregate_lp": "optimizer.linprog",
    "optimizer.optimize": "optimizer.optimize",
    "cli.run": "cli.run",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose job spans took ``wall`` in all."""
    calls, total, own = tr.durations()
    c = {k: calls.get(v, 0) for k, v in ALIASES.items()}
    t = {k: total.get(v, 0.0) for k, v in ALIASES.items()}
    s = {k: own.get(v, 0.0) for k, v in ALIASES.items()}

    def per_call(key: str, scale: float) -> float:
        return scale * _ratio(t[key], c[key])

    canon = sorted(tr.span_times(ALIASES["heights.canonical"]))
    pct = statistics.quantiles(canon, n=20, method="inclusive") if len(canon) > 1 else canon * 19
    curves = tr.counts["families.enumerate_family.items"]
    x_values = tr.counts["points.integral_points.x_values"]
    m = {
        "points.scan.calls": c["points.scan"],
        "points.scan.x_values": x_values,
        "points.scan.points": tr.counts["points.integral_points.points"],
        "points.scan.ns_per_x": 1e9 * _ratio(t["points.scan"], x_values),
        "points.scan.us_per_call": per_call("points.scan", 1e6),
        "points.scan.self_frac": _ratio(s["points.scan"], wall),
        "families.enumerate.curves": curves,
        "families.enumerate.us_per_curve": 1e6 * _ratio(t["families.enumerate"], curves),
        "families.filter.calls": c["families.filter"],
        "families.filter.us_per_curve": per_call("families.filter", 1e6),
        "families.filter.pass_frac": _ratio(
            tr.counts["families.filter_diagnostics.passed"], c["families.filter"]
        ),
        "families.filter.self_frac": _ratio(s["families.filter"], wall),
        "heights.canonical.calls": c["heights.canonical"],
        "heights.canonical.ms_per_call": per_call("heights.canonical", 1e3),
        "heights.canonical.p50_ms": 1e3 * statistics.median(canon) if canon else 0.0,
        "heights.canonical.p95_ms": 1e3 * pct[18] if canon else 0.0,
        "heights.canonical.distinct_frac": _ratio(
            len(tr.keys["heights.canonical_height"]), c["heights.canonical"]
        ),
        "heights.canonical.errors": tr.counts["heights.canonical_height.errors"],
        "heights.pairing.calls": c["heights.pairing"],
        "heights.pairing.self_ms": 1e3 * s["heights.pairing"],
        "repulsion.pairs": c["repulsion.gap_excess"],
        "repulsion.gap_excess.ms_per_pair": per_call("repulsion.gap_excess", 1e3),
        "repulsion.survey.self_s": s["repulsion.survey"],
        "divpoly.psi.calls": c["divpoly.psi"],
        "divpoly.psi.self_s": s["divpoly.psi"],
        "divpoly.psi.max_n": tr.maxima["divpoly.psi.n"],
        "divpoly.multiply.calls": c["divpoly.multiply"],
        "divpoly.multiply.us_per_call": per_call("divpoly.multiply", 1e6),
        "divpoly.verify_growth.self_s": s["divpoly.verify_growth"],
        "codes.lp.calls": c["codes.lp"],
        "codes.lp.ms_per_call": per_call("codes.lp", 1e3),
        "codes.lp.distinct_frac": _ratio(len(tr.keys["codes.lp_bound"]), c["codes.lp"]),
        "codes.lp.certified_frac": _ratio(tr.counts["codes.lp_bound.certified"], c["codes.lp"]),
        "codes.cap.calls": c["codes.cap"],
        "codes.best.calls": c["codes.best"],
        "codes.best.distinct_frac": _ratio(len(tr.keys["codes.best_code_bound"]), c["codes.best"]),
        "optimizer.check_constraints.calls": c["optimizer.check_constraints"],
        "optimizer.check_constraints.ms_per_call": per_call("optimizer.check_constraints", 1e3),
        "optimizer.check_constraints.distinct_frac": _ratio(
            len(tr.keys["optimizer.check_constraints"]), c["optimizer.check_constraints"]
        ),
        "optimizer.per_rank.calls": c["optimizer.per_rank"],
        "optimizer.aggregate.calls": c["optimizer.aggregate"],
        "optimizer.aggregate.ms_per_call": per_call("optimizer.aggregate", 1e3),
        "optimizer.aggregate_lp.calls": c["optimizer.aggregate_lp"],
        "optimizer.optimize.self_s": s["optimizer.optimize"],
        "cli.run.calls": c["cli.run"],
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }
    for layer in LAYERS + [HARNESS]:
        m[f"{layer}.self_frac"] = _ratio(
            sum(v for k, v in own.items() if k.split(".")[0] == layer), wall
        )
    return m
