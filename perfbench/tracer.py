"""Call counts and self time for the public functions of each layer.

The tracer wraps functions by name from outside the package: it changes no
file under `src/`.  It must be installed before `openarrows` is imported,
because modules bind each other's functions at import time
(`from .finset import product`); a post-import hook wraps each name right
after its defining module has run, before any later module binds it.

Spans are aggregated in memory per (name, parent name).  A span's self
time is its duration minus the time covered by its child spans.  Only a
bounded sample of raw spans is kept, since one law pass makes millions of
wrapped calls.  A name the package no longer defines is reported as absent
instead of failing, so the traced run survives refactors that delete or
move public definitions.
"""

from __future__ import annotations

import importlib.abc
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "openarrows"
ROOT = "-"
SAMPLE_LIMIT = 200  # raw spans kept per pass

# (module, attribute path, metric name): wrap a function, a method or,
# through `__init__`, a constructor
FUNCTIONS = [
    ("finset", "product", "finset.product"),
    ("finset", "FinSet.__init__", "finset.FinSet"),
    ("finset", "FinFun.__init__", "finset.FinFun"),
    ("finset", "Dist.__init__", "finset.Dist"),
    ("finset", "FinFun.of", "finset.FinFun.of"),
    ("finset", "fun_compose", "finset.fun_compose"),
    ("base", "PAIR.tensor", "base.PAIR.tensor"),
    ("base", "PAIR.sym", "base.PAIR.sym"),
    ("base", "PAIR.compose", "base.PAIR.compose"),
    ("lens", "Lens.__init__", "lens.Lens"),
    ("lens", "lens_comp", "lens.lens_comp"),
    ("lens", "lens_strength", "lens.lens_strength"),
    ("lens", "lens_pure", "lens.lens_pure"),
    ("lens", "all_lenses", "lens.all_lenses"),
    ("arrow", "ArrowInstance.hom_cached", "arrow.hom_cached"),
    ("arrow", "left_strength", "arrow.left_strength"),
    ("arrow", "dimap", "arrow.dimap"),
    ("bimodule", "eq_tabulate", "bimodule.eq_tabulate"),
    ("grading", "fam_equal", "grading.fam_equal"),
    ("optic", "optic_comp", "optic.optic_comp"),
    ("optic", "optic_strength", "optic.optic_strength"),
    ("optic", "optic_equiv", "optic.optic_equiv"),
    ("optic", "optic_canonicalize", "optic.optic_canonicalize"),
    ("games", "seq", "games.seq"),
    ("games", "par", "games.par"),
    ("games", "equilibria", "games.equilibria"),
    ("games", "ProbGame.judge", "games.ProbGame.judge"),
    ("games", "nash_oracle", "games.nash_oracle"),
    ("laws", "check_arrow_laws", "laws.check_arrow_laws"),
    ("laws", "check_strength", "laws.check_strength"),
    ("laws", "check_commutativity", "laws.check_commutativity"),
    ("laws", "check_bimodule", "laws.check_bimodule"),
    ("laws", "check_eqmonoid", "laws.check_eqmonoid"),
    ("laws", "check_context", "laws.check_context"),
    ("laws", "check_graded", "laws.check_graded"),
    ("laws", "check_graded_bimodule", "laws.check_graded_bimodule"),
    ("laws", "run_mutants", "laws.run_mutants"),
    ("gamefile", "parse_game_text", "gamefile.parse_game_text"),
    ("gamefile", "build_game", "gamefile.build_game"),
    ("gamefile", "resolve_context", "gamefile.resolve_context"),
    ("cli", "main", "cli.main"),
]

# (module, class, {field: metric name}): wrap operation fields of instances
FIELDS = [
    ("arrow", "ArrowInstance",
     {"comp": "arrow.comp", "st": "arrow.st", "equal": "arrow.equal",
      "hom": "arrow.hom"}),
    ("bimodule", "Bimodule",
     {"lact": "bimodule.lact", "ract": "bimodule.ract", "st": "bimodule.st",
      "equal": "bimodule.equal"}),
    ("bimodule", "ContextStruct", {"cst": "bimodule.cst"}),
    ("grading", "GradedArrow",
     {"gcomp": "grading.gcomp", "st": "grading.st",
      "regrade": "grading.regrade", "equal": "grading.equal"}),
    ("grading", "GradedBimodule",
     {"glact": "games.gbim.glact", "gract": "games.gbim.gract",
      "equal": "games.gbim.equal"}),
]

# metric name -> (counter name, amount per call): exact work counters
COUNTERS = {
    "finset.FinFun.of": (
        "finset.FinFun.of.cells",
        lambda args, kwargs: len(args[0] if args else kwargs["dom"]),
    ),
}


def traced_names() -> list:
    """Every span name the tracer tries to install, in declaration order."""
    return [n for _, _, n in FUNCTIONS] + [
        n for _, _, fields in FIELDS for n in fields.values()]


class Tracer:
    """Aggregates nested spans: calls and self time per (name, parent)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._wrappers = {}  # (name, id(fn)) -> (fn, wrapper)
        self.stack = []  # open spans: [name, time covered by children]
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self.samples = []  # bounded raw spans: (name, parent, start, end)

    def reset(self) -> None:
        """Forget every recorded span; wrappers stay installed."""
        for store in (self.stack, self.agg, self.counters, self.samples):
            store.clear()

    def wrap(self, name: str, fn):
        if getattr(fn, "__perfbench_tracer__", None) is self:
            return fn
        # one wrapper per function, so instances that shared a function
        # before wrapping still compare equal after it
        known = self._wrappers.get((name, id(fn)))
        if known is not None:
            return known[1]
        clock, stack, agg = self.clock, self.stack, self.agg
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    pname = parent[0]
                else:
                    pname = ROOT
                rec = agg.get((name, pname))
                if rec is None:
                    rec = agg[name, pname] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if count is not None:
                    self.counters[count[0]] += count[1](args, kwargs)
                if len(self.samples) < SAMPLE_LIMIT:
                    self.samples.append((name, pname, t0, t1))

        wrapper.__perfbench_tracer__ = self
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._wrappers[name, id(fn)] = (fn, wrapper)
        return wrapper

    def totals(self) -> dict:
        """name -> {"calls", "self_s"}, summed over parents."""
        out = {}
        for (name, _parent), (calls, _total, self_s) in self.agg.items():
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += calls
            t["self_s"] += self_s
        return out

    def edges(self) -> list:
        return [
            {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.agg.items())
        ]


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path, or None if any part is gone."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


def _wrap_attr(tracer: Tracer, owner, attr: str, name: str) -> None:
    raw = inspect.getattr_static(owner, attr)
    if isinstance(owner, type) and isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__)))
    elif isinstance(owner, type) or inspect.ismodule(owner):
        setattr(owner, attr, tracer.wrap(name, raw))
    else:
        # an instance, e.g. the PAIR base: shadow the bound method
        object.__setattr__(owner, attr, tracer.wrap(name, getattr(owner, attr)))


def _wrap_fields(tracer: Tracer, cls: type, fields: dict) -> None:
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for field, name in fields.items():
            fn = getattr(self, field, None)
            if callable(fn):
                object.__setattr__(self, field, tracer.wrap(name, fn))

    cls.__init__ = __init__


class _HookLoader(importlib.abc.Loader):
    def __init__(self, loader, hook):
        self.loader, self.hook = loader, hook

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        self.loader.exec_module(module)
        self.hook(module)


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs hook(module) right after the named module has executed."""

    def __init__(self, hooks: dict):
        self.hooks = hooks

    def find_spec(self, fullname, path, target=None):
        hook = self.hooks.get(fullname)
        if hook is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _HookLoader(spec.loader, hook)
                return spec
        return None


def install(tracer: Tracer) -> set:
    """Arrange for every traced name to be wrapped as its module loads.

    Returns the set of installed names, filled in as modules import; after
    the package is imported, the traced names missing from it are absent.
    """
    installed: set = set()
    per_module = defaultdict(list)
    for mod, path, name in FUNCTIONS:
        per_module[mod].append(("fn", path, name))
    for mod, cls, fields in FIELDS:
        per_module[mod].append(("fields", cls, fields))

    def hook_for(entries):
        def hook(module):
            for kind, path, name in entries:
                if kind == "fn":
                    found = _resolve(module, path)
                    if found is not None:
                        _wrap_attr(tracer, *found, name)
                        installed.add(name)
                    continue
                cls = getattr(module, path, None)
                if isinstance(cls, type):
                    declared = getattr(cls, "__dataclass_fields__", name)
                    fields = {f: n for f, n in name.items() if f in declared}
                    _wrap_fields(tracer, cls, fields)
                    installed.update(fields.values())
        return hook

    sys.meta_path.insert(0, _AfterImport(
        {f"{PACKAGE}.{mod}": hook_for(entries) for mod, entries in per_module.items()}
    ))
    return installed
