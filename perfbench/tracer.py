"""Per-layer tracing of the delpezzo package, applied from outside.

`Tracer.install` replaces every public function of each layer module (in
every module namespace that imported it) with a wrapper that counts calls and
failures and measures self time: the span's duration minus the part covered
by traced calls it made.  Spans live in memory; `snapshot` turns them into
metrics.  Hot entry points are counted but not timed, so that the clock does
not dominate them.  The package code is left untouched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "curves", "cohomology", "contraction", "symmetry", "covers", "casework", "cli")

#: Called millions of times in a verify pass: counted, not timed.
COUNT_ONLY = {"lattice.intersect"}

#: Functions recorded under another function's name.  `h0` is a thin wrapper
#: of `h0_with_trace`; together they are the h0 computation, counted once per
#: call from outside it.
ALIASES = {"cohomology.h0_with_trace": "cohomology.h0"}

#: Constructors counted through ``__init__`` and methods counted per call.
CONSTRUCTORS = (("lattice", "DivisorClass"), ("lattice", "QDivisorClass"),
                ("symmetry", "LatticeAutomorphism"))
METHODS = (("symmetry", "LatticeAutomorphism", "compose"),
           ("casework", "ConstraintSystem", "tie_break_holds"))

#: parent -> (child counted inside it, metric): yield is the number of
#: items the parent returns per child call made inside it.  Calls that make
#: no child call (cache hits) do not count.
YIELDS = {
    "cohomology.find_half_anticanonical_pencils": ("cohomology.h0", "cohomology.scan.yield"),
    "symmetry.generate_group": ("symmetry.LatticeAutomorphism.compose", "symmetry.generate_group.yield"),
    "casework.enumerate_table": ("casework.ConstraintSystem.tie_break_holds", "casework.table.yield"),
}


class Stat:
    __slots__ = ("count", "failed", "self_s", "total_s")

    def __init__(self):
        self.count = 0
        self.failed = 0
        self.self_s = 0.0
        self.total_s = 0.0


def check_slug(fn) -> str:
    """Name of a verify check: ``_check_group`` -> ``group``, and
    ``lambda: _check_table("p6")`` -> ``table_p6``."""
    name = fn.__name__
    if name == "<lambda>":
        code = fn.__code__
        args = [c for c in code.co_consts if isinstance(c, str)]
        name = "_".join([code.co_names[0], *args])
    return name.removeprefix("_check_")


class Tracer:
    def __init__(self):
        self.modules: list = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.extra: dict[str, float] = defaultdict(float)
        self.stack: list[float] = []
        self.names: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        """Wrap the functions of the delpezzo modules imported now."""
        self.modules = [m for n, m in sys.modules.items() if n == "delpezzo" or n.startswith("delpezzo.")]
        for layer in LAYERS:
            module = sys.modules.get(f"delpezzo.{layer}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapper = self._counted(key, obj) if key in COUNT_ONLY else self._timed(key, obj)
                self._replace(obj, wrapper)
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules.get(f"delpezzo.{layer}"), cls_name, None)
            if cls is not None and "__init__" in cls.__dict__:
                self._patch_attr(cls, "__init__", f"{layer}.{cls_name}")
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"delpezzo.{layer}"), cls_name, None)
            if cls is not None and method in cls.__dict__:
                self._patch_attr(cls, method, f"{layer}.{cls_name}.{method}")
        verify = sys.modules.get("delpezzo.verify")
        if verify is not None and hasattr(verify, "all_checks"):
            self._patch_checks(verify)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch_attr(self, owner, name: str, key: str) -> None:
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, self._counted(key, getattr(owner, name)))

    def _patch_checks(self, verify) -> None:
        all_checks = verify.all_checks

        def traced_checks():
            return [(label, self._timed(f"verify.check.{check_slug(fn)}", fn)) for label, fn in all_checks()]

        self._undo.append((verify, "all_checks", all_checks))
        verify.all_checks = traced_checks

    # -- wrappers -------------------------------------------------------------

    def _counted(self, key: str, fn):
        stat = self.stats[key]

        def counted(*args, **kwargs):
            stat.count += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, key: str, fn):
        stats, stack, names, extra = self.stats, self.stack, self.names, self.extra
        perf = time.perf_counter
        yield_spec = YIELDS.get(key)
        is_cli = key == "cli.run"
        is_reduction = key == "cohomology.h0_with_trace"
        alias = ALIASES.get(key, key)

        def timed(*args, **kwargs):
            name = alias
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.run.{argv[0] if argv else 'none'}"
            stat = stats[name]
            outer = not names or names[-1] != name  # a nested call of the same span counts once
            stat.count += outer
            before = stats[yield_spec[0]].count if yield_spec else 0
            stack.append(0.0)
            names.append(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += outer
                if is_cli:
                    extra["cli.exit.1.count"] += 1
                raise
            finally:
                elapsed = perf() - start
                children = stack.pop()
                names.pop()
                stat.self_s += elapsed - children
                stat.total_s += elapsed * outer
                if stack:
                    stack[-1] += elapsed
            if is_reduction:
                steps = len(getattr(result, "steps", ()))
                extra["cohomology.reduction_steps"] += steps
                extra["cohomology.reduction_steps_max"] = max(extra["cohomology.reduction_steps_max"], steps)
            elif is_cli:
                extra[f"cli.exit.{result}.count"] += 1
            if yield_spec:
                inner = stats[yield_spec[0]].count - before
                if inner:
                    extra[yield_spec[1] + ".items"] += len(result)
                    extra[yield_spec[1] + ".calls"] += inner
            return result

        return timed

    # -- reading --------------------------------------------------------------

    def reset(self) -> None:
        """Zero every span in place (counting wrappers hold their Stat)."""
        for stat in self.stats.values():
            stat.count = stat.failed = 0
            stat.self_s = stat.total_s = 0.0
        self.extra.clear()

    def snapshot(self) -> dict[str, float]:
        """Every metric of the spans recorded since the last reset."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            out[f"{key}.count"] = stat.count
            out[f"{key}.failed"] = stat.failed
            if key.startswith("verify.check."):
                out[f"{key}.s"] = stat.total_s
            else:
                out[f"{key}.self_s"] = stat.self_s
        for key, value in self.extra.items():
            if key.endswith(".items") or key.endswith(".calls"):
                continue
            out[key] = value
        for _child, metric in YIELDS.values():
            calls = self.extra.get(metric + ".calls", 0)
            out[metric] = self.extra.get(metric + ".items", 0) / calls if calls else 0.0
        return out
