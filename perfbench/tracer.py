"""Spans around the checker's public functions, recorded from outside.

The checker's modules import each other's functions by name, so a call
such as ``engine.check_sat(...)`` resolves through the importing
module's namespace.  ``Tracer.install`` replaces each such binding with a
wrapper that records a span (name, start, end, parent span, operation
id); the defining module keeps its own binding, so calls inside a module
(``entails`` calling ``check_sat``, ``instantiate`` recursing) stay inside
the caller's span.  The driver's inductiveness, counterexample and
validation steps have no caller outside the driver, so they are also
replaced in the driver itself.  No file of the checker changes.

Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from typing import Dict, List

from recmc.errors import ResourceLimit

# (defining module, function, also replace in the defining module)
TARGETS = (
    ("recmc.parser", "parse", False),
    ("recmc.driver", "check", False),
    ("recmc.driver", "check_inductive", True),
    ("recmc.driver", "build_cex", True),
    ("recmc.driver", "validate_proof", True),
    ("recmc.driver", "validate_cex", True),
    ("recmc.engine", "bounded_safety", False),
    ("recmc.program", "instantiate", False),
    ("recmc.program", "instantiate_path_mixed", False),
    ("recmc.program", "under_env", False),
    ("recmc.program", "over_env", False),
    ("recmc.interpolate", "itp", False),
    ("recmc.project", "project", False),
    ("recmc.solver", "check_sat", False),
    ("recmc.solver", "entails", False),
    ("recmc.solver", "refute_conjunction", False),
)

NO_PARENT = -1
SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.op_id = SETUP_OP
        self.unknown_calls = 0
        self._restore = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, module: str, fn):
        layer = module.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        span = self.span

        if fn.__name__ == "project":

            @functools.wraps(fn)
            def wrapper(vars_, matrix, model=None, strategy="mbp", stats=None):
                return span(f"project.{strategy}", fn, vars_, matrix, model, strategy, stats)

        elif fn.__name__ == "check_sat":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                res = span(name, fn, *args, **kwargs)
                if res.is_unknown:
                    self.unknown_calls += 1
                return res

        elif fn.__name__ == "entails":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return span(name, fn, *args, **kwargs)
                except ResourceLimit:
                    self.unknown_calls += 1
                    raise

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)

        return wrapper

    def install(self, extra_sites=()) -> None:
        """Replace every binding of each target in the checker's loaded
        modules and in extra_sites (modules of the benchmark itself)."""
        sites = [m for n, m in sorted(sys.modules.items()) if n.startswith("recmc")]
        sites += list(extra_sites)
        for module_name, fn_name, in_home in TARGETS:
            home = sys.modules[module_name]
            fn = getattr(home, fn_name)
            wrapper = self._wrap(module_name, fn)
            for site in sites:
                if site is home and not in_home:
                    continue
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, attr, wrapper)
                        self._restore.append((site, attr, fn))

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._restore):
            setattr(site, attr, fn)
        self._restore.clear()

    # -- summaries -------------------------------------------------------

    def totals(self, op_filter) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over
        the spans whose operation id passes op_filter."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            if not op_filter(self.op[i]):
                continue
            dur = self.end[i] - self.start[i]
            t = out.setdefault(self.names[self.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, parent, op, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tparent\top\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
