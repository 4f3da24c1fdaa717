"""Spans around calls into froth1d, recorded from outside the package.

``Tracer.install`` wraps each listed public function and rebinds every name
that any froth1d module holds for it (``minimize`` holds its own
``total_energy``, ``cli`` its own ``coarse_grain``, and so on), so calls made
inside the package are traced too. Spans stay in memory: name, start, end,
parent, and a size (grid samples for energy calls, bytes for profile writes).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs traced; the span name is "<module>.<function>"
TRACED = (
    ("model", "eval_F"), ("model", "eval_F_prime"),
    ("energy", "total_energy"), ("energy", "energy_gradient"),
    ("energy", "tilde_energy"), ("energy", "step_dipole_energy"),
    ("minimize", "minimize_energy"),
    ("minimize", "minimize_with_mean_constraint"),
    ("minimize", "multistart"),
    ("instanton", "solve_instanton"), ("instanton", "build_trial_profile"),
    ("sharp", "optimal_h"), ("sharp", "eh_curve"),
    ("sharp", "check_eh_bounds"), ("sharp", "chessboard_lower_bound"),
    ("coarsegrain", "coarse_grain"),
    ("coarsegrain", "lower_bound_certificate"),
    ("diagnostics", "good_set"),
    ("diagnostics", "excess_energy_decomposition"),
    ("verify", "run_certificates"),
    ("profiles", "save_profile"), ("profiles", "load_profile"),
)

DESCENT_SPANS = ("minimize.minimize_energy",
                 "minimize.minimize_with_mean_constraint",
                 "minimize.multistart")


def _grid_size(args, kwargs):
    prof = args[1] if len(args) > 1 else kwargs.get("profile")
    return prof.n


def _written_size(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


SIZES = {"energy.total_energy": _grid_size,
         "energy.energy_gradient": _grid_size,
         "profiles.save_profile": _written_size}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, size]
        self._stack = []
        self._undo = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, size: int = 0):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = size
        self._stack.pop()

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            size = 0
            try:
                out = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, kwargs)
                return out
            finally:
                self.close(idx, size)
        return traced

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "froth1d" or name.startswith("froth1d.")}
        for modname, fname in TRACED:
            orig = getattr(mods[f"froth1d.{modname}"], fname)
            wrapped = self._wrap(f"{modname}.{fname}", orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, size sum.

        Also, per descent span, the energy and gradient calls made directly
        inside it.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "size": 0})
        descent_energy_calls = 0
        for i, (name, t0, t1, parent, size) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - child[i]
            a["size"] += size
            if (name == "energy.total_energy" and parent >= 0
                    and self.spans[parent][0] in DESCENT_SPANS):
                descent_energy_calls += 1
        return agg, descent_energy_calls

    def dump(self, path):
        """Write the spans as CSV (times relative to the first span)."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,size\n")
            for i, (name, t0, t1, parent, size) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0 - t_ref:.9f},{t1 - t_ref:.9f},"
                         f"{parent},{size}\n")
