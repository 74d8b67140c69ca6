"""Per-layer spans for the traced run, recorded from outside hypint.

Each public function named in LAYERS is replaced by a wrapper in every
`hypint.*` module that binds it (the package uses `from .x import f`, so
`quad_finite` alone is bound in oracle, integrate, verification and the
package namespace).  Methods are replaced on their class.  A wrapper
counts calls and measures span time; self time is span time minus the
time of wrapped calls made inside the span.  Nothing under src/ is
edited: the wrappers live only in the benchmark process.
"""

from __future__ import annotations

import sys
import time

# layer (module) -> public functions and methods that get a span
LAYERS = {
    "jets": ("jet_mul", "jet_inverse", "jet_pow", "jet_log", "jet_exp"),
    "numkernel": ("gamma_jet", "reciprocal_gamma_jet", "pochhammer", "polygamma"),
    "hypseries": ("eval_series", "eval_at_one", "limit_at_minus_infinity"),
    "transforms": ("pfaff", "gauss_near_one", "thomae_shift", "parity_split",
                   "verify_identity"),
    "hyperize": ("hypize", "undo", "CoeffStream.evaluate", "CoeffStream.coeff"),
    "multivar": ("eval_double", "ialpha_value"),
    "integrate": ("antiderivative", "definite_0_to_1", "definite_0_to_inf",
                  "AntiderivativeForm.evaluate", "verify_ftc"),
    "oracle": ("quad_finite", "quad_halfline"),
    "cli": ("main",),
}

# Public calls that pin a `series` operation to its tag: the calls a tag
# requires, and the others it may make (Pfaff continues through the
# near-one connection beyond z = -19).  A tag not listed makes none.
ROUTE_CALLS = ("transforms.pfaff", "transforms.gauss_near_one", "hypseries.eval_at_one")
TAG_ROUTE = {
    "pfaff": ({"transforms.pfaff"}, {"transforms.gauss_near_one"}),
    "near_one": ({"transforms.gauss_near_one"}, set()),
    "at_one": ({"hypseries.eval_at_one"}, set()),
}


def audit(tag, seen):
    """True when the route calls in `seen` agree with `tag`."""
    need, may = TAG_ROUTE.get(tag, (set(), set()))
    calls = {c for c in ROUTE_CALLS if c in seen}
    return need <= calls and not (calls - need - may)


def span_names():
    return [
        "%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns
    ]


class Tracer:
    """Call counts, span time and self time per wrapped function."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.evals = {}
        self.missing = []
        self.seen = None  # set of span names touched by the current op
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        self.calls[name] = 0
        self.self_s[name] = 0.0
        counts_evals = name.startswith("oracle.")
        if counts_evals:
            self.evals[name] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if tracer.seen is not None:
                    tracer.seen.add(name)
            if counts_evals:
                tracer.evals[name] += out.evaluations
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every target wherever a hypint module binds it."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "hypint" or n.startswith("hypint."))]
        for layer, fns in LAYERS.items():
            home = sys.modules.get("hypint." + layer)
            for fn in fns:
                name = "%s.%s" % (layer, fn)
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = getattr(cls, "__dict__", {}).get(meth)
                    if orig is None:
                        self.missing.append(name)
                        continue
                    setattr(cls, meth, self._wrap(name, orig))
                    self._undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, fn, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
