"""The benchmark's hooks into the library still attach.

The traced benchmark run wraps the functions that `bench/tracer.py`
names, wherever a hypint module binds them, and audits each `series`
operation by the route calls it makes.  A renamed function leaves a
span missing, and a route moved between modules sends an operation
down another tag's route; the traced run then reports it incorrect.
This test runs the same wrapping and audit over one seed's `series`
set, without editing anything under bench/.
"""

import ast
import importlib.util
from pathlib import Path

import hypint.cli  # noqa: F401  (loads every module the tracer wraps)
from hypint import hypseries, jets, transforms

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "_bench_" + name, BENCH / (name + ".py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spec(op):
    """The spec of a `series` operation as the benchmark makes it."""
    up, lo = list(op["upper"]), list(op["lower"])
    k = op["order"]
    if k:
        side, idx = op["jet"]
        params = up if side == "upper" else lo
        params[idx] = params[idx] + jets.eps(k)
    return hypseries.PFQSpec(tuple(up), tuple(lo), order=k)


def _run(op):
    """A `series` operation as the benchmark makes it; raising is allowed."""
    spec = _spec(op)
    try:
        if op["call"] == "eval_at_one":
            hypseries.eval_at_one(spec)
        else:
            hypseries.eval_series(spec, complex(*op["z"]))
    except Exception:
        pass


def test_tracer_spans_attach_and_every_series_tag_takes_its_route():
    tracing, cases = _load("tracer"), _load("cases")
    ops = cases.series_ops(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        strays = []
        for op in ops:
            tracer.seen = set()
            _run(op)
            if not tracing.audit(op["tag"], tracer.seen):
                strays.append((op["tag"], op["order"], sorted(tracer.seen)))
            tracer.seen = None
    finally:
        tracer.uninstall()
    assert strays == []


# the route names that each `series` tag may take: an entire 1F1 at
# Re z < 0 goes by Kummer, a polynomial at 0 is the zero route, and the
# ring's `wynn` ops from |arg z| = 0.6 on go to Levin first
TAG_ROUTES = {
    "direct": {"direct"},
    "entire": {"direct", "kummer"},
    "terminating": {"terminating", "zero"},
    "near_one": {"near_one"},
    "pfaff": {"pfaff"},
    "boundary": {"levin"},
    "wynn": {"levin", "wynn"},
}


def test_every_series_tag_takes_its_named_route():
    # Levin's runner makes no call that the tracer wraps, so the audit
    # above cannot see it; the route chooser names it
    strays = []
    for op in _load("cases").series_ops(1):
        if op["call"] == "eval_series":
            spec = _spec(op)
            name = hypseries.route(spec, spec.argument(complex(*op["z"])))
            if name not in TAG_ROUTES[op["tag"]]:
                strays.append((op["id"], op["tag"], name))
    assert strays == []


def test_transforms_reexports_the_engines_own_route_transforms():
    # the tracer's transforms.* spans wrap these objects wherever they
    # are bound, so they must be the very ones the runners call
    for name in ("pfaff", "gauss_near_one", "Moved"):
        assert getattr(transforms, name) is getattr(hypseries, name), name
    # hypseries imports nothing from transforms, at import or call time
    imported = []
    for node in ast.walk(ast.parse(Path(hypseries.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.name for alias in node.names]
    assert "jets" in imported
    assert not [m for m in imported if m.split(".")[-1] == "transforms"]
