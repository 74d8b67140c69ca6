"""hypint benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload {series,integrals,paper_suite} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; hypint is imported from ./src.  The last
line of stdout is the result object (`correct`, `attempted`, `failed`,
`metrics`); the line before it is the full report (environment, seed,
input hash, sample counts, failures by class, unscaled times).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
See bench/README.md for what each number means.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one client, one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("series", "integrals", "paper_suite")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# The verify groups that take ~95% of a suite pass at the seed; warm-up
# runs the others once, which reaches every module's first-call paths.
HEAVY_GROUPS = (5, 7, 13, 14)
PAPER_GROUPS = tuple(range(1, 15))
# Whole passes at least: a set's tail percentile is fixed from
# size * MIN_PASSES so it never changes with the program's speed.  For
# paper_suite 4 passes put it at p82.14, the middle of group 7's samples
# (group 14 below it and group 5 above it are other groups' blocks).
MIN_PASSES = {"series": 1, "integrals": 1, "paper_suite": 4}
TAIL_BEYOND = 10

# Speed calibration.  This host's CPU speed swings between two states
# about 1.8x apart, in phases from a fraction of a second to tens of
# seconds (measured: a fixed pure-Python loop at 0.14 ms and at 0.27 ms
# within one second), which no amount of repetition inside one run
# averages out.  While operations run, a SIGALRM timer samples that loop
# every CAL_EVERY_S, in the main thread, between bytecodes, so it also
# samples inside a 2-second verify group.  Each operation's wall time,
# net of the sampling inside it, is multiplied by CAL_REF_S over the
# samples within CAL_WINDOW_S of it (see Meter.factor).  Times below are
# thus seconds at the reference speed, where the loop takes CAL_REF_S;
# the report line also carries the unscaled figures.
CAL_STEPS = 500
CAL_REF_S = 0.15625e-3
CAL_EVERY_S = 0.025
CAL_WINDOW_S = 0.05
CAL_MEAN_MIN = 8

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "suite_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
IMPORT_MODULES = ("hypint", "hypint.jets", "hypint.numkernel", "hypint.hypseries",
                  "hypint.hyperize", "hypint.transforms", "hypint.integrate",
                  "hypint.multivar", "hypint.oracle", "hypint.verification",
                  "hypint.cli")
ORDERS = (0, 1, 2, 4)


def per_layer_units():
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    out = {}
    for name in tracing.span_names():
        out[name + ".calls"] = "count"
        out[name + ".self_ms"] = "ms"
        if name.startswith("oracle."):
            out[name + ".evals"] = "count"
    for tag in cases.TAGS:
        out["hypseries.route_%s.ops" % tag] = "count"
        out["hypseries.route_%s.p50_ms" % tag] = "ms"
    for k in ORDERS:
        out["hypseries.order_%d.p50_ms" % k] = "ms"
    for g in PAPER_GROUPS:
        out["verification.group_%d.ms" % g] = "ms"
    for mod in IMPORT_MODULES:
        out["import.%s.self_ms" % mod] = "ms"
    out["import.scipy.integrate.cum_ms"] = "ms"
    out["trace.untraced_ops_per_s"] = "1/s"
    out["trace.traced_ops_per_s"] = "1/s"
    out["trace.untraced_suite_s"] = "s"
    out["trace.traced_suite_s"] = "s"
    out["trace.overhead_pct"] = "%"
    out["audit.tag_mismatches"] = "count"
    return out


# ---------------------------------------------------------------------------
# timing


def _calibration_loop():
    z = 0j
    for k in range(CAL_STEPS):
        z = z * 0.5 + complex(k, 1.0) / (k + 1.0)
    return z


class Meter:
    """Times operations and scales them to the reference speed.

    Use as a context manager: the sampling timer runs while it is open.
    """

    def __init__(self):
        self.sample_at = []  # start time of each calibration sample
        self.sample_s = []  # its duration
        self.ops = []  # (start, end, wall time net of sampling)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def sample(self, *_):
        t = time.perf_counter()
        _calibration_loop()
        self.sample_s.append(time.perf_counter() - t)
        self.sample_at.append(t)

    def run(self, fn, *args):
        """Call fn(*args) and record its time; returns fn's result."""
        first = len(self.sample_s)
        t = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        inside = sum(d for at, d in zip(self.sample_at[first:], self.sample_s[first:])
                     if at >= t)
        self.ops.append((t, end, end - t - inside))
        return out

    @property
    def raw(self):
        return [op[2] for op in self.ops]

    def factor(self, start, end):
        """Reference-speed factor for an operation: the mean over the
        samples it spans (the machine may switch state inside it), or
        for a short one the median of the few samples around it."""
        lo = bisect.bisect_left(self.sample_at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.sample_at, end + CAL_WINDOW_S)
        near = [CAL_REF_S / d for d in self.sample_s[lo:hi]]
        if len(near) >= CAL_MEAN_MIN:
            return statistics.fmean(near)
        return statistics.median(near)

    def scaled(self):
        """Recorded times at the reference speed."""
        return [dt * self.factor(t, end) for t, end, dt in self.ops]


def _percentile(sorted_vals, p):
    """Linear interpolation between order statistics (numpy's default).

    For the tail this averages two neighbouring samples, which steadies
    it where they come from a few repeats of one long operation.
    """
    h = (len(sorted_vals) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def _tail_percentile(set_size, workload):
    return 100.0 * (1.0 - TAIL_BEYOND / (set_size * MIN_PASSES[workload]))


# ---------------------------------------------------------------------------
# workloads: `execute(i)` runs op i and returns (output, error text);
# `check(i, out)` returns (checks attempted, checks failed, detail);
# `flag(i)` names op i's known-defect class, or None


def _first_per_cell(wl, cell):
    """Warm-up ops: the first unflagged op of each input cell."""
    seen, ids = set(), []
    for i, op in enumerate(wl.ops):
        if cell(op) not in seen and wl.flag(i) is None:
            seen.add(cell(op))
            ids.append(i)
    return ids


class SeriesWorkload:
    name = "series"

    def __init__(self, seed):
        self.ops = cases.series_ops(seed)
        self.refs = [cases.series_reference(op) for op in self.ops]
        self.input_hash = cases.input_hash(self.ops)

    def bind(self, hypint):
        self.hypint = hypint

    def _call(self, op):
        hs = self.hypint.hypseries
        up = list(op["upper"])
        lo = list(op["lower"])
        k = op["order"]
        if k:
            side, idx = op["jet"]
            params = up if side == "upper" else lo
            params[idx] = params[idx] + self.hypint.jets.eps(k)
        spec = hs.PFQSpec(tuple(up), tuple(lo), order=k)
        if op["call"] == "eval_at_one":
            return hs.eval_at_one(spec)
        return hs.eval_series(spec, complex(*op["z"]))

    def execute(self, i):
        try:
            return self._call(self.ops[i]).coeffs, None
        except Exception as ex:  # a raised op is a failed op, counted below
            return None, "%s: %s" % (type(ex).__name__, ex)

    def check(self, i, out):
        coeffs, exc = out
        if exc is not None:
            return 1, 1, exc
        ref = self.refs[i]
        err = cases.series_error(coeffs, ref)
        return 1, int(not err <= ref["tol"]), "err %.2e > tol %.0e" % (err, ref["tol"])

    def flag(self, i):
        return self.refs[i]["flag"]

    def warmup_ids(self):
        return _first_per_cell(self, lambda op: (op["tag"], op["order"]))


class IntegralsWorkload:
    name = "integrals"

    def __init__(self, seed):
        self.ops = cases.integral_ops(seed)
        self.input_hash = cases.input_hash(self.ops)

    def bind(self, hypint):
        self.hypint = hypint

    def execute(self, i):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.hypint.cli.main(self.ops[i]["argv"])
        except Exception as ex:
            return None, "%s: %s" % (type(ex).__name__, ex)
        if rc != 0:
            return None, "exit %d: %s" % (rc, err.getvalue().strip())
        return out.getvalue(), None

    def check(self, i, out):
        text, exc = out
        if exc is not None:
            return 1, 1, exc
        try:
            payload = json.loads(text)
            value = complex(payload["value"]["re"], payload["value"]["im"])
        except (ValueError, KeyError, TypeError) as ex:
            return 1, 1, "unreadable output: %s" % ex
        if payload.get("oracle") is None:
            return 1, 1, "no oracle field"
        err = cases.integral_error(value, self.ops[i]["ref"])
        tol = cases.INTEGRAL_TOL
        return 1, int(not err <= tol), "err %.2e > tol %.0e" % (err, tol)

    def flag(self, i):
        return self.ops[i]["defect"]

    def warmup_ids(self):
        return _first_per_cell(self, lambda op: (op["to"], op["family"]))


class PaperSuiteWorkload:
    """run_suite("all") timed per group: an op is one group_rows(n) call."""

    name = "paper_suite"
    input_hash = "seed not applicable"

    def __init__(self, seed):
        self.ops = [{"group": g} for g in PAPER_GROUPS]

    def bind(self, hypint):
        self.hypint = hypint
        # group_rows(n) for n in SUITES["all"] is exactly run_suite("all")
        if tuple(hypint.verification.SUITES["all"]) != PAPER_GROUPS:
            raise RuntimeError("verify suite 'all' is no longer groups 1-14")

    def execute(self, i):
        try:
            return self.hypint.verification.group_rows(self.ops[i]["group"]), None
        except Exception as ex:
            return None, "%s: %s" % (type(ex).__name__, ex)

    def check(self, i, out):
        rows, exc = out
        if exc is not None:
            return 1, 1, exc
        bad = [r.name for r in rows if not r.passed]
        return len(rows), len(bad), "rows failed: %s" % ", ".join(bad)

    def flag(self, i):
        return None

    def warmup_ids(self):
        return [i for i, op in enumerate(self.ops) if op["group"] not in HEAVY_GROUPS]


WORKLOAD_CLASSES = {
    "series": SeriesWorkload,
    "integrals": IntegralsWorkload,
    "paper_suite": PaperSuiteWorkload,
}


class Phase:
    """Whole passes over a workload's set until `seconds` have elapsed."""

    def __init__(self, wl, seconds, min_passes, tracer=None):
        self.wl = wl
        self.ids = []
        self.passes = 0
        self.outcomes = []  # (op index, checks attempted, checks failed, detail)
        self.mismatches = []
        t0 = time.perf_counter()
        n = len(wl.ops)
        with Meter() as self.meter:
            while self.passes < min_passes or time.perf_counter() - t0 < seconds:
                for i in range(n):
                    if tracer is not None:
                        tracer.seen = set()
                    out = self.meter.run(wl.execute, i)
                    if tracer is not None:
                        self._audit(i, tracer.seen)
                        tracer.seen = None
                    self.ids.append(i)
                    self.outcomes.append((i,) + wl.check(i, out))
                self.passes += 1
        self.scaled = self.meter.scaled()

    def _audit(self, i, seen):
        op = self.wl.ops[i]
        if "tag" not in op:
            return
        if not tracing.audit(op["tag"], seen):
            self.mismatches.append({"id": op["id"], "tag": op["tag"],
                                    "calls": sorted(c for c in tracing.ROUTE_CALLS
                                                    if c in seen)})

    def pass_times(self):
        n = len(self.wl.ops)
        return [sum(self.scaled[p * n:(p + 1) * n]) for p in range(self.passes)]

    def suite_s(self):
        return statistics.median(self.pass_times())

    def ops_per_s(self):
        return len(self.scaled) / sum(self.scaled)


# ---------------------------------------------------------------------------
# set-up and environment


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hypint; "
    "d = time.perf_counter() - t; print(d, hypint.__file__)"
)


def measure_setup():
    """Median time of `import hypint` in fresh interpreters, scaled to the
    reference speed by calibrations taken around each child."""
    times = []
    meter = Meter()
    for _ in range(SETUP_RUNS):
        meter.sample()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=str(ROOT),
                              env=_child_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("import hypint failed: %s" % proc.stderr.strip())
        secs, where = proc.stdout.strip().split(maxsplit=1)
        _require_src(where)
        meter.sample()
        times.append(float(secs) * CAL_REF_S / (0.5 * sum(meter.sample_s[-2:])))
    return statistics.median(times), times


def measure_importtime():
    """Per-module import self time (ms) from `python -X importtime`."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypint.cli"],
                              cwd=str(ROOT), env=_child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("importtime probe failed: %s" % proc.stderr.strip())
        self_us, cum_us = {}, {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                s_us, c_us = int(parts[0]), int(parts[1])
            except ValueError:
                continue  # header line
            mod = parts[2].strip()
            self_us[mod] = s_us
            cum_us[mod] = c_us
        runs.append((self_us, cum_us))
    out = {}
    for mod in IMPORT_MODULES:
        out["import.%s.self_ms" % mod] = statistics.median(
            r[0].get(mod, 0) / 1000.0 for r in runs)
    out["import.scipy.integrate.cum_ms"] = statistics.median(
        r[1].get("scipy.integrate", 0) / 1000.0 for r in runs)
    return out


def _require_src(path):
    try:
        Path(path).resolve().relative_to(SRC.resolve())
    except ValueError:
        raise RuntimeError("hypint was loaded from %s, not from %s" % (path, SRC))


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# reporting


def summarize_outcomes(wl, phases):
    attempted = failed = 0
    by_flag = {}
    unflagged = []
    for ph in phases:
        for i, n_att, n_fail, detail in ph.outcomes:
            attempted += n_att
            failed += n_fail
            if not n_fail:
                continue
            flag = wl.flag(i)
            by_flag[flag or "unflagged"] = by_flag.get(flag or "unflagged", 0) + n_fail
            if flag is None and len(unflagged) < 20:
                unflagged.append({"op": i, "detail": detail[:300]})
    return attempted, failed, by_flag, unflagged


def end_to_end(wl, phase, setup_s):
    lat = sorted(s * 1e3 for s in phase.scaled)
    p_tail = _tail_percentile(len(wl.ops), wl.name)
    per_op = {}
    for i, s in zip(phase.ids, phase.scaled):
        per_op.setdefault(i, []).append(s * 1e3)
    attempted, failed, _, _ = summarize_outcomes(wl, [phase])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s(),
        # each op's median over passes, then the median over ops: the
        # verify groups' latencies have a gap right at the median
        "latency_p50_ms": statistics.median(statistics.median(v) for v in per_op.values()),
        "latency_tail_ms": _percentile(lat, p_tail),
        "suite_s": phase.suite_s(),
        "pass_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": SETUP_RUNS,
        "ops_per_s": len(lat),
        "latency_p50_ms": len(lat),
        "latency_tail_ms": len(lat),
        "suite_s": phase.passes,
        "pass_ratio": attempted,
        "peak_rss_mb": 1,
    }
    raw = sorted(r * 1e3 for r in phase.meter.raw)
    unscaled = {
        "ops_per_s": len(raw) / (sum(raw) / 1e3),
        "latency_p50_ms": statistics.median(raw),
        "latency_tail_ms": _percentile(raw, p_tail),
    }
    return values, samples, {"tail_percentile": p_tail, "unscaled": unscaled}


def per_layer(wl, base, traced, tr, imports):
    out = dict.fromkeys(per_layer_units(), 0.0)
    # one factor for the traced phase: spans are not calibrated one by one
    factor = statistics.fmean(CAL_REF_S / d for d in traced.meter.sample_s)
    for name in tracing.span_names():
        out[name + ".calls"] = tr.calls.get(name, 0) / traced.passes
        out[name + ".self_ms"] = tr.self_s.get(name, 0.0) * factor * 1e3 / traced.passes
        if name in tr.evals:
            out[name + ".evals"] = tr.evals[name] / traced.passes
    # route and order latencies come from the untraced phase
    if isinstance(wl, SeriesWorkload):
        groups = {}
        for i, s in zip(base.ids, base.scaled):
            op = wl.ops[i]
            groups.setdefault(("route", op["tag"]), []).append(s * 1e3)
            groups.setdefault(("order", op["order"]), []).append(s * 1e3)
        for tag in cases.TAGS:
            out["hypseries.route_%s.ops" % tag] = sum(op["tag"] == tag for op in wl.ops)
            out["hypseries.route_%s.p50_ms" % tag] = statistics.median(groups[("route", tag)])
        for k in ORDERS:
            out["hypseries.order_%d.p50_ms" % k] = statistics.median(groups[("order", k)])
    if isinstance(wl, PaperSuiteWorkload):
        n = len(wl.ops)
        for j, op in enumerate(wl.ops):
            per_pass = [base.scaled[p * n + j] * 1e3 for p in range(base.passes)]
            out["verification.group_%d.ms" % op["group"]] = statistics.median(per_pass)
    out.update(imports)
    out["trace.untraced_ops_per_s"] = base.ops_per_s()
    out["trace.traced_ops_per_s"] = traced.ops_per_s()
    out["trace.untraced_suite_s"] = base.suite_s()
    out["trace.traced_suite_s"] = traced.suite_s()
    out["trace.overhead_pct"] = 100.0 * (traced.suite_s() / base.suite_s() - 1.0)
    out["audit.tag_mismatches"] = len(traced.mismatches)
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hypint" / "__init__.py").is_file():
        sys.stderr.write("no hypint sources under %s; run from a repository checkout\n" % SRC)
        return 2

    # Inputs and references first, with hypint not yet loaded.
    wl = WORKLOAD_CLASSES[args.workload](args.seed)
    refs_independent = not any(m == "hypint" or m.startswith("hypint.") for m in sys.modules)

    setup_s, setup_runs = measure_setup()
    sys.path.insert(0, str(SRC))
    import hypint
    import hypint.cli  # noqa: F401  (the CLI module the integrals workload drives)

    _require_src(hypint.__file__)
    wl.bind(hypint)

    for i in wl.warmup_ids():
        wl.execute(i)

    min_passes = MIN_PASSES[wl.name]
    report = {
        "workload": wl.name,
        "seed": args.seed if wl.name != "paper_suite" else "not applicable",
        "input_hash": wl.input_hash,
        "set_size": len(wl.ops),
        "trace": args.trace,
        "env": environment(),
        "closed_loop": "1 client, 1 process, no extra threads",
        "setup_runs_s": setup_runs,
        "references_computed_before_hypint_import": refs_independent,
        "calibration": {"ref_ms": CAL_REF_S * 1e3},
    }
    if args.trace == 0:
        phase = Phase(wl, args.seconds, min_passes)
        phases = [phase]
        values, samples, extra = end_to_end(wl, phase, setup_s)
        units = END_TO_END
        report.update(extra)
        report["samples"] = samples
        mismatches = []
    else:
        base = Phase(wl, args.seconds / 2.0, 1)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = Phase(wl, args.seconds / 2.0, 1, tracer=tr)
        finally:
            tr.uninstall()
        phases = [base, traced]
        imports = measure_importtime()
        values = per_layer(wl, base, traced, tr, imports)
        units = per_layer_units()
        mismatches = traced.mismatches
        report["passes"] = {"untraced": base.passes, "traced": traced.passes}
        report["spans_missing"] = tr.missing
        report["audit_mismatches"] = mismatches[:20]
    attempted, failed, by_flag, unflagged = summarize_outcomes(wl, phases)
    report["calibration"]["median_ms"] = 1e3 * statistics.median(
        c for ph in phases for c in ph.meter.sample_s)
    report["failures"] = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "by_class": by_flag,
        "unflagged": unflagged,
        "tolerances": cases.SERIES_TOL if wl.name == "series" else
        ({"rel": cases.INTEGRAL_TOL} if wl.name == "integrals" else "per CheckRow"),
    }
    correct = refs_independent and not unflagged and not mismatches
    report["units"] = units
    print(json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
