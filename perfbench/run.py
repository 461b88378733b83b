#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table4-eval --seed 1 --seconds 30 --trace 0

Workloads: ``table4-eval``, ``mapping-search``, ``graph-vcp`` (see
NOTES.md for why each exists and which layers it stresses), or ``all``
to run each in turn.  The run
sets the workload up from ``--seed``, times the items of its passes
until ``--seconds`` have elapsed, runs a fixed calibration job between
items to gauge the host's speed, checks every output outside the timed
regions, and prints as its last line one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run times untraced items for the
first half of ``--seconds`` and traced whole passes for the second, so it
also reports the tracing overhead.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from the script's first line

import argparse  # noqa: E402
import ast  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402

from tracing import Tracer, install, self_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("table4-eval", "mapping-search", "graph-vcp")
#: setup_s is the median of this many set-ups: this process's own plus
#: fresh child processes that set up and exit.
SETUP_SAMPLES = 3
#: Calibrations run before the first timed item and after each one,
#: one per this many seconds of the item (at least one).
SECONDS_PER_CALIBRATION = 0.5
#: Each calibration runs its job on this many threads at once: the
#: reference box's CPU count and the mapping search's pool width, so that
#: it gauges both CPUs, whichever the program runs on.
CAL_THREADS = 2
#: A fixed scale near the median calibration's host seconds on the
#: reference box (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6).
#: Normalized seconds are host seconds times CAL_REF_S / (the run's
#: median calibration).
CAL_REF_S = 0.06

_CAL_FN = """
def f{i}(items, limit):
    out = {{}}
    for n, item in enumerate(items):
        if n > limit and item % {m} == 0:
            out.setdefault(item, []).append(n * {i})
        elif isinstance(item, str):
            out[item] = [c for c in item if c.isalpha()]
    return sorted(out.items(), key=lambda kv: str(kv[0]))
"""
_CAL_SOURCE = "".join(_CAL_FN.format(i=i, m=i % 7 + 2) for i in range(40))
_CAL_DOC = [{f"k{i}": [i, str(i), {"x": i * 0.5, "y": [1, 2, 3]}]}
            for i in range(800)]
_cal_state = {}


def _calibration_job(ints) -> None:
    import numpy
    compile(ast.parse(_CAL_SOURCE), "<calibrate>", "exec")
    json.loads(json.dumps(_CAL_DOC))
    numpy.unique(numpy.sort(ints) // 7)
    numpy.argsort(ints, kind="stable")


def calibrate() -> float:
    """Host seconds of a fixed job that never calls the program, run on
    CAL_THREADS threads at once: parse and compile Python source, a JSON
    round trip, and numpy sorting.  On a shared host the program slows by
    up to 2x from minute to minute; this job, which like the program runs
    a wide spread of interpreter code and numpy kernels, slows with it (a
    tight loop over a few lines does not), so it gauges the host's speed
    at the time.  The collector is off while it runs, so that the
    program's heap does not bill it for collections.  See NOTES.md."""
    if not _cal_state:
        import numpy
        _cal_state["ints"] = numpy.random.default_rng(0).integers(
            0, 1 << 30, 60_000)
        _cal_state["pool"] = ThreadPoolExecutor(CAL_THREADS)
    ints, pool = _cal_state["ints"], _cal_state["pool"]
    gc.disable()
    try:
        t0 = time.perf_counter()
        list(pool.map(_calibration_job, [ints] * CAL_THREADS))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",),
                   help="'all' runs every workload in turn, each in its own "
                        "process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="reduced-size inputs (the smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print setup_s and exit (used for the "
                        "setup_s samples)")
    return p.parse_args(argv)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def timed_items(wl, seconds, tracer=None):
    """Run passes item by item until ``seconds`` have elapsed and every
    item ran at least once; traced, only whole passes.  Returns
    ``{key: [host seconds of each run of the item]}``, the calibrations'
    host seconds and, traced, one ``(spans, cache counts, pass seconds,
    counts)`` per pass."""
    keys = wl.item_keys()
    samples = defaultdict(list)
    traces = []
    cals = [calibrate()]
    start = time.perf_counter()
    for _ in itertools.count():
        pass_wall = 0.0
        for key in keys:
            gc.collect()
            if tracer is not None:
                tracer.active = True
            wall = wl.run_item(key)
            if tracer is not None:
                tracer.active = False
            samples[key].append(wall)
            cals.extend(calibrate() for _ in range(
                max(1, round(wall / SECONDS_PER_CALIBRATION))))
            pass_wall += wall
            done = time.perf_counter() - start >= seconds
            if done and tracer is None and len(samples) == len(keys):
                return samples, cals, traces
        if tracer is not None:
            traces.append((tracer.take(), tracer.take_cache_counts(),
                           pass_wall, wl.layer_counts()))
            if done:
                return samples, cals, traces


def pass_seconds(samples) -> float:
    """One pass's seconds: the sum over its items of each item's median
    (a run too short for a second pass still has many items)."""
    return sum(statistics.median(walls) for walls in samples.values())


def layer_metrics(spans, counts, cache_counts, wall, extra):
    """Per-layer metrics of one traced pass (see NOTES.md)."""
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    warm_s = warm_calls = warm_runs = 0
    for s in spans:
        if s.segment == "warm":
            if s.name == "search.run":
                warm_runs += 1
            elif s.name == "store.get" and names.get(s.parent) != "store.put":
                warm_s += s.end - s.start
                warm_calls += 1
            continue
        self_s[s.name] += selfs[s.sid]
        incl_s[s.name] += s.end - s.start
        calls[s.name] += 1
    hits, misses = cache_counts
    warm_runs = max(warm_runs, 1)
    m = {
        "fibertree.prepare_s": self_s["fibertree.prepare"],
        "fibertree.prepare_calls": calls["fibertree.prepare"],
        "fibertree.arena_s": self_s["fibertree.arena"],
        "fibertree.arena_calls": calls["fibertree.arena"],
        "fibertree.prune_s": self_s["fibertree.prune"],
        "model.evaluate_self_s": self_s["model.evaluate"],
        "model.evaluate_calls": calls["model.evaluate"],
        "model.price_s": self_s["model.price"],
        "model.analytical_s": self_s["model.analytical"],
        "model.analytical_calls": calls["model.analytical"],
        "model.interp_s": self_s["model.interp"],
        "model.interp_calls": calls["model.interp"],
        "model.readout_s": self_s["model.readout"],
        "graph.run_s": self_s["graph.run"],
        "graph.cascade_s": self_s["graph.cascade"],
        "graph.iterations": 0,
        "ir.lower_s": self_s["ir.lower"],
        "ir.lower_calls": calls["ir.lower"],
        "ir.codegen_s": self_s["ir.codegen"],
        "ir.compile_hits": hits,
        "ir.compile_misses": misses,
        "analysis.lint_s": self_s["analysis.lint"],
        "analysis.feasibility_s": self_s["analysis.feasibility"],
        "analysis.feasibility_calls": calls["analysis.feasibility"],
        "analysis.pruned": 0,
        "search.run_self_s": self_s["search.run"],
        "search.phase1_s": incl_s["search.phase1"],
        "search.phase2_s": incl_s["search.phase2"],
        "search.n_scored": 0,
        "search.n_repriced": 0,
        "search.repriced_share": 0.0,
        "search.n_failed": 0,
        "search.n_retried": 0,
        "search.warm_s": 0.0,
        "store.put_s": incl_s["store.put"],
        "store.put_calls": calls["store.put"],
        "store.bytes": 0,
        "store.get_s": warm_s / warm_runs,
        "store.get_calls": warm_calls / warm_runs,
        "store.hit_ratio": (counts.get("store.get_hits.warm", 0) / warm_calls
                            if warm_calls else 0.0),
        "trace.self_share": sum(self_s.values()) / wall,
    }
    m.update(extra)
    return m


def median_layers(traces):
    per_pass = [layer_metrics(spans, counts, cache, wall, extra)
                for (spans, counts), cache, wall, extra in traces]
    return {k: statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}


def setup_sample(args) -> float:
    """One set-up in a fresh process, from its first line to ready."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """HEAD's commit when the tree is a git checkout, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's sources: names the code under test
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None.  On a
    virtual machine, steal is time the host ran someone else while this
    guest wanted the CPU: the share of the timed passes it took is
    recorded so that a slow run can be told from a slow program."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, wl, ticks) -> dict:
    import numpy

    steal = None
    end = cpu_ticks()
    if ticks and end and end[1] > ticks[1]:
        steal = (end[0] - ticks[0]) / (end[1] - ticks[1])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "commit": git_commit(), "src_digest": source_digest(),
        "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "search_workers": wl.workers(), "cpu_steal_frac": steal,
    }


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                              else [])
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = Tracer()
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir, tracer)
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ticks = cpu_ticks()
        if args.trace:
            samples, cals, _ = timed_items(wl, args.seconds / 2)
            install(tracer)
            traced, traced_cals, traces = timed_items(wl, args.seconds / 2,
                                                      tracer)
            tracer.uninstall()
        else:
            samples, cals, _ = timed_items(wl, args.seconds)
        meta = run_metadata(args, wl, ticks)
        attempted, failed = wl.check()
        sim = wl.sim()
        setups = [setup_s] + [setup_sample(args)
                              for _ in range(SETUP_SAMPLES - 1)]
    finally:
        if _cal_state:
            _cal_state["pool"].shutdown()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = CAL_REF_S / statistics.median(cals)
    host = {"wall_s": pass_seconds(samples),
            "setup_s": statistics.median(setups),
            "calibration_s": statistics.median(cals)}
    e2e = {"norm_wall_s": host["wall_s"] * speed,
           "setup_s": host["setup_s"], "peak_rss_mb": peak_rss_mb}
    if args.trace:
        layers = median_layers(traces)
        layers["trace.overhead_s"] = (
            pass_seconds(traced) * CAL_REF_S / statistics.median(traced_cals)
            - e2e["norm_wall_s"])
        metrics, units = layers, layer_units
    else:
        metrics, units = e2e, e2e_units
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    items = sum(len(runs) for runs in samples.values())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" items={items} ({items / len(samples):.3g} passes)"
          " item_walls=" + " ".join(
              ",".join(f"{w:.3f}" for w in walls)
              for walls in samples.values()))
    for name, value in e2e.items():
        print(f"  {name:24s} {value:.6g} {e2e_units[name]}")
    for name, value in host.items():
        print(f"  host {name:19s} {value:.6g} s (not normalized)")
    print(f"  {'failed_frac':24s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    for name, (value, unit) in sim.items():
        print(f"  sim.{name:20s} {value!r} {unit}")
    if any(name.endswith("_err") for name in sim):
        print("  (sim.*_err: error against the paper's full-size numbers "
              "(repro.published), measured on the 1/40- and 1/400-scale "
              "stand-ins; the model is not validated at stand-in scale)")
    if args.trace:
        for name in sorted(layers):
            print(f"  {name:32s} {layers[name]:.6g} {layer_units[name]}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record = dict(result, meta=meta, host=host, setup_samples=setups,
                  item_walls={str(k): v for k, v in samples.items()},
                  calibrations=cals,
                  sim={k: {"value": v, "unit": u}
                       for k, (v, u) in sim.items()})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"record-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for (spans, _), *_ in traces:
                for s in spans:
                    fh.write(json.dumps(s._asdict()) + "\n")
    print("# record " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
