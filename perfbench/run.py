"""defectkit benchmark: four seeded workloads, one closed-loop client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload odmr-fit --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- odmr-fit        warm: ingest an ODMR table, fit_odmr, angular_sweep, write;
- g2-rates        warm: ingest a coincidence histogram, normalize,
                  background_correct, fit_g2, extract_rates, g2_analytic, write;
- psb-deconvolve  warm: ingest an emission spectrum and a DOS, the PSB
                  deconvolution chain and one resynthesis, write;
- cli-cold        one fresh ``python -m defectkit.cli <pipeline>`` per
                  operation, the eight pipelines in a fixed cycle.

The program is imported from ``src/`` of the checkout, in child processes
whose BLAS thread count is fixed to 1. Every operation's output is checked
after its timer stops. ``--trace 0`` prints the end-to-end metrics, their
times put on a fixed machine speed by the reference kernel of ``timing.py``;
``--trace 1`` runs each operation untraced and traced, alternating which
goes first, and prints the per-layer metrics with each layer's share of
operation time. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 after a complete run (whatever the checks found), 2 when the
checkout holds no defectkit sources, 1 when a child process failed.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import inputs
from timing import REF_NOMINAL_S, closed_loop, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("odmr-fit", "g2-rates", "psb-deconvolve", "cli-cold")
# g2-rates runs and is checked like the others, but BENCHMARK.json leaves it
# out: the program fails its checks on most of its operations (README.md,
# "Findings"), and a gated workload must have none that fail. Its layers
# are measured on cli-cold's g2-fit and rates-extract pipelines.
GATED_WORKLOADS = ("odmr-fit", "psb-deconvolve", "cli-cold")
G2_ONLY_LAYERS = ("g2_processing.", "photodynamics.")
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_SAMPLES = 3
SETUP_REF_SAMPLES = 3
FLOOR_SAMPLES = 3
# cli-cold's reference is a fresh ``python -c "import numpy"`` (see
# timing.py); this is its median on the machine REF_NOMINAL_S refers to
CLI_REF_NOMINAL_S = 0.200
# the warm-up case is the same for every seed, so set-up time measures the
# same work whatever inputs the timed operations get
WARMUP_SEED, WARMUP_INDEX = 0, 1
CHILD_TIMEOUT_S = 150

# the gated metrics, times at the reference speed of timing.py. ops_per_s
# and op_tail_s are printed beside them but not gated: a few slow operations
# (PSB fits that iterate 25-50 times, ODMR fits that run to their iteration
# limit) make them move by a quarter between seeds of psb-deconvolve
END_TO_END = (("op_p50_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (span name, stats) for every function the warm workloads call
LAYER_SPANS = (
    ("spin_hamiltonian.fit_odmr", ("total_s", "p50_s", "n_iter_mean", "refused")),
    ("spin_hamiltonian.angular_sweep", ("total_s", "eigensolves")),
    ("g2_processing.normalize", ("total_s",)),
    ("g2_processing.background_correct", ("total_s",)),
    ("g2_processing.fit_g2", ("total_s", "p50_s", "tail_s", "nfev_mean", "bins")),
    ("photodynamics.extract_rates", ("total_s", "refused")),
    ("photodynamics.g2_analytic", ("total_s",)),
    ("psb.bandshape_from_emission", ("total_s",)),
    ("psb.estimate_huang_rhys", ("total_s",)),
    ("psb.direct_fourier_deconvolve", ("total_s",)),
    ("psb.smooth_and_taper", ("total_s",)),
    ("psb.iterative_deconvolve", ("total_s", "n_iter_mean", "refused")),
    ("psb.critical_point_report", ("total_s",)),
    ("psb.synthesize_band", ("total_s", "n_max_mean")),
    ("datasets.ingest", ("calls", "total_s", "bytes")),
    ("datasets.write", ("calls", "total_s", "bytes")),
    ("bench.op", ("self_s",)),
)
CLI_STAGES = ("cli.interpreter_s", "cli.import_s", "cli.main_s")
CLI_FLOORS = ("cli.python_pass.wall_s", "cli.import_numpy.wall_s")
_UNITS = {"total_s": "s", "p50_s": "s", "tail_s": "s", "self_s": "s", "bytes": "B"}


def per_layer_names():
    """Every per-layer metric as (name, unit), in print order."""
    names = [(f"{fn}.{stat}", _UNITS.get(stat, "count"))
             for fn, stats in LAYER_SPANS for stat in stats]
    names += [(n, "s") for n in CLI_STAGES]
    names += [(f"cli.{p}.wall_s", "s") for p in inputs.CLI_PIPELINES]
    names += [(n, "s") for n in CLI_FLOORS]
    names.append(("trace.overhead.ratio", "ratio"))
    return names


def gated_layer_names():
    """The per-layer metrics of BENCHMARK.json: all but those of layers that
    only g2-rates calls."""
    return [(n, u) for n, u in per_layer_names() if not n.startswith(G2_ONLY_LAYERS)]


class ChildError(RuntimeError):
    pass


# ------------------------------------------------------------ helpers ----

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; returns (wall seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - t0, proc


def tail_stat(values):
    """(value, percentile) at the highest percentile with at least 10 samples
    beyond it; with 10 samples or fewer this is the minimum."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def median(values, default=0.0):
    return statistics.median(values) if values else default


def mean(values, default=0.0):
    return sum(values) / len(values) if values else default


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        facts["cpu"] = platform.processor() or "unknown"
    for level, index in (("l2", 2), ("l3", 3)):
        try:
            path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
            facts[level] = path.read_text().strip()
        except OSError:
            facts[level] = "unknown"
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = "missing"
    facts["blas_threads"] = ",".join(f"{k}={v}" for k, v in sorted(BLAS_ENV.items()))
    facts["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            facts["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or facts["commit"]
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "defectkit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()[:16]
    facts["cpu_pinning"] = "none; machine settings untouched"
    return facts


# ------------------------------------------------------ warm workloads ----

def warm_workload(args, work):
    gen = {"odmr-fit": inputs.odmr_case, "g2-rates": inputs.g2_case,
           "psb-deconvolve": inputs.psb_case}[args.workload]
    warm = work / "warmup"
    case, truth = gen(WARMUP_SEED, WARMUP_INDEX, warm)
    (warm / "truth.json").write_text(json.dumps(truth, default=float))

    def worker(mode, name):
        result = work / f"{name}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", str(SRC), "--warmup", str(warm), "--work", str(work / name),
               "--result", str(result), "--spans", str(work / "spans.jsonl")]
        (work / name).mkdir()
        cmd += ["--spawned", repr(time.monotonic())]
        _, proc = run_child(cmd)
        if proc.returncode != 0:
            raise ChildError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(result.read_text())

    probes = [worker("setup", f"setup{k}") for k in range(SETUP_SAMPLES - 1)]
    main = worker("run", "main")
    main["ref_nominal"] = REF_NOMINAL_S
    setups = [(p["setup_s"], p["setup_ref"]) for p in probes + [main]]
    warmup_problems = [p for r in probes + [main] for p in r["warmup_problems"]]
    return main, setups, warmup_problems


# ------------------------------------------------------------ cli-cold ----

def cli_workload(args, work):
    def python_c(code):
        wall, proc = run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise ChildError(f"python -c {code!r} failed:\n{proc.stderr[-2000:]}")
        return wall

    def import_numpy():
        return python_c("import numpy")

    python_pass = [python_c("pass") for _ in range(FLOOR_SAMPLES)]
    setups = [(python_c("import defectkit.cli"),
               [import_numpy() for _ in range(SETUP_REF_SAMPLES)])
              for _ in range(SETUP_SAMPLES)]

    def prepare(i):
        return inputs.cli_case(args.seed, i, work / f"op{i}", root=ROOT)

    def run_op(i, case, traced):
        pipeline, config, expect = case
        opdir = work / f"op{i}"
        out = opdir / ("out-traced" if traced else "out")
        argv = [pipeline, "--config", config, "--out", str(out)]
        stage_file = opdir / "stages.json"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(stage_file)] + argv
        else:
            cmd = [sys.executable, "-m", "defectkit.cli"] + argv
        spawned = time.monotonic()
        wall, proc = run_child(cmd)
        rec = {"i": i, "pipeline": pipeline, "dt": wall, "rc": proc.returncode,
               "refused": "exit 1" if proc.returncode == 1 else None, "problems": []}
        if proc.returncode != 1:
            rec["problems"] = checks.check_cli(pipeline, proc.returncode, out, expect)
            if rec["problems"] and proc.stderr:
                rec["problems"].append(proc.stderr.strip().splitlines()[-1])
        if traced and stage_file.exists():
            stages = json.loads(stage_file.read_text())
            rec.update(interpreter_s=stages["first_line"] - spawned,
                       import_s=stages["import_s"], main_s=stages["main_s"])
        return rec

    def cleanup(i):
        shutil.rmtree(work / f"op{i}", ignore_errors=True)

    # a traced run covers at least one whole cycle, so that every pipeline
    # gets a traced run
    records, untraced = closed_loop(
        args.seconds, prepare, run_op, cleanup, paired=bool(args.trace),
        min_ops=len(inputs.CLI_PIPELINES) if args.trace else 0, reference=import_numpy)
    refs = [r["ref_dt"] for r in records + untraced] + [t for _, ts in setups for t in ts]
    main = {"records": records, "untraced": untraced, "ref_nominal": CLI_REF_NOMINAL_S,
            "floors": {CLI_FLOORS[0]: (median(python_pass), FLOOR_SAMPLES),
                       CLI_FLOORS[1]: (median(refs), len(refs))},
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    return main, setups, []


# ------------------------------------------------------------- report ----

def end_to_end(records, setups, maxrss_kb, nominal):
    """The gated metrics, with times at the reference speed, and beside them
    the tail latency and the wall-clock figures they were scaled from.
    ``setups`` holds (wall seconds, reference times measured just after);
    ``nominal`` is the reference's time at the reference speed."""
    dts = [r["dt"] for r in records]
    refs = [r["ref_dt"] for r in records]
    scale = speed_scale(refs, nominal)
    tail, pct = tail_stat(dts)
    n, k = len(dts), len(setups)
    setup_wall = [wall for wall, _ in setups]
    values = {"op_p50_s": (scale * median(dts), n),
              "setup_s": (median([wall * speed_scale(r, nominal) for wall, r in setups]), k),
              "peak_rss_mb": (maxrss_kb / 1024.0, 1)}
    gated = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
    beside = {"ops_per_s": (n / (scale * sum(dts)), "1/s", n),
              "op_tail_s": (scale * tail, "s", n),
              "wall_ops_per_s": (n / sum(dts), "1/s", n),
              "wall_op_p50_s": (median(dts), "s", n),
              "wall_op_tail_s": (tail, "s", n),
              "wall_setup_s": (median(setup_wall), "s", k),
              "ref_ms": (1e3 * median(refs), "ms", len(refs))}
    return gated, beside, pct


def quality(workload, records):
    """Workload-specific figures printed beside the end-to-end metrics."""
    n = len(records)
    failed = sum(1 for r in records if r["problems"])
    refused = sum(1 for r in records if r["refused"] and not r["problems"])
    out = {"fail_fraction": (failed / n, "1", n),
           "refused_fraction": (refused / n, "1", n)}
    if workload != "cli-cold":
        out["warnings_per_op"] = (mean([r["warnings"] for r in records]), "count", n)

    def col(key):
        return [r[key] for r in records if key in r]

    if workload == "odmr-fit":
        v = col("err_mhz")
        out["odmr_err_mhz_p50"] = (median(v, float("nan")), "MHz", len(v))
    elif workload == "g2-rates":
        v = col("chi2_red")
        out["g2_chi2_red_p50"] = (median(v, float("nan")), "1", len(v))
        dev = col("model_dev")
        out["g2_model_dev_p50"] = (median(dev, float("nan")), "1", len(dev))
    elif workload == "psb-deconvolve":
        v = col("l2")
        out["psb_l2_p50"] = (median(v, float("nan")), "1", len(v))
        v = col("s_rel_err")
        out["psb_s_rel_err_p50"] = (median(v, float("nan")), "1", len(v))
    return out


def per_layer(workload, main):
    """Per-layer metrics of the traced pass; zero for layers the workload
    does not call. Returns {name: (value, unit, samples)} and the total
    operation time the shares refer to."""
    records = main["records"]
    units = dict(per_layer_names())
    values = {name: (0.0, unit, 0) for name, unit in units.items()}
    op_total = sum(r["dt"] for r in records)

    def put(name, value, samples):
        values[name] = (value, units[name], samples)

    def col(key):
        return [r[key] for r in records if key in r]

    spans = main.get("spans", {})
    for fn, stats in LAYER_SPANS:
        row = spans.get(fn)
        if row is None:
            continue
        durs = row["durations"]
        n = row["calls"]
        stat_values = {
            "total_s": row["total_s"], "self_s": row["self_s"], "calls": n,
            "p50_s": median(durs), "tail_s": tail_stat(durs)[0],
            "refused": sum(row["errors"].values()),
        }
        for stat in stats:
            if stat in stat_values:
                put(f"{fn}.{stat}", stat_values[stat], n)
    counts = {
        "odmr-fit": {"spin_hamiltonian.fit_odmr.n_iter_mean": ("n_iter", mean),
                     "spin_hamiltonian.angular_sweep.eigensolves": ("eigensolves", sum)},
        "g2-rates": {"g2_processing.fit_g2.nfev_mean": ("nfev", mean),
                     "g2_processing.fit_g2.bins": ("bins", sum)},
        "psb-deconvolve": {"psb.iterative_deconvolve.n_iter_mean": ("n_iter", mean),
                           "psb.synthesize_band.n_max_mean": ("n_max", mean)},
    }.get(workload, {})
    for name, (key, agg) in counts.items():
        put(name, agg(col(key)), len(col(key)))
    if workload != "cli-cold":
        put("datasets.ingest.bytes", sum(col("ingest_bytes")), len(records))
        put("datasets.write.bytes", sum(col("write_bytes")), len(records))
    else:
        for key in CLI_STAGES:
            v = col(key.split(".", 1)[1])
            put(key, median(v), len(v))
        for p in inputs.CLI_PIPELINES:
            v = [r["dt"] for r in records if r["pipeline"] == p]
            put(f"cli.{p}.wall_s", median(v), len(v))
        for name, (wall, samples) in main["floors"].items():
            put(name, wall, samples)
    untraced = main["untraced"]
    ratio = (len(records) / op_total) / (len(untraced) / sum(r["dt"] for r in untraced))
    put("trace.overhead.ratio", ratio, len(records))
    return values, op_total


def print_table(title, rows, op_total=None):
    """One line per metric: name, value, unit and sample count; with
    op_total, time totals also show their share of operation time. Layers
    the workload never called (zero samples) are counted, not listed."""
    print(title)
    idle = 0
    for name, (value, unit, n) in rows.items():
        if op_total is not None and n == 0:
            idle += 1
            continue
        line = f"  {name:48s} {value:14.6g} {unit:6s} n={n}"
        if op_total and name.endswith(("total_s", "self_s")):
            line += f"  share={value / op_total:6.1%}"
        print(line)
    if idle:
        print(f"  ({idle} metrics of layers this workload does not call read 0)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "defectkit" / "__init__.py",
                           ROOT / "tests" / "fixtures" / "rates_extract" / "config.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    facts = machine_facts()
    for key, value in facts.items():
        print(f"fact {key}: {value}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; one closed-loop client")

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        runner = cli_workload if args.workload == "cli-cold" else warm_workload
        main_result, setups, warmup_problems = runner(args, work)
        if args.trace:
            spans = work / "spans.jsonl"
            if spans.exists():
                keep = ROOT / ".perfbench_out"
                keep.mkdir(exist_ok=True)
                shutil.copy(spans, keep / f"spans-{args.workload}-{args.seed}.jsonl")
    except (ChildError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass

    untimed = main_result["untraced"] if args.trace else main_result["records"]
    e2e, beside, pct = end_to_end(untimed, setups, main_result["maxrss_kb"],
                                  main_result["ref_nominal"])
    qual = quality(args.workload, untimed)
    print_table(f"end-to-end ({'untraced pass' if args.trace else 'untraced'}; times at "
                f"the reference speed unless wall_; op_tail_s is p{pct:.0f}):",
                {**e2e, **beside, **qual})

    slowest = sorted(untimed, key=lambda r: r["dt"])[-3:][::-1]
    print("slowest operations: " + ", ".join(f"#{r['i']} {r['dt']:.3f} s" for r in slowest))
    records = untimed + (main_result["records"] if args.trace else [])
    failures = [r for r in records if r["problems"]]
    for r in failures[:10]:
        print(f"FAILED op {r['i']}: {'; '.join(r['problems'])}")
    for p in warmup_problems:
        print(f"FAILED warm-up op: {p}")

    if args.trace:
        layers, op_total = per_layer(args.workload, main_result)
        print_table(f"per-layer (traced pass, share of {op_total:.3f} s operation time):",
                    layers, op_total=op_total)
        metrics = {k: {"value": layers[k][0], "unit": u} for k, u in gated_layer_names()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    print(json.dumps({"correct": not failures and not warmup_problems,
                      "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
