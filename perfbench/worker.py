"""Warm-workload process: one closed loop with one client.

Started by run.py as a fresh interpreter. It imports defectkit from the
checkout's src/, runs one untimed warm-up operation on pre-generated inputs
and records the moment it is ready (the end of set-up). In "setup" mode it
stops there; in "run" mode it then times operations until the measured time
reaches --seconds. Inputs of each timed operation are generated, and its
outputs checked, outside the timed region.

With --trace 1 every operation runs twice on the same inputs, untraced and
traced, in alternating order; the tracing overhead is the ratio of the two
throughputs on identical work. The reference kernel of ``timing`` runs after
set-up and after every operation, to put the times on a fixed speed.
"""
import argparse
import json
import os
import resource
import shutil
import sys
import time
import warnings

SETUP_REF_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--src", required=True)
    ap.add_argument("--warmup", required=True, help="directory of the warm-up case")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    warnings.simplefilter("ignore")  # counted per operation below instead

    # ---- set-up: program import plus one untimed warm-up operation ----
    import ops
    from defectkit.errors import DefectKitError
    from spans import NullTracer
    from timing import closed_loop, reference_time

    op = ops.OPS[args.workload]
    with open(f"{args.warmup}/case.json") as fh:
        warm_case = json.load(fh)
    try:
        warm_out = op(warm_case, NullTracer(), args.warmup)
    except DefectKitError:  # a refused warm-up still warms up
        warm_out = None
    setup_s = time.monotonic() - args.spawned
    # the machine's speed at set-up, from the reference kernel run just after
    setup_ref = [reference_time() for _ in range(SETUP_REF_SAMPLES)]

    import checks
    import inputs
    from defectkit.photodynamics import g2_numeric

    with open(f"{args.warmup}/truth.json") as fh:
        warm_truth = json.load(fh)
    check = {"odmr-fit": checks.check_odmr, "psb-deconvolve": checks.check_psb,
             "g2-rates": lambda o, t, c: checks.check_g2(o, t, c, g2_numeric)}[args.workload]
    result = {"setup_s": setup_s, "setup_ref": setup_ref, "warmup_problems":
              check(warm_out, warm_truth, warm_case) if warm_out else []}
    if args.mode == "setup":
        _finish(result, args.result)
        return 0

    gen = {"odmr-fit": inputs.odmr_case, "g2-rates": inputs.g2_case,
           "psb-deconvolve": inputs.psb_case}[args.workload]
    tracer = NullTracer()
    if args.trace:
        from spans import Tracer, summarize

        tracer = Tracer()

    def prepare(i):
        return gen(args.seed, i, f"{args.work}/op{i}")

    def run_op(i, inputs_, traced):
        case, truth = inputs_
        t = tracer if traced else NullTracer()
        opdir = f"{args.work}/op{i}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t.begin_op(i)
            t0 = time.perf_counter()
            refused = error = None
            try:
                out = op(case, t, opdir)
            except DefectKitError as err:  # typed: the program refused
                refused = type(err).__name__
            except Exception as err:  # untyped: a failure, reported below
                error = f"{type(err).__name__}: {err}"
            dt = time.perf_counter() - t0
            t.end_op(refused or (error and error.split(":")[0]))
        rec = {"i": i, "dt": dt, "warnings": len(caught)}
        if error:
            rec.update(refused=None, problems=[error])
        elif refused:
            rec.update(refused=refused, problems=[])
        else:
            rec.update(refused=out["refused"], problems=check(out, truth, case),
                       **_op_facts(args.workload, out, truth, case))
        return rec

    def cleanup(i):
        shutil.rmtree(f"{args.work}/op{i}", ignore_errors=True)

    records, untraced = closed_loop(args.seconds, prepare, run_op, cleanup,
                                    paired=bool(args.trace))
    result.update(records=records, untraced=untraced)
    if args.trace:
        if args.spans:
            tracer.write(args.spans)
        table = summarize(tracer.spans)
        for row in table.values():
            row["durations"] = sorted(row["durations"])
        result["spans"] = table
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _finish(result, args.result)
    return 0


def _op_facts(workload, out, truth, case):
    """Per-operation counts and quality figures the report aggregates."""
    import checks

    facts = {"ingest_bytes": sum(os.path.getsize(case[k]) for k in ("data", "spectrum", "dos")
                                 if k in case),
             "write_bytes": out["write_bytes"]}
    if workload == "odmr-fit":
        facts.update(err_mhz=checks.odmr_error(out, truth), n_iter=out["n_iter"],
                     eigensolves=out["eigensolves"])
    elif workload == "g2-rates":
        facts.update(chi2_red=checks.g2_chi2_red(out), nfev=out["nfev"], bins=out["bins"])
        facts["ingest_bytes"] += os.path.getsize(case["data"] + ".json")
        if "rates" in out:
            facts["model_dev"] = checks.g2_model_deviation(out)
    else:
        facts["ingest_bytes"] += os.path.getsize(case["spectrum"] + ".json")
        from defectkit.psb import poisson_n_max

        facts["n_iter"] = out.get("n_iter", 0)
        facts["s_rel_err"] = abs(out["S"] - truth["S"]) / truth["S"]
        if "resynth" in out:
            facts["n_max"] = poisson_n_max(out["S"])
        if not out["refused"]:
            facts["l2"] = checks.psb_l2(out, truth)
    return facts


def _finish(result, path):
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
