"""Tests of the benchmark itself: input determinism, the checkers (each must
reject a deliberately corrupted answer), spans and the metric lists.

Run from the repository root: python -m pytest perfbench -q
"""
import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from spans import NullTracer, Tracer, self_times, summarize  # noqa: E402
from timing import REF_NOMINAL_S, closed_loop, speed_scale  # noqa: E402

from defectkit import cli, photodynamics  # noqa: E402
from defectkit.g2_processing import G2Fit  # noqa: E402
from defectkit.photodynamics import RateParams, g2_numeric  # noqa: E402


def _tree(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("gen", [inputs.odmr_case, inputs.g2_case, inputs.psb_case])
def test_same_seed_gives_byte_identical_inputs(tmp_path, gen):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen(7, 3, a)
    gen(7, 3, b)
    gen(8, 3, c)
    strip = lambda t: {k: v for k, v in t.items() if k.name != "case.json"}  # noqa: E731
    assert strip(_tree(a)) == strip(_tree(b))
    assert strip(_tree(a)) != strip(_tree(c))


def test_cli_inputs_deterministic(tmp_path):
    for i in range(len(inputs.CLI_PIPELINES)):
        first = inputs.cli_case(5, i, tmp_path / f"a{i}", root=HERE.parent)
        second = inputs.cli_case(5, i, tmp_path / f"b{i}", root=HERE.parent)
        assert first[0] == second[0] == inputs.CLI_PIPELINES[i]
        assert Path(first[1]).read_text().replace("/a%d/" % i, "/x/") == \
            Path(second[1]).read_text().replace("/b%d/" % i, "/x/")


def test_planted_g2_matches_program_oracle():
    # the generator's eigenmode g2 and the program's propagator agree
    rates = dict(inputs.G2_REFERENCE_RATES)
    tau = np.geomspace(1e-9, 1e-5, 40)
    want = g2_numeric(RateParams(**rates), tau)
    assert np.max(np.abs(inputs.g2_curve(rates, tau) - want)) < 1e-9


def test_odmr_checker(tmp_path):
    case, truth = inputs.odmr_case(3, 0, tmp_path, n_angles=19)
    out = ops.odmr_op(case, NullTracer(), tmp_path)
    assert checks.check_odmr(out, truth, case) == []
    bad = dict(out, D=out["D"] + 20.0)
    assert any("D/E error" in p for p in checks.check_odmr(bad, truth, case))
    lines = out["sweep_lines"].copy()
    lines[2, 100, 1] += 0.01
    assert any("sweep" in p for p in checks.check_odmr(dict(out, sweep_lines=lines),
                                                       truth, case))


@pytest.fixture(scope="module")
def g2_exact(tmp_path_factory):
    """A real histogram with the exact four-exponential fit of its rates."""
    d = tmp_path_factory.mktemp("g2")
    case, truth = inputs.g2_case(3, 0, d, n_bins=5000)
    r = truth["rates"]
    from defectkit.datasets import DatasetDescriptor, ingest

    hist, rho = ingest(DatasetDescriptor(path=case["data"], kind="g2_histogram"))
    alphas, lam = photodynamics.correlation_components(RateParams(**r))
    fit = G2Fit(alphas=alphas, taus=1e9 / lam, rho=rho)
    rates = photodynamics.extract_rates(fit, detected=case["detected_rate"],
                                        eta=case["eta"])
    tau = hist.bin_centers
    out = {"refused": None, "hist": hist, "rho": rho, "fit": fit, "rates": rates,
           "overlay_tau_ns": tau,
           "overlay": photodynamics.g2_analytic(rates, tau * 1e-9)}
    return out, truth, case


def test_g2_checker_accepts_exact_answer(g2_exact):
    out, truth, case = g2_exact
    assert checks.check_g2(out, truth, case, g2_numeric) == []
    assert checks.g2_model_deviation(out) < 1e-6


def test_g2_checker_rejects_rates_off_the_fit(g2_exact):
    # rates whose own g2 is exact but no longer describes the fitted curve
    out, truth, case = g2_exact
    rates = replace(out["rates"], k_ex=3.0 * out["rates"].k_ex)
    overlay = photodynamics.g2_analytic(rates, out["overlay_tau_ns"] * 1e-9)
    problems = checks.check_g2(dict(out, rates=rates, overlay=overlay), truth, case,
                               g2_numeric)
    assert any("fitted curve" in p for p in problems)
    assert not any("propagator" in p for p in problems)


def test_g2_checker_rejects_bad_fit(g2_exact):
    out, truth, case = g2_exact
    fit = G2Fit(alphas=out["fit"].alphas * 1.2, taus=out["fit"].taus, rho=out["rho"])
    assert any("chi-square" in p for p in
               checks.check_g2(dict(out, fit=fit), truth, case, g2_numeric))


def test_g2_checker_rejects_bad_overlay(g2_exact):
    out, truth, case = g2_exact
    overlay = out["overlay"].copy()
    overlay[len(overlay) // 2:] += 1e-3
    assert any("propagator" in p for p in
               checks.check_g2(dict(out, overlay=overlay), truth, case, g2_numeric))


def test_g2_checker_rejects_bad_rates(g2_exact):
    out, truth, case = g2_exact
    rates = replace(out["rates"], k_f=2.0 * out["rates"].k_f)
    overlay = photodynamics.g2_analytic(rates, out["overlay_tau_ns"] * 1e-9)
    problems = checks.check_g2(dict(out, rates=rates, overlay=overlay), truth, case,
                               g2_numeric)
    assert any("Vieta" in p for p in problems)


@pytest.fixture(scope="module")
def psb_result(tmp_path_factory):
    d = tmp_path_factory.mktemp("psb")
    case, truth = inputs.psb_case(3, 0, d, n_grid=672, s=1.0)
    out = ops.psb_op(case, NullTracer(), d)
    return out, truth, case


def test_psb_checker(psb_result):
    out, truth, case = psb_result
    assert out["refused"] is None
    assert checks.check_psb(out, truth, case) == []
    for wrong in (np.zeros_like(out["i1"]), 2.5 * out["i1"]):
        assert any("L2" in p for p in checks.check_psb(dict(out, i1=wrong), truth, case))
    assert any("Huang-Rhys" in p for p in
               checks.check_psb(dict(out, S=out["S"] * (1 + 1e-6)), truth, case))


def test_psb_checker_refusal_needs_best_iterate(psb_result):
    out, truth, case = psb_result
    refused = dict(out, refused="DivergenceError", best_iterate=None)
    assert any("best iterate" in p for p in checks.check_psb(refused, truth, case))


def test_cli_checker(tmp_path):
    pipeline, config, expect = inputs.cli_case(1, 3, tmp_path / "in", root=HERE.parent)
    assert pipeline == "rates-extract"
    out = tmp_path / "out"
    rc = cli.main([pipeline, "--config", config, "--out", str(out)])
    assert checks.check_cli(pipeline, rc, out, expect) == []
    assert checks.check_cli(pipeline, 2, out, expect) == ["exit code 2"]
    payload = json.loads((out / "rates.json").read_text())
    payload["k_f"] *= 1.0 + 1e-12
    (out / "rates.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert any("differs" in p for p in checks.check_cli(pipeline, 0, out, expect))
    (out / "rates.json").unlink()
    assert any("missing" in p for p in checks.check_cli(pipeline, 0, out, expect))


@pytest.mark.parametrize("index", [0, 4, 5, 7])
def test_cli_checker_content(tmp_path, index):
    pipeline, config, expect = inputs.cli_case(2, index, tmp_path / "in",
                                               root=HERE.parent)
    out = tmp_path / "out"
    assert cli.main([pipeline, "--config", config, "--out", str(out)]) == 0
    assert checks.check_cli(pipeline, 0, out, expect) == []
    wrong = copy.deepcopy(expect)
    if expect["check"] == "zero_field":
        wrong["lines"][0] += 0.1
    elif expect["check"] == "power":
        wrong["fluorescence"][3] *= 1.01
    elif expect["check"] == "synth":
        wrong["S"] += 0.01
    else:
        wrong["pairs"] = [["a1", "b2"]]
    assert checks.check_cli(pipeline, 0, out, wrong) != []


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, -1, 0, None],
             ["a", 1.0, 4.0, 0, 0, None],
             ["b", 3.0, 6.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None]]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    table = summarize(spans)
    assert table["op"]["self_s"] == pytest.approx(5.0)


def test_tracer_records_errors():
    t = Tracer()
    t.begin_op(0)
    with pytest.raises(ValueError):
        t.call("f", int, "x")
    t.end_op()
    assert [s[0] for s in t.spans] == ["bench.op", "f"]
    assert t.spans[1][3] == 0 and t.spans[1][5] == "ValueError"


def test_tail_stat_keeps_ten_samples_beyond():
    value, pct = run.tail_stat(list(range(100)))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert pct == pytest.approx(90.0)


def test_closed_loop_pairs_and_alternates():
    calls = []

    def run_op(i, inputs_, traced):
        calls.append((i, inputs_, traced))
        return {"dt": 1.0}

    traced, untraced = closed_loop(3.0, lambda i: f"case{i}", run_op, lambda i: None,
                                   paired=True, min_ops=3)
    assert calls == [(0, "case0", False), (0, "case0", True), (1, "case1", True),
                     (1, "case1", False), (2, "case2", False), (2, "case2", True)]
    assert len(traced) == len(untraced) == 3
    assert all(r["ref_dt"] > 0 for r in traced + untraced)
    calls.clear()
    first, second = closed_loop(2.5, str, run_op, lambda i: None, paired=False)
    assert [c[2] for c in calls] == [False] * 3 and len(first) == 3 and second == []


def test_speed_scale_undoes_a_uniform_slowdown():
    work, refs = 2.0, [REF_NOMINAL_S * f for f in (0.9, 1.0, 1.2)]
    assert work * speed_scale(refs) == pytest.approx(work)
    slow = [1.5 * r for r in refs]
    assert 1.5 * work * speed_scale(slow) == pytest.approx(work)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.gated_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED_WORKLOADS)
    assert set(run.GATED_WORKLOADS) < set(run.WORKLOADS)
