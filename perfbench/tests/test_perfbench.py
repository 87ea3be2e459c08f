"""Quick tests of the benchmark itself: every workload at a tiny duration.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02  # share of each workload's simulated duration

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Per-layer self times that partition the traced operation's wall time.
SELF_TIMES = ("other.self_s", "scenario.parse_s", "harness.build_s",
              "harness.traffic_s", "engine.self_s", "engine.trace_s",
              "medium.self_s", "phy.self_s", "frames.self_s", "mac.self_s",
              "dcf.self_s", "rate.self_s", "fairness.self_s", "ext.self_s",
              "pcf.self_s", "metrics.self_s")


def test_workload_names_and_reasons_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == list(workloads.WHY.values())


def test_generated_scenarios_are_pure_functions_of_the_seed():
    for gen in (workloads.cell_dense_text, workloads.grid_sparse_text):
        assert gen(5, 1000) == gen(5, 1000)
        assert gen(5, 1000) != gen(6, 1000)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_run_reports_every_metric(name):
    out = run.measure(name, 3, 0, 0, TINY)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= run.MIN_OPS
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_and_self_times_sum_to_wall(name):
    out = run.measure(name, 3, 0, 1, TINY)
    assert out["correct"] and out["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["other.self_s"] >= 0
    assert math.isclose(sum(m[k] for k in SELF_TIMES), m["traced_wall_s"],
                        rel_tol=1e-9)
    assert (m["engine.trace_lines"] > 0) == (name == "variants_traced")


def test_tracer_restores_every_attribute_and_keeps_output_bytes():
    macsim = run.load_program()
    its = workloads.items("variants_traced", 3, run.ROOT, TINY)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    before = {(id(o), a): vars(o)[a]
              for o, a, _ in layers.entry_points(macsim, workloads)}
    plain = workloads.operation(macsim, its, run.OUT_DIR)
    with layers.Tracer(macsim, workloads) as tracer:
        traced = workloads.operation(macsim, its, run.OUT_DIR)
    assert tracer.restored
    after = {(id(o), a): vars(o)[a]
             for o, a, _ in layers.entry_points(macsim, workloads)}
    assert all(after[k] is v for k, v in before.items())
    assert traced.digests() == plain.digests()
    assert tracer.dispatched > 0


def test_pinned_seed_passes_and_another_seed_against_its_digest_fails():
    macsim = run.load_program()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = run.pinned("cell_small", run.DEFAULT_SEED)
    assert expected is not None
    checker = run.Checker(dict(expected))
    for seed in (run.DEFAULT_SEED, run.DEFAULT_SEED + 1):
        its = workloads.items("cell_small", seed, run.ROOT)
        checker.check(workloads.operation(macsim, its, run.OUT_DIR))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_unpinned_repeat_with_other_bytes_fails():
    macsim = run.load_program()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    checker = run.Checker()
    for seed in (3, 3, 4):
        its = workloads.items("grid_sparse", seed, run.ROOT, TINY)
        checker.check(workloads.operation(macsim, its, run.OUT_DIR))
    assert (checker.attempted, checker.failed) == (3, 1)


def test_an_output_invariant_breach_fails_the_run():
    res = workloads.Result()
    res.problems.append("flow 1 delivered 2 > generated 1 bits")
    checker = run.Checker()
    assert not checker.check(res)
    assert checker.failed == 1
