#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload end to end with its output checks, untraced on two
seeds and traced on one. Asserts that each run is correct, that it prints
exactly the metrics BENCHMARK.json names for its mode, with their units,
and that the traced run writes a parsable Chrome trace holding every layer
span the workload records. Run from anywhere:

  python3 perfbench/smoke_test.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SPANS = {
    "pipeline": ["setup", "csv.write", "pass", "csv.read", "discovery.profile",
                 "discovery.discover.zip", "discovery.discover.name",
                 "discovery.discover.employee", "detect.detect",
                 "repair.repair"],
    "clean": ["setup", "csv.write", "discovery.discover", "pass", "csv.read",
              "detect.detect", "repair.repair"],
    "serve": ["setup", "datagen.generate", "csv.write", "discovery.discover",
              "store.save", "service.start", "anmat.project_open",
              "service.warmup", "analyst.cycle", "streamer.cycle",
              "service.stream_open", "service.append", "service.stream_close",
              "service.detect", "service.commit"],
}


def run(workload, seed, trace, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace, "--tiny"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if r.returncode != 0:
        sys.exit("FAIL %s seed %d trace %s: exit %d\n%s%s" %
                 (workload, seed, trace, r.returncode, r.stdout, r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_metrics(label, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s: metrics %s != BENCHMARK.json %s" % (label, got, want)
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (label, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(SPANS), names
    trace_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"), "traces")
    for workload in names:
        for seed in (1, 2):
            result = run(workload, seed, "0")
            check_metrics("%s seed %d" % (workload, seed), result,
                          bench["end_to_end"])
            for name, v in result["metrics"].items():
                assert v["value"] > 0, (workload, name, v)
        trace_out = os.path.join(trace_dir, "smoke-%s.json" % workload)
        result = run(workload, 1, "1", trace_out)
        check_metrics("%s traced" % workload, result, bench["per_layer"])
        with open(trace_out) as f:
            trace = json.load(f)
        assert trace["otherData"]["build_type"] == "Release", workload
        events = trace["traceEvents"]
        seen = {e["name"] for e in events}
        missing = [s for s in SPANS[workload] if s not in seen]
        assert not missing, "%s trace lacks spans %s" % (workload, missing)
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0, e
            assert {"trace_id", "span_id", "parent_id"} <= set(e["args"]), e
        print("ok %s (%d spans)" % (workload, len(events)))
    print("smoke test passed")


if __name__ == "__main__":
    main()
