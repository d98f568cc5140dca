#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it checks that
  * an untraced run passes and emits every end-to-end metric of
    BENCHMARK.json with its unit, and its report line carries the
    phase's own named metrics plus fail_ratio, setup_s and peak_rss_mb
    (over the four workloads, all twelve named metrics);
  * a traced run passes and emits every per-layer metric with its unit;
  * a run with a planted mismatch fails: non-zero exit, "correct":
    false, and exactly one failed operation, counted under the phase the
    workload runs.
Exits non-zero on the first violation.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COMMON = ("probe_reduction", "host_coverage", "fail_ratio", "setup_s", "peak_rss_mb")
# Per workload: the phase it runs and the named metrics only that phase
# produces.
PHASES = {
    "plan_v4": ("plan", ("plan_cycle_ms",)),
    "plan_v6": ("plan", ("plan_cycle_ms",)),
    "serve_mix": ("serve", ("serve_qps", "serve_p50_us", "serve_p99_us")),
    "churn_stream": ("stream", ("stream_updates_per_s", "stream_plan_p50_ms",
                                "stream_plan_p99_ms")),
}


def expect(condition, message):
    if not condition:
        sys.exit("smoke: FAIL: " + message)


def last_json(lines, key=None):
    for line in reversed(lines):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if key is None or key in value:
            return value
    return None


def check_metrics(got, declared, what):
    for metric in declared:
        entry = got.get(metric["name"])
        expect(entry is not None, "%s: metric %s missing" % (what, metric["name"]))
        expect(entry["unit"] == metric["unit"],
               "%s: %s has unit %s, want %s" % (what, metric["name"], entry["unit"],
                                                metric["unit"]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    tiny = ("--tiny", "1")
    named = set()
    for workload in run.WORKLOADS:
        phase, own = PHASES[workload]
        code, lines = run.run(binary, workload, 7, 1, 0, tiny)
        result = last_json(lines)
        expect(code == 0 and result and result["correct"] and result["failed"] == 0,
               "%s: untraced run failed (exit %d)" % (workload, code))
        check_metrics(result["metrics"], spec["end_to_end"], workload)
        report = last_json(lines, "report")["report"]
        missing = [name for name in own + COMMON if name not in report]
        expect(not missing, "%s: report lacks %s" % (workload, ", ".join(missing)))
        named.update(report)

        code, lines = run.run(binary, workload, 7, 1, 1, tiny)
        result = last_json(lines)
        expect(code == 0 and result and result["correct"],
               "%s: traced run failed (exit %d)" % (workload, code))
        check_metrics(result["metrics"], spec["per_layer"], workload + " traced")

        code, lines = run.run(binary, workload, 7, 1, 0, tiny + ("--plant", "1"))
        result = last_json(lines)
        by_phase = (last_json(lines, "failed_by_phase") or {}).get("failed_by_phase")
        expect(code != 0 and result and not result["correct"] and
               result["failed"] == 1 and by_phase == {phase: 1},
               "%s: referee missed the planted mismatch (exit %d, failed %s, by phase %s)"
               % (workload, code, result and result["failed"], by_phase))
        print("smoke: %s ok" % workload)
    expect(len(named) == 12, "the workloads' reports name %d metrics, want 12: %s"
           % (len(named), sorted(named)))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
