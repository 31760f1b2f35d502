#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload untraced, then the traced pass, at the harness's tiny
sizes (well under a minute once built), and checks that:

  - each run exits 0 and ends in a correct result line of the required shape;
  - the metrics are exactly the ones BENCHMARK.json names (end_to_end when
    untraced, per_layer when traced), each with its declared unit and a
    legal name;
  - the traced pass reconciles: adversary + send + deliver + unspanned time
    equals the summed round spans, and the serve counters add up to the
    trials requested.

Exits 1 and names every failed check otherwise.
"""
import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    label = "%s --trace %d" % (workload, trace)
    expect(out.returncode == 0, "%s exited %d: %s" % (label, out.returncode, out.stderr[-500:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (label, sorted(result)))
    expect(result.get("correct") is True and result.get("failed") == 0
           and result.get("attempted", 0) >= 1, "%s: result not correct" % label)
    reconcile = [json.loads(l[len("reconcile "):]) for l in lines if l.startswith("reconcile ")]
    return label, result.get("metrics", {}), reconcile


def check_metrics(label, metrics, declared):
    expect(set(metrics) == set(declared),
           "%s: missing %s, unexpected %s" % (label, sorted(set(declared) - set(metrics)),
                                            sorted(set(metrics) - set(declared))))
    for name, m in metrics.items():
        expect(NAME.match(name) is not None, "%s: illegal name %r" % (label, name))
        expect(set(m) == {"value", "unit"}, "%s: %s fields %s" % (label, name, sorted(m)))
        unit = m.get("unit", "")
        expect(UNIT.match(unit) is not None, "%s: %s has illegal unit %r" % (label, name, unit))
        if name in declared:
            expect(unit == declared[name], "%s: %s unit %r, declared %r"
                   % (label, name, unit, declared[name]))
        expect(isinstance(m.get("value"), (int, float)), "%s: %s value not a number" % (label, name))


def check_reconcile(label, reconcile):
    engine = [r for r in reconcile if "round_s" in r]
    serve = [r for r in reconcile if "requested" in r]
    expect(len(engine) == 1 and len(serve) == 1, "%s: reconcile lines missing" % label)
    for r in engine:
        parts = r["adversary_s"] + r["send_phase_s"] + r["deliver_phase_s"] + r["unspanned_s"]
        expect(abs(parts - r["round_s"]) <= 1e-6 * max(1.0, r["round_s"]),
               "%s: adversary + phases + unspanned %.9f != round %.9f" % (label, parts, r["round_s"]))
        expect(r["unspanned_s"] >= 0.0, "%s: negative unspanned time" % label)
    for r in serve:
        expect(r["hits"] + r["misses"] == r["requested"],
               "%s: serve hits + misses != trials requested" % label)
        expect(r["cache_hits"] + r["cache_misses"] == r["requested"],
               "%s: cache lookups != trials requested" % label)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(NAME.match(m["name"]) is not None, "BENCHMARK.json: illegal name %r" % m["name"])
        expect(UNIT.match(m["unit"]) is not None, "BENCHMARK.json: illegal unit %r" % m["unit"])
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        label, metrics, _ = run(workload, 0)
        check_metrics(label, metrics, end_to_end)
    label, metrics, reconcile = run(names[0], 1)
    check_metrics(label, metrics, per_layer)
    check_reconcile(label, reconcile)

    for f in failures:
        print("FAIL", f)
    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
