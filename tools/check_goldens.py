#!/usr/bin/env python3
"""Diff the scenario suite's BENCH and HEALTH JSONs against golden baselines.

bench/scenario_suite emits two deterministic JSONs per scenario, and
this checker gates both exactly against the committed goldens in
bench/baselines/:

  BENCH_scenario_<name>.json  The scenario's behavior verdict: the
      "run" table (mode, shape, seed, determinism, fleet trace hash,
      driver hash, event count) and the "behavior" table (safeguard
      triggers, arbiter conflicts and denials, prediction drops,
      short-circuit epochs, epoch-latency percentiles). Wall-clock and
      thread bookkeeping in the run table are report-only.
  HEALTH_scenario_<name>.json  The fleet health timeline sampled at
      each window barrier: schema version, timeline hash, per-series
      sample summary, the virtual-timestamped alert transition log, and
      per-SLO budget accounting.

Scenarios are byte-deterministic (pure-virtual-time demand modulation
on a thread-count-invariant fleet), so any difference means the
runtime's behavior or fleet health changed, and this checker fails CI
until the change is either fixed or consciously re-baselined with
--update.

Usage:
  tools/check_goldens.py [--bench-dir build] \
      [--baseline-dir bench/baselines] [--update] [FILE...]

With FILE arguments only those JSONs are checked (each must be a
BENCH_scenario_*.json or HEALTH_scenario_*.json); otherwise every
BENCH_scenario_*.json and HEALTH_scenario_*.json in --bench-dir, and
both kinds must be present. Exit status: 0 all goldens match, 1 drift
(or missing baseline), 2 usage/IO error.
"""

import argparse
import json
import pathlib
import shutil
import sys

BENCH_GLOB = "BENCH_scenario_*.json"
HEALTH_GLOB = "HEALTH_scenario_*.json"

# Fields of the BENCH "run" table that gate. Wall-clock and thread
# bookkeeping are report-only; everything else describes *what happened*.
RUN_GATED = (
    "mode",
    "nodes",
    "synthetics/node",
    "horizon ms",
    "seed",
    "deterministic",
    "fleet trace hash",
    "driver hash",
    "events",
)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {path}: {err}")


def diff_keyed(label, base, now):
    """Drift lines between two {key: value} maps, keys in baseline order."""
    drifts = []
    for key in base:
        if key not in now:
            drifts.append(f"{label}.{key}: missing from current run")
        elif now[key] != base[key]:
            drifts.append(
                f"{label}.{key}: baseline {base[key]} != current {now[key]}")
    for key in now:
        if key not in base:
            drifts.append(
                f"{label}.{key}: new entry absent from baseline "
                f"(re-baseline with --update)")
    return drifts


def bench_table(doc, section, path, single_row):
    """A BENCH section as {header: cell} (single_row) or {metric: value}."""
    try:
        sec = doc["sections"][section]
        if single_row:
            return dict(zip(sec["headers"], sec["rows"][0]))
        return {row[0]: row[1] for row in sec["rows"]}
    except (KeyError, IndexError):
        raise SystemExit(f"error: {path} has no usable '{section}' table")


def check_bench(current_path, baseline_path):
    """Drift lines of one BENCH_scenario_*.json (empty = clean)."""
    current = load(current_path)
    baseline = load(baseline_path)
    drifts = []

    run_now = bench_table(current, "run", current_path, True)
    run_base = bench_table(baseline, "run", baseline_path, True)
    if run_now.get("deterministic") != "yes":
        drifts.append("run was not thread-count deterministic")
    for field in RUN_GATED:
        if run_now.get(field) != run_base.get(field):
            drifts.append(
                f"run.{field}: baseline {run_base.get(field)!r} "
                f"!= current {run_now.get(field)!r}")

    drifts += diff_keyed(
        "behavior",
        bench_table(baseline, "behavior", baseline_path, False),
        bench_table(current, "behavior", current_path, False))
    return drifts


def describe_alert(alert):
    return (f"{alert.get('rule')} {alert.get('state')} at "
            f"{alert.get('at_ns')}ns (value {alert.get('value')})")


def check_health(current_path, baseline_path):
    """Drift lines of one HEALTH_scenario_*.json (empty = clean)."""
    current = load(current_path)
    baseline = load(baseline_path)
    drifts = []

    for field in ("schema_version", "timeline_hash", "slos"):
        if current.get(field) != baseline.get(field):
            drifts.append(
                f"{field}: baseline {baseline.get(field)!r} "
                f"!= current {current.get(field)!r}")

    drifts += diff_keyed("series", baseline.get("series", {}),
                         current.get("series", {}))

    alerts_now = current.get("alerts", [])
    alerts_base = baseline.get("alerts", [])
    if alerts_now != alerts_base:
        base_set = [describe_alert(a) for a in alerts_base]
        now_set = [describe_alert(a) for a in alerts_now]
        alert_drifts = [f"alert lost: {line}" for line in base_set
                        if line not in now_set]
        alert_drifts += [f"alert gained: {line}" for line in now_set
                         if line not in base_set]
        drifts += alert_drifts or ["alert log reordered"]
    return drifts


def checker_for(path):
    if path.match(BENCH_GLOB):
        return check_bench
    if path.match(HEALTH_GLOB):
        return check_health
    return None


def main():
    parser = argparse.ArgumentParser(
        description="Gate BENCH_scenario_*.json and HEALTH_scenario_*.json "
                    "against golden baselines")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="specific BENCH/HEALTH_scenario_*.json files")
    parser.add_argument("--bench-dir", type=pathlib.Path,
                        default=pathlib.Path("."),
                        help="directory holding the fresh JSONs")
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"),
                        help="directory of committed golden baselines")
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the baselines "
                             "instead of failing on drift")
    args = parser.parse_args()

    if args.files:
        files = args.files
        unknown = [p for p in files if checker_for(p) is None]
        if unknown:
            print(f"error: not a BENCH_scenario_*.json or "
                  f"HEALTH_scenario_*.json: {unknown[0]}", file=sys.stderr)
            return 2
    else:
        files = []
        for pattern in (BENCH_GLOB, HEALTH_GLOB):
            found = sorted(args.bench_dir.glob(pattern))
            if not found:
                print(f"error: no {pattern} under {args.bench_dir}",
                      file=sys.stderr)
                return 2
            files += found

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for path in files:
            shutil.copyfile(path, args.baseline_dir / path.name)
            print(f"baselined {path.name}")
        return 0

    failures = 0
    for path in files:
        baseline = args.baseline_dir / path.name
        if not baseline.exists():
            print(f"FAIL {path.name}: no baseline at {baseline} "
                  f"(record one with --update)", file=sys.stderr)
            failures += 1
            continue
        drifts = checker_for(path)(path, baseline)
        if drifts:
            failures += 1
            print(f"FAIL {path.name}: drifted from baseline:",
                  file=sys.stderr)
            for line in drifts:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"ok   {path.name}")

    if failures:
        print(f"\n{failures} of {len(files)} goldens drifted. "
              f"If the change is intended, re-record with:\n"
              f"  tools/check_goldens.py --bench-dir <build> "
              f"--baseline-dir bench/baselines --update",
              file=sys.stderr)
        return 1
    print(f"all {len(files)} goldens match the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
