#!/usr/bin/env python3
"""Diff two cirrus-manifest JSON files on their pinned metrics.

Usage:
    manifest_diff.py OLD.json NEW.json [--rel-tol 0.05] [--abs-tol 1e-9]
                     [--critpath-rel-tol R] [--critpath-abs-tol A]
    manifest_diff.py OLD.json NEW.json --perf

Metrics are indexed by (target, name, platform, ranks); each target's
critical-path blame block ("critpath": same row shape as "metrics") is
indexed the same way but diffed under its own tolerance pair — blame
fractions are shares of a makespan, so a small absolute shift is noise
where the same relative shift in a pinned metric would be drift. A metric
counts as drifted when |new - old| > max(abs_tol, rel_tol * |old|); a
metric present in OLD but missing from NEW counts as removed. Either
condition exits 1 (the CI trend gate); metrics only present in NEW are
reported informationally. Exit 2 on usage or parse errors, 0 when the
manifests agree within tolerance.

This is the continuous-evaluation loop applied to ourselves: each CI run
diffs its fresh `--suite gap` manifest against the previous run's cached one,
so any silent drift in the simulated gap ratios — or in *why* they are what
they are (the blame split) — fails the build instead of rotting quietly.

With --perf the tool compares the manifests' "host" blocks instead: each
target's wall-clock host_ms and simulated events per second. A target whose
host_ms grew, or whose events/s fell, by more than PERF_BAND (0.25, the
wall_s bound in BENCHMARK.json) is listed as SLOWER, provided the slowdown
also costs more than PERF_FLOOR_MS (10 ms) of host time: a few-millisecond
target crosses any useful band on one run's noise alone. Host timings are
noisy, so --perf only reports: it exits 0 whatever it finds (2 still means a
file could not be read as a manifest).
"""

import argparse
import json
import sys

# The slowdown beyond which --perf lists a target: BENCHMARK.json's wall_s bound.
PERF_BAND = 0.25
# The host time a slowdown must cost before --perf lists it. Between two runs
# of the same code, 3-5 ms targets moved by 1-3 ms, more than PERF_BAND.
PERF_FLOOR_MS = 10.0

def read_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"manifest_diff: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema", "").rsplit("/", 1)[0] != "cirrus-manifest":
        print(f"manifest_diff: {path}: not a cirrus-manifest file", file=sys.stderr)
        sys.exit(2)
    return doc


def load_manifest(path):
    doc = read_doc(path)
    metrics, critpath = {}, {}
    for target in doc.get("targets", []):
        tname = target.get("target", "?")
        for section, into in (("metrics", metrics), ("critpath", critpath)):
            for m in target.get(section, []):
                key = (tname, m.get("name", "?"), m.get("platform", "-"),
                       int(m.get("ranks", 0)))
                into[key] = float(m.get("value", 0.0))
    return metrics, critpath


def fmt(key):
    target, name, platform, ranks = key
    return f"{target}/{name}[{platform},{ranks}]"


def diff_section(label, old, new, rel_tol, abs_tol):
    """Prints the drift report for one section; returns True on drift/removal."""
    drifted, removed = [], []
    for key, old_v in sorted(old.items()):
        if key not in new:
            removed.append(key)
            continue
        new_v = new[key]
        allowed = max(abs_tol, rel_tol * abs(old_v))
        if abs(new_v - old_v) > allowed:
            drifted.append((key, old_v, new_v, allowed))
    added = sorted(k for k in new if k not in old)

    for key, old_v, new_v, allowed in drifted:
        print(f"DRIFT   {label} {fmt(key)}: {old_v:.9g} -> {new_v:.9g} "
              f"(|delta| {abs(new_v - old_v):.3g} > allowed {allowed:.3g})")
    for key in removed:
        print(f"REMOVED {label} {fmt(key)}: was {old[key]:.9g}")
    for key in added:
        print(f"added   {label} {fmt(key)} = {new[key]:.9g}")

    n_same = len(old) - len(removed) - len(drifted)
    print(f"manifest_diff: {label}: {n_same} stable, {len(drifted)} drifted, "
          f"{len(removed)} removed, {len(added)} added "
          f"(rel_tol {rel_tol}, abs_tol {abs_tol})")
    return bool(drifted or removed)


def load_host(path):
    """{target: (host_ms, events_per_sec)} from the manifest's host block."""
    host = read_doc(path).get("host") or {}
    return {t.get("target", "?"): (float(t.get("host_ms", 0.0)),
                                   float(t.get("events_per_sec", 0.0)))
            for t in host.get("targets", [])}


def growth(old, new):
    """Relative growth new/old - 1, or None when old is not positive."""
    return new / old - 1.0 if old > 0 else None


def pct(g):
    return "n/a" if g is None else f"{100.0 * g:+.1f}%"


def perf_report(old, new, band):
    """Prints the per-target host timing comparison; returns the SLOWER list."""
    slower = []
    for target in sorted(set(old) & set(new)):
        (old_ms, old_evps), (new_ms, new_evps) = old[target], new[target]
        ms_g = growth(old_ms, new_ms)
        # Events/s is compared as time per event, so one band serves both;
        # old_ms * g is what the slowdown costs at the old target's size.
        ev_g = growth(new_evps, old_evps)
        slow = any(g is not None and g > band and old_ms * g > PERF_FLOOR_MS
                   for g in (ms_g, ev_g))
        if slow:
            slower.append(target)
        evps_change = None if ev_g is None else 1.0 / (1.0 + ev_g) - 1.0
        print(f"{'SLOWER ' if slow else 'ok     '} {target}: host_ms {old_ms:.6g} -> "
              f"{new_ms:.6g} ({pct(ms_g)}), events/s {old_evps:.6g} -> {new_evps:.6g} "
              f"({pct(evps_change)})")
    for target in sorted(set(old) ^ set(new)):
        print(f"only in {'OLD' if target in old else 'NEW'}: {target}")
    if not old or not new:
        print("manifest_diff: perf: a manifest has no host block "
              "(written with include_nondeterministic off?)")
    print(f"manifest_diff: perf: {len(set(old) & set(new))} targets compared, "
          f"{len(slower)} slower by more than {100.0 * band:g}% and "
          f"{PERF_FLOOR_MS:g} ms (report only)")
    return slower


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rel-tol", type=float, default=0.05,
                    help="relative drift tolerance for metrics (default 0.05)")
    ap.add_argument("--abs-tol", type=float, default=1e-9,
                    help="absolute drift floor for metrics (default 1e-9)")
    ap.add_argument("--critpath-rel-tol", type=float, default=0.10,
                    help="relative drift tolerance for blame values (default 0.10)")
    ap.add_argument("--critpath-abs-tol", type=float, default=0.02,
                    help="absolute drift floor for blame values (default 0.02 — "
                         "a two-point shift in a fraction is noise)")
    ap.add_argument("--perf", action="store_true",
                    help="compare the host blocks' host_ms and events/s instead "
                         "(report only: exits 0)")
    args = ap.parse_args()

    if args.perf:
        perf_report(load_host(args.old), load_host(args.new), PERF_BAND)
        return 0

    old_metrics, old_critpath = load_manifest(args.old)
    new_metrics, new_critpath = load_manifest(args.new)

    bad = diff_section("metrics", old_metrics, new_metrics,
                       args.rel_tol, args.abs_tol)
    if old_critpath or new_critpath:
        bad |= diff_section("critpath", old_critpath, new_critpath,
                            args.critpath_rel_tol, args.critpath_abs_tol)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
