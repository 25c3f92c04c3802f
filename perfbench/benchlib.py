"""Statistics, span and schema helpers for the benchmark (see README.md).

Kept free of I/O so tests/test_benchlib.py can check each rule directly.
"""

import math
import re

# Candidate percentiles, highest first, for the tail rule below.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(n):
    """The highest candidate percentile that leaves at least MIN_BEYOND of
    `n` samples beyond it, or None when even the median does not."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def timing_percentile(values, wanted):
    """The `wanted` percentile when the sample count supports it, else the
    highest percentile the tail rule allows. Returns (value, percentile);
    (0.0, None) when there are too few samples for any percentile."""
    p = tail_percentile(len(values))
    if p is None:
        return 0.0, None
    p = min(p, wanted)
    return percentile(values, p), p


def self_times(spans):
    """Self time per span name.

    `spans` is an iterable of (id, parent, name, start, end). A span's self
    time is its duration minus the part of its interval that its children
    cover (overlapping children are counted once, and clipped to the
    parent)."""
    spans = list(spans)
    children = {}
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for sid, _parent, name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0) + (end - start) - covered
    return totals


def validate_metric(entry, with_bound):
    """Errors in one end_to_end (with_bound) or per_layer metric entry."""
    errors = []
    keys = {"name", "unit", "better", "bound"} if with_bound else {"name", "unit", "better"}
    if not isinstance(entry, dict) or set(entry) != keys:
        return ["metric entry must have exactly the keys %s" % sorted(keys)]
    if not isinstance(entry["name"], str) or not NAME_RE.match(entry["name"]):
        errors.append("bad metric name %r" % (entry["name"],))
    if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
        errors.append("bad unit %r for %s" % (entry["unit"], entry["name"]))
    if entry["better"] not in ("lower", "higher"):
        errors.append("better must be lower or higher for %s" % entry["name"])
    if with_bound:
        bound = entry["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            errors.append("bound of %s must be in (0, 0.25]" % entry["name"])
    return errors


def validate_benchmark(doc):
    """Errors in a BENCHMARK.json document; empty when it is well formed."""
    if not isinstance(doc, dict) or set(doc) != BENCHMARK_KEYS:
        return ["BENCHMARK.json must have exactly the keys %s" % sorted(BENCHMARK_KEYS)]
    errors = []
    command = doc["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200 for a in command)):
        errors.append("command must be 1-32 strings of at most 200 characters")
    elif any(a.startswith("/") or ".." in a.split("/") for a in command):
        errors.append("command may not name absolute paths or leave the repository")
    paths = doc["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(isinstance(p, str) and PATH_RE.match(p) and ".." not in p.split("/")
                       for p in paths)):
        errors.append("paths must be 1-16 relative directory names")
    seconds = doc["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    workloads = doc["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("there must be 2 to 8 workloads")
        workloads = []
    names = []
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append("a workload must have exactly a name and a why")
            continue
        if not isinstance(w["name"], str) or not NAME_RE.match(w["name"]):
            errors.append("bad workload name %r" % (w["name"],))
        if not isinstance(w["why"], str) or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append("the why of %s must be one line of at most 200 characters" % w["name"])
        names.append(w["name"])
    for key, with_bound, (lo, hi) in (("end_to_end", True, (1, 16)),
                                      ("per_layer", False, (1, 128))):
        entries = doc[key]
        if not isinstance(entries, list) or not lo <= len(entries) <= hi:
            errors.append("%s must list %d to %d metrics" % (key, lo, hi))
            continue
        for entry in entries:
            errors.extend(validate_metric(entry, with_bound))
            if isinstance(entry, dict):
                names.append(entry.get("name"))
    if len(names) != len(set(names)):
        errors.append("a name is used more than once")
    e2e = {m.get("name"): m for m in doc["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    return errors


def validate_result(result, metrics):
    """Errors in one result line against the (name -> unit) map it must
    report exactly."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result must have exactly the keys %s" % sorted(RESULT_KEYS)]
    errors = []
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or not isinstance(result[key], int) or result[key] < 0:
            errors.append("%s must be a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(metrics):
        return errors + ["metrics must be exactly %s" % sorted(metrics)]
    for name, unit in metrics.items():
        entry = got[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append("metric %s must have exactly a value and a unit" % name)
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("metric %s must be a finite number" % name)
        if entry["unit"] != unit:
            errors.append("metric %s must be in %s" % (name, unit))
    return errors
