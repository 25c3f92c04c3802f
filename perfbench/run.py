#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics (see README.md).

    python3 perfbench/run.py --workload fleet --seed 16 --seconds 10 --trace 0

Run from the repository root. Builds the simulator and the harness from
source (Release) into .bench_build/perfbench on first use, runs the harness,
checks its outputs, prints a report with every metric, its unit and sample
count, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 the per_layer ones. Exits non-zero when a correctness gate fails
or the program cannot be built.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("fleet", "fleet-sharded", "fleet-sharded-serial", "churn", "pfs-log")
DEFAULT_SEED = 16
# The fleets: fingerprinted draws, work counters summed over the run's draws.
FLEET_WORKLOADS = ("fleet", "fleet-sharded", "fleet-sharded-serial")
# Calibration kernel runs per second on the reference host (harness.cc
# CalibrationRate). End-to-end timings are scaled by measured / reference
# kernel rate around each round, which cancels the host's own speed swings.
REFERENCE_CALIBRATION_PER_S = 250.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "workload.h")):
        fail("no simulator sources under %s/src: run from a full checkout" % ROOT)
    build_dir = os.path.join(ROOT, BUILD_DIR)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err))
            if code != 0:
                fail("build failed (exit %d); see %s" % (code, log_path))
    return os.path.join(build_dir, "perfbench_harness")


def host_info(raw):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host = dict(raw["host"])
    host.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    })
    host["release"] = host["build_type"] == "Release" and host["ndebug"]
    return host


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


class Stats:
    """Everything the metrics are computed from, with the sample counts the
    report states."""

    def __init__(self, workload, raw, spans):
        self.raw = raw
        self.counters = raw["counters"]
        self.untraced = [r for r in raw["rounds"] if not r["traced"]]
        # Rounds the work counters cover: every untraced draw for the
        # fleets, one round otherwise.
        self.counter_rounds = len(self.untraced) if workload in FLEET_WORKLOADS else 1
        self.traced = [r for r in raw["rounds"] if r["traced"]]
        self.samples = raw["samples"]
        self.span_ns = {}
        for _sid, _parent, name, start, end in spans:
            self.span_ns.setdefault(name, []).append(end - start)
        self.self_ns = benchlib.self_times(spans)
        self.span_count = len(spans)
        self.notes = {}

    def count(self, name):
        return self.counters.get(name, 0)

    def wall(self):
        return benchlib.median([r["wall_s"] for r in self.untraced])

    def counter_wall(self):
        """Host seconds matching the work counters."""
        return self.wall() * self.counter_rounds

    def sim_rate(self):
        rounds = [r for r in self.untraced if r["sim_s"] > 0]
        if not rounds:
            return 0.0
        return benchlib.median([r["sim_s"] / r["wall_s"] for r in rounds])

    def ops_rate(self):
        return benchlib.median([r["ops"] / r["wall_s"] for r in self.untraced])

    def work_rate(self, normalised=True):
        return benchlib.median([r["work"] / r["wall_s"] * self.scale(r["cal"], normalised)
                                for r in self.untraced])

    def setup(self, normalised=True):
        return benchlib.median([seconds / self.scale(cal, normalised)
                                for seconds, cal in self.raw["setups"]])

    @staticmethod
    def scale(cal, normalised):
        """Factor turning a rate measured at calibration rate `cal` into the
        rate at the reference host speed."""
        return REFERENCE_CALIBRATION_PER_S / cal if normalised else 1.0

    def timing(self, metric, values, wanted, scale):
        """`wanted` percentile of `values` (ns) divided by `scale`; 0 with no
        samples. Records the sample count and the percentile reported."""
        value, p = benchlib.timing_percentile(values, wanted)
        self.notes[metric] = "n=%d, p%s" % (len(values), "-" if p is None else ("%g" % p))
        return value / scale

    def sample(self, metric, name, wanted, scale):
        return self.timing(metric, self.samples.get(name, []), wanted, scale)

    def span(self, metric, name, wanted, scale):
        return self.timing(metric, self.span_ns.get(name, []), wanted, scale)

    def per_round(self, value):
        return value / len(self.traced) if self.traced else 0.0

    def layer_self_ms(self, prefix):
        return self.per_round(sum(ns for name, ns in self.self_ns.items()
                                  if name.startswith(prefix))) / 1e6

    def ratio(self, a, b):
        return a / b if b else 0.0

    def admit_ns(self):
        return sum(r["admit_wall_ns"] for r in self.untraced)

    def trace_overhead_s(self):
        if not self.traced or not self.untraced:
            return 0.0
        return benchlib.median([r["wall_s"] for r in self.traced]) - self.wall()


US, MS = 1e3, 1e6

# name -> how the value is computed from one run. Every name here must be a
# metric of BENCHMARK.json and the other way round; values are 0 where the
# workload does not exercise the layer.
METRICS = {
    # end to end
    "setup_s": lambda s: s.setup(),
    "work_units_per_s": lambda s: s.work_rate(),
    "host.calibration_per_s": lambda s: benchlib.median([r["cal"] for r in s.raw["rounds"]]),
    "host.setup_s_raw": lambda s: s.setup(normalised=False),
    "host.work_units_per_s_raw": lambda s: s.work_rate(normalised=False),
    "round_rss_mb": lambda s: benchlib.median([r["rss_kb"] for r in s.untraced]) / 1024.0,
    "host.peak_rss_mb": lambda s: s.raw["peak_rss_kb"] / 1024.0,
    # the workload-specific end-to-end figures, from the untraced rounds
    "contract_ops_per_s": lambda s: s.ops_rate(),
    "sim_s_per_wall_s": lambda s: s.sim_rate(),
    "open_p50_us": lambda s: s.sample("open_p50_us", "open", 50, US),
    "open_p99_us": lambda s: s.sample("open_p99_us", "open", 99, US),
    "graft_p50_us": lambda s: s.sample("graft_p50_us", "graft", 50, US),
    "graft_p99_us": lambda s: s.sample("graft_p99_us", "graft", 99, US),
    "recover_p50_ms": lambda s: s.sample("recover_p50_ms", "recover", 50, MS),
    # sim
    "sim.events": lambda s: s.count("sim.events"),
    "sim.ns_per_event": lambda s: s.ratio(s.counter_wall() * 1e9, s.count("sim.events")),
    # shard
    "shard.windows": lambda s: s.count("shard.windows"),
    "shard.sync_points": lambda s: s.count("shard.sync_points"),
    "shard.messages": lambda s: s.count("shard.messages"),
    "shard.handoffs": lambda s: s.count("shard.handoffs"),
    "shard.merges": lambda s: s.count("shard.merges"),
    "shard.ns_per_window": lambda s: s.ratio(s.counter_wall() * 1e9, s.count("shard.windows")),
    # atm data plane
    "atm.cell_hops": lambda s: s.count("atm.cell_hops"),
    "atm.cells_dropped": lambda s: s.count("atm.cells_dropped"),
    "atm.cells_per_event": lambda s: s.ratio(s.count("atm.cell_hops"), s.count("sim.events")),
    "atm.cell_hops_per_wall_s": lambda s: s.ratio(s.count("atm.cell_hops"), s.counter_wall()),
    # atm control plane
    "atm.resolve_us_p50": lambda s: s.span("atm.resolve_us_p50", "atm.Network::ResolveRoute",
                                           50, US),
    "atm.resolve_us_p99": lambda s: s.span("atm.resolve_us_p99", "atm.Network::ResolveRoute",
                                           99, US),
    "atm.open_vcs_peak": lambda s: s.count("atm.open_vcs_peak"),
    "atm.admission_rejections": lambda s: s.count("atm.admission_rejections"),
    # core
    "core.open_us_p50": lambda s: s.span("core.open_us_p50", "core.StreamBuilder::Open", 50, US),
    "core.open_us_p99": lambda s: s.span("core.open_us_p99", "core.StreamBuilder::Open", 99, US),
    "core.renegotiate_us_p50": lambda s: s.span("core.renegotiate_us_p50",
                                                "core.StreamSession::Renegotiate", 50, US),
    "core.renegotiate_us_p99": lambda s: s.span("core.renegotiate_us_p99",
                                                "core.StreamSession::Renegotiate", 99, US),
    "core.close_us_p50": lambda s: s.span("core.close_us_p50", "core.StreamSession::Close",
                                          50, US),
    "core.close_us_p99": lambda s: s.span("core.close_us_p99", "core.StreamSession::Close",
                                          99, US),
    "core.remove_sink_us_p50": lambda s: s.span("core.remove_sink_us_p50",
                                                "core.StreamSession::RemoveSink", 50, US),
    "core.remove_sink_us_p99": lambda s: s.span("core.remove_sink_us_p99",
                                                "core.StreamSession::RemoveSink", 99, US),
    "core.admit_mean_us": lambda s: s.ratio(s.admit_ns() / 1e3,
                                            sum(r["admit_calls"] for r in s.untraced)),
    "core.admit_share": lambda s: s.ratio(s.admit_ns() / 1e9,
                                          sum(r["wall_s"] for r in s.untraced)),
    "core.adaptation_events": lambda s: s.count("core.adaptation_events"),
    # scenario
    "scenario.topology_build_s": lambda s: benchlib.median([r["build_s"]
                                                            for r in s.raw["rounds"]]),
    "scenario.engine_init_s": lambda s: benchlib.median([r["init_s"] for r in s.raw["rounds"]]),
    "scenario.arrivals": lambda s: s.count("scenario.arrivals"),
    "scenario.admitted": lambda s: s.count("scenario.admitted"),
    "scenario.blocked": lambda s: s.count("scenario.blocked"),
    "scenario.mcast_grafts": lambda s: s.count("scenario.mcast_grafts"),
    "scenario.records_played": lambda s: s.count("scenario.records_played"),
    "scenario.records_recorded": lambda s: s.count("scenario.records_recorded"),
    # pfs
    "pfs.checkpoints": lambda s: s.count("pfs.checkpoints"),
    "pfs.segments_written": lambda s: s.count("pfs.segments_written"),
    "pfs.blocks_to_disk": lambda s: s.count("pfs.blocks_to_disk"),
    "pfs.step_ms_p50": lambda s: s.sample("pfs.step_ms_p50", "pfs_step", 50, MS),
    "pfs.step_ms_p99": lambda s: s.sample("pfs.step_ms_p99", "pfs_step", 99, MS),
    "pfs.read_us_p50": lambda s: s.sample("pfs.read_us_p50", "pfs_read", 50, US),
    # the trace itself
    "trace.spans_per_round": lambda s: s.per_round(s.span_count),
    "trace.overhead_ms": lambda s: s.trace_overhead_s() * 1e3,
    "trace.overhead_frac": lambda s: s.ratio(s.trace_overhead_s(), s.wall()),
    "self_ms.scenario": lambda s: s.layer_self_ms("scenario."),
    "self_ms.sim": lambda s: s.layer_self_ms("sim."),
    "self_ms.core": lambda s: s.layer_self_ms("core."),
    "self_ms.atm": lambda s: s.layer_self_ms("atm."),
    "self_ms.pfs": lambda s: s.layer_self_ms("pfs."),
    "self_ms.harness": lambda s: s.layer_self_ms("round") + s.layer_self_ms("phase."),
}

def draw_seed(seed, index):
    """The fleet seed of draw `index` of a run (harness.cc DrawSeed)."""
    return seed * 1000 + index


def check_fingerprints(workload, seed, raw, checks):
    """Each fleet draw's fingerprint must equal the value recorded for it."""
    if workload not in FLEET_WORKLOADS:
        return
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        recorded = json.load(f)["fleet"]
    for index, got in enumerate(raw["fingerprints"]):
        expected = recorded.get(str(draw_seed(seed, index)))
        if expected is not None:
            checks.append((got == expected, "draw %d fingerprint %s != recorded %s"
                           % (draw_seed(seed, index), got, expected)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at %s" % ROOT)
    with open(bench_path) as f:
        bench = json.load(f)
    errors = benchlib.validate_benchmark(bench)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    errors += ["%s has no computation here" % m["name"] for m in wanted
               if m["name"] not in METRICS]
    if errors:
        fail("BENCHMARK.json: " + "; ".join(errors))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    harness = build()
    out_dir = os.path.join(ROOT, BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    raw_path = stem + ".raw.json"
    try:
        proc = subprocess.run([harness, args.workload, str(args.seed), str(seconds),
                               str(args.trace), raw_path], timeout=150)
    except subprocess.TimeoutExpired:
        fail("harness exceeded 150 s")
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    stats = Stats(args.workload, raw, read_spans(raw_path + ".spans"))

    checks = []
    check_fingerprints(args.workload, args.seed, raw, checks)
    attempted = raw["attempted"] + len(checks)
    failures = list(raw["failures"]) + [what for ok, what in checks if not ok]
    failed = raw["failed"] + sum(1 for ok, _ in checks if not ok)

    host = host_info(raw)
    everything = {name: float(compute(stats)) for name, compute in METRICS.items()}
    metrics = {m["name"]: {"value": everything[m["name"]], "unit": m["unit"]} for m in wanted}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    # The report: provenance, gates, exact work counters, then every metric.
    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, seconds,
                                                          args.trace))
    print("host: " + json.dumps(host, sort_keys=True))
    if not host["release"]:
        print("WARNING: not a Release build (%s, NDEBUG %s): timings are not comparable"
              % (host["build_type"], host["ndebug"]))
    print("rounds: %d untraced, %d traced; set-ups: %d" % (len(stats.untraced), len(stats.traced),
                                                           len(raw["setups"])))
    if raw["fingerprints"]:
        print("fleet fingerprints (draw seed: value): " + ", ".join(
            "%d: %s" % (draw_seed(args.seed, i), fp) for i, fp in enumerate(raw["fingerprints"])))
    print("gates: %d attempted, %d failed (ops_failed_frac %.3g)"
          % (attempted, failed, failed / max(1, attempted)))
    for what in failures:
        print("  FAILED: " + what)
    print("deterministic work counters (compare exactly; per round, summed over fleet draws):")
    for name in sorted(raw["counters"]):
        print("  %-28s %d" % (name, raw["counters"][name]))
    print("metrics:")
    for name, value in everything.items():
        note = stats.notes.get(name, "")
        print("  %-28s %14.6g %-8s %s" % (name, value, units.get(name, ""), note))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    problems = benchlib.validate_result(result, {m["name"]: m["unit"] for m in wanted})
    if problems:
        fail("result: " + "; ".join(problems))
    with open(stem + ".json", "w") as f:
        json.dump({"host": host, "counters": raw["counters"], "fingerprints": raw["fingerprints"],
                   "failures": failures, "metrics": everything, "result": result}, f,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
