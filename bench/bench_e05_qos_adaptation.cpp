// E05 — The QoS manager's longer-timescale adaptation (§3.3), now across
// every resource layer.
//
// "A Quality-of-Service-manager domain ... updates the scheduler weights;
// not only in response to applications entering or leaving the system, but
// also adaptively as applications modify their behaviour ... on a longer
// time scale ... to smooth out short-term variations in load."
//
// The applications are media streams opened through the cross-layer stream
// API. Three display streams register their full CPU demand and grow toward
// weighted shares. A fourth stream records to the file server under an
// AdaptationPolicy: every steady-state change of its CPU grant drives
// exactly ONE joint renegotiation in which network bandwidth, disk rate and
// camera pacing all move to the proportional target — the per-layer deltas
// of each degradation event are the output of this experiment.
//
//   ./build/bench/bench_e05_qos_adaptation [total_seconds]   (default 34;
//   CI smoke-runs a short clock)
//
// Closed-loop mode: NO explicit SignalCongestion / SignalBudgetPressure
// calls anywhere. The QosMonitor derives congestion from the link queues a
// real best-effort cross-traffic overload creates on the shared desk
// uplink, degrades the adapting stream, and restores it when the
// cross-traffic stops and the queues drain.
//
//   ./build/bench/bench_e05_qos_adaptation closed-loop [total_seconds]
//   (default 12; exits non-zero if no adaptation event fires — the guard
//   against the monitor silently going inert)
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/core/system.h"
#include "src/nemesis/atropos.h"
#include "src/nemesis/kernel.h"
#include "src/nemesis/qos_manager.h"

using namespace pegasus;
using nemesis::QosParams;
using sim::Milliseconds;
using sim::Seconds;

namespace {

// The closed-loop experiment: monitor-derived signals only.
int RunClosedLoop(int total_seconds) {
  bench::PrintHeader("E05b", "Closed-loop adaptation from observed link queues",
                     "QoS feedback comes from measured resource behaviour, not "
                     "application assertion: the monitor turns real queue growth and "
                     "tail-drops on a shared uplink into congestion severity, and the "
                     "drained queue back into a recovery signal — no operator calls");

  sim::Simulator sim;
  core::PegasusSystem system(&sim);
  core::Workstation* desk = system.AddWorkstation("desk");
  core::Workstation* peer = system.AddWorkstation("peer");

  // The adapting stream: a 320x240 raw camera (~17 Mb/s of tiles on the
  // wire) under a 16 Mb/s contract, frame-rate scaling on degradation.
  dev::AtmCamera::Config cam_cfg;
  cam_cfg.width = 320;
  cam_cfg.height = 240;
  dev::AtmCamera* camera = desk->AddCamera(cam_cfg);
  dev::AtmDisplay* display = peer->AddDisplay(640, 480);
  core::AdaptationPolicy policy;
  policy.mode = core::AdaptationMode::kFrameRateScaling;
  policy.floor = 0.05;
  policy.hysteresis = 0.02;
  policy.smoothing = 1.0;
  auto r = system.BuildStream("feed")
               .From(desk, camera)
               .To(peer, display)
               .WithSpec(core::StreamSpec::Video(25, 16'000'000))
               .WithWindow(0, 0)
               .WithAdaptation(policy)
               .Open();
  if (!r.report.ok()) {
    std::printf("stream admission failed\n");
    return 1;
  }
  core::StreamSession* session = r.session;
  camera->Start(session->source_vci());

  core::QosMonitor* monitor = system.EnableQosMonitor();

  // Best-effort cross-traffic floods the shared desk -> backbone uplink at
  // beyond line rate for the middle third of the run.
  auto cross = system.network().OpenVc(desk->host(), peer->host());
  if (!cross.has_value()) {
    std::printf("cross-traffic VC failed\n");
    return 1;
  }
  const sim::TimeNs blast_from = Seconds(total_seconds) / 3;
  const sim::TimeNs blast_to = 2 * Seconds(total_seconds) / 3;
  for (sim::TimeNs t = blast_from; t < blast_to; t += Milliseconds(1)) {
    sim.ScheduleAt(t, [&system, vci = cross->source_vci, ep = desk->host()]() {
      (void)system;
      for (int i = 0; i < 500; ++i) {  // ~212 Mb/s offered
        atm::Cell cell;
        cell.vci = vci;
        cell.low_priority = true;
        ep->SendCell(cell);
      }
    });
  }

  // The shared uplink is the second link of the stream's data path.
  const std::vector<atm::Link*>* links = system.network().VcLinks(session->data_vc());
  const atm::Link* shared = links != nullptr && links->size() > 1 ? (*links)[1] : nullptr;

  sim::Table timeline({"t(s)", "phase", "uplink score", "severity", "fraction",
                       "granted Mb/s", "camera pace Mb/s"});
  char buf[4][32];
  for (int t = 1; t <= total_seconds; ++t) {
    sim.RunUntil(Seconds(t));
    const char* phase = Seconds(t) <= blast_from           ? "quiet"
                        : Seconds(t) <= blast_to           ? "cross-traffic"
                                                           : "drained";
    std::snprintf(buf[0], sizeof(buf[0]), "%.3f",
                  shared != nullptr ? monitor->link_score(shared) : 0.0);
    std::snprintf(buf[1], sizeof(buf[1]), "%.3f",
                  shared != nullptr ? monitor->link_severity(shared) : 0.0);
    std::snprintf(buf[2], sizeof(buf[2]), "%.2f", session->adaptation_fraction());
    std::snprintf(buf[3], sizeof(buf[3]), "%.1f",
                  static_cast<double>(camera->config().pace_bps) / 1e6);
    timeline.AddRow({sim::Table::Int(t), phase, buf[0], buf[1], buf[2],
                     sim::Table::Num(
                         static_cast<double>(session->contract().granted.bandwidth_bps) / 1e6,
                         1),
                     buf[3]});
  }
  bench::PrintTable("monitor-derived severity and the stream it steers", timeline);

  // Every applied adaptation event, with its trigger: all of them must be
  // monitor-raised (net-congestion), none manual.
  sim::Table events({"event", "trigger", "reason", "target", "net Mb/s"});
  int applied_congestion = 0;
  int applied_other = 0;
  char ebuf[2][48];
  int n = 0;
  for (const core::AdaptationEvent& e : session->adaptation_log()) {
    if (!e.applied) {
      continue;
    }
    const bool congestion = e.trigger == core::AdaptationEvent::Trigger::kNetworkCongestion;
    applied_congestion += congestion ? 1 : 0;
    applied_other += congestion ? 0 : 1;
    std::snprintf(ebuf[0], sizeof(ebuf[0]), "%.2f", e.target_fraction);
    std::snprintf(ebuf[1], sizeof(ebuf[1]), "%.1f -> %.1f",
                  static_cast<double>(e.net_bps_before) / 1e6,
                  static_cast<double>(e.net_bps_after) / 1e6);
    events.AddRow({sim::Table::Int(++n), core::AdaptationTriggerName(e.trigger),
                   nemesis::GrantReasonName(e.reason), ebuf[0], ebuf[1]});
  }
  bench::PrintTable("applied adaptation events (all monitor-raised)", events);

  std::printf("\nmonitor: %lld congestion signals, %lld recoveries over %lld ticks "
              "(%lld link visits of %zu links); "
              "uplink dropped %llu best-effort / %llu reserved-class cells\n",
              static_cast<long long>(monitor->congestion_signals()),
              static_cast<long long>(monitor->congestion_recoveries()),
              static_cast<long long>(monitor->ticks()),
              static_cast<long long>(monitor->link_visits()), system.network().links().size(),
              shared != nullptr
                  ? static_cast<unsigned long long>(shared->cells_dropped_low())
                  : 0ULL,
              shared != nullptr
                  ? static_cast<unsigned long long>(shared->cells_dropped_high())
                  : 0ULL);

  const bool holds = applied_congestion >= 1 && applied_other == 0 &&
                     session->adaptation_fraction() > 0.999 &&
                     session->contract().granted.bandwidth_bps == 16'000'000 &&
                     monitor->congestion_recoveries() >= 1;
  bench::PrintVerdict(holds,
                      "with zero explicit signal calls, real cross-traffic overload "
                      "degrades the adapting stream via monitor-derived congestion "
                      "severity and the drained queue restores it to nominal");
  return holds ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "closed-loop") == 0 ||
                   std::strcmp(argv[1], "--closed-loop") == 0)) {
    const int seconds = argc > 2 ? std::max(6, std::atoi(argv[2])) : 12;
    return RunClosedLoop(seconds);
  }
  const int total_seconds = argc > 1 ? std::max(8, std::atoi(argv[1])) : 34;
  bench::PrintHeader("E05", "QoS manager adaptation across CPU, network and disk",
                     "per-stream CPU contracts re-computed as streams enter and leave; an "
                     "adaptation policy turns each steady-state change into one joint "
                     "renegotiation moving network bandwidth and disk rate proportionally");

  sim::Simulator sim;
  nemesis::Kernel kernel(&sim, std::make_unique<nemesis::AtroposScheduler>(0.98));
  core::PegasusSystem system(&sim);
  core::Workstation* desk = system.AddWorkstation("desk");
  desk->AttachKernel(&kernel);
  dev::AtmDisplay* display = desk->AddDisplay(800, 600);
  pfs::PfsConfig pfs_cfg;
  pfs_cfg.segment_size = 64 << 10;
  pfs_cfg.block_size = 8 << 10;
  pfs_cfg.geometry.capacity_bytes = 64 << 20;
  core::StorageNode* storage = system.AddStorageServer(pfs_cfg);

  nemesis::QosManagerDomain::Options opts;
  opts.epoch = Milliseconds(250);
  opts.target_utilization = 0.9;
  opts.reclaim_unused = false;
  opts.smoothing = 0.4;
  nemesis::QosManagerDomain manager(&sim, "qos-mgr",
                                    QosParams::Guaranteed(Milliseconds(1), Milliseconds(100)),
                                    opts);
  kernel.AddDomain(&manager);

  // Three applications as managed display streams with different policy
  // weights; each opens with a token 1% contract and asks for everything.
  int64_t grant_updates = 0;
  auto open_stream = [&](const char* name, double weight) -> core::StreamSession* {
    dev::AtmCamera::Config cfg;
    cfg.width = 64;
    cfg.height = 48;
    dev::AtmCamera* cam = desk->AddCamera(cfg);
    core::StreamSpec spec = core::StreamSpec::Video(25, 0);
    spec.sink_cpu = QosParams::Guaranteed(Milliseconds(1), Milliseconds(100));
    auto r = system.BuildStream(name)
                 .From(desk, cam)
                 .To(desk, display)
                 .WithSpec(spec)
                 .ManagedBy(&manager, weight)
                 .RequestingSinkCpu(QosParams::Guaranteed(Milliseconds(100), Milliseconds(100)))
                 .OnDegrade([&grant_updates](const core::QosContract&) { ++grant_updates; })
                 .Open();
    return r.report.ok() ? r.session : nullptr;
  };

  core::StreamSession* a = open_stream("editor (w=1)", 1.0);
  core::StreamSession* c = open_stream("viz (w=2)", 2.0);

  // The adapting application: a recorder whose CPU, network bandwidth, disk
  // rate and camera pacing form ONE cross-layer contract. When its CPU
  // grant's steady state moves, the policy renegotiates everything.
  dev::AtmCamera::Config rec_cfg;
  rec_cfg.width = 64;
  rec_cfg.height = 48;
  dev::AtmCamera* rec_camera = desk->AddCamera(rec_cfg);
  core::StreamSpec rec_spec = core::StreamSpec::Video(25, 8'000'000);
  rec_spec.source_cpu = QosParams::Guaranteed(Milliseconds(30), Milliseconds(100));
  rec_spec.disk_bps = 1'000'000;
  core::AdaptationPolicy rec_policy;
  rec_policy.mode = core::AdaptationMode::kFrameRateScaling;
  rec_policy.floor = 0.05;
  rec_policy.hysteresis = 0.02;
  rec_policy.smoothing = 1.0;
  auto rec = system.BuildStream("recorder (w=1)")
                 .From(desk, rec_camera)
                 .ToStorage(storage)
                 .WithSpec(rec_spec)
                 .ManagedBy(&manager, 1.0)
                 .WithAdaptation(rec_policy)
                 .Open();
  if (a == nullptr || c == nullptr || !rec.report.ok()) {
    std::printf("stream admission failed\n");
    return 1;
  }
  core::StreamSession* recorder = rec.session;

  // A heavy stream enters around a third of the run and leaves near three
  // quarters; each transition moves every client's steady-state share.
  const int t_enter = total_seconds * 3 / 10;
  const int t_leave = total_seconds * 3 / 4;
  core::StreamSession* b = nullptr;
  sim.ScheduleAt(Seconds(t_enter), [&]() { b = open_stream("video (w=4)", 4.0); });
  sim.ScheduleAt(Seconds(t_leave), [&]() {
    if (b != nullptr) {
      b->Close();
    }
  });

  kernel.Start();
  sim::Table shares({"t(s)", "editor w=1", "video w=4", "viz w=2", "recorder w=1", "phase"});
  const int step = std::max(1, total_seconds / 8);
  for (int t = step; t <= total_seconds; t += step) {
    sim.RunUntil(Seconds(t));
    const char* phase = t < t_enter ? "a+c+rec" : (t < t_leave ? "all four" : "video left");
    shares.AddRow({sim::Table::Int(t),
                   sim::Table::Percent(manager.GrantedUtilization(a->sink_handler())),
                   sim::Table::Percent(
                       b != nullptr ? manager.GrantedUtilization(b->sink_handler()) : 0.0),
                   sim::Table::Percent(manager.GrantedUtilization(c->sink_handler())),
                   sim::Table::Percent(manager.GrantedUtilization(recorder->source_handler())),
                   phase});
  }
  bench::PrintTable("granted utilisation per epoch (weights 1:4:2:1, target 90%)", shares);

  // --- the adaptation plane's per-layer report: every degradation event,
  // with what each layer did about it ---
  sim::Table events({"event", "trigger", "reason", "target", "cpu", "net Mb/s", "disk kB/s"});
  int applied = 0;
  bool refused = false;
  bool proportional = true;
  char buf[5][64];
  for (const core::AdaptationEvent& e : recorder->adaptation_log()) {
    if (e.held) {
      continue;
    }
    if (!e.applied) {
      // A mid-bench renegotiation refusal is a correctness failure, not a
      // data point: every degraded target must be jointly admissible.
      std::printf("FAIL: adaptation (%s, target %.2f) was refused mid-bench\n",
                  core::AdaptationTriggerName(e.trigger), e.target_fraction);
      refused = true;
      continue;
    }
    ++applied;
    std::snprintf(buf[0], sizeof(buf[0]), "#%d", applied);
    std::snprintf(buf[1], sizeof(buf[1]), "%.2f", e.target_fraction);
    std::snprintf(buf[2], sizeof(buf[2]), "%.1f%% -> %.1f%%", e.cpu_util_before * 100,
                  e.cpu_util_after * 100);
    std::snprintf(buf[3], sizeof(buf[3]), "%.1f -> %.1f",
                  static_cast<double>(e.net_bps_before) / 1e6,
                  static_cast<double>(e.net_bps_after) / 1e6);
    std::snprintf(buf[4], sizeof(buf[4]), "%.0f -> %.0f",
                  static_cast<double>(e.disk_bps_before) / 1e3,
                  static_cast<double>(e.disk_bps_after) / 1e3);
    events.AddRow({buf[0], core::AdaptationTriggerName(e.trigger),
                   nemesis::GrantReasonName(e.reason), buf[1], buf[2], buf[3], buf[4]});
    // Every layer lands on the proportional target of THIS event.
    const double f = e.target_fraction;
    proportional = proportional &&
                   std::abs(static_cast<double>(e.net_bps_after) - 8e6 * f) < 8e6 * 0.01 &&
                   std::abs(static_cast<double>(e.disk_bps_after) - 1e6 * f) < 1e6 * 0.01;
  }
  bench::PrintTable("recorder adaptation events (one joint renegotiation each)", events);

  std::printf("\ncross-layer grant callbacks fired: %lld; held by hysteresis/reclaim: %lld\n",
              static_cast<long long>(grant_updates),
              static_cast<long long>(recorder->adaptations_held()));
  std::printf("recorder: %d joint renegotiations for %d applied events; camera now paced at "
              "%.1f Mb/s, disk reservation %.0f kB/s, frame rate %.1f fps\n",
              recorder->contract().renegotiations, applied,
              static_cast<double>(rec_camera->config().pace_bps) / 1e6,
              static_cast<double>(storage->server()->reserved_stream_bps()) / 1e3,
              recorder->contract().granted.frame_rate);

  // Expected steady states (weights 1:2:1 of 90%): editor 22.5%, viz 45%,
  // recorder 22.5% => recorder fraction 0.75 of its 30% request. With the
  // heavy w=4 stream in: 11.25% / 45% / 22.5% / 11.25% => fraction 0.375.
  const double a_end = manager.GrantedUtilization(a->sink_handler());
  const double c_end = manager.GrantedUtilization(c->sink_handler());
  const double rec_end = manager.GrantedUtilization(recorder->source_handler());
  std::printf("final shares after departure: editor %.1f%%, viz %.1f%%, recorder %.1f%% "
              "(expect 22.5/45/22.5)\n",
              a_end * 100, c_end * 100, rec_end * 100);

  const bool shares_ok = std::abs(a_end - 0.225) < 0.03 && std::abs(c_end - 0.45) < 0.05 &&
                         std::abs(rec_end - 0.225) < 0.03;
  // Entry and exit of the heavy stream plus the initial squeeze: exactly
  // one joint renegotiation each, not one per EWMA epoch.
  const bool one_per_event = applied == 3 && recorder->contract().renegotiations == 3;
  const bool paced = rec_camera->config().pace_bps ==
                     recorder->contract().granted.bandwidth_bps;
  bench::PrintVerdict(!refused && shares_ok && one_per_event && proportional && paced,
                      "shares track weighted policy through entry and exit; each steady-state "
                      "change drives ONE joint renegotiation whose CPU, network and disk all "
                      "land on the proportional target, with the camera paced to match");
  return refused ? 1 : 0;
}
