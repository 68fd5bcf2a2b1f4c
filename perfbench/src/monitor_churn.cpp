// monitor-churn: a persistent BgpSimulator under the incremental
// MonitoringPipeline (2 pullers, 2 validators, no simulated pull latency)
// driven through a closed loop of seeded events — link down, BGP
// shutdown, device FIB fault, repair — each followed by reconverge() and
// one run_cycle(). Warm reconvergence, per-device fetch and fingerprinting
// and verdict replay dominate; cold convergence, planning and full
// verification nearly vanish: the mirror image of fabric-cold.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <random>

#include "common.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/linear_verifier.hpp"
#include "rcdc/pipeline.hpp"
#include "routing/bgp_reference.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"
#include "topology/faults.hpp"
#include "topology/metadata.hpp"

namespace perfbench {
namespace {

using namespace dcv;

// 8 clusters x (48 ToRs + 16 leaves) + 32 spines + 4 regionals = 548
// devices, 384 hosted prefixes.
constexpr topo::ClosParams kFabric{.clusters = 8,
                                   .tors_per_cluster = 48,
                                   .leaves_per_cluster = 16,
                                   .spines_per_plane = 2,
                                   .regional_spines = 4};
constexpr int kSetups = 3;
/// A round is 12 episodes of four events: two faults injected, then both
/// repaired, so every fourth state is fault-free.
constexpr int kEpisodesPerRound = 12;
/// Fault kinds injected by successive episodes (0 link down, 1 BGP
/// shutdown, 2 ECMP single next hop, 3 RIB/FIB inconsistency): every round
/// injects the same mix, three link faults to one device fault, so the
/// median detection time falls inside the link-fault mode rather than
/// between the two modes, where it would jump with the seed.
constexpr int kEpisodeKinds[4][2] = {{0, 1}, {1, 0}, {0, 1}, {2, 3}};

/// Times every try_fetch of the wrapped source (traced runs only).
class TimedFibSource final : public rcdc::FibSource {
 public:
  explicit TimedFibSource(const rcdc::FibSource& inner) : inner_(&inner) {}

  [[nodiscard]] routing::ForwardingTable fetch(
      topo::DeviceId device) const override {
    return inner_->fetch(device);
  }
  [[nodiscard]] rcdc::FetchOutcome try_fetch(
      topo::DeviceId device) const override {
    const auto start = Clock::now();
    rcdc::FetchOutcome outcome = inner_->try_fetch(device);
    busy_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count(),
        std::memory_order_relaxed);
    return outcome;
  }
  /// Fetch time accumulated since the previous call, in ms.
  double take_busy_ms() {
    return static_cast<double>(busy_ns_.exchange(0)) / 1e6;
  }

 private:
  const rcdc::FibSource* inner_;
  mutable std::atomic<std::int64_t> busy_ns_{0};
};

/// One monitored fabric: topology, fault injector, warm simulator and the
/// pipeline over it, plus the violations its alert sink saw last cycle.
struct Monitor {
  Monitor(std::uint64_t seed, bool timed_fetch)
      : topology(topo::build_clos(kFabric)),
        metadata(topology),
        faults(topology, seed),
        sim(topology, &faults, nullptr, routing::BgpSimOptions{.threads = 4}),
        sim_source(sim),
        timed(sim_source),
        pipeline(metadata,
                 timed_fetch ? static_cast<const rcdc::FibSource&>(timed)
                             : sim_source,
                 rcdc::make_trie_verifier_factory(),
                 rcdc::PipelineConfig{.puller_workers = 2,
                                      .validator_workers = 2,
                                      .time_scale = 0.0,
                                      .seed = seed,
                                      .incremental = true}) {
    pipeline.set_alert_sink(
        [this](const rcdc::Violation& v, const rcdc::RiskAssessment&) {
          std::lock_guard lock(found_mutex);
          found[v.device].push_back(v);
        });
  }

  rcdc::PipelineStats cycle() {
    found.clear();
    return pipeline.run_cycle();
  }

  topo::Topology topology;
  topo::MetadataService metadata;
  topo::FaultInjector faults;
  routing::BgpSimulator sim;
  rcdc::SimulatorFibSource sim_source;
  TimedFibSource timed;
  rcdc::MonitoringPipeline pipeline;
  std::mutex found_mutex;
  std::map<topo::DeviceId, std::vector<rcdc::Violation>> found;
};

/// Devices on which a fault must show a violation.
std::vector<topo::DeviceId> fault_devices(const topo::Topology& topology,
                                          const topo::FaultRecord& record) {
  if (record.kind == topo::FaultRecord::Kind::kDeviceFault) {
    return {record.device};
  }
  const topo::Link& link = topology.link(record.link);
  return {link.a, link.b};
}

}  // namespace

void run_monitor_churn(const Options& options, Tracer& tracer, Checks& checks,
                       RunOutput& out) {
  // --- Set-up: cold converge + first full cycle, several times.
  std::vector<double> setup_s;
  std::unique_ptr<Monitor> monitor;
  for (int i = 0; i < kSetups; ++i) {
    monitor.reset();
    auto span = tracer.span("bench", "setup");
    const auto t0 = Clock::now();
    {
      auto converge = tracer.span("routing", "cold_converge");
      monitor = std::make_unique<Monitor>(options.seed, tracer.enabled());
    }
    rcdc::PipelineStats first;
    {
      auto cycle = tracer.span("rcdc", "first_cycle");
      first = monitor->cycle();
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    checks.expect<std::size_t>(
        "monitor-churn: fault-free state has no violation", first.violations,
        [](const std::size_t& n) { return n == 0; },
        [](std::size_t& n) { n += 1; });
  }
  Monitor& m = *monitor;
  const std::size_t devices = m.topology.device_count();
  const rcdc::ContractPlanPtr plan = rcdc::ContractGenerator(m.metadata).plan();
  (void)m.timed.take_busy_ms();

  std::mt19937_64 rng(options.seed ^ 0x6d6f6e69746f72ULL);
  std::vector<topo::DeviceId> fault_candidates;
  for (const topo::Device& d : m.topology.devices()) {
    if (d.role != topo::DeviceRole::kRegionalSpine) {
      fault_candidates.push_back(d.id);
    }
  }
  const std::size_t links = m.topology.link_count();

  std::vector<double> detect_ms, event_ms, reconverge_ms, cycle_ms, fetch_ms,
      verify_ms, rounds, changed, revalidated, share;
  std::size_t events = 0;
  std::size_t failed = 0;

  // Applies one event; `kind` 0..3 injects, -1 repairs a random fault.
  const auto apply = [&](int kind) {
    auto span = tracer.span("topology", kind < 0 ? "repair" : "inject");
    if (kind < 0) {
      m.faults.repair(rng() % m.faults.records().size());
      return;
    }
    // Keep the two concurrent faults on distinct links and devices.
    const auto in_use = [&](topo::LinkId link, topo::DeviceId device) {
      for (const topo::FaultRecord& r : m.faults.records()) {
        if (r.kind == topo::FaultRecord::Kind::kDeviceFault
                ? r.device == device
                : r.link == link) {
          return true;
        }
      }
      return false;
    };
    switch (kind) {
      case 0:
      case 1: {
        topo::LinkId link;
        do {
          link = static_cast<topo::LinkId>(rng() % links);
        } while (in_use(link, topo::kInvalidDevice));
        if (kind == 0) {
          m.faults.link_down(link);
        } else {
          m.faults.bgp_admin_shutdown(link);
        }
        break;
      }
      default: {
        topo::DeviceId device;
        do {
          device = fault_candidates[rng() % fault_candidates.size()];
        } while (in_use(~topo::LinkId{0}, device));
        m.faults.device_fault(device,
                              kind == 2
                                  ? topo::DeviceFaultKind::kEcmpSingleNextHop
                                  : topo::DeviceFaultKind::kRibFibInconsistency);
        break;
      }
    }
  };

  const auto window_start = Clock::now();
  int round = 0;
  do {
    for (int episode = 0; episode < kEpisodesPerRound; ++episode) {
      const auto& kinds = kEpisodeKinds[episode % 4];
      for (const int kind : {kinds[0], kinds[1], -1, -1}) {
        auto event_span = tracer.span("bench", "event");
        const auto t0 = Clock::now();
        apply(kind);
        int event_rounds;
        std::vector<topo::DeviceId> touched;
        {
          auto span = tracer.span("routing", "reconverge");
          event_rounds = m.sim.reconverge();
          touched = m.sim.take_changed_devices();
        }
        const auto t1 = Clock::now();
        rcdc::PipelineStats stats;
        {
          auto span = tracer.span("rcdc", "run_cycle");
          stats = m.cycle();
        }
        const auto t2 = Clock::now();
        ++events;
        if (stats.coverage() < 1.0) ++failed;
        event_ms.push_back(ms_between(t0, t2));
        if (kind >= 0) detect_ms.push_back(ms_between(t0, t2));
        reconverge_ms.push_back(ms_between(t0, t1));
        cycle_ms.push_back(ms_between(t1, t2));
        fetch_ms.push_back(m.timed.take_busy_ms());
        verify_ms.push_back(
            std::chrono::duration<double, std::milli>(stats.validate_total)
                .count());
        rounds.push_back(event_rounds);
        changed.push_back(static_cast<double>(touched.size()));
        revalidated.push_back(static_cast<double>(stats.devices_revalidated));
        share.push_back(static_cast<double>(stats.devices_revalidated) /
                        static_cast<double>(stats.devices));

        // --- Checks (outside the timed event).
        auto check_span = tracer.span("bench", "check");
        std::map<topo::DeviceId, std::size_t> per_device;
        for (const auto& [device, list] : m.found) {
          per_device[device] = list.size();
        }
        const std::vector<topo::FaultRecord> active = m.faults.records();
        if (active.empty()) {
          checks.expect<std::size_t>(
              "monitor-churn: fault-free state has no violation",
              stats.violations, [](const std::size_t& n) { return n == 0; },
              [](std::size_t& n) { n += 1; });
        } else {
          checks.expect<std::map<topo::DeviceId, std::size_t>>(
              "monitor-churn: every active fault shows a violation",
              per_device,
              [&](const std::map<topo::DeviceId, std::size_t>& seen) {
                for (const topo::FaultRecord& r : active) {
                  bool shown = false;
                  for (topo::DeviceId d : fault_devices(m.topology, r)) {
                    shown = shown || seen.count(d) > 0;
                  }
                  if (!shown) return false;
                }
                return true;
              },
              [&](std::map<topo::DeviceId, std::size_t>& seen) {
                for (topo::DeviceId d : fault_devices(m.topology, active[0])) {
                  seen.erase(d);
                }
              });
        }
        if (!touched.empty()) {
          const topo::DeviceId sample = touched[rng() % touched.size()];
          std::vector<rcdc::Violation> pipeline_view = m.found[sample];
          std::sort(pipeline_view.begin(), pipeline_view.end(),
                    violation_less);
          rcdc::LinearVerifier linear;
          std::vector<rcdc::Violation> oracle = linear.check(
              m.sim.fib(sample), plan->contracts_for(sample), sample);
          std::sort(oracle.begin(), oracle.end(), violation_less);
          checks.expect<std::vector<rcdc::Violation>>(
              "monitor-churn: pipeline == LinearVerifier on a sample",
              pipeline_view,
              [&](const std::vector<rcdc::Violation>& v) { return v == oracle; },
              [&](std::vector<rcdc::Violation>& v) {
                if (v.empty()) {
                  v.push_back(rcdc::Violation{.device = sample});
                } else {
                  v.pop_back();
                }
              });
        }
      }
    }
    ++round;
  } while (seconds_between(window_start, Clock::now()) < options.seconds);

  const double peak_rss = static_cast<double>(peak_rss_bytes());

  // --- Warm-reconverged RIBs against a cold oracle run on the final state.
  {
    auto span = tracer.span("bench", "reference_check");
    const routing::ReferenceBgpSimulator reference(m.topology, &m.faults);
    for (topo::DeviceId d = 0; d < devices; ++d) {
      checks.expect<routing::Rib>(
          "monitor-churn: warm RIBs == cold ReferenceBgpSimulator",
          m.sim.rib(d),
          [&](const routing::Rib& rib) { return rib == reference.rib(d); },
          [](routing::Rib& rib) { rib.clear(); });
    }
  }

  out.attempted = events;
  out.failed = failed;
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_bytes"] = peak_rss;
  out.e2e["op_ms_p50"] = median(detect_ms);
  out.e2e["ops_per_s"] = 1e3 / mean(event_ms);

  auto& L = out.layer;
  L["routing.reconverge_ms"] = median(reconverge_ms);
  L["routing.reconverge_rounds"] = mean(rounds);
  L["routing.changed_devices"] = mean(changed);
  L["rcdc.cycle_ms"] = median(cycle_ms);
  L["rcdc.fetch_ms"] = median(fetch_ms);
  L["rcdc.verify_ms"] = median(verify_ms);
  L["rcdc.devices_revalidated"] = mean(revalidated);
  L["rcdc.revalidate_share"] = mean(share);

  out.named.push_back({"setup_s", {out.e2e["setup_s"], "s"}});
  out.named.push_back({"peak_rss_bytes", {out.e2e["peak_rss_bytes"], "bytes"}});
  out.named.push_back({"detect_ms_p50", {median(detect_ms), "ms"}});
  out.named.push_back({"detect_ms_p90", {quantile(detect_ms, 0.9), "ms"}});
  out.notes.push_back(format(
      "%zu devices, %d rounds, %zu events (%zu fault events timed), "
      "%zu failed", devices, round, events, detect_ms.size(), failed));
}

}  // namespace perfbench
