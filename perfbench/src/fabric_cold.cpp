// fabric-cold: repeated cold passes of the paper's whole path on one Clos
// fabric — EBGP convergence, FIB materialization, contract plan, trie
// verification, JSON report — with a seeded ~1% of devices carrying one
// mutated FIB rule (an ECMP next hop dropped) planted by a FibSource
// decorator. The only workload where cold convergence, materialization,
// planning and full verification carry the time and the memory.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <utility>

#include "common.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/report_io.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "routing/fib_synthesizer.hpp"
#include "routing/path_table.hpp"
#include "topology/clos_builder.hpp"
#include "topology/metadata.hpp"

namespace perfbench {
namespace {

using namespace dcv;

// 12 clusters x (64 ToRs + 16 leaves) + 32 spines + 4 regionals = 996
// devices, 768 hosted prefixes, ~0.77 M routes.
constexpr topo::ClosParams kFabric{.clusters = 12,
                                   .tors_per_cluster = 64,
                                   .leaves_per_cluster = 16,
                                   .spines_per_plane = 2,
                                   .regional_spines = 4};
constexpr unsigned kThreads = 4;
constexpr int kSetupsPerPass = 4;
constexpr int kMinPasses = 3;

using Planted = std::set<std::pair<topo::DeviceId, net::Prefix>>;

/// Plants the seeded FIB mutations: every fetch of a planted device gets
/// one ECMP next hop dropped from the planted rule. The ground truth is
/// the (device, prefix) set this decorator was built with.
class MutatingFibSource final : public rcdc::FibSource {
 public:
  MutatingFibSource(const rcdc::FibSource& inner,
                    std::map<topo::DeviceId, net::Prefix> planted)
      : inner_(&inner), planted_(std::move(planted)) {}

  [[nodiscard]] routing::ForwardingTable fetch(
      topo::DeviceId device) const override {
    routing::ForwardingTable table = inner_->fetch(device);
    const auto it = planted_.find(device);
    if (it != planted_.end()) {
      if (const routing::Rule* rule = table.find(it->second)) {
        routing::Rule mutated = *rule;
        mutated.next_hops.pop_back();
        table.add(std::move(mutated));
      }
    }
    return table;
  }

 private:
  const rcdc::FibSource* inner_;
  std::map<topo::DeviceId, net::Prefix> planted_;
};

/// Contracts the generator must derive for kFabric, from the parameters
/// alone: a ToR has a default contract plus one per prefix it does not
/// host; leaves and spines a default plus one per prefix; regional spines
/// one cardinality contract per prefix.
std::size_t expected_contracts(const topo::ClosParams& p) {
  const std::size_t tors = std::size_t{p.clusters} * p.tors_per_cluster;
  const std::size_t leaves = std::size_t{p.clusters} * p.leaves_per_cluster;
  const std::size_t prefixes = tors * p.prefixes_per_tor;
  return tors * (1 + prefixes - p.prefixes_per_tor) +
         (leaves + p.spine_count()) * (1 + prefixes) +
         std::size_t{p.regional_spines} * prefixes;
}

std::size_t fib_bytes(const routing::ForwardingTable& table) {
  std::size_t bytes = table.rules().capacity() * sizeof(routing::Rule);
  for (const routing::Rule& rule : table.rules()) {
    bytes += rule.next_hops.capacity() * sizeof(topo::DeviceId);
  }
  return bytes;
}

/// Runs `body(device)` over every device on kThreads threads.
template <class Body>
void for_devices(std::size_t devices, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      body.start(t);
      for (std::size_t d; (d = next.fetch_add(1)) < devices;) {
        body(t, static_cast<topo::DeviceId>(d));
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

struct PassFigures {
  double converge_s = 0, fib_s = 0, plan_s = 0, verify_s = 0, report_s = 0,
         validate_s = 0;
  int rounds = 0;
  std::size_t routes = 0, route_state_bytes = 0, fib_rules = 0,
              fib_named_bytes = 0, contracts = 0, plan_named_bytes = 0,
              report_bytes = 0;
  std::int64_t converge_rss = 0, fib_rss = 0, plan_rss = 0;
};

}  // namespace

void run_fabric_cold(const Options& options, Tracer& tracer, Checks& checks,
                     RunOutput& out) {
  // --- Set-up: topology + metadata. Timed once up front (the instance the
  // passes use) and again before every pass, so the reported median spans
  // the whole run instead of its first milliseconds.
  std::vector<double> setup_s, build_s;
  const auto set_up = [&](std::unique_ptr<topo::Topology>& topology,
                          std::unique_ptr<topo::MetadataService>& metadata) {
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("topology", "build_clos");
      topology = std::make_unique<topo::Topology>(topo::build_clos(kFabric));
    }
    const auto t1 = Clock::now();
    {
      auto span = tracer.span("topology", "metadata");
      metadata = std::make_unique<topo::MetadataService>(*topology);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(seconds_between(t0, t1));
  };
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<topo::MetadataService> metadata;
  const std::uint64_t rss_before_topology = rss_bytes();
  set_up(topology, metadata);
  const std::int64_t topology_rss =
      static_cast<std::int64_t>(rss_bytes()) -
      static_cast<std::int64_t>(rss_before_topology);
  const std::size_t devices = topology->device_count();

  // --- Seeded mutations, chosen from the closed-form converged tables.
  const routing::FibSynthesizer synthesizer(*metadata);
  std::map<topo::DeviceId, net::Prefix> planted_map;
  {
    std::mt19937_64 rng(options.seed);
    std::vector<topo::DeviceId> candidates;
    for (const topo::Device& d : topology->devices()) {
      if (d.role != topo::DeviceRole::kRegionalSpine) {
        candidates.push_back(d.id);
      }
    }
    std::shuffle(candidates.begin(), candidates.end(), rng);
    const std::size_t count = std::max<std::size_t>(1, devices / 100);
    for (topo::DeviceId device : candidates) {
      if (planted_map.size() == count) break;
      const routing::ForwardingTable table = synthesizer.fib(device);
      std::vector<net::Prefix> ecmp;
      for (const routing::Rule& rule : table.rules()) {
        if (rule.next_hops.size() >= 2) ecmp.push_back(rule.prefix);
      }
      if (ecmp.empty()) continue;
      planted_map.emplace(device, ecmp[rng() % ecmp.size()]);
    }
  }
  const Planted planted(planted_map.begin(), planted_map.end());
  {
    std::ofstream expected(options.out_dir + "/fabric-cold-expected.json");
    expected << "[";
    bool first = true;
    for (const auto& [device, prefix] : planted) {
      expected << (first ? "" : ",") << "[\"" << topology->device(device).name
               << "\", \"" << prefix.to_string() << "\"]";
      first = false;
    }
    expected << "]\n";
  }
  const std::string report_path = options.out_dir + "/fabric-cold-report.json";

  // --- Timed passes.
  std::vector<PassFigures> passes;
  std::size_t path_table_bytes = 0;
  const auto window_start = Clock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         seconds_between(window_start, Clock::now()) < options.seconds) {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      std::unique_ptr<topo::Topology> sample_topology;
      std::unique_ptr<topo::MetadataService> sample_metadata;
      set_up(sample_topology, sample_metadata);
    }
    auto pass_span = tracer.span("bench", "pass");
    PassFigures f;
    const std::size_t table_before = routing::global_path_table().bytes();
    const std::uint64_t rss0 = rss_bytes();
    const auto t0 = Clock::now();

    std::unique_ptr<routing::BgpSimulator> sim;
    {
      auto span = tracer.span("routing", "converge");
      sim = std::make_unique<routing::BgpSimulator>(
          *topology, nullptr, nullptr,
          routing::BgpSimOptions{.threads = kThreads});
    }
    const auto t1 = Clock::now();
    const std::uint64_t rss1 = rss_bytes();

    {
      auto span = tracer.span("routing", "fib_materialize");
      struct Materialize {
        const routing::BgpSimulator* sim;
        void start(unsigned) {}
        void operator()(unsigned, topo::DeviceId d) { (void)sim->fib(d); }
      } body{sim.get()};
      for_devices(devices, body);
    }
    const auto t2 = Clock::now();
    const std::uint64_t rss2 = rss_bytes();

    rcdc::ContractPlanPtr plan;
    {
      auto span = tracer.span("rcdc", "plan");
      plan = rcdc::ContractGenerator(*metadata).plan();
    }
    const auto t3 = Clock::now();
    const std::uint64_t rss3 = rss_bytes();

    const rcdc::SimulatorFibSource sim_source(*sim);
    const MutatingFibSource source(sim_source, planted_map);
    rcdc::ValidationSummary summary;
    {
      auto span = tracer.span("rcdc", "verify");
      const rcdc::VerifierFactory factory = rcdc::make_trie_verifier_factory();
      struct Verify {
        const MutatingFibSource* source;
        const rcdc::ContractPlan* plan;
        const rcdc::VerifierFactory* factory;
        std::vector<std::vector<rcdc::Violation>> found;
        std::vector<std::unique_ptr<rcdc::Verifier>> verifiers =
            std::vector<std::unique_ptr<rcdc::Verifier>>(kThreads);
        std::vector<std::size_t> contracts = std::vector<std::size_t>(kThreads);
        std::vector<std::size_t> failed = std::vector<std::size_t>(kThreads);
        void start(unsigned t) { verifiers[t] = (*factory)(); }
        void operator()(unsigned t, topo::DeviceId d) {
          rcdc::FetchOutcome outcome = source->try_fetch(d);
          if (!outcome.has_table()) {
            ++failed[t];
            return;
          }
          const auto expect = plan->contracts_for(d);
          contracts[t] += expect.size();
          found[d] = verifiers[t]->check(*outcome.table, expect, d);
        }
      } body{&source, plan.get(), &factory,
             std::vector<std::vector<rcdc::Violation>>(devices)};
      for_devices(devices, body);
      summary.devices_checked = devices;
      for (unsigned t = 0; t < kThreads; ++t) {
        summary.contracts_checked += body.contracts[t];
        summary.devices_failed += body.failed[t];
      }
      for (auto& list : body.found) {
        for (rcdc::Violation& v : list) summary.violations.push_back(std::move(v));
      }
      summary.elapsed = Clock::now() - t3;
    }
    const auto t4 = Clock::now();

    {
      auto span = tracer.span("rcdc", "report");
      const std::string json = rcdc::write_report_json(summary, *topology);
      std::ofstream(report_path) << json;
      f.report_bytes = json.size();
    }
    const auto t5 = Clock::now();

    f.converge_s = seconds_between(t0, t1);
    f.fib_s = seconds_between(t1, t2);
    f.plan_s = seconds_between(t2, t3);
    f.verify_s = seconds_between(t3, t4);
    f.report_s = seconds_between(t4, t5);
    f.validate_s = seconds_between(t0, t5);
    f.rounds = sim->rounds();
    f.route_state_bytes = sim->route_state_bytes() +
                          (routing::global_path_table().bytes() - table_before);
    f.converge_rss = static_cast<std::int64_t>(rss1) -
                     static_cast<std::int64_t>(rss0);
    f.fib_rss = static_cast<std::int64_t>(rss2) - static_cast<std::int64_t>(rss1);
    f.plan_rss = static_cast<std::int64_t>(rss3) - static_cast<std::int64_t>(rss2);
    f.contracts = plan->total_contracts();
    for (topo::DeviceId d = 0; d < devices; ++d) {
      f.routes += sim->rib(d).size();
      const routing::ForwardingTable& table = sim->fib(d);
      f.fib_rules += table.size();
      f.fib_named_bytes += fib_bytes(table);
    }
    for (const rcdc::DeviceContracts& dc : plan->devices()) {
      f.plan_named_bytes += dc.contracts.capacity() * sizeof(rcdc::Contract);
      for (const rcdc::Contract& c : dc.contracts) {
        f.plan_named_bytes +=
            c.expected_next_hops.capacity() * sizeof(topo::DeviceId);
      }
    }
    out.failed += summary.devices_failed;

    // --- Checks (outside the timed stages).
    auto check_span = tracer.span("bench", "check");
    Planted reported;
    for (const rcdc::Violation& v : summary.violations) {
      reported.emplace(v.device, v.contract.prefix);
    }
    checks.expect<Planted>(
        "fabric-cold: violations == planted mutations", reported,
        [&](const Planted& r) {
          return r == planted && summary.violations.size() == planted.size();
        },
        [](Planted& r) { r.erase(r.begin()); });
    checks.expect<std::size_t>(
        "fabric-cold: contracts == closed form", plan->total_contracts(),
        [](const std::size_t& n) { return n == expected_contracts(kFabric); },
        [](std::size_t& n) { n += 1; });
    if (passes.empty()) {
      // Every converged FIB equals the closed-form synthesized table.
      for (topo::DeviceId d = 0; d < devices; ++d) {
        checks.expect<routing::ForwardingTable>(
            "fabric-cold: converged FIB == FibSynthesizer", sim->fib(d),
            [&](const routing::ForwardingTable& t) {
              return t == synthesizer.fib(d);
            },
            [](routing::ForwardingTable& t) {
              routing::ForwardingTable fewer;
              for (std::size_t i = 0; i + 1 < t.rules().size(); ++i) {
                fewer.add(t.rules()[i]);
              }
              t = std::move(fewer);
            });
      }
      path_table_bytes = routing::global_path_table().bytes();
    }
    passes.push_back(f);
  }

  // --- Figures.
  const auto med = [&](auto field) {
    std::vector<double> values;
    for (const PassFigures& f : passes) values.push_back(field(f));
    return median(values);
  };
  std::vector<double> validate_each;
  for (const PassFigures& f : passes) validate_each.push_back(f.validate_s);
  const double validate_s = median(validate_each);
  out.attempted = devices * passes.size();
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_bytes"] = static_cast<double>(peak_rss_bytes());
  out.e2e["op_ms_p50"] = validate_s * 1e3;
  out.e2e["ops_per_s"] = static_cast<double>(devices) / mean(validate_each);

  const PassFigures& first = passes.front();
  const std::int64_t named_bytes =
      static_cast<std::int64_t>(first.route_state_bytes + first.fib_named_bytes +
                                first.plan_named_bytes);
  const std::int64_t unattributed =
      first.converge_rss + first.fib_rss + first.plan_rss - named_bytes;
  auto& L = out.layer;
  L["topology.build_s"] = median(build_s);
  L["topology.rss_bytes"] = static_cast<double>(topology_rss);
  L["routing.converge_s"] = med([](const PassFigures& f) { return f.converge_s; });
  L["routing.converge_rounds"] = first.rounds;
  L["routing.routes"] = static_cast<double>(first.routes);
  L["routing.route_state_bytes"] = static_cast<double>(first.route_state_bytes);
  L["routing.path_table_bytes"] = static_cast<double>(path_table_bytes);
  L["routing.converge_rss_bytes"] = static_cast<double>(first.converge_rss);
  L["routing.fib_s"] = med([](const PassFigures& f) { return f.fib_s; });
  L["routing.fib_rules"] = static_cast<double>(first.fib_rules);
  L["routing.fib_rss_bytes"] = static_cast<double>(first.fib_rss);
  L["rcdc.plan_s"] = med([](const PassFigures& f) { return f.plan_s; });
  L["rcdc.plan_rss_bytes"] = static_cast<double>(first.plan_rss);
  L["rcdc.contracts"] = static_cast<double>(first.contracts);
  L["rcdc.verify_s"] = med([](const PassFigures& f) { return f.verify_s; });
  L["rcdc.contracts_per_s"] =
      static_cast<double>(first.contracts) / L["rcdc.verify_s"];
  L["rcdc.report_s"] = med([](const PassFigures& f) { return f.report_s; });
  L["rcdc.report_bytes"] = static_cast<double>(first.report_bytes);
  L["ledger.unattributed_rss_bytes"] = static_cast<double>(unattributed);

  out.named.push_back({"setup_s", {out.e2e["setup_s"], "s"}});
  out.named.push_back({"peak_rss_bytes", {out.e2e["peak_rss_bytes"], "bytes"}});
  out.named.push_back({"validate_s", {validate_s, "s"}});
  std::string per_pass = "validate_s per pass:";
  for (double v : validate_each) per_pass += format(" %.3f", v);
  out.notes.push_back(per_pass);
  out.notes.push_back(format(
      "%zu devices, %zu routes, %zu contracts, %zu planted mutations, "
      "%zu passes", devices, first.routes, first.contracts, planted.size(),
      passes.size()));
  const auto mib = [](double bytes) { return bytes / (1024.0 * 1024.0); };
  out.notes.push_back(format(
      "first-pass RSS ledger (MiB): topology %+.1f | converge %+.1f "
      "(route state %.1f) | fib %+.1f (tables %.1f) | plan %+.1f "
      "(contracts %.1f) | unattributed %+.1f (%.0f%% of stage growth)",
      mib(topology_rss), mib(first.converge_rss), mib(first.route_state_bytes),
      mib(first.fib_rss), mib(first.fib_named_bytes), mib(first.plan_rss),
      mib(first.plan_named_bytes), mib(unattributed),
      100.0 * static_cast<double>(unattributed) /
          static_cast<double>(first.converge_rss + first.fib_rss +
                              first.plan_rss)));
}

}  // namespace perfbench
