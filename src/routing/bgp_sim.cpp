#include "routing/bgp_sim.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <iterator>
#include <thread>
#include <unordered_map>

#include "net/error.hpp"

namespace dcv::routing {

namespace {

using topo::Asn;
using topo::DeviceId;

/// One neighbor's feed into a device step: a cursor over the neighbor's
/// sorted RIB entries plus the export facts that are fixed per neighbor.
/// Feeds are sorted by neighbor id with parallel sessions folded into one,
/// so the next hops selection collects are already sorted and distinct.
struct Feed {
  const RibEntry* it = nullptr;
  const RibEntry* end = nullptr;
  const topo::Device* neighbor = nullptr;
  /// Interned [neighbor ASN]: the path of the neighbor's connected routes.
  PathId origin_path = kEmptyPathId;
  /// Usable sessions to this neighbor; each one announces the same routes.
  std::uint32_t sessions = 1;
  /// Dirty rounds: reach the next dirty prefix by lower_bound rather than a
  /// linear walk, because the dirty set is narrow next to this RIB.
  bool skip = false;
};

bool entry_before(const RibEntry& entry, const net::Prefix& prefix) {
  return entry.prefix < prefix;
}

/// Approximate resident bytes of a node-based memo.
template <typename Map>
std::size_t memo_bytes(const Map& map) {
  return map.bucket_count() * sizeof(void*) +
         map.size() * (sizeof(typename Map::value_type) + sizeof(void*));
}

}  // namespace

// ---------------------------------------------------------------------------
// Rib

const RibEntry* Rib::find(const net::Prefix& prefix) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const RibEntry& e, const net::Prefix& p) { return e.prefix < p; });
  if (it == entries_.end() || it->prefix != prefix) return nullptr;
  return &*it;
}

const RibEntry& Rib::at(const net::Prefix& prefix) const {
  const RibEntry* entry = find(prefix);
  if (entry == nullptr) throw InvalidArgument("no RIB entry for prefix");
  return *entry;
}

void Rib::sort_by_prefix() {
  std::sort(entries_.begin(), entries_.end(),
            [](const RibEntry& a, const RibEntry& b) {
              return a.prefix < b.prefix;
            });
}

// ---------------------------------------------------------------------------
// FIB programming (shared with ReferenceBgpSimulator)

ForwardingTable program_fib(const Rib& rib, const topo::FaultInjector* faults,
                            topo::DeviceId device) {
  const bool rib_fib_bug =
      faults != nullptr &&
      faults->device_has_fault(device,
                               topo::DeviceFaultKind::kRibFibInconsistency);
  const bool ecmp_bug =
      faults != nullptr &&
      faults->device_has_fault(device,
                               topo::DeviceFaultKind::kEcmpSingleNextHop);

  ForwardingTable fib;
  for (const RibEntry& entry : rib) {
    const std::span<const DeviceId> hops = rib.next_hops(entry);
    Rule rule{.prefix = entry.prefix,
              .next_hops = std::vector<DeviceId>(hops.begin(), hops.end()),
              .connected = entry.connected};
    // "Software Bug 1": the FIB retains far fewer next hops for the default
    // route than the RIB computed (§2.6.2).
    if (rib_fib_bug && entry.prefix.is_default() &&
        rule.next_hops.size() > 1) {
      rule.next_hops.resize(1);
    }
    // ECMP misconfiguration: a single next hop is programmed everywhere
    // instead of the full available set (§2.6.2 "Policy Errors").
    if (ecmp_bug && rule.next_hops.size() > 1) {
      rule.next_hops.resize(1);
    }
    fib.add(std::move(rule));
  }
  return fib;
}

// ---------------------------------------------------------------------------
// Worker state and pool

struct BgpSimulator::WorkerState {
  /// A changed device's complete new RIB, moved into place by the commit.
  struct Emitted {
    DeviceId device = topo::kInvalidDevice;
    Rib rib;
    /// Some route this device announces changed (not only next hops).
    bool announces = false;
  };

  std::vector<Feed> feeds;
  /// Locally originated prefixes of the current device in scope, sorted.
  std::vector<net::Prefix> owned;
  std::vector<DeviceId> hops;
  std::vector<Asn> path_scratch;
  /// Selection results for the prefixes in scope: the whole RIB in a full
  /// recompute, the dirty prefixes' entries otherwise.
  Rib selected;
  /// A dirty round's complete RIB: clean old entries merged with `selected`.
  Rib merged;
  /// Prefixes whose announcement changed at the current device, sorted.
  std::vector<net::Prefix> device_changed;
  /// Sorted union of device_changed over this worker's devices this round.
  std::vector<net::Prefix> round_changed;
  std::vector<net::Prefix> union_scratch;
  std::vector<Emitted> emitted;
  /// Rewrite memos: intern() results are pure functions of their inputs, so
  /// one hash probe replaces the stripe lock + payload copy on repeats. Both
  /// are bounded by the fabric's ASNs and regional-relayed paths.
  std::unordered_map<Asn, PathId> origin_memo;    // [asn] origination
  std::unordered_map<PathId, PathId> strip_memo;  // private-ASN strip
  /// Last own-ASN prepend: (own ASN, chosen path) → interned result. Those
  /// pairs are nearly all distinct across a cold pass, so a map of them
  /// grows with the route count and rarely hits.
  Asn prepend_asn = 0;
  PathId prepend_from = kEmptyPathId;
  PathId prepend_to = kEmptyPathId;  // kEmptyPathId: nothing cached yet
  std::uint64_t routes_propagated = 0;

  /// Bytes this worker keeps between runs.
  [[nodiscard]] std::size_t bytes() const {
    return feeds.capacity() * sizeof(Feed) +
           (owned.capacity() + device_changed.capacity() +
            round_changed.capacity() + union_scratch.capacity()) *
               sizeof(net::Prefix) +
           hops.capacity() * sizeof(DeviceId) +
           path_scratch.capacity() * sizeof(Asn) + selected.memory_bytes() +
           merged.memory_bytes() + emitted.capacity() * sizeof(Emitted) +
           memo_bytes(origin_memo) + memo_bytes(strip_memo);
  }
};

/// A persistent pool: N-1 spawned threads plus the calling thread. run()
/// is a barrier — it returns only after every worker finished the job, so
/// frontier results published by workers are visible to the committing
/// thread through the pool mutex.
struct BgpSimulator::WorkerPool {
  explicit WorkerPool(unsigned workers) {
    for (unsigned t = 1; t < workers; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
  }

  void run(const std::function<void(unsigned)>& job) {
    {
      const std::lock_guard lock(mutex_);
      job_ = &job;
      ++generation_;
      pending_ = threads_.size();
    }
    wake_.notify_all();
    job(0);
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void loop(unsigned id) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(unsigned)>* job = nullptr;
      {
        std::unique_lock lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(id);
      {
        const std::lock_guard lock(mutex_);
        if (--pending_ == 0) done_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::jthread> threads_;
};

// ---------------------------------------------------------------------------
// BgpSimulator

BgpSimulator::BgpSimulator(const topo::Topology& topology,
                           const topo::FaultInjector* faults,
                           obs::MetricsRegistry* metrics,
                           BgpSimOptions options)
    : topology_(&topology),
      faults_(faults),
      metrics_(metrics),
      options_(options) {
  if (options_.threads == 0) {
    options_.threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  }
  workers_.reserve(options_.threads);
  for (unsigned t = 0; t < options_.threads; ++t) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  if (metrics_ != nullptr) {
    rounds_hist_ = &metrics_->histogram(
        "dcv_bgp_convergence_rounds",
        "Synchronous rounds until EBGP convergence");
    reconverge_hist_ = &metrics_->histogram(
        "dcv_bgp_reconverge_rounds",
        "Rounds a warm-start reconverge() took to reach the new fixpoint");
    frontier_hist_ = &metrics_->histogram(
        "dcv_bgp_frontier_devices",
        "Devices reprocessed per worklist round");
    routes_counter_ = &metrics_->counter(
        "dcv_bgp_routes_propagated_total",
        "Accepted candidate announcements across all rounds");
    paths_gauge_ = &metrics_->gauge(
        "dcv_bgp_paths_interned",
        "Distinct AS-paths hash-consed in the global PathTable");
    scratch_gauge_ = &metrics_->gauge(
        "dcv_bgp_scratch_bytes",
        "Bytes the simulator keeps between runs outside the route state: "
        "worker feed and selection buffers, scratch RIBs and rewrite memos");
    fib_rebuilds_ = &metrics_->counter(
        "dcv_bgp_fib_rebuilds_total",
        "ForwardingTable materializations from a converged RIB");
    fib_hits_ = &metrics_->counter(
        "dcv_bgp_fib_cache_hits_total",
        "fib() fetches served from the materialized-table cache");
  }
  cold_run();
}

BgpSimulator::~BgpSimulator() = default;

const Rib& BgpSimulator::rib(topo::DeviceId device) const {
  if (device >= ribs_.size()) throw InvalidArgument("bad device id");
  return ribs_[device];
}

const ForwardingTable& BgpSimulator::fib(topo::DeviceId device) const {
  if (device >= ribs_.size()) throw InvalidArgument("bad device id");
  const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
  std::unique_ptr<ForwardingTable>& slot = fib_cache_[device];
  if (slot == nullptr) {
    slot = std::make_unique<ForwardingTable>(
        program_fib(ribs_[device], faults_, device));
    if (fib_rebuilds_ != nullptr) fib_rebuilds_->inc();
  } else if (fib_hits_ != nullptr) {
    fib_hits_->inc();
  }
  return *slot;
}

std::size_t BgpSimulator::route_state_bytes() const {
  std::size_t total = ribs_.capacity() * sizeof(Rib);
  for (const Rib& rib : ribs_) total += rib.memory_bytes();
  return total;
}

void BgpSimulator::invalidate_fib(topo::DeviceId device) {
  std::unique_ptr<ForwardingTable> old;
  {
    const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
    old = std::move(fib_cache_[device]);
  }
  if (logging() && (undo_.logged[device] & UndoLog::kFibLogged) == 0) {
    undo_.logged[device] |= UndoLog::kFibLogged;
    undo_.fibs.emplace_back(device, std::move(old));
  }
  mark_changed(device);
}

void BgpSimulator::replace_rib(topo::DeviceId device, Rib rib) {
  if (logging() && (undo_.logged[device] & UndoLog::kRibLogged) == 0) {
    undo_.logged[device] |= UndoLog::kRibLogged;
    undo_.ribs.emplace_back(device, std::move(ribs_[device]));
  }
  ribs_[device] = std::move(rib);
}

void BgpSimulator::mark_changed(topo::DeviceId device) {
  if (changed_mark_.size() < topology_->device_count()) {
    changed_mark_.resize(topology_->device_count(), 0);
  }
  if (changed_mark_[device] == 0) {
    changed_mark_[device] = 1;
    changed_list_.push_back(device);
  }
}

void BgpSimulator::checkpoint() {
  if (undo_.open) throw InvalidArgument("a checkpoint is already open");
  undo_.open = true;
  undo_.cold = false;
  undo_.logged.resize(ribs_.size(), 0);
}

void BgpSimulator::rollback() {
  if (!undo_.open) throw InvalidArgument("no checkpoint is open");
  undo_.open = false;
  if (undo_.cold) {
    undo_.cold = false;
    // The cold run marks every device; pending marks may name trial ids.
    (void)take_changed_devices();
    cold_run();
    return;
  }
  for (auto& [device, rib] : undo_.ribs) {
    ribs_[device] = std::move(rib);
    mark_changed(device);
  }
  for (auto& [device, table] : undo_.fibs) {
    {
      const std::lock_guard lock(fib_locks_[device % fib_locks_.size()]);
      fib_cache_[device].swap(table);
    }
    mark_changed(device);
  }
  clear_undo_log();  // frees the trial RIBs and FIBs swapped into the log
  snapshot_state();
}

void BgpSimulator::clear_undo_log() {
  for (const auto& entry : undo_.ribs) undo_.logged[entry.first] = 0;
  for (const auto& entry : undo_.fibs) undo_.logged[entry.first] = 0;
  undo_.ribs.clear();
  undo_.fibs.clear();
}

std::size_t BgpSimulator::checkpoint_bytes() const {
  if (!undo_.open) return 0;
  std::size_t total =
      undo_.ribs.size() * sizeof(decltype(undo_.ribs)::value_type) +
      undo_.fibs.size() * sizeof(decltype(undo_.fibs)::value_type);
  for (const auto& entry : undo_.ribs) total += entry.second.memory_bytes();
  for (const auto& entry : undo_.fibs) {
    if (entry.second != nullptr) {
      total += sizeof(ForwardingTable) + entry.second->memory_bytes();
    }
  }
  return total;
}

std::vector<topo::DeviceId> BgpSimulator::take_changed_devices() {
  std::vector<topo::DeviceId> drained = std::move(changed_list_);
  changed_list_.clear();
  for (const topo::DeviceId device : drained) {
    if (device < changed_mark_.size()) changed_mark_[device] = 0;
  }
  std::sort(drained.begin(), drained.end());
  return drained;
}

void BgpSimulator::snapshot_state() {
  const auto& devices = topology_->devices();
  const auto& links = topology_->links();
  snap_link_usable_.resize(links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    snap_link_usable_[l] = links[l].usable() ? 1 : 0;
  }
  snap_reject_default_.assign(devices.size(), 0);
  snap_fib_fault_.assign(devices.size(), 0);
  snap_asn_.resize(devices.size());
  snap_hosted_.resize(devices.size());
  for (const topo::Device& d : devices) {
    if (faults_ != nullptr) {
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRejectDefaultRoute)) {
        snap_reject_default_[d.id] = 1;
      }
      std::uint8_t sig = 0;
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRibFibInconsistency)) {
        sig |= 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kEcmpSingleNextHop)) {
        sig |= 2;
      }
      snap_fib_fault_[d.id] = sig;
    }
    snap_asn_[d.id] = d.asn;
    snap_hosted_[d.id] = d.hosted_prefixes;
  }
}

bool BgpSimulator::diff_state(std::vector<topo::DeviceId>& seeds) {
  const auto& devices = topology_->devices();
  const auto& links = topology_->links();
  if (devices.size() != snap_asn_.size() ||
      links.size() != snap_link_usable_.size()) {
    return false;  // expected shape changed: warm state is unusable
  }

  std::vector<std::uint8_t> marked(devices.size(), 0);
  const auto seed = [&](DeviceId d) {
    if (!marked[d]) {
      marked[d] = 1;
      seeds.push_back(d);
    }
  };

  for (std::size_t l = 0; l < links.size(); ++l) {
    const std::uint8_t usable = links[l].usable() ? 1 : 0;
    if (usable != snap_link_usable_[l]) {
      seed(links[l].a);
      seed(links[l].b);
    }
  }
  for (const topo::Device& d : devices) {
    std::uint8_t reject = 0;
    std::uint8_t sig = 0;
    if (faults_ != nullptr) {
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRejectDefaultRoute)) {
        reject = 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kRibFibInconsistency)) {
        sig |= 1;
      }
      if (faults_->device_has_fault(
              d.id, topo::DeviceFaultKind::kEcmpSingleNextHop)) {
        sig |= 2;
      }
    }
    if (reject != snap_reject_default_[d.id]) seed(d.id);
    // FIB-programming faults never touch the RIB; flipping one only stales
    // the materialized table.
    if (sig != snap_fib_fault_[d.id]) invalidate_fib(d.id);
    if (d.asn != snap_asn_[d.id]) {
      // The device's own paths and its neighbors' loop checks both involve
      // this ASN.
      seed(d.id);
      for (const topo::LinkId lid : topology_->links_of(d.id)) {
        seed(topology_->link(lid).other(d.id));
      }
    }
    if (d.hosted_prefixes != snap_hosted_[d.id]) seed(d.id);
  }
  return true;
}

void BgpSimulator::cold_run() {
  const auto& devices = topology_->devices();
  ribs_.assign(devices.size(), Rib{});
  fib_cache_.clear();
  fib_cache_.resize(devices.size());
  // Seed locally originated routes so the first round already propagates
  // them: ToRs originate their hosted VLAN prefixes, regional spines the
  // default route (§2.1).
  for (const topo::Device& d : devices) {
    Rib rib;
    if (d.role == topo::DeviceRole::kTor) {
      rib.reserve(d.hosted_prefixes.size(), 0);
      for (const net::Prefix& p : d.hosted_prefixes) {
        rib.append(p, kEmptyPathId, {}, /*connected=*/true, d.datacenter);
      }
      rib.sort_by_prefix();
    } else if (d.role == topo::DeviceRole::kRegionalSpine) {
      rib.append(net::Prefix::default_route(), kEmptyPathId, {},
                 /*connected=*/true, topo::kNoDatacenter);
    }
    ribs_[d.id] = std::move(rib);
    invalidate_fib(d.id);
  }
  snapshot_state();
  std::vector<DeviceId> frontier(devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    frontier[d] = static_cast<DeviceId>(d);
  }
  rounds_ = run_worklist(std::move(frontier));
  publish_metrics(rounds_, /*warm=*/false);
}

int BgpSimulator::reconverge() {
  std::vector<DeviceId> seeds;
  if (!diff_state(seeds)) {
    if (undo_.open) {
      // The logged state is indexed by the old device ids; rollback() will
      // rerun cold on the restored topology instead.
      clear_undo_log();
      undo_.cold = true;
    }
    cold_run();
    return rounds_;
  }
  snapshot_state();  // import_ok reads the refreshed fault flags
  rounds_ = seeds.empty() ? 0 : run_worklist(std::move(seeds));
  publish_metrics(rounds_, /*warm=*/true);
  return rounds_;
}

int BgpSimulator::run_worklist(std::vector<topo::DeviceId> frontier) {
  const auto& devices = topology_->devices();
  for (const auto& worker : workers_) worker->routes_propagated = 0;

  int rounds = 0;
  // Convergence is bounded by the network diameter; the cap is a safety net.
  constexpr int kMaxRounds = 64;
  std::vector<std::uint8_t> queued(devices.size(), 0);
  std::vector<DeviceId> next;
  // Prefixes whose entries changed anywhere in the previous round, sorted.
  // The seed round recomputes its devices in full (external state changed
  // under them); every later round only reselects dirty prefixes.
  std::vector<net::Prefix> dirty;
  bool seed_round = true;

  while (!frontier.empty() && rounds < kMaxRounds) {
    ++rounds;
    if (frontier_hist_ != nullptr) frontier_hist_->observe(frontier.size());
    const std::vector<net::Prefix>* round_dirty = seed_round ? nullptr : &dirty;
    for (const auto& worker : workers_) worker->round_changed.clear();

    std::atomic<std::size_t> cursor{0};
    const auto job = [&](unsigned worker) {
      WorkerState& state = *workers_[worker];
      while (true) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size()) break;
        process_device(devices[frontier[i]], state, round_dirty);
      }
    };
    if (workers_.size() > 1 &&
        frontier.size() >= options_.parallel_threshold) {
      if (pool_ == nullptr) {
        pool_ = std::make_unique<WorkerPool>(
            static_cast<unsigned>(workers_.size()));
      }
      pool_->run(job);
    } else {
      job(0);
    }

    // Commit: workers already built every changed device's complete RIB
    // and the prefixes whose announcements changed, so this moves the RIBs
    // into place, unions the workers' changed prefixes into the next dirty
    // set, and enqueues the usable-link neighbors of announcing devices as
    // the next frontier.
    next.clear();
    dirty.clear();
    bool hops_only_changed = false;
    for (const auto& worker : workers_) {
      for (WorkerState::Emitted& emitted : worker->emitted) {
        const DeviceId d = emitted.device;
        replace_rib(d, std::move(emitted.rib));
        invalidate_fib(d);
        for (const topo::LinkId lid : topology_->links_of(d)) {
          const topo::Link& link = topology_->link(lid);
          if (!link.usable()) continue;
          if (!emitted.announces) {
            hops_only_changed = true;
            continue;
          }
          const DeviceId neighbor = link.other(d);
          if (!queued[neighbor]) {
            queued[neighbor] = 1;
            next.push_back(neighbor);
          }
        }
      }
      worker->emitted.clear();
      dirty.insert(dirty.end(), worker->round_changed.begin(),
                   worker->round_changed.end());
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    // Commit order depends on which worker took which device; sorting keeps
    // the frontier (and so the work split) reproducible.
    std::sort(next.begin(), next.end());
    for (const DeviceId d : next) queued[d] = 0;
    // Rounds count through the first round in which no RIB changes, as the
    // reference engine's do. When this round changed only next hops, that
    // round would reselect nothing any neighbor reads, so it is counted
    // without being run.
    if (next.empty() && hops_only_changed && rounds < kMaxRounds) ++rounds;
    frontier.swap(next);
    seed_round = false;
  }
  return rounds;
}

void BgpSimulator::process_device(const topo::Device& d, WorkerState& state,
                                  const std::vector<net::Prefix>* dirty) const {
  PathTable& table = global_path_table();
  const Rib& old = ribs_[d.id];
  const bool tor = d.role == topo::DeviceRole::kTor;
  const bool regional = d.role == topo::DeviceRole::kRegionalSpine;

  // Locally originated prefixes in scope (all in a full recompute, the
  // dirty ones otherwise), sorted so they merge into the selection stream.
  const auto in_scope = [dirty](const net::Prefix& p) {
    return dirty == nullptr ||
           std::binary_search(dirty->begin(), dirty->end(), p);
  };
  state.owned.clear();
  if (tor) {
    for (const net::Prefix& p : d.hosted_prefixes) {
      if (in_scope(p)) state.owned.push_back(p);
    }
    std::sort(state.owned.begin(), state.owned.end());
    state.owned.erase(std::unique(state.owned.begin(), state.owned.end()),
                      state.owned.end());
  } else if (regional && in_scope(net::Prefix::default_route())) {
    state.owned.push_back(net::Prefix::default_route());
  }
  const topo::DatacenterId owned_origin =
      tor ? d.datacenter : topo::kNoDatacenter;

  // One feed per neighbor with a usable session, in neighbor-id order.
  state.feeds.clear();
  for (const topo::LinkId lid : topology_->links_of(d.id)) {
    const topo::Link& link = topology_->link(lid);
    if (!link.usable()) continue;
    state.feeds.push_back(
        Feed{.neighbor = &topology_->device(link.other(d.id))});
  }
  std::sort(state.feeds.begin(), state.feeds.end(),
            [](const Feed& a, const Feed& b) {
              return a.neighbor->id < b.neighbor->id;
            });
  std::size_t feed_count = 0;
  for (const Feed& feed : state.feeds) {
    if (feed_count > 0 &&
        state.feeds[feed_count - 1].neighbor == feed.neighbor) {
      ++state.feeds[feed_count - 1].sessions;  // parallel link
    } else {
      state.feeds[feed_count++] = feed;
    }
  }
  state.feeds.resize(feed_count);
  for (Feed& feed : state.feeds) {
    const std::vector<RibEntry>& entries = ribs_[feed.neighbor->id].entries();
    feed.it = entries.data();
    feed.end = entries.data() + entries.size();
    feed.skip = dirty != nullptr && dirty->size() * 8 < entries.size();
    const Asn asn = feed.neighbor->asn;
    const auto [it, inserted] = state.origin_memo.try_emplace(asn, 0);
    if (inserted) it->second = table.intern(std::span<const Asn>(&asn, 1));
    feed.origin_path = it->second;
  }

  // Best-path selection for one prefix over the feeds positioned on it:
  // shortest AS-path wins, ECMP across all equally-short neighbors,
  // deterministic (lexicographically least) representative path. Locally
  // originated entries always win. Export policy of each neighbor toward
  // d, then import policy of d, is applied per announcement; path views
  // borrow the global PathTable's storage.
  Rib& selected = state.selected;
  selected.clear();
  auto owned_it = state.owned.begin();
  const auto append_owned = [&] {
    selected.append(*owned_it++, kEmptyPathId, {}, /*connected=*/true,
                    owned_origin);
  };
  // The old entry of a prefix being selected; selections run in prefix
  // order, so one forward cursor serves them all.
  const std::vector<RibEntry>& old_entries = old.entries();
  auto old_it = old_entries.begin();
  const bool old_skip = dirty != nullptr && dirty->size() * 8 < old.size();
  const auto old_entry = [&](const net::Prefix& prefix) -> const RibEntry* {
    if (old_skip) {
      old_it = std::lower_bound(old_it, old_entries.end(), prefix,
                                entry_before);
    } else {
      while (old_it != old_entries.end() && old_it->prefix < prefix) ++old_it;
    }
    return old_it != old_entries.end() && old_it->prefix == prefix ? &*old_it
                                                                   : nullptr;
  };
  const bool reject_default = snap_reject_default_[d.id] != 0;
  const auto select = [&](const net::Prefix prefix) {
    while (owned_it != state.owned.end() && *owned_it < prefix) {
      append_owned();
    }
    const bool owned = owned_it != state.owned.end() && *owned_it == prefix;
    if (owned) append_owned();
    // Route-map misconfiguration (§2.6.2 "Policy Errors").
    const bool rejected = reject_default && prefix.is_default();
    std::size_t best_len = SIZE_MAX;
    std::span<const Asn> chosen;
    PathId chosen_id = kEmptyPathId;
    topo::DatacenterId origin = 0;
    state.hops.clear();
    for (Feed& feed : state.feeds) {
      if (feed.it == feed.end || feed.it->prefix != prefix) continue;
      const RibEntry& entry = *feed.it++;
      if (rejected) continue;
      const topo::Device& n = *feed.neighbor;
      // -- export policy of n toward d --
      PathId path_id = entry.connected ? feed.origin_path : entry.path;
      std::span<const Asn> path = table.view(path_id);
      if (n.role == topo::DeviceRole::kRegionalSpine) {
        // Never hairpin a datacenter's own routes back into it.
        if (entry.origin_datacenter != topo::kNoDatacenter &&
            d.datacenter == entry.origin_datacenter) {
          continue;
        }
        // Strip private ASNs from the relayed tail (§2.1) so that
        // private-ASN reuse across datacenters cannot cause loop-prevention
        // rejections. Most relayed paths at this tier need no rewrite;
        // scan first and keep the original id on the no-op path.
        if (std::any_of(path.begin() + 1, path.end(), is_private_asn)) {
          const auto [it, inserted] = state.strip_memo.try_emplace(path_id, 0);
          if (inserted) {
            state.path_scratch.clear();
            state.path_scratch.push_back(path.front());
            for (std::size_t i = 1; i < path.size(); ++i) {
              if (!is_private_asn(path[i])) {
                state.path_scratch.push_back(path[i]);
              }
            }
            it->second = table.intern(state.path_scratch);
          }
          path_id = it->second;
          path = table.view(path_id);
        }
      }
      // -- import policy of d --
      if (regional) {
        // Tier-peer rule: never re-import a route that already traversed
        // the regional layer (keeps regionals on their own originated
        // default and forbids regional-spine valleys).
        if (!std::all_of(path.begin(), path.end(), is_private_asn)) continue;
      } else if (!tor) {
        // ToR upstream sessions accept paths containing the (reused) ToR
        // ASN of a sibling rack (§2.1); everyone else rejects own-ASN
        // paths.
        if (std::find(path.begin(), path.end(), d.asn) != path.end()) {
          continue;
        }
      }
      state.routes_propagated += feed.sessions;
      if (owned) continue;
      // Feeds run in neighbor-id order, one per neighbor, so hops are
      // collected sorted and distinct: no canonicalize pass.
      if (path.size() < best_len) {
        best_len = path.size();
        state.hops.clear();
      } else if (path.size() > best_len) {
        continue;
      } else if (path_id == chosen_id ||
                 !std::ranges::lexicographical_compare(path, chosen)) {
        state.hops.push_back(n.id);
        continue;
      }
      state.hops.push_back(n.id);
      chosen = path;
      chosen_id = path_id;
      origin = entry.origin_datacenter;
    }
    if (owned || best_len == SIZE_MAX) return;
    // Prepend our own ASN. A reselected prefix usually keeps its path (only
    // hops move on a settling wave or a warm reconverge), so the old
    // entry's id is reused after a compare of a few ASNs; consecutive
    // prefixes that pick the same path (a datacenter's routes relayed by a
    // regional spine) hit the last result; the rest are interned.
    PathId path_id = kEmptyPathId;
    if (const RibEntry* prev = old_entry(prefix);
        prev != nullptr && !prev->connected) {
      const std::span<const Asn> prev_path = table.view(prev->path);
      if (prev_path.size() == chosen.size() + 1 &&
          prev_path.front() == d.asn &&
          std::equal(chosen.begin(), chosen.end(), prev_path.begin() + 1)) {
        path_id = prev->path;
      }
    }
    if (path_id == kEmptyPathId) {
      if (state.prepend_to == kEmptyPathId || d.asn != state.prepend_asn ||
          chosen_id != state.prepend_from) {
        state.path_scratch.clear();
        state.path_scratch.push_back(d.asn);
        state.path_scratch.insert(state.path_scratch.end(), chosen.begin(),
                                  chosen.end());
        state.prepend_asn = d.asn;
        state.prepend_from = chosen_id;
        state.prepend_to = table.intern(state.path_scratch);
      }
      path_id = state.prepend_to;
    }
    selected.append(prefix, path_id, state.hops,
                    /*connected=*/false, origin);
  };

  if (dirty == nullptr) {
    // k-way merge over the feeds' sorted entries: each step selects the
    // least prefix any feed is positioned on.
    while (true) {
      const net::Prefix* least = nullptr;
      for (const Feed& feed : state.feeds) {
        if (feed.it != feed.end && (least == nullptr || feed.it->prefix < *least)) {
          least = &feed.it->prefix;
        }
      }
      if (least == nullptr) break;
      select(*least);
    }
  } else {
    // Only dirty prefixes are reselected — entries for clean prefixes are
    // bit-identical to last round, so they cannot change this device's
    // selection. Each feed walks forward to the next dirty prefix, linearly
    // when the dirty set is a big fraction of its RIB (early cold rounds),
    // by binary-search skips when it is narrow (warm reconvergence tails).
    for (const net::Prefix& prefix : *dirty) {
      bool live = owned_it != state.owned.end();
      for (Feed& feed : state.feeds) {
        if (feed.skip) {
          feed.it = std::lower_bound(feed.it, feed.end, prefix, entry_before);
        } else {
          while (feed.it != feed.end && feed.it->prefix < prefix) ++feed.it;
        }
        live = live || feed.it != feed.end;
      }
      if (!live) break;
      select(prefix);
    }
  }
  while (owned_it != state.owned.end()) append_owned();

  // Change detection and the complete new RIB are built here in the worker
  // (parallel), so the single-threaded commit only moves RIBs. Unchanged
  // devices — the common case on a settling wave — emit nothing. Neighbors
  // read an entry's presence, path, connected flag and origin, never its
  // next hops: a hop-only change rewrites this RIB but cannot move any
  // neighbor's selection, so only announcement changes are listed for the
  // next dirty set.
  state.device_changed.clear();
  bool rib_changed = false;
  const auto appeared_or_withdrawn = [&](const net::Prefix& prefix) {
    rib_changed = true;
    state.device_changed.push_back(prefix);
  };
  const auto compare = [&](const RibEntry& before, const RibEntry& after) {
    if (Rib::entry_equal(old, before, selected, after)) return;
    rib_changed = true;
    if (before.path != after.path || before.connected != after.connected ||
        before.origin_datacenter != after.origin_datacenter) {
      state.device_changed.push_back(after.prefix);
    }
  };
  const Rib* complete = &selected;
  if (dirty == nullptr) {
    auto oit = old.begin();
    auto sit = selected.begin();
    while (oit != old.end() || sit != selected.end()) {
      if (sit == selected.end() ||
          (oit != old.end() && oit->prefix < sit->prefix)) {
        appeared_or_withdrawn((oit++)->prefix);
      } else if (oit == old.end() || sit->prefix < oit->prefix) {
        appeared_or_withdrawn((sit++)->prefix);
      } else {
        compare(*oit++, *sit++);
      }
    }
    if (!rib_changed) return;
  } else {
    // `selected` holds exactly the surviving dirty-prefix routes; compare
    // against the old entries restricted to the dirty set.
    auto oit = old_entries.begin();
    auto sit = selected.begin();
    for (const net::Prefix& prefix : *dirty) {
      if (old_skip) {
        oit = std::lower_bound(oit, old_entries.end(), prefix, entry_before);
      } else {
        while (oit != old_entries.end() && oit->prefix < prefix) ++oit;
      }
      const bool in_old = oit != old_entries.end() && oit->prefix == prefix;
      const bool in_new = sit != selected.end() && sit->prefix == prefix;
      if (in_old && in_new) {
        compare(*oit++, *sit++);
      } else if (in_old || in_new) {
        appeared_or_withdrawn(prefix);
        if (in_old) ++oit;
        if (in_new) ++sit;
      }
    }
    if (!rib_changed) return;

    // Splice: old entries for clean prefixes, selections for dirty ones (an
    // old dirty-prefix entry with no selection was withdrawn).
    Rib& merged = state.merged;
    merged.clear();
    auto dit = dirty->begin();
    sit = selected.begin();
    for (const RibEntry& entry : old) {
      while (sit != selected.end() && sit->prefix < entry.prefix) {
        merged.append_from(selected, *sit++);
      }
      while (dit != dirty->end() && *dit < entry.prefix) ++dit;
      if (dit == dirty->end() || *dit != entry.prefix) {
        merged.append_from(old, entry);  // clean prefix: keep
      } else if (sit != selected.end() && sit->prefix == entry.prefix) {
        merged.append_from(selected, *sit++);
      }
    }
    for (; sit != selected.end(); ++sit) merged.append_from(selected, *sit);
    complete = &merged;
  }

  // The copy is sized to its contents; the scratch Ribs keep their
  // capacity for the next device.
  const bool announces = !state.device_changed.empty();
  state.emitted.push_back({d.id, Rib(*complete), announces});
  if (!announces) return;
  state.union_scratch.clear();
  std::set_union(state.round_changed.begin(), state.round_changed.end(),
                 state.device_changed.begin(), state.device_changed.end(),
                 std::back_inserter(state.union_scratch));
  state.round_changed.swap(state.union_scratch);
}

void BgpSimulator::publish_metrics(int rounds, bool warm) {
  if (metrics_ == nullptr) return;
  if (warm) {
    reconverge_hist_->observe(static_cast<std::uint64_t>(rounds));
  } else {
    rounds_hist_->observe(static_cast<std::uint64_t>(rounds));
  }
  std::uint64_t routes = 0;
  for (const auto& worker : workers_) {
    routes += worker->routes_propagated;
  }
  routes_counter_->inc(routes);
  paths_gauge_->set(static_cast<double>(global_path_table().size()));
  std::size_t scratch = 0;
  for (const auto& worker : workers_) scratch += worker->bytes();
  scratch_gauge_->set(static_cast<double>(scratch));
}

}  // namespace dcv::routing
