#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rcdc/contract.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/validator.hpp"
#include "rcdc/verdict_cache.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/metadata.hpp"
#include "topology/topology.hpp"

namespace dcv::rcdc {

/// A proposed network change: a description plus a mutation applied to an
/// emulated copy of the network. Changes model what a rollout would do —
/// ASN reassignments, link/session operations, device replacements.
struct NetworkChange {
  std::string description;
  std::function<void(topo::Topology&)> apply;
};

/// Common change constructors.
[[nodiscard]] NetworkChange reassign_asn(std::string description,
                                         topo::DeviceId device,
                                         topo::Asn asn);
[[nodiscard]] NetworkChange shut_links(std::string description,
                                       std::vector<topo::LinkId> links);

/// Outcome of pre-checking one change.
struct PrecheckResult {
  std::string description;
  bool approved = false;
  /// Non-empty when the change could not be evaluated at all (its apply
  /// threw — e.g. a plan referencing an unknown device); approved is then
  /// false and the violation counts reflect the untouched baseline.
  std::string error;
  /// Violations present on the emulated network *before* the change
  /// (pre-existing drift is not held against the change).
  std::size_t baseline_violations = 0;
  /// Violations on the emulated network *after* the change.
  std::size_t post_change_violations = 0;
  /// The violations the change itself would introduce.
  std::vector<Violation> introduced;
};

/// Validation threads used when `configured` is 0: hardware-aware,
/// clamped like the other worker pools.
[[nodiscard]] unsigned resolve_precheck_threads(unsigned configured);

/// The §2.7 pre-check workflow (Figure 7): "To prevent a large class of
/// faulty updates from entering in the first place Azure uses a
/// high-fidelity network emulator. It runs a full stack of virtualized
/// device software, connected with virtual links using the same topology
/// as the production network. ... RCDC is then used on FIBs extracted from
/// these networks, reporting the same class of errors as on the live
/// network."
///
/// Here the emulator is the EBGP route-propagation simulator running on a
/// cloned topology: the change is applied to the clone, routing re-runs,
/// and the standard RCDC contract validation (same contracts, same
/// verifiers as live monitoring) decides whether the change may roll out.
/// A change is approved iff it introduces no violation beyond the
/// emulated baseline.
class PrecheckPipeline {
 public:
  /// `production` is cloned per check; contracts always derive from the
  /// *expected* architecture, i.e. the unmodified metadata. `threads`
  /// bounds validation parallelism; 0 picks a hardware-aware default.
  explicit PrecheckPipeline(const topo::Topology& production,
                            ContractGenOptions options = {},
                            unsigned threads = 0)
      : production_(&production), options_(options), threads_(threads) {}

  [[nodiscard]] PrecheckResult check(const NetworkChange& change) const;

  /// Checks a sequence of changes as one rollout, stopping at the first
  /// rejection (later steps usually depend on earlier ones).
  [[nodiscard]] std::vector<PrecheckResult> check_rollout(
      const std::vector<NetworkChange>& changes) const;

 private:
  const topo::Topology* production_;
  ContractGenOptions options_;
  unsigned threads_ = 0;
};

/// The serving-layer counterpart of PrecheckPipeline: one persistent warm
/// emulator instead of a clone-and-cold-converge per request.
///
/// Construction pays the full cost once — clone the production topology,
/// cold-converge the simulator, validate every device and record its
/// verdict and FIB fingerprint in a VerdictCache (fingerprinted on the
/// validator's threads). Each check() then applies the change to the
/// emulated clone, opens a simulator checkpoint, *warm*-reconverges
/// (worklist seeded from exactly the touched devices), and hands the
/// devices reconvergence changed to a verdict-cache validation run: a
/// device whose new table fingerprints like its baseline keeps its
/// baseline verdict, the rest are revalidated. Finally the clone is
/// restored and the checkpoint rolled back, which moves the logged
/// baseline RIBs back instead of reconverging a second time. Per-check
/// work is therefore proportional to the change, not the fabric, and every
/// check starts from the same baseline (no rollout semantics).
///
/// Changes that throw or that change the fabric's shape are answered with
/// an error and never reach the emulator.
///
/// Not thread-safe: one session serves one gate thread (or is externally
/// serialized — the change gate holds a mutex around it).
class PrecheckSession {
 public:
  explicit PrecheckSession(const topo::Topology& production,
                           ContractGenOptions options = {},
                           unsigned threads = 0);

  PrecheckSession(const PrecheckSession&) = delete;
  PrecheckSession& operator=(const PrecheckSession&) = delete;

  [[nodiscard]] PrecheckResult check(const NetworkChange& change);
  /// Independent checks, one per change, in order.
  [[nodiscard]] std::vector<PrecheckResult> check_batch(
      const std::vector<NetworkChange>& changes);

  /// Epoch of the production topology this session was built from; the
  /// gate compares it against the live epoch to detect stale sessions.
  [[nodiscard]] std::uint64_t base_epoch() const { return base_epoch_; }
  /// Violations present on the untouched emulated baseline.
  [[nodiscard]] std::size_t baseline_violations() const {
    return baseline_total_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  /// Devices actually revalidated / skipped as fingerprint-identical,
  /// summed over all checks (the proportionality evidence).
  [[nodiscard]] std::uint64_t devices_revalidated() const {
    return devices_revalidated_;
  }
  [[nodiscard]] std::uint64_t devices_skipped() const {
    return devices_skipped_;
  }
  /// Devices whose baseline state rollback restored, summed over checks.
  [[nodiscard]] std::uint64_t devices_restored() const {
    return devices_restored_;
  }
  /// Undo-log bytes (BgpSimulator::checkpoint_bytes) held just before the
  /// latest rollback, and the largest such value over all checks.
  [[nodiscard]] std::size_t last_checkpoint_bytes() const {
    return last_checkpoint_bytes_;
  }
  [[nodiscard]] std::size_t max_checkpoint_bytes() const {
    return max_checkpoint_bytes_;
  }
  /// The emulator, at the baseline between checks.
  [[nodiscard]] const routing::BgpSimulator& simulator() const {
    return simulator_;
  }

 private:
  /// Validates the devices the trial reconvergence changed into `result`.
  void evaluate(PrecheckResult& result);
  /// Restores the clone and rolls the simulator back to the baseline.
  void roll_back();

  ContractGenOptions options_;
  unsigned threads_;
  std::uint64_t base_epoch_ = 0;

  topo::Topology base_;      // pristine clone, restore source
  topo::Topology emulated_;  // working copy under the simulator
  topo::MetadataService intent_;
  routing::BgpSimulator simulator_;
  ProgrammedFibSource fibs_;
  DatacenterValidator validator_;

  std::size_t baseline_total_ = 0;
  /// Baseline verdict and FIB fingerprint of every device.
  VerdictCache baseline_;

  std::uint64_t checks_run_ = 0;
  std::uint64_t devices_revalidated_ = 0;
  std::uint64_t devices_skipped_ = 0;
  std::uint64_t devices_restored_ = 0;
  std::size_t last_checkpoint_bytes_ = 0;
  std::size_t max_checkpoint_bytes_ = 0;
};

}  // namespace dcv::rcdc
