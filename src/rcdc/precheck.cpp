#include "rcdc/precheck.hpp"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "rcdc/trie_verifier.hpp"
#include "rcdc/verdict_cache.hpp"

namespace dcv::rcdc {

NetworkChange reassign_asn(std::string description, topo::DeviceId device,
                           topo::Asn asn) {
  return NetworkChange{.description = std::move(description),
                       .apply = [device, asn](topo::Topology& topology) {
                         topology.set_asn(device, asn);
                       }};
}

NetworkChange shut_links(std::string description,
                         std::vector<topo::LinkId> links) {
  return NetworkChange{
      .description = std::move(description),
      .apply = [links = std::move(links)](topo::Topology& topology) {
        for (const topo::LinkId link : links) {
          topology.set_bgp_state(link, topo::BgpSessionState::kAdminShutdown);
        }
      }};
}

unsigned resolve_precheck_threads(unsigned configured) {
  if (configured != 0) return configured;
  // Same hardware-aware clamp as the simulator's worker pool; the
  // validator additionally clamps to the device count per run.
  return std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
}

namespace {

std::vector<Violation> validate_emulated(const routing::BgpSimulator& simulator,
                                         const topo::MetadataService& intent,
                                         ContractGenOptions options,
                                         unsigned threads) {
  const SimulatorFibSource fibs(simulator);
  const DatacenterValidator validator(intent, fibs,
                                      make_trie_verifier_factory(), options);
  return validator.run(threads).violations;
}

}  // namespace

PrecheckResult PrecheckPipeline::check(const NetworkChange& change) const {
  PrecheckResult result;
  result.description = change.description;
  const unsigned threads = resolve_precheck_threads(threads_);

  // Intent derives from the production architecture; the emulator clone
  // carries the production state including any current drift.
  const topo::MetadataService intent(*production_);

  topo::Topology emulated = *production_;  // "same topology as production"
  // One simulator across the before/after comparison: applying the change
  // and warm-starting reconvergence from the touched devices is the
  // emulation analogue of pushing a change into a converged network.
  routing::BgpSimulator simulator(emulated);
  const auto baseline = validate_emulated(simulator, intent, options_, threads);
  result.baseline_violations = baseline.size();

  change.apply(emulated);
  simulator.reconverge();
  auto post = validate_emulated(simulator, intent, options_, threads);
  result.post_change_violations = post.size();

  // The change is charged only with violations absent from the baseline.
  for (Violation& violation : post) {
    if (std::find(baseline.begin(), baseline.end(), violation) ==
        baseline.end()) {
      result.introduced.push_back(std::move(violation));
    }
  }
  result.approved = result.introduced.empty();
  return result;
}

std::vector<PrecheckResult> PrecheckPipeline::check_rollout(
    const std::vector<NetworkChange>& changes) const {
  std::vector<PrecheckResult> results;
  for (const NetworkChange& change : changes) {
    results.push_back(check(change));
    if (!results.back().approved) break;
  }
  return results;
}

PrecheckSession::PrecheckSession(const topo::Topology& production,
                                 ContractGenOptions options, unsigned threads)
    : options_(options),
      threads_(resolve_precheck_threads(threads)),
      base_epoch_(production.epoch()),
      base_(production),
      emulated_(production),
      intent_(base_),
      simulator_(emulated_),
      fibs_(simulator_),
      validator_(intent_, fibs_, make_trie_verifier_factory(), options_) {
  // The one cold pass: converge (done by the simulator constructor), then
  // validate every device against an empty cache, so every device misses
  // and comes back with its fingerprint and verdict: the baseline.
  std::vector<topo::DeviceId> devices(base_.device_count());
  std::iota(devices.begin(), devices.end(), topo::DeviceId{0});
  baseline_.adopt(base_epoch_, devices.size());
  CachedValidation run = validator_.run(devices, threads_, baseline_);
  baseline_total_ = run.summary.violations.size();
  auto violation = run.summary.violations.begin();
  for (const auto& [device, print] : run.missed) {
    std::vector<Violation> own;
    for (; violation != run.summary.violations.end() &&
           violation->device == device;
         ++violation) {
      own.push_back(std::move(*violation));
    }
    baseline_.store(device, print, std::move(own));
  }
  (void)simulator_.take_changed_devices();  // the cold run marked everything
}

PrecheckResult PrecheckSession::check(const NetworkChange& change) {
  ++checks_run_;
  PrecheckResult result;
  result.description = change.description;
  result.baseline_violations = baseline_total_;
  result.post_change_violations = baseline_total_;
  try {
    change.apply(emulated_);
    if (emulated_.device_count() != base_.device_count() ||
        emulated_.link_count() != base_.link_count()) {
      // Fabric-shape changes invalidate the per-device baseline; they
      // belong in the cold PrecheckPipeline, not the warm session.
      result.error = "shape-changing change not supported by the warm session";
    }
  } catch (const std::exception& exception) {
    result.error = exception.what();
  }
  if (!result.error.empty()) {
    emulated_ = base_;  // drop any partial mutation; never reconverged
    devices_skipped_ += base_.device_count();
    return result;
  }

  simulator_.checkpoint();
  try {
    simulator_.reconverge();
    evaluate(result);
  } catch (...) {
    roll_back();
    throw;
  }
  roll_back();
  return result;
}

void PrecheckSession::evaluate(PrecheckResult& result) {
  // Only devices reconvergence changed can differ from the baseline; the
  // verdict-cache run fingerprints them on the validator's threads and
  // revalidates those whose table differs.
  const std::vector<topo::DeviceId> changed =
      simulator_.take_changed_devices();
  CachedValidation run = validator_.run(changed, threads_, baseline_);
  devices_revalidated_ += run.missed.size();
  devices_skipped_ += base_.device_count() - run.missed.size();

  std::size_t baseline_on_missed = 0;
  for (const auto& entry : run.missed) {
    baseline_on_missed += baseline_.replay(entry.first, false).violations.size();
  }
  result.post_change_violations =
      baseline_total_ - baseline_on_missed + run.summary.violations.size();
  for (Violation& violation : run.summary.violations) {
    const std::span<const Violation> base =
        baseline_.replay(violation.device, false).violations;
    if (std::find(base.begin(), base.end(), violation) == base.end()) {
      result.introduced.push_back(std::move(violation));
    }
  }
  result.approved = result.introduced.empty();
}

void PrecheckSession::roll_back() {
  last_checkpoint_bytes_ = simulator_.checkpoint_bytes();
  max_checkpoint_bytes_ = std::max(max_checkpoint_bytes_, last_checkpoint_bytes_);
  emulated_ = base_;
  simulator_.rollback();
  devices_restored_ += simulator_.take_changed_devices().size();
}

std::vector<PrecheckResult> PrecheckSession::check_batch(
    const std::vector<NetworkChange>& changes) {
  std::vector<PrecheckResult> results;
  results.reserve(changes.size());
  for (const NetworkChange& change : changes) results.push_back(check(change));
  return results;
}

}  // namespace dcv::rcdc
