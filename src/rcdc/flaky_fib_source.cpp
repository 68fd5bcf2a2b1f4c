#include "rcdc/flaky_fib_source.hpp"

#include <algorithm>

#include "net/hash.hpp"

namespace dcv::rcdc {

namespace {

// The outcome of (seed, device, attempt) must not depend on call
// interleaving, which rules out a shared stateful RNG: hash it instead.
using net::mix64;

std::uint64_t hash3(std::uint64_t seed, std::uint64_t device,
                    std::uint64_t attempt) {
  return mix64(mix64(mix64(seed) ^ (device + 1)) ^
               (attempt + 1) * 0x9E3779B9ull);
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Drops the tail of the canonical rule order (descending prefix length),
/// so short prefixes — typically the default route — vanish first, exactly
/// what a pull cut off mid-stream looks like.
routing::ForwardingTable truncate_table(const routing::ForwardingTable& full,
                                        std::uint64_t h) {
  routing::ForwardingTable out;
  if (full.empty()) return out;
  // Keep 30-79% of the rules, at least one.
  const std::size_t keep = std::max<std::size_t>(
      1, full.size() * (30 + h % 50) / 100);
  for (std::size_t i = 0; i < keep; ++i) out.add(full.rules()[i]);
  return out;
}

/// Damages one rule's next-hop set (drops a hop), or drops the rule
/// entirely when it has a single hop — a flipped entry in the pulled text.
routing::ForwardingTable corrupt_table(const routing::ForwardingTable& full,
                                       std::uint64_t h) {
  routing::ForwardingTable out;
  if (full.empty()) return out;
  const std::size_t victim = h % full.size();
  for (std::size_t i = 0; i < full.size(); ++i) {
    routing::Rule rule = full.rules()[i];
    if (i == victim) {
      if (rule.next_hops.size() <= 1) continue;  // rule lost entirely
      rule.next_hops.erase(rule.next_hops.begin() +
                           static_cast<std::ptrdiff_t>(
                               (h >> 8) % rule.next_hops.size()));
    }
    out.add(std::move(rule));
  }
  return out;
}

}  // namespace

std::string FlakyFibSource::Record::to_string(
    const topo::Topology& topology) const {
  return std::string("fetch-") + std::string(rcdc::to_string(kind)) + " at " +
         topology.device(device).name + " (attempt " +
         std::to_string(attempt) + ")";
}

FetchOutcome FlakyFibSource::roll(topo::DeviceId device,
                                  std::uint64_t attempt) const {
  const std::uint64_t h = hash3(config_.seed, device, attempt);
  const double u = to_unit(h);

  double threshold = config_.unreachable_rate;
  if (u < threshold) return FetchOutcome::failure(FetchErrorKind::kUnreachable);
  threshold += config_.timeout_rate;
  if (u < threshold) return FetchOutcome::failure(FetchErrorKind::kTimeout);
  threshold += config_.transient_rate;
  if (u < threshold) return FetchOutcome::failure(FetchErrorKind::kTransient);
  threshold += config_.truncate_rate;
  if (u < threshold) {
    return FetchOutcome::garbage(FetchErrorKind::kTruncatedTable,
                                 truncate_table(inner_->fetch(device), h));
  }
  threshold += config_.corrupt_rate;
  if (u < threshold) {
    return FetchOutcome::garbage(FetchErrorKind::kCorruptedEntry,
                                 corrupt_table(inner_->fetch(device), h));
  }
  return FetchOutcome::success(inner_->fetch(device));
}

FetchOutcome FlakyFibSource::try_fetch(topo::DeviceId device) const {
  std::uint64_t attempt = 0;
  bool dead = false;
  {
    const std::lock_guard lock(mutex_);
    attempt = ++attempts_[device];
    dead = dead_.contains(device);
  }

  FetchOutcome outcome = dead
                             ? FetchOutcome::failure(FetchErrorKind::kUnreachable)
                             : roll(device, attempt);
  if (!outcome.ok()) {
    const std::lock_guard lock(mutex_);
    records_.push_back(
        Record{.device = device, .attempt = attempt, .kind = *outcome.error});
  }
  return outcome;
}

routing::ForwardingTable FlakyFibSource::fetch(topo::DeviceId device) const {
  FetchOutcome outcome = try_fetch(device);
  if (outcome.ok()) return std::move(*outcome.table);
  throw FetchError(*outcome.error,
                   "fetch failed for device " + std::to_string(device) + ": " +
                       std::string(to_string(*outcome.error)));
}

void FlakyFibSource::mark_dead(topo::DeviceId device) {
  const std::lock_guard lock(mutex_);
  dead_.insert(device);
}

void FlakyFibSource::revive(topo::DeviceId device) {
  const std::lock_guard lock(mutex_);
  dead_.erase(device);
}

bool FlakyFibSource::is_dead(topo::DeviceId device) const {
  const std::lock_guard lock(mutex_);
  return dead_.contains(device);
}

std::vector<FlakyFibSource::Record> FlakyFibSource::records() const {
  const std::lock_guard lock(mutex_);
  return records_;
}

void FlakyFibSource::clear_records() {
  const std::lock_guard lock(mutex_);
  records_.clear();
}

}  // namespace dcv::rcdc
