#include "rcdc/resilient_fib_source.hpp"

#include <algorithm>
#include <thread>

#include "net/hash.hpp"

namespace dcv::rcdc {

namespace {

using net::mix64;

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::chrono::steady_clock::time_point SystemFetchClock::now() {
  return std::chrono::steady_clock::now();
}

void SystemFetchClock::sleep_for(std::chrono::nanoseconds duration) {
  if (duration.count() > 0) std::this_thread::sleep_for(duration);
}

std::chrono::steady_clock::time_point ManualFetchClock::now() {
  const std::lock_guard lock(mutex_);
  return now_;
}

void ManualFetchClock::sleep_for(std::chrono::nanoseconds duration) {
  advance(duration);
}

void ManualFetchClock::advance(std::chrono::nanoseconds duration) {
  const std::lock_guard lock(mutex_);
  if (duration.count() > 0) now_ += duration;
}

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

ResilientFibSource::ResilientFibSource(const FibSource& inner,
                                       ResilienceConfig config,
                                       FetchClock* clock)
    : inner_(&inner), config_(config), clock_(clock) {
  if (clock_ == nullptr) clock_ = &system_clock_;
  config_.retry.max_attempts = std::max(1u, config_.retry.max_attempts);
  config_.breaker.failure_threshold =
      std::max(1u, config_.breaker.failure_threshold);
  if (obs::MetricsRegistry* registry = config_.metrics;
      registry != nullptr) {
    attempts_hist_ = &registry->histogram(
        "dcv_fetch_attempts", "Pull attempts needed per fetch");
    attempts_total_ = &registry->counter("dcv_fetch_attempts_total",
                                         "Total pull attempts issued");
    retries_total_ = &registry->counter(
        "dcv_fetch_retries_total", "Pull attempts beyond the first");
    backoff_sleep_ns_total_ = &registry->counter(
        "dcv_fetch_backoff_sleep_ns_total",
        "Total time slept in retry backoff");
    deadline_hits_total_ = &registry->counter(
        "dcv_fetch_deadline_hits_total",
        "Retry loops cut short by the per-fetch deadline");
    stale_served_total_ = &registry->counter(
        "dcv_fetch_stale_served_total",
        "Fetches answered from the stale-table cache");
    short_circuits_total_ = &registry->counter(
        "dcv_fetch_short_circuits_total",
        "Fetches short-circuited by an open breaker");
    breaker_to_open_ = &registry->counter(
        "dcv_fetch_breaker_transitions_total",
        "Circuit-breaker transitions, by target state",
        {{"to", "open"}});
    breaker_to_half_open_ = &registry->counter(
        "dcv_fetch_breaker_transitions_total",
        "Circuit-breaker transitions, by target state",
        {{"to", "half_open"}});
    breaker_to_closed_ = &registry->counter(
        "dcv_fetch_breaker_transitions_total",
        "Circuit-breaker transitions, by target state",
        {{"to", "closed"}});
  }
}

std::chrono::nanoseconds ResilientFibSource::backoff_before(
    topo::DeviceId device, std::uint32_t attempt) const {
  const RetryPolicy& retry = config_.retry;
  double backoff_ns = static_cast<double>(retry.initial_backoff.count());
  for (std::uint32_t i = 1; i < attempt; ++i) {
    backoff_ns *= retry.backoff_multiplier;
  }
  backoff_ns = std::min(backoff_ns,
                        static_cast<double>(retry.max_backoff.count()));
  const double u = to_unit(
      mix64(mix64(config_.seed ^ (device + 1)) ^ (attempt + 0x51ull)));
  const double jitter = std::clamp(retry.jitter, 0.0, 1.0);
  backoff_ns *= 1.0 - jitter + 2.0 * jitter * u;
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(std::max(0.0, backoff_ns)));
}

FetchOutcome ResilientFibSource::try_fetch(topo::DeviceId device) const {
  const auto now = clock_->now();
  bool probing = false;

  // Builds the outcome for a fetch refused by an open (or probe-busy)
  // breaker: the device is never contacted; the stale cache may still
  // answer. Caller must hold mutex_.
  const auto short_circuit = [&](DeviceState& st) {
    ++stats_.short_circuits;
    if (short_circuits_total_ != nullptr) short_circuits_total_->inc();
    FetchOutcome out = FetchOutcome::failure(FetchErrorKind::kUnreachable);
    out.attempts = 0;
    out.breaker_open = true;
    if (config_.serve_stale && st.has_cache) {
      out.table = st.cached_table;
      out.stale = true;
      out.staleness = now - st.cached_at;
      ++stats_.stale_served;
      if (stale_served_total_ != nullptr) stale_served_total_->inc();
    }
    return out;
  };

  {
    const std::lock_guard lock(mutex_);
    ++stats_.fetches;
    DeviceState& st = state_[device];
    if (st.breaker == BreakerState::kOpen) {
      if (now - st.opened_at < config_.breaker.cool_down) {
        return short_circuit(st);
      }
      st.breaker = BreakerState::kHalfOpen;
      if (breaker_to_half_open_ != nullptr) breaker_to_half_open_->inc();
    }
    if (st.breaker == BreakerState::kHalfOpen) {
      if (st.probe_inflight) return short_circuit(st);
      st.probe_inflight = true;
      probing = true;
      ++stats_.half_open_probes;
    }
  }

  // Attempt loop with exponential backoff + jitter under the per-fetch
  // deadline. A half-open probe gets a single attempt: its job is to test
  // the device, not to burn the retry budget.
  const auto start = clock_->now();
  const std::uint32_t budget = probing ? 1u : config_.retry.max_attempts;
  std::uint32_t attempts = 0;
  bool deadline_hit = false;
  std::uint64_t backoff_slept_ns = 0;
  FetchOutcome last;
  while (true) {
    ++attempts;
    last = inner_->try_fetch(device);
    if (last.ok()) break;
    if (attempts >= budget) break;
    const auto backoff = backoff_before(device, attempts);
    if (clock_->now() + backoff - start > config_.retry.fetch_deadline) {
      deadline_hit = true;
      break;
    }
    clock_->sleep_for(backoff);
    backoff_slept_ns += static_cast<std::uint64_t>(backoff.count());
  }
  if (attempts_hist_ != nullptr) {
    attempts_hist_->observe(attempts);
    attempts_total_->inc(attempts);
    if (attempts > 1) retries_total_->inc(attempts - 1);
    if (backoff_slept_ns > 0) backoff_sleep_ns_total_->inc(backoff_slept_ns);
    if (deadline_hit) deadline_hits_total_->inc();
  }

  if (last.ok()) {
    const std::lock_guard lock(mutex_);
    stats_.retries += attempts - 1;
    DeviceState& st = state_[device];
    if (st.breaker != BreakerState::kClosed &&
        breaker_to_closed_ != nullptr) {
      breaker_to_closed_->inc();
    }
    st.breaker = BreakerState::kClosed;
    st.consecutive_failures = 0;
    st.probe_inflight = false;
    st.has_cache = true;
    st.cached_table = *last.table;
    st.cached_at = clock_->now();
    last.attempts = attempts;
    return last;
  }

  // Exhausted: advance the breaker and fall back to the stale cache. The
  // last good table beats fresh garbage, so a cached table also replaces a
  // truncated/corrupted one (the error kind is kept for accounting).
  bool tripped = false;
  {
    const std::lock_guard lock(mutex_);
    stats_.retries += attempts - 1;
    ++stats_.exhausted;
    if (deadline_hit) ++stats_.deadline_hits;
    DeviceState& st = state_[device];
    if (probing) {
      st.breaker = BreakerState::kOpen;
      st.opened_at = clock_->now();
      st.probe_inflight = false;
      ++stats_.breaker_opens;
      tripped = true;
    } else {
      ++st.consecutive_failures;
      if (st.breaker == BreakerState::kClosed &&
          st.consecutive_failures >= config_.breaker.failure_threshold) {
        st.breaker = BreakerState::kOpen;
        st.opened_at = clock_->now();
        ++stats_.breaker_opens;
        tripped = true;
      }
    }
    if (tripped && breaker_to_open_ != nullptr) breaker_to_open_->inc();
    if (config_.serve_stale && st.has_cache) {
      last.table = st.cached_table;
      last.stale = true;
      last.staleness = clock_->now() - st.cached_at;
      ++stats_.stale_served;
      if (stale_served_total_ != nullptr) stale_served_total_->inc();
    }
  }
  last.attempts = attempts;
  last.breaker_tripped = tripped;
  return last;
}

routing::ForwardingTable ResilientFibSource::fetch(
    topo::DeviceId device) const {
  FetchOutcome outcome = try_fetch(device);
  if (outcome.has_table()) return std::move(*outcome.table);
  throw FetchError(*outcome.error,
                   "fetch failed for device " + std::to_string(device) +
                       " after " + std::to_string(outcome.attempts) +
                       " attempts: " + std::string(to_string(*outcome.error)));
}

ResilienceStats ResilientFibSource::stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

BreakerState ResilientFibSource::breaker_state(topo::DeviceId device) const {
  const std::lock_guard lock(mutex_);
  const auto it = state_.find(device);
  return it == state_.end() ? BreakerState::kClosed : it->second.breaker;
}

}  // namespace dcv::rcdc
