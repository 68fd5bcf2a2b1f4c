#include "gate/gate_service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "net/error.hpp"
#include "rcdc/contract.hpp"
#include "rcdc/precheck_io.hpp"
#include "secguru/nsg.hpp"
#include "secguru/nsg_gate.hpp"

namespace dcv::gate {

namespace {

obs::HttpResponse text_response(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

}  // namespace

GateService::GateService(const topo::Topology& production, GateConfig config)
    : production_(&production),
      config_(config),
      session_(production, config.contract_options, config.precheck_threads),
      nsg_pool_(config.nsg_engines, config.engine_config, config.metrics) {
  if (config_.metrics != nullptr) {
    precheck_approved_ = &config_.metrics->counter(
        "dcv_gate_prechecks_total", "Prechecks served by decision",
        {{"decision", "approved"}});
    precheck_rejected_ = &config_.metrics->counter(
        "dcv_gate_prechecks_total", "Prechecks served by decision",
        {{"decision", "rejected"}});
    nsg_accepted_ = &config_.metrics->counter(
        "dcv_gate_nsg_checks_total", "NSG change checks by decision",
        {{"decision", "accepted"}});
    nsg_rejected_ = &config_.metrics->counter(
        "dcv_gate_nsg_checks_total", "NSG change checks by decision",
        {{"decision", "rejected"}});
    batches_counter_ = &config_.metrics->counter(
        "dcv_gate_precheck_batches_total",
        "Precheck session calls, one per request that reached the emulator");
    batch_size_hist_ = &config_.metrics->histogram(
        "dcv_gate_precheck_batch_size", "Changes per precheck session call");
  }
}

void GateService::attach(obs::HttpServer& server) {
  server_.store(&server, std::memory_order_release);
  server.add_route(
      "POST", "/precheck",
      [this](const obs::HttpRequest& request) {
        return handle_precheck(request);
      },
      config_.precheck_body_bytes);
  server.add_route(
      "POST", "/nsg-check",
      [this](const obs::HttpRequest& request) {
        return handle_nsg_check(request);
      },
      config_.nsg_body_bytes);
  server.add_route("GET", "/gatez", [this](const obs::HttpRequest& request) {
    return handle_gatez(request);
  });
}

std::vector<rcdc::PrecheckResult> GateService::run_session(
    const std::vector<rcdc::NetworkChange>& changes) {
  std::vector<rcdc::PrecheckResult> results;
  {
    const std::lock_guard lock(session_mutex_);
    try {
      results = session_.check_batch(changes);
    } catch (const std::exception& exception) {
      results.assign(changes.size(), rcdc::PrecheckResult{});
      for (rcdc::PrecheckResult& failed : results) {
        failed.error = exception.what();
      }
    }
  }
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  if (batches_counter_ != nullptr) batches_counter_->inc();
  if (batch_size_hist_ != nullptr) batch_size_hist_->observe(changes.size());
  return results;
}

obs::HttpResponse GateService::handle_precheck(
    const obs::HttpRequest& request) {
  if (production_->epoch() != session_.base_epoch()) {
    return text_response(409,
                         "stale gate: production topology epoch moved from " +
                             std::to_string(session_.base_epoch()) + " to " +
                             std::to_string(production_->epoch()) +
                             "; restart the gate against the new topology\n");
  }
  std::vector<rcdc::NetworkChange> changes;
  try {
    changes = rcdc::parse_change_plan(request.body, *production_);
  } catch (const std::exception& exception) {
    return text_response(400, std::string(exception.what()) + "\n");
  }
  if (changes.empty()) {
    return text_response(400, "plan contains no change\n");
  }

  const std::vector<rcdc::PrecheckResult> results = run_session(changes);
  prechecks_served_.fetch_add(results.size(), std::memory_order_relaxed);

  bool all_approved = true;
  bool any_error = false;
  std::ostringstream body;
  for (const rcdc::PrecheckResult& result : results) {
    all_approved = all_approved && result.approved;
    any_error = any_error || !result.error.empty();
    if (precheck_approved_ != nullptr) {
      (result.approved ? precheck_approved_ : precheck_rejected_)->inc();
    }
  }
  body << "decision: " << (all_approved ? "approved" : "rejected") << "\n";
  for (const rcdc::PrecheckResult& result : results) {
    if (!result.error.empty()) {
      body << "ERROR " << result.description << ": " << result.error << "\n";
      continue;
    }
    body << (result.approved ? "APPROVED " : "REJECTED ")
         << result.description << " (baseline " << result.baseline_violations
         << ", after " << result.post_change_violations << ", introduced "
         << result.introduced.size() << ")\n";
    std::size_t shown = 0;
    for (const rcdc::Violation& violation : result.introduced) {
      if (shown++ >= 10) {
        body << "  ... " << (result.introduced.size() - 10) << " more\n";
        break;
      }
      body << "  " << production_->device(violation.device).name << " "
           << (violation.contract.kind == rcdc::ContractKind::kDefault
                   ? "default"
                   : violation.contract.prefix.to_string())
           << " " << to_string(violation.kind) << "\n";
    }
  }
  return text_response(any_error ? 422 : 200, body.str());
}

obs::HttpResponse GateService::handle_nsg_check(
    const obs::HttpRequest& request) {
  const std::string_view space = request.query_param("space");
  if (space.empty()) {
    return text_response(400, "missing query parameter: space=<CIDR>\n");
  }
  std::string name(request.query_param("vnet"));
  if (name.empty()) name = "vnet";
  const bool has_database = request.query_param("db") != "0";

  secguru::VirtualNetwork vnet;
  secguru::Nsg proposed;
  try {
    vnet.name = name;
    vnet.address_space = net::Prefix::parse(space);
    vnet.has_database_instance = has_database;
    vnet.nsg = secguru::Nsg(name);
    proposed = secguru::parse_nsg(request.body, name + "-proposed");
  } catch (const std::exception& exception) {
    return text_response(400, std::string(exception.what()) + "\n");
  }

  secguru::NsgChangeResult result;
  {
    const secguru::FastEnginePool::Lease lease = nsg_pool_.acquire();
    const secguru::NsgGate nsg_gate(*lease);
    result = nsg_gate.try_update(vnet, proposed);
  }
  nsg_checks_served_.fetch_add(1, std::memory_order_relaxed);
  if (nsg_accepted_ != nullptr) {
    (result.accepted ? nsg_accepted_ : nsg_rejected_)->inc();
  }

  std::ostringstream body;
  body << "decision: " << (result.accepted ? "accepted" : "rejected") << "\n";
  body << "contracts checked: " << result.report.contracts_checked << "\n";
  for (const secguru::ContractCheckResult& failure : result.report.failures) {
    body << "FAILED " << failure.contract_name;
    if (failure.witness.has_value()) {
      body << " witness " << failure.witness->to_string();
    }
    if (failure.violating_rule.has_value()) {
      body << " rule #" << *failure.violating_rule;
    }
    body << "\n";
  }
  return text_response(200, body.str());
}

obs::HttpResponse GateService::handle_gatez(
    const obs::HttpRequest& /*request*/) const {
  std::ostringstream body;
  {
    const std::lock_guard lock(session_mutex_);
    body << "change gate:\n"
         << "  base epoch            " << session_.base_epoch() << "\n"
         << "  baseline violations   " << session_.baseline_violations()
         << "\n"
         << "  prechecks served      "
         << prechecks_served_.load(std::memory_order_relaxed) << "\n"
         << "  devices revalidated   " << session_.devices_revalidated()
         << "\n"
         << "  devices skipped       " << session_.devices_skipped() << "\n"
         << "  devices restored      " << session_.devices_restored() << "\n"
         << "  undo log bytes last   " << session_.last_checkpoint_bytes()
         << "\n"
         << "  undo log bytes max    " << session_.max_checkpoint_bytes()
         << "\n";
  }
  body << "  nsg checks served     "
       << nsg_checks_served_.load(std::memory_order_relaxed) << "\n"
       << "  nsg engines           " << nsg_pool_.size() << " ("
       << nsg_pool_.available() << " free)\n";
  return text_response(200, body.str());
}

obs::HealthProbe GateService::wrap_probe(obs::HealthProbe inner,
                                         double max_queue_saturation) const {
  return [this, inner = std::move(inner), max_queue_saturation]() {
    obs::HealthSnapshot snapshot = inner ? inner() : obs::HealthSnapshot{};
    const obs::HttpServer* server = server_.load(std::memory_order_acquire);
    if (server != nullptr) {
      const double saturation = server->queue_saturation();
      if (saturation > max_queue_saturation) {
        snapshot.ready = false;
        snapshot.detail += "gate: request queue saturation " +
                           std::to_string(saturation) + " above " +
                           std::to_string(max_queue_saturation) + "\n";
      }
    }
    return snapshot;
  };
}

}  // namespace dcv::gate
