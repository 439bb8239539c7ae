#include "src/server/plan_server.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

namespace ooctree::server {

namespace {

std::shared_ptr<const service::PlanStats> shed_stats(Admission verdict) {
  auto stats = std::make_shared<service::PlanStats>();
  stats->ok = false;
  switch (verdict) {
    case Admission::kShedFull:
      stats->error = "shed: admission queue at capacity";
      break;
    case Admission::kShedTimeout:
      stats->error = "shed: no admission slot freed before the deadline";
      break;
    case Admission::kShedClosed:
      stats->error = "shed: server is shutting down";
      break;
    case Admission::kAdmitted:
      stats->error = "shed: internal error (admitted request shed)";
      break;
  }
  return stats;
}

}  // namespace

PlanServer::PlanServer(ServerConfig config)
    : config_([&] {
        if (config.service.threads == 0) config.service.threads = 1;
        if (config.workers == 0) config.workers = 1;
        if (config.fuse_limit == 0) config.fuse_limit = 1;
        return config;
      }()),
      service_(config_.service),
      admission_(config_.admission),
      sched_(config_.default_weight, config_.tenant_inflight_cap) {
  for (const TenantWeight& w : config_.weights) sched_.set_weight(w.tenant, w.weight);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PlanServer::~PlanServer() {
  admission_.close();  // new submits shed as kShedClosed from here on
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

ServerResponse PlanServer::shed_response(const service::PlanRequest& request,
                                         Admission verdict) const {
  ServerResponse response;
  response.plan.id = request.id;
  response.plan.stats = shed_stats(verdict);
  response.plan.served = service::Served::kShed;
  response.tenant = request.tenant;
  response.shed = true;
  return response;
}

std::future<ServerResponse> PlanServer::submit(service::PlanRequest request) {
  std::promise<ServerResponse> promise;
  std::future<ServerResponse> future = promise.get_future();
  const Admission verdict = admission_.acquire();
  if (verdict != Admission::kAdmitted) {
    promise.set_value(shed_response(request, verdict));
    return future;
  }
  // Hashed once, outside the lock: the fusion key is also the identity the
  // service's tree-pass cache looks the request up under.
  const std::uint64_t fusion =
      service::tree_identity(request, service::effective_seed(request, config_.service.seed));
  {
    const std::lock_guard lock(mutex_);
    if (stop_) {
      // The destructor won the race between acquire() and this lock; the
      // workers may already be past their final drain, so the request
      // cannot safely be queued — resolve it as shed-closed instead.
      admission_.release();
      promise.set_value(shed_response(request, Admission::kShedClosed));
      return future;
    }
    Item item;
    item.fusion = fusion;
    item.promise = std::move(promise);
    const std::string tenant = request.tenant;
    item.request = std::move(request);
    sched_.push(tenant, std::move(item));
  }
  work_cv_.notify_one();
  return future;
}

void PlanServer::worker_loop() {
  for (;;) {
    std::vector<std::pair<std::string, Item>> group;  // (tenant, item)
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] {
        return sched_.eligible() || (stop_ && sched_.queued() == 0);
      });
      if (!sched_.eligible()) {
        if (stop_ && sched_.queued() == 0) return;
        continue;  // queued work exists but every owner is capped — re-wait
      }
      auto lead = sched_.pop();
      if (!lead.has_value()) continue;
      group.push_back(std::move(*lead));
      if (config_.fuse && config_.fuse_limit > 1) {
        const std::uint64_t fusion = group.front().second.fusion;
        auto riders = sched_.extract_if(
            [fusion](const Item& item) { return item.fusion == fusion; },
            config_.fuse_limit - 1);
        for (auto& rider : riders) group.push_back(std::move(rider));
      }
      for (auto& [tenant, item] : group) {
        item.seq = ++seq_;
        item.wait_seconds = item.waited.seconds();
      }
      ++busy_;
    }
    // Slots free as soon as the group leaves the queue: admission bounds
    // *queued* requests, and the per-tenant in-flight caps bound execution.
    admission_.release(group.size());
    dispatched_.fetch_add(group.size());
    if (group.size() > 1) {
      fused_groups_.fetch_add(1);
      fused_requests_.fetch_add(group.size());
    }

    // The group's requests move into the batch; the tenants stay in `group`.
    std::vector<service::PlanRequest> requests;
    std::vector<std::uint64_t> identities;
    requests.reserve(group.size());
    identities.reserve(group.size());
    for (auto& [tenant, item] : group) {
      requests.push_back(std::move(item.request));
      identities.push_back(item.fusion);
    }
    std::vector<service::PlanResponse> plans;
    try {
      if (group.size() == 1)
        plans.push_back(service_.plan(requests.front(), identities.front()));
      else
        plans = service_.plan_fused(requests, identities);
    } catch (const std::exception& e) {
      // plan()/plan_fused() answer bad requests ok=false rather than
      // throwing; this catches allocation-class failures so the promises
      // below are still always fulfilled.
      plans.clear();
      for (const service::PlanRequest& request : requests) {
        service::PlanResponse failed;
        failed.id = request.id;
        auto stats = std::make_shared<service::PlanStats>();
        stats->ok = false;
        stats->error = e.what();
        failed.stats = std::move(stats);
        plans.push_back(std::move(failed));
      }
    }

    for (std::size_t i = 0; i < group.size(); ++i) {
      auto& [tenant, item] = group[i];
      ServerResponse response;
      response.plan = std::move(plans[i]);
      response.tenant = tenant;
      response.dispatch_seq = item.seq;
      response.wait_seconds = item.wait_seconds;
      item.promise.set_value(std::move(response));
    }

    {
      const std::lock_guard lock(mutex_);
      for (const auto& [tenant, item] : group) sched_.end_inflight(tenant);
      --busy_;
    }
    work_cv_.notify_all();  // freed cap room may make a capped tenant eligible
    idle_cv_.notify_all();
  }
}

bool PlanServer::overloaded() const { return admission_.overloaded(); }

void PlanServer::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return sched_.queued() == 0 && busy_ == 0; });
}

ServerStats PlanServer::stats() const {
  ServerStats out;
  out.admission = admission_.counters();
  out.dispatched = dispatched_.load();
  out.fused_groups = fused_groups_.load();
  out.fused_requests = fused_requests_.load();
  {
    const std::lock_guard lock(mutex_);
    out.queued = sched_.queued();
    out.tenants = sched_.counters();
  }
  out.service = service_.stats();
  return out;
}

}  // namespace ooctree::server
