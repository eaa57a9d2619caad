#include "common/fault_injector.h"

#include "common/env.h"

namespace st4ml {

Status FaultInjector::MaybeFail(const char* site, const std::string& detail) {
  if (!armed_.load(std::memory_order_acquire)) return Status::Ok();
  bool fire = false;
  std::function<void()> action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return Status::Ok();
    SiteState& state = it->second;
    if (state.run_next) {
      action = std::move(state.run_next);
      state.run_next = nullptr;
    } else if (state.fail_next > 0) {
      --state.fail_next;
      fire = true;
    } else if (state.probability > 0.0 &&
               state.rng.Uniform(0.0, 1.0) < state.probability) {
      fire = true;
    }
  }
  if (action) {
    action();
    return Status::Ok();
  }
  if (!fire) return Status::Ok();
  injected_.fetch_add(1, std::memory_order_relaxed);
  std::string msg = "injected fault at " + std::string(site);
  if (!detail.empty()) msg += ": " + detail;
  return Status::IOError(std::move(msg));
}

void FaultInjector::FailNext(const std::string& site, int times) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site].fail_next = times;
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::RunOnNext(const std::string& site,
                              std::function<void()> action) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site].run_next = std::move(action);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::ArmProbabilistic(const std::string& site,
                                     double probability, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.probability = probability;
  state.rng = Rng(seed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_.store(false, std::memory_order_release);
  injected_.store(0, std::memory_order_relaxed);
}

FaultInjector& GlobalFaultInjector() {
  static FaultInjector* injector = [] {
    auto* created = new FaultInjector();
    double probability = GetEnvDouble("ST4ML_FAULT_PROB", 0.0);
    if (probability > 0.0) {
      created->ArmProbabilistic(
          GetEnvString("ST4ML_FAULT_SITE", fault_site::kStpqRead), probability,
          static_cast<uint64_t>(GetEnvInt("ST4ML_FAULT_SEED", 42)));
    }
    return created;
  }();
  return *injector;
}

}  // namespace st4ml
