// The queued contended mix shared by the entk-serve service and
// allocation-budget tests: four tenants with weights 1-4 and in-flight
// quotas that bind, three sessions each and twelve active, and a seeded
// mix of small bag, EoP and SAL workloads on 2-4 cores (the shape of
// the serve_mix benchmark). Queued before the drive thread starts, the
// mix drains deterministically: nothing but the drive loop decides
// what dispatches when.
#pragma once

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/workload_file.hpp"
#include "serve/service.hpp"

namespace entk::serve::mix_test {

struct MixTenant {
  const char* name;
  double weight;
  std::size_t max_inflight_units;
};
using MixTenants = MixTenant[4];
inline constexpr MixTenants kMixTenants = {
    {"alpha", 1.0, 24},
    {"beta", 2.0, 32},
    {"gamma", 3.0, 48},
    {"delta", 4.0, 64},
};

/// A Service on `localhost` with `tenants`, each allowed three of its
/// twelve active sessions; nullptr on failure.
inline std::unique_ptr<Service> make_mix_service(
    const MixTenants& tenants = kMixTenants,
    std::size_t drr_quantum = ServiceConfig{}.drr_quantum) {
  ServiceConfig config;
  config.max_active_sessions = 12;
  config.drr_quantum = drr_quantum;
  auto created = Service::create(config);
  if (!created.ok()) return nullptr;
  std::unique_ptr<Service> service = created.take();
  for (const MixTenant& spec : tenants) {
    TenantConfig tenant;
    tenant.weight = spec.weight;
    tenant.max_sessions = 3;
    tenant.max_inflight_units = spec.max_inflight_units;
    if (!service->configure_tenant(spec.name, tenant).is_ok()) {
      return nullptr;
    }
  }
  return service;
}

struct MixWorkload {
  std::string tenant;
  core::WorkloadSpec spec;
  std::size_t units = 0;
};

/// `count` seeded workloads: half 4-12 task bags, a quarter 2-4
/// pipeline two-stage EoPs, a quarter two-iteration SALs, each on 2-4
/// cores with 1-9 s tasks, owned by a uniformly drawn tenant. With
/// `timed`, every task also gets a 12 s execution timeout and one
/// retry, and in a quarter of the workloads each task's first attempt
/// hangs until that timeout kills it.
inline std::vector<MixWorkload> contended_mix(std::uint64_t seed,
                                              std::size_t count,
                                              bool timed = false) {
  Xoshiro256 rng(seed);
  std::vector<MixWorkload> mix;
  for (std::size_t i = 0; i < count; ++i) {
    std::string limits;
    if (timed) {
      limits = "execution_timeout = 12\nmax_retries = 1\n";
      if (rng.uniform() < 0.25) limits += "inject_hang = true\n";
    }
    const auto duration = [&rng, &limits] {
      return std::to_string(
                 static_cast<int>(1.0 + std::floor(9.0 * rng.uniform()))) +
             "\n" + limits;
    };
    std::string text = "backend = sim\nmachine = localhost\ncores = " +
                       std::to_string(2 + rng.uniform_index(3)) +
                       "\nruntime = 36000\nscheduler = backfill\n";
    MixWorkload workload;
    const double kind = rng.uniform();
    if (kind < 0.5) {
      const std::uint64_t tasks = 4 + rng.uniform_index(9);
      text += "pattern = bag\nsimulations = " + std::to_string(tasks) +
              "\n\n[task]\nkernel = misc.sleep\nduration = " + duration();
      workload.units = tasks;
    } else if (kind < 0.75) {
      const std::uint64_t pipelines = 2 + rng.uniform_index(3);
      text += "pattern = eop\nsimulations = " + std::to_string(pipelines) +
              "\nstages = 2\n";
      for (int stage = 1; stage <= 2; ++stage) {
        text += "\n[stage" + std::to_string(stage) +
                "]\nkernel = misc.sleep\nduration = " + duration();
      }
      workload.units = pipelines * 2;
    } else {
      const std::uint64_t sims = 2 + rng.uniform_index(3);
      text += "pattern = sal\niterations = 2\nanalyses = 1\nsimulations = ";
      text += std::to_string(sims) + "\n";
      text += "\n[simulation]\nkernel = misc.sleep\nduration = " + duration();
      text += "\n[analysis]\nkernel = misc.sleep\nduration = " + duration();
      workload.units = 2 * (sims + 1);
    }
    workload.tenant =
        kMixTenants[rng.uniform_index(std::size(kMixTenants))].name;
    auto spec = core::parse_workload(text);
    if (!spec.ok()) return {};
    workload.spec = spec.take();
    mix.push_back(std::move(workload));
  }
  return mix;
}

/// Submits every workload of `mix`; false when one is refused.
inline bool submit_mix(Service& service, const std::vector<MixWorkload>& mix) {
  for (const MixWorkload& workload : mix) {
    if (!service.submit(workload.tenant, workload.spec).ok()) return false;
  }
  return true;
}

/// Units in `mix`.
inline std::size_t mix_units(const std::vector<MixWorkload>& mix) {
  std::size_t units = 0;
  for (const MixWorkload& workload : mix) units += workload.units;
  return units;
}

}  // namespace entk::serve::mix_test
