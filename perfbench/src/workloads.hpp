/// \file workloads.hpp
/// \brief The four workloads (see README.md for their make-up).
#pragma once

#include <cstdint>
#include <memory>

#include "harness.hpp"

namespace perfbench {

[[nodiscard]] std::unique_ptr<Workload> make_fig3_campaign(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_dbf_sensitivity(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_sim_missions(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_queries(std::uint64_t seed);

}  // namespace perfbench
