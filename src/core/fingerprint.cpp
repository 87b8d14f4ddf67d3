#include "core/fingerprint.hpp"

namespace mfa::core {

Fingerprint relaxation_fingerprint(const Problem& problem) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(problem.num_kernels()));
  for (const Kernel& k : problem.app.kernels) {
    fp.mix(k.wcet_ms);
    for (std::size_t axis = 0; axis < kNumResources; ++axis) {
      fp.mix(k.res.axis(axis));
    }
    fp.mix(k.bw);
  }
  fp.mix(static_cast<std::uint64_t>(problem.num_fpgas()));
  if (problem.platform.homogeneous()) {
    // Seed key layout, preserved so homogeneous keys stay stable.
    const ResourceVec cap = problem.cap();
    for (std::size_t axis = 0; axis < kNumResources; ++axis) {
      fp.mix(cap.axis(axis));
    }
    fp.mix(problem.bw_cap());
  } else {
    // Heterogeneous: the effective cap of *every* FPGA is a solve input
    // (pooled constraints and per-kernel CU bounds both depend on the
    // class vector), so key on the full per-FPGA cap sequence. The tag
    // separates the layout from a homogeneous key that happens to start
    // with the same numbers.
    fp.mix(std::uint64_t{0x4e7e90});  // layout tag: per-FPGA caps
    for (int f = 0; f < problem.num_fpgas(); ++f) {
      const ResourceVec cap = problem.cap(f);
      for (std::size_t axis = 0; axis < kNumResources; ++axis) {
        fp.mix(cap.axis(axis));
      }
      fp.mix(problem.bw_cap(f));
    }
  }
  return fp;
}

}  // namespace mfa::core
