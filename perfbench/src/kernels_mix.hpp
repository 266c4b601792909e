// The kernels mix: six core/kernels programs with seeded arguments sized to
// ~0.2-5 ms of VM time each, and the expected result of every drawn case
// from the native references. kernels_sim runs it in the simulator; the
// layer probes run it on the threaded runtime and through bare tvm calls.
#pragma once

#include <string_view>
#include <vector>

#include "bench.hpp"
#include "tvm/marshal.hpp"
#include "tvm/program.hpp"

namespace perfbench {

enum class Kernel : std::size_t {
  kFib = 0,
  kMandelbrotRow,
  kSieve,
  kMonteCarloPi,
  kQuicksort,
  kMatMul,
};
inline constexpr std::size_t kKernelCount = 6;

[[nodiscard]] std::string_view kernel_name(Kernel kernel);
[[nodiscard]] std::string_view kernel_source(Kernel kernel);

struct KernelCase {
  Kernel kernel = Kernel::kFib;
  std::vector<tasklets::tvm::HostArg> args;
  tasklets::tvm::HostArg expected;
};

// Draws one case (kernel uniformly, then its size) and computes the
// expected result natively.
[[nodiscard]] KernelCase draw_kernel_case(InputRng& rng);

// Compiles one TCL source or exits the process (the kernels are fixed
// sources; failing to compile them is a broken build).
[[nodiscard]] tasklets::tvm::Program compile_or_die(std::string_view source);

}  // namespace perfbench
