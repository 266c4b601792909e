#include "kernels_mix.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/kernels.hpp"
#include "reference.hpp"
#include "tcl/compiler.hpp"

namespace perfbench {

namespace kernels = tasklets::core::kernels;
using tasklets::tvm::HostArg;

std::string_view kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kFib: return "fib";
    case Kernel::kMandelbrotRow: return "mandelbrot_row";
    case Kernel::kSieve: return "sieve";
    case Kernel::kMonteCarloPi: return "monte_carlo_pi";
    case Kernel::kQuicksort: return "quicksort";
    case Kernel::kMatMul: return "matmul";
  }
  return "?";
}

std::string_view kernel_source(Kernel kernel) {
  switch (kernel) {
    case Kernel::kFib: return kernels::kFib;
    case Kernel::kMandelbrotRow: return kernels::kMandelbrotRow;
    case Kernel::kSieve: return kernels::kSieve;
    case Kernel::kMonteCarloPi: return kernels::kMonteCarloPi;
    case Kernel::kQuicksort: return kernels::kQuicksort;
    case Kernel::kMatMul: return kernels::kMatMul;
  }
  return {};
}

KernelCase draw_kernel_case(InputRng& rng) {
  KernelCase c;
  c.kernel = static_cast<Kernel>(rng.below(kKernelCount));
  switch (c.kernel) {
    case Kernel::kFib: {
      const std::int64_t n = rng.range(16, 21);
      c.args = {n};
      c.expected = ref::fib(n);
      break;
    }
    case Kernel::kMandelbrotRow: {
      const std::int64_t width = rng.range(128, 384);
      const std::int64_t row = rng.range(0, width - 1);
      const std::int64_t max_iter = rng.range(64, 256);
      c.args = {width, row, width, -2.0, 1.0, -1.5, 1.5, max_iter};
      c.expected = ref::mandelbrot_row(width, row, width, -2.0, 1.0, -1.5, 1.5,
                                       max_iter);
      break;
    }
    case Kernel::kSieve: {
      const std::int64_t n = rng.range(2'000, 18'000);
      c.args = {n};
      c.expected = ref::count_primes_below(n);
      break;
    }
    case Kernel::kMonteCarloPi: {
      const std::int64_t samples = rng.range(1'500, 25'000);
      const auto seed = static_cast<std::int64_t>(rng.next() >> 16);
      c.args = {samples, seed};
      c.expected = ref::monte_carlo_hits(samples, seed);
      break;
    }
    case Kernel::kQuicksort: {
      const auto size = static_cast<std::size_t>(rng.range(300, 3'000));
      std::vector<std::int64_t> xs(size);
      for (auto& x : xs) x = rng.range(-1'000'000, 1'000'000);
      c.expected = ref::sorted(xs);
      c.args = {std::move(xs)};
      break;
    }
    case Kernel::kMatMul: {
      const std::int64_t n = rng.range(14, 32);
      const auto cells = static_cast<std::size_t>(n * n);
      std::vector<double> a(cells);
      std::vector<double> b(cells);
      for (auto& v : a) v = rng.uniform() * 2.0 - 1.0;
      for (auto& v : b) v = rng.uniform() * 2.0 - 1.0;
      c.expected = ref::matmul(a, b, n);
      c.args = {std::move(a), std::move(b), n};
      break;
    }
  }
  return c;
}

tasklets::tvm::Program compile_or_die(std::string_view source) {
  auto program = tasklets::tcl::compile(source);
  if (!program.is_ok()) {
    std::fprintf(stderr, "kernel compile failed: %s\n",
                 program.status().to_string().c_str());
    std::exit(3);
  }
  return std::move(program).value();
}

}  // namespace perfbench
