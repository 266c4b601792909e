// Native C++ references for every VM computation the benchmark checks.
//
// Each function computes what the corresponding TCL kernel (core/kernels.cpp
// and the DAG stage kernels in simulated.cpp) must return, without the VM.
// Where the kernel's own algorithm is not part of its specification the
// reference uses a different one (iterative Fibonacci, std::sort), so a
// shared mistake cannot pass. self_check() pins each reference to constants
// known independently of this code, so a reference cannot simply mirror
// the VM's output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::ref {

std::int64_t fib(std::int64_t n);
std::vector<std::int64_t> mandelbrot_row(std::int64_t width, std::int64_t row,
                                         std::int64_t height, double x0,
                                         double x1, double y0, double y1,
                                         std::int64_t max_iter);
// Points of the drand48-constant LCG stream that land in the unit circle.
std::int64_t monte_carlo_hits(std::int64_t samples, std::int64_t seed);
std::vector<double> matmul(const std::vector<double>& a,
                           const std::vector<double>& b, std::int64_t n);
std::int64_t count_primes_below(std::int64_t n);
std::vector<std::int64_t> sorted(std::vector<std::int64_t> xs);

// pool_sim's DAG stages: element-wise shift, element-wise sum, total.
std::vector<std::int64_t> shift(const std::vector<std::int64_t>& xs,
                                std::int64_t salt);
std::vector<std::int64_t> combine(const std::vector<std::int64_t>& a,
                                  const std::vector<std::int64_t>& b);
std::int64_t total(const std::vector<std::int64_t>& xs);

// Empty when every reference reproduces its known constants and
// properties; otherwise a description of the first mismatch.
[[nodiscard]] std::string self_check();

}  // namespace perfbench::ref
