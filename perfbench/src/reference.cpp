#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace perfbench::ref {

std::int64_t fib(std::int64_t n) {
  std::int64_t a = 0;
  std::int64_t b = 1;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

// The kernel's float arithmetic is IEEE double evaluated left to right; this
// file is built with -ffp-contract=off so no step is fused either.
std::vector<std::int64_t> mandelbrot_row(std::int64_t width, std::int64_t row,
                                         std::int64_t height, double x0,
                                         double x1, double y0, double y1,
                                         std::int64_t max_iter) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(width));
  const double ci = y0 + (y1 - y0) * static_cast<double>(row) /
                             static_cast<double>(height);
  for (std::int64_t col = 0; col < width; ++col) {
    const double cr = x0 + (x1 - x0) * static_cast<double>(col) /
                               static_cast<double>(width);
    double zr = 0.0;
    double zi = 0.0;
    std::int64_t iter = 0;
    while (iter < max_iter && zr * zr + zi * zi <= 4.0) {
      const double tmp = zr * zr - zi * zi + cr;
      zi = 2.0 * zr * zi + ci;
      zr = tmp;
      ++iter;
    }
    out[static_cast<std::size_t>(col)] = iter;
  }
  return out;
}

std::int64_t monte_carlo_hits(std::int64_t samples, std::int64_t seed) {
  constexpr std::uint64_t kA = 25214903917ULL;
  constexpr std::uint64_t kC = 11;
  constexpr std::uint64_t kMask = (1ULL << 48) - 1;
  constexpr double kScale = 281474976710656.0;  // 2^48
  auto state = static_cast<std::uint64_t>(seed);
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < samples; ++i) {
    state = (state * kA + kC) & kMask;
    const double x = static_cast<double>(state) / kScale;
    state = (state * kA + kC) & kMask;
    const double y = static_cast<double>(state) / kScale;
    if (x * x + y * y <= 1.0) ++hits;
  }
  return hits;
}

std::vector<double> matmul(const std::vector<double>& a,
                           const std::vector<double>& b, std::int64_t n) {
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> c(size * size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < size; ++k) sum = sum + a[i * size + k] * b[k * size + j];
      c[i * size + j] = sum;
    }
  }
  return c;
}

std::int64_t count_primes_below(std::int64_t n) {
  if (n < 3) return 0;
  std::vector<bool> composite(static_cast<std::size_t>(n), false);
  std::int64_t count = 0;
  for (std::int64_t i = 2; i < n; ++i) {
    if (composite[static_cast<std::size_t>(i)]) continue;
    ++count;
    for (std::int64_t j = i * i; j < n; j += i) {
      composite[static_cast<std::size_t>(j)] = true;
    }
  }
  return count;
}

std::vector<std::int64_t> sorted(std::vector<std::int64_t> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

std::vector<std::int64_t> shift(const std::vector<std::int64_t>& xs,
                                std::int64_t salt) {
  std::vector<std::int64_t> out(xs);
  for (auto& x : out) x += salt;
  return out;
}

std::vector<std::int64_t> combine(const std::vector<std::int64_t>& a,
                                  const std::vector<std::int64_t>& b) {
  std::vector<std::int64_t> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::int64_t total(const std::vector<std::int64_t>& xs) {
  std::int64_t acc = 0;
  for (const auto x : xs) acc += x;
  return acc;
}

std::string self_check() {
  // Fibonacci numbers and prime counts from the standard tables.
  if (fib(0) != 0 || fib(1) != 1 || fib(10) != 55 || fib(20) != 6765 ||
      fib(30) != 832040) {
    return "fib disagrees with the Fibonacci table";
  }
  if (count_primes_below(2) != 0 || count_primes_below(3) != 1 ||
      count_primes_below(100) != 25 || count_primes_below(10000) != 1229 ||
      count_primes_below(1000000) != 78498) {
    return "prime count disagrees with pi(x) (25 below 100, 1229 below 10^4)";
  }
  // Escape counts worked by hand: c = 0 and c = -1 never escape; c = 1
  // runs 0 -> 1 -> 2 -> 5, escaping on the third step; c = 2 escapes on
  // the second (0 -> 2 -> 6).
  {
    const auto row = mandelbrot_row(4, 1, 2, -1.0, 3.0, -1.0, 1.0, 50);
    // ci = 0; cr = -1, 0, 1, 2.
    if (row != std::vector<std::int64_t>{50, 50, 3, 2}) {
      return "mandelbrot escape counts disagree with the worked values";
    }
  }
  // The LCG's hit rate estimates pi/4: within 5 sigma for 10^6 samples.
  {
    const double n = 1e6;
    const double p = monte_carlo_hits(1000000, 12345) / n;
    const double sigma = std::sqrt(p * (1.0 - p) / n);
    if (std::fabs(p - std::numbers::pi / 4.0) > 5.0 * sigma) {
      return "monte-carlo hit rate is not pi/4";
    }
  }
  if (matmul({1, 2, 3, 4}, {5, 6, 7, 8}, 2) != std::vector<double>{19, 22, 43, 50}) {
    return "matmul disagrees with the worked 2x2 product";
  }
  {
    const std::vector<std::int64_t> xs = {5, -3, 9, 9, 0, -3, 7};
    const auto s = sorted(xs);
    if (!std::is_sorted(s.begin(), s.end()) ||
        !std::is_permutation(s.begin(), s.end(), xs.begin())) {
      return "sort output is not a sorted permutation";
    }
  }
  if (total(combine(shift({1, 2, 3}, 10), {1, 1, 1})) != 39) {
    return "DAG stage references disagree with the worked sum";
  }
  return {};
}

}  // namespace perfbench::ref
