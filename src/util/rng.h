// Deterministic pseudo-random number generator.
//
// Every source of randomness in this repository flows through Rng so that a
// (seed, algorithm) pair fully determines an execution. This mirrors the
// paper's determinism requirement (§3.2): given a schedule, a run must be
// reproducible bit-for-bit.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aitia {

// The splitmix64 output function: a bijective 64-bit mix, so nearby inputs
// (consecutive nonces, or a running hash and the next field folded into it)
// map to unrelated outputs.
uint64_t Mix64(uint64_t x);

// xoshiro256** — small, fast, and good enough for schedule fuzzing.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over the full 64-bit range.
  uint64_t Next();

  // Uniform in [0, bound). `bound` must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // True with probability `numerator / denominator`.
  bool Chance(uint64_t numerator, uint64_t denominator);

  // Picks a uniformly random element index of a non-empty container size.
  size_t PickIndex(size_t size) { return static_cast<size_t>(NextBelow(size)); }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = PickIndex(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace aitia

#endif  // SRC_UTIL_RNG_H_
