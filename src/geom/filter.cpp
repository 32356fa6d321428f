#include "geom/filter.hpp"

#if !defined(MSTC_FILTER_FORCE_SCALAR) && defined(__AVX2__)
#define MSTC_FILTER_AVX2 1
#include <immintrin.h>
#elif !defined(MSTC_FILTER_FORCE_SCALAR) && defined(__SSE2__)
#define MSTC_FILTER_SSE2 1
#include <emmintrin.h>
#endif

namespace mstc::geom {

const char* filter_backend_name() noexcept {
#if defined(MSTC_FILTER_AVX2)
  return "avx2";
#elif defined(MSTC_FILTER_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

// mstc:hot — the portable reference half of the filter differential; also
// the block remainder of the wide kernels below
void filter_within_range_scalar(const double* xs, const double* ys,
                                const std::size_t* ids, std::size_t count,
                                Vec2 origin, double range_sq, std::size_t skip,
                                std::vector<std::size_t>& out) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ids[i] == skip) continue;
    if (distance_sq(origin, Vec2{xs[i], ys[i]}) <= range_sq) {
      out.push_back(ids[i]);
    }
  }
}

std::size_t count_within_range_scalar(const double* xs, const double* ys,
                                      std::size_t count, Vec2 origin,
                                      double range_sq) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (distance_sq(origin, Vec2{xs[i], ys[i]}) <= range_sq) ++accepted;
  }
  return accepted;
}

#if defined(MSTC_FILTER_AVX2)

// mstc:hot — one call per medium query / snapshot node; 4-wide blocks
void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out) {
  const __m256d ox = _mm256_set1_pd(origin.x);
  const __m256d oy = _mm256_set1_pd(origin.y);
  const __m256d r2 = _mm256_set1_pd(range_sq);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d dx = _mm256_sub_pd(ox, _mm256_loadu_pd(xs + i));
    const __m256d dy = _mm256_sub_pd(oy, _mm256_loadu_pd(ys + i));
    // Explicit mul then add — never FMA-contracted — so each lane is the
    // scalar predicate's exact sub, mul, mul, add, <= sequence. _CMP_LE_OQ
    // orders like scalar <= (NaN compares false).
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(d2, r2, _CMP_LE_OQ)));
    while (mask != 0) {
      const auto lane = static_cast<unsigned>(__builtin_ctz(mask));
      mask &= mask - 1;
      const std::size_t id = ids[i + lane];
      if (id != skip) out.push_back(id);
    }
  }
  filter_within_range_scalar(xs + i, ys + i, ids + i, count - i, origin,
                             range_sq, skip, out);
}

// mstc:hot — the snapshot physical-degree count; 4-wide blocks
std::size_t count_within_range(const double* xs, const double* ys,
                               std::size_t count, Vec2 origin,
                               double range_sq) {
  const __m256d ox = _mm256_set1_pd(origin.x);
  const __m256d oy = _mm256_set1_pd(origin.y);
  const __m256d r2 = _mm256_set1_pd(range_sq);
  std::size_t accepted = 0;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d dx = _mm256_sub_pd(ox, _mm256_loadu_pd(xs + i));
    const __m256d dy = _mm256_sub_pd(oy, _mm256_loadu_pd(ys + i));
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const auto mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(d2, r2, _CMP_LE_OQ)));
    accepted += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  return accepted +
         count_within_range_scalar(xs + i, ys + i, count - i, origin, range_sq);
}

#elif defined(MSTC_FILTER_SSE2)

// mstc:hot — one call per medium query / snapshot node; 2-wide blocks
void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out) {
  const __m128d ox = _mm_set1_pd(origin.x);
  const __m128d oy = _mm_set1_pd(origin.y);
  const __m128d r2 = _mm_set1_pd(range_sq);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m128d dx = _mm_sub_pd(ox, _mm_loadu_pd(xs + i));
    const __m128d dy = _mm_sub_pd(oy, _mm_loadu_pd(ys + i));
    // Explicit mul then add — never FMA-contracted — so each lane is the
    // scalar predicate's exact sub, mul, mul, add, <= sequence (cmple is
    // ordered: NaN compares false, like scalar <=).
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    unsigned mask = static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(d2, r2)));
    while (mask != 0) {
      const auto lane = static_cast<unsigned>(__builtin_ctz(mask));
      mask &= mask - 1;
      const std::size_t id = ids[i + lane];
      if (id != skip) out.push_back(id);
    }
  }
  filter_within_range_scalar(xs + i, ys + i, ids + i, count - i, origin,
                             range_sq, skip, out);
}

// mstc:hot — the snapshot physical-degree count; 2-wide blocks
std::size_t count_within_range(const double* xs, const double* ys,
                               std::size_t count, Vec2 origin,
                               double range_sq) {
  const __m128d ox = _mm_set1_pd(origin.x);
  const __m128d oy = _mm_set1_pd(origin.y);
  const __m128d r2 = _mm_set1_pd(range_sq);
  std::size_t accepted = 0;
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m128d dx = _mm_sub_pd(ox, _mm_loadu_pd(xs + i));
    const __m128d dy = _mm_sub_pd(oy, _mm_loadu_pd(ys + i));
    const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
    const auto mask =
        static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(d2, r2)));
    accepted += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  return accepted +
         count_within_range_scalar(xs + i, ys + i, count - i, origin, range_sq);
}

#else  // portable build (-DMSTC_FILTER_SCALAR=ON or no SSE2)

void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out) {
  filter_within_range_scalar(xs, ys, ids, count, origin, range_sq, skip, out);
}

std::size_t count_within_range(const double* xs, const double* ys,
                               std::size_t count, Vec2 origin,
                               double range_sq) {
  return count_within_range_scalar(xs, ys, count, origin, range_sq);
}

#endif

}  // namespace mstc::geom
