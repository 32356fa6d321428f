// Batched SoA range filtering for conservative-radius candidate sets.
//
// The medium's receiver queries and the snapshot sweep both end in the
// same inner loop: re-check every grid candidate against the *exact*
// range with scalar distance_sq. At paper density that loop touches ~2x
// the accepted set per broadcast; this kernel evaluates the predicate
//
//     (origin.x - xs[i])^2 + (origin.y - ys[i])^2 <= range_sq
//
// in explicit 4-wide (AVX2) or 2-wide (SSE2) blocks over caller-filled
// SoA coordinate arrays, emitting accepted ids in the input (ascending)
// order.
//
// Bit-identity contract: every lane performs the IEEE-754 double sequence
// sub, mul, mul, add, compare — operation-for-operation the scalar
// geom::distance_sq(origin, p) <= range_sq predicate — and the block
// remainder falls through to literally that scalar expression. The wide
// path uses explicit mul+add intrinsics, never FMA contraction, so a
// build with -mavx2 (and without -mfma) accepts exactly the same
// candidates as the portable loop; tests/geom/filter_test.cpp
// byte-compares the two, and the scalar-forced CI build runs the medium and
// snapshot grid suites against the brute scan on the portable loop.
//
// Backend selection is at configure time: AVX2 when the TU is compiled
// with -mavx2, else SSE2 (x86-64 baseline), else the portable scalar
// loop; -DMSTC_FILTER_SCALAR=ON forces the scalar build. The *_scalar
// entry points are always the portable loop, so one binary carries both
// sides of the differential.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace mstc::geom {

/// `skip` value meaning "exclude no id" (no candidate carries it).
inline constexpr std::size_t kFilterNoSkip = static_cast<std::size_t>(-1);

/// Name of the compiled-in wide backend: "avx2", "sse2", or "scalar".
[[nodiscard]] const char* filter_backend_name() noexcept;

/// Portable reference: appends ids[i] (in input order) for every i with
/// distance_sq(origin, {xs[i], ys[i]}) <= range_sq, except ids[i] == skip.
void filter_within_range_scalar(const double* xs, const double* ys,
                                const std::size_t* ids, std::size_t count,
                                Vec2 origin, double range_sq, std::size_t skip,
                                std::vector<std::size_t>& out);

/// Wide kernel: same contract as the scalar reference, byte-identical
/// output (see file header for the arithmetic argument).
void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out);

/// Portable reference: number of i with
/// distance_sq(origin, {xs[i], ys[i]}) <= range_sq (no id emission, no
/// skip — callers subtract self-matches themselves).
[[nodiscard]] std::size_t count_within_range_scalar(const double* xs,
                                                    const double* ys,
                                                    std::size_t count,
                                                    Vec2 origin,
                                                    double range_sq);

/// Wide kernel: same count as the scalar reference.
[[nodiscard]] std::size_t count_within_range(const double* xs,
                                             const double* ys,
                                             std::size_t count, Vec2 origin,
                                             double range_sq);

}  // namespace mstc::geom
