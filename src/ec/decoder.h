#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/gf_matrix.h"

/// Decode planning: turning "these units are lost" into a coefficient
/// matrix over the survivors. Because decoding an erasure code is "encode
/// with a different matrix" (paper §2: "the decoding process is very
/// similar to that of encoding"), every backend — including the GEMM one —
/// executes a DecodePlan through its ordinary encoding path.
namespace tvmec::ec {

/// A plan for recovering erased units from surviving ones.
struct DecodePlan {
  /// The unit ids (rows of the generator) the plan reads, ascending.
  /// make_decode_plan always chooses exactly k linearly independent
  /// survivors; locality-aware planners (LRC) may read fewer.
  std::vector<std::size_t> survivors;
  /// The erased unit ids the plan reconstructs, in input order.
  std::vector<std::size_t> erased;
  /// erased.size() x survivors.size() matrix:
  /// erased units = recovery * survivor units.
  gf::Matrix recovery;
};

/// Builds a decode plan against an arbitrary (n x k) generator matrix
/// whose row i generates unit i.
///
/// Works for MDS codes (any k survivors suffice) and for non-MDS codes
/// such as LRCs (a linearly independent survivor subset is searched for).
/// Returns nullopt when the erasure pattern is unrecoverable. Throws
/// std::invalid_argument on out-of-range or duplicate erased ids.
/// Equivalent to make_decode_plan_with_survivors over every unit id in
/// ascending order.
std::optional<DecodePlan> make_decode_plan(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids);

/// Repair-optimized planning: for small erasure counts, *which* k
/// survivors are read changes the density of the recovery matrix and
/// thus the XOR work of the repair (the schedule-selection idea of Luo
/// et al., applied to survivor choice). Enumerates survivor subsets (up
/// to `max_subsets`, default exhaustive for e <= 2 at storage-system n)
/// and returns the plan whose recovery bitmatrix has the fewest ones.
/// Falls back to make_decode_plan's greedy choice when enumeration is
/// too large. Same recoverability semantics as make_decode_plan.
std::optional<DecodePlan> make_decode_plan_optimized(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::size_t max_subsets = 2048);

/// Placement-aware planning: builds a plan that reads *only* from
/// `survivor_ids`, in the caller's preference order (the cluster passes
/// failure-domain-local helpers first, so repair traffic stays inside a
/// domain when rank allows). Survivors are consumed greedily in the
/// given order until k independent rows are found; returns nullopt when
/// the preferred set cannot recover the pattern — callers then widen
/// the set rather than getting a silently different plan. Ids appearing
/// in `erased_ids` are skipped. Same validation as make_decode_plan.
std::optional<DecodePlan> make_decode_plan_with_survivors(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::span<const std::size_t> survivor_ids);

}  // namespace tvmec::ec
