#include "ec/decoder.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gf/bitmatrix.h"

namespace tvmec::ec {

namespace {

/// Incremental row-reduction helper: tracks a reduced basis over GF(2^w)
/// and reports whether a new row adds rank.
class RankTracker {
 public:
  explicit RankTracker(const gf::Field& field, std::size_t cols)
      : field_(&field), cols_(cols) {}

  std::size_t rank() const noexcept { return basis_.size(); }

  /// Returns true (and absorbs the row) if it is independent of the basis.
  bool try_add(std::span<const gf::elem_t> row) {
    std::vector<gf::elem_t> v(row.begin(), row.end());
    for (const auto& b : basis_) reduce(v, b);
    const auto lead = leading(v);
    if (!lead) return false;
    normalize(v, *lead);
    basis_.push_back({std::move(v), *lead});
    return true;
  }

 private:
  struct BasisRow {
    std::vector<gf::elem_t> row;  // normalized: row[lead] == 1
    std::size_t lead;
  };

  std::optional<std::size_t> leading(const std::vector<gf::elem_t>& v) const {
    for (std::size_t c = 0; c < cols_; ++c)
      if (v[c] != 0) return c;
    return std::nullopt;
  }

  void normalize(std::vector<gf::elem_t>& v, std::size_t lead) const {
    const gf::elem_t inv = field_->inv(v[lead]);
    for (auto& x : v) x = field_->mul(inv, x);
  }

  void reduce(std::vector<gf::elem_t>& v, const BasisRow& b) const {
    const gf::elem_t f = v[b.lead];
    if (f == 0) return;
    for (std::size_t c = 0; c < cols_; ++c)
      v[c] = gf::Field::add(v[c], field_->mul(f, b.row[c]));
  }

  const gf::Field* field_;
  std::size_t cols_;
  std::vector<BasisRow> basis_;
};

}  // namespace

std::optional<DecodePlan> make_decode_plan(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids) {
  // Every unit id in ascending order: for MDS codes this picks the first
  // k survivors, and for LRC-style codes the rank walk skips redundant
  // local parities.
  std::vector<std::size_t> all(generator.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return make_decode_plan_with_survivors(generator, erased_ids, all);
}

namespace {

/// Total bitmatrix ones of a coefficient matrix (the XOR-work measure).
std::size_t matrix_bitmatrix_ones(const gf::Matrix& m) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    total += gf::row_bitmatrix_ones(m, i);
  return total;
}

}  // namespace

std::optional<DecodePlan> make_decode_plan_optimized(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::size_t max_subsets) {
  auto fallback = make_decode_plan(generator, erased_ids);
  if (!fallback) return std::nullopt;

  const std::size_t k = generator.cols();
  std::vector<std::size_t> survivors_all;
  {
    std::vector<bool> erased_mask(generator.rows(), false);
    for (const std::size_t id : erased_ids) erased_mask[id] = true;
    for (std::size_t id = 0; id < generator.rows(); ++id)
      if (!erased_mask[id]) survivors_all.push_back(id);
  }
  if (survivors_all.size() <= k) return fallback;  // no choice to make

  // Enumerate k-subsets of the survivors up to the budget.
  std::size_t best_ones = matrix_bitmatrix_ones(fallback->recovery);
  std::optional<DecodePlan> best = std::move(fallback);
  std::vector<std::size_t> pick(k);
  std::size_t visited = 0;
  const auto recurse = [&](auto&& self, std::size_t start,
                           std::size_t depth) -> void {
    if (visited >= max_subsets) return;
    if (depth == k) {
      ++visited;
      const gf::Matrix rows = generator.select_rows(pick);
      const auto inv = rows.inverted();
      if (!inv) return;  // dependent subset (possible for non-MDS codes)
      std::vector<std::size_t> erased_vec(erased_ids.begin(),
                                          erased_ids.end());
      gf::Matrix recovery = generator.select_rows(erased_vec).mul(*inv);
      const std::size_t ones = matrix_bitmatrix_ones(recovery);
      if (ones < best_ones) {
        best_ones = ones;
        best = DecodePlan{pick, std::move(erased_vec), std::move(recovery)};
      }
      return;
    }
    for (std::size_t i = start;
         i + (k - depth) <= survivors_all.size() && visited < max_subsets;
         ++i) {
      pick[depth] = survivors_all[i];
      self(self, i + 1, depth + 1);
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

std::optional<DecodePlan> make_decode_plan_with_survivors(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::span<const std::size_t> survivor_ids) {
  const std::size_t n = generator.rows();
  const std::size_t k = generator.cols();
  if (erased_ids.empty())
    throw std::invalid_argument("make_decode_plan: nothing erased");

  std::vector<bool> erased_mask(n, false);
  for (const std::size_t id : erased_ids) {
    if (id >= n)
      throw std::invalid_argument("make_decode_plan: erased id out of range");
    if (erased_mask[id])
      throw std::invalid_argument("make_decode_plan: duplicate erased id " +
                                  std::to_string(id));
    erased_mask[id] = true;
  }

  // Consume the caller's survivors in preference order, never looking
  // outside the given set, so a domain-local plan stays domain-local or
  // fails loudly.
  RankTracker tracker(generator.field(), k);
  std::vector<std::size_t> chosen;
  std::vector<bool> used(n, false);
  for (const std::size_t id : survivor_ids) {
    if (chosen.size() == k) break;
    if (id >= n)
      throw std::invalid_argument(
          "make_decode_plan: survivor id out of range");
    if (erased_mask[id] || used[id]) continue;
    used[id] = true;
    if (tracker.try_add(generator.row(id))) chosen.push_back(id);
  }
  if (chosen.size() < k) return std::nullopt;

  // The plan's survivor list is kept ascending so plans over an
  // identical chosen set compare equal whatever the preference order.
  std::sort(chosen.begin(), chosen.end());
  const gf::Matrix survivor_rows = generator.select_rows(chosen);
  const auto inv = survivor_rows.inverted();
  if (!inv) return std::nullopt;  // cannot happen after the rank check
  std::vector<std::size_t> erased_vec(erased_ids.begin(), erased_ids.end());
  gf::Matrix recovery = generator.select_rows(erased_vec).mul(*inv);
  return DecodePlan{std::move(chosen), std::move(erased_vec),
                    std::move(recovery)};
}

}  // namespace tvmec::ec
