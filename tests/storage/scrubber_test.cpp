#include "storage/scrubber.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "../test_util.h"
#include "storage/raid_array.h"
#include "storage/stripe_store.h"

namespace tvmec::storage {
namespace {

constexpr std::size_t kUnit = 256;

StripeStore make_store() {
  return StripeStore(ec::CodeParams{4, 2, 8}, kUnit, 8);
}

/// `stripes` objects of one stripe each, named obj00, obj01, ...
void fill_store(StripeStore& store, std::size_t objects,
                std::size_t stripes_each = 1) {
  for (std::size_t i = 0; i < objects; ++i) {
    const std::string name =
        "obj" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    store.put(name, testutil::random_vector(stripes_each * 4 * kUnit, i));
  }
}

TEST(Scrubber, FullPassOverHealthyStore) {
  StripeStore store = make_store();
  fill_store(store, 5, 2);
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.stripes_scanned, 10u);
  EXPECT_EQ(pass.units_verified, 10u * 6);
  EXPECT_EQ(pass.bytes_verified, 10u * 6 * kUnit);
  EXPECT_EQ(pass.errors(), 0u);
  EXPECT_EQ(pass.units_repaired, 0u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 10u);
}

TEST(Scrubber, StepsAccumulateIntoOnePass) {
  StripeStore store = make_store();
  fill_store(store, 4, 3);  // 12 stripes
  Scrubber scrub(store);
  std::size_t scanned = 0;
  std::size_t steps = 0;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(5);
    scanned += inc.stripes_scanned;
    ++steps;
    ASSERT_LE(steps, 4u) << "cursor failed to advance";
  }
  EXPECT_EQ(scanned, 12u);
  EXPECT_EQ(steps, 3u);  // 5 + 5 + 2
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 12u);
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 0u);  // rewound
}

TEST(Scrubber, StepFindsCorruptionWhereverItHides) {
  StripeStore store = make_store();
  fill_store(store, 6, 1);
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 1));
  ASSERT_TRUE(store.corrupt_unit("obj03", 0, 4));  // a parity unit
  ASSERT_TRUE(store.corrupt_unit("obj05", 0, 2));
  Scrubber scrub(store);
  ScrubStats total;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(2);
    total.crc_errors += inc.crc_errors;
    total.units_repaired += inc.units_repaired;
  }
  EXPECT_EQ(total.crc_errors, 3u);
  EXPECT_EQ(total.units_repaired, 3u);
  // Second pass: everything was healed in place.
  EXPECT_EQ(scrub.run().errors(), 0u);
  EXPECT_EQ(scrub.passes_completed(), 2u);
}

TEST(Scrubber, CursorSurvivesObjectRemoval) {
  StripeStore store = make_store();
  fill_store(store, 6, 2);
  Scrubber scrub(store);
  scrub.step(3);  // cursor now mid-store
  store.remove("obj02");
  store.remove("obj04");
  ScrubStats rest;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(3);
    rest.stripes_scanned += inc.stripes_scanned;
    if (inc.stripes_scanned == 0) break;
  }
  EXPECT_EQ(scrub.passes_completed(), 1u);
  // Next full pass sees exactly the surviving 4 objects x 2 stripes.
  EXPECT_EQ(scrub.run().stripes_scanned, 8u);
}

TEST(Scrubber, CursorSeesObjectsAddedAheadOfIt) {
  StripeStore store = make_store();
  fill_store(store, 3, 1);
  Scrubber scrub(store);
  scrub.step(1);  // scanned obj00
  store.put("obj99", testutil::random_vector(4 * kUnit, 99));  // after cursor
  ScrubStats rest = scrub.run();
  EXPECT_EQ(rest.stripes_scanned, 3u);  // obj01, obj02, obj99
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 4u);
}

TEST(Scrubber, ResetCursorDiscardsPartialProgress) {
  StripeStore store = make_store();
  fill_store(store, 4, 1);
  Scrubber scrub(store);
  scrub.step(2);
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 2u);
  scrub.reset_cursor();
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 0u);
  EXPECT_EQ(scrub.run().stripes_scanned, 4u);  // full pass from the top
  EXPECT_EQ(scrub.passes_completed(), 1u);
}

TEST(Scrubber, EmptyStoreCompletesTrivialPasses) {
  StripeStore store = make_store();
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.stripes_scanned, 0u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
}

TEST(Scrubber, RaidArrayPassVerifiesAndRepairs) {
  RaidArray raid(ec::CodeParams{4, 2, 8}, kUnit, 8);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    const auto block = testutil::random_vector(kUnit, lba);
    raid.write_block(lba, block);
  }
  ASSERT_TRUE(raid.corrupt_unit(2, 1));
  ASSERT_TRUE(raid.corrupt_unit(5, 4));
  Scrubber scrub(raid);
  // Two increments that together cover the 8 stripes.
  const ScrubStats first = scrub.step(4);
  const ScrubStats second = scrub.step(8);
  EXPECT_EQ(first.stripes_scanned + second.stripes_scanned, 8u);
  EXPECT_EQ(first.crc_errors + second.crc_errors, 2u);
  EXPECT_EQ(first.units_repaired + second.units_repaired, 2u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
  EXPECT_EQ(scrub.run().errors(), 0u);
  EXPECT_EQ(raid.verify(), 0u);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    EXPECT_EQ(raid.read_block(lba), testutil::random_vector(kUnit, lba));
}

TEST(Scrubber, UnrecoverableStripeIsCountedNotThrown) {
  StripeStore store = make_store();
  fill_store(store, 2, 1);
  // Three corrupt units in one stripe beats r = 2.
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 0));
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 1));
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 2));
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.unrecoverable_stripes, 1u);
  EXPECT_EQ(pass.units_repaired, 0u);
  // The healthy object is unaffected.
  EXPECT_EQ(store.get("obj01"), testutil::random_vector(4 * kUnit, 1));
}

/// Both scrub targets behind one face, so each scrub regression runs
/// against StripeStore and RaidArray alike. The payload is one object
/// (store) or consecutive zero-padded blocks of a one-stripe array.
class ScrubRig {
 public:
  ScrubRig(const std::string& target, const ec::CodeParams& params,
           std::size_t unit)
      : unit_(unit) {
    if (target == "StripeStore")
      store_ = std::make_unique<StripeStore>(params, unit, params.n() + 2);
    else
      raid_ = std::make_unique<RaidArray>(params, unit, 1);
  }

  StripeLayout& layout() {
    return store_ ? static_cast<StripeLayout&>(*store_) : *raid_;
  }
  void write(const std::vector<std::uint8_t>& payload) {
    size_ = payload.size();
    if (store_) return store_->put("obj", payload);
    for (std::size_t lba = 0; lba * unit_ < size_; ++lba) {
      std::vector<std::uint8_t> block(unit_, 0);
      const std::size_t take = std::min(unit_, size_ - lba * unit_);
      std::copy_n(payload.begin() + lba * unit_, take, block.begin());
      raid_->write_block(lba, block);
    }
  }
  std::vector<std::uint8_t> read() {
    if (store_) return *store_->get("obj");
    std::vector<std::uint8_t> out;
    for (std::size_t lba = 0; lba * unit_ < size_; ++lba) {
      const auto block = raid_->read_block(lba);
      out.insert(out.end(), block.begin(), block.end());
    }
    out.resize(size_);
    return out;
  }
  bool corrupt(std::size_t unit) {
    return store_ ? store_->corrupt_unit("obj", 0, unit)
                  : raid_->corrupt_unit(0, unit);
  }
  void fail(std::size_t node) {
    store_ ? store_->fail_node(node) : raid_->fail_device(node);
  }
  ScrubStats scrub() {
    return store_ ? Scrubber(*store_).run() : Scrubber(*raid_).run();
  }

 private:
  std::size_t unit_;
  std::size_t size_ = 0;
  std::unique_ptr<StripeStore> store_;
  std::unique_ptr<RaidArray> raid_;
};

class ScrubTransientTest : public ::testing::TestWithParam<const char*> {};

// Regression (found by the differential fuzzer, reproducer
// "fuzz:v1 s=store-fault k=7 r=1 w=16 u=16 seed=9337184620144304163
// loss=7"): chained transient-read bursts can exhaust the retry budget
// during a scrub pass, making a healthy unit look Missing. With r=1 and
// one genuinely corrupt unit, the stripe then *appeared* unrecoverable
// and scrub skipped it — leaving latent corruption on disk, so one node
// failure later the data was gone. scrub_stripe must re-attempt
// transiently missing units in fresh passes before giving up.
TEST_P(ScrubTransientTest, HealsCorruptionDespiteTransientReadErrors) {
  const ec::CodeParams params{7, 1, 16};
  const std::uint64_t seed = 9337184620144304163ULL;
  ScrubRig rig(GetParam(), params, 16);
  FaultInjector injector(
      FaultPolicy{.read_bit_flip = 0.05,
                  .transient_read = 0.1,
                  .transient_failures = 2},
      seed ^ 0xFA17);
  rig.layout().attach_fault_injector(&injector);
  rig.layout().set_retry_policy(RetryPolicy{.max_attempts = 6});

  const auto payload = testutil::random_vector(52, seed + 1);
  rig.write(payload);
  ASSERT_TRUE(rig.corrupt(3));
  // The corruption must actually be healed, not merely detected.
  EXPECT_GE(rig.scrub().units_repaired, 1u);

  // One node failure is now survivable again (r = 1).
  rig.fail(7);
  rig.layout().attach_fault_injector(nullptr);
  EXPECT_EQ(rig.read(), payload);
}

// A read leaves every unit of the stripe mid-burst (bursts of 8 against
// a 4-attempt budget), and bursts outlive a switch to a quiet policy.
// The scrub's first pass then sees most units Missing; only re-reading
// them in a later pass finds the one corrupt parity unit recoverable.
TEST_P(ScrubTransientTest, HealsCorruptionAfterHalfConsumedBurst) {
  const ec::CodeParams params{4, 2, 8};
  const std::size_t unit = 4096;
  ScrubRig rig(GetParam(), params, unit);
  const auto payload = testutil::random_vector(params.k * unit, 7);
  rig.write(payload);

  FaultInjector injector(
      FaultPolicy{.transient_read = 1.0, .transient_failures = 8});
  rig.layout().attach_fault_injector(&injector);
  EXPECT_THROW(rig.read(), std::runtime_error);  // every unit mid-burst
  injector.set_policy(FaultPolicy{});
  ASSERT_TRUE(rig.corrupt(params.k));  // a parity unit

  const ScrubStats pass = rig.scrub();
  EXPECT_EQ(pass.unrecoverable_stripes, 0u);
  EXPECT_EQ(pass.units_verified, 5u);
  EXPECT_EQ(pass.crc_errors, 1u);
  EXPECT_EQ(pass.units_repaired, 1u);
  // Healed on disk: a second pass is clean and reads are exact.
  EXPECT_EQ(rig.scrub().errors(), 0u);
  EXPECT_EQ(rig.read(), payload);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScrubTransientTest,
                         ::testing::Values("StripeStore", "RaidArray"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace tvmec::storage
