#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ec/code_params.h"
#include "storage/stripe_store.h"

/// A RAID block array built from the object store, for the storage
/// tests: one node per unit, so stripe s puts unit u on node (u + s) % n
/// (the rotated, left-symmetric layout), and one zero-filled object of
/// `stripes` full stripes standing in for the LBA space. Block `lba` is
/// bytes [lba * block, (lba + 1) * block) of that object, overwritten in
/// place through ObjectLayout::write and read back as a slice of get.
namespace tvmec::testutil {

struct BlockArray {
  static constexpr const char* kDisk = "disk";

  BlockArray(const ec::CodeParams& params, std::size_t block,
             std::size_t stripes)
      : store(params, block, params.n()),
        block(block),
        blocks(params.k * stripes) {
    store.put(kDisk, std::vector<std::uint8_t>(blocks * block, 0));
  }

  storage::ObjectLayout::PutResult write_block(
      std::size_t lba, std::span<const std::uint8_t> data) {
    return store.write(kDisk, lba * block, data);
  }
  /// The whole LBA space, through one get.
  std::vector<std::uint8_t> disk() { return *store.get(kDisk); }
  std::vector<std::uint8_t> read_block(std::size_t lba) {
    const std::vector<std::uint8_t> all = disk();
    return {all.begin() + lba * block, all.begin() + (lba + 1) * block};
  }

  storage::StripeStore store;
  std::size_t block;
  std::size_t blocks;  ///< capacity: k blocks per stripe
};

}  // namespace tvmec::testutil
