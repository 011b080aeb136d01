#include "core/partial_snapshot.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/scan_context.h"

namespace psnap::core {

namespace {

[[noreturn]] void reject_blob_op(const PartialSnapshot& snap,
                                 const char* op) {
  throw std::logic_error(
      std::string(op) + " requires the blob value plane, but '" +
      std::string(snap.name()) + "' stores value=" +
      std::string(snap.value_plane()) +
      " (construct with the registry option value=blob)");
}

[[noreturn]] void reject_versioned_op(const PartialSnapshot& snap,
                                      const char* op) {
  throw std::logic_error(
      std::string(op) + " requires the versioned value plane, but '" +
      std::string(snap.name()) + "' stores value=" +
      std::string(snap.value_plane()) +
      " (construct with the registry option value=versioned)");
}

}  // namespace

void PartialSnapshot::scan(std::span<const std::uint32_t> indices,
                           std::vector<std::uint64_t>& out) {
  scan(indices, out, tls_scan_context());
}

void PartialSnapshot::update_blob(std::uint32_t i,
                                  std::span<const std::byte> /*bytes*/) {
  (void)i;
  reject_blob_op(*this, "update_blob");
}

void PartialSnapshot::seed(std::span<const std::uint64_t> /*values*/) {
  throw std::logic_error("seed is not supported by '" + std::string(name()) +
                         "'");
}

void PartialSnapshot::seed_blobs(std::span<const value::Blob> /*blobs*/) {
  if (value_plane() != "blob") {
    reject_blob_op(*this, "seed_blobs");
  }
  throw std::logic_error("seed_blobs is not supported by '" +
                         std::string(name()) + "'");
}

void PartialSnapshot::require_seed_size(std::size_t count) const {
  if (count != num_components()) {
    throw std::invalid_argument(
        "seed: " + std::to_string(count) + " values for " +
        std::to_string(num_components()) + " components of '" +
        std::string(name()) + "'");
  }
}

void PartialSnapshot::update_batch(std::span<const BatchEntry> /*entries*/) {
  throw std::logic_error(
      "update_batch is not supported by '" + std::string(name()) +
      "' (batch_atomicity() == kUnsupported); pick an implementation whose "
      "registry entry lists the batch capability");
}

void PartialSnapshot::update_batch_blob(
    std::span<const BlobBatchEntry> /*entries*/) {
  if (value_plane() != "blob") {
    reject_blob_op(*this, "update_batch_blob");
  }
  throw std::logic_error(
      "update_batch_blob is not supported by '" + std::string(name()) +
      "' (batch_atomicity() == kUnsupported); pick an implementation whose "
      "registry entry lists the batch capability");
}

void PartialSnapshot::scan_blobs(std::span<const std::uint32_t> /*indices*/,
                                 std::vector<value::Blob>& /*out*/,
                                 ScanContext& /*ctx*/) {
  reject_blob_op(*this, "scan_blobs");
}

void PartialSnapshot::scan_blobs(std::span<const std::uint32_t> indices,
                                 std::vector<value::Blob>& out) {
  scan_blobs(indices, out, tls_scan_context());
}

std::uint64_t PartialSnapshot::scan_versioned(
    std::span<const std::uint32_t> /*indices*/,
    std::vector<std::uint64_t>& /*out*/, ScanContext& /*ctx*/) {
  reject_versioned_op(*this, "scan_versioned");
}

std::uint64_t PartialSnapshot::scan_versioned(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out) {
  return scan_versioned(indices, out, tls_scan_context());
}

std::vector<std::uint64_t> PartialSnapshot::scan_all() {
  std::vector<std::uint32_t> indices(num_components());
  std::iota(indices.begin(), indices.end(), 0u);
  return scan(std::span<const std::uint32_t>(indices));
}

}  // namespace psnap::core
