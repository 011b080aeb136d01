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
