// ValueCell: the atomic component cell of a value plane.
//
// Implementations whose components already hold record pointers (fig1,
// fig3) embed the payload in their records and need nothing from this
// header.  Implementations
// whose components were RAW WORDS -- the seqlock baseline stores values
// directly in registers -- wrap each cell in a ValueCell instead:
//
//   * ValueCell<DirectU64>: a Register<uint64_t>; the word is the value.
//     Identical code to before, zero cost.
//
//   * ValueCell<IndirectBlob>: a Register<const BlobNode*> publishing an
//     immutable, pooled payload node.  An update builds the node, then
//     exchange()s it in (one register step, release publication); a read
//     load()s the pointer (one register step, acquire) and dereferences it
//     -- callers must hold an EBR pin across the dereference and retire
//     the replaced node through a reclaim::Pool<BlobNode>, exactly the
//     record lifecycle the snapshot algorithms already run.
//
// Cost model of the indirection: one extra acquire dereference per read,
// one pool acquire per update, one step either way -- step counts match
// the direct plane, so the theorem-level accounting is plane-invariant.
#pragma once

#include <cstdint>

#include "exec/exec.h"
#include "primitives/primitives.h"
#include "primitives/value_plane.h"

namespace psnap::primitives {

// The blob plane's standalone payload node, for cells that had no record
// to embed the payload in.  Immutable after publication; recycled through
// a reclaim::Pool so its byte vector keeps capacity across lives.
struct BlobNode {
  value::Blob bytes;
};

template <class Value, class Policy = Instrumented>
class ValueCell;

template <class Policy>
class ValueCell<value::DirectU64, Policy> {
 public:
  // Construction-phase initialization (see Register::init).
  void init(std::uint64_t v, std::uint64_t label = exec::kNoLabel) {
    reg_.init(v, label);
  }

  // One register step each, exactly as the raw register was.
  std::uint64_t load() const { return reg_.load(); }
  void store(std::uint64_t v) { reg_.store(v); }

 private:
  Register<std::uint64_t, Policy> reg_;
};

template <class Policy>
class ValueCell<value::IndirectBlob, Policy> {
 public:
  // Construction-phase installation of the initial node (owned by the
  // cell's owner; see the seqlock destructor).
  void init(const BlobNode* node, std::uint64_t label = exec::kNoLabel) {
    reg_.init(node, label);
  }

  // One register step; the returned node may be dereferenced only under
  // an EBR pin (acquire load in the Release runtime pairs with the
  // publishing exchange).
  const BlobNode* load() const { return reg_.load(); }

  // Publishes a fully-built node; returns the replaced node so exactly
  // one thread retires it.  One register step.
  const BlobNode* exchange(const BlobNode* node) {
    return reg_.exchange(node);
  }

  // Non-step read for destructors (quiescent only).
  const BlobNode* peek() const { return reg_.peek(); }

 private:
  Register<const BlobNode*, Policy> reg_;
};

}  // namespace psnap::primitives
