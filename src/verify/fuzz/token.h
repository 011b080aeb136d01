// Compact repro tokens: everything needed to re-execute a fuzz case.
//
// A failing run prints one line:
//
//   psnapfuzz/1|snap|fig3_cas:value=blob|m0=3|procs=3|ops=4|op=1f2e...|sched=9a0b...
//
// fields: format tag | target kind (snap/aset) | full registry spec |
// plan shape (initial_m, processes, ops per process) | op-stream seed |
// schedule seed (hex).  The token deliberately holds NO history and no
// schedule trace: plan generation and the seeded random scheduler are
// deterministic, so replaying the token regenerates the identical run,
// re-fails, and re-shrinks to the identical minimal counterexample.
//
// '|' is the field separator because the spec's delimiters are taken
// (':' before options, ',' between options, '=' inside them).
#pragma once

#include <cstdint>
#include <string>

#include "verify/fuzz/plan.h"
#include "verify/fuzz/target.h"

namespace psnap::verify::fuzz {

inline constexpr char kTokenPrefix[] = "psnapfuzz/1";

struct CaseSpec {
  FuzzTarget target;
  PlanShape shape;
  std::uint64_t op_seed = 0;
  std::uint64_t sched_seed = 0;
};

std::string encode_token(const CaseSpec& spec);

// Parses a token, rebuilding the target's capability flags from the
// registry.  Throws std::invalid_argument on malformed tokens or unknown
// implementation names.
CaseSpec decode_token(const std::string& token);

}  // namespace psnap::verify::fuzz
