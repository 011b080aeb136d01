#include "core/op_stats.h"

#include "exec/exec.h"

namespace psnap::core {

OpStats& tls_op_stats() { return exec::ctx().op_stats; }

}  // namespace psnap::core
