// The workloads. Each returns every metric it measures; main.cpp
// picks the end-to-end or the per-layer set and prints them with units.
#pragma once

#include "support.h"

namespace perfbench {

/// Pool-only stack at 100k nodes: one insert per node from random
/// sources, interleaved with range queries checked against an oracle.
Report run_ingest(const RunArgs& args);

/// Attribution self-test on the ingest_100k stack: a DelayRouter adds a
/// busy-wait to every other operation's GPSR computations, sized so
/// inserts slow by about 10%; the traced GPSR time per miss must rise by
/// the injected amount and insert time by routing's measured share.
Report run_ingest_selftest(const RunArgs& args);

/// Central PagedStore over a file, many times its buffer pool: inserts,
/// periodic expiry and range queries checked against a flat oracle.
Report run_archive(const RunArgs& args);

/// DIM on 2,700 nodes behind a batching, caching QueryEngine; every
/// receipt checked against serial execution on a twin stack.
Report run_batch_dim(const RunArgs& args);

}  // namespace perfbench
