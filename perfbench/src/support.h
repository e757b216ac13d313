// Shared plumbing for the workloads: arguments, the metric report,
// order statistics, result digests, memory readings, and running a
// measured phase in a forked child so its memory peak is its own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/event.h"
#include "storage/query_request.h"

namespace perfbench {

using poolnet::storage::Event;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;        ///< scratch for page files
  std::string trace_out;       ///< traced runs write their spans here
};

/// Metric values by name plus the correctness tally of one run. Units
/// come from the catalogue in main.cpp.
struct Report {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< printed before the result line

  void set(const std::string& name, double v) { values[name] = v; }
  void note(const std::string& line) { notes.push_back(line); }
};

/// What a forked measured phase sends back: named values and one digest
/// per checked operation.
struct ChildResult {
  std::map<std::string, double> values;
  std::vector<std::uint64_t> digests;

  double at(const std::string& name) const;
  std::string encode() const;
  static bool decode(const std::string& bytes, ChildResult* out);
};

/// Runs `fn` in a forked child and returns its result; throws when the
/// child fails. Only call before the process starts threads.
ChildResult run_forked(const std::function<ChildResult()>& fn);

/// Runs every function in its own forked child, all at once, and returns
/// their results in order; throws when any child fails.
std::vector<ChildResult> run_forked_all(
    const std::vector<std::function<ChildResult()>>& fns);

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// FNV-1a over an event list in the given order.
std::uint64_t digest_events(const std::vector<Event>& events);
/// Same, over a copy sorted by id (set equality against an oracle).
std::uint64_t digest_sorted(std::vector<Event> events);
std::uint64_t digest_bytes(const std::uint8_t* data, std::size_t n);
inline std::uint64_t digest_bytes(const std::vector<std::uint8_t>& bytes) {
  return digest_bytes(bytes.data(), bytes.size());
}

/// VmHWM / VmRSS of this process in MB; 0 if unreadable.
double peak_rss_mb();
double current_rss_mb();

/// Seconds since an arbitrary fixed point (steady clock).
double now_s();

/// The share of wall time in which the hypervisor ran something else on
/// this process's virtual CPU ("steal" in /proc/stat). Construction pins
/// the calling thread to the CPU it is on, so that CPU's steal is its
/// own. share() reads 0 where the kernel reports no steal.
class StealClock {
 public:
  StealClock();
  /// Stolen share of the wall time since construction, in [0, 0.9].
  double share() const;

 private:
  int cpu_ = -1;
  double steal0_ = 0;
  double wall0_ = 0;
};

/// parse_query of a statement the benchmark generated itself; throws if
/// the server's grammar rejects it.
poolnet::storage::QueryRequest parse_statement(const std::string& text,
                                               std::size_t dims);

/// One JSON line describing the host and build.
std::string host_fingerprint_json();

/// Counts digest mismatches between a child's digests and the
/// reference's, over the first min(size) entries, plus any length gap.
std::uint64_t count_mismatches(const std::vector<std::uint64_t>& got,
                               const std::vector<std::uint64_t>& want);

}  // namespace perfbench
