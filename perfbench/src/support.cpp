#include "support.h"

#include "server/query_language.h"

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double ChildResult::at(const std::string& name) const {
  const auto it = values.find(name);
  if (it == values.end())
    throw std::runtime_error("measured phase did not report " + name);
  return it->second;
}

std::string ChildResult::encode() const {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [k, v] : values) out << "v " << k << ' ' << v << '\n';
  for (std::uint64_t d : digests) out << "d " << d << '\n';
  out << "end\n";
  return out.str();
}

bool ChildResult::decode(const std::string& bytes, ChildResult* out) {
  std::istringstream in(bytes);
  std::string tag;
  while (in >> tag) {
    if (tag == "v") {
      std::string k;
      double v = 0;
      if (!(in >> k >> v)) return false;
      out->values[k] = v;
    } else if (tag == "d") {
      std::uint64_t d = 0;
      if (!(in >> d)) return false;
      out->digests.push_back(d);
    } else if (tag == "end") {
      return true;
    } else {
      return false;
    }
  }
  return false;
}

namespace {

struct Child {
  pid_t pid = -1;
  int fd = -1;
};

Child spawn(const std::function<ChildResult()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    // Hand the parent's free heap back to the kernel, so the child's
    // memory growth is its own and does not depend on how much the parent
    // freed before the fork.
    malloc_trim(0);
    int code = 0;
    std::string bytes;
    try {
      bytes = fn().encode();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: forked phase failed: %s\n", e.what());
      code = 3;
    }
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fds[1], bytes.data() + off, bytes.size() - off);
      if (n <= 0) _exit(4);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  return {pid, fds[0]};
}

/// Reads the child's whole output, reaps it, and decodes its result.
ChildResult collect(const Child& child) {
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(child.fd, buf, sizeof(buf));
    if (n > 0) {
      bytes.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(child.fd);
  int status = 0;
  while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  ChildResult result;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !ChildResult::decode(bytes, &result))
    throw std::runtime_error("forked phase failed");
  return result;
}

}  // namespace

ChildResult run_forked(const std::function<ChildResult()>& fn) {
  return collect(spawn(fn));
}

std::vector<ChildResult> run_forked_all(
    const std::vector<std::function<ChildResult()>>& fns) {
  std::vector<Child> children;
  for (const auto& fn : fns) children.push_back(spawn(fn));
  // Reap every child even when one fails, then report the failure.
  std::vector<ChildResult> out;
  std::string error;
  for (const Child& c : children) {
    try {
      out.push_back(collect(c));
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  if (!error.empty()) throw std::runtime_error(error);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

std::uint64_t digest_bytes(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

}  // namespace

std::uint64_t digest_events(const std::vector<Event>& events) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, events.size());
  for (const Event& e : events) {
    mix(h, e.id);
    mix(h, e.source);
    for (std::size_t d = 0; d < e.values.size(); ++d) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &e.values[d], sizeof(bits));
      mix(h, bits);
    }
  }
  return h;
}

std::uint64_t digest_sorted(std::vector<Event> events) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.id < b.id; });
  return digest_events(events);
}

namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0)
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM:"); }
double current_rss_mb() { return status_field_mb("VmRSS:"); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Seconds of steal /proc/stat reports for `cpu` (its eighth field, in
/// clock ticks); 0 when unreadable.
double cpu_steal_s(int cpu) {
  if (cpu < 0) return 0;
  std::ifstream in("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    double ticks[8] = {};
    for (double& t : ticks) fields >> t;
    return fields ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
  }
  return 0;
}

}  // namespace

StealClock::StealClock() {
  const int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  if (cpu >= 0) CPU_SET(cpu, &one);
  if (cpu >= 0 && sched_setaffinity(0, sizeof(one), &one) == 0) cpu_ = cpu;
  steal0_ = cpu_steal_s(cpu_);
  wall0_ = now_s();
}

double StealClock::share() const {
  const double wall = now_s() - wall0_;
  if (cpu_ < 0 || wall <= 0) return 0;
  return std::clamp((cpu_steal_s(cpu_) - steal0_) / wall, 0.0, 0.9);
}

poolnet::storage::QueryRequest parse_statement(const std::string& text,
                                               std::size_t dims) {
  poolnet::storage::RangeQuery::Bounds one;
  one.push_back(poolnet::ClosedInterval{0.0, 1.0});
  poolnet::storage::QueryRequest req{poolnet::storage::RangeQuery{one}};
  std::string error;
  if (!poolnet::server::parse_query(text, dims, &req, &error))
    throw std::runtime_error("generated statement rejected: " + error);
  return req;
}

std::string host_fingerprint_json() {
  std::string model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
      }
      break;
    }
  }
  for (char& c : model)
    if (c == '"' || c == '\\') c = '\'';
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"host\": {\"nproc\": %u, \"cpu_model\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}}",
                std::thread::hardware_concurrency(), model.c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  return buf;
}

std::uint64_t count_mismatches(const std::vector<std::uint64_t>& got,
                               const std::vector<std::uint64_t>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) bad += got[i] != want[i];
  return bad + (std::max(got.size(), want.size()) - n);
}

}  // namespace perfbench
