#include "trace.hpp"

#include <chrono>
#include <iterator>
#include <mutex>
#include <vector>

namespace perfbench::trace {
namespace {

constexpr const char* kNames[] = {
    "des.run_until",
    "des.sharded_run_until",
    "des.shard_wait",
    "qhw.solve_alpha",
    "qhw.produced_state",
    "qstate.swap",
    "qstate.decay",
    "qdevice.swap",
    "linklayer.submit",
    "qnp.on_message",
    "qnp.on_link_pair",
    "qnp.submit_request",
    "qnp.release_app_qubit",
    "netmsg.send",
    "netmsg.encode",
    "netmsg.decode",
    "ctrl.plan_circuit",
    "netsim.build",
    "netsim.establish",
};
static_assert(std::size(kNames) == kEntries, "one name per Entry");

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  int entry = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;
};

std::mutex g_mu;
Snapshot g_total;  // guarded by g_mu

struct ThreadTable {
  bool driver = false;
  std::vector<Frame> stack;
  Cell cells[kEntries][kParents] = {};
  Counters counters;

  ThreadTable() { stack.reserve(32); }
  ~ThreadTable() { merge(); }
  ThreadTable(const ThreadTable&) = delete;
  ThreadTable& operator=(const ThreadTable&) = delete;

  /// Adds this table to the process total and clears it.
  void merge() {
    const int root = driver ? kDriverRoot : kWorkerRoot;
    std::uint64_t self_sum = 0;
    std::uint64_t root_sum = 0;
    std::uint64_t calls = 0;
    for (int e = 0; e < kEntries; ++e) {
      root_sum += cells[e][root].incl_ns;
      for (int p = 0; p < kParents; ++p) {
        self_sum += cells[e][p].self_ns;
        calls += cells[e][p].calls;
      }
    }
    std::lock_guard<std::mutex> lk(g_mu);
    if (calls > 0) {
      ++g_total.threads;
      if (!driver) ++g_total.worker_threads;
    }
    if (self_sum != root_sum || !stack.empty()) g_total.balanced = false;
    for (int e = 0; e < kEntries; ++e) {
      for (int p = 0; p < kParents; ++p) {
        Cell& dst = g_total.cells[e][p];
        dst.calls += cells[e][p].calls;
        dst.incl_ns += cells[e][p].incl_ns;
        dst.self_ns += cells[e][p].self_ns;
        cells[e][p] = Cell{};
      }
    }
    g_total.counters.swap_both_bell_diagonal +=
        counters.swap_both_bell_diagonal;
    g_total.counters.encoded_bytes += counters.encoded_bytes;
    counters = Counters{};
  }
};

ThreadTable& table() {
  thread_local ThreadTable t;
  return t;
}

}  // namespace

const char* entry_name(int entry) { return kNames[entry]; }

Cell Snapshot::total(int entry) const {
  Cell sum;
  for (int p = 0; p < kParents; ++p) {
    sum.calls += cells[entry][p].calls;
    sum.incl_ns += cells[entry][p].incl_ns;
    sum.self_ns += cells[entry][p].self_ns;
  }
  return sum;
}

void mark_driver_thread() { table().driver = true; }

bool in_span() { return !table().stack.empty(); }

Counters& counters() { return table().counters; }

Snapshot collect() {
  table().merge();
  std::lock_guard<std::mutex> lk(g_mu);
  Snapshot out = g_total;
  g_total = Snapshot{};
  return out;
}

Span::Span(Entry entry) {
  table().stack.push_back(Frame{entry, now_ns(), 0});
}

Span::~Span() {
  const std::uint64_t end = now_ns();
  ThreadTable& t = table();
  const Frame f = t.stack.back();
  t.stack.pop_back();
  const std::uint64_t len = end - f.start_ns;
  int parent = t.driver ? kDriverRoot : kWorkerRoot;
  if (!t.stack.empty()) {
    parent = t.stack.back().entry;
    t.stack.back().child_ns += len;
  }
  Cell& c = t.cells[f.entry][parent];
  ++c.calls;
  c.incl_ns += len;
  c.self_ns += len - f.child_ns;
}

}  // namespace perfbench::trace
