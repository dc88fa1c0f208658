// Span recorder for the layer entry points the traced driver interposes.
//
// Each wrapped call opens a Span on a thread-local stack; when it closes,
// its length is added to the (entry, parent) cell of that thread's table
// and to the open parent's child total, so self time = length minus the
// time covered by child spans. Tables are bounded (entries x parents), so
// a run of millions of calls keeps a few KiB per thread. A thread's table
// is merged into the process total when the thread exits (shard workers)
// or when the driver calls collect() (the driver thread).
#pragma once

#include <cstdint>

namespace perfbench::trace {

enum Entry : int {
  des_run_until,
  des_sharded_run_until,
  des_shard_wait,
  qhw_solve_alpha,
  qhw_produced_state,
  qstate_swap,
  qstate_decay,
  qdevice_swap,
  linklayer_submit,
  qnp_on_message,
  qnp_on_link_pair,
  qnp_submit_request,
  qnp_release_app_qubit,
  netmsg_send,
  netmsg_encode,
  netmsg_decode,
  ctrl_plan_circuit,
  netsim_build,
  netsim_establish,
  kEntries
};

/// Parent slot of a top-level span on the driver thread.
inline constexpr int kDriverRoot = kEntries;
/// Parent slot of a top-level span on any other thread (shard workers).
inline constexpr int kWorkerRoot = kEntries + 1;
inline constexpr int kParents = kEntries + 2;

/// Stable dotted name of an entry point ("qhw.solve_alpha", ...).
const char* entry_name(int entry);

struct Cell {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Counts taken at the wrapped boundaries besides calls and time.
struct Counters {
  std::uint64_t swap_both_bell_diagonal = 0;  ///< qstate swaps on the fast path
  std::uint64_t encoded_bytes = 0;            ///< netmsg::encode output bytes
};

struct Snapshot {
  Cell cells[kEntries][kParents] = {};
  Counters counters;
  std::uint64_t threads = 0;         ///< thread tables merged
  std::uint64_t worker_threads = 0;  ///< of which not the driver thread
  /// Every merged thread satisfied sum(self) == sum(top-level length) and
  /// had no span left open.
  bool balanced = true;

  [[nodiscard]] Cell total(int entry) const;
};

/// Marks the calling thread as the driver thread (its top-level spans
/// are the ones exp.driver.self_s subtracts from wall time).
void mark_driver_thread();

/// True while the calling thread has a span open.
bool in_span();

/// Counters of the calling thread.
Counters& counters();

/// Merges the calling thread's table, then returns and resets the
/// process total. Call with no span open on the calling thread.
Snapshot collect();

class Span {
 public:
  explicit Span(Entry entry);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench::trace
