// Negative control for ThreadSanitizer's lock-order-inversion detector
// (the dynamic half of the lock-order check; fr_analyze's
// lock-order-cycle passes are the static half).
//
// Each scenario takes locks through the Mutex/MutexLock wrappers on
// ThreadPool workers, one critical section at a time: every task fully
// releases before the next is submitted, so no run ever blocks. The
// lock orders still close a cycle, which TSan's deadlock detector
// reports from its acquired-after graph alone:
//
//   abba    A→B, then B→A
//   cycle3  A→B, then B→C, then C→A
//
// Built and registered only under FAULTYRANK_SANITIZE=thread; each
// ctest entry passes only when the output contains
// "lock-order-inversion". A clean run means TSan stopped seeing
// inversions through the wrappers.
//
// Usage: lock_order_control <abba|cycle3>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace {

using faultyrank::Mutex;
using faultyrank::MutexLock;
using faultyrank::ThreadPool;

/// Runs each (outer, inner) nesting as its own pool task and waits for
/// it before submitting the next. wait_idle() never runs tasks inline,
/// so every nesting happens on a worker thread.
void nest_in_turn(ThreadPool& pool,
                  const std::vector<std::pair<Mutex*, Mutex*>>& orders) {
  for (const auto& [outer, inner] : orders) {
    pool.submit([outer = outer, inner = inner] {
      MutexLock hold_outer(*outer);
      MutexLock hold_inner(*inner);
    });
    pool.wait_idle();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scenario = argc == 2 ? argv[1] : "";
  ThreadPool pool(3);
  Mutex a;
  Mutex b;
  Mutex c;
  if (scenario == "abba") {
    nest_in_turn(pool, {{&a, &b}, {&b, &a}});
  } else if (scenario == "cycle3") {
    nest_in_turn(pool, {{&a, &b}, {&b, &c}, {&c, &a}});
  } else {
    std::fprintf(stderr, "usage: lock_order_control <abba|cycle3>\n");
    return 2;
  }
  std::printf("lock_order_control %s: finished\n", scenario.c_str());
  return 0;
}
