// EXPECT: clean
// The explicit per-line escape hatch: a trailing
// `fr_analyze: allow(rule-id)` comment suppresses exactly that rule.
#include <thread>

void legacy_interop() {
  std::thread t([] {});  // fr_analyze: allow(no-raw-thread)
  t.join();
}
