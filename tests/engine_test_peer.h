#ifndef OWLQR_TESTS_ENGINE_TEST_PEER_H_
#define OWLQR_TESTS_ENGINE_TEST_PEER_H_

// White-box access to Engine internals for tests that pin down behaviour
// the public surface deliberately hides: the incremental path's forward
// re-pin, the in-flight coalescing table and the governor's slots.  Defined
// ONCE here (Engine befriends exactly this class) so every test TU shares
// one definition.

#include <memory>

#include "engine/engine.h"

namespace owlqr {

class EngineTestPeer {
 public:
  static bool ExecuteIncremental(const Engine& engine,
                                 const PreparedQuery& prepared,
                                 const ExecuteRequest& request,
                                 std::shared_ptr<const DataSnapshot>* snap,
                                 ExecuteResult* result) {
    return engine.ExecuteIncremental(prepared, request, snap, result);
  }

  static size_t InFlightSize(const Engine& engine) {
    return engine.inflight_.size();
  }

  // Takes one of the engine's execution slots, as an admitted Execute
  // would, and holds it until the returned admission is destroyed.
  static QueryGovernor::Admission HoldSlot(const Engine& engine) {
    return engine.governor_.Admit();
  }
};

}  // namespace owlqr

#endif  // OWLQR_TESTS_ENGINE_TEST_PEER_H_
