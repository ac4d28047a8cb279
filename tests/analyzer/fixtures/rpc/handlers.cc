// Fixture: handler-idempotency rule.
//
// A retransmission re-runs a call whose execution a crash cut short, so
// at-least-once delivery can re-execute any handler. A registration must either carry
// ROCKSTEADY_IDEMPOTENT("why re-execution is safe") or guard itself with an
// explicit dedup check.
#include "src/common/annotations.h"

namespace rocksteady {

enum class Opcode { kEcho, kStore, kEvict };

struct RpcContext {};

class Endpoint {
 public:
  template <typename Fn>
  void Register(Opcode opcode, Fn handler);
};

class DedupCache {
 public:
  bool Seen(unsigned long long call_id);
};

void InstallHandlers(Endpoint* endpoint, DedupCache* cache) {
  endpoint->Register(Opcode::kEcho, [](RpcContext) {});  // expect-finding:handler-idempotency

  endpoint->Register(Opcode::kStore,
                     ROCKSTEADY_IDEMPOTENT("re-storing the same value is a no-op")
                     [](RpcContext) {});

  endpoint->Register(Opcode::kEvict, [dedup_cache = cache](RpcContext) {
    if (dedup_cache->Seen(7)) {
      return;
    }
  });
}

}  // namespace rocksteady
