// Shard-safety and RPC-semantics annotations, consumed by tools/analyze.py.
//
// ROADMAP item 1 partitions the engine into per-shard event lanes that later
// run on real threads. Before that refactor lands, every piece of mutable
// state with static storage duration — the state that would silently become
// cross-thread shared state — must be classified, and every RPC handler must
// state why a second execution (the at-least-once loophole: a
// retransmission re-runs a call whose execution a crash cut short) is safe.
//
// The macros expand to a clang annotate attribute under clang (so the
// libclang frontend of tools/analyze.py sees them in the AST) and to nothing
// under other compilers; the token frontend matches the macro spelling
// directly, so both frontends enforce the same contract.
//
//   ROCKSTEADY_SHARD_LOCAL
//     This variable is (or will be, trivially) per-shard: either it is
//     confined to one shard's lane by construction, or duplicating it per
//     shard is correct. The sharding refactor may replicate it freely.
//
//   ROCKSTEADY_SHARED_GUARDED("why")
//     This variable is genuinely cross-shard. The string must say what
//     guards it today and what the sharded engine must do about it. Every
//     such site is listed in build/shard_state.json — that file is the
//     work-list for ROADMAP item 1.
//
//   ROCKSTEADY_IDEMPOTENT("why")
//     Placed on an RPC handler registration (before the handler argument).
//     Asserts that re-executing the handler for an already-applied call_id —
//     after its dedup entry expired — cannot corrupt state or lose an acked
//     write. The string records the reviewed argument (pure read, versioned
//     write, re-drivable state machine, ...).
//
// Usage:
//   ROCKSTEADY_SHARED_GUARDED("set once at startup") LogLevel g_level = ...;
//   endpoint_->Register(Opcode::kRead,
//                       ROCKSTEADY_IDEMPOTENT("pure read")
//                       [this](RpcContext c) { HandleRead(std::move(c)); });
#ifndef ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_
#define ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_

#if defined(__clang__)
#define ROCKSTEADY_SHARD_LOCAL [[clang::annotate("rocksteady::shard_local")]]
#define ROCKSTEADY_SHARED_GUARDED(why) \
  [[clang::annotate("rocksteady::shared_guarded:" why)]]
#else
#define ROCKSTEADY_SHARD_LOCAL
#define ROCKSTEADY_SHARED_GUARDED(why)
#endif

// Expands to nothing everywhere: it decorates an expression position (the
// handler argument of RpcEndpoint::Register), where no attribute is valid
// C++. Both analyzer frontends match the spelling in the registration
// statement's token stream.
#define ROCKSTEADY_IDEMPOTENT(why)

#endif  // ROCKSTEADY_SRC_COMMON_ANNOTATIONS_H_
