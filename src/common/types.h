// Core identifier and time types shared by every subsystem.
#ifndef ROCKSTEADY_SRC_COMMON_TYPES_H_
#define ROCKSTEADY_SRC_COMMON_TYPES_H_

#include <cstdint>

namespace rocksteady {

// Identifies a table in the cluster-wide key space.
using TableId = uint64_t;

// 64-bit hash of a primary key; tablets partition tables by KeyHash range.
using KeyHash = uint64_t;

// Identifies a server (master+backup pair) in the cluster. Zero is invalid.
using ServerId = uint32_t;
inline constexpr ServerId kInvalidServerId = 0;

// Identifies a simulated machine (fabric endpoint): coordinator, server or
// client. Assigned densely from 0 as endpoints are created.
using NodeId = uint32_t;

// Monotonic per-object version; bumped by every write.
using Version = uint64_t;

// Simulated time, in nanoseconds since simulation start.
using Tick = uint64_t;

inline constexpr Tick kMicrosecond = 1'000;
inline constexpr Tick kMillisecond = 1'000'000;
inline constexpr Tick kSecond = 1'000'000'000;

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_TYPES_H_
