// Debug-build invariant checks.
//
// ROCKSTEADY_DCHECK and friends are fatal in debug builds and compile to
// nothing in release builds (NDEBUG), so they can guard hot paths — the
// simulated fast path pays zero cost in the builds that produce the paper's
// figures. The ci/check.sh "debug-audit" configuration forces them on
// (-DROCKSTEADY_AUDIT=ON -> ROCKSTEADY_FORCE_DCHECK) so every test runs with
// the full invariant net even at -O2.
#ifndef ROCKSTEADY_SRC_COMMON_DCHECK_H_
#define ROCKSTEADY_SRC_COMMON_DCHECK_H_

#include <sstream>
#include <string>

#if !defined(NDEBUG) || defined(ROCKSTEADY_FORCE_DCHECK)
#define ROCKSTEADY_DCHECK_ENABLED 1
#else
#define ROCKSTEADY_DCHECK_ENABLED 0
#endif

namespace rocksteady {

// Prints the failure and aborts. Out of line so the macro expansion stays
// small at every call site.
[[noreturn]] void DcheckFail(const char* file, int line, const char* expression,
                             const std::string& detail);

template <typename A, typename B>
[[noreturn]] void DcheckOpFail(const char* file, int line, const char* expression, const A& a,
                               const B& b) {
  std::ostringstream detail;
  detail << "(" << a << " vs " << b << ")";
  DcheckFail(file, line, expression, detail.str());
}

}  // namespace rocksteady

#if ROCKSTEADY_DCHECK_ENABLED

#define ROCKSTEADY_DCHECK(condition)                                         \
  do {                                                                       \
    if (!(condition)) {                                                      \
      ::rocksteady::DcheckFail(__FILE__, __LINE__, #condition, std::string()); \
    }                                                                        \
  } while (0)

// Binary comparison with both values in the failure message. `op` is the
// comparison token, e.g. ROCKSTEADY_DCHECK_OP(<=, used, capacity).
#define ROCKSTEADY_DCHECK_OP(op, a, b)                                            \
  do {                                                                            \
    const auto& rocksteady_dcheck_a = (a);                                        \
    const auto& rocksteady_dcheck_b = (b);                                        \
    if (!(rocksteady_dcheck_a op rocksteady_dcheck_b)) {                          \
      ::rocksteady::DcheckOpFail(__FILE__, __LINE__, #a " " #op " " #b,           \
                                 rocksteady_dcheck_a, rocksteady_dcheck_b);       \
    }                                                                             \
  } while (0)

#else

// Disabled: nothing is evaluated, but the operands must still parse (keeps
// release and debug builds honest about what the checks reference).
#define ROCKSTEADY_DCHECK(condition) \
  do {                               \
    (void)sizeof(condition);         \
  } while (0)
#define ROCKSTEADY_DCHECK_OP(op, a, b) \
  do {                                 \
    (void)sizeof((a)op(b));            \
  } while (0)

#endif  // ROCKSTEADY_DCHECK_ENABLED

#define ROCKSTEADY_DCHECK_EQ(a, b) ROCKSTEADY_DCHECK_OP(==, a, b)
#define ROCKSTEADY_DCHECK_NE(a, b) ROCKSTEADY_DCHECK_OP(!=, a, b)
#define ROCKSTEADY_DCHECK_LE(a, b) ROCKSTEADY_DCHECK_OP(<=, a, b)
#define ROCKSTEADY_DCHECK_LT(a, b) ROCKSTEADY_DCHECK_OP(<, a, b)
#define ROCKSTEADY_DCHECK_GE(a, b) ROCKSTEADY_DCHECK_OP(>=, a, b)
#define ROCKSTEADY_DCHECK_GT(a, b) ROCKSTEADY_DCHECK_OP(>, a, b)

// Always-on check, for cold configuration guards whose violation would
// silently corrupt a run in any build type (e.g. a subsystem that touches
// other nodes' state directly being started on more than one lane).
#define ROCKSTEADY_CHECK(condition)                                          \
  do {                                                                       \
    if (!(condition)) {                                                      \
      ::rocksteady::DcheckFail(__FILE__, __LINE__, #condition, std::string()); \
    }                                                                        \
  } while (0)

#endif  // ROCKSTEADY_SRC_COMMON_DCHECK_H_
