#pragma once

// Process-wide fork-join team that splits one inference forward across the
// hardware threads (DESIGN.md §11).
//
// The team owns hardware_concurrency - 1 persistent helper threads, created
// lazily by the first region that actually runs in parallel; the calling
// thread takes part 0 itself.  A region is a plain function pointer plus a
// context pointer: no std::function, no futures, and no allocation once the
// helpers exist.  After a region a helper spins for a short bounded time
// (so the back-to-back layer regions of one forward find it awake), then
// blocks on a condition variable.
//
// A region runs inline on the caller, as fn(ctx, 0, 1), when
//   * another thread already holds the team (concurrent forwards from
//     different selectors share the machine rather than queue),
//   * the caller is a util::ThreadPool worker or a team helper (nested
//     parallelism degrades to serial, as ThreadPool::parallel_for does —
//     the trainer's self-play clones stay serial), or
//   * the caller asked for one part (the region is below the work
//     threshold; see parts_for()).
//
// Callers split work so that every element is computed by exactly the
// same arithmetic whatever the part count; the inline run is then the
// serial reference and a team run is bitwise equal to it.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace oar::util {

class ForkJoinTeam {
 public:
  using Fn = void (*)(void* ctx, std::int32_t part, std::int32_t parts);

  /// Work (in elementary operations, ~1 ns each) below which splitting a
  /// region off to another thread costs more than it saves.
  static constexpr std::int64_t kMinWorkPerPart = 4096;

  /// The process-wide team (helpers start on the first parallel region).
  static ForkJoinTeam& instance();

  /// Threads a region can use: hardware_concurrency, at least 1.
  std::int32_t size() const { return size_; }

  /// Parts worth running for a region of `work` operations over `items`
  /// independent items: min(size(), items, work / kMinWorkPerPart), at
  /// least 1.  Depends only on its arguments and the team size, so
  /// callers can size per-part workspaces from it before run().
  std::int32_t parts_for(std::int64_t work, std::int64_t items) const;

  /// Run fn(ctx, p, parts) for every p in [0, parts) and return once all
  /// have finished; or fn(ctx, 0, 1) inline (see the header comment).  If
  /// parts throw, the first exception caught is rethrown here after every
  /// part has finished.
  void run(std::int32_t parts, Fn fn, void* ctx);

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;
  ~ForkJoinTeam();

 private:
  ForkJoinTeam();
  struct State;
  State* state_;
  std::int32_t size_;
};

/// Contiguous range [begin, end) of part `part` out of `parts` over n
/// items; the first n % parts parts get one item more.
inline std::pair<std::int64_t, std::int64_t> part_range(std::int64_t n,
                                                        std::int32_t part,
                                                        std::int32_t parts) {
  const std::int64_t base = n / parts, extra = n % parts;
  const std::int64_t begin = part * base + std::min<std::int64_t>(part, extra);
  return {begin, begin + base + (part < extra ? 1 : 0)};
}

/// Split [0, n) into contiguous ranges across the team and call
/// body(begin, end) once per range; `work` is the whole region's cost in
/// elementary operations.
template <typename Body>
void team_for(std::int64_t n, std::int64_t work, Body&& body) {
  if (n <= 0) return;
  ForkJoinTeam& team = ForkJoinTeam::instance();
  const std::int32_t parts = team.parts_for(work, n);
  if (parts <= 1) {
    body(std::int64_t(0), n);
    return;
  }
  struct Ctx {
    std::remove_reference_t<Body>* body;
    std::int64_t n;
  } ctx{&body, n};
  team.run(
      parts,
      [](void* c, std::int32_t part, std::int32_t parts_run) {
        const Ctx& x = *static_cast<const Ctx*>(c);
        const auto [b, e] = part_range(x.n, part, parts_run);
        if (b < e) (*x.body)(b, e);
      },
      &ctx);
}

/// Run body(part, parts) on the team for a caller-chosen part count
/// (usually from parts_for(), when per-part workspaces depend on it).
template <typename Body>
void team_run(std::int32_t parts, Body&& body) {
  if (parts <= 1) {
    body(std::int32_t(0), std::int32_t(1));
    return;
  }
  ForkJoinTeam::instance().run(
      parts,
      [](void* c, std::int32_t part, std::int32_t parts_run) {
        (*static_cast<std::remove_reference_t<Body>*>(c))(part, parts_run);
      },
      &body);
}

}  // namespace oar::util
