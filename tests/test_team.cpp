#include "util/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace oar::util {
namespace {

constexpr std::int64_t kBigWork = std::int64_t(1) << 30;

TEST(ForkJoinTeam, PartRangesTileTheIndexSpace) {
  for (const std::int64_t n : {1, 2, 3, 7, 8, 100, 1001}) {
    for (const std::int32_t parts : {1, 2, 3, 4, 7}) {
      std::int64_t next = 0;
      for (std::int32_t p = 0; p < parts; ++p) {
        const auto [b, e] = part_range(n, p, parts);
        EXPECT_EQ(b, next) << "n " << n << " parts " << parts;
        EXPECT_GE(e, b);
        EXPECT_LE(e - b, n / parts + 1);
        next = e;
      }
      EXPECT_EQ(next, n);
    }
  }
}

TEST(ForkJoinTeam, PartsForFollowsWorkItemsAndTeamSize) {
  const ForkJoinTeam& team = ForkJoinTeam::instance();
  EXPECT_GE(team.size(), 1);
  EXPECT_EQ(team.parts_for(0, 100), 1);
  EXPECT_EQ(team.parts_for(ForkJoinTeam::kMinWorkPerPart - 1, 100), 1);
  EXPECT_EQ(team.parts_for(kBigWork, 1), 1);
  EXPECT_EQ(team.parts_for(kBigWork, 1000), team.size());
  EXPECT_EQ(team.parts_for(2 * ForkJoinTeam::kMinWorkPerPart, 1000),
            std::min(2, team.size()));
}

TEST(ForkJoinTeam, TeamForCoversEveryIndexOnce) {
  for (const std::int64_t n : {1, 3, 4, 5, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    team_for(n, kBigWork, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[std::size_t(i)]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n " << n;
  }
}

TEST(ForkJoinTeam, LargeRegionUsesEveryThread) {
  ForkJoinTeam& team = ForkJoinTeam::instance();
  std::vector<std::thread::id> runner(static_cast<std::size_t>(team.size()));
  std::atomic<int> parts_seen{0};
  team_run(team.size(), [&](std::int32_t part, std::int32_t parts) {
    runner[std::size_t(part)] = std::this_thread::get_id();
    parts_seen = parts;
  });
  // This thread holds no other region, so the region was not run inline.
  ASSERT_EQ(parts_seen.load(), team.size());
  EXPECT_EQ(runner[0], std::this_thread::get_id());
  for (std::size_t i = 1; i < runner.size(); ++i) {
    EXPECT_NE(runner[i], runner[0]);
  }
}

TEST(ForkJoinTeam, RegionInsideARegionRunsInline) {
  std::atomic<int> inner_parts_max{0};
  std::atomic<int> inner_calls{0};
  team_run(ForkJoinTeam::instance().size(), [&](std::int32_t, std::int32_t) {
    team_run(4, [&](std::int32_t, std::int32_t parts) {
      ++inner_calls;
      int seen = inner_parts_max.load();
      while (parts > seen && !inner_parts_max.compare_exchange_weak(seen, parts)) {
      }
    });
  });
  EXPECT_EQ(inner_parts_max.load(), 1);
  EXPECT_EQ(inner_calls.load(), ForkJoinTeam::instance().size());
}

TEST(ForkJoinTeam, RegionOnAPoolOfOneRunsInlineWithoutDeadlock) {
  // The pool's only worker asks for a full team: the region must run on it
  // alone, as ThreadPool::parallel_for does for nested calls.
  ThreadPool pool(1);
  const std::int32_t parts = pool.submit([] {
    std::int32_t seen = 0;
    team_run(4, [&](std::int32_t, std::int32_t p) { seen = p; });
    return seen;
  }).get();
  EXPECT_EQ(parts, 1);
}

TEST(ForkJoinTeam, ExceptionInAPartReachesTheCallerAfterEveryPart) {
  ForkJoinTeam& team = ForkJoinTeam::instance();
  for (const std::int32_t thrower : {0, team.size() - 1}) {
    std::atomic<int> finished{0};
    EXPECT_THROW(team_run(team.size(),
                          [&](std::int32_t part, std::int32_t) {
                            if (part == thrower) throw std::runtime_error("part");
                            ++finished;
                          }),
                 std::runtime_error);
    EXPECT_EQ(finished.load(), team.size() - 1) << "thrower " << thrower;
  }
  // The team is still usable afterwards.
  std::atomic<int> parts_run{0};
  team_run(team.size(), [&](std::int32_t, std::int32_t) { ++parts_run; });
  EXPECT_EQ(parts_run.load(), team.size());
}

TEST(ForkJoinTeam, ConcurrentCallersAllFinishWithCorrectResults) {
  // One caller holds the team at a time; the others run their regions
  // inline.  Every region still covers its whole range exactly once.
  constexpr int kThreads = 4;
  constexpr std::int64_t kN = 4096;
  std::vector<std::vector<std::int64_t>> out(kThreads,
                                             std::vector<std::int64_t>(kN));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&out, t] {
      for (int round = 0; round < 200; ++round) {
        team_for(kN, kBigWork, [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i) {
            out[std::size_t(t)][std::size_t(i)] += i + t;
          }
        });
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[std::size_t(t)][std::size_t(i)], 200 * (i + t));
    }
  }
}

}  // namespace
}  // namespace oar::util
