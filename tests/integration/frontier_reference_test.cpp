// Property tests pinning the word-parallel enabled-task frontier of
// the dynamic strategies against the pre-frontier reference semantics:
// a data-aware request must allocate exactly the still-pooled tasks of
// the knowledge extension — (I+i) x (J+j) [x (K+k)] with at least one
// new coordinate — no matter how the frontier enumerates them.
//
// The reference model mirrors the strategy's RNG stream (same
// derive_stream tag, same swap-remove pick discipline) and keeps a
// shadow pool as a plain std::set, then recomputes each expected
// assignment with the old O(y^2)-style nested loops. Runs cover grids
// of n / workers / seeds and a mid-run requeue (the crash path), which
// must land the returned ids back in the frontier's view.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "matmul/dynamic_matrix.hpp"
#include "matmul/matmul_problem.hpp"
#include "outer/dynamic_outer.hpp"
#include "outer/outer_problem.hpp"

namespace hetsched {
namespace {

// Mirrors the strategies' index drawing: uniform pick + swap-remove.
std::uint32_t mirror_pick(Rng& rng, std::vector<std::uint32_t>& unknown) {
  const auto pos = static_cast<std::size_t>(rng.next_below(unknown.size()));
  const std::uint32_t v = unknown[pos];
  unknown[pos] = unknown.back();
  unknown.pop_back();
  return v;
}

struct OuterMirror {
  std::vector<std::uint32_t> known_i, known_j, unknown_i, unknown_j;

  explicit OuterMirror(std::uint32_t n) : unknown_i(n), unknown_j(n) {
    for (std::uint32_t v = 0; v < n; ++v) unknown_i[v] = unknown_j[v] = v;
  }
};

struct MatmulMirror {
  std::vector<std::uint32_t> known_i, known_j, known_k;
  std::vector<std::uint32_t> unknown_i, unknown_j, unknown_k;

  explicit MatmulMirror(std::uint32_t n)
      : unknown_i(n), unknown_j(n), unknown_k(n) {
    for (std::uint32_t v = 0; v < n; ++v) {
      unknown_i[v] = unknown_j[v] = unknown_k[v] = v;
    }
  }
};

TEST(FrontierReference, OuterMatchesNestedLoopReference) {
  for (const std::uint32_t n : {3u, 7u, 30u, 65u}) {
    for (const std::uint32_t workers : {1u, 3u}) {
      for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " workers=" << workers << " seed=" << seed);
        DynamicOuterStrategy strategy(OuterConfig{n}, workers, seed,
                                      /*phase2_tasks=*/0);
        Rng rng(derive_stream(seed, "outer.dynamic"));
        std::vector<OuterMirror> mirror(workers, OuterMirror(n));
        std::set<TaskId> pooled;
        for (TaskId id = 0; id < static_cast<TaskId>(n) * n; ++id) {
          pooled.insert(id);
        }

        std::uint32_t w = 0;
        bool exhausted = false;
        while (!exhausted) {
          OuterMirror& m = mirror[w];
          // The pure strategy goes random only when unknowns run dry,
          // which a crash-free run never reaches; stop just before.
          if (m.unknown_i.empty() || m.unknown_j.empty()) break;
          const auto a = strategy.on_request(w);
          if (!a.has_value()) {
            exhausted = true;
            break;
          }
          const std::uint32_t i = mirror_pick(rng, m.unknown_i);
          const std::uint32_t j = mirror_pick(rng, m.unknown_j);
          // Old reference semantics: row i against J + j, column j
          // against I, each taken iff still pooled.
          std::set<TaskId> expected;
          auto try_take = [&](TaskId id) {
            if (pooled.erase(id) != 0) expected.insert(id);
          };
          try_take(outer_task_id(n, i, j));
          for (const std::uint32_t j2 : m.known_j) try_take(outer_task_id(n, i, j2));
          for (const std::uint32_t i2 : m.known_i) try_take(outer_task_id(n, i2, j));
          m.known_i.push_back(i);
          m.known_j.push_back(j);

          const std::set<TaskId> actual(a->tasks.begin(), a->tasks.end());
          ASSERT_EQ(actual, expected);
          ASSERT_EQ(a->tasks.size(), actual.size()) << "duplicate task ids";
          w = (w + 1) % workers;
        }
        ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
      }
    }
  }
}

TEST(FrontierReference, OuterMatchesReferenceAfterRequeue) {
  const std::uint32_t n = 20;
  const std::uint64_t seed = 7;
  DynamicOuterStrategy strategy(OuterConfig{n}, 2, seed, /*phase2_tasks=*/0);
  Rng rng(derive_stream(seed, "outer.dynamic"));
  std::vector<OuterMirror> mirror(2, OuterMirror(n));
  std::set<TaskId> pooled;
  for (TaskId id = 0; id < static_cast<TaskId>(n) * n; ++id) pooled.insert(id);

  std::vector<TaskId> assigned;  // everything handed out so far
  auto serve = [&](std::uint32_t w) {
    OuterMirror& m = mirror[w];
    ASSERT_FALSE(m.unknown_i.empty());
    const auto a = strategy.on_request(w);
    ASSERT_TRUE(a.has_value());
    const std::uint32_t i = mirror_pick(rng, m.unknown_i);
    const std::uint32_t j = mirror_pick(rng, m.unknown_j);
    std::set<TaskId> expected;
    auto try_take = [&](TaskId id) {
      if (pooled.erase(id) != 0) expected.insert(id);
    };
    try_take(outer_task_id(n, i, j));
    for (const std::uint32_t j2 : m.known_j) try_take(outer_task_id(n, i, j2));
    for (const std::uint32_t i2 : m.known_i) try_take(outer_task_id(n, i2, j));
    m.known_i.push_back(i);
    m.known_j.push_back(j);
    const std::set<TaskId> actual(a->tasks.begin(), a->tasks.end());
    ASSERT_EQ(actual, expected);
    assigned.insert(assigned.end(), a->tasks.begin(), a->tasks.end());
  };

  for (int r = 0; r < 6; ++r) serve(static_cast<std::uint32_t>(r % 2));

  // Crash path: every third assigned task goes back to the pool. The
  // frontier's removed-set view must resurface them for later batches.
  std::vector<TaskId> requeued;
  for (std::size_t t = 0; t < assigned.size(); t += 3) {
    requeued.push_back(assigned[t]);
  }
  ASSERT_TRUE(strategy.requeue(requeued));
  for (const TaskId id : requeued) pooled.insert(id);

  for (int r = 0; r < 10; ++r) serve(static_cast<std::uint32_t>(r % 2));
  ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
}

TEST(FrontierReference, MatmulMatchesNestedLoopReference) {
  for (const std::uint32_t n : {2u, 5u, 17u, 40u}) {
    for (const std::uint32_t workers : {1u, 3u}) {
      for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " workers=" << workers << " seed=" << seed);
        DynamicMatrixStrategy strategy(MatmulConfig{n}, workers, seed,
                                       /*phase2_tasks=*/0);
        Rng rng(derive_stream(seed, "matmul.dynamic"));
        std::vector<MatmulMirror> mirror(workers, MatmulMirror(n));
        std::set<TaskId> pooled;
        const TaskId total = static_cast<TaskId>(n) * n * n;
        for (TaskId id = 0; id < total; ++id) pooled.insert(id);

        std::uint32_t w = 0;
        bool exhausted = false;
        while (!exhausted) {
          MatmulMirror& m = mirror[w];
          if (m.unknown_i.empty()) break;  // random fallback from here on
          const auto a = strategy.on_request(w);
          if (!a.has_value()) {
            exhausted = true;
            break;
          }
          const std::uint32_t i = mirror_pick(rng, m.unknown_i);
          const std::uint32_t j = mirror_pick(rng, m.unknown_j);
          const std::uint32_t k = mirror_pick(rng, m.unknown_k);
          // Old reference semantics: all of (I+i) x (J+j) x (K+k) with
          // at least one new coordinate, each taken iff still pooled.
          std::set<TaskId> expected;
          auto try_take = [&](std::uint32_t ti, std::uint32_t tj,
                              std::uint32_t tk) {
            const TaskId id = matmul_task_id(n, ti, tj, tk);
            if (pooled.erase(id) != 0) expected.insert(id);
          };
          auto with_new = [&](std::uint32_t ti, std::uint32_t tj,
                              std::uint32_t tk) {
            const bool any_new = ti == i || tj == j || tk == k;
            if (any_new) try_take(ti, tj, tk);
          };
          std::vector<std::uint32_t> all_i = m.known_i;
          std::vector<std::uint32_t> all_j = m.known_j;
          std::vector<std::uint32_t> all_k = m.known_k;
          all_i.push_back(i);
          all_j.push_back(j);
          all_k.push_back(k);
          for (const std::uint32_t ti : all_i) {
            for (const std::uint32_t tj : all_j) {
              for (const std::uint32_t tk : all_k) with_new(ti, tj, tk);
            }
          }
          m.known_i.push_back(i);
          m.known_j.push_back(j);
          m.known_k.push_back(k);

          const std::set<TaskId> actual(a->tasks.begin(), a->tasks.end());
          ASSERT_EQ(actual, expected);
          ASSERT_EQ(a->tasks.size(), actual.size()) << "duplicate task ids";
          w = (w + 1) % workers;
        }
        ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
      }
    }
  }
}

TEST(FrontierReference, MatmulMatchesReferenceAfterRequeue) {
  const std::uint32_t n = 9;
  const std::uint64_t seed = 11;
  DynamicMatrixStrategy strategy(MatmulConfig{n}, 2, seed, /*phase2_tasks=*/0);
  Rng rng(derive_stream(seed, "matmul.dynamic"));
  std::vector<MatmulMirror> mirror(2, MatmulMirror(n));
  std::set<TaskId> pooled;
  const TaskId total = static_cast<TaskId>(n) * n * n;
  for (TaskId id = 0; id < total; ++id) pooled.insert(id);

  std::vector<TaskId> assigned;
  auto serve = [&](std::uint32_t w) {
    MatmulMirror& m = mirror[w];
    ASSERT_FALSE(m.unknown_i.empty());
    const auto a = strategy.on_request(w);
    ASSERT_TRUE(a.has_value());
    const std::uint32_t i = mirror_pick(rng, m.unknown_i);
    const std::uint32_t j = mirror_pick(rng, m.unknown_j);
    const std::uint32_t k = mirror_pick(rng, m.unknown_k);
    std::set<TaskId> expected;
    auto with_new = [&](std::uint32_t ti, std::uint32_t tj, std::uint32_t tk) {
      if (ti != i && tj != j && tk != k) return;
      const TaskId id = matmul_task_id(n, ti, tj, tk);
      if (pooled.erase(id) != 0) expected.insert(id);
    };
    std::vector<std::uint32_t> all_i = m.known_i;
    std::vector<std::uint32_t> all_j = m.known_j;
    std::vector<std::uint32_t> all_k = m.known_k;
    all_i.push_back(i);
    all_j.push_back(j);
    all_k.push_back(k);
    for (const std::uint32_t ti : all_i) {
      for (const std::uint32_t tj : all_j) {
        for (const std::uint32_t tk : all_k) with_new(ti, tj, tk);
      }
    }
    m.known_i.push_back(i);
    m.known_j.push_back(j);
    m.known_k.push_back(k);
    const std::set<TaskId> actual(a->tasks.begin(), a->tasks.end());
    ASSERT_EQ(actual, expected);
    assigned.insert(assigned.end(), a->tasks.begin(), a->tasks.end());
  };

  for (int r = 0; r < 6; ++r) serve(static_cast<std::uint32_t>(r % 2));

  std::vector<TaskId> requeued;
  for (std::size_t t = 0; t < assigned.size(); t += 3) {
    requeued.push_back(assigned[t]);
  }
  ASSERT_TRUE(strategy.requeue(requeued));
  for (const TaskId id : requeued) pooled.insert(id);

  for (int r = 0; r < 6; ++r) serve(static_cast<std::uint32_t>(r % 2));
  ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
}


// ---- Run-expansion order pinning (the run-length Assignment protocol) ----
//
// The tests above pin the allocated *set*; these pin the *sequence*: the
// run-encoded grants (Assignment::task_runs, expanded scalars-first then
// runs ascending-bit by the iteration facade) must replay the legacy
// per-task push order exactly — corner, i-slab (J ascending), j-slab
// (I ascending), k-faces (I x J ascending) for matmul; row (J + j
// ascending) then column (I ascending) for the outer product — across
// n / workers / seed grids, multi-word masks (n > 64) and
// crash-requeue reps.

// Takes `id` from a shadow pool if it is still there. The small grids
// keep the pool as a std::set, the compact-layout cases (~3.6e7 ids)
// as a std::vector<bool>.
bool take_pooled(std::set<TaskId>& pooled, TaskId id) {
  return pooled.erase(id) != 0;
}
bool take_pooled(std::vector<bool>& pooled, TaskId id) {
  if (!pooled[id]) return false;
  pooled[id] = false;
  return true;
}

// Legacy per-task emission order of one outer request, recomputed from
// the mirror: row i against J + j ascending, then column j against I
// ascending, each taken iff still pooled.
template <typename Pool>
std::vector<TaskId> outer_expected_order(Pool& pooled, const OuterMirror& m,
                                         std::uint32_t n, std::uint32_t i,
                                         std::uint32_t j) {
  std::vector<TaskId> expected;
  std::vector<std::uint32_t> all_j = m.known_j;
  all_j.push_back(j);
  std::sort(all_j.begin(), all_j.end());
  std::vector<std::uint32_t> all_i = m.known_i;
  std::sort(all_i.begin(), all_i.end());
  auto try_take = [&](TaskId id) {
    if (take_pooled(pooled, id)) expected.push_back(id);
  };
  for (const std::uint32_t j2 : all_j) try_take(outer_task_id(n, i, j2));
  for (const std::uint32_t i2 : all_i) try_take(outer_task_id(n, i2, j));
  return expected;
}

// Legacy per-task emission order of one matmul request: the corner
// k-run (i, j, ·), the i-slab runs (i, j2, ·) for j2 in J ascending,
// the j-slab runs (i2, j, ·) for i2 in I ascending, then the k-face
// probes (i2, j2, k) for i2 in I, j2 in J ascending; every k-run scans
// K + k ascending, every candidate taken iff still pooled.
template <typename Pool>
std::vector<TaskId> matmul_expected_order(Pool& pooled, const MatmulMirror& m,
                                          std::uint32_t n, std::uint32_t i,
                                          std::uint32_t j, std::uint32_t k) {
  std::vector<TaskId> expected;
  std::vector<std::uint32_t> all_k = m.known_k;
  all_k.push_back(k);
  std::sort(all_k.begin(), all_k.end());
  std::vector<std::uint32_t> old_i = m.known_i;
  std::sort(old_i.begin(), old_i.end());
  std::vector<std::uint32_t> old_j = m.known_j;
  std::sort(old_j.begin(), old_j.end());
  auto try_take = [&](std::uint32_t ti, std::uint32_t tj, std::uint32_t tk) {
    const TaskId id = matmul_task_id(n, ti, tj, tk);
    if (take_pooled(pooled, id)) expected.push_back(id);
  };
  auto k_run = [&](std::uint32_t ti, std::uint32_t tj) {
    for (const std::uint32_t tk : all_k) try_take(ti, tj, tk);
  };
  k_run(i, j);                                      // corner
  for (const std::uint32_t j2 : old_j) k_run(i, j2);  // i-slab
  for (const std::uint32_t i2 : old_i) k_run(i2, j);  // j-slab
  for (const std::uint32_t i2 : old_i) {              // k-face
    for (const std::uint32_t j2 : old_j) try_take(i2, j2, k);
  }
  return expected;
}

// Block sequence of one matmul data-aware request to a worker that has
// only been served data-aware: per operand, the new row over the old
// mask plus the new column, then the new column over the old row mask,
// each ascending — A_{i, K+k}, A_{I, k}, B_{k, J+j}, B_{K, j},
// C_{i, J+j}, C_{I, j}; 3 * (2y + 1) blocks in all.
std::vector<BlockRef> matmul_expected_blocks(const MatmulMirror& m,
                                             std::uint32_t i, std::uint32_t j,
                                             std::uint32_t k) {
  const auto sorted = [](std::vector<std::uint32_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto plus = [](std::vector<std::uint32_t> v, std::uint32_t extra) {
    v.push_back(extra);
    return v;
  };
  std::vector<BlockRef> expected;
  const auto row = [&](Operand op, std::uint32_t r,
                       const std::vector<std::uint32_t>& cols) {
    for (const std::uint32_t c : cols) expected.push_back(BlockRef{op, r, c});
  };
  const auto col = [&](Operand op, const std::vector<std::uint32_t>& rows,
                       std::uint32_t c) {
    for (const std::uint32_t r : rows) expected.push_back(BlockRef{op, r, c});
  };
  row(Operand::kMatA, i, sorted(plus(m.known_k, k)));
  col(Operand::kMatA, sorted(m.known_i), k);
  row(Operand::kMatB, k, sorted(plus(m.known_j, j)));
  col(Operand::kMatB, sorted(m.known_k), j);
  row(Operand::kMatC, i, sorted(plus(m.known_j, j)));
  col(Operand::kMatC, sorted(m.known_i), j);
  return expected;
}

// Expands an assignment's task channels in facade order and checks the
// run-level invariants the protocol promises: runs carry a correct
// cached popcount, no empty runs, and the data-aware path emits tasks
// only run-encoded.
std::vector<TaskId> expand_tasks_checked(const Assignment& a) {
  EXPECT_TRUE(a.tasks.empty())
      << "data-aware grant leaked onto the scalar channel";
  std::uint64_t counted = 0;
  for (const TaskRun& r : a.task_runs) {
    EXPECT_NE(r.bits, 0u) << "empty task run emitted";
    EXPECT_EQ(r.count, static_cast<std::uint32_t>(std::popcount(r.bits)));
    counted += r.count;
  }
  std::vector<TaskId> out;
  a.for_each_task([&](TaskId t) { out.push_back(t); });
  EXPECT_EQ(out.size(), counted);
  EXPECT_EQ(a.task_count(), counted);
  return out;
}

TEST(FrontierReference, OuterRunExpansionMatchesLegacyOrder) {
  for (const std::uint32_t n : {3u, 30u, 65u, 130u}) {
    for (const std::uint32_t workers : {1u, 3u}) {
      for (const std::uint64_t seed : {1ull, 42ull}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " workers=" << workers << " seed=" << seed);
        DynamicOuterStrategy strategy(OuterConfig{n}, workers, seed,
                                      /*phase2_tasks=*/0);
        Rng rng(derive_stream(seed, "outer.dynamic"));
        std::vector<OuterMirror> mirror(workers, OuterMirror(n));
        std::set<TaskId> pooled;
        for (TaskId id = 0; id < static_cast<TaskId>(n) * n; ++id) {
          pooled.insert(id);
        }

        Assignment out;
        std::uint32_t w = 0;
        // Stop when the pool drains (on_request returns false then) or
        // the round-robin worker's unknown sets run dry (its next
        // service would be the random fallback, covered elsewhere).
        while (!pooled.empty() && !mirror[w].unknown_i.empty() &&
               !mirror[w].unknown_j.empty()) {
          OuterMirror& m = mirror[w];
          ASSERT_TRUE(strategy.on_request(w, out));
          const std::uint32_t i = mirror_pick(rng, m.unknown_i);
          const std::uint32_t j = mirror_pick(rng, m.unknown_j);
          const std::vector<TaskId> expected =
              outer_expected_order(pooled, m, n, i, j);
          m.known_i.push_back(i);
          m.known_j.push_back(j);
          ASSERT_EQ(expand_tasks_checked(out), expected);
          w = (w + 1) % workers;
        }
        ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
      }
    }
  }
}

TEST(FrontierReference, MatmulRunExpansionMatchesLegacyOrder) {
  for (const std::uint32_t n : {2u, 5u, 17u, 40u, 70u}) {
    for (const std::uint32_t workers : {1u, 3u}) {
      for (const std::uint64_t seed : {1ull, 42ull}) {
        // n = 70 exercises the multi-word (two mask words) flat scan;
        // one grid cell keeps its reference-model cost in check.
        if (n == 70 && (workers != 3 || seed != 1)) continue;
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " workers=" << workers << " seed=" << seed);
        DynamicMatrixStrategy strategy(MatmulConfig{n}, workers, seed,
                                       /*phase2_tasks=*/0);
        Rng rng(derive_stream(seed, "matmul.dynamic"));
        std::vector<MatmulMirror> mirror(workers, MatmulMirror(n));
        std::set<TaskId> pooled;
        const TaskId total = static_cast<TaskId>(n) * n * n;
        for (TaskId id = 0; id < total; ++id) pooled.insert(id);

        Assignment out;
        std::uint32_t w = 0;
        // As in the outer test: a drained pool fails on_request, and a
        // dry unknown set would switch the worker to the fallback path.
        while (!pooled.empty() && !mirror[w].unknown_i.empty()) {
          MatmulMirror& m = mirror[w];
          // Data-aware service ships exactly 3 * (2y + 1) blocks, in
          // the six ascending groups of matmul_expected_blocks.
          const auto y = static_cast<std::uint64_t>(m.known_i.size());
          ASSERT_TRUE(strategy.on_request(w, out));
          ASSERT_EQ(out.block_count(), 3 * (2 * y + 1));
          const std::uint32_t i = mirror_pick(rng, m.unknown_i);
          const std::uint32_t j = mirror_pick(rng, m.unknown_j);
          const std::uint32_t k = mirror_pick(rng, m.unknown_k);
          std::vector<BlockRef> blocks;
          out.for_each_block([&](const BlockRef& b) { blocks.push_back(b); });
          ASSERT_EQ(blocks, matmul_expected_blocks(m, i, j, k));
          const std::vector<TaskId> expected =
              matmul_expected_order(pooled, m, n, i, j, k);
          m.known_i.push_back(i);
          m.known_j.push_back(j);
          m.known_k.push_back(k);
          ASSERT_EQ(expand_tasks_checked(out), expected);
          w = (w + 1) % workers;
        }
        ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
      }
    }
  }
}

TEST(FrontierReference, OuterRunExpansionOrderAfterRequeue) {
  const std::uint32_t n = 67;  // multi-word masks through the crash path
  const std::uint64_t seed = 9;
  DynamicOuterStrategy strategy(OuterConfig{n}, 2, seed, /*phase2_tasks=*/0);
  Rng rng(derive_stream(seed, "outer.dynamic"));
  std::vector<OuterMirror> mirror(2, OuterMirror(n));
  std::set<TaskId> pooled;
  for (TaskId id = 0; id < static_cast<TaskId>(n) * n; ++id) {
    pooled.insert(id);
  }

  Assignment out;
  std::vector<TaskId> assigned;
  auto serve = [&](std::uint32_t w) {
    OuterMirror& m = mirror[w];
    ASSERT_FALSE(m.unknown_i.empty());
    ASSERT_TRUE(strategy.on_request(w, out));
    const std::uint32_t i = mirror_pick(rng, m.unknown_i);
    const std::uint32_t j = mirror_pick(rng, m.unknown_j);
    const std::vector<TaskId> expected =
        outer_expected_order(pooled, m, n, i, j);
    m.known_i.push_back(i);
    m.known_j.push_back(j);
    const std::vector<TaskId> actual = expand_tasks_checked(out);
    ASSERT_EQ(actual, expected);
    assigned.insert(assigned.end(), actual.begin(), actual.end());
  };

  for (int r = 0; r < 8; ++r) serve(static_cast<std::uint32_t>(r % 2));

  std::vector<TaskId> requeued;
  for (std::size_t t = 0; t < assigned.size(); t += 3) {
    requeued.push_back(assigned[t]);
  }
  ASSERT_TRUE(strategy.requeue(requeued));
  for (const TaskId id : requeued) pooled.insert(id);

  for (int r = 0; r < 12; ++r) serve(static_cast<std::uint32_t>(r % 2));
  ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
}

TEST(FrontierReference, MatmulRunExpansionOrderAfterRequeue) {
  const std::uint32_t n = 70;  // multi-word masks through the crash path
  const std::uint64_t seed = 13;
  DynamicMatrixStrategy strategy(MatmulConfig{n}, 2, seed,
                                 /*phase2_tasks=*/0);
  Rng rng(derive_stream(seed, "matmul.dynamic"));
  std::vector<MatmulMirror> mirror(2, MatmulMirror(n));
  std::set<TaskId> pooled;
  const TaskId total = static_cast<TaskId>(n) * n * n;
  for (TaskId id = 0; id < total; ++id) pooled.insert(id);

  Assignment out;
  std::vector<TaskId> assigned;
  auto serve = [&](std::uint32_t w) {
    MatmulMirror& m = mirror[w];
    ASSERT_FALSE(m.unknown_i.empty());
    ASSERT_TRUE(strategy.on_request(w, out));
    const std::uint32_t i = mirror_pick(rng, m.unknown_i);
    const std::uint32_t j = mirror_pick(rng, m.unknown_j);
    const std::uint32_t k = mirror_pick(rng, m.unknown_k);
    const std::vector<TaskId> expected =
        matmul_expected_order(pooled, m, n, i, j, k);
    m.known_i.push_back(i);
    m.known_j.push_back(j);
    m.known_k.push_back(k);
    const std::vector<TaskId> actual = expand_tasks_checked(out);
    ASSERT_EQ(actual, expected);
    assigned.insert(assigned.end(), actual.begin(), actual.end());
  };

  // Enough serves that the requeued ids land inside later windows.
  for (int r = 0; r < 16; ++r) serve(static_cast<std::uint32_t>(r % 2));

  std::vector<TaskId> requeued;
  for (std::size_t t = 0; t < assigned.size(); t += 3) {
    requeued.push_back(assigned[t]);
  }
  ASSERT_TRUE(strategy.requeue(requeued));
  for (const TaskId id : requeued) pooled.insert(id);

  for (int r = 0; r < 16; ++r) serve(static_cast<std::uint32_t>(r % 2));
  ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
}

// ---- Compact pool layout ----
//
// At >= 2^25 tasks the pool switches to its compact layout, and the
// request kernel reads and writes that layout's raw removed-set words
// instead. The grids above never reach it; these cases do, at the
// smallest n that crosses the threshold. The shadow pool is a
// std::vector<bool> (a std::set of ~3.6e7 nodes would dominate the
// run), each request is checked twice — the allocated set against the
// nested-loop reference and the run expansion against the legacy
// per-task order — and one served batch is requeued mid-run.

constexpr std::uint32_t kCompactOuterN = 5800;
constexpr std::uint32_t kCompactMatmulN = 330;
static_assert(std::uint64_t{kCompactOuterN} * kCompactOuterN >=
              TaskPool::kCompactThreshold);
static_assert(std::uint64_t{kCompactMatmulN} * kCompactMatmulN *
                  kCompactMatmulN >=
              TaskPool::kCompactThreshold);

constexpr std::uint32_t kCompactWorkers = 3;
constexpr int kCompactRequests = 60;
constexpr int kCompactRequeueAfter = 30;

std::vector<TaskId> sorted_copy(std::vector<TaskId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FrontierReference, OuterMatchesReferenceOnCompactLayout) {
  const std::uint32_t n = kCompactOuterN;
  for (const std::uint64_t seed : {1ull, 42ull}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    DynamicOuterStrategy strategy(OuterConfig{n}, kCompactWorkers, seed,
                                  /*phase2_tasks=*/0);
    Rng rng(derive_stream(seed, "outer.dynamic"));
    std::vector<OuterMirror> mirror(kCompactWorkers, OuterMirror(n));
    std::vector<bool> pooled(static_cast<std::size_t>(n) * n, true);
    std::uint64_t pooled_count = pooled.size();

    Assignment out;
    for (int r = 0; r < kCompactRequests; ++r) {
      const auto w = static_cast<std::uint32_t>(r % kCompactWorkers);
      OuterMirror& m = mirror[w];
      ASSERT_TRUE(strategy.on_request(w, out));
      const std::uint32_t i = mirror_pick(rng, m.unknown_i);
      const std::uint32_t j = mirror_pick(rng, m.unknown_j);
      // Nested-loop set: row i against J + j, column j against I.
      std::vector<TaskId> expected_set;
      const auto probe = [&](TaskId id) {
        if (pooled[id]) expected_set.push_back(id);
      };
      probe(outer_task_id(n, i, j));
      for (const std::uint32_t j2 : m.known_j) probe(outer_task_id(n, i, j2));
      for (const std::uint32_t i2 : m.known_i) probe(outer_task_id(n, i2, j));
      const std::vector<TaskId> expected =
          outer_expected_order(pooled, m, n, i, j);
      m.known_i.push_back(i);
      m.known_j.push_back(j);

      const std::vector<TaskId> actual = expand_tasks_checked(out);
      ASSERT_EQ(sorted_copy(actual), sorted_copy(expected_set));
      ASSERT_EQ(actual, expected);
      pooled_count -= actual.size();
      if (r == kCompactRequeueAfter) {
        // Crash path: this whole batch goes back to the pool.
        ASSERT_TRUE(strategy.requeue(actual));
        for (const TaskId id : actual) pooled[id] = true;
        pooled_count += actual.size();
      }
      ASSERT_EQ(strategy.unassigned_tasks(), pooled_count);
    }
  }
}

TEST(FrontierReference, MatmulMatchesReferenceOnCompactLayout) {
  const std::uint32_t n = kCompactMatmulN;
  for (const std::uint64_t seed : {1ull, 42ull}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    DynamicMatrixStrategy strategy(MatmulConfig{n}, kCompactWorkers, seed,
                                   /*phase2_tasks=*/0);
    Rng rng(derive_stream(seed, "matmul.dynamic"));
    std::vector<MatmulMirror> mirror(kCompactWorkers, MatmulMirror(n));
    std::vector<bool> pooled(static_cast<std::size_t>(n) * n * n, true);
    std::uint64_t pooled_count = pooled.size();

    Assignment out;
    for (int r = 0; r < kCompactRequests; ++r) {
      const auto w = static_cast<std::uint32_t>(r % kCompactWorkers);
      MatmulMirror& m = mirror[w];
      ASSERT_TRUE(strategy.on_request(w, out));
      const std::uint32_t i = mirror_pick(rng, m.unknown_i);
      const std::uint32_t j = mirror_pick(rng, m.unknown_j);
      const std::uint32_t k = mirror_pick(rng, m.unknown_k);
      // Nested-loop set: all of (I+i) x (J+j) x (K+k) with at least
      // one new coordinate, each taken iff still pooled.
      std::vector<std::uint32_t> all_i = m.known_i;
      std::vector<std::uint32_t> all_j = m.known_j;
      std::vector<std::uint32_t> all_k = m.known_k;
      all_i.push_back(i);
      all_j.push_back(j);
      all_k.push_back(k);
      std::vector<TaskId> expected_set;
      for (const std::uint32_t ti : all_i) {
        for (const std::uint32_t tj : all_j) {
          for (const std::uint32_t tk : all_k) {
            if (ti != i && tj != j && tk != k) continue;
            const TaskId id = matmul_task_id(n, ti, tj, tk);
            if (pooled[id]) expected_set.push_back(id);
          }
        }
      }
      const std::vector<TaskId> expected =
          matmul_expected_order(pooled, m, n, i, j, k);
      m.known_i.push_back(i);
      m.known_j.push_back(j);
      m.known_k.push_back(k);

      const std::vector<TaskId> actual = expand_tasks_checked(out);
      ASSERT_EQ(sorted_copy(actual), sorted_copy(expected_set));
      ASSERT_EQ(actual, expected);
      pooled_count -= actual.size();
      if (r == kCompactRequeueAfter) {
        // Crash path: this whole batch goes back to the pool.
        ASSERT_TRUE(strategy.requeue(actual));
        for (const TaskId id : actual) pooled[id] = true;
        pooled_count += actual.size();
      }
      ASSERT_EQ(strategy.unassigned_tasks(), pooled_count);
    }
  }
}

}  // namespace
}  // namespace hetsched
