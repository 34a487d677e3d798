#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/homogeneous.hpp"
#include "analysis/matmul_analysis.hpp"
#include "analysis/outer_analysis.hpp"
#include "common/rng.hpp"
#include "matmul/matmul_factory.hpp"
#include "obs/progress.hpp"
#include "outer/outer_factory.hpp"
#include "platform/lower_bound.hpp"
#include "runtime/thread_pool.hpp"

namespace hetsched {

Kernel kernel_from_string(const std::string& s) {
  if (s == "outer") return Kernel::kOuter;
  if (s == "matmul") return Kernel::kMatmul;
  throw std::invalid_argument("unknown kernel: " + s);
}

std::string to_string(Kernel kernel) {
  return kernel == Kernel::kOuter ? "outer" : "matmul";
}

bool is_two_phase(const std::string& strategy) {
  return strategy.find("2Phases") != std::string::npos;
}

namespace {

std::unique_ptr<Strategy> build_strategy(const ExperimentConfig& config,
                                         std::uint64_t rep_seed,
                                         double phase2_fraction) {
  if (config.kernel == Kernel::kOuter) {
    OuterStrategyOptions options;
    options.phase2_fraction = phase2_fraction;
    return make_outer_strategy(config.strategy, OuterConfig{config.n},
                               config.p, rep_seed, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = phase2_fraction;
  return make_matmul_strategy(config.strategy, MatmulConfig{config.n},
                              config.p, rep_seed, options);
}

}  // namespace

double resolve_beta(const ExperimentConfig& config) {
  if (!is_two_phase(config.strategy)) return 0.0;
  if (config.phase2_fraction.has_value()) {
    if (!(*config.phase2_fraction > 0.0) || *config.phase2_fraction > 1.0) {
      throw std::invalid_argument("phase2_fraction must be in (0, 1]");
    }
    return -std::log(*config.phase2_fraction);
  }
  return config.kernel == Kernel::kOuter
             ? beta_homogeneous_outer(config.p, config.n)
             : beta_homogeneous_matmul(config.p, config.n);
}

double analysis_ratio_for(Kernel kernel, std::uint32_t n,
                          const std::vector<double>& speeds, double beta) {
  const Platform platform(speeds);
  if (kernel == Kernel::kOuter) {
    return OuterAnalysis(platform.relative_speeds(), n).ratio(beta);
  }
  return MatmulAnalysis(platform.relative_speeds(), n).ratio(beta);
}

RepOutcome run_single(const ExperimentConfig& config, std::uint64_t rep_seed,
                      const RepInstrumentation* instr, RepContext* ctx) {
  Rng speed_rng(derive_stream(rep_seed, "experiment.speeds"));
  const Platform platform =
      make_platform(*config.scenario.speeds, config.p, speed_rng);

  const double beta = resolve_beta(config);
  // Carry the fraction itself, not exp(-beta): an explicit fraction of
  // 1.0 (pure phase 2) maps to beta = 0 and must not degrade silently
  // into the pure data-aware strategy.
  double phase2_fraction = 0.0;
  if (is_two_phase(config.strategy)) {
    phase2_fraction =
        config.phase2_fraction.has_value() ? *config.phase2_fraction
                                           : std::exp(-beta);
  }
  // Rep-context reuse: rewind the cached strategy in place when it
  // supports reset(); otherwise build fresh and cache for next time.
  ProfShard* prof = ctx != nullptr ? ctx->prof : nullptr;
  std::unique_ptr<Strategy> owned;
  Strategy* strategy = nullptr;
  if (ctx != nullptr && ctx->strategy != nullptr) {
    ProfScope scope(prof, ProfSite::kStrategyReset);
    if (ctx->strategy->reset(rep_seed)) strategy = ctx->strategy.get();
  }
  if (strategy == nullptr) {
    ProfScope scope(prof, ProfSite::kStrategyBuild);
    owned = build_strategy(config, rep_seed, phase2_fraction);
    strategy = owned.get();
  }

  TraceSink* trace = nullptr;
  if (instr != nullptr) {
    trace = instr->trace;
    if (instr->on_ready) instr->on_ready(*strategy, platform);
  }

  RepOutcome outcome;
  {
    // One scope per engine run: the whole event loop, including every
    // strategy on_request / serve / retire dispatch. Timing coarser
    // than per-event keeps clock reads O(1) per rep (the < 1% gate).
    ProfScope scope(prof, ProfSite::kEngineRun);
    SimConfig sim_config;
    sim_config.seed = rep_seed;
    if (config.timed) {
      sim_config.comm = config.comm;
      sim_config.lookahead = config.lookahead;
    }
    sim_config.perturbation = config.scenario.perturbation;
    sim_config.faults = config.faults;
    outcome.sim = simulate(*strategy, platform, sim_config, trace);
  }
  // A fault script can crash every worker before the pool drains. The
  // volume and makespan of such a rep measure an unfinished run, so
  // reject it rather than average it into the figure.
  const std::uint64_t total_tasks = strategy->total_tasks();
  if (outcome.sim.total_tasks_done < total_tasks) {
    throw std::runtime_error(
        "run_single: rep with seed " + std::to_string(rep_seed) +
        " completed " + std::to_string(outcome.sim.total_tasks_done) +
        " of " + std::to_string(total_tasks) + " tasks (" +
        std::to_string(total_tasks - outcome.sim.total_tasks_done) +
        " short); the run ended with tasks unserved, as when a fault "
        "script crashes every worker");
  }
  if (instr != nullptr && instr->on_done) instr->on_done(outcome.sim);
  if (ctx != nullptr && owned != nullptr) ctx->strategy = std::move(owned);
  outcome.speeds = platform.speeds();
  outcome.beta = beta;

  const auto rs = platform.relative_speeds();
  outcome.lower_bound = config.kernel == Kernel::kOuter
                            ? outer_lower_bound(config.n, rs)
                            : matmul_lower_bound(config.n, rs);
  outcome.normalized = outcome.sim.normalized_volume(outcome.lower_bound);
  // The analysis models the two-phase strategy; for the others we still
  // report the model at the resolved (or default) beta so benches can
  // overlay the curve where the paper does.
  const double analysis_beta =
      beta > 0.0 ? beta
                 : (config.kernel == Kernel::kOuter
                        ? beta_homogeneous_outer(config.p, config.n)
                        : beta_homogeneous_matmul(config.p, config.n));
  outcome.analysis_ratio =
      analysis_ratio_for(config.kernel, config.n, outcome.speeds, analysis_beta);
  return outcome;
}

namespace {

struct ShardStats {
  RunningStats normalized, analysis, makespan, spread;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.reps == 0) {
    throw std::invalid_argument("run_experiment: reps must be >= 1");
  }
  const auto start = std::chrono::steady_clock::now();
  ExperimentResult result;
  result.beta = resolve_beta(config);
  result.reps.resize(config.reps);

  // Deterministic parallel replication: shard s owns reps
  // {s, s + kRepShards, ...}. Shards are the unit of work the rep
  // workers claim, so each shard has exactly one writer, a fixed push
  // order within it, and a fixed merge order across shards — the
  // aggregation is bit-identical for any thread count.
  const std::uint32_t shard_count = std::min(kRepShards, config.reps);
  std::vector<ShardStats> shards(shard_count);
  // Profiling shards mirror the stat shards: one single-writer struct
  // per shard, merged in shard order below, so profiled totals
  // aggregate identically for any thread count.
  std::vector<ProfShard> prof_shards(config.profile ? shard_count : 0);
  auto run_shard = [&](std::uint64_t s) {
    ShardStats& shard = shards[s];
    // One rep context per shard: the shard is single-writer, so the
    // strategy cached in it is rewound (not rebuilt) for every rep the
    // shard runs after its first.
    RepContext ctx;
    if (config.profile) ctx.prof = &prof_shards[s];
    for (std::uint64_t r = s; r < config.reps; r += kRepShards) {
      const std::uint64_t rep_seed =
          derive_stream(config.seed, "rep." + std::to_string(r));
      RepOutcome outcome = run_single(config, rep_seed, nullptr, &ctx);
      shard.normalized.push(outcome.normalized);
      shard.analysis.push(outcome.analysis_ratio);
      shard.makespan.push(outcome.sim.makespan);
      shard.spread.push(outcome.sim.finish_spread());
      result.reps[r] = std::move(outcome);
      if (config.progress != nullptr) config.progress->rep_done();
    }
  };

  std::uint32_t threads = 1;
  std::optional<ParallelLease> lease;
  if (config.parallelism > 0) {
    threads = std::min(config.parallelism, shard_count);
  } else if (shard_count > 1) {
    lease.emplace(shard_count);
    threads = std::max(1u, lease->granted());
    if (threads <= 1) lease.reset();  // serial: return the slot now
  }
  result.rep_parallelism = threads;
  parallel_for_dynamic(threads, shard_count, run_shard);
  lease.reset();

  ShardStats total;
  {
    // Main-thread shard: the merge itself is profiled work.
    ProfShard agg_shard;
    ProfShard* agg = config.profile ? &agg_shard : nullptr;
    {
      ProfScope scope(agg, ProfSite::kAggregate);
      for (const ShardStats& shard : shards) {
        total.normalized.merge(shard.normalized);
        total.analysis.merge(shard.analysis);
        total.makespan.merge(shard.makespan);
        total.spread.merge(shard.spread);
      }
    }
    if (config.profile) {
      result.profile.enabled = true;
      for (const ProfShard& shard : prof_shards) result.profile.add(shard);
      result.profile.add(agg_shard);
    }
  }
  result.normalized = total.normalized.to_summary();
  result.analysis_ratio = total.analysis.to_summary();
  result.makespan = total.makespan.to_summary();
  result.finish_spread = total.spread.to_summary();

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.wall_time_sec = elapsed.count();
  result.reps_per_sec =
      elapsed.count() > 0.0 ? config.reps / elapsed.count() : 0.0;
  return result;
}

}  // namespace hetsched
