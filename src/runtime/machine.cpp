#include "runtime/machine.hpp"

#include <thread>

namespace parsssp {

Machine::Machine(MachineConfig config)
    : config_([&] {
        if (config.num_ranks == 0) config.num_ranks = 1;
        if (config.lanes_per_rank == 0) config.lanes_per_rank = 1;
        return config;
      }()),
      traffic_(config_.num_ranks) {}

void Machine::run(const std::function<void(RankCtx&)>& job) {
  traffic_.reset();
  if (config_.record_pair_traffic) {
    pair_messages_.assign(
        static_cast<std::size_t>(config_.num_ranks) * config_.num_ranks, 0);
  } else {
    pair_messages_.clear();
  }
  ExchangeBoard board(config_.num_ranks, config_.checked_exchange);
  CollectiveContext collectives(config_.num_ranks);

  ErrorSlot error;

  auto rank_main = [&](rank_t r) {
    RankCtx ctx(r, board, collectives, traffic_.rank(r),
                config_.lanes_per_rank, config_.checked_exchange,
                config_.record_pair_traffic ? &pair_messages_ : nullptr);
    try {
      job(ctx);
    } catch (...) {
      error.capture();
      // Best effort: jobs are internally bulk-synchronous, so a throwing
      // rank would normally deadlock its peers at the next barrier. Jobs in
      // this library throw only on programming errors; tests that exercise
      // propagation throw on every rank.
    }
  };

  if (config_.num_ranks == 1) {
    rank_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(config_.num_ranks);
    for (rank_t r = 0; r < config_.num_ranks; ++r) {
      threads.emplace_back(rank_main, r);
    }
    for (auto& t : threads) t.join();
  }

  if (auto first = error.get()) std::rethrow_exception(first);
}

}  // namespace parsssp
