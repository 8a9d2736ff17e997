// Experiment E3 tooling performance: verifying the three RQS properties on
// 3t+1 systems restated over an enumerated general adversary, through the
// check engine and through the naive reference checkers that no perfbench
// workload runs. perfbench's check-sweep workload times check() and
// classify() on the paper's systems.
#include "bench/bench_util.hpp"
#include "core/check_engine.hpp"
#include "core/constructions.hpp"

namespace rqs {
namespace {

// The E3 verdicts are gtests (Fig3Test, Example7Test, ErrataTest,
// ClassifyTest, CheckEngineTest), so this binary has no table.
void print_tables() {}

void BM_CheckThresholdEnumerated(benchmark::State& state) {
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  const RefinedQuorumSystem analytic = make_3t1_instantiation(t);
  Adversary general{analytic.universe_size(),
                    analytic.adversary().maximal_elements()};
  std::vector<Quorum> quorums(analytic.quorums().begin(),
                              analytic.quorums().end());
  const RefinedQuorumSystem sys{std::move(general), std::move(quorums)};
  for (auto _ : state) benchmark::DoNotOptimize(sys.check(1).ok());
}
BENCHMARK(BM_CheckThresholdEnumerated)->Arg(1)->Arg(2);

void BM_CheckThresholdEnumeratedNaive(benchmark::State& state) {
  // The naive reference checkers (no engine), for before/after comparison
  // with BM_CheckThresholdEnumerated, which routes through CheckEngine.
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  const RefinedQuorumSystem analytic = make_3t1_instantiation(t);
  Adversary general{analytic.universe_size(),
                    analytic.adversary().maximal_elements()};
  std::vector<Quorum> quorums(analytic.quorums().begin(),
                              analytic.quorums().end());
  const RefinedQuorumSystem sys{std::move(general), std::move(quorums)};
  for (auto _ : state) {
    CheckResult out;
    bool ok = sys.check_property1(out, 1);
    ok = ok && sys.check_property2(out, 1);
    ok = ok && sys.check_property3(out, 1);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CheckThresholdEnumeratedNaive)->Arg(1)->Arg(2);

void BM_CheckEngineReuse(benchmark::State& state) {
  // One engine reused across checks: the per-system precompute (cached
  // maximal view, pairwise unions, QC1 intersection) is paid once.
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  const RefinedQuorumSystem analytic = make_3t1_instantiation(t);
  Adversary general{analytic.universe_size(),
                    analytic.adversary().maximal_elements()};
  std::vector<Quorum> quorums(analytic.quorums().begin(),
                              analytic.quorums().end());
  const RefinedQuorumSystem sys{std::move(general), std::move(quorums)};
  const CheckEngine engine{sys};
  for (auto _ : state) benchmark::DoNotOptimize(engine.check(1).ok());
}
BENCHMARK(BM_CheckEngineReuse)->Arg(1)->Arg(2);

}  // namespace
}  // namespace rqs

RQS_BENCH_MAIN(rqs::print_tables)
