// Storage demo: a replicated block-store control plane. Five commodity
// disks (the paper's intro scenario: distributed storage over fault-prone
// commodity servers, tolerating two failures) serve a metadata register
// through the RQS atomic storage; the demo shows the latency ladder as
// conditions degrade, a Byzantine disk controller, and a concurrent
// reader during a slow write.
//
//   $ ./storage_demo
#include <cstdio>

#include "core/constructions.hpp"
#include "sim/network.hpp"
#include "storage/harness.hpp"

using namespace rqs;
using namespace rqs::storage;

namespace {

void banner(const char* text) { std::printf("\n-- %s --\n", text); }

void run_pair(StorageCluster& cluster, Value v) {
  const RoundNumber wr = cluster.blocking_write(v);
  const auto rd = cluster.blocking_read(0);
  std::printf("  write(%lld): %u round(s); read() -> %s in %u round(s)\n",
              static_cast<long long>(v), wr, value_to_string(rd.value).c_str(),
              rd.rounds);
}

}  // namespace

int main() {
  std::printf("Replicated metadata register over 5 disks, t = 2 crashes\n");
  std::printf("(the Section 1.2 system: 4-subsets are fast quorums)\n");

  {
    banner("all five disks healthy: single-round reads and writes");
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
    run_pair(cluster, 100);
    run_pair(cluster, 101);
  }
  {
    banner("two disks down: graceful degradation to two rounds");
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 1});
    cluster.crash(3);
    cluster.crash(4);
    run_pair(cluster, 200);
  }
  {
    banner("Byzantine disk fabricating a future version (7 disks, t = 2 Byz)");
    StorageCluster cluster(
        make_3t1_instantiation(2),
        {.reader_count = 1, .byzantine = ProcessSet{0, 1},
         .forge = ByzantineStorageServer::fabricate(TsValue{999, -1})});
    run_pair(cluster, 300);
    std::printf("  fabricated <ts=999> was invalidated: no basic support\n");
  }
  {
    banner("reader concurrent with a slow writer: atomicity preserved");
    StorageCluster cluster(make_fig1_fast5(), {.reader_count = 2});
    cluster.blocking_write(400);
    cluster.network().fixed_delay(ProcessSet{kWriterId},
                                  ProcessSet::universe(5),
                                  5 * sim::kDefaultDelta);
    cluster.async_write(401);
    const auto rd1 = cluster.blocking_read(0);
    if (!StorageCluster::drive(cluster.sim(),
                               [&] { return cluster.write_done(); })) {
      std::printf("  the slow write did not complete\n");
      return 1;
    }
    const auto rd2 = cluster.blocking_read(1);
    std::printf("  concurrent read -> %s; later read -> %s\n",
                value_to_string(rd1.value).c_str(),
                value_to_string(rd2.value).c_str());
    const auto result = cluster.checker().check();
    std::printf("  atomicity check over the full history: %s\n",
                result.atomic ? "PASS" : result.to_string().c_str());
  }
  {
    banner("general adversary (Example 7): correlated failures");
    std::printf("  coalitions {s1,s2}, {s3,s4}, {s2,s4} may be Byzantine\n");
    StorageCluster cluster(make_example7(), {.reader_count = 1});
    run_pair(cluster, 500);
  }
  std::printf("\nDone.\n");
  return 0;
}
