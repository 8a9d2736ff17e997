#include "sim/process.hpp"

#include "sim/network.hpp"

namespace rqs::sim {

Process::Process(Simulation& sim, ProcessId id) : sim_(sim), id_(id) {
  sim_.add_process(*this);
}

void Process::send(ProcessId to, MessagePtr msg) {
  sim_.network().send(id_, to, std::move(msg));
}

void Process::send_all(ProcessSet targets, MessagePtr msg) {
  sim_.network().send_all(id_, targets, std::move(msg));
}

}  // namespace rqs::sim
