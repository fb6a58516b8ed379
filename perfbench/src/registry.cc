#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_extract", "wide_draws", "served_mix", "chaos_transport"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_extract") return MakePaperExtract();
  if (name == "wide_draws") return MakeWideDraws();
  if (name == "served_mix") return MakeServedMix();
  if (name == "chaos_transport") return MakeChaosTransport();
  return nullptr;
}

}  // namespace perfbench
