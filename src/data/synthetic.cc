#include "data/synthetic.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>

namespace manirank {

CandidateTable MakeCyclicTable(int n, int d0, int d1) {
  std::vector<Attribute> attributes(2);
  attributes[0].name = "A";
  for (int v = 0; v < d0; ++v) {
    attributes[0].values.push_back("a" + std::to_string(v));
  }
  attributes[1].name = "B";
  for (int v = 0; v < d1; ++v) {
    attributes[1].values.push_back("b" + std::to_string(v));
  }
  std::vector<std::vector<AttributeValue>> values(
      n, std::vector<AttributeValue>(2));
  for (int c = 0; c < n; ++c) {
    values[c][0] = static_cast<AttributeValue>(c % d0);
    values[c][1] = static_cast<AttributeValue>((c / d0) % d1);
  }
  return CandidateTable(std::move(attributes), std::move(values));
}

Ranking MakeCyclicBiasedModal(int n, int d0, int d1) {
  std::vector<CandidateId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto disfavour = [&](CandidateId c) {
    return (c % d0 != 0 ? 1 : 0) + ((c / d0) % d1 != 0 ? 1 : 0);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](CandidateId a, CandidateId b) {
                     return disfavour(a) < disfavour(b);
                   });
  return Ranking(std::move(order));
}

const char* ToString(TableIDataset kind) {
  switch (kind) {
    case TableIDataset::kLowFair: return "Low-Fair";
    case TableIDataset::kMediumFair: return "Medium-Fair";
    case TableIDataset::kHighFair: return "High-Fair";
  }
  return "unknown";
}

ModalDesignResult MakeTableIDataset(TableIDataset kind, uint64_t seed) {
  ModalDesignSpec spec;
  spec.attributes = {
      {"Race", {"AlaskaNat", "Asian", "Black", "NatHawaii", "White"}},
      {"Gender", {"Man", "Non-Binary", "Woman"}},
  };
  spec.cell_counts.assign(15, 6);  // 90 candidates, 6 per intersection cell
  switch (kind) {
    case TableIDataset::kLowFair:
      spec.attribute_arp_target = {0.70, 0.70};
      spec.irp_target = 1.00;
      break;
    case TableIDataset::kMediumFair:
      spec.attribute_arp_target = {0.50, 0.50};
      spec.irp_target = 0.75;
      break;
    case TableIDataset::kHighFair:
      spec.attribute_arp_target = {0.30, 0.30};
      spec.irp_target = 0.54;
      break;
  }
  spec.seed = seed;
  return DesignModalRanking(spec);
}

ModalDesignResult MakeScalabilityDataset(int n, double arp_race,
                                         double arp_gender, double irp,
                                         uint64_t seed) {
  assert(n % 4 == 0);
  constexpr int kBase = 1000;
  int design_n = n;
  int factor = 1;
  if (n > kBase) {
    assert(n % kBase == 0 && "large scalability sizes must be multiples of 1000");
    design_n = kBase;
    factor = n / kBase;
  }
  ModalDesignSpec spec;
  spec.attributes = {
      {"Race", {"RaceA", "RaceB"}},
      {"Gender", {"Man", "Woman"}},
  };
  spec.cell_counts.assign(4, design_n / 4);
  spec.attribute_arp_target = {arp_race, arp_gender};
  spec.irp_target = irp;
  spec.seed = seed;
  // Scalability sweeps re-request the same base design for every size;
  // memoise the (deterministic) annealing result.
  using Key = std::tuple<int, double, double, double, uint64_t>;
  static std::mutex cache_mutex;
  static std::map<Key, ModalDesignResult>* cache =
      new std::map<Key, ModalDesignResult>();
  const Key key{design_n, arp_race, arp_gender, irp, seed};
  ModalDesignResult design = [&] {
    std::lock_guard<std::mutex> lock(cache_mutex);
    auto it = cache->find(key);
    if (it == cache->end()) {
      it = cache->emplace(key, DesignModalRanking(spec)).first;
    }
    return it->second;
  }();
  if (factor > 1) design = ExpandDesign(design, factor);
  return design;
}

ModalDesignResult MakeRankerScaleDataset(int n) {
  return MakeScalabilityDataset(n, 0.15, 0.70, 0.55, /*seed=*/17);
}

ModalDesignResult MakeCandidateScaleDataset(int n) {
  return MakeScalabilityDataset(n, 0.31, 0.44, 0.45, /*seed=*/19);
}

}  // namespace manirank
