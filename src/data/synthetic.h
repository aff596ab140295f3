#ifndef MANIRANK_DATA_SYNTHETIC_H_
#define MANIRANK_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "core/candidate_table.h"
#include "core/ranking.h"
#include "mallows/modal_designer.h"

namespace manirank {

/// Deterministic two-attribute table: candidate i gets values
/// (i % d0, (i / d0) % d1); all groups non-empty for n >= d0 * d1. Used
/// by tests, benches, and the serve protocol's CREATE..CYCLIC, so every
/// layer constructs bit-identical tables from the same parameters.
CandidateTable MakeCyclicTable(int n, int d0, int d1);

/// Modal ranking over MakeCyclicTable(n, d0, d1) that puts candidates in
/// group 0 of both attributes first, then of one, then of neither (ties
/// by id). Mallows draws around it are MANI-Rank-unfair, so Make-MR-Fair
/// has real repair work to do: the serving benchmark's table shape.
Ranking MakeCyclicBiasedModal(int n, int d0, int d1);

/// The three Table I Mallows datasets: 90 candidates, Race (5 values) x
/// Gender (3 values), 6 candidates per intersectional cell, with the modal
/// ranking's fairness profile pinned to the published values.
enum class TableIDataset { kLowFair, kMediumFair, kHighFair };

const char* ToString(TableIDataset kind);

/// Modal-ranking targets per Table I:
///   Low-Fair    ARP_gender = .70, ARP_race = .70, IRP = 1.00
///   Medium-Fair ARP_gender = .50, ARP_race = .50, IRP = 0.75
///   High-Fair   ARP_gender = .30, ARP_race = .30, IRP = 0.54
ModalDesignResult MakeTableIDataset(TableIDataset kind, uint64_t seed = 11);

/// Scalability datasets of §IV-D: two binary attributes (Race, Gender),
/// n/4 candidates per intersection cell, modal ranking hitting the given
/// ARP/IRP targets. n must be divisible by 4. Large n (> 1000, divisible
/// by 1000) is built by exact FPR-preserving expansion of a 1000-candidate
/// design (see ExpandDesign).
ModalDesignResult MakeScalabilityDataset(int n, double arp_race,
                                         double arp_gender, double irp,
                                         uint64_t seed = 13);

/// Fig. 6 / Table II profile: ARP(Race) = .15, ARP(Gender) = .70, IRP = .55.
ModalDesignResult MakeRankerScaleDataset(int n = 100);

/// Fig. 7 / Table III profile: ARP(Race) = .31, ARP(Gender) = .44,
/// IRP = .45.
ModalDesignResult MakeCandidateScaleDataset(int n);

}  // namespace manirank

#endif  // MANIRANK_DATA_SYNTHETIC_H_
