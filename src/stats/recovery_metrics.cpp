#include "stats/recovery_metrics.hpp"

#include <algorithm>
#include <utility>

namespace dmx::stats {

void RecoveryMetrics::on_fault(double t, std::string label) {
  if (open_.empty()) union_start_ = t;
  FaultRecord rec;
  rec.at = t;
  rec.label = std::move(label);
  open_.push_back(records_.size());
  records_.push_back(std::move(rec));
}

void RecoveryMetrics::on_progress(double t) {
  if (open_.empty()) return;
  for (std::size_t idx : open_) {
    FaultRecord& rec = records_[idx];
    rec.recovered = true;
    rec.time_to_recovery = t - rec.at;
    ttr_.add(rec.time_to_recovery);
    ++recovered_;
  }
  open_.clear();
  unavailability_ += t - union_start_;
}

void RecoveryMetrics::on_progress(double t, int node) {
  on_progress(t);
  if (open_groups_.empty()) return;
  std::erase_if(open_groups_, [&](std::size_t idx) {
    PartitionRecord& rec = partition_records_[idx];
    if (std::find(rec.members.begin(), rec.members.end(), node) ==
        rec.members.end()) {
      return false;
    }
    rec.recovered = true;
    rec.blocked = t - rec.at;
    return true;
  });
}

void RecoveryMetrics::on_partition(double t,
                                   const std::vector<std::vector<int>>& groups) {
  for (const std::vector<int>& group : groups) {
    PartitionRecord rec;
    rec.at = t;
    rec.members = group;
    open_groups_.push_back(partition_records_.size());
    partition_records_.push_back(std::move(rec));
  }
}

double RecoveryMetrics::max_group_blocked() const {
  double worst = 0.0;
  for (const PartitionRecord& rec : partition_records_) {
    worst = std::max(worst, rec.blocked);
  }
  return worst;
}

void RecoveryMetrics::end_run(double t) {
  // Censored partition groups: bill the whole cut-to-end stretch (the side
  // never produced a single CS again).
  for (std::size_t idx : open_groups_) {
    PartitionRecord& rec = partition_records_[idx];
    rec.blocked = std::max(0.0, t - rec.at);
  }
  open_groups_.clear();
  if (open_.empty()) return;
  // Censored: the windows never closed.  Bill their union through the end
  // of the run but record no TTR sample (the faults stay unrecovered).
  unavailability_ += std::max(0.0, t - union_start_);
  open_.clear();
}

}  // namespace dmx::stats
