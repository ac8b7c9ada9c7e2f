#include "pilot/waiting_index.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace entk::pilot {

WaitingIndex::~WaitingIndex() {
  for (auto& [cores, bucket] : buckets_) {
    for (Picked& entry : bucket) entry.unit->set_waiting(false);
  }
}

void WaitingIndex::push(ComputeUnitPtr unit) {
  ENTK_CHECK(unit != nullptr, "cannot index a null unit");
  ENTK_CHECK(!unit->waiting(), "unit " + unit->uid() + " is already waiting");
  unit->set_waiting(true);
  const Count cores = unit->description().cores;
  buckets_[cores].push_back({next_seq_++, std::move(unit)});
  ++size_;
}

bool WaitingIndex::erase(const ComputeUnit* unit) {
  if (!unit->waiting()) return false;
  const auto it = buckets_.find(unit->description().cores);
  if (it == buckets_.end()) return false;
  Bucket& bucket = it->second;
  const auto entry =
      std::find_if(bucket.begin(), bucket.end(),
                   [unit](const Picked& p) { return p.unit.get() == unit; });
  // A unit waiting in another agent's index is absent from this one.
  if (entry == bucket.end()) return false;
  entry->unit->set_waiting(false);
  bucket.erase(entry);
  --size_;
  return true;
}

Count WaitingIndex::min_cores() const {
  for (const auto& [cores, bucket] : buckets_) {
    if (!bucket.empty()) return cores;
  }
  return 0;
}

const ComputeUnitPtr* WaitingIndex::fifo_head() const {
  const Picked* head = nullptr;
  for (const auto& [cores, bucket] : buckets_) {
    if (bucket.empty()) continue;
    const Picked& front = bucket.front();
    if (head == nullptr || front.seq < head->seq) head = &front;
  }
  return head == nullptr ? nullptr : &head->unit;
}

WaitingIndex::Picked WaitingIndex::pop_fifo_head() {
  ENTK_CHECK(!empty(), "pop from an empty waiting index");
  Picked out;
  pop_earliest(buckets_.end(), out);
  return out;
}

bool WaitingIndex::pop_earliest_fitting(Count budget, Picked& out) {
  return pop_earliest(buckets_.upper_bound(budget), out);
}

bool WaitingIndex::pop_earliest(std::map<Count, Bucket>::iterator end,
                                Picked& out) {
  auto best = end;
  for (auto it = buckets_.begin(); it != end; ++it) {
    if (it->second.empty()) continue;
    if (best == end || it->second.front().seq < best->second.front().seq) {
      best = it;
    }
  }
  if (best == end) return false;
  pop_from(best, out);
  return true;
}

bool WaitingIndex::pop_largest_fitting(Count budget, Picked& out) {
  auto it = buckets_.upper_bound(budget);
  while (it != buckets_.begin()) {
    --it;
    if (it->second.empty()) continue;
    pop_from(it, out);
    return true;
  }
  return false;
}

std::vector<ComputeUnitPtr> WaitingIndex::drain() {
  std::vector<Picked> all;
  all.reserve(size_);
  for (auto& [cores, bucket] : buckets_) {
    for (auto& entry : bucket) all.push_back(std::move(entry));
  }
  std::sort(all.begin(), all.end(),
            [](const Picked& a, const Picked& b) { return a.seq < b.seq; });
  buckets_.clear();
  size_ = 0;
  std::vector<ComputeUnitPtr> units;
  units.reserve(all.size());
  for (auto& entry : all) {
    entry.unit->set_waiting(false);
    units.push_back(std::move(entry.unit));
  }
  return units;
}

std::vector<ComputeUnitPtr> WaitingIndex::snapshot() const {
  std::vector<const Picked*> all;
  all.reserve(size_);
  for (const auto& [cores, bucket] : buckets_) {
    for (const auto& entry : bucket) all.push_back(&entry);
  }
  std::sort(all.begin(), all.end(),
            [](const Picked* a, const Picked* b) { return a->seq < b->seq; });
  std::vector<ComputeUnitPtr> units;
  units.reserve(all.size());
  for (const Picked* entry : all) units.push_back(entry->unit);
  return units;
}

void WaitingIndex::pop_from(std::map<Count, Bucket>::iterator it,
                            Picked& out) {
  Bucket& bucket = it->second;
  out = std::move(bucket.front());
  bucket.pop_front();
  out.unit->set_waiting(false);
  --size_;
}

}  // namespace entk::pilot
