#include "engine/answer_cache.h"

#include <utility>

namespace owlqr {

std::string AnswerCacheKey(const std::string& plan_key,
                           uint64_t snapshot_version,
                           const EvaluatorLimits& limits) {
  std::string key = plan_key;
  key += '\x1f';
  key += std::to_string(snapshot_version);
  key += "|g";
  key += std::to_string(limits.max_generated_tuples);
  key += "|w";
  key += std::to_string(limits.max_work);
  key += "|d";
  key += std::to_string(limits.deadline_ms);
  return key;
}

InFlightTable::Ticket InFlightTable::JoinOrLead(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  if (it != flights_.end()) return Ticket{it->second, /*leader=*/false};
  auto flight = std::make_shared<Flight>();
  flight->future = flight->promise.get_future().share();
  flights_.emplace(key, flight);
  return Ticket{std::move(flight), /*leader=*/true};
}

void InFlightTable::Finish(const std::string& key,
                           const std::shared_ptr<Flight>& flight,
                           std::shared_ptr<const ExecuteResult> result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = flights_.find(key);
    // Erase only our own flight: set-value below wakes exactly the
    // followers that joined it, never a successor leader's.
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  flight->promise.set_value(std::move(result));
}

size_t InFlightTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flights_.size();
}

}  // namespace owlqr
