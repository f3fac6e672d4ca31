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

SharedResult SharedResult::Make(ExecuteResult result, MemoryBudget* budget) {
  // One allocation holds both; the two pointers alias its control block.
  struct Block {
    Block(ExecuteResult r, MemoryBudget* b)
        : result(std::move(r)), encoded(b) {}
    ExecuteResult result;
    EncodedAnswers encoded;
  };
  auto block = std::make_shared<Block>(std::move(result), budget);
  return SharedResult{
      std::shared_ptr<const ExecuteResult>(block, &block->result),
      std::shared_ptr<EncodedAnswers>(block, &block->encoded)};
}

InFlightTable::Ticket InFlightTable::JoinOrLead(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  if (it != flights_.end()) {
    ++it->second->followers;
    return Ticket{it->second, /*leader=*/false};
  }
  auto flight = std::make_shared<Flight>();
  flight->future = flight->promise.get_future().share();
  flights_.emplace(key, flight);
  return Ticket{std::move(flight), /*leader=*/true};
}

bool InFlightTable::Retire(const std::string& key,
                           const std::shared_ptr<Flight>& flight) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = flights_.find(key);
  // Erase only our own flight: a successor leader's must stay.
  if (it != flights_.end() && it->second == flight) flights_.erase(it);
  return flight->followers > 0;
}

void InFlightTable::Resolve(Flight* flight, SharedResult shared) {
  flight->encoded = std::move(shared.encoded);
  flight->promise.set_value(std::move(shared.result));
}

void InFlightTable::Finish(const std::string& key,
                           const std::shared_ptr<Flight>& flight,
                           std::shared_ptr<const ExecuteResult> result) {
  Retire(key, flight);
  Resolve(flight.get(), SharedResult{std::move(result), nullptr});
}

size_t InFlightTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flights_.size();
}

}  // namespace owlqr
