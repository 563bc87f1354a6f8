#include "db/query/planner.hpp"

#include <algorithm>

namespace gptc::db::query {

namespace {

// A candidate set this small is already cheaper to re-check than any
// further intersection would be to compute.
constexpr std::size_t kSmallEnough = 4;

// Intersect another index only when its candidate list is within a small
// factor of what we already hold: a list 100x wider than the current set
// costs more to walk than the re-checks it could ever save. The slack term
// keeps small absolute lists (a dozen ids) always worth intersecting.
constexpr std::size_t kIntersectFactor = 4;
constexpr std::size_t kIntersectSlack = 16;

}  // namespace

ShardPlan plan_shard(
    const std::map<std::string, engine::OrderedIndex>& indexes,
    const CompiledQuery& query) {
  ShardPlan plan;
  if (indexes.empty()) return plan;

  for (const auto& conjunct : query.conjuncts()) {
    const auto it = indexes.find(*conjunct.path);
    if (it == indexes.end()) continue;
    if (const auto est = it->second.estimate(*conjunct.condition))
      plan.choices.push_back({conjunct.path, conjunct.condition, *est, false});
  }
  if (plan.choices.empty()) return plan;

  // Narrowest first; ties broken by path so the ranking (hence the explain
  // output and the work done) is identical on every shard and every run.
  std::stable_sort(plan.choices.begin(), plan.choices.end(),
                   [](const IndexChoice& a, const IndexChoice& b) {
                     if (a.estimate != b.estimate) return a.estimate < b.estimate;
                     return *a.path < *b.path;
                   });

  // estimate() and candidates() run one index walk, so a usable estimate
  // means usable candidates: these derefs hold by construction.
  IndexChoice& first = plan.choices.front();
  plan.candidates =
      *indexes.find(*first.path)->second.candidates(*first.condition);
  first.applied = true;
  plan.index_scan = true;

  std::vector<std::int64_t> next;
  std::vector<std::int64_t> merged;
  for (std::size_t i = 1; i < plan.choices.size(); ++i) {
    if (plan.candidates.size() <= kSmallEnough) break;
    IndexChoice& choice = plan.choices[i];
    if (choice.estimate >
        kIntersectFactor * plan.candidates.size() + kIntersectSlack)
      continue;
    next = *indexes.find(*choice.path)->second.candidates(*choice.condition);
    merged.clear();
    // Both lists ascend (posting lists hold ids in insertion order), so the
    // intersection stays sorted — the executor's shard-scan order.
    std::set_intersection(plan.candidates.begin(), plan.candidates.end(),
                          next.begin(), next.end(),
                          std::back_inserter(merged));
    plan.candidates.swap(merged);
    choice.applied = true;
  }
  return plan;
}

}  // namespace gptc::db::query
