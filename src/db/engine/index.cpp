#include "db/engine/index.hpp"

#include <algorithm>
#include <limits>

#include "db/query/program.hpp"

namespace gptc::db::engine {

using json::Json;

std::optional<IndexKey> IndexKey::from_json(const Json& v) {
  IndexKey key;
  switch (v.type()) {
    case Json::Type::Null:
      key.rank = Rank::Null;
      return key;
    case Json::Type::Bool:
      key.rank = Rank::Bool;
      key.boolean = v.as_bool();
      return key;
    case Json::Type::Int:
    case Json::Type::Double:
      key.rank = Rank::Number;
      key.number = v.as_double();
      return key;
    case Json::Type::String:
      key.rank = Rank::String;
      key.string = v.as_string();
      return key;
    case Json::Type::Array:
    case Json::Type::Object:
      return std::nullopt;
  }
  return std::nullopt;
}

bool IndexKey::operator<(const IndexKey& other) const {
  if (rank != other.rank) return rank < other.rank;
  switch (rank) {
    case Rank::Null: return false;
    case Rank::Bool: return !boolean && other.boolean;
    case Rank::Number: return number < other.number;
    case Rank::String: return string < other.string;
  }
  return false;
}

namespace {

IndexKey rank_min(IndexKey::Rank rank) {
  IndexKey key;
  key.rank = rank;
  key.boolean = false;
  key.number = -std::numeric_limits<double>::infinity();
  key.string.clear();
  return key;
}

bool is_scalar(const Json& j) { return !j.is_array() && !j.is_object(); }

/// Json equality compares two ints exactly, but an IndexKey holds the
/// double, which merges neighbouring integers from 2^53 on: such an
/// equality operand is served as a superset, never exactly.
bool exact_as_key(const Json& operand) {
  constexpr std::int64_t kExactDouble = std::int64_t{1} << 53;
  if (!operand.is_int()) return true;
  const std::int64_t v = operand.as_int();
  return v > -kExactDouble && v < kExactDouble;
}

}  // namespace

void OrderedIndex::add(const Json& doc, std::int64_t id) {
  const Json* value = query::lookup(doc, path_);
  if (!value) return;
  const auto key = IndexKey::from_json(*value);
  if (!key) return;  // arrays/objects are not indexed (cannot match scalars)
  auto& ids = postings_[*key];
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void OrderedIndex::erase(const Json& doc, std::int64_t id) {
  const Json* value = query::lookup(doc, path_);
  if (!value) return;
  const auto key = IndexKey::from_json(*value);
  if (!key) return;
  const auto it = postings_.find(*key);
  if (it == postings_.end()) return;
  std::erase(it->second, id);
  if (it->second.empty()) postings_.erase(it);
}

std::optional<OrderedIndex::Selection> OrderedIndex::selection(
    const Json& condition) {
  Selection sel;
  if (!query::is_operator_object(condition)) {
    if (!is_scalar(condition)) return std::nullopt;
    sel.keys.push_back(*IndexKey::from_json(condition));
    sel.exact = exact_as_key(condition);
    return sel;
  }

  const auto& ops = condition.as_object();
  // `$exists: false` can match documents missing from the index entirely —
  // the planner must not narrow such a condition.
  const auto exists_it = ops.find("$exists");
  if (exists_it != ops.end() && exists_it->second.is_bool() &&
      !exists_it->second.as_bool())
    return std::nullopt;

  // All operators in one condition are conjunctive, so serving any single
  // one of them yields a superset of the true matches; the first usable op
  // (deterministic: Json::Object is a sorted map) wins, and the selection
  // is exact only when it is the condition's one operator.
  sel.exact = ops.size() == 1;
  for (const auto& [op, operand] : ops) {
    if (op == "$eq") {
      if (!is_scalar(operand)) continue;
      sel.keys.push_back(*IndexKey::from_json(operand));
      sel.exact = sel.exact && exact_as_key(operand);
      return sel;
    }
    if (op == "$in") {
      if (!operand.is_array()) continue;
      const auto& items = operand.as_array();
      if (!std::all_of(items.begin(), items.end(), is_scalar)) continue;
      for (const auto& item : items) {
        sel.keys.push_back(*IndexKey::from_json(item));
        sel.exact = sel.exact && exact_as_key(item);
      }
      // Numerically equal operands ([2, 2.0]) map to one key; selecting it
      // once keeps the candidates a set and the estimate its cardinality.
      std::sort(sel.keys.begin(), sel.keys.end());
      sel.keys.erase(std::unique(sel.keys.begin(), sel.keys.end(),
                                 [](const IndexKey& a, const IndexKey& b) {
                                   return !(a < b) && !(b < a);
                                 }),
                     sel.keys.end());
      return sel;
    }
    if (op == "$gt" || op == "$gte" || op == "$lt" || op == "$lte") {
      // Range operators only ever match same-class values (the match
      // engine orders numbers by double value and strings, nothing across
      // types), so only number/string operands are served.
      if (!operand.is_number() && !operand.is_string()) continue;
      if (op == "$gt" || op == "$gte") {
        sel.lo = IndexKey::from_json(operand);
        sel.lo_open = op == "$gt";
      } else {
        sel.hi = IndexKey::from_json(operand);
        sel.hi_open = op == "$lt";
      }
      return sel;
    }
    // $ne, $nin, $exists:true, ... — not index-servable, try the next op.
  }
  return std::nullopt;
}

template <typename Visit>
void OrderedIndex::walk(const Selection& sel, const Visit& visit) const {
  if (!sel.lo && !sel.hi) {
    for (const IndexKey& key : sel.keys) {
      const auto it = postings_.find(key);
      if (it != postings_.end() && !visit(it->second)) return;
    }
    return;
  }
  const IndexKey& bound = sel.lo ? *sel.lo : *sel.hi;
  auto it = !sel.lo       ? postings_.lower_bound(rank_min(bound.rank))
            : sel.lo_open ? postings_.upper_bound(*sel.lo)
                          : postings_.lower_bound(*sel.lo);
  for (; it != postings_.end(); ++it) {
    const IndexKey& key = it->first;
    if (key.rank != bound.rank) return;
    if (sel.hi && (sel.hi_open ? !(key < *sel.hi) : *sel.hi < key)) return;
    if (!visit(it->second)) return;
  }
}

std::optional<std::vector<std::int64_t>> OrderedIndex::candidates(
    const Json& condition) const {
  const auto sel = selection(condition);
  if (!sel) return std::nullopt;
  std::vector<std::int64_t> out;
  std::size_t lists = 0;
  walk(*sel, [&](const std::vector<std::int64_t>& ids) {
    out.insert(out.end(), ids.begin(), ids.end());
    ++lists;
    return true;
  });
  // Each posting list ascends on its own; only several need a merge.
  if (lists > 1) std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::size_t> OrderedIndex::estimate(const Json& condition,
                                                  std::size_t at_most) const {
  const auto sel = selection(condition);
  if (!sel) return std::nullopt;
  std::size_t n = 0;
  walk(*sel, [&](const std::vector<std::int64_t>& ids) {
    n += ids.size();
    return n < at_most;
  });
  return n;
}

bool OrderedIndex::exact(const Json& condition) {
  const auto sel = selection(condition);
  return sel && sel->exact;
}

}  // namespace gptc::db::engine
