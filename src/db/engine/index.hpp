// Ordered secondary indexes over document dot-paths.
//
// An OrderedIndex maps the scalar value found at one dot-path (via the
// query layer's pre-split path walk, so "tuning_parameters.grid.0" works)
// to the sorted list of document ids holding that value. The map is std::map — iteration
// order is deterministic, which keeps the index lint-clean under gptc-lint
// R2 and lets candidate lists come out in a reproducible order.
//
// The planner contract is *superset semantics*: candidates(condition)
// returns a sorted id list guaranteed to contain every document that could
// match the condition at this path, or nullopt when the index cannot serve
// it (non-scalar operand, unsupported operator, or a `$exists: false` that
// can match documents absent from the index). The caller always re-runs the
// full match predicate over the candidates, so the index only ever narrows
// work, never changes results. Documents whose value at the path is missing
// or non-scalar (array/object) are not indexed — they cannot match any
// scalar $eq/$in/range condition, so skipping them is sound.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "db/query/path.hpp"
#include "json/json.hpp"

namespace gptc::db::engine {

/// Totally ordered key over indexable scalars. Ints and doubles share one
/// numeric rank and compare by value, so a query for 2 finds a stored 2.0 —
/// the same cross-type equality the match engine implements.
struct IndexKey {
  enum class Rank : std::uint8_t { Null = 0, Bool = 1, Number = 2, String = 3 };

  Rank rank = Rank::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;

  /// nullopt for arrays/objects (not indexable).
  static std::optional<IndexKey> from_json(const json::Json& v);

  bool operator<(const IndexKey& other) const;
};

class OrderedIndex {
 public:
  /// The dot-path is split once at construction; add/erase walk the
  /// pre-split segments (no per-document path parsing).
  explicit OrderedIndex(std::string path)
      : path_(query::PathRef::parse(path)) {}

  const std::string& path() const { return path_.text(); }
  std::size_t distinct_keys() const { return postings_.size(); }

  /// Incremental maintenance: called with the document *as stored* (insert
  /// after the value exists, erase before it changes or the doc goes away).
  void add(const json::Json& doc, std::int64_t id);
  void erase(const json::Json& doc, std::int64_t id);
  void clear() { postings_.clear(); }

  /// Sorted candidate ids for one query condition (the value side of
  /// `{path: condition}`): a scalar for direct equality, or an operator
  /// object. nullopt = index unusable for this condition, fall back to scan.
  std::optional<std::vector<std::int64_t>> candidates(
      const json::Json& condition) const;

  /// Number of ids candidates(condition) would return, summed from the
  /// posting-list sizes without materializing the id vector; nullopt
  /// exactly when candidates() is (both run the same walk), so the planner
  /// can rank every usable index by selectivity and materialize only the
  /// winners. Posting lists are disjoint across keys — one scalar per
  /// document per path — so the sum IS the candidate count. The walk stops
  /// once the sum reaches `at_most` (the result is then >= at_most): an
  /// existence probe passes 1 and reads a single posting list.
  std::optional<std::size_t> estimate(
      const json::Json& condition,
      std::size_t at_most = std::numeric_limits<std::size_t>::max()) const;

  /// True when the index serves `condition` EXACTLY — the posting lists are
  /// the match set, not merely a superset — so count()/exists() may read
  /// estimate() alone, never materializing (or even re-matching) a
  /// document. Holds for a bare scalar, a single {$eq: scalar}, a single
  /// {$in: [scalars]}, or a single range operator with a number/string
  /// operand: in each case the match engine's semantics (cross-type numeric
  /// equality, same-class-only ordering) coincide with IndexKey's, and
  /// documents absent from the index (missing path, array/object value)
  /// cannot match. Not exact: conditions with several operators (only one
  /// is ever served), and equality against an integer of magnitude >= 2^53
  /// — IndexKey holds numbers as doubles, which merge neighbouring large
  /// integers that the match engine tells apart.
  static bool exact(const json::Json& condition);

 private:
  /// The posting lists one condition selects: the single place the
  /// condition rules live (operator object vs scalar, the $exists:false
  /// refusal, first usable operator, $in key dedupe, range bounds).
  struct Selection {
    std::vector<IndexKey> keys;  // equality: distinct keys, ascending
    // A range when either bound is set: the keys of the bound's rank
    // within it.
    std::optional<IndexKey> lo, hi;
    bool lo_open = false, hi_open = false;
    bool exact = false;  // see exact()
  };
  /// nullopt when the index cannot serve the condition.
  static std::optional<Selection> selection(const json::Json& condition);
  /// Visits the selected posting lists in key order until `visit` returns
  /// false.
  template <typename Visit>
  void walk(const Selection& sel, const Visit& visit) const;

  query::PathRef path_;
  std::map<IndexKey, std::vector<std::int64_t>> postings_;
};

}  // namespace gptc::db::engine
