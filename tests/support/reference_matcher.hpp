// Reference interpreter for Mongo-style match expressions — the test
// oracle the compiled query program (src/db/query/program.hpp) is held
// against. It walks the query tree for every document, dispatching each
// operator by its string key: slow, and deliberately independent of the
// compiler, which is what makes the differential tests in
// test_query_compile.cpp and test_query_language.cpp meaningful. The
// library itself never calls it.
#pragma once

#include "db/document_store.hpp"
#include "db/query/program.hpp"
#include "json/json.hpp"

namespace gptc::db {

namespace reference_detail {

using json::Json;

inline bool compare_lt(const Json& a, const Json& b) {
  if (a.is_number() && b.is_number()) return a.as_double() < b.as_double();
  if (a.is_string() && b.is_string()) return a.as_string() < b.as_string();
  return false;  // incomparable types never satisfy an ordering operator
}

inline bool in_list(const Json& value, const Json& list) {
  for (const auto& item : list.as_array())
    if (value == item) return true;
  return false;
}

/// Applies one operator object ({"$gte": 5, "$lt": 9}) to a present value.
inline bool match_operators(const Json& value, const Json& ops) {
  for (const auto& [op, operand] : ops.as_object()) {
    if (op == "$eq") {
      if (!(value == operand)) return false;
    } else if (op == "$ne") {
      if (value == operand) return false;
    } else if (op == "$gt") {
      if (!compare_lt(operand, value)) return false;
    } else if (op == "$gte") {
      if (compare_lt(value, operand)) return false;
      if (!value.is_number() && !value.is_string()) return false;
      if (value.is_number() != operand.is_number()) return false;
    } else if (op == "$lt") {
      if (!compare_lt(value, operand)) return false;
    } else if (op == "$lte") {
      if (compare_lt(operand, value)) return false;
      if (!value.is_number() && !value.is_string()) return false;
      if (value.is_number() != operand.is_number()) return false;
    } else if (op == "$in") {
      if (!in_list(value, operand)) return false;
    } else if (op == "$nin") {
      if (in_list(value, operand)) return false;
    } else if (op == "$exists") {
      // Presence already established by the caller; $exists:false fails.
      if (!operand.as_bool()) return false;
    } else {
      throw json::JsonError("unknown query operator: " + op);
    }
  }
  return true;
}

}  // namespace reference_detail

/// Evaluates a Mongo-style match expression against a document.
inline bool matches(const json::Json& document, const json::Json& query) {
  if (!query.is_object())
    throw json::JsonError("query must be a JSON object");
  for (const auto& [key, condition] : query.as_object()) {
    if (key == "$and") {
      for (const auto& sub : condition.as_array())
        if (!matches(document, sub)) return false;
    } else if (key == "$or") {
      bool any = false;
      for (const auto& sub : condition.as_array())
        if (matches(document, sub)) {
          any = true;
          break;
        }
      if (!any) return false;
    } else if (key == "$not") {
      if (matches(document, condition)) return false;
    } else {
      const json::Json* value = lookup_path(document, key);
      if (query::is_operator_object(condition)) {
        if (!value) {
          // Only {$exists:false} can match a missing field.
          const auto& ops = condition.as_object();
          const auto it = ops.find("$exists");
          if (it == ops.end() || it->second.as_bool()) return false;
          continue;
        }
        if (!reference_detail::match_operators(*value, condition))
          return false;
      } else {
        if (!value || !(*value == condition)) return false;
      }
    }
  }
  return true;
}

}  // namespace gptc::db
