#include "db/query/program.hpp"

#include <utility>

namespace gptc::db::query {

using json::Json;
using json::JsonError;

bool is_operator_object(const Json& j) {
  if (!j.is_object() || j.as_object().empty()) return false;
  for (const auto& [k, v] : j.as_object()) {
    (void)v;
    if (k.empty() || k[0] != '$') return false;
  }
  return true;
}

namespace {

bool in_list(const Json& value, const Json& list) {
  for (const auto& item : list.as_array())
    if (value == item) return true;
  return false;
}

}  // namespace

CompiledQuery CompiledQuery::compile(const Json& query) {
  CompiledQuery q;
  // Retain a copy first: every operand/conjunct pointer the lowering emits
  // references this tree, not the caller's argument.
  q.root_ = std::make_unique<Json>(query);
  q.compile_node(*q.root_, /*collect_conjuncts=*/true);
  return q;
}

std::uint32_t CompiledQuery::intern_path(const std::string& dotted) {
  for (std::uint32_t i = 0; i < paths_.size(); ++i)
    if (paths_[i].text() == dotted) return i;
  paths_.push_back(PathRef::parse(dotted));
  return static_cast<std::uint32_t>(paths_.size() - 1);
}

std::uint32_t CompiledQuery::compile_node(const Json& query,
                                          bool collect_conjuncts) {
  if (!query.is_object())
    throw JsonError("query must be a JSON object");
  const auto at = static_cast<std::uint32_t>(nodes_.size());
  Node root;
  root.kind = Node::Kind::And;
  nodes_.push_back(root);
  std::uint32_t count = 0;
  for (const auto& [key, condition] : query.as_object()) {
    if (key == "$and") {
      // $and flattens conjunctively, so its fields stay visible to the
      // planner as long as we only descended through $and so far.
      const auto sub_at = static_cast<std::uint32_t>(nodes_.size());
      Node sub;
      sub.kind = Node::Kind::And;
      nodes_.push_back(sub);
      std::uint32_t subs = 0;
      for (const auto& part : condition.as_array()) {
        compile_node(part, collect_conjuncts);
        ++subs;
      }
      nodes_[sub_at].count = subs;
      nodes_[sub_at].next = static_cast<std::uint32_t>(nodes_.size());
    } else if (key == "$or") {
      const auto sub_at = static_cast<std::uint32_t>(nodes_.size());
      Node sub;
      sub.kind = Node::Kind::Or;
      nodes_.push_back(sub);
      std::uint32_t subs = 0;
      for (const auto& part : condition.as_array()) {
        compile_node(part, /*collect_conjuncts=*/false);
        ++subs;
      }
      nodes_[sub_at].count = subs;
      nodes_[sub_at].next = static_cast<std::uint32_t>(nodes_.size());
    } else if (key == "$not") {
      const auto sub_at = static_cast<std::uint32_t>(nodes_.size());
      Node sub;
      sub.kind = Node::Kind::Not;
      sub.count = 1;
      nodes_.push_back(sub);
      compile_node(condition, /*collect_conjuncts=*/false);
      nodes_[sub_at].next = static_cast<std::uint32_t>(nodes_.size());
    } else {
      compile_field(key, condition);
      if (collect_conjuncts) conjuncts_.push_back({&key, &condition});
    }
    ++count;
  }
  nodes_[at].count = count;
  nodes_[at].next = static_cast<std::uint32_t>(nodes_.size());
  return at;
}

void CompiledQuery::compile_field(const std::string& path,
                                  const Json& condition) {
  Node n;
  n.kind = Node::Kind::Field;
  n.path = intern_path(path);
  n.first_op = static_cast<std::uint32_t>(ops_.size());
  if (is_operator_object(condition)) {
    for (const auto& [op, operand] : condition.as_object()) {
      OpInstr in;
      if (op == "$eq") {
        in.code = OpCode::Eq;
        in.operand = &operand;
      } else if (op == "$ne") {
        in.code = OpCode::Ne;
        in.operand = &operand;
      } else if (op == "$in" || op == "$nin") {
        if (!operand.is_array())
          throw JsonError(op + " operand must be an array");
        in.code = op == "$in" ? OpCode::In : OpCode::Nin;
        in.operand = &operand;
      } else if (op == "$gt" || op == "$lt") {
        // compare_lt only orders same-class number/string pairs, so a
        // strict bound against any other operand type is unsatisfiable.
        if (operand.is_number()) {
          in.code = op == "$gt" ? OpCode::GtNum : OpCode::LtNum;
          in.num = operand.as_double();
        } else if (operand.is_string()) {
          in.code = op == "$gt" ? OpCode::GtStr : OpCode::LtStr;
          in.str = &operand.as_string();
        } else {
          in.code = OpCode::Never;
        }
      } else if (op == "$gte" || op == "$lte") {
        // The non-strict bounds additionally require the value to be a
        // number or string of the operand's class; with a non-number,
        // non-string operand the surviving condition is "value is a
        // string" (see match_operators).
        if (operand.is_number()) {
          in.code = op == "$gte" ? OpCode::GteNum : OpCode::LteNum;
          in.num = operand.as_double();
        } else if (operand.is_string()) {
          in.code = op == "$gte" ? OpCode::GteStr : OpCode::LteStr;
          in.str = &operand.as_string();
        } else {
          in.code = OpCode::StrOnly;
        }
      } else if (op == "$exists") {
        // as_bool() throws here on a non-bool operand — the same JsonError
        // the interpreter raises, just at compile time.
        if (operand.as_bool()) {
          in.code = OpCode::ExistsTrue;
        } else {
          in.code = OpCode::ExistsFalse;
          n.missing_matches = true;
        }
      } else {
        throw JsonError("unknown query operator: " + op);
      }
      ops_.push_back(in);
    }
  } else {
    OpInstr in;
    in.code = OpCode::BareEq;
    in.operand = &condition;
    ops_.push_back(in);
  }
  n.op_count = static_cast<std::uint32_t>(ops_.size()) - n.first_op;
  nodes_.push_back(n);
  nodes_.back().next = static_cast<std::uint32_t>(nodes_.size());
}

bool CompiledQuery::eval(const Json& document) const {
  if (nodes_.empty()) return true;  // {} matches everything
  return eval_node(0, document);
}

bool CompiledQuery::eval_node(std::uint32_t at, const Json& document) const {
  const Node& n = nodes_[at];
  switch (n.kind) {
    case Node::Kind::And: {
      std::uint32_t child = at + 1;
      for (std::uint32_t i = 0; i < n.count; ++i) {
        if (!eval_node(child, document)) return false;
        child = nodes_[child].next;
      }
      return true;
    }
    case Node::Kind::Or: {
      std::uint32_t child = at + 1;
      for (std::uint32_t i = 0; i < n.count; ++i) {
        if (eval_node(child, document)) return true;
        child = nodes_[child].next;
      }
      return false;  // including the empty-$or case
    }
    case Node::Kind::Not:
      return !eval_node(at + 1, document);
    case Node::Kind::Field:
      return eval_field(n, document);
  }
  return false;  // unreachable
}

bool CompiledQuery::eval_field(const Node& node, const Json& document) const {
  const Json* value = lookup(document, paths_[node.path]);
  if (!value) {
    // A missing field matches only an operator object carrying
    // $exists:false; its sibling operators are ignored, exactly as the
    // interpreter's missing-value branch does.
    return node.missing_matches;
  }
  const std::uint32_t end = node.first_op + node.op_count;
  for (std::uint32_t i = node.first_op; i < end; ++i) {
    const OpInstr& in = ops_[i];
    switch (in.code) {
      case OpCode::BareEq:
      case OpCode::Eq:
        if (!(*value == *in.operand)) return false;
        break;
      case OpCode::Ne:
        if (*value == *in.operand) return false;
        break;
      case OpCode::In:
        if (!in_list(*value, *in.operand)) return false;
        break;
      case OpCode::Nin:
        if (in_list(*value, *in.operand)) return false;
        break;
      case OpCode::GtNum:
        if (!value->is_number() || !(value->as_double() > in.num))
          return false;
        break;
      case OpCode::GtStr:
        if (!value->is_string() || !(value->as_string() > *in.str))
          return false;
        break;
      case OpCode::GteNum:
        if (!value->is_number() || !(value->as_double() >= in.num))
          return false;
        break;
      case OpCode::GteStr:
        if (!value->is_string() || !(value->as_string() >= *in.str))
          return false;
        break;
      case OpCode::LtNum:
        if (!value->is_number() || !(value->as_double() < in.num))
          return false;
        break;
      case OpCode::LtStr:
        if (!value->is_string() || !(value->as_string() < *in.str))
          return false;
        break;
      case OpCode::LteNum:
        if (!value->is_number() || !(value->as_double() <= in.num))
          return false;
        break;
      case OpCode::LteStr:
        if (!value->is_string() || !(value->as_string() <= *in.str))
          return false;
        break;
      case OpCode::StrOnly:
        if (!value->is_string()) return false;
        break;
      case OpCode::Never:
        return false;
      case OpCode::ExistsTrue:
        break;  // presence already established
      case OpCode::ExistsFalse:
        return false;  // value is present
    }
  }
  return true;
}

}  // namespace gptc::db::query
