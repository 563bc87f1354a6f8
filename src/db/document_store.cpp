#include "db/document_store.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "db/query/planner.hpp"

namespace gptc::db {

namespace {

/// Atomic max fold for the id counter: shard recovery tasks (and
/// restore_shard) run in parallel, each pushing the counter past the ids it
/// has seen.
void fold_next_id(std::atomic<std::int64_t>& next_id, std::int64_t seen) {
  std::int64_t cur = next_id.load(std::memory_order_relaxed);
  while (cur < seen && !next_id.compare_exchange_weak(cur, seen)) {
  }
}

/// Acquires every shard's reader lock (ascending shard index — the engine
/// lock order) so a fan-out query observes multi-shard mutations, which
/// apply under every affected shard's writer lock, none-or-all.
// returns_lock: Shard::mu shared
template <typename Shards>
std::vector<std::shared_lock<std::shared_mutex>> lock_shared_all(
    const Shards& shards) {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards.size());
  for (const auto& s : shards) locks.emplace_back(s->mu);
  return locks;
}

void require_objects(const std::vector<Json>& documents, const char* caller) {
  for (const auto& d : documents)
    if (!d.is_object())
      throw json::JsonError(std::string(caller) +
                            ": every document must be an object");
}

}  // namespace

const Json* lookup_path(const Json& document, const std::string& path) {
  return query::lookup(document, std::string_view(path));
}

// ---------------------------------------------------------------------------
// Collection

Collection::Collection(std::string name, std::size_t shards)
    : name_(std::move(name)) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

Collection::Collection(Collection&& other) noexcept
    : name_(std::move(other.name_)),
      next_id_(other.next_id_.load()),
      shards_(std::move(other.shards_)),
      index_paths_(std::move(other.index_paths_)),
      engine_(other.engine_) {}

Collection& Collection::operator=(Collection&& other) noexcept {
  if (this != &other) {
    name_ = std::move(other.name_);
    next_id_.store(other.next_id_.load());
    shards_ = std::move(other.shards_);
    index_paths_ = std::move(other.index_paths_);
    engine_ = other.engine_;
  }
  return *this;
}

std::size_t Collection::size() const {
  const auto locks = lock_shared_all(shards_);
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->docs.size();
  return n;
}

void Collection::index_doc(Shard& s, const Json& doc) {
  const std::int64_t id = doc.at("_id").as_int();
  for (auto& [path, idx] : s.indexes) {
    (void)path;
    idx.add(doc, id);
  }
}

void Collection::unindex_doc(Shard& s, const Json& doc) {
  const std::int64_t id = doc.at("_id").as_int();
  for (auto& [path, idx] : s.indexes) {
    (void)path;
    idx.erase(doc, id);
  }
}

void Collection::insert_into_shard(Shard& s, Json document) {
  const std::int64_t id = document.at("_id").as_int();
  fold_next_id(next_id_, id + 1);
  s.id_pos[id] = s.docs.size();
  index_doc(s, document);
  s.docs.push_back(std::move(document));
}

std::int64_t Collection::insert(Json document) {
  if (!document.is_object())
    throw json::JsonError("Collection::insert: document must be an object");
  const std::int64_t id = next_id_.fetch_add(1);
  document["_id"] = id;
  Json op = Json::object();
  op["o"] = "i";
  op["d"] = std::move(document);
  std::vector<Member> members;
  members.push_back({this, shard_of(id), std::move(op)});
  commit(engine_, std::move(members));
  return id;
}

Collection::BatchInsert Collection::insert_batch(std::vector<Json> documents) {
  require_objects(documents, "Collection::insert_batch");
  BatchInsert out;
  std::vector<Member> members;
  out.ids = stage_batch(std::move(documents), members);
  out.ticket = commit(engine_, std::move(members)).ticket;
  return out;
}

std::vector<std::int64_t> Collection::stage_batch(std::vector<Json> documents,
                                                  std::vector<Member>& members) {
  // Ids ascend through the batch, so each shard's slice stays in
  // ascending-id (= insertion) order.
  std::vector<std::int64_t> ids;
  ids.reserve(documents.size());
  const std::int64_t base =
      next_id_.fetch_add(static_cast<std::int64_t>(documents.size()));
  std::map<std::size_t, Json> ops;  // shard -> its slice as one batch op
  for (std::size_t i = 0; i < documents.size(); ++i) {
    const std::int64_t id = base + static_cast<std::int64_t>(i);
    documents[i]["_id"] = id;
    ids.push_back(id);
    Json& op = ops[shard_of(id)];
    if (op.is_null()) {
      op["o"] = "b";
      op["ds"] = Json::array();
    }
    op["ds"].as_array().push_back(std::move(documents[i]));
  }
  for (auto& [k, op] : ops) members.push_back({this, k, std::move(op)});
  return ids;
}

std::vector<Collection::Member> Collection::on_every_shard(const Json& op) {
  std::vector<Member> members;
  members.reserve(shard_count());
  for (std::size_t k = 0; k < shard_count(); ++k)
    members.push_back({this, k, op});
  return members;
}

Collection::Committed Collection::commit(engine::StorageEngine* engine,
                                         std::vector<Member> members) {
  Committed out;
  if (members.empty()) return out;
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              if (a.collection != b.collection)
                return a.collection->name() < b.collection->name();
              return a.shard < b.shard;
            });
  // One shard: its own WAL frame is already crash-atomic (replayed whole or
  // not at all). Several: one commit-WAL record covers every member.
  const bool cross_shard = members.size() > 1;
  {
    // Lock order: commit gate (shared, cross-shard commits only) -> shard
    // writer locks (collection name, then ascending shard: the sort above)
    // -> WAL internals inside log_op/log_commit.
    std::shared_lock<std::shared_mutex> gate;
    if (engine && cross_shard)
      gate = std::shared_lock<std::shared_mutex>(engine->commit_gate());
    std::vector<std::unique_lock<std::shared_mutex>> locks;
    locks.reserve(members.size());
    for (const auto& m : members) {
      Shard& s = *m.collection->shards_[m.shard];
      locks.emplace_back(s.mu);
    }
    if (engine)  // write-ahead: log before apply
      out.ticket = cross_shard
                       ? engine->log_commit(members)
                       : engine->log_op(*members[0].collection,
                                        members[0].shard, members[0].op);
    // Readers and recovery see none or all of the members.
    for (auto& m : members)
      out.applied += m.collection->apply_op(m.shard, std::move(m.op));
  }
  if (engine) {
    // Shard locks and the commit gate are released: the durability wait
    // and checkpoints (snapshot I/O) run without extending the commit's
    // critical section, so writers queued on these shards join the fsync.
    if (!engine->options().async_commit) engine->wait_durable(out.ticket);
    for (const auto& m : members) engine->maybe_checkpoint(*m.collection, m.shard);
    if (cross_shard) engine->maybe_compact_commits();  // takes the gate
  }
  return out;
}

std::size_t Collection::apply_op(std::size_t shard, Json op) {
  Shard& s = *shards_[shard];
  const std::string& kind = op.at("o").as_string();
  if (kind == "i") {
    insert_into_shard(s, std::move(op["d"]));
    return 1;
  }
  if (kind == "b") {
    // One frame (or one commit member) = this shard's slice of the batch,
    // applied whole (batch crash atomicity).
    auto& docs = op["ds"].as_array();
    for (auto& d : docs) insert_into_shard(s, std::move(d));
    return docs.size();
  }
  if (kind == "u")
    return update_shard_locked(s, query::CompiledQuery::compile(op.at("q")),
                               op.at("u"));
  if (kind == "r")
    return remove_shard_locked(s, query::CompiledQuery::compile(op.at("q")));
  throw std::runtime_error("unknown op '" + kind + "' in collection " + name_);
}

void Collection::scan(const query::CompiledQuery& cq,
                      const std::function<bool(const Json&)>& visit) const {
  // Each shard yields its matches in ascending id order, from its planned
  // candidate ids or (no usable index) its whole id map. Ids are globally
  // unique and monotone, so visiting the smallest head each step IS
  // insertion order — byte-identical to an unsharded scan.
  struct Cursor {
    const Shard* s = nullptr;
    query::ShardPlan plan;
    std::size_t next_candidate = 0;
    std::map<std::int64_t, std::size_t>::const_iterator next_pos;
    const Json* head = nullptr;  // current match; nullptr once exhausted
    std::int64_t head_id = 0;
  };
  const auto advance = [&cq](Cursor& c) {
    c.head = nullptr;
    while (c.head == nullptr) {
      std::int64_t id = 0;
      const Json* d = nullptr;
      if (c.plan.index_scan) {
        if (c.next_candidate == c.plan.candidates.size()) return;
        id = c.plan.candidates[c.next_candidate++];
        const auto it = c.s->id_pos.find(id);
        if (it == c.s->id_pos.end()) continue;
        d = &c.s->docs[it->second];
      } else {
        if (c.next_pos == c.s->id_pos.end()) return;
        id = c.next_pos->first;
        d = &c.s->docs[c.next_pos->second];
        ++c.next_pos;
      }
      if (cq.eval(*d)) {
        c.head = d;
        c.head_id = id;
      }
    }
  };
  std::vector<Cursor> cur(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    cur[k].s = shards_[k].get();
    cur[k].plan = query::plan_shard(cur[k].s->indexes, cq);
    cur[k].next_pos = cur[k].s->id_pos.begin();
    advance(cur[k]);
  }
  while (true) {
    Cursor* best = nullptr;
    for (auto& c : cur)
      if (c.head && (!best || c.head_id < best->head_id)) best = &c;
    if (!best || !visit(*best->head)) return;
    advance(*best);
  }
}

std::vector<Json> Collection::find(const Json& query) const {
  return find_filtered(query, [](const Json&) { return true; });
}

std::vector<Json> Collection::find_filtered(
    const Json& query, const std::function<bool(const Json&)>& pred) const {
  // Compile once per query, not per record; the same program plans and
  // re-checks every shard.
  const auto cq = query::CompiledQuery::compile(query);
  const auto locks = lock_shared_all(shards_);
  std::vector<Json> out;
  scan(cq, [&](const Json& d) {
    if (pred(d)) out.push_back(d);
    return true;
  });
  return out;
}

Json Collection::explain(const Json& query) const {
  const auto cq = query::CompiledQuery::compile(query);
  Json out = Json::object();
  out["query"] = query;
  Json shards = Json::array();
  const auto locks = lock_shared_all(shards_);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& s = *shards_[k];
    const auto plan = query::plan_shard(s.indexes, cq);
    Json sj = Json::object();
    sj["shard"] = k;
    sj["shard_size"] = s.docs.size();
    sj["index_scan"] = plan.index_scan;
    sj["candidates"] =
        plan.index_scan ? Json(plan.candidates.size()) : Json(s.docs.size());
    Json idxs = Json::array();
    for (const auto& choice : plan.choices) {
      Json cj = Json::object();
      cj["path"] = *choice.path;
      cj["estimate"] = choice.estimate;
      cj["applied"] = choice.applied;
      idxs.push_back(std::move(cj));
    }
    sj["indexes"] = std::move(idxs);
    shards.push_back(std::move(sj));
  }
  out["shards"] = std::move(shards);
  return out;
}

Json Collection::find_one(const Json& query) const {
  const auto cq = query::CompiledQuery::compile(query);
  const auto locks = lock_shared_all(shards_);
  Json first;
  scan(cq, [&](const Json& d) {
    first = d;
    return false;
  });
  return first;
}

std::size_t Collection::count(const Json& query) const {
  return count_upto(query, std::numeric_limits<std::size_t>::max());
}

bool Collection::exists(const Json& query) const {
  return count_upto(query, 1) != 0;
}

std::size_t Collection::count_upto(const Json& query, std::size_t limit) const {
  const auto cq = query::CompiledQuery::compile(query);  // validates: object
  const auto locks = lock_shared_all(shards_);
  std::size_t n = 0;
  // Index-only when the whole query IS one indexed condition the index
  // answers exactly: the posting lists are then the per-shard match sets.
  // With a second field in play the index only ever narrows.
  const auto& fields = query.as_object();
  if (fields.size() == 1) {
    const auto& [path, condition] = *fields.begin();
    if (path[0] != '$' && shards_[0]->indexes.count(path) != 0 &&
        engine::OrderedIndex::exact(condition)) {
      // Every shard mirrors the index set, and exact() implies estimate()
      // serves the condition.
      for (const auto& sp : shards_) {
        if (n >= limit) break;
        n += *sp->indexes.at(path).estimate(condition, limit - n);
      }
      return n;
    }
  }
  scan(cq, [&](const Json&) { return ++n < limit; });
  return n;
}

std::size_t Collection::remove(const Json& query) {
  // Compiling validates the query BEFORE it is WAL-logged: a malformed
  // query used to be logged, then throw during apply, and recovery would
  // re-throw replaying it — refusing to open the store.
  (void)query::CompiledQuery::compile(query);
  Json op = Json::object();
  op["o"] = "r";
  op["q"] = query;
  return commit(engine_, on_every_shard(op)).applied;
}

std::size_t Collection::remove_shard_locked(Shard& s,
                                            const query::CompiledQuery& query) {
  std::vector<Json> kept;
  kept.reserve(s.docs.size());
  std::size_t removed = 0;
  for (auto& d : s.docs) {
    if (query.eval(d)) {
      unindex_doc(s, d);
      ++removed;
    } else {
      kept.push_back(std::move(d));
    }
  }
  // Unconditionally: the loop moved every kept document out of s.docs, so
  // even a no-match remove must swap the (order-preserving) vector back in.
  s.docs = std::move(kept);
  if (removed != 0) {
    s.id_pos.clear();
    for (std::size_t i = 0; i < s.docs.size(); ++i)
      s.id_pos[s.docs[i].at("_id").as_int()] = i;
  }
  return removed;
}

std::size_t Collection::update(const Json& query, const Json& update) {
  if (!update.is_object())
    throw json::JsonError("Collection::update: update must be an object");
  (void)query::CompiledQuery::compile(query);  // validate before logging
  Json op = Json::object();
  op["o"] = "u";
  op["q"] = query;
  op["u"] = update;
  return commit(engine_, on_every_shard(op)).applied;
}

std::size_t Collection::update_shard_locked(Shard& s,
                                            const query::CompiledQuery& query,
                                            const Json& update) {
  std::size_t n = 0;
  for (auto& d : s.docs) {
    if (!query.eval(d)) continue;
    unindex_doc(s, d);
    for (const auto& [k, v] : update.as_object()) {
      if (k == "_id") continue;  // ids are immutable
      d[k] = v;
    }
    index_doc(s, d);
    ++n;
  }
  return n;
}

void Collection::create_index(const std::string& path) {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mu);
  if (std::find(index_paths_.begin(), index_paths_.end(), path) ==
      index_paths_.end())
    index_paths_.push_back(path);
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    auto it = s.indexes.find(path);
    if (it == s.indexes.end())
      it = s.indexes.emplace(path, engine::OrderedIndex(path)).first;
    else
      it->second.clear();
    for (const auto& [id, p] : s.id_pos) it->second.add(s.docs[p], id);
  }
}

bool Collection::has_index(const std::string& path) const {
  std::shared_lock lock(shards_[0]->mu);
  return std::find(index_paths_.begin(), index_paths_.end(), path) !=
         index_paths_.end();
}

std::vector<std::string> Collection::index_paths() const {
  std::shared_lock lock(shards_[0]->mu);
  return index_paths_;
}

void Collection::for_each(const std::function<bool(const Json&)>& fn) const {
  const auto cq = query::CompiledQuery::compile(Json::object());
  const auto locks = lock_shared_all(shards_);
  scan(cq, fn);
}

std::vector<Json> Collection::all() const {
  std::vector<Json> out;
  out.reserve(size());
  for_each([&](const Json& d) {
    out.push_back(d);
    return true;
  });
  return out;
}

void Collection::rebuild_shard_derived(Shard& s) {
  s.id_pos.clear();
  for (std::size_t i = 0; i < s.docs.size(); ++i)
    s.id_pos[s.docs[i].at("_id").as_int()] = i;
  s.indexes.clear();
  for (const auto& path : index_paths_) {
    engine::OrderedIndex idx(path);
    for (const auto& [id, p] : s.id_pos) idx.add(s.docs[p], id);
    s.indexes.emplace(path, std::move(idx));
  }
}

void Collection::configure_shards(std::size_t shards) {
  if (shards == 0) shards = 1;
  std::vector<Json> docs;
  for (auto& sp : shards_)
    for (auto& [id, p] : sp->id_pos) {
      (void)id;
      docs.push_back(std::move(sp->docs[p]));
    }
  // Re-bucket in ascending-id order so each new shard's vector is again in
  // insertion order.
  std::sort(docs.begin(), docs.end(), [](const Json& a, const Json& b) {
    return a.at("_id").as_int() < b.at("_id").as_int();
  });
  shards_.clear();
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  for (auto& d : docs) {
    const std::size_t k = shard_of(d.at("_id").as_int());
    shards_[k]->docs.push_back(std::move(d));
  }
  for (auto& sp : shards_) rebuild_shard_derived(*sp);
}

void Collection::restore_shard(std::size_t shard, const Json& j) {
  fold_next_id(next_id_, j.at("next_id").as_int());
  Shard& s = *shards_[shard];
  s.docs.clear();
  for (const auto& d : j.at("docs").as_array()) {
    fold_next_id(next_id_, d.at("_id").as_int() + 1);
    s.docs.push_back(d);
  }
  rebuild_shard_derived(s);
}

Json Collection::shard_to_json(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  Json j = Json::object();
  j["name"] = name_;
  j["next_id"] = next_id_.load();
  Json docs = Json::array();
  for (const auto& [id, p] : s.id_pos) {
    (void)id;
    docs.push_back(s.docs[p]);
  }
  j["docs"] = std::move(docs);
  return j;
}

Json Collection::to_json() const {
  Json j = Json::object();
  j["name"] = name_;
  j["next_id"] = next_id_.load();
  Json docs = Json::array();
  for_each([&](const Json& d) {
    docs.push_back(d);
    return true;
  });
  j["docs"] = std::move(docs);
  return j;
}

// ---------------------------------------------------------------------------
// DocumentStore

DocumentStore::DocumentStore(DocumentStore&& other) noexcept
    : collections_(std::move(other.collections_)),
      engine_(std::move(other.engine_)) {
  if (engine_) engine_->rebind(*this);
}

DocumentStore& DocumentStore::operator=(DocumentStore&& other) noexcept {
  collections_ = std::move(other.collections_);
  engine_ = std::move(other.engine_);
  if (engine_) engine_->rebind(*this);
  return *this;
}

Collection& DocumentStore::collection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_
             .emplace(name, Collection(name, engine_ ? engine_->shard_count()
                                                     : 1))
             .first;
    if (engine_) it->second.attach_engine(engine_.get());
  }
  return it->second;
}

const Collection* DocumentStore::find_collection(
    const std::string& name) const {
  const auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : &it->second;
}

std::vector<std::string> DocumentStore::collection_names() const {
  std::vector<std::string> names;
  for (const auto& [name, c] : collections_) {
    (void)c;
    names.push_back(name);
  }
  return names;
}

DocumentStore::AtomicInsert DocumentStore::insert_atomic(
    std::map<std::string, std::vector<Json>> docs) {
  for (const auto& [name, ds] : docs) {
    (void)name;
    require_objects(ds, "DocumentStore::insert_atomic");
  }
  // Resolve targets first: collection() may create entries, which must not
  // happen while shard locks are held.
  AtomicInsert out;
  std::vector<Collection::Member> members;
  for (auto& [name, ds] : docs)
    if (!ds.empty())
      out.ids[name] = collection(name).stage_batch(std::move(ds), members);
  out.ticket = Collection::commit(engine_.get(), std::move(members)).ticket;
  return out;
}

DocumentStore DocumentStore::open_durable(const std::filesystem::path& dir,
                                          engine::EngineOptions options) {
  DocumentStore store;
  store.engine_ =
      std::make_unique<engine::StorageEngine>(dir, std::move(options));
  try {
    store.engine_->recover(store);
  } catch (...) {
    store.engine_->abandon();
    throw;
  }
  return store;
}

void DocumentStore::sync() {
  if (engine_) engine_->sync();
}

void DocumentStore::checkpoint_all() {
  if (engine_) engine_->checkpoint_all();
}

}  // namespace gptc::db
