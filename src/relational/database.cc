#include "relational/database.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dbim {

Database::Database(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), pool_(std::make_shared<ValuePool>()) {
  DBIM_CHECK(schema_ != nullptr);
  blocks_.resize(schema_->num_relations());
  domain_counts_.resize(schema_->num_relations());
  for (RelationId r = 0; r < schema_->num_relations(); ++r) {
    const size_t arity = schema_->relation(r).arity();
    blocks_[r].columns.resize(arity);
    blocks_[r].class_columns.resize(arity);
    domain_counts_[r].resize(arity);
  }
}

void Database::Emplace(FactId id, Fact fact) {
  const RelationId rel = fact.relation();
  DBIM_CHECK_MSG(rel < blocks_.size(), "unknown relation %u", rel);
  RelationBlock& block = blocks_[rel];
  DBIM_CHECK_MSG(fact.arity() == block.columns.size(),
                 "fact arity %zu != relation arity %zu", fact.arity(),
                 block.columns.size());
  const uint32_t row = static_cast<uint32_t>(block.row_ids.size());
  block.row_ids.push_back(id);
  for (AttrIndex a = 0; a < block.columns.size(); ++a) {
    const ValueId v = pool_->Intern(fact.value(a));
    block.columns[a].push_back(v);
    block.class_columns[a].push_back(pool_->class_of(v));
    ++domain_counts_[rel][a][v];
  }
  if (id >= locators_.size()) locators_.resize(id + 1);
  locators_[id] = Locator{rel, row, true};
  ++size_;
}

FactId Database::Insert(Fact fact) {
  FactId id;
  if (!free_ids_.empty()) {
    id = *free_ids_.begin();
    free_ids_.erase(free_ids_.begin());
  } else {
    id = static_cast<FactId>(locators_.size());
  }
  DBIM_CHECK(!Contains(id));
  Emplace(id, std::move(fact));
  return id;
}

void Database::InsertWithId(FactId id, Fact fact) {
  if (id >= locators_.size()) {
    for (FactId i = static_cast<FactId>(locators_.size()); i < id; ++i) {
      free_ids_.insert(i);
    }
  } else {
    DBIM_CHECK_MSG(!locators_[id].live, "id %u already in use", id);
    free_ids_.erase(id);
  }
  Emplace(id, std::move(fact));
}

void Database::Delete(FactId id) {
  DBIM_CHECK(Contains(id));
  const Locator loc = locators_[id];
  RelationBlock& block = blocks_[loc.relation];
  const uint32_t last = static_cast<uint32_t>(block.row_ids.size()) - 1;
  for (AttrIndex a = 0; a < block.columns.size(); ++a) {
    auto& column = block.columns[a];
    auto& class_column = block.class_columns[a];
    auto& counts = domain_counts_[loc.relation][a];
    const auto it = counts.find(column[loc.row]);
    DBIM_CHECK(it != counts.end());
    if (--it->second == 0) counts.erase(it);
    column[loc.row] = column[last];
    column.pop_back();
    class_column[loc.row] = class_column[last];
    class_column.pop_back();
  }
  if (loc.row != last) {
    const FactId moved = block.row_ids[last];
    block.row_ids[loc.row] = moved;
    locators_[moved].row = loc.row;
  }
  block.row_ids.pop_back();
  locators_[id].live = false;
  free_ids_.insert(id);
  costs_.erase(id);
  --size_;
}

Fact Database::fact(FactId id) const {
  DBIM_CHECK(Contains(id));
  const Locator& loc = locators_[id];
  const RelationBlock& block = blocks_[loc.relation];
  std::vector<Value> values;
  values.reserve(block.columns.size());
  for (AttrIndex a = 0; a < block.columns.size(); ++a) {
    values.push_back(pool_->value(block.columns[a][loc.row]));
  }
  return Fact(loc.relation, std::move(values));
}

void Database::UpdateValue(FactId id, AttrIndex attr, Value v) {
  DBIM_CHECK(Contains(id));
  const Locator& loc = locators_[id];
  RelationBlock& block = blocks_[loc.relation];
  DBIM_CHECK(attr < block.columns.size());
  const ValueId fresh = pool_->Intern(std::move(v));
  ValueId& cell = block.columns[attr][loc.row];
  block.class_columns[attr][loc.row] = pool_->class_of(fresh);
  if (cell != fresh) {
    auto& counts = domain_counts_[loc.relation][attr];
    const auto it = counts.find(cell);
    DBIM_CHECK(it != counts.end());
    if (--it->second == 0) counts.erase(it);
    ++counts[fresh];
    cell = fresh;
  }
}

ValueId Database::value_id(FactId id, AttrIndex attr) const {
  DBIM_CHECK(Contains(id));
  const Locator& loc = locators_[id];
  return blocks_[loc.relation].at(attr, loc.row);
}

const Database::RelationBlock& Database::relation_block(
    RelationId relation) const {
  DBIM_CHECK(relation < blocks_.size());
  return blocks_[relation];
}

Database::RowLocation Database::Locate(FactId id) const {
  DBIM_CHECK(Contains(id));
  const Locator& loc = locators_[id];
  return RowLocation{loc.relation, loc.row};
}

std::vector<FactId> Database::ids() const {
  std::vector<FactId> out;
  out.reserve(size_);
  ForEachId([&out](FactId id) { out.push_back(id); });
  return out;
}

double Database::deletion_cost(FactId id) const {
  DBIM_CHECK(Contains(id));
  const auto it = costs_.find(id);
  return it == costs_.end() ? 1.0 : it->second;
}

void Database::set_deletion_cost(FactId id, double cost) {
  DBIM_CHECK(Contains(id));
  DBIM_CHECK(cost > 0.0);
  costs_[id] = cost;
}

bool Database::RowsEqual(const Database& a, RelationId relation,
                         uint32_t row_a, const Database& b, uint32_t row_b) {
  const RelationBlock& block_a = a.blocks_[relation];
  const RelationBlock& block_b = b.blocks_[relation];
  // Different schemas can give the same RelationId different arities;
  // facts of different arity are never equal.
  if (block_a.columns.size() != block_b.columns.size()) return false;
  if (a.pool_ == b.pool_) {
    // Fact equality is Value equality, i.e. semantic-class equality.
    for (AttrIndex attr = 0; attr < block_a.columns.size(); ++attr) {
      if (block_a.class_columns[attr][row_a] !=
          block_b.class_columns[attr][row_b]) {
        return false;
      }
    }
    return true;
  }
  for (AttrIndex attr = 0; attr < block_a.columns.size(); ++attr) {
    if (a.pool_->value(block_a.columns[attr][row_a]) !=
        b.pool_->value(block_b.columns[attr][row_b])) {
      return false;
    }
  }
  return true;
}

bool Database::IsSubsetOf(const Database& other) const {
  for (FactId i = 0; i < locators_.size(); ++i) {
    if (!locators_[i].live) continue;
    if (!other.Contains(i)) return false;
    const Locator& mine = locators_[i];
    const Locator& theirs = other.locators_[i];
    if (mine.relation != theirs.relation) return false;
    if (!RowsEqual(*this, mine.relation, mine.row, other, theirs.row)) {
      return false;
    }
  }
  return true;
}

void Database::EmplaceRow(FactId id, RelationId relation,
                          const RelationBlock& source, uint32_t source_row) {
  RelationBlock& block = blocks_[relation];
  const uint32_t row = static_cast<uint32_t>(block.row_ids.size());
  block.row_ids.push_back(id);
  for (AttrIndex a = 0; a < block.columns.size(); ++a) {
    const ValueId v = source.columns[a][source_row];
    block.columns[a].push_back(v);
    block.class_columns[a].push_back(source.class_columns[a][source_row]);
    ++domain_counts_[relation][a][v];
  }
  if (id >= locators_.size()) locators_.resize(id + 1);
  locators_[id] = Locator{relation, row, true};
  ++size_;
}

Database Database::Restrict(const std::vector<FactId>& keep) const {
  Database out(schema_);
  out.pool_ = pool_;  // rows below copy interned ids verbatim
  for (const FactId id : keep) {
    DBIM_CHECK(Contains(id));
    DBIM_CHECK(!out.Contains(id));
    const Locator& loc = locators_[id];
    out.EmplaceRow(id, loc.relation, blocks_[loc.relation], loc.row);
    const auto it = costs_.find(id);
    if (it != costs_.end()) out.costs_[id] = it->second;
  }
  // Rebuild the free-id set so Insert on the restriction stays minimal.
  for (FactId i = 0; i < out.locators_.size(); ++i) {
    if (!out.locators_[i].live) out.free_ids_.insert(i);
  }
  return out;
}

std::vector<Value> Database::ActiveDomain(RelationId relation,
                                          AttrIndex attr) const {
  DBIM_CHECK(relation < domain_counts_.size());
  DBIM_CHECK(attr < domain_counts_[relation].size());
  std::vector<Value> values;
  values.reserve(domain_counts_[relation][attr].size());
  for (const auto& [id, count] : domain_counts_[relation][attr]) {
    (void)count;
    values.push_back(pool_->value(id));
  }
  std::sort(values.begin(), values.end());
  // Distinct representations can be semantically equal (Value(2) vs
  // Value(2.0)); the active domain is a set of *values*, so dedupe.
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

void Database::MarkUsedValueIds(std::vector<char>& used) const {
  DBIM_CHECK(used.size() >= pool_->size());
  used[kNullValueId] = 1;
  for (const auto& relation : domain_counts_) {
    for (const auto& column : relation) {
      for (const auto& [id, count] : column) {
        (void)count;
        used[id] = 1;
      }
    }
  }
}

double Database::PoolWaste() const {
  std::vector<char> used(pool_->size(), 0);
  MarkUsedValueIds(used);
  size_t used_count = 0;
  for (const char u : used) used_count += u;
  return 1.0 - static_cast<double>(used_count) /
                   static_cast<double>(pool_->size());
}

void Database::ReinternInto(std::shared_ptr<ValuePool> target) {
  if (target == pool_) return;
  // Lazily remap live ids in column-scan order. Interning is
  // representation-exact, so the remap is injective on live ids and every
  // cell round-trips bit-for-bit.
  std::vector<ValueId> remap(pool_->size(), kNullValueId);
  std::vector<char> mapped(pool_->size(), 0);
  mapped[kNullValueId] = 1;  // null is pre-interned as id 0 in every pool
  for (RelationId rel = 0; rel < blocks_.size(); ++rel) {
    RelationBlock& block = blocks_[rel];
    for (AttrIndex a = 0; a < block.columns.size(); ++a) {
      auto& column = block.columns[a];
      auto& class_column = block.class_columns[a];
      for (size_t row = 0; row < column.size(); ++row) {
        ValueId& cell = column[row];
        if (!mapped[cell]) {
          remap[cell] = target->Intern(pool_->value(cell));
          mapped[cell] = 1;
        }
        cell = remap[cell];
        class_column[row] = target->class_of(cell);
      }
      std::unordered_map<ValueId, uint32_t> counts;
      counts.reserve(domain_counts_[rel][a].size());
      for (const auto& [id, count] : domain_counts_[rel][a]) {
        counts.emplace(remap[id], count);
      }
      domain_counts_[rel][a] = std::move(counts);
    }
  }
  pool_ = std::move(target);
}

bool Database::VacuumPool(double waste_threshold) {
  if (pool_.use_count() != 1) return false;  // shared ids would dangle
  if (PoolWaste() <= waste_threshold) return false;
  ReinternInto(std::make_shared<ValuePool>());
  return true;
}

Database::SegmentImage Database::ExportSegmentImage() const {
  SegmentImage image;
  image.relations.resize(blocks_.size());
  for (RelationId r = 0; r < blocks_.size(); ++r) {
    image.relations[r].row_ids = blocks_[r].row_ids;
    image.relations[r].columns = blocks_[r].columns;
  }
  image.id_high_water = static_cast<uint32_t>(locators_.size());
  image.costs.assign(costs_.begin(), costs_.end());
  std::sort(image.costs.begin(), image.costs.end());
  return image;
}

Database Database::FromSegmentImage(std::shared_ptr<const Schema> schema,
                                    std::shared_ptr<ValuePool> pool,
                                    const SegmentImage& image) {
  Database db(std::move(schema));
  DBIM_CHECK_MSG(image.relations.size() == db.blocks_.size(),
                 "segment image has %zu relations, schema has %zu",
                 image.relations.size(), db.blocks_.size());
  db.pool_ = std::move(pool);
  db.locators_.assign(image.id_high_water, Locator{});
  for (RelationId r = 0; r < db.blocks_.size(); ++r) {
    const SegmentImage::Relation& rel = image.relations[r];
    RelationBlock& block = db.blocks_[r];
    const size_t arity = block.columns.size();
    const size_t rows = rel.row_ids.size();
    DBIM_CHECK_MSG(rel.columns.size() == arity,
                   "segment relation %u has %zu columns, schema arity %zu", r,
                   rel.columns.size(), arity);
    block.row_ids = rel.row_ids;
    block.columns = rel.columns;
    for (AttrIndex a = 0; a < arity; ++a) {
      DBIM_CHECK(block.columns[a].size() == rows);
      auto& class_column = block.class_columns[a];
      auto& counts = db.domain_counts_[r][a];
      class_column.resize(rows);
      for (size_t row = 0; row < rows; ++row) {
        const ValueId cell = block.columns[a][row];
        DBIM_CHECK_MSG(cell < db.pool_->size(),
                       "segment cell references unknown ValueId %u", cell);
        class_column[row] = db.pool_->class_of(cell);
        ++counts[cell];
      }
    }
    for (uint32_t row = 0; row < rows; ++row) {
      const FactId id = block.row_ids[row];
      DBIM_CHECK_MSG(id < image.id_high_water && !db.locators_[id].live,
                     "segment row id %u out of range or duplicated", id);
      db.locators_[id] = Locator{r, row, true};
      ++db.size_;
    }
  }
  for (FactId id = 0; id < image.id_high_water; ++id) {
    if (!db.locators_[id].live) db.free_ids_.insert(id);
  }
  for (const auto& [id, cost] : image.costs) {
    DBIM_CHECK(db.Contains(id));
    db.costs_[id] = cost;
  }
  return db;
}

bool operator==(const Database& a, const Database& b) {
  if (a.size_ != b.size_) return false;
  return a.IsSubsetOf(b);
}

}  // namespace dbim
