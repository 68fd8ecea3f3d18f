#include "relational/repair_system.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

double RepairSystem::Cost(const RepairOperation& op, const Database& db) const {
  if (!op.IsApplicable(db)) return 0.0;
  if (op.is_deletion()) return db.deletion_cost(op.deletion().id);
  return 1.0;
}

double RepairSystem::ApplySequence(const std::vector<RepairOperation>& ops,
                                   Database& db) const {
  double total = 0.0;
  for (const RepairOperation& op : ops) {
    total += Cost(op, db);
    op.ApplyInPlace(db);
  }
  return total;
}

std::vector<RepairOperation> SubsetRepairSystem::EnumerateOperations(
    const Database& db) const {
  std::vector<RepairOperation> ops;
  ops.reserve(db.size());
  for (const FactId id : db.ids()) {
    ops.push_back(RepairOperation::Deletion(id));
  }
  return ops;
}

Value UpdateRepairSystem::FreshValue(const Database& db) {
  // One integer strictly above everything numeric in the database works as a
  // sentinel "outside the active domain" for every column: no DC predicate
  // can tie it to an existing value via equality.
  int64_t fresh = 1;
  for (RelationId r = 0; r < db.schema().num_relations(); ++r) {
    for (const std::vector<ValueId>& column : db.relation_block(r).columns) {
      for (const ValueId cell : column) {
        const Value& v = db.pool().value(cell);
        if (v.is_numeric()) {
          fresh =
              std::max<int64_t>(fresh, static_cast<int64_t>(v.numeric()) + 1);
        }
      }
    }
  }
  return Value(fresh + 1000003);
}

std::vector<RepairOperation> UpdateRepairSystem::EnumerateOperations(
    const Database& db) const {
  std::vector<RepairOperation> ops;
  const Value fresh = FreshValue(db);
  // Collect active domains once per (relation, attribute) column.
  std::vector<std::vector<std::vector<Value>>> domains(
      db.schema().num_relations());
  for (RelationId r = 0; r < db.schema().num_relations(); ++r) {
    const size_t arity = db.schema().relation(r).arity();
    domains[r].resize(arity);
    for (AttrIndex a = 0; a < arity; ++a) {
      domains[r][a] = db.ActiveDomain(r, a);
    }
  }
  for (const FactId id : db.ids()) {
    const RelationId rel = db.Locate(id).relation;
    for (AttrIndex a = 0; a < domains[rel].size(); ++a) {
      const Value& current = db.pool().value(db.value_id(id, a));
      for (const Value& v : domains[rel][a]) {
        if (v == current) continue;
        ops.push_back(RepairOperation::Update(id, a, v));
      }
      ops.push_back(RepairOperation::Update(id, a, fresh));
    }
  }
  return ops;
}

std::vector<RepairOperation> InsertDeleteRepairSystem::EnumerateOperations(
    const Database& db) const {
  SubsetRepairSystem deletions;
  return deletions.EnumerateOperations(db);
}

}  // namespace dbim
