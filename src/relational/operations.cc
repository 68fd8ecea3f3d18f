#include "relational/operations.h"

#include "common/check.h"
#include "common/string_util.h"

namespace dbim {

bool RepairOperation::IsApplicable(const Database& db) const {
  if (is_deletion()) return db.Contains(deletion().id);
  if (is_insertion()) return true;
  const UpdateOp& u = update();
  if (!db.Contains(u.id)) return false;
  const RelationId rel = db.Locate(u.id).relation;
  if (u.attr >= db.schema().relation(rel).arity()) return false;
  // Setting an attribute to its current value is not "an actual change";
  // the paper requires cost 0 iff o(D) = D, and we model such operations as
  // not applicable.
  return db.pool().value(db.value_id(u.id, u.attr)) != u.value;
}

void RepairOperation::ApplyInPlace(Database& db) const {
  if (!IsApplicable(db)) return;
  if (is_deletion()) {
    db.Delete(deletion().id);
    return;
  }
  if (is_insertion()) {
    db.Insert(insertion().fact);
    return;
  }
  const UpdateOp& u = update();
  db.UpdateValue(u.id, u.attr, u.value);
}

Database RepairOperation::Apply(const Database& db) const {
  Database out = db;
  ApplyInPlace(out);
  return out;
}

std::string RepairOperation::ToString(const Schema& schema) const {
  if (is_deletion()) return StrFormat("<-%u>", deletion().id);
  if (is_insertion()) {
    return "<+" + insertion().fact.ToString(schema) + ">";
  }
  const UpdateOp& u = update();
  // The attribute is identified by position; resolving its name would need
  // the fact's relation, which requires a database rather than a schema.
  return StrFormat("<%u.#%u <- %s>", u.id, u.attr,
                   u.value.ToString().c_str());
}

}  // namespace dbim
