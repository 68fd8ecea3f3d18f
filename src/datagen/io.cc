#include "datagen/io.h"

#include <vector>

#include "common/csv.h"
#include "common/string_util.h"

namespace dbim {

namespace {

std::string EncodeValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "?:";
    case Value::Kind::kInt:
      return "i:" + v.ToString();
    case Value::Kind::kDouble:
      return StrFormat("d:%.17g", v.as_double());
    case Value::Kind::kString:
      return "s:" + v.as_string();
  }
  return "?:";
}

// Decodes one typed cell ("i:", "d:", "s:", "?:"; anything else is an
// untagged string). Fails on a malformed number or a NaN.
bool DecodeValue(const std::string& field, Value* out) {
  if (field.size() >= 2 && field[1] == ':') {
    const std::string payload = field.substr(2);
    std::string error;
    switch (field[0]) {
      case 'i': {
        int64_t v = 0;
        if (!ParseInt64(payload, &v, &error)) return false;
        *out = Value(v);
        return true;
      }
      case 'd': {
        double v = 0.0;
        if (!ParseDouble(payload, &v, &error)) return false;
        *out = Value(v);
        return true;
      }
      case 's':
        *out = Value(payload);
        return true;
      case '?':
        *out = Value();
        return true;
      default:
        break;  // fall through: treat as untagged string
    }
  }
  *out = Value(field);
  return true;
}

}  // namespace

bool WriteDatabaseCsv(const Database& db, RelationId relation,
                      const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back(db.schema().relation(relation).attributes());
  const size_t arity = rows.front().size();
  for (const FactId id : db.ids()) {
    if (db.Locate(id).relation != relation) continue;
    std::vector<std::string> row;
    row.reserve(arity);
    for (AttrIndex a = 0; a < arity; ++a) {
      row.push_back(EncodeValue(db.pool().value(db.value_id(id, a))));
    }
    rows.push_back(std::move(row));
  }
  return Csv::WriteFile(path, rows);
}

std::optional<Database> ReadDatabaseCsv(std::shared_ptr<const Schema> schema,
                                        RelationId relation,
                                        const std::string& path,
                                        std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<Database> {
    if (error) *error = message;
    return std::nullopt;
  };
  const auto rows = Csv::ReadFile(path);
  if (!rows) return fail("cannot read or parse " + path);
  if (rows->empty()) return fail("empty file");
  const size_t arity = schema->relation(relation).arity();
  if ((*rows)[0].size() != arity) {
    return fail(StrFormat("header has %zu columns, relation has %zu",
                          (*rows)[0].size(), arity));
  }
  Database db(std::move(schema));
  for (size_t r = 1; r < rows->size(); ++r) {
    const auto& row = (*rows)[r];
    if (row.size() != arity) {
      return fail(StrFormat("row %zu has %zu columns, expected %zu", r,
                            row.size(), arity));
    }
    std::vector<Value> values(arity);
    for (AttrIndex a = 0; a < arity; ++a) {
      if (!DecodeValue(row[a], &values[a])) {
        return fail(StrFormat("row %zu column %s: bad value '%s'", r,
                              (*rows)[0][a].c_str(), row[a].c_str()));
      }
    }
    db.Insert(Fact(relation, std::move(values)));
  }
  return db;
}

}  // namespace dbim
