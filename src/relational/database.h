#ifndef DBIM_RELATIONAL_DATABASE_H_
#define DBIM_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "common/value_pool.h"
#include "relational/fact.h"
#include "relational/schema.h"

namespace dbim {

/// Record identifier, the paper's `i in ids(D)`.
using FactId = uint32_t;

/// A database `D`: a mapping from a finite set of record identifiers to
/// facts over a schema (the paper's Section 2 formalization). Identifiers
/// are stable across deletions; insertion assigns the minimal unused
/// identifier, matching the paper's convention for the insertion operation.
///
/// Storage is dictionary-encoded and columnar: every cell value is interned
/// into a shared ValuePool and each relation keeps a struct-of-arrays of
/// ValueId columns (one `std::vector<ValueId>` per attribute); the columns
/// are the only copy of the data. `fact(id)` builds a row-major `Fact` from
/// them on each call; the hot paths (violation detection, restriction,
/// equality) run directly on the interned columns. Copies and restrictions
/// share the (append-only) pool, so their cells remain id-comparable.
/// Const methods only read, so any number of threads may read one
/// `const Database` concurrently.
///
/// Each fact optionally carries a deletion cost (the paper's special `cost`
/// attribute for the subset repair system); facts without one have unit
/// cost.
class Database {
 public:
  /// All live facts of one relation in struct-of-arrays layout. Row order
  /// is insertion order, perturbed by swap-removal on Delete; `row_ids`
  /// maps each row back to its stable FactId. Each cell is stored twice:
  /// its representation-exact ValueId (`columns`, what fact() materializes
  /// from) and its semantic class id (`class_columns`, what the violation
  /// detector hashes and compares — equal class iff equal value).
  struct RelationBlock {
    std::vector<FactId> row_ids;                // row -> fact id
    std::vector<std::vector<ValueId>> columns;  // [attr][row], exact
    std::vector<std::vector<ValueId>> class_columns;  // [attr][row]

    size_t num_rows() const { return row_ids.size(); }
    ValueId at(AttrIndex attr, size_t row) const { return columns[attr][row]; }
    ValueId class_at(AttrIndex attr, size_t row) const {
      return class_columns[attr][row];
    }
  };

  explicit Database(std::shared_ptr<const Schema> schema);

  Database(const Database&) = default;
  Database& operator=(const Database&) = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> schema_ptr() const { return schema_; }

  /// The value dictionary backing this database (shared by copies and
  /// restrictions).
  const ValuePool& pool() const { return *pool_; }
  const std::shared_ptr<ValuePool>& pool_ptr() const { return pool_; }

  /// Number of facts.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts a fact under the minimal unused identifier and returns it.
  FactId Insert(Fact fact);

  /// Inserts a fact under a caller-chosen identifier (must be unused).
  void InsertWithId(FactId id, Fact fact);

  /// Removes a fact (must exist).
  void Delete(FactId id);

  bool Contains(FactId id) const {
    return id < locators_.size() && locators_[id].live;
  }

  /// The fact mapped to `id` (must exist), the paper's `D[i]`, built from
  /// the columns. Single cells are cheaper to read as
  /// `pool().value(value_id(id, attr))`.
  Fact fact(FactId id) const;

  /// In-place attribute update `D[i].A <- c` (must exist).
  void UpdateValue(FactId id, AttrIndex attr, Value v);

  /// Interned cell value (must exist). Ids are representation-exact; for
  /// databases sharing a pool, `pool().class_of(x) == pool().class_of(y)`
  /// iff the cell values are equal.
  ValueId value_id(FactId id, AttrIndex attr) const;

  /// Columnar view of one relation's live facts (for detection hot paths).
  const RelationBlock& relation_block(RelationId relation) const;

  /// Position of a live fact inside its relation block. `row` indexes the
  /// block's columns and is only stable until the next mutation (Delete
  /// swap-removes rows); hot paths locate facts on demand instead of
  /// caching locations. This is how the eval kernel binds a FactId to a
  /// RowRef without materializing a row-major Fact.
  struct RowLocation {
    RelationId relation = 0;
    uint32_t row = 0;
  };
  RowLocation Locate(FactId id) const;

  /// All live identifiers in increasing order. Materializes a vector; hot
  /// loops should prefer ForEachId or relation_block.
  std::vector<FactId> ids() const;

  /// Calls `fn(FactId)` for every live identifier in increasing order
  /// without materializing a vector.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    for (FactId i = 0; i < locators_.size(); ++i) {
      if (locators_[i].live) fn(i);
    }
  }

  /// Deletion cost of a fact: its explicit cost if set, otherwise 1.
  double deletion_cost(FactId id) const;
  void set_deletion_cost(FactId id, double cost);

  /// Subset relation: ids(this) within ids(other) with equal facts.
  bool IsSubsetOf(const Database& other) const;

  /// Restriction of this database to the given identifiers (which must all
  /// exist). Preserves identifiers and costs; shares the value pool.
  Database Restrict(const std::vector<FactId>& keep) const;

  /// Distinct values appearing in column (relation, attr), sorted. This is
  /// the active domain used by the noise generators and update repairs; it
  /// reads the per-column distinct-id counts, not the rows.
  std::vector<Value> ActiveDomain(RelationId relation, AttrIndex attr) const;

  /// Fraction of pool entries no live cell references — the dead-value
  /// waste of sustained churn (the pool itself is append-only). In [0, 1);
  /// the pre-interned null sentinel counts as referenced.
  double PoolWaste() const;

  /// Marks every ValueId some live cell references in `used`, which must be
  /// sized to pool().size(). Lets a session holding several databases on
  /// one shared pool compute the union waste without materializing rows.
  void MarkUsedValueIds(std::vector<char>& used) const;

  /// Re-interns every live cell into `target` and rebinds this database to
  /// it, leaving the old pool untouched. The remap preserves row order and
  /// representation-exact values, so detection results and iteration order
  /// are unaffected; only raw ValueIds / semantic class ids change (and
  /// previously obtained ones must not be reused). This is how a
  /// MeasureSession re-keys an incoming database onto its shared pool at
  /// Register time and how a shared-pool vacuum remaps all registered
  /// databases together. No-op when `target` is already this pool.
  void ReinternInto(std::shared_ptr<ValuePool> target);

  /// Rebuilds the value pool without dead entries and remaps every column
  /// when PoolWaste() exceeds `waste_threshold`. Only runs when this
  /// database is the pool's sole owner: copies and restrictions sharing
  /// the pool pin the old ids, so compaction is refused (returns false)
  /// while any are alive. ValueIds and semantic class ids change;
  /// previously materialized `Fact`s hold value copies and stay valid, but
  /// raw ValueIds or `const Value&`s obtained from the old pool must not
  /// be used across a successful vacuum. Returns whether compaction ran.
  bool VacuumPool(double waste_threshold = 0.5);

  /// A relocatable snapshot of the database's physical columnar state:
  /// per-relation row ids and representation-exact ValueId columns in
  /// *physical row order* (insertion order perturbed by swap-removal —
  /// exactly the order ReinternInto and MarkUsedValueIds scan), plus the
  /// identifier high-water mark and the explicit deletion costs. This is
  /// what the storage layer serializes into segment files.
  struct SegmentImage {
    struct Relation {
      std::vector<FactId> row_ids;                // row -> fact id
      std::vector<std::vector<ValueId>> columns;  // [attr][row], exact ids
    };
    std::vector<Relation> relations;  // indexed by RelationId
    /// locators_.size(): with the live-id set, this pins the free-id set,
    /// so the next Insert after a round trip assigns the same identifier.
    uint32_t id_high_water = 0;
    std::vector<std::pair<FactId, double>> costs;  // ascending id
  };

  /// Copies out the physical columns. Deterministic: equal databases with
  /// equal mutation histories export byte-identical images.
  SegmentImage ExportSegmentImage() const;

  /// Reconstructs a database from an exported image. `pool` must intern
  /// every ValueId the image references (the exporting pool, or a
  /// bit-exact rebuild of it — see storage/format.h): columns are adopted
  /// verbatim, class columns recomputed from the pool, and row order, the
  /// free-id set and the id high-water mark all byte-match the exporter —
  /// the round-trip invariant tests/recovery_test.cc pins.
  static Database FromSegmentImage(std::shared_ptr<const Schema> schema,
                                   std::shared_ptr<ValuePool> pool,
                                   const SegmentImage& image);

  friend bool operator==(const Database& a, const Database& b);

 private:
  struct Locator {
    RelationId relation = 0;
    uint32_t row = 0;
    bool live = false;
  };

  /// Shared insert path: interns `fact`'s values into a new row of its
  /// relation's block and points locators_[id] at it.
  void Emplace(FactId id, Fact fact);

  /// Raw insert of pre-interned ids (same pool only; used by Restrict).
  void EmplaceRow(FactId id, RelationId relation,
                  const RelationBlock& source, uint32_t source_row);

  /// Rows (relation, row_a) of `a` and (relation, row_b) of `b` hold equal
  /// facts. Compares ids when the pools are shared, values otherwise.
  static bool RowsEqual(const Database& a, RelationId relation, uint32_t row_a,
                        const Database& b, uint32_t row_b);

  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<ValuePool> pool_;
  std::vector<RelationBlock> blocks_;  // indexed by RelationId
  std::vector<Locator> locators_;      // indexed by FactId
  // Unused ids below locators_.size(), so Insert finds the minimal unused
  // id in O(log n).
  std::set<FactId> free_ids_;
  std::unordered_map<FactId, double> costs_;
  // Per [relation][attr]: refcount of each distinct ValueId in the column,
  // maintained on insert/delete/update, backing ActiveDomain.
  std::vector<std::vector<std::unordered_map<ValueId, uint32_t>>>
      domain_counts_;
  size_t size_ = 0;
};

}  // namespace dbim

#endif  // DBIM_RELATIONAL_DATABASE_H_
