#ifndef DBIM_TESTS_ORACLE_P4_FREE_H_
#define DBIM_TESTS_ORACLE_P4_FREE_H_

#include <cstddef>
#include "graph/graph.h"

namespace dbim::testing {

/// Whether `g` is P4-free (a cograph): no induced path on four vertices.
///
/// The paper cites the dichotomy of Livshits and Kimelfeld [40]: counting
/// maximal consistent subsets (I_MC) under a fixed FD set is tractable
/// exactly when every conflict graph the FD set can produce is P4-free.
/// This checker is the executable side of that frontier: given a concrete
/// conflict graph, it certifies membership in the tractable class. It is
/// the cograph-recognition oracle for a linear-time cotree recognizer.
///
/// Uses the cotree characterization: a graph is a cograph iff every induced
/// subgraph with >= 2 vertices is disconnected or co-disconnected, checked
/// by recursive decomposition (O(n^2) per level).
bool IsP4Free(const SimpleGraph& g);

/// Finds an induced P4 as evidence (vertices in path order), or returns an
/// empty vector when the graph is P4-free. Brute-force O(n^4); intended for
/// tests and small graphs.
std::vector<uint32_t> FindInducedP4(const SimpleGraph& g);

}  // namespace dbim::testing

#endif  // DBIM_TESTS_ORACLE_P4_FREE_H_
