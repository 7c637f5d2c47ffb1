#ifndef TPCBENCH_DIGEST_H_
#define TPCBENCH_DIGEST_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "util/result.h"

namespace tpcbench {

/// How a statement's answer is compared across runs and implementations.
enum class DigestKind {
  kOrdered,  // ORDER BY is total on the answer: rows hashed in order
  kSet,      // order not fully determined: rows sorted before hashing
  kCount,    // ties at a LIMIT leave the row set implementation-defined
};

const char* DigestKindName(DigestKind kind);

/// Row count plus a 64-bit content hash (0 for kCount).
struct Digest {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

/// Canonical text of one value: decimals as exact cents, doubles rounded
/// to nine significant digits (signed zero folded), dates as day numbers.
/// Equal text means equal answers; the kind prefix keeps 1 and "1" apart.
std::string NormalizeValue(const tpcds::Value& value);

/// Digest of `rows` under `kind`.
Digest DigestRows(const std::vector<std::vector<tpcds::Value>>& rows,
                  DigestKind kind);

/// Decides the DigestKind of `sql` from its `result` on the recording
/// database. A LIMIT that cut the answer keeps content only when the
/// ORDER BY keys separate the last kept row from the first dropped one
/// (checked by re-running without the LIMIT); ORDER BY counts as total
/// when its keys resolve to output columns and no two adjacent rows tie.
tpcds::Result<DigestKind> ClassifyStatement(
    const tpcds::DataFacade& facade, const std::string& sql,
    const tpcds::QueryResult& result, const tpcds::PlannerOptions& options);

/// Stored answers of one seed: (stream, template id) -> kind + digest.
struct ExpectedAnswer {
  DigestKind kind = DigestKind::kSet;
  Digest digest;
};
using StatementKey = std::pair<int, int>;
using DigestTable = std::map<StatementKey, ExpectedAnswer>;

/// Tab-separated file, one statement per line:
///   stream  template  kind  rows  hash(hex)
/// preceded by a "# seed=<n> sf=<x>" header line.
tpcds::Status SaveDigests(const std::string& path, uint64_t seed,
                          double scale_factor, const DigestTable& table);
/// Loads a digest file; `seed` and `scale_factor` receive its header.
tpcds::Result<DigestTable> LoadDigests(const std::string& path,
                                       uint64_t* seed, double* scale_factor);

/// Compares an observed answer with the expected one under the expected
/// kind; returns an empty string when they agree, else what differs.
std::string CompareAnswer(const ExpectedAnswer& expected,
                          const std::vector<std::vector<tpcds::Value>>& rows);

}  // namespace tpcbench

#endif  // TPCBENCH_DIGEST_H_
