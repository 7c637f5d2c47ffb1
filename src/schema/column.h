#ifndef TPCDS_SCHEMA_COLUMN_H_
#define TPCDS_SCHEMA_COLUMN_H_

#include <string>

namespace tpcds {

/// Logical column types of the TPC-DS schema. The engine stores every one
/// of them as int64 payloads (scaled decimal cents, date JDNs) or strings.
enum class ColumnType {
  kIdentifier,  // surrogate key / large integer (int64)
  kInteger,     // 32-bit integer semantics
  kDecimal,     // DECIMAL(p,2): all TPC-DS money columns use scale 2
  kDate,        // calendar date
  kChar,        // fixed-width character
  kVarchar,     // variable-width character
};

/// Returns "identifier", "integer", "decimal", "date", "char", "varchar".
const char* ColumnTypeToString(ColumnType type);

/// Declaration of one schema column.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInteger;
  /// Declared maximum width for kChar/kVarchar; 0 otherwise.
  int length = 0;
  bool nullable = true;

  /// Upper bound on this column's rendered width in a flat file, used for
  /// the declared row-length statistic in Table 1.
  int MaxFlatWidth() const;
};

}  // namespace tpcds

#endif  // TPCDS_SCHEMA_COLUMN_H_
