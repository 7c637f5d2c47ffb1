#ifndef TPCDS_ENGINE_CHECKPOINT_H_
#define TPCDS_ENGINE_CHECKPOINT_H_

#include <string>

#include "engine/database.h"
#include "util/status.h"

namespace tpcds {

/// Binary columnar checkpoint of a whole database, format v2: column
/// payloads are laid out so the files can be mmap'd and used in place.
///
/// Layout of a checkpoint directory:
///
///   <table>.col   one file per table:
///                   "TPCDSTB3" | u32 col_count | u64 row_count |
///                   u32 dir_crc | directory | payload sections
///                 The directory has one fixed-width entry per column:
///                   u8 type | u64 nulls_off | u64 data_off |
///                   u64 arena_off | u64 arena_len | u32 section_crc
///                 Every section offset is 64-byte aligned (absolute file
///                 offsets; zero padding between sections, none after the
///                 last). Per column the sections are: null bytes (one per
///                 row), then data — row_count little-endian int64s for
///                 numeric columns, or row_count+1 little-endian u64 string
///                 offsets — and, for string columns, the arena holding all
///                 string bytes back to back. Row r's string is
///                 arena[offsets[r] .. offsets[r+1]), so a mapped column
///                 serves zero-copy string_views. section_crc covers the
///                 column's null + data + arena bytes (padding excluded);
///                 dir_crc covers the directory bytes.
///   MANIFEST      "TPCDSCK3" | body | u32 crc(body); the body carries the
///                 dataset generation id and lists every table (name, row
///                 count, column names + types, table class, whole-file
///                 crc of its .col file). Written last via tmp + rename: a
///                 directory without a MANIFEST is not a checkpoint.
///
/// Two read paths share the format:
///   - LoadCheckpointFrom: deep load. Reads each file fully, verifies the
///     whole-file CRC against the manifest plus every section CRC, and
///     materialises heap columns. Crash recovery uses this path — any
///     corruption anywhere in the checkpoint yields kDataLoss.
///   - AttachCheckpointFrom: O(1) cold start. mmaps each file, verifies
///     header + directory CRC plus section bounds and alignment, and
///     points columns at the mapped sections without materialising
///     payloads (strings stay zero-copy). Payload bytes are trusted.
///
/// Fault sites: "ckpt-write" fires once per table file, "ckpt-manifest"
/// before the manifest is published.
Status SaveCheckpointTo(const Database& db, const std::string& dir);

/// Loads a checkpoint into `db`, which must be empty (deep, fully
/// CRC-verified path). Tables are created from the manifest schema; the
/// database adopts the manifest's generation id; indexes and zone maps
/// rebuild lazily.
Status LoadCheckpointFrom(Database* db, const std::string& dir);

/// Attaches a checkpoint into `db` (empty) via mmap — column payloads are
/// not materialised. See Database::AttachCheckpoint for the verification
/// contract.
Status AttachCheckpointFrom(Database* db, const std::string& dir);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_CHECKPOINT_H_
