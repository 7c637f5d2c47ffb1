// Tests for the per-column lightweight encodings (dictionary / RLE /
// frame-of-reference): the stats-pass eligibility rules, byte-exact
// round-trips through the accessors (NULLs, empty columns, single runs,
// max bit-width, dictionary overflow fallback), the encoded-literal scan
// kernels against the generic path, mutation-decodes-first semantics on
// owned and mapped encoded columns, and checkpoint persistence (deep load
// decodes to plain, attach maps encoded sections zero-copy).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/audit.h"
#include "engine/batch.h"
#include "engine/database.h"
#include "engine/table.h"
#include "temp_path.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

StorageColumn MakeIntColumn(const std::vector<std::string>& fields,
                            ColumnType type = ColumnType::kInteger) {
  StorageColumn c(type);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

StorageColumn MakeStrColumn(const std::vector<std::string>& fields) {
  StorageColumn c(ColumnType::kVarchar);
  for (const std::string& f : fields) EXPECT_TRUE(c.AppendParsed(f).ok());
  return c;
}

SelectionVector Identity(size_t n) {
  SelectionVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

/// Every logical observation of `got` must equal `want`: size, null mask,
/// and per-row Value (which exercises Str/Num through the accessors).
void ExpectSameContent(const StorageColumn& got, const StorageColumn& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got.IsNull(r), want.IsNull(r)) << "row " << r;
    EXPECT_EQ(Value::Compare(got.Get(r), want.Get(r)), 0) << "row " << r;
  }
}

// ---- eligibility + round-trip ------------------------------------------

TEST(EncodingTest, DictRoundTripWithNullsPreservesContent) {
  std::vector<std::string> fields;
  const char* channels[] = {"web", "store", "catalog"};
  for (int i = 0; i < 300; ++i) {
    fields.push_back(i % 7 == 0 ? "" : channels[i % 3]);  // "" = NULL
  }
  StorageColumn plain = MakeStrColumn(fields);
  StorageColumn col = MakeStrColumn(fields);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kDict);
  EXPECT_EQ(col.DictNdv(), 4u);  // "", catalog, store, web
  EXPECT_LT(col.PayloadByteSize(), col.PlainByteSize());
  ExpectSameContent(col, plain);
  // Sorted dictionary: code order is string order.
  for (uint32_t c = 1; c < col.DictNdv(); ++c) {
    EXPECT_LT(col.DictEntry(c - 1), col.DictEntry(c));
  }
}

TEST(EncodingTest, DictOverflowPastNdvCapFallsBackToPlain) {
  StorageColumn col(ColumnType::kVarchar);
  for (int i = 0; i < (1 << 16) + 10; ++i) {
    ASSERT_TRUE(col.AppendParsed("v" + std::to_string(i)).ok());
  }
  EXPECT_FALSE(col.Encode());
  EXPECT_EQ(col.encoding(), ColEncoding::kPlain);
}

TEST(EncodingTest, DictThatWouldNotShrinkStaysPlain) {
  // All-distinct strings: codes + dictionary + arena exceed the plain
  // offsets + arena representation, so the stats pass must refuse.
  StorageColumn col = MakeStrColumn({"aa", "bb", "cc"});
  EXPECT_FALSE(col.Encode());
  EXPECT_EQ(col.encoding(), ColEncoding::kPlain);
}

TEST(EncodingTest, RleRoundTripOnClusteredIntsWithNulls) {
  std::vector<std::string> fields;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 20; ++i) {
      fields.push_back(run == 2 && i < 3
                           ? ""
                           : StringPrintf("1998-01-%02d", run + 1));
    }
  }
  StorageColumn plain = MakeIntColumn(fields, ColumnType::kDate);
  StorageColumn col = MakeIntColumn(fields, ColumnType::kDate);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kRle);
  // NULL rows carry payload 0; the three at the head of run 2 form their
  // own run, so 5 date runs become 6.
  EXPECT_EQ(col.RleRuns(), 6u);
  EXPECT_LT(col.PayloadByteSize(), col.PlainByteSize());
  ExpectSameContent(col, plain);
}

TEST(EncodingTest, RleSingleRunColumn) {
  std::vector<std::string> fields(64, "42");
  StorageColumn plain = MakeIntColumn(fields);
  StorageColumn col = MakeIntColumn(fields);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kRle);
  EXPECT_EQ(col.RleRuns(), 1u);
  ExpectSameContent(col, plain);
}

TEST(EncodingTest, ForRoundTripOnDenseKeysIncludingNegatives) {
  std::vector<std::string> fields;
  for (int i = 0; i < 200; ++i) {
    fields.push_back(std::to_string((i % 2 == 0 ? -1 : 1) * (1000 + i)));
  }
  StorageColumn plain = MakeIntColumn(fields, ColumnType::kIdentifier);
  StorageColumn col = MakeIntColumn(fields, ColumnType::kIdentifier);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kFor);
  EXPECT_EQ(col.ForBase(), -1198);  // min payload
  EXPECT_LT(col.PayloadByteSize(), col.PlainByteSize());
  ExpectSameContent(col, plain);
}

TEST(EncodingTest, ForMaxBitWidthBoundary) {
  // Range 2^32 - 1 packs at the 32-bit cap; one wider must stay plain.
  // Alternating values keep RLE ineligible (runs == rows).
  std::vector<std::string> at_cap;
  std::vector<std::string> past_cap;
  for (int i = 0; i < 8; ++i) {
    at_cap.push_back(i % 2 == 0 ? "0" : "4294967295");
    past_cap.push_back(i % 2 == 0 ? "0" : "4294967296");
  }
  StorageColumn plain = MakeIntColumn(at_cap);
  StorageColumn col = MakeIntColumn(at_cap);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kFor);
  EXPECT_EQ(col.ForWidth(), 32u);
  ExpectSameContent(col, plain);

  StorageColumn wide = MakeIntColumn(past_cap);
  EXPECT_FALSE(wide.Encode());
  EXPECT_EQ(wide.encoding(), ColEncoding::kPlain);
}

TEST(EncodingTest, ZeroWidthForColumnDecodesToBase) {
  // A constant column is RLE's single-run case; force FOR's width-0 path
  // by alternating nulls (payload 0) with a constant... payload still has
  // two distinct values, so instead use runs shorter than the RLE minimum.
  std::vector<std::string> fields = {"7", "8", "7", "8", "7", "8"};
  StorageColumn col = MakeIntColumn(fields);
  StorageColumn plain = MakeIntColumn(fields);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kFor);
  EXPECT_EQ(col.ForWidth(), 1u);
  ExpectSameContent(col, plain);
}

TEST(EncodingTest, EmptyColumnStaysPlain) {
  StorageColumn num(ColumnType::kInteger);
  StorageColumn str(ColumnType::kVarchar);
  EXPECT_FALSE(num.Encode());
  EXPECT_FALSE(str.Encode());
  EXPECT_EQ(num.encoding(), ColEncoding::kPlain);
  EXPECT_EQ(str.encoding(), ColEncoding::kPlain);
}

// ---- encoded-literal kernels -------------------------------------------

/// Applies `kernel` through both paths — generic on the plain column,
/// prepared on the encoded one — and expects identical selections.
void ExpectKernelAgreement(const ScanKernel& kernel,
                           const StorageColumn& plain,
                           const StorageColumn& encoded,
                           const std::string& what) {
  SelectionVector expect = Identity(plain.size());
  ApplyScanKernel(kernel, plain, &expect);
  PreparedScanKernel prepared = PrepareScanKernel(kernel, encoded);
  SelectionVector got = Identity(encoded.size());
  ApplyPreparedScanKernel(prepared, encoded, &got);
  EXPECT_EQ(got, expect) << what;
}

TEST(EncodedKernelTest, DictCompareBecomesCodeRangeForEveryCmp) {
  std::vector<std::string> fields;
  const char* cats[] = {"Books", "Home", "Music", "Shoes", "Women"};
  for (int i = 0; i < 100; ++i) {
    fields.push_back(i % 11 == 0 ? "" : cats[i % 5]);
  }
  StorageColumn plain = MakeStrColumn(fields);
  StorageColumn encoded = MakeStrColumn(fields);
  ASSERT_TRUE(encoded.Encode());
  ASSERT_EQ(encoded.encoding(), ColEncoding::kDict);

  // Literals: present, absent-in-the-middle, below and above every entry.
  const char* literals[] = {"Music", "Jewelry", "", "zzz"};
  const ScanKernel::Cmp cmps[] = {ScanKernel::Cmp::kEq, ScanKernel::Cmp::kNe,
                                  ScanKernel::Cmp::kLt, ScanKernel::Cmp::kLe,
                                  ScanKernel::Cmp::kGt, ScanKernel::Cmp::kGe};
  for (const char* lit : literals) {
    for (ScanKernel::Cmp cmp : cmps) {
      ScanKernel k;
      k.kind = ScanKernel::Kind::kStrCompare;
      k.col = 0;
      k.cmp = cmp;
      k.str = lit;
      PreparedScanKernel p = PrepareScanKernel(k, encoded);
      EXPECT_EQ(p.mode, PreparedScanKernel::Mode::kCodeRange);
      ExpectKernelAgreement(
          k, plain, encoded,
          StringPrintf("cmp %d literal '%s'", static_cast<int>(cmp), lit));
    }
  }
}

TEST(EncodedKernelTest, DictInAndLikeBecomeCodeMasks) {
  std::vector<std::string> fields;
  const char* cats[] = {"ship", "shop", "stop", "top", "tip"};
  for (int i = 0; i < 80; ++i) {
    fields.push_back(i % 13 == 0 ? "" : cats[i % 5]);
  }
  StorageColumn plain = MakeStrColumn(fields);
  StorageColumn encoded = MakeStrColumn(fields);
  ASSERT_TRUE(encoded.Encode());

  for (bool negated : {false, true}) {
    ScanKernel in;
    in.kind = ScanKernel::Kind::kStrIn;
    in.col = 0;
    in.negated = negated;
    in.strs = {"absent", "shop", "tip"};  // sorted
    PreparedScanKernel p = PrepareScanKernel(in, encoded);
    EXPECT_EQ(p.mode, PreparedScanKernel::Mode::kCodeMask);
    ExpectKernelAgreement(in, plain, encoded,
                          negated ? "NOT IN" : "IN");

    ScanKernel like;
    like.kind = ScanKernel::Kind::kStrLike;
    like.col = 0;
    like.negated = negated;
    like.str = "sh%p";
    like.like_prefix = "sh";
    like.prefix_only = false;
    EXPECT_EQ(PrepareScanKernel(like, encoded).mode,
              PreparedScanKernel::Mode::kCodeMask);
    ExpectKernelAgreement(like, plain, encoded,
                          negated ? "NOT LIKE" : "LIKE");
  }
}

TEST(EncodedKernelTest, RleRangeSkipsWholeRunsAndAgreesWithGeneric) {
  std::vector<std::string> fields;
  for (int run = 0; run < 6; ++run) {
    for (int i = 0; i < 17; ++i) {
      fields.push_back(run == 3 && i == 5 ? "" : std::to_string(10 * run));
    }
  }
  StorageColumn plain = MakeIntColumn(fields);
  StorageColumn encoded = MakeIntColumn(fields);
  ASSERT_TRUE(encoded.Encode());
  ASSERT_EQ(encoded.encoding(), ColEncoding::kRle);

  struct Case {
    int64_t lo, hi;
    bool negated;
  };
  // Run-aligned, straddling, empty, and all-covering ranges; negated too.
  const Case cases[] = {{20, 40, false}, {20, 40, true},  {15, 15, false},
                        {-5, 100, false}, {-5, 100, true}, {50, 0, false},
                        {50, 0, true},    {0, 0, false}};
  for (const Case& tc : cases) {
    ScanKernel k;
    k.kind = ScanKernel::Kind::kIntRange;
    k.col = 0;
    k.lo = tc.lo;
    k.hi = tc.hi;
    k.negated = tc.negated;
    EXPECT_EQ(PrepareScanKernel(k, encoded).mode,
              PreparedScanKernel::Mode::kRleRuns);
    ExpectKernelAgreement(k, plain, encoded,
                          StringPrintf("[%lld, %lld] negated=%d",
                                       static_cast<long long>(tc.lo),
                                       static_cast<long long>(tc.hi),
                                       tc.negated));
  }
  ScanKernel in;
  in.kind = ScanKernel::Kind::kIntIn;
  in.col = 0;
  in.values = {0, 30, 99};
  for (bool negated : {false, true}) {
    in.negated = negated;
    ExpectKernelAgreement(in, plain, encoded, "rle IN");
  }
}

TEST(EncodedKernelTest, ForRangeShiftsBoundsWithSaturation) {
  std::vector<std::string> fields;
  for (int i = 0; i < 50; ++i) {
    fields.push_back(i % 9 == 0 ? "" : std::to_string(1'000'000 + i * 3));
  }
  StorageColumn plain = MakeIntColumn(fields, ColumnType::kIdentifier);
  StorageColumn encoded = MakeIntColumn(fields, ColumnType::kIdentifier);
  ASSERT_TRUE(encoded.Encode());
  ASSERT_EQ(encoded.encoding(), ColEncoding::kFor);

  struct Case {
    int64_t lo, hi;
    bool negated;
  };
  const Case cases[] = {
      {1'000'000, 1'000'060, false},
      {1'000'000, 1'000'060, true},
      // Bounds far outside the packed domain must saturate, not wrap —
      // note NULL payloads (0) sit below every real value here.
      {INT64_MIN, INT64_MAX, false},
      {INT64_MIN, INT64_MAX, true},
      {INT64_MIN, 999'999, false},
      {1'000'200, INT64_MAX, false},
      {1'000'200, INT64_MAX, true},
      {5, 3, false},  // empty
      {5, 3, true},
  };
  for (const Case& tc : cases) {
    ScanKernel k;
    k.kind = ScanKernel::Kind::kIntRange;
    k.col = 0;
    k.lo = tc.lo;
    k.hi = tc.hi;
    k.negated = tc.negated;
    EXPECT_EQ(PrepareScanKernel(k, encoded).mode,
              PreparedScanKernel::Mode::kForRange);
    ExpectKernelAgreement(k, plain, encoded,
                          StringPrintf("[%lld, %lld] negated=%d",
                                       static_cast<long long>(tc.lo),
                                       static_cast<long long>(tc.hi),
                                       tc.negated));
  }
}

TEST(EncodedKernelTest, PlainColumnPreparesAsGeneric) {
  StorageColumn col = MakeIntColumn({"1", "2", "3"});
  ScanKernel k;
  k.kind = ScanKernel::Kind::kIntRange;
  k.col = 0;
  k.lo = 2;
  k.hi = 3;
  PreparedScanKernel p = PrepareScanKernel(k, col);
  EXPECT_EQ(p.mode, PreparedScanKernel::Mode::kGeneric);
  SelectionVector sel = Identity(3);
  ApplyPreparedScanKernel(p, col, &sel);
  EXPECT_EQ(sel, (SelectionVector{1, 2}));
}

// ---- mutation decodes first --------------------------------------------

TEST(EncodingTest, AppendToOwnedEncodedColumnDecodesFirst) {
  std::vector<std::string> fields(40, "7");
  StorageColumn col = MakeIntColumn(fields);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kRle);
  ASSERT_TRUE(col.AppendValue(Value::Int(9)).ok());
  EXPECT_EQ(col.encoding(), ColEncoding::kPlain);
  ASSERT_EQ(col.size(), 41u);
  for (size_t r = 0; r < 40; ++r) EXPECT_EQ(col.Num(r), 7);
  EXPECT_EQ(col.Num(40), 9);
}

TEST(EncodingTest, SetOnOwnedEncodedDictColumnDecodesFirst) {
  std::vector<std::string> fields;
  for (int i = 0; i < 60; ++i) fields.push_back(i % 2 == 0 ? "on" : "off");
  StorageColumn col = MakeStrColumn(fields);
  ASSERT_TRUE(col.Encode());
  ASSERT_EQ(col.encoding(), ColEncoding::kDict);
  col.Set(3, Value::Str("maybe"));
  EXPECT_EQ(col.encoding(), ColEncoding::kPlain);
  EXPECT_EQ(col.Str(3), "maybe");
  EXPECT_EQ(col.Str(2), "on");
  EXPECT_EQ(col.Str(5), "off");
}

/// Regression for the stale-payload class of bug: mutating a *mapped
/// encoded* column must decode the mapped sections before copy-on-write,
/// or the owned vectors would be installed empty/stale. The oracle is the
/// (representation-independent) content hash against a heap-plain table
/// that saw the same mutations.
TEST(EncodingTest, MutatingMappedEncodedColumnDecodesBeforeCow) {
  const std::string dir = ProcessTempPath("enc_mut_ckpt");
  std::filesystem::remove_all(dir);

  auto build = [](Database* db) {
    ASSERT_TRUE(db->CreateTable("t", {{"k", ColumnType::kIdentifier},
                                      {"flag", ColumnType::kChar},
                                      {"d", ColumnType::kDate}})
                    .ok());
    EngineTable* t = db->FindTable("t");
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(t->AppendRowStrings({std::to_string(1000 + i),
                                       i % 2 == 0 ? "Y" : "N",
                                       StringPrintf("1998-02-%02d",
                                                    1 + i / 100)})
                      .ok());
    }
  };

  Database heap;
  build(&heap);

  Database encoded;
  build(&encoded);
  ASSERT_GE(encoded.EncodeStorage(), 3u);  // k=FOR, flag=dict, d=RLE
  ASSERT_TRUE(encoded.SaveCheckpoint(dir).ok());
  Database attached;
  ASSERT_TRUE(attached.AttachCheckpoint(dir).ok());
  for (size_t c = 0; c < 3; ++c) {
    ASSERT_NE(attached.FindTable("t")->column(c).encoding(),
              ColEncoding::kPlain)
        << "column " << c << " should attach encoded";
  }

  auto mutate = [](Database* db) {
    EngineTable* t = db->FindTable("t");
    t->SetValue(10, 1, Value::Str("X"));
    t->SetValue(499, 0, Value::Int(99));
    ASSERT_TRUE(
        t->AppendRowStrings({"2000", "Y", "1998-03-01"}).ok());
  };
  mutate(&heap);
  mutate(&attached);

  EXPECT_EQ(HashTableContent(*attached.FindTable("t")),
            HashTableContent(*heap.FindTable("t")));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(attached.FindTable("t")->column(c).encoding(),
              ColEncoding::kPlain);
  }
  std::filesystem::remove_all(dir);
}

// ---- checkpoint persistence --------------------------------------------

class EncodedCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ProcessTempPath("enc_ckpt");
    std::filesystem::remove_all(dir_);
    BuildSource();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void BuildSource() {
    ASSERT_TRUE(source_.CreateTable("s", {{"sk", ColumnType::kIdentifier},
                                          {"channel", ColumnType::kChar},
                                          {"sold", ColumnType::kDate},
                                          {"price", ColumnType::kDecimal}})
                    .ok());
    EngineTable* t = source_.FindTable("s");
    const char* channels[] = {"web", "store", "catalog"};
    for (int i = 0; i < 1200; ++i) {
      std::vector<std::string> row = {
          std::to_string(500'000 + i), channels[i % 3],
          StringPrintf("1999-01-%02d", 1 + i / 200), "12.34"};
      if (i % 37 == 0) row[1] = "";  // NULL channel
      if (i % 53 == 0) row[2] = "";  // NULL date
      ASSERT_TRUE(t->AppendRowStrings(row).ok());
    }
    hash_plain_ = HashTableContent(*t);
    ASSERT_GE(source_.EncodeStorage(), 3u);
    // Encoding itself is content-neutral.
    ASSERT_EQ(HashTableContent(*source_.FindTable("s")), hash_plain_);
    ASSERT_TRUE(source_.SaveCheckpoint(dir_).ok());
  }

  Database source_;
  std::string dir_;
  uint64_t hash_plain_ = 0;
};

TEST_F(EncodedCheckpointTest, DeepLoadDecodesToPlainAndVerifies) {
  Database loaded;
  ASSERT_TRUE(loaded.LoadCheckpoint(dir_).ok());
  const EngineTable* t = loaded.FindTable("s");
  ASSERT_NE(t, nullptr);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    EXPECT_EQ(t->column(c).encoding(), ColEncoding::kPlain) << "col " << c;
  }
  EXPECT_EQ(HashTableContent(*t), hash_plain_);
}

TEST_F(EncodedCheckpointTest, AttachMapsEncodedSectionsZeroCopy) {
  Database attached;
  ASSERT_TRUE(attached.AttachCheckpoint(dir_).ok());
  const EngineTable* t = attached.FindTable("s");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->column(0).encoding(), ColEncoding::kFor);
  EXPECT_EQ(t->column(1).encoding(), ColEncoding::kDict);
  EXPECT_EQ(t->column(2).encoding(), ColEncoding::kRle);
  EXPECT_EQ(HashTableContent(*t), hash_plain_);

  // Encoded execution answers identically to the plain source.
  const std::string sql =
      "SELECT channel, COUNT(*), MIN(sk) FROM s "
      "WHERE sold >= '1999-01-03' AND channel <> 'store' "
      "GROUP BY channel ORDER BY channel";
  Result<QueryResult> want = source_.Query(sql);
  Result<QueryResult> got = attached.Query(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ToCsv(), want->ToCsv());
}

TEST_F(EncodedCheckpointTest, CorruptEncodedSectionFailsDeepLoadCleanly) {
  // Flip one byte inside the table file body (past header + directory):
  // deep load must report kDataLoss, not crash or silently decode junk.
  const std::string path = dir_ + "/s.col";
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 4096u);
  bytes[bytes.size() - 17] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  Database loaded;
  Status st = loaded.LoadCheckpoint(dir_);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST(EncodingStatsTest, ExplainReportsBytesTouchedAndEncodingShrinks) {
  Database db;
  ASSERT_TRUE(db.CreateTable("f", {{"k", ColumnType::kIdentifier},
                                   {"v", ColumnType::kInteger}})
                  .ok());
  EngineTable* t = db.FindTable("f");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t->AppendRowStrings(
                     {std::to_string(i), std::to_string(i % 10)})
                    .ok());
  }
  const std::string sql = "SELECT COUNT(*) FROM f WHERE k BETWEEN 10 AND 90";
  ExecStats plain_stats;
  ASSERT_TRUE(db.Query(sql, db.default_options(), &plain_stats).ok());
  EXPECT_GT(plain_stats.bytes_touched, 0);

  ASSERT_GE(db.EncodeStorage(), 1u);
  Database::CompressionStats cs = db.TableCompression("f");
  EXPECT_GT(cs.ratio, 1.0);
  EXPECT_LT(cs.encoded_bytes, cs.plain_bytes);

  ExecStats enc_stats;
  ASSERT_TRUE(db.Query(sql, db.default_options(), &enc_stats).ok());
  EXPECT_GT(enc_stats.bytes_touched, 0);
  EXPECT_LT(enc_stats.bytes_touched, plain_stats.bytes_touched);

  Result<std::string> explain = db.Explain(sql);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("bytes touched"), std::string::npos) << *explain;
}

}  // namespace
}  // namespace tpcds
