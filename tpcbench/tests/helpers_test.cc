// Tests of the benchmark's own helpers: span self-time subtraction, the
// ten-beyond percentile rule, quartiles, answer-digest normalization, and
// the calibration that brings times to reference speed.
// Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "calibration.h"
#include "digest.h"
#include "sample_stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

tpcbench::Span MakeSpan(int64_t id, int64_t parent, const char* name,
                        double start, double end) {
  tpcbench::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  return s;
}

void TestSelfTimeNested() {
  // root [0,10] > stmt [1,9] > parse [1,2], exec [2,8] > nothing.
  std::vector<tpcbench::Span> spans = {
      MakeSpan(1, 0, "unit.sweep", 0, 10),
      MakeSpan(2, 1, "statement", 1, 9),
      MakeSpan(3, 2, "parser.parse", 1, 2),
      MakeSpan(4, 2, "executor.exec", 2, 8),
  };
  auto self = tpcbench::SelfTimeByRoot(spans);
  EXPECT(self.size() == 1);
  auto& by_name = self[1];
  EXPECT(Near(by_name["unit.sweep"], 2.0));   // 10 - 8 covered by stmt
  EXPECT(Near(by_name["statement"], 1.0));    // 8 - (1 + 6)
  EXPECT(Near(by_name["parser.parse"], 1.0));
  EXPECT(Near(by_name["executor.exec"], 6.0));
  double total = 0.0;
  for (const auto& [name, t] : by_name) total += t;
  EXPECT(Near(total, 10.0));  // self times partition a serial root
}

void TestSelfTimeConcurrentChildren() {
  // Three streams under one root overlap; the root's covered part is the
  // union [1,7], not the sum.
  std::vector<tpcbench::Span> spans = {
      MakeSpan(1, 0, "unit.query_run", 0, 8),
      MakeSpan(2, 1, "statement", 1, 5),
      MakeSpan(3, 1, "statement", 2, 6),
      MakeSpan(4, 1, "statement", 4, 7),
      // A child sticking out of its parent is clipped to it.
      MakeSpan(5, 0, "unit.dm_cycle", 10, 12),
      MakeSpan(6, 5, "maintenance.stats", 11, 13),
  };
  auto self = tpcbench::SelfTimeByRoot(spans);
  EXPECT(Near(self[1]["unit.query_run"], 2.0));
  EXPECT(Near(self[1]["statement"], 4.0 + 4.0 + 3.0));
  EXPECT(Near(self[5]["unit.dm_cycle"], 1.0));
  EXPECT(Near(self[5]["maintenance.stats"], 2.0));
  EXPECT(tpcbench::IsLayerSpan("maintenance.stats"));
  EXPECT(!tpcbench::IsLayerSpan("statement"));
  EXPECT(!tpcbench::IsLayerSpan("unit.sweep"));
}

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 199; ++i) v.push_back(i);
  // 199 samples: p95 has nearest rank 190, only 9 beyond -> refused.
  EXPECT(!tpcbench::TailPercentile(v, 0.95).has_value());
  v.push_back(200);
  // 200 samples: rank 190, exactly 10 beyond -> reported.
  auto p95 = tpcbench::TailPercentile(v, 0.95);
  EXPECT(p95.has_value() && Near(*p95, 190.0));
  // p99 of 200 has 2 beyond -> refused; with the rule off it is reported.
  EXPECT(!tpcbench::TailPercentile(v, 0.99).has_value());
  auto p99 = tpcbench::TailPercentile(v, 0.99, 0);
  EXPECT(p99.has_value() && Near(*p99, 198.0));
  EXPECT(!tpcbench::TailPercentile({}, 0.5).has_value());
}

void TestMedianAndQuartiles() {
  EXPECT(Near(tpcbench::Median({3, 1, 2}), 2.0));
  EXPECT(Near(tpcbench::Median({4, 1, 3, 2}), 2.5));
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  tpcbench::Quartiles q = tpcbench::QuartilesOf(v);
  EXPECT(Near(q.q1, 2.75));
  EXPECT(Near(q.q3, 8.25));
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  q = tpcbench::QuartilesOf({1, 2, 3});
  EXPECT(Near(q.q1, 1.0));
  EXPECT(Near(q.q3, 3.0));
  q = tpcbench::QuartilesOf({7});
  EXPECT(Near(q.q1, 7.0) && Near(q.q3, 7.0));
}

void TestDigestNormalization() {
  using tpcds::Value;
  // Decimals are exact cents; doubles round to nine significant digits
  // and fold signed zero; the kind prefix keeps 1 and "1" apart.
  EXPECT(tpcbench::NormalizeValue(Value::Dec(tpcds::Decimal::FromCents(1234))) ==
         "d1234");
  EXPECT(tpcbench::NormalizeValue(Value::Dbl(0.1 + 0.2)) ==
         tpcbench::NormalizeValue(Value::Dbl(0.3)));
  EXPECT(tpcbench::NormalizeValue(Value::Dbl(-0.0)) ==
         tpcbench::NormalizeValue(Value::Dbl(0.0)));
  EXPECT(tpcbench::NormalizeValue(Value::Dbl(1.0)) !=
         tpcbench::NormalizeValue(Value::Dbl(1.0001)));
  EXPECT(tpcbench::NormalizeValue(Value::Int(1)) !=
         tpcbench::NormalizeValue(Value::Str("1")));
  EXPECT(tpcbench::NormalizeValue(Value::Null()) == "N");

  std::vector<std::vector<Value>> a = {{Value::Int(1), Value::Str("x")},
                                       {Value::Int(2), Value::Str("y")}};
  std::vector<std::vector<Value>> b = {a[1], a[0]};
  using tpcbench::DigestKind;
  using tpcbench::DigestRows;
  // Set digests ignore order, ordered digests do not, counts keep rows.
  EXPECT(DigestRows(a, DigestKind::kSet) == DigestRows(b, DigestKind::kSet));
  EXPECT(!(DigestRows(a, DigestKind::kOrdered) ==
           DigestRows(b, DigestKind::kOrdered)));
  EXPECT(DigestRows(a, DigestKind::kCount).rows == 2);
  EXPECT(DigestRows(a, DigestKind::kCount).hash == 0);
  // Row boundaries matter: ("ab") differs from ("a", "b").
  std::vector<std::vector<Value>> one = {{Value::Str("ab")}};
  std::vector<std::vector<Value>> two = {{Value::Str("a"), Value::Str("b")}};
  EXPECT(!(DigestRows(one, DigestKind::kSet) ==
           DigestRows(two, DigestKind::kSet)));

  tpcbench::ExpectedAnswer expected{DigestKind::kSet,
                                    DigestRows(a, DigestKind::kSet)};
  EXPECT(tpcbench::CompareAnswer(expected, b).empty());
  EXPECT(!tpcbench::CompareAnswer(expected, one).empty());
  tpcbench::ExpectedAnswer count_only{DigestKind::kCount,
                                      DigestRows(a, DigestKind::kCount)};
  std::vector<std::vector<Value>> other = {{Value::Int(9)}, {Value::Int(8)}};
  EXPECT(tpcbench::CompareAnswer(count_only, other).empty());
}

}  // namespace

void TestCalibration() {
  using tpcbench::Calibration;
  // A slice twice as slow as the reference halves the factor.
  EXPECT(Near(Calibration::Factor(Calibration::kReferenceSliceS), 1.0));
  EXPECT(Near(Calibration::Factor(2.0 * Calibration::kReferenceSliceS), 0.5));
  EXPECT(Near(Calibration::Factor(0.0), 1.0));
  Calibration cal;
  double slice = cal.Slice();
  EXPECT(slice > 0.0 && slice < 1.0);
  // A sampler stopped before its first slice still reports one.
  tpcbench::SliceSampler sampler(cal);
  double median = sampler.Stop();
  EXPECT(median > 0.0 && median < 1.0);
  EXPECT(Near(sampler.Stop(), median));  // stopping twice is harmless
  double factor = tpcbench::Sampled(cal, [] {});
  EXPECT(factor > 0.0);
}

int main() {
  TestSelfTimeNested();
  TestSelfTimeConcurrentChildren();
  TestTailPercentile();
  TestMedianAndQuartiles();
  TestDigestNormalization();
  TestCalibration();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("tpcbench helper tests passed\n");
  return 0;
}
