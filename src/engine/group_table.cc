#include "engine/group_table.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>

namespace tpcds {

namespace {

const std::vector<PlanAggSpec> kNoAggs;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

// ------------------------------------------------------------------ cells

double Cell::AsDouble() const {
  switch (kind) {
    case Value::Kind::kInt:
    case Value::Kind::kDate: return static_cast<double>(word);
    case Value::Kind::kDecimal:
      return static_cast<double>(word) / Decimal::kScale;
    case Value::Kind::kDouble: return std::bit_cast<double>(word);
    default: return 0.0;
  }
}

Value Cell::ToValue() const {
  switch (kind) {
    case Value::Kind::kNull: return Value::Null();
    case Value::Kind::kInt: return Value::Int(word);
    case Value::Kind::kDecimal: return Value::Dec(Decimal::FromCents(word));
    case Value::Kind::kDouble: return Value::Dbl(std::bit_cast<double>(word));
    case Value::Kind::kDate:
      return Value::Dt(Date(static_cast<int32_t>(word)));
    case Value::Kind::kString: return Value::Str(std::string(str));
  }
  return Value::Null();
}

int CompareCells(const Cell& a, const Cell& b) {
  using K = Value::Kind;
  if (a.kind == K::kString && b.kind == K::kString) {
    int c = a.str.compare(b.str);
    return c < 0 ? -1 : (c == 0 ? 0 : 1);
  }
  // Date vs string: parse the string as a date literal.
  if (a.kind == K::kDate && b.kind == K::kString) {
    Result<Date> d = Date::Parse(std::string(b.str));
    if (d.ok()) return CompareDoubles(a.AsDouble(), d.ValueOrDie().jdn());
    return -1;
  }
  if (a.kind == K::kString && b.kind == K::kDate) return -CompareCells(b, a);
  if (a.kind == b.kind &&
      (a.kind == K::kInt || a.kind == K::kDecimal || a.kind == K::kDate)) {
    return a.word < b.word ? -1 : (a.word == b.word ? 0 : 1);
  }
  return CompareDoubles(a.AsDouble(), b.AsDouble());
}

uint64_t KeyCell::Hash() const {
  if (cls == KeyClass::kString) {
    return Mix(std::hash<std::string_view>()(cell.str));
  }
  return Mix(static_cast<uint64_t>(eq) +
             0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(cls));
}

uint64_t HashKey(const KeyCell* key, size_t n) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ key[i].Hash());
  return h;
}

KeyCell DateKeyed(const KeyCell& k) {
  if (k.cls != KeyClass::kString) return k;
  // Date::Parse reads "%d-%d-%d": a string with no integer ahead of a
  // '-' names no date, and is passed over without building its error.
  std::string_view s = k.cell.str;
  size_t i = s.find_first_not_of(" \t\n\v\f\r");
  if (i == std::string_view::npos ||
      !(std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '+' ||
        s[i] == '-') ||
      s.find('-', i + 1) == std::string_view::npos) {
    return k;
  }
  Result<Date> d = Date::Parse(std::string(s));
  if (!d.ok()) return k;
  return KeyCell::Of(Cell::Word(Value::Kind::kDate, d.ValueOrDie().jdn()));
}

std::string_view StringArena::Copy(std::string_view s) {
  if (s.empty()) return {};
  if (blocks_.empty() || used_ + s.size() > capacity_) {
    capacity_ = std::max<size_t>(4096, s.size());
    blocks_.push_back(std::make_unique<char[]>(capacity_));
    used_ = 0;
  }
  char* p = blocks_.back().get() + used_;
  std::memcpy(p, s.data(), s.size());
  used_ += s.size();
  return {p, s.size()};
}

void StringArena::Adopt(StringArena* other) {
  // Ahead of the block this arena still fills.
  blocks_.insert(blocks_.begin(),
                 std::make_move_iterator(other->blocks_.begin()),
                 std::make_move_iterator(other->blocks_.end()));
  other->blocks_.clear();
  other->used_ = other->capacity_ = 0;
}

// ------------------------------------------------------------ group table

void GroupTable::Index::Rehash(size_t capacity,
                               const std::vector<uint64_t>& hashes) {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(capacity, kNone);
  mask_ = capacity - 1;
  for (uint32_t id : old) {
    if (id == kNone) continue;
    size_t i = static_cast<size_t>(hashes[id]) & mask_;
    while (slots_[i] != kNone) i = (i + 1) & mask_;
    slots_[i] = id;
  }
}

GroupTable::Fn GroupTable::FunctionOf(const PlanAggSpec& spec) {
  const std::string& f = spec.function;
  if (f == "COUNT") return Fn::kCount;
  if (f == "SUM") return Fn::kSum;
  if (f == "AVG") return Fn::kAvg;
  if (f == "MIN") return Fn::kMin;
  if (f == "MAX") return Fn::kMax;
  if (f == "STDDEV_SAMP") return Fn::kStddev;
  return Fn::kOther;
}

GroupTable::GroupTable(size_t nkeys)
    : GroupTable(&kNoAggs, nkeys, false) {}

GroupTable::GroupTable(const std::vector<PlanAggSpec>* aggs, size_t nkeys,
                       bool record)
    : specs_(aggs), nkeys_(nkeys), record_(record) {
  group_bytes_ = nkeys * sizeof(KeyCell) + 2 * sizeof(uint64_t) +
                 2 * sizeof(uint32_t);
  aggs_.resize(aggs->size());
  for (size_t a = 0; a < aggs->size(); ++a) {
    Agg& agg = aggs_[a];
    agg.spec = &(*aggs)[a];
    agg.fn = FunctionOf(*agg.spec);
    agg.distinct = agg.spec->distinct && !agg.spec->star;
    agg.sums = !agg.distinct && (agg.fn == Fn::kSum || agg.fn == Fn::kAvg ||
                                 agg.fn == Fn::kStddev);
    agg.squares = agg.sums && agg.fn == Fn::kStddev;
    has_open_ |= agg.sums;
    sums_per_partial_ += agg.sums ? (agg.squares ? 2 : 1) : 0;
    group_bytes_ += sizeof(int64_t) * 3 + 1 +
                    (agg.sums ? 2 : 0) * sizeof(double) * 2 +
                    (agg.fn == Fn::kMin || agg.fn == Fn::kMax
                         ? sizeof(Cell) + sizeof(uint64_t)
                         : 0);
  }
}

bool GroupTable::Holds(uint32_t g, const KeyCell* key, uint64_t h) const {
  if (hashes_[g] != h) return false;
  const KeyCell* k = &keys_[g * nkeys_];
  for (size_t i = 0; i < nkeys_; ++i) {
    if (!(k[i] == key[i])) return false;
  }
  return true;
}

uint32_t GroupTable::Find(const KeyCell* key, uint64_t h) const {
  return index_.Find(h, [&](uint32_t g) { return Holds(g, key, h); });
}

uint32_t GroupTable::FindOrAdd(const KeyCell* key, uint64_t h, uint64_t row,
                               bool stable, bool* created) {
  uint32_t* slot =
      index_.Locate(h, [&](uint32_t g) { return Holds(g, key, h); });
  if (*slot != kNone) {
    *created = false;
    return *slot;
  }
  uint32_t g = static_cast<uint32_t>(size());
  *slot = g;
  for (size_t i = 0; i < nkeys_; ++i) {
    keys_.push_back(key[i]);
    if (!stable && key[i].cls == KeyClass::kString) {
      keys_.back().cell.str = arena_.Copy(key[i].cell.str);
    }
  }
  hashes_.push_back(h);
  first_row_.push_back(row);
  if (has_open_) open_morsel_.push_back(kNone);
  for (Agg& agg : aggs_) {
    agg.count.push_back(0);
    if (agg.distinct || agg.fn == Fn::kSum) agg.saw.push_back(0);
    if (agg.fn == Fn::kSum && !agg.distinct) {
      agg.ints.push_back(0);
      agg.cents.push_back(0);
    }
    if (agg.sums) {
      agg.sum.push_back(0.0);
      agg.open_sum.push_back(0.0);
    }
    if (agg.squares) {
      agg.sq.push_back(0.0);
      agg.open_sq.push_back(0.0);
    }
    if (!agg.distinct && (agg.fn == Fn::kMin || agg.fn == Fn::kMax)) {
      agg.best.emplace_back();
      agg.best_row.push_back(0);
    }
  }
  index_.Added(hashes_);
  *created = true;
  return g;
}

void GroupTable::Close(uint32_t g) {
  if (record_) {
    closed_group_.push_back(g);
    closed_morsel_.push_back(open_morsel_[g]);
  }
  for (Agg& agg : aggs_) {
    if (!agg.sums) continue;
    // The total starts at +0.0 and a row-order partial is never -0.0, so
    // adding the first partial adopts it bit for bit.
    if (record_) {
      closed_sums_.push_back(agg.open_sum[g]);
      if (agg.squares) closed_sums_.push_back(agg.open_sq[g]);
    } else {
      agg.sum[g] += agg.open_sum[g];
      if (agg.squares) agg.sq[g] += agg.open_sq[g];
    }
    agg.open_sum[g] = 0.0;
    if (agg.squares) agg.open_sq[g] = 0.0;
  }
}

void GroupTable::CloseAll() {
  if (!has_open_) return;
  for (uint32_t g = 0; g < open_morsel_.size(); ++g) {
    if (open_morsel_[g] == kNone) continue;
    Close(g);
    open_morsel_[g] = kNone;
  }
}

void GroupTable::Add(size_t a, uint32_t g, const Cell& v, uint64_t row,
                     bool stable) {
  Agg& agg = aggs_[a];
  if (agg.spec->star) {
    ++agg.count[g];
    return;
  }
  if (v.is_null()) return;
  if (agg.distinct) {
    AddDistinct(agg, g, KeyCell::Of(v), row, stable, false);
    return;
  }
  switch (agg.fn) {
    case Fn::kCount:
      ++agg.count[g];
      return;
    case Fn::kSum:
      ++agg.count[g];
      agg.open_sum[g] += v.AsDouble();
      if (v.kind == Value::Kind::kDecimal) {
        agg.cents[g] += v.word;
        agg.saw[g] |= kSawDecimal;
      } else if (v.kind == Value::Kind::kInt) {
        agg.ints[g] += v.word;
      } else {
        agg.saw[g] |= kSawDouble;
      }
      return;
    case Fn::kAvg:
      ++agg.count[g];
      agg.open_sum[g] += v.AsDouble();
      return;
    case Fn::kStddev: {
      ++agg.count[g];
      double d = v.AsDouble();
      agg.open_sum[g] += d;
      agg.open_sq[g] += d * d;
      return;
    }
    case Fn::kMin:
    case Fn::kMax: {
      Cell& best = agg.best[g];
      if (!best.is_null()) {
        int c = CompareCells(v, best);
        if (agg.fn == Fn::kMin ? c >= 0 : c <= 0) return;
      }
      best = v;
      if (!stable && v.kind == Value::Kind::kString) {
        best.str = arena_.Copy(v.str);
      }
      agg.best_row[g] = row;
      return;
    }
    case Fn::kOther:
      return;
  }
}

void GroupTable::AddDistinct(Agg& agg, uint32_t g, const KeyCell& key,
                             uint64_t row, bool stable, bool by_row) {
  uint64_t h = Mix(key.Hash() ^ (0x9E3779B97F4A7C15ULL * (g + 1ULL)));
  uint32_t* slot = agg.entry_index.Locate(h, [&](uint32_t e) {
    const DistinctEntry& entry = agg.entries[e];
    return agg.entry_hashes[e] == h && entry.group == g && entry.key == key;
  });
  DistinctEntry* entry;
  if (*slot != kNone) {
    entry = &agg.entries[*slot];
    if (!by_row || row >= entry->row) return;
    entry->key = key;
    entry->row = row;
  } else {
    *slot = static_cast<uint32_t>(agg.entries.size());
    agg.entries.push_back({g, key, row});
    agg.entry_hashes.push_back(h);
    agg.entry_index.Added(agg.entry_hashes);
    ++agg.count[g];
    if (key.cell.kind == Value::Kind::kDate) agg.saw[g] |= kSawDate;
    if (key.cls == KeyClass::kString) agg.saw[g] |= kSawString;
    entry = &agg.entries.back();
  }
  if (!stable && key.cls == KeyClass::kString) {
    entry->key.cell.str = arena_.Copy(key.cell.str);
  }
}

void GroupTable::Merge(uint32_t g, const GroupTable& src, uint32_t sg,
                       bool open, bool by_row) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    Agg& d = aggs_[a];
    const Agg& s = src.aggs_[a];
    if (d.distinct) continue;
    d.count[g] += s.count[sg];
    if (d.fn == Fn::kSum) {
      d.ints[g] += s.ints[sg];
      d.cents[g] += s.cents[sg];
      d.saw[g] |= s.saw[sg];
    }
    if (d.sums) {
      (open ? d.open_sum : d.sum)[g] += s.sum[sg];
      if (d.squares) (open ? d.open_sq : d.sq)[g] += s.sq[sg];
    }
    if (d.fn == Fn::kMin || d.fn == Fn::kMax) {
      const Cell& b = s.best[sg];
      if (b.is_null()) continue;
      Cell& best = d.best[g];
      if (!best.is_null()) {
        int c = CompareCells(b, best);
        if (d.fn == Fn::kMax) c = -c;
        if (c > 0 || (c == 0 && (!by_row || s.best_row[sg] >= d.best_row[g]))) {
          continue;
        }
      }
      best = b;
      d.best_row[g] = s.best_row[sg];
    }
  }
}

void GroupTable::MergeDistinct(const GroupTable& src,
                               const std::vector<uint32_t>& map,
                               bool by_row) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (!aggs_[a].distinct) continue;
    for (const DistinctEntry& e : src.aggs_[a].entries) {
      uint32_t g = map[e.group];
      if (g != kNone) AddDistinct(aggs_[a], g, e.key, e.row, true, by_row);
    }
  }
}

void GroupTable::FoldRecorded(
    const std::vector<const GroupTable*>& srcs,
    const std::vector<std::vector<uint32_t>>& maps) {
  struct Partial {
    uint32_t group;
    uint32_t morsel;
    const double* sums;
  };
  std::vector<Partial> partials;
  for (size_t w = 0; w < srcs.size(); ++w) {
    const GroupTable& src = *srcs[w];
    for (size_t i = 0; i < src.closed_group_.size(); ++i) {
      partials.push_back({maps[w][src.closed_group_[i]],
                          src.closed_morsel_[i],
                          &src.closed_sums_[i * sums_per_partial_]});
    }
  }
  // A group's partial of a morsel is closed once, by the worker that ran
  // the morsel, so (group, morsel) orders the partials totally.
  std::sort(partials.begin(), partials.end(),
            [](const Partial& a, const Partial& b) {
              return a.group != b.group ? a.group < b.group
                                        : a.morsel < b.morsel;
            });
  for (const Partial& p : partials) {
    const double* v = p.sums;
    for (Agg& agg : aggs_) {
      if (!agg.sums) continue;
      agg.sum[p.group] += *v++;
      if (agg.squares) agg.sq[p.group] += *v++;
    }
  }
}

GroupTable GroupTable::Combine(const std::vector<GroupTable*>& tables,
                               const std::vector<PlanAggSpec>* aggs,
                               size_t nkeys) {
  for (GroupTable* t : tables) t->CloseAll();
  if (tables.size() == 1 && !tables[0]->record_) return std::move(*tables[0]);
  GroupTable out(aggs, nkeys, false);
  // A worker creates its groups in ascending first-seen row, so merging
  // the tables by first-seen row meets every key first where the serial
  // run first saw it: the result numbers its groups in that order and
  // keeps that row's key.
  std::vector<std::vector<uint32_t>> maps(tables.size());
  std::vector<uint32_t> next(tables.size(), 0);
  for (;;) {
    size_t w = tables.size();
    for (size_t t = 0; t < tables.size(); ++t) {
      if (next[t] == tables[t]->size()) continue;
      if (w == tables.size() ||
          tables[t]->first_row(next[t]) < tables[w]->first_row(next[w])) {
        w = t;
      }
    }
    if (w == tables.size()) break;
    const GroupTable& src = *tables[w];
    uint32_t sg = next[w]++;
    bool created = false;
    uint32_t g = out.FindOrAdd(src.key(sg), src.hash(sg), src.first_row(sg),
                               true, &created);
    out.Merge(g, src, sg, /*open=*/false, /*by_row=*/true);
    maps[w].push_back(g);
  }
  std::vector<const GroupTable*> srcs(tables.begin(), tables.end());
  for (size_t w = 0; w < tables.size(); ++w) {
    out.MergeDistinct(*tables[w], maps[w], /*by_row=*/true);
    out.arena_.Adopt(&tables[w]->arena_);
  }
  out.FoldRecorded(srcs, maps);
  return out;
}

void GroupTable::FoldDateKeyedGroups() {
  if (nkeys_ == 0) return;
  std::vector<KeyKinds> kinds(nkeys_);
  for (size_t i = 0; i < keys_.size(); ++i) {
    kinds[i % nkeys_].Add(keys_[i].cell);
  }
  if (std::none_of(kinds.begin(), kinds.end(),
                   [](const KeyKinds& k) { return k.mixed(); })) {
    return;
  }
  GroupTable first(nkeys_);  // groups by date-keyed key
  GroupTable folded(specs_, nkeys_, false);
  std::vector<uint32_t> map(size());
  std::vector<KeyCell> keyed(nkeys_);
  for (uint32_t g = 0; g < size(); ++g) {
    for (size_t k = 0; k < nkeys_; ++k) {
      keyed[k] = kinds[k].mixed() ? DateKeyed(key(g)[k]) : key(g)[k];
    }
    bool created = false;
    map[g] = first.FindOrAdd(keyed.data(), HashKey(keyed.data(), nkeys_),
                             first_row(g), true, &created);
    if (created) {
      folded.FindOrAdd(key(g), hash(g), first_row(g), true, &created);
    }
    folded.Merge(map[g], *this, g, false, false);
  }
  folded.MergeDistinct(*this, map, false);
  folded.arena_.Adopt(&arena_);
  *this = std::move(folded);
}

std::vector<Cell> GroupTable::DistinctValues(const Agg& agg,
                                             uint32_t g) const {
  std::vector<const DistinctEntry*> mine;
  for (const DistinctEntry& e : agg.entries) {
    if (e.group == g) mine.push_back(&e);
  }
  // First-seen order: the same at any parallelism.
  std::sort(mine.begin(), mine.end(),
            [](const DistinctEntry* a, const DistinctEntry* b) {
              return a->row < b->row;
            });
  bool rekey = (agg.saw[g] & kSawDate) && (agg.saw[g] & kSawString);
  std::vector<Cell> values;
  std::vector<KeyCell> seen;
  for (const DistinctEntry* e : mine) {
    KeyCell k = rekey ? DateKeyed(e->key) : e->key;
    if (rekey && std::find(seen.begin(), seen.end(), k) != seen.end()) {
      continue;
    }
    seen.push_back(k);
    values.push_back(k.cell);
  }
  return values;
}

Value GroupTable::Finalize(size_t a, uint32_t g) const {
  const Agg& agg = aggs_[a];
  if (agg.spec->star) return Value::Int(agg.count[g]);
  Fn fn = agg.fn;
  int64_t count = agg.count[g];
  int64_t ints = 0;
  int64_t cents = 0;
  uint8_t saw = 0;
  double sum = 0.0;
  double sq = 0.0;
  Cell min;
  Cell max;
  if (agg.distinct) {
    bool mixed = (agg.saw[g] & kSawDate) && (agg.saw[g] & kSawString);
    if (fn == Fn::kCount && !mixed) return Value::Int(count);
    // Every function over the distinct values, in first-seen order.
    std::vector<Cell> values = DistinctValues(agg, g);
    count = static_cast<int64_t>(values.size());
    for (const Cell& v : values) {
      double d = v.AsDouble();
      sum += d;
      sq += d * d;
      if (v.kind == Value::Kind::kDecimal) {
        cents += v.word;
        saw |= kSawDecimal;
      } else if (v.kind == Value::Kind::kInt) {
        ints += v.word;
      } else {
        saw |= kSawDouble;
      }
      if (min.is_null() || CompareCells(v, min) < 0) min = v;
      if (max.is_null() || CompareCells(v, max) > 0) max = v;
    }
    if (fn == Fn::kMin) return min.ToValue();
    if (fn == Fn::kMax) return max.ToValue();
  } else {
    if (fn == Fn::kSum) {
      ints = agg.ints[g];
      cents = agg.cents[g];
      saw = agg.saw[g];
    }
    if (agg.sums) sum = agg.sum[g];
    if (agg.squares) sq = agg.sq[g];
    if (fn == Fn::kMin || fn == Fn::kMax) return agg.best[g].ToValue();
  }
  if (fn == Fn::kCount) return Value::Int(count);
  if (count == 0) return Value::Null();
  switch (fn) {
    case Fn::kSum:
      if (saw & kSawDouble) return Value::Dbl(sum);
      if (saw & kSawDecimal) {
        return Value::Dec(Decimal::FromCents(cents + ints * Decimal::kScale));
      }
      return Value::Int(ints);
    case Fn::kAvg:
      return Value::Dbl(sum / static_cast<double>(count));
    case Fn::kStddev: {
      if (count < 2) return Value::Null();
      double n = static_cast<double>(count);
      double var = (sq - sum * sum / n) / (n - 1);
      return Value::Dbl(var < 0 ? 0.0 : std::sqrt(var));
    }
    default:
      return Value::Null();
  }
}

}  // namespace tpcds
