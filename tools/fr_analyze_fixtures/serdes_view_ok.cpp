// EXPECT: clean
//
// A reader that is a validated view: deserialize() hands its reader to
// the view's read(), which checks the record run once through one
// RecordReader helper; the view's record loop and the decoded copy go
// through the same helper. The extractor must follow the reader into
// read() and on into the helper to see the reader match its writer.
#include <cstdint>
#include <vector>

#include "serdes_like.h"

namespace fx {

struct FxhRow {
  std::uint64_t fxh_key = 0;
  std::uint32_t fxh_rank = 0;
  std::uint8_t fxh_flag = 0;
};

class FxhView {
 public:
  static FxhView read(ByteReader& r);

  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    RecordReader run = fxh_run_;
    for (std::uint64_t i = 0; i < fxh_count_; ++i) fn(read_fxh_row(run));
  }

 private:
  static FxhRow read_fxh_row(RecordReader& run);

  std::uint64_t fxh_count_ = 0;
  RecordReader fxh_run_;
};

struct FxhTable {
  std::vector<FxhRow> fxh_rows;

  void serialize(ByteWriter& w) const;
  static FxhTable deserialize(ByteReader& r);
};

FxhRow FxhView::read_fxh_row(RecordReader& run) {
  FxhRow row;
  row.fxh_key = run.get<std::uint64_t>();
  row.fxh_rank = run.get<std::uint32_t>();
  row.fxh_flag = run.get<std::uint8_t>();
  return row;
}

FxhView FxhView::read(ByteReader& r) {
  FxhView view;
  view.fxh_count_ = r.bounded_count(r.get<std::uint64_t>(), 13);
  view.fxh_run_ = r.records(view.fxh_count_, 13);
  RecordReader rows = view.fxh_run_;
  for (std::uint64_t i = 0; i < view.fxh_count_; ++i) read_fxh_row(rows);
  return view;
}

void FxhTable::serialize(ByteWriter& w) const {
  w.put(static_cast<std::uint64_t>(fxh_rows.size()));
  for (const FxhRow& row : fxh_rows) {
    w.put(row.fxh_key);
    w.put(row.fxh_rank);
    w.put(row.fxh_flag);
  }
}

FxhTable FxhTable::deserialize(ByteReader& r) {
  const FxhView view = FxhView::read(r);
  FxhTable table;
  view.for_each_row(
      [&table](const FxhRow& row) { table.fxh_rows.push_back(row); });
  return table;
}

}  // namespace fx
