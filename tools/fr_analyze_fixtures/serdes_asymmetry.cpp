// EXPECT: serdes-asymmetry
//
// Four divergent writer/reader pairs. The header pair disagrees
// directly on a scalar width. The item helpers disagree too, and the
// save/load roots that splice them inherit that divergence — which the
// pass reports on the helper pair only (the roots' mismatch is
// suppressed as belonging to the nested pair). The row pair's reader
// skips a field of each record it reads through a RecordReader. The
// table's reader is a validated view whose one record helper skips a
// field: deserialize() reaches it through the view's read().
#include <vector>

#include "serdes_like.h"

namespace fx {

void put_fxa_header(ByteWriter& w, std::uint32_t fxa_flags) {
  w.put(fxa_flags);
  w.put(static_cast<std::uint8_t>(1));
}

void get_fxa_header(ByteReader& r) {
  const auto fxa_flags = r.get<std::uint64_t>();
  const auto fxa_marker = r.get<std::uint8_t>();
  (void)fxa_flags;
  (void)fxa_marker;
}

void put_fxa_item(ByteWriter& w, std::uint64_t fxa_item_id) {
  w.put(fxa_item_id);
  w.put(static_cast<std::uint16_t>(7));
}

void get_fxa_item(ByteReader& r) {
  const auto fxa_item_id = r.get<std::uint64_t>();
  const auto fxa_tag = r.get<std::uint32_t>();
  (void)fxa_item_id;
  (void)fxa_tag;
}

void save_fxa_items(ByteWriter& w) {
  w.put(static_cast<std::uint8_t>(2));
  put_fxa_item(w, 1);
  put_fxa_item(w, 2);
}

void load_fxa_items(ByteReader& r) {
  const auto fxa_count = r.get<std::uint8_t>();
  (void)fxa_count;
  get_fxa_item(r);
  get_fxa_item(r);
}

void save_fxa_rows(ByteWriter& w, const std::vector<std::uint64_t>& fxa_keys) {
  w.put(static_cast<std::uint64_t>(fxa_keys.size()));
  for (const std::uint64_t fxa_key : fxa_keys) {
    w.put(fxa_key);
    w.put(static_cast<std::uint32_t>(0));
    w.put(static_cast<std::uint8_t>(1));
  }
}

void load_fxa_rows(ByteReader& r) {
  const auto fxa_row_count = r.bounded_count(r.get<std::uint64_t>(), 13);
  RecordReader fxa_rows = r.records(fxa_row_count, 13);
  for (std::uint64_t i = 0; i < fxa_row_count; ++i) {
    const auto fxa_key = fxa_rows.get<std::uint64_t>();
    const auto fxa_flag = fxa_rows.get<std::uint8_t>();
    (void)fxa_key;
    (void)fxa_flag;
  }
}

struct FxiRow {
  std::uint64_t fxi_key = 0;
  std::uint32_t fxi_rank = 0;
  std::uint8_t fxi_flag = 0;
};

class FxiView {
 public:
  static FxiView read(ByteReader& r);

 private:
  static FxiRow read_fxi_row(RecordReader& run);

  std::uint64_t fxi_count_ = 0;
  RecordReader fxi_run_;
};

struct FxiTable {
  std::vector<FxiRow> fxi_rows;

  void serialize(ByteWriter& w) const;
  static FxiTable deserialize(ByteReader& r);
};

FxiRow FxiView::read_fxi_row(RecordReader& run) {
  FxiRow row;
  row.fxi_key = run.get<std::uint64_t>();
  row.fxi_flag = run.get<std::uint8_t>();
  return row;
}

FxiView FxiView::read(ByteReader& r) {
  FxiView view;
  view.fxi_count_ = r.bounded_count(r.get<std::uint64_t>(), 13);
  view.fxi_run_ = r.records(view.fxi_count_, 13);
  RecordReader rows = view.fxi_run_;
  for (std::uint64_t i = 0; i < view.fxi_count_; ++i) read_fxi_row(rows);
  return view;
}

void FxiTable::serialize(ByteWriter& w) const {
  w.put(static_cast<std::uint64_t>(fxi_rows.size()));
  for (const FxiRow& row : fxi_rows) {
    w.put(row.fxi_key);
    w.put(row.fxi_rank);
    w.put(row.fxi_flag);
  }
}

FxiTable FxiTable::deserialize(ByteReader& r) {
  (void)FxiView::read(r);
  return {};
}

}  // namespace fx
