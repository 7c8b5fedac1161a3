// EXPECT: clean
//
// A counted run of fixed-size records decoded through a RecordReader:
// the ByteReader checks the whole run once and hands out the reader the
// fields come through, locally and as a helper's parameter. The
// extractor must follow both to see the reader match its writer.
#include <vector>

#include "serdes_like.h"

namespace fx {

struct FxgRow {
  std::uint64_t fxg_key = 0;
  std::uint32_t fxg_rank = 0;
  std::uint8_t fxg_flag = 0;
};

void put_fxg_row(ByteWriter& w, const FxgRow& fxg_row) {
  w.put(fxg_row.fxg_rank);
  w.put(fxg_row.fxg_flag);
}

void get_fxg_row(RecordReader& fxg_run, FxgRow& fxg_row) {
  fxg_row.fxg_rank = fxg_run.get<std::uint32_t>();
  fxg_row.fxg_flag = fxg_run.get<std::uint8_t>();
}

void save_fxg_rows(ByteWriter& w, const std::vector<FxgRow>& fxg_rows) {
  w.put(static_cast<std::uint64_t>(fxg_rows.size()));
  for (const FxgRow& fxg_row : fxg_rows) {
    w.put(fxg_row.fxg_key);
    put_fxg_row(w, fxg_row);
  }
}

void load_fxg_rows(ByteReader& r, std::vector<FxgRow>& fxg_rows) {
  const auto fxg_count = r.bounded_count(r.get<std::uint64_t>(), 13);
  fxg_rows.resize(fxg_count);
  RecordReader fxg_run = r.records(fxg_count, 13);
  for (FxgRow& fxg_row : fxg_rows) {
    fxg_row.fxg_key = fxg_run.get<std::uint64_t>();
    get_fxg_row(fxg_run, fxg_row);
  }
}

}  // namespace fx
