// Wire-schema model (analysis/wire_schema.h): extraction of field
// sequences from put/get call sites, loop/branch modelling, nested-
// encoder expansion through the call graph, writer/reader pairing,
// symmetry comparison, unchecked-count tracking, and the schema
// fingerprint round-trip + drift semantics.
#include "analysis/wire_schema.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/passes.h"
#include "analysis/tokenizer.h"

namespace fr_analysis {
namespace {

struct TestCorpus {
  std::vector<SourceFile> files;
  IncludeGraph includes;
  CallGraph graph;
  WireModel wire;
};

TestCorpus analyze(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  TestCorpus c;
  for (const auto& [path, text] : sources) {
    c.files.push_back(tokenize_text(path, text));
  }
  c.includes = IncludeGraph::build(c.files);
  c.graph = CallGraph::build(c.files, c.includes);
  c.wire = WireModel::build(c.files, c.graph, c.includes);
  return c;
}

constexpr const char* kSymmetricPair = R"(
constexpr std::uint32_t kTestVersion = 1;

void save_thing(ByteWriter& w, const std::vector<std::uint64_t>& ids,
                bool extra) {
  w.put(kTestVersion);
  w.put(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint64_t id : ids) {
    w.put(id);
  }
  w.put(static_cast<std::uint8_t>(extra ? 1 : 0));
  if (extra) {
    w.put_string("x");
  }
}

void load_thing(ByteReader& r) {
  if (r.get<std::uint32_t>() != kTestVersion) {
    return;
  }
  const std::uint64_t n = r.bounded_count(r.get<std::uint32_t>(), 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = r.get<std::uint64_t>();
    (void)v;
  }
  if (r.get<std::uint8_t>() != 0) {
    const auto s = r.get_string();
    (void)s;
  }
}
)";

TEST(WireSchemaTest, ExtractsLoopsBranchesAndPairsSymmetrically) {
  const TestCorpus c = analyze({{"a.cpp", kSymmetricPair}});
  ASSERT_EQ(c.wire.pairs().size(), 1u);
  const WirePair& pair = c.wire.pairs()[0];
  const WireFn& writer = c.wire.functions()[pair.writer];
  const WireFn& reader = c.wire.functions()[pair.reader];
  EXPECT_EQ(writer.name, "save_thing");
  EXPECT_EQ(reader.name, "load_thing");
  EXPECT_EQ(WireModel::signature(writer.expanded),
            "u32 u32 rep{u64} u8 opt{str}");
  EXPECT_EQ(WireModel::signature(reader.expanded),
            "u32 u32 rep{u64} u8 opt{str}");
  const WireMismatch m = c.wire.compare_pair(pair);
  EXPECT_FALSE(m.mismatch) << m.detail;
  // bounded_count + the explicit loop bound: no unchecked uses.
  EXPECT_TRUE(c.wire.unchecked_counts().empty());
  // The version constant of the writer's TU lands in the entry.
  const std::vector<SchemaEntry> entries = c.wire.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].version, "kTestVersion=1");
}

TEST(WireSchemaTest, ScalarWidthMismatchCarriesBothWitnesses) {
  const TestCorpus c = analyze({{"a.cpp", R"(
void put_rec(ByteWriter& w) {
  w.put(static_cast<std::uint32_t>(1));
}
void get_rec(ByteReader& r) {
  const auto v = r.get<std::uint64_t>();
  (void)v;
}
)"}});
  ASSERT_EQ(c.wire.pairs().size(), 1u);
  const WireMismatch m = c.wire.compare_pair(c.wire.pairs()[0]);
  ASSERT_TRUE(m.mismatch);
  EXPECT_FALSE(m.suppressed);
  EXPECT_NE(m.detail.find("scalar widths differ"), std::string::npos)
      << m.detail;
  EXPECT_EQ(m.writer_file, "a.cpp");
  EXPECT_EQ(m.reader_file, "a.cpp");
  EXPECT_GT(m.writer_line, 0u);
  EXPECT_GT(m.reader_line, 0u);
}

TEST(WireSchemaTest, NestedEncodersInlineAndOwnTheirDivergence) {
  const TestCorpus c = analyze({{"a.cpp", R"(
void put_part(ByteWriter& w) {
  w.put(static_cast<std::uint16_t>(1));
}
void get_part(ByteReader& r) {
  const auto v = r.get<std::uint32_t>();
  (void)v;
}
void save_all(ByteWriter& w) {
  w.put(static_cast<std::uint8_t>(9));
  put_part(w);
}
void load_all(ByteReader& r) {
  const auto tag = r.get<std::uint8_t>();
  (void)tag;
  get_part(r);
}
)"}});
  ASSERT_EQ(c.wire.pairs().size(), 2u);
  std::size_t suppressed = 0;
  std::size_t reported = 0;
  for (const WirePair& pair : c.wire.pairs()) {
    const WireMismatch m = c.wire.compare_pair(pair);
    ASSERT_TRUE(m.mismatch) << "helper fields must splice into the root";
    if (m.suppressed) {
      ++suppressed;
    } else {
      ++reported;
      EXPECT_EQ(c.wire.functions()[pair.writer].name, "put_part")
          << "the divergence belongs to the helper pair";
    }
  }
  EXPECT_EQ(reported, 1u);
  EXPECT_EQ(suppressed, 1u) << "the root inherits but does not re-report";
}

TEST(WireSchemaTest, OneSidedOptionalSplicesAgainstPlainFields) {
  // A field added in version 2: the writer always emits it, the reader
  // version-gates it.
  const TestCorpus c = analyze({{"a.cpp", R"(
void save_epoch(ByteWriter& w) {
  w.put(static_cast<std::uint32_t>(2));
  w.put(static_cast<std::uint64_t>(77));
  w.put(static_cast<std::uint8_t>(0));
}
void load_epoch(ByteReader& r) {
  const auto version = r.get<std::uint32_t>();
  if (version >= 2) {
    const auto epoch = r.get<std::uint64_t>();
    (void)epoch;
  }
  const auto flag = r.get<std::uint8_t>();
  (void)flag;
}
)"}});
  ASSERT_EQ(c.wire.pairs().size(), 1u);
  const WireMismatch m = c.wire.compare_pair(c.wire.pairs()[0]);
  EXPECT_FALSE(m.mismatch) << m.detail;
}

TEST(WireSchemaTest, TracksUncheckedWireCounts) {
  const TestCorpus c = analyze({{"a.cpp", R"(
void load_bad(ByteReader& r, std::vector<std::uint64_t>& out) {
  const auto n = r.get<std::uint32_t>();
  out.resize(n);
}
void load_good(ByteReader& r, std::vector<std::uint64_t>& out) {
  const std::uint64_t n2 = r.bounded_count(r.get<std::uint32_t>(), 8);
  out.resize(n2);
  const auto m = r.get<std::uint32_t>();
  if (m > r.remaining()) {
    return;
  }
  out.reserve(m);
}
)"}});
  ASSERT_EQ(c.wire.unchecked_counts().size(), 1u);
  const WireCountUse& use = c.wire.unchecked_counts()[0];
  EXPECT_EQ(use.var, "n");
  EXPECT_EQ(use.use, "resize");
  EXPECT_EQ(use.source, "get");
}

TEST(WireSchemaTest, SchemasRoundTripThroughDisk) {
  const TestCorpus c = analyze({{"a.cpp", kSymmetricPair}});
  const std::vector<SchemaEntry> entries = c.wire.entries();
  ASSERT_EQ(entries.size(), 1u);

  const std::string path = ::testing::TempDir() + "fr_wire_schemas.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  write_schemas(out, entries);
  std::fclose(out);

  std::vector<SchemaEntry> loaded;
  ASSERT_TRUE(load_schemas(path, &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].format, entries[0].format);
  EXPECT_EQ(loaded[0].writer_id, entries[0].writer_id);
  EXPECT_EQ(loaded[0].reader_id, entries[0].reader_id);
  EXPECT_EQ(loaded[0].version, entries[0].version);
  EXPECT_EQ(loaded[0].writer_schema, entries[0].writer_schema);
  EXPECT_EQ(loaded[0].reader_schema, entries[0].reader_schema);
  std::remove(path.c_str());
}

TEST(WireSchemaTest, DriftPassRejectsUnbumpedSchemaChange) {
  const TestCorpus c = analyze({{"a.cpp", kSymmetricPair}});
  std::vector<SchemaEntry> committed = c.wire.entries();
  ASSERT_EQ(committed.size(), 1u);

  const std::string path = ::testing::TempDir() + "fr_drift_schemas.json";
  const auto write_committed = [&] {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    write_schemas(out, committed);
    std::fclose(out);
  };
  PassOptions options;
  options.schemas_path = path;

  // Matching fingerprints: quiet.
  write_committed();
  EXPECT_TRUE(run_schema_drift_pass(c.wire, c.files, options).empty());

  // Mutated schema, same version string: the flagship failure.
  committed[0].writer_schema = "u32 u32 rep{u64} u8";
  write_committed();
  std::vector<Violation> found =
      run_schema_drift_pass(c.wire, c.files, options);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "schema-drift");
  EXPECT_NE(found[0].message.find("without a version bump"),
            std::string::npos);

  // Same mutation with a version bump recorded: still a finding (the
  // committed file is stale), but the regenerate kind, not the
  // unbumped kind.
  committed[0].version = "kTestVersion=2";
  write_committed();
  found = run_schema_drift_pass(c.wire, c.files, options);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].message.find("regenerate"), std::string::npos);
  EXPECT_EQ(found[0].message.find("without a version bump"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(WireSchemaTest, DriftPassNamesAWidthCollisionInsteadOfAskingForABump) {
  const TestCorpus before = analyze({{"a.cpp", kSymmetricPair}});
  const std::string path = ::testing::TempDir() + "fr_collision_schemas.json";
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    write_schemas(out, before.wire.entries());
    std::fclose(out);
  }
  PassOptions options;
  options.schemas_path = path;

  // A second file declares `id`, the label of the writer's u64 loop
  // element, with another width. No byte on the wire changed, but the
  // element now computes as "?".
  const TestCorpus after = analyze(
      {{"a.cpp", kSymmetricPair},
       {"b.cpp", "void count_things() {\n  std::uint32_t id = 0;\n}\n"}});
  const std::vector<Violation> found =
      run_schema_drift_pass(after.wire, after.files, options);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "schema-drift");
  const std::string& message = found[0].message;
  EXPECT_NE(message.find("'id' is declared as u64 at a.cpp:8 and as u32 at "
                         "b.cpp:2"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("rename"), std::string::npos) << message;
  EXPECT_EQ(message.find("without a version bump"), std::string::npos)
      << message;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fr_analysis
