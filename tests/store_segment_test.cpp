/// Tests of the segmented storage engine: mmap-backed base segments
/// (bit-identity with materialized loads, lazy per-block corruption
/// detection, agreement of both load paths on mutated files, v1 files
/// loading materialized and upgrading through compaction), log-structured
/// delta segments (flush, replay, torn-log rejection) and compaction.

#include "facet/store/segment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

std::vector<TruthTable> make_npn_workload(int n, std::size_t bases, std::size_t images_per_base,
                                          std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t b = 0; b < bases; ++b) {
    const TruthTable base = tt_random(n, rng);
    funcs.push_back(base);
    for (std::size_t k = 0; k < images_per_base; ++k) {
      funcs.push_back(apply_transform(base, NpnTransform::random(n, rng)));
    }
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);
  return funcs;
}

std::string temp_path(const std::string& name)
{
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path)
{
  std::ifstream is{path, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes)
{
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Functions whose classes are genuinely absent from `store`.
std::vector<TruthTable> novel_functions(const ClassStore& store, std::size_t count,
                                        std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> result;
  while (result.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      result.push_back(f);
    }
  }
  return result;
}

TEST(StoreSegment, MmapOpenIsBitIdenticalToMaterializedLoad)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  const int n = 5;
  const auto funcs = make_npn_workload(n, 60, 3, 0x5e601ULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string path = temp_path("segment_mmap_identity.fcs");
  built.save(path);

  const ClassStore materialized = ClassStore::load(path);
  const ClassStore mapped = ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
  EXPECT_TRUE(mapped.mmap_backed());
  EXPECT_FALSE(materialized.mmap_backed());
  EXPECT_EQ(mapped.num_vars(), materialized.num_vars());
  EXPECT_EQ(mapped.num_classes(), materialized.num_classes());
  ASSERT_EQ(mapped.num_records(), materialized.num_records());

  // Record-by-record identity through the segment interface, including the
  // decode-free id probe the batch engine rides.
  const Segment& base = mapped.base_segment();
  for (std::size_t i = 0; i < materialized.records().size(); ++i) {
    const StoreRecord& expected = materialized.records()[i];
    const StoreRecord actual = base.record_at(i);
    EXPECT_EQ(actual.canonical, expected.canonical);
    EXPECT_EQ(actual.representative, expected.representative);
    EXPECT_EQ(actual.rep_to_canonical, expected.rep_to_canonical);
    EXPECT_EQ(actual.class_id, expected.class_id);
    EXPECT_EQ(actual.class_size, expected.class_size);
    const auto mapped_id = mapped.find_class_id(expected.canonical);
    const auto materialized_id = materialized.find_class_id(expected.canonical);
    ASSERT_TRUE(mapped_id.has_value());
    EXPECT_EQ(*mapped_id, expected.class_id);
    EXPECT_EQ(materialized_id, mapped_id);
  }

  // Lookup-by-lookup identity on the full workload.
  for (const auto& f : funcs) {
    const auto a = materialized.lookup(f);
    const auto b = mapped.lookup(f);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->class_id, b->class_id);
    EXPECT_EQ(a->representative, b->representative);
    EXPECT_EQ(apply_transform(f, b->to_representative), b->representative);
  }

  // The materialized records() accessor has no mmap equivalent.
  EXPECT_THROW((void)mapped.records(), std::logic_error);
  std::remove(path.c_str());
}

TEST(StoreSegment, MmapCorruptionIsDetectedOnFirstTouchNotAtOpen)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  // Enough singleton n=6 classes that the record region spans several pages
  // (40 bytes per record, 4096-byte pages).
  const int n = 6;
  std::mt19937_64 rng{0x5e602ULL};
  std::vector<TruthTable> funcs;
  for (int i = 0; i < 300; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  const ClassStore built = build_class_store(funcs, {});
  ASSERT_GT(built.num_records() * store_record_words(n) * 8, 2 * kStorePageBytes);
  const std::string path = temp_path("segment_mmap_corrupt.fcs");
  built.save(path);

  // Flip one bit inside the LAST record — far from the blocks a search for
  // the smallest canonical touches. v3 geometry: a full header page, then
  // block-packed records (no record straddles a block).
  const std::size_t last = built.records().size() - 1;
  const std::size_t per_block = store_records_per_block(n);
  std::string bytes = read_file(path);
  const std::size_t offset = kStorePageBytes + (last / per_block) * kStorePageBytes +
                             (last % per_block) * store_record_words(n) * 8 + 3;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
  write_file(path, bytes);

  // Materialized load validates eagerly and must reject up front...
  EXPECT_THROW((void)ClassStore::load(path), StoreFormatError);

  // ...while the mmap open defers validation: the open succeeds, untouched
  // pages serve lookups, and the first touch of the corrupt page throws.
  const ClassStore mapped = ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
  const auto* segment = dynamic_cast<const MmapSegment*>(&mapped.base_segment());
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->pages_validated(), 0u);

  const auto clean = mapped.find_canonical(built.records().front().canonical);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->class_id, built.records().front().class_id);
  EXPECT_GT(segment->pages_validated(), 0u);
  EXPECT_LT(segment->pages_validated(), segment->num_pages());

  EXPECT_THROW((void)mapped.base_segment().record_at(last), StoreFormatError);
  EXPECT_THROW((void)mapped.find_canonical(built.records()[last].canonical), StoreFormatError);
  std::remove(path.c_str());
}

TEST(StoreSegment, Version1FilesStillLoadAndMmap)
{
  const int n = 4;
  const auto funcs = make_npn_workload(n, 30, 2, 0x5e603ULL);
  const ClassStore built = build_class_store(funcs, {});

  // Serialize the v1 layout by hand: header with a whole-payload hash, then
  // bare records — exactly what the first store format wrote.
  std::ostringstream os;
  const std::uint64_t total_words =
      static_cast<std::uint64_t>(store_record_words(n)) * built.records().size();
  PayloadHasher hasher{total_words};
  for (const auto& record : built.records()) {
    for_each_record_word(record, [&](std::uint64_t word) { hasher.mix(word); });
  }
  StoreHeader header;
  header.version = kStoreVersionV1;
  header.num_vars = static_cast<std::uint32_t>(n);
  header.num_records = built.records().size();
  header.num_classes = built.num_classes();
  header.payload_hash = hasher.value();
  write_store_header(os, header);
  for (const auto& record : built.records()) {
    for_each_record_word(record, [&](std::uint64_t word) { write_u64_le(os, word); });
  }
  const std::string v1_bytes = os.str();

  // Materialized load reads v1.
  std::istringstream is{v1_bytes};
  const ClassStore loaded = ClassStore::load(is);
  ASSERT_EQ(loaded.num_records(), built.num_records());
  for (const auto& f : funcs) {
    const auto a = built.lookup(f);
    const auto b = loaded.lookup(f);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->class_id, b->class_id);
  }

  // A corrupted v1 payload still fails its (eager) checksum.
  std::string corrupt = v1_bytes;
  corrupt[kStoreHeaderBytes + 9] = static_cast<char>(corrupt[kStoreHeaderBytes + 9] ^ 0x04);
  std::istringstream corrupt_is{corrupt};
  EXPECT_THROW((void)ClassStore::load(corrupt_is), StoreFormatError);

  // mmap serves version 3 only: the v1 file is refused with the upgrade
  // hint, and a materialized open plus compact() upgrades it in place.
  if (mmap_supported()) {
    const std::string path = temp_path("segment_v1_compat.fcs");
    std::remove(ClassStore::delta_log_path(path).c_str());
    write_file(path, v1_bytes);
    try {
      (void)ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
      ADD_FAILURE() << "mmap must refuse a version-1 file";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos) << e.what();
      EXPECT_NE(std::string{e.what()}.find("facet_cli compact --index"), std::string::npos)
          << e.what();
    }
    ClassStore::open(path).compact(path);
    const ClassStore mapped = ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
    ASSERT_EQ(mapped.num_records(), built.num_records());
    for (const auto& f : funcs) {
      const auto a = built.lookup(f);
      const auto b = mapped.lookup(f);
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(a->class_id, b->class_id);
    }
    std::remove(path.c_str());
  }
}

TEST(StoreSegment, FlushDeltaSealsTheMemtableIntoASegment)
{
  // Width 5, memo off: the NPN4 table tier (width <= 4) and the semiclass
  // memo would answer the post-flush repeats before the index, and this
  // test exercises the delta tier directly.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 15, 2, 0x5e604ULL);
  StoreBuildOptions build_options;
  build_options.store.semiclass_memo_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);
  const auto novel = novel_functions(store, 3, 0x5e605ULL);

  std::vector<std::uint32_t> ids;
  for (const auto& f : novel) {
    ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
  }
  EXPECT_EQ(store.num_appended(), novel.size());
  EXPECT_EQ(store.num_delta_segments(), 0u);

  const std::string dlog = temp_path("segment_flush_seals.dlog");
  std::remove(dlog.c_str());
  EXPECT_EQ(store.flush_delta(dlog), novel.size());
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(store.num_delta_segments(), 1u);
  EXPECT_EQ(store.num_delta_records(), novel.size());
  // An empty memtable flushes to nothing: the log neither appears nor grows.
  const std::string empty = temp_path("segment_flush_empty.dlog");
  std::remove(empty.c_str());
  EXPECT_EQ(store.flush_delta(empty), 0u);
  EXPECT_FALSE(std::ifstream{empty}.good());
  const std::string frame = read_file(dlog);
  EXPECT_FALSE(frame.empty());
  EXPECT_EQ(store.flush_delta(dlog), 0u);
  EXPECT_EQ(read_file(dlog), frame);
  std::remove(dlog.c_str());

  // Sealed classes keep serving with their ids, now from the delta tier.
  store.clear_hot_cache();
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto hit = store.lookup(novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
    EXPECT_EQ(hit->source, LookupSource::kIndex);
  }
  // And save() folds them into the serialized base.
  std::ostringstream saved;
  store.save(saved);
  std::istringstream reload{saved.str()};
  const ClassStore reloaded = ClassStore::load(reload);
  EXPECT_EQ(reloaded.num_records(), store.num_records());
}

class StoreDeltaRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(StoreDeltaRoundTrip, FlushedFramesReplayOnOpen)
{
  const bool use_mmap = GetParam();
  if (use_mmap && !mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  const int n = 5;
  const auto funcs = make_npn_workload(n, 25, 2, 0x5e606ULL);
  const std::string path = temp_path(use_mmap ? "segment_delta_mmap.fcs" : "segment_delta.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(funcs, {}).save(path);

  // Two serving sessions, each appending new classes and flushing one
  // frame — the log grows without ever rewriting the base.
  std::vector<TruthTable> all_novel;
  std::vector<std::uint32_t> ids;
  for (int session = 0; session < 2; ++session) {
    ClassStore store =
        ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
    EXPECT_EQ(store.num_delta_segments(), static_cast<std::size_t>(session));
    const auto novel =
        novel_functions(store, 4, 0x5e607ULL + static_cast<std::uint64_t>(session));
    for (const auto& f : novel) {
      ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
      all_novel.push_back(f);
    }
    EXPECT_EQ(store.flush_delta(dlog), novel.size());
  }

  // A third open replays both frames: every appended class resolves with
  // its id, from the delta tier, under both base flavors.
  ClassStore store = ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
  EXPECT_EQ(store.num_delta_segments(), 2u);
  EXPECT_EQ(store.num_delta_records(), all_novel.size());
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    const auto hit = store.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value()) << "appended class " << i << " must survive reopen";
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  // Base lookups are unaffected by the deltas.
  for (const auto& f : funcs) {
    EXPECT_TRUE(store.lookup(f).has_value());
  }

  // Compaction merges the runs into a fresh base and clears the log.
  const std::size_t total = store.num_records();
  store.compact(path);
  EXPECT_EQ(store.num_delta_segments(), 0u);
  EXPECT_EQ(store.num_records(), total);
  EXPECT_FALSE(std::ifstream{dlog}.good()) << "compact() must remove the delta log";
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    store.clear_hot_cache();
    const auto hit = store.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }

  // And the compacted file alone (no log) serves everything.
  ClassStore compacted = ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
  EXPECT_EQ(compacted.num_delta_segments(), 0u);
  EXPECT_EQ(compacted.num_records(), total);
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    const auto hit = compacted.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(MaterializedAndMmap, StoreDeltaRoundTrip, ::testing::Values(false, true));

TEST(StoreSegment, TornDeltaTailIsRepairedAndCorruptionIsRejected)
{
  const int n = 4;
  const auto funcs = make_npn_workload(n, 15, 2, 0x5e608ULL);
  const std::string path = temp_path("segment_torn_dlog.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(funcs, {}).save(path);

  std::vector<TruthTable> novel;
  {
    ClassStore store = ClassStore::open(path);
    novel = novel_functions(store, 3, 0x5e609ULL);
    for (const auto& f : novel) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
    }
    ASSERT_EQ(store.flush_delta(dlog), 3u);
  }
  const std::string good = read_file(dlog);

  // A torn trailing frame (crash or full disk mid-append) is dropped —
  // never bricking the intact prefix — and the log is truncated back.
  {
    write_file(dlog, good + good.substr(0, good.size() - 5));
    ClassStore recovered = ClassStore::open(path);
    EXPECT_EQ(recovered.num_delta_segments(), 1u);
    EXPECT_EQ(recovered.num_delta_records(), 3u);
    EXPECT_EQ(read_file(dlog).size(), good.size()) << "open() must truncate the torn tail";
    // The repaired log appends cleanly again.
    const auto more = novel_functions(recovered, 2, 0x5e60bULL);
    for (const auto& f : more) {
      (void)recovered.lookup_or_classify(f, /*append_on_miss=*/true);
    }
    ASSERT_EQ(recovered.flush_delta(dlog), 2u);
    EXPECT_EQ(ClassStore::open(path).num_delta_records(), 5u);
  }
  // A torn log with no intact frame at all recovers to an empty log.
  {
    write_file(dlog, good.substr(0, good.size() - 5));
    EXPECT_EQ(ClassStore::open(path).num_delta_records(), 0u);
    EXPECT_EQ(read_file(dlog).size(), 0u);
  }
  // Corruption before the tail is rejected: flipped record byte inside a
  // complete frame...
  {
    std::string bad = good;
    bad[kDeltaFrameHeaderBytes + 2] = static_cast<char>(bad[kDeltaFrameHeaderBytes + 2] ^ 0x01);
    write_file(dlog, bad);
    EXPECT_THROW((void)ClassStore::open(path), StoreFormatError);
  }
  // ...and a bad frame magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    write_file(dlog, bad);
    EXPECT_THROW((void)ClassStore::open(path), StoreFormatError);
  }
  // Restoring the log restores the store.
  write_file(dlog, good);
  EXPECT_EQ(ClassStore::open(path).num_delta_records(), 3u);

  std::remove(dlog.c_str());
  std::remove(path.c_str());
}

TEST(StoreSegment, WriteBaseSegmentRejectsNothingButStreamsDoFail)
{
  // A failed stream surfaces as StoreFormatError, not silent truncation.
  const int n = 3;
  const auto funcs = make_npn_workload(n, 5, 1, 0x5e60aULL);
  const ClassStore built = build_class_store(funcs, {});
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  EXPECT_THROW(built.save(os), StoreFormatError);
}

TEST(StoreSegment, DeltaRecordIdAtOrAboveItsClassCountIsRejected)
{
  const int n = 5;
  const auto funcs = make_npn_workload(n, 20, 2, 0x5e60cULL);
  for (const bool use_mmap : {false, true}) {
    if (use_mmap && !mmap_supported()) {
      continue;
    }
    SCOPED_TRACE(use_mmap ? "mmap" : "materialized");
    const std::string path = temp_path("segment_delta_ids.fcs");
    const std::string dlog = ClassStore::delta_log_path(path);
    std::remove(dlog.c_str());
    const ClassStore built = build_class_store(funcs, {});
    built.save(path);
    const StoreOpenOptions options{.use_mmap = use_mmap};
    ClassStore replica = ClassStore::open(path, options);

    // One appended class whose frame claims `num_classes_after` classes: an
    // id below that count replays, an id at it is corrupt.
    const TruthTable f = novel_functions(built, 1, 0x5e60dULL).front();
    const std::uint64_t num_classes_after = built.num_classes() + 1;
    const auto write_log = [&](std::uint64_t class_id) {
      const StoreRecord record{f, f, NpnTransform::identity(n),
                               static_cast<std::uint32_t>(class_id), 1};
      std::ofstream os{dlog, std::ios::binary | std::ios::trunc};
      write_delta_frame(os, n, num_classes_after, {&record});
    };

    write_log(num_classes_after - 1);
    EXPECT_EQ(ClassStore::open(path, options).num_delta_records(), 1u);
    EXPECT_EQ(replica.reload(path), built.num_records() + 1);

    write_log(num_classes_after);
    EXPECT_THROW((void)ClassStore::open(path, options), StoreFormatError);
    EXPECT_THROW((void)replica.reload(path), StoreFormatError);
    std::remove(dlog.c_str());
    std::remove(path.c_str());
  }
}

/// One seeded mutant of a valid segment file: a byte flip (spread over
/// header, header padding, blocks, and tables plus footer), a truncation,
/// a cut-and-rejoin splice, or a range copied over from a second valid
/// file of the same width.
std::string mutate(const std::string& good, std::size_t blocks_end, const std::string& donor,
                   std::mt19937_64& rng, std::string& what)
{
  const auto pick = [&](std::size_t lo, std::size_t hi) {  // [lo, hi)
    return lo + static_cast<std::size_t>(rng() % (hi - lo));
  };
  std::string bad = good;
  switch (rng() % 4) {
    case 0: {
      const std::size_t regions[] = {0, kStoreHeaderBytes, kStorePageBytes, blocks_end,
                                     good.size()};
      const std::size_t r = pick(0, 4);
      const std::size_t at = pick(regions[r], regions[r + 1]);
      bad[at] = static_cast<char>(bad[at] ^ static_cast<char>(pick(1, 256)));
      what = "flip at " + std::to_string(at);
      break;
    }
    case 1: {
      const std::size_t keep = pick(0, good.size());
      bad.resize(keep);
      what = "truncate to " + std::to_string(keep);
      break;
    }
    case 2: {
      const std::size_t cut = pick(0, good.size());
      const std::size_t resume = pick(0, good.size());
      bad = good.substr(0, cut) + good.substr(resume);
      what = "splice " + std::to_string(cut) + " <- " + std::to_string(resume);
      break;
    }
    default: {
      const std::size_t at = pick(0, std::min(good.size(), donor.size()));
      const std::size_t len = std::min(pick(1, 256), donor.size() - at);
      bad.replace(at, std::min(len, bad.size() - at), donor, at, len);
      what = "donor range " + std::to_string(at) + "+" + std::to_string(len);
      break;
    }
  }
  return bad;
}

TEST(StoreSegment, MutatedFilesGetOneVerdictFromBothLoadPaths)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  // Real classes (non-trivial transforms) over several blocks with a ragged
  // last one, and a same-width donor file for range splices.
  const int n = 5;
  const ClassStore built = build_class_store(make_npn_workload(n, 260, 1, 0x5e60eULL), {});
  const ClassStore other = build_class_store(make_npn_workload(n, 230, 1, 0x5e60fULL), {});
  const std::size_t num_blocks = store_num_blocks(built.num_records(), n);
  ASSERT_GT(num_blocks, 2u);
  const std::size_t blocks_end = kStorePageBytes * (1 + num_blocks);
  const std::string path = temp_path("segment_mutants.fcs");
  built.save(path);
  const std::string good = read_file(path);
  other.save(path);
  const std::string donor = read_file(path);

  std::mt19937_64 rng{0x5e610ULL};
  std::size_t accepted = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    std::string what;
    const std::string bad = mutate(good, blocks_end, donor, rng, what);
    SCOPED_TRACE(what);
    write_file(path, bad);

    std::optional<LoadedBase> loaded;
    try {
      std::istringstream is{bad};
      loaded = read_base_segment(is);
    } catch (const StoreFormatError&) {
    }

    if (loaded.has_value()) {
      ++accepted;
      std::shared_ptr<MmapSegment> segment;
      ASSERT_NO_THROW(segment = MmapSegment::open(path));
      EXPECT_EQ(segment->num_classes(), loaded->header.num_classes);
      ASSERT_EQ(segment->size(), loaded->records.size());
      for (std::size_t i = 0; i < loaded->records.size(); ++i) {
        StoreRecord actual;
        ASSERT_NO_THROW(actual = segment->record_at(i));
        const StoreRecord& expected = loaded->records[i];
        EXPECT_EQ(actual.canonical, expected.canonical);
        EXPECT_EQ(actual.representative, expected.representative);
        EXPECT_EQ(actual.rep_to_canonical, expected.rep_to_canonical);
        EXPECT_EQ(actual.class_id, expected.class_id);
        EXPECT_EQ(actual.class_size, expected.class_size);
      }
      continue;
    }
    bool rejected = false;
    try {
      const auto segment = MmapSegment::open(path);
      for (std::size_t i = 0; i < segment->size(); ++i) {
        (void)segment->record_at(i);
      }
    } catch (const StoreFormatError&) {
      rejected = true;
    }
    EXPECT_TRUE(rejected) << "the materialized loader rejected a mutant mmap accepted";
  }
  // The budget must exercise both verdicts (a flip in an unchecked header
  // word, or a splice that cuts and rejoins at the same offset, loads).
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 1500u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace facet
