// Elastic fault tolerance, bottom to top: the version-4 checkpoint
// container (atomic shard writes, checksummed reads, typed rejection of
// every corruption class, no descriptor leaked by a failed write),
// shards read against their commit marker,
// snapshot-set validation with fallback to the previous set, retention,
// hand-set resumes from defective sets, and the supervisor restart loop
// driven by fabric.fault chaos knobs — injected kills on both fabrics, a
// hung rank caught by heartbeat silence, and a corrupted latest snapshot
// forcing the fallback path. The deterministic-resume contract itself
// (killed + resumed == uninterrupted, bitwise) is asserted here against
// supervised runs and again across the full {i,j,k} grid in
// tests/test_equivalence.cpp.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/proc_trainer.hpp"
#include "core/recovery.hpp"
#include "core/threaded_trainer.hpp"
#include "datagen/generator.hpp"
#include "distributed/fabric_error.hpp"
#include "distributed/wire.hpp"
#include "equivalence_fixture.hpp"
#include "memory/memory_state.hpp"
#include "serving/snapshot.hpp"

namespace disttgl {
namespace {

namespace fs = std::filesystem;

// Unique scratch dir per test, under the sweep fixture's root so the
// fabric_shm_sweep cleanup fixture reclaims (and leak-checks) it.
std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = "/tmp/disttgl-ckpt/" + tag + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

CheckpointErrc code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckpointError& e) {
    return e.code();
  }
  return static_cast<CheckpointErrc>(0);  // did not throw
}

std::vector<float> values_of(const Matrix& m) {
  return {m.data(), m.data() + m.size()};
}

CoreShard sample_core(std::uint64_t fp = 0xfeedULL) {
  CoreShard core;
  core.fingerprint = fp;
  core.iteration = 5;
  core.world = 2;
  core.mem_copies = 1;
  core.weights = {0.5f, -1.25f, 3.0f, 0.0f, 42.0f, -0.125f, 7.5f, 2.0f};
  core.adam_steps = 5;  // one Adam moment of each kind per weight
  core.adam_m = {0.1f, -0.2f, 0.3f, 0.0f, 1.5f, -0.25f, 0.75f, 2.5f};
  core.adam_v = {0.01f, 0.04f, 0.09f, 0.0f, 2.25f, 0.0625f, 0.5625f, 6.25f};
  return core;
}

// ---- shard containers ----------------------------------------------------

TEST(CheckpointShards, CoreRoundTrip) {
  const std::string stem = fresh_dir("core_rt") + "/ckpt_5";
  const CoreShard core = sample_core();
  write_core_shard(stem, core);
  const CoreShard back = read_core_shard(stem, core);
  EXPECT_EQ(back.fingerprint, core.fingerprint);
  EXPECT_EQ(back.iteration, core.iteration);
  EXPECT_EQ(back.world, core.world);
  EXPECT_EQ(back.mem_copies, core.mem_copies);
  EXPECT_EQ(back.weights, core.weights);
  EXPECT_EQ(back.adam_steps, core.adam_steps);
  EXPECT_EQ(back.adam_m, core.adam_m);
  EXPECT_EQ(back.adam_v, core.adam_v);
}

// The core decoder holds every reader of a core to one Adam moment of
// each kind per weight: a checksum-valid core whose array is one short
// is kShapeMismatch, carrying the weight count and the count it holds.
TEST(CheckpointShards, CoreMomentCountOtherThanWeightCountIsShapeMismatch) {
  const std::string dir = fresh_dir("core_moments");
  for (const bool first : {true, false}) {
    CoreShard core = sample_core();
    (first ? core.adam_m : core.adam_v).pop_back();
    write_core_shard(dir + "/ckpt_5", core);
    try {
      (void)read_core_shard(dir + "/ckpt_5", core);
      FAIL() << "short moment array not detected";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.code(), CheckpointErrc::kShapeMismatch);
      EXPECT_EQ(e.path(), dir + "/ckpt_5.core");
      EXPECT_EQ(e.expected(), core.weights.size());
      EXPECT_EQ(e.got(), core.weights.size() - 1);
    }
  }
}

// A write that fails part-way (here, past the file-size limit) throws
// kIoError and closes the temporary file it opened: under a full disk
// the supervisor's restart loop retries in the same process, and must
// not leak one descriptor per failed snapshot.
TEST(CheckpointShards, FailedWriteClosesItsFile) {
  const auto open_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         fs::directory_iterator("/proc/self/fd"))
      ++n;
    return n;
  };
  const std::string dir = fresh_dir("fsize");
  CoreShard core = sample_core();
  core.weights.assign(4096, 1.0f);  // 16 KiB of weights alone
  core.adam_m.assign(4096, 0.0f);
  core.adam_v.assign(4096, 0.0f);

  // Lower only the soft limit, and ignore the SIGXFSZ a write past it
  // raises, so the write fails with EFBIG instead of ending the process.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 4096;
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &low), 0);
  const std::size_t before = open_fds();
  std::vector<CheckpointErrc> codes;
  for (int attempt = 0; attempt < 3; ++attempt)
    codes.push_back(code_of([&] { write_core_shard(dir + "/ckpt_7", core); }));
  const std::size_t after = open_fds();
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);

  for (const CheckpointErrc code : codes)
    EXPECT_EQ(code, CheckpointErrc::kIoError);
  EXPECT_EQ(after, before);
  EXPECT_FALSE(fs::exists(dir + "/ckpt_7.core"));
  sweep_tmp(dir);  // the failed writes' partial *.tmp files
}

TEST(CheckpointShards, MemShardRoundTripsFullState) {
  const std::string stem = fresh_dir("mem_rt") + "/ckpt_3";
  MemoryState state(7, 4, 6);
  {
    MemoryWrite w;
    w.nodes = {1, 3, 6};
    w.mem.resize(3, 4);
    w.mail.resize(3, 6);
    for (std::size_t x = 0; x < w.mem.size(); ++x)
      w.mem.data()[x] = 0.25f * static_cast<float>(x + 1);
    for (std::size_t x = 0; x < w.mail.size(); ++x)
      w.mail.data()[x] = -0.5f * static_cast<float>(x + 1);
    w.mem_ts = {1.0f, 2.0f, 3.0f};
    w.mail_ts = {4.0f, 5.0f, 6.0f};
    state.write(w);
  }

  write_mem_shard(stem, make_mem_shard(state, 0xabcULL, 3, 0));
  const CommitShard commit{
      .fingerprint = 0xabcULL, .iteration = 3, .world = 1, .mem_copies = 1};
  const MemShard shard = read_mem_shard(stem, commit, 0);
  EXPECT_EQ(shard.fingerprint, 0xabcULL);
  EXPECT_EQ(shard.iteration, 3u);
  EXPECT_EQ(shard.rows.size(), 7u);

  MemoryState restored(7, 4, 6);
  apply_mem_shard(shard, restored);
  EXPECT_EQ(memory_digest(restored), memory_digest(state));
}

TEST(CheckpointShards, MemShardShapeMismatchIsTypedBeforeAnyRow) {
  MemoryState state(7, 4, 6);
  const MemShard shard = make_mem_shard(state, 0xabcULL, 3, 0);
  // Wrong memory dimension: the typed error names the shard and carries
  // the expected/got pair that disagreed, and the target is untouched.
  MemoryState narrow(7, 2, 6);
  const std::uint64_t before = memory_digest(narrow);
  try {
    apply_mem_shard(shard, narrow);
    FAIL() << "shape mismatch not detected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kShapeMismatch);
    EXPECT_EQ(e.path(), "<mem shard 0>");
    EXPECT_EQ(e.expected(), 2u);  // the live state's dim
    EXPECT_EQ(e.got(), 4u);       // the shard's dim
  }
  EXPECT_EQ(memory_digest(narrow), before);
}

TEST(CheckpointShards, RankShardRoundTripsIncludingSlice) {
  const std::string stem = fresh_dir("rank_rt") + "/ckpt_4";
  RankShard rs;
  rs.fingerprint = 0x77ULL;
  rs.iteration = 4;
  rs.rank = 1;
  rs.loss_sum = 2.5;
  rs.loss_count = 9;
  rs.events = 123;
  rs.slice.emplace();
  rs.slice->mem = Matrix(2, 3, {1, 2, 3, 4, 5, 6});
  rs.slice->mem_ts = {7, 8};
  rs.slice->mail = Matrix(2, 2, {9, 10, 11, 12});
  rs.slice->mail_ts = {13, 14};
  rs.slice->has_mail = {1, 0};
  write_rank_shard(stem, rs);

  const CommitShard commit{
      .fingerprint = 0x77ULL, .iteration = 4, .world = 2, .mem_copies = 1};
  const RankShard back = read_rank_shard(stem, commit, 1);
  EXPECT_EQ(back.fingerprint, rs.fingerprint);
  EXPECT_EQ(back.loss_sum, rs.loss_sum);
  EXPECT_EQ(back.loss_count, rs.loss_count);
  EXPECT_EQ(back.events, rs.events);
  ASSERT_TRUE(back.slice.has_value());
  EXPECT_EQ(back.slice->size(), rs.slice->size());
  EXPECT_EQ(back.slice->mem.cols(), rs.slice->mem.cols());
  EXPECT_EQ(back.slice->mail.cols(), rs.slice->mail.cols());
  EXPECT_EQ(values_of(back.slice->mem), values_of(rs.slice->mem));
  EXPECT_EQ(back.slice->mem_ts, rs.slice->mem_ts);
  EXPECT_EQ(values_of(back.slice->mail), values_of(rs.slice->mail));
  EXPECT_EQ(back.slice->mail_ts, rs.slice->mail_ts);
  EXPECT_EQ(back.slice->has_mail, rs.slice->has_mail);
}

TEST(CheckpointShards, MissingFileIsTyped) {
  const std::string stem = fresh_dir("missing") + "/ckpt_9";
  try {
    (void)read_core_shard(stem, sample_core());
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointErrc::kMissingFile);
    EXPECT_EQ(e.path(), stem + ".core");
  }
}

// A write interrupted at ANY byte boundary must read back as a typed
// truncation, never as garbage state: prefixes shorter than the header
// and prefixes cutting the payload are both kTruncated by construction
// (declared payload length vs bytes actually present).
TEST(CheckpointShards, TornWriteAtEveryByteRejected) {
  const std::string dir = fresh_dir("torn");
  write_core_shard(dir + "/ckpt_1", sample_core());
  const std::vector<std::uint8_t> full = slurp(dir + "/ckpt_1.core");
  ASSERT_GT(full.size(), 24u);

  const std::string torn = dir + "/ckpt_2";
  for (std::size_t len = 0; len < full.size(); ++len) {
    spit(torn + ".core", {full.begin(), full.begin() + len});
    EXPECT_EQ(code_of([&] { (void)read_core_shard(torn, sample_core()); }),
              CheckpointErrc::kTruncated)
        << "prefix of " << len << " bytes";
  }
}

TEST(CheckpointShards, BitFlipCaughtByChecksum) {
  const std::string dir = fresh_dir("flip");
  write_core_shard(dir + "/ckpt_1", sample_core());
  const std::vector<std::uint8_t> full = slurp(dir + "/ckpt_1.core");

  // Flip one bit in every payload byte position — the CRC32C checksum
  // must catch each one.
  const std::string mut = dir + "/ckpt_2";
  for (std::size_t pos = 24; pos < full.size(); ++pos) {
    std::vector<std::uint8_t> bytes = full;
    bytes[pos] ^= 0x10;
    spit(mut + ".core", bytes);
    EXPECT_EQ(code_of([&] { (void)read_core_shard(mut, sample_core()); }),
              CheckpointErrc::kBadChecksum)
        << "payload byte " << pos;
  }
}

TEST(CheckpointShards, HeaderSkewRejectedTyped) {
  const std::string dir = fresh_dir("skew");
  write_core_shard(dir + "/ckpt_1", sample_core());
  const std::vector<std::uint8_t> full = slurp(dir + "/ckpt_1.core");
  const std::string mut = dir + "/ckpt_2";

  std::vector<std::uint8_t> bad_magic = full;
  bad_magic[0] ^= 0xff;
  spit(mut + ".core", bad_magic);
  EXPECT_EQ(code_of([&] { (void)read_core_shard(mut, sample_core()); }),
            CheckpointErrc::kBadMagic);

  std::vector<std::uint8_t> bad_version = full;
  bad_version[4] = 0x7f;  // future format version
  spit(mut + ".core", bad_version);
  EXPECT_EQ(code_of([&] { (void)read_core_shard(mut, sample_core()); }),
            CheckpointErrc::kBadVersion);
  bad_version[4] = 2;  // the FNV-1a-checksummed format before CRC32C
  spit(mut + ".core", bad_version);
  EXPECT_EQ(code_of([&] { (void)read_core_shard(mut, sample_core()); }),
            CheckpointErrc::kBadVersion);
  bad_version[4] = 3;  // Adam's moments in every rank shard
  spit(mut + ".core", bad_version);
  EXPECT_EQ(code_of([&] { (void)read_core_shard(mut, sample_core()); }),
            CheckpointErrc::kBadVersion);

  // Kind confusion: a core container presented as a mem shard.
  fs::copy_file(dir + "/ckpt_1.core", mut + ".mem0",
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(code_of([&] { (void)read_mem_shard(mut, sample_core(), 0); }),
            CheckpointErrc::kBadKind);
}

// ---- snapshot sets: validation, fallback, retention ----------------------

void write_snapshot_set(const std::string& dir, std::uint64_t fp,
                        std::size_t iter) {
  const std::string stem = snapshot_stem(dir, iter);
  CoreShard core = sample_core(fp);
  core.iteration = iter;
  write_core_shard(stem, core);
  MemoryState state(5, 3, 4);
  write_mem_shard(stem, make_mem_shard(state, fp, iter, 0));
  for (std::size_t r = 0; r < 2; ++r) {
    RankShard rs;
    rs.fingerprint = fp;
    rs.iteration = iter;
    rs.rank = r;
    write_rank_shard(stem, rs);
  }
  CommitShard commit;
  commit.fingerprint = fp;
  commit.iteration = iter;
  commit.world = 2;
  commit.mem_copies = 1;
  write_commit_shard(stem, commit);
}

TEST(Snapshots, LatestValidWinsAndCorruptionFallsBack) {
  const std::string dir = fresh_dir("fallback");
  const std::uint64_t fp = 0x1234ULL;
  write_snapshot_set(dir, fp, 3);
  write_snapshot_set(dir, fp, 6);

  auto latest = find_latest_snapshot(dir, fp, 2, 1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 6u);
  EXPECT_EQ(latest->stem, snapshot_stem(dir, 6));

  // Corrupt the newest core shard: the whole set stops validating and
  // discovery falls back to the previous snapshot.
  std::vector<std::uint8_t> bytes = slurp(snapshot_stem(dir, 6) + ".core");
  bytes.back() ^= 0x01;
  spit(snapshot_stem(dir, 6) + ".core", bytes);
  EXPECT_FALSE(validate_snapshot(snapshot_stem(dir, 6), fp, 2, 1));

  latest = find_latest_snapshot(dir, fp, 2, 1);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 3u);
}

TEST(Snapshots, MissingShardInvalidatesTheSet) {
  const std::string dir = fresh_dir("missing_shard");
  write_snapshot_set(dir, 0x9ULL, 4);
  fs::remove(snapshot_stem(dir, 4) + ".rank1");
  EXPECT_FALSE(validate_snapshot(snapshot_stem(dir, 4), 0x9ULL, 2, 1));
  EXPECT_FALSE(find_latest_snapshot(dir, 0x9ULL, 2, 1).has_value());
}

TEST(Snapshots, FingerprintAndGeometryMismatchesSkipped) {
  const std::string dir = fresh_dir("fp_skip");
  write_snapshot_set(dir, 0xaaULL, 4);
  EXPECT_TRUE(validate_snapshot(snapshot_stem(dir, 4), 0xaaULL, 2, 1));
  EXPECT_FALSE(validate_snapshot(snapshot_stem(dir, 4), 0xbbULL, 2, 1));
  EXPECT_FALSE(validate_snapshot(snapshot_stem(dir, 4), 0xaaULL, 4, 1));
  EXPECT_FALSE(find_latest_snapshot(dir, 0xbbULL, 2, 1).has_value());
}

TEST(Snapshots, RetentionKeepsNewestAndSweepsTmp) {
  const std::string dir = fresh_dir("retain");
  const std::uint64_t fp = 0x5ULL;
  write_snapshot_set(dir, fp, 2);
  write_snapshot_set(dir, fp, 4);
  write_snapshot_set(dir, fp, 6);
  spit(dir + "/ckpt_8.core.tmp", {1, 2, 3});  // interrupted atomic write

  retain_snapshots(dir, 2);

  EXPECT_FALSE(fs::exists(snapshot_stem(dir, 2) + ".commit"));
  EXPECT_FALSE(fs::exists(snapshot_stem(dir, 2) + ".core"));
  EXPECT_FALSE(fs::exists(dir + "/ckpt_8.core.tmp"));
  EXPECT_TRUE(validate_snapshot(snapshot_stem(dir, 4), fp, 2, 1));
  EXPECT_TRUE(validate_snapshot(snapshot_stem(dir, 6), fp, 2, 1));
}

// ---- resuming by hand from a defective set -------------------------------

// A 1x2x1 thread-fabric run of the equivalence config that snapshots
// every iteration. Retention leaves its last two sets, and at every
// boundary one of the two ranks is mid-chain, so one rank shard of each
// set carries a slice. Each test damages a private copy of the sets.
class ResumeDefects : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = std::make_unique<TemporalGraph>(graph_for_equivalence());
    run_dir_ = fresh_dir("resume_defects");
    TrainingConfig cfg = run_config();
    cfg.recovery.checkpoint_dir = run_dir_;
    cfg.recovery.checkpoint_every = 1;
    (void)ThreadedTrainer(cfg, *graph_, nullptr).train();
  }
  static void TearDownTestSuite() { graph_.reset(); }

  static TrainingConfig run_config() {
    TrainingConfig cfg = config_for_equivalence();
    cfg.parallel = {.i = 1, .j = 2, .k = 1};
    return cfg;
  }

  // The run's sets copied into a fresh directory, newest first.
  static std::vector<SnapshotRef> copy_sets(const std::string& tag) {
    const std::string dir = fresh_dir(tag);
    for (const auto& entry : fs::directory_iterator(run_dir_))
      fs::copy_file(entry.path(), dir / entry.path().filename());
    return list_snapshots(dir);
  }

  // ThreadedTrainer's construction restores the replicated state.
  static CheckpointErrc resume_code(const std::string& stem) {
    TrainingConfig cfg = run_config();
    cfg.recovery.resume_from = stem;
    return code_of([&] { ThreadedTrainer{cfg, *graph_, nullptr}; });
  }

  static std::size_t rank_with_slice(const std::string& stem,
                                     const CommitShard& commit) {
    for (std::size_t r = 0; r < commit.world; ++r)
      if (read_rank_shard(stem, commit, r).slice) return r;
    return commit.world;
  }

  // Sets the u64 at payload offset `at` of the container at `path` and
  // reseals its checksum, so only the payload decode can object.
  static void patch_u64(const std::string& path, std::size_t at,
                        std::uint64_t value) {
    constexpr std::size_t kHeader = 24;  // the checksum is its last u32
    std::vector<std::uint8_t> bytes = slurp(path);
    for (std::size_t b = 0; b < 8; ++b)
      bytes[kHeader + at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    const std::uint32_t sum = dist::wire_checksum(
        std::span<const std::uint8_t>(bytes).subspan(kHeader));
    for (std::size_t b = 0; b < 4; ++b)
      bytes[kHeader - 4 + b] = static_cast<std::uint8_t>(sum >> (8 * b));
    spit(path, bytes);
  }

  // Payload offset of a rank shard's slice node count: six u64/f64
  // scalars, then the u32 slice flag — the same in every rank shard.
  static std::size_t slice_nodes_offset(const RankShard&) { return 6 * 8 + 4; }

  static inline std::unique_ptr<TemporalGraph> graph_;
  static inline std::string run_dir_;
};

TEST_F(ResumeDefects, HandSetStemWithoutCommitIsMissingFile) {
  const std::vector<SnapshotRef> sets = copy_sets("no_commit");
  ASSERT_EQ(sets.size(), 2u);
  fs::remove(sets[0].stem + ".commit");
  EXPECT_EQ(resume_code(sets[0].stem), CheckpointErrc::kMissingFile);
}

TEST_F(ResumeDefects, MemShardFromAnEarlierIterationIsFingerprintMismatch) {
  const std::vector<SnapshotRef> sets = copy_sets("stale_mem");
  ASSERT_EQ(sets.size(), 2u);
  fs::copy_file(sets[1].stem + ".mem0", sets[0].stem + ".mem0",
                fs::copy_options::overwrite_existing);
  EXPECT_EQ(resume_code(sets[0].stem), CheckpointErrc::kFingerprintMismatch);
}

TEST_F(ResumeDefects, RowsDeclaringOneNodeFewerAreShapeMismatch) {
  const std::string stem = copy_sets("short_rows").at(0).stem;
  const CommitShard commit = read_commit_shard(stem);
  const std::size_t r = rank_with_slice(stem, commit);
  ASSERT_LT(r, commit.world);
  const RankShard rs = read_rank_shard(stem, commit, r);
  patch_u64(stem + ".rank" + std::to_string(r), slice_nodes_offset(rs),
            rs.slice->size() - 1);
  const MemShard ms = read_mem_shard(stem, commit, 0);
  patch_u64(stem + ".mem0", 3 * 8, ms.rows.size() - 1);

  EXPECT_EQ(code_of([&] { (void)read_rank_shard(stem, commit, r); }),
            CheckpointErrc::kShapeMismatch);
  EXPECT_EQ(code_of([&] { (void)read_mem_shard(stem, commit, 0); }),
            CheckpointErrc::kShapeMismatch);
  EXPECT_FALSE(validate_snapshot(stem, commit.fingerprint, commit.world,
                                 commit.mem_copies));
}

// The same short slice behind a hand-set resume: the resume fails typed
// before the slice is restored, instead of copying every row it holds
// into a buffer sized one row short.
TEST_F(ResumeDefects, ResumedSliceDeclaringOneNodeFewerFailsTyped) {
  const std::string stem = copy_sets("short_slice").at(0).stem;
  const CommitShard commit = read_commit_shard(stem);
  const std::size_t r = rank_with_slice(stem, commit);
  ASSERT_LT(r, commit.world);
  const RankShard rs = read_rank_shard(stem, commit, r);
  patch_u64(stem + ".rank" + std::to_string(r), slice_nodes_offset(rs),
            rs.slice->size() - 1);

  TrainingConfig cfg = run_config();
  cfg.recovery.resume_from = stem;
  EXPECT_EQ(code_of([&] {
              ThreadedTrainer trainer(cfg, *graph_, nullptr);
              (void)trainer.train();
            }),
            CheckpointErrc::kShapeMismatch);
}

// A checksum-sealed core shard one Adam moment short in each array: the
// set fails validation, so discovery falls back to the older set, a
// hand-set resume fails typed at construction instead of tripping the
// optimizer's internal check when the replicas restore their moments,
// and the serving tier's loader, which reads the same core, fails typed.
TEST_F(ResumeDefects, CoreShardOneMomentShortIsShapeMismatch) {
  const std::vector<SnapshotRef> sets = copy_sets("short_moments");
  ASSERT_EQ(sets.size(), 2u);
  const std::string& stem = sets[0].stem;
  const CommitShard commit = read_commit_shard(stem);
  CoreShard core = read_core_shard(stem, commit);
  core.adam_m.pop_back();
  core.adam_v.pop_back();
  write_core_shard(stem, core);
  EXPECT_EQ(code_of([&] { (void)read_core_shard(stem, commit); }),
            CheckpointErrc::kShapeMismatch);

  EXPECT_FALSE(validate_snapshot(stem, commit.fingerprint, commit.world,
                                 commit.mem_copies));
  const std::optional<SnapshotRef> latest =
      find_latest_snapshot(fs::path(stem).parent_path().string(),
                           commit.fingerprint, commit.world, commit.mem_copies);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->stem, sets[1].stem);

  EXPECT_EQ(resume_code(stem), CheckpointErrc::kShapeMismatch);
  EXPECT_EQ(code_of([&] { (void)serving::load_snapshot(stem); }),
            CheckpointErrc::kShapeMismatch);
}

// The set holds Adam's state once, in the core: the optimizer rank 0
// stepped once per completed iteration (every replica steps every
// iteration), one moment of each kind per weight.
TEST_F(ResumeDefects, CoreHoldsTheReplicasOptimizerState) {
  const std::vector<SnapshotRef> sets = list_snapshots(run_dir_);
  ASSERT_EQ(sets.size(), 2u);
  for (const SnapshotRef& set : sets) {
    const CommitShard commit = read_commit_shard(set.stem);
    const CoreShard core = read_core_shard(set.stem, commit);
    EXPECT_EQ(core.adam_steps, commit.iteration) << set.stem;
    EXPECT_EQ(core.adam_m.size(), core.weights.size()) << set.stem;
    EXPECT_TRUE(std::any_of(core.adam_v.begin(), core.adam_v.end(),
                            [](float v) { return v > 0.0f; }))
        << set.stem;
  }
}

// ---- supervisor: restart, resume, chaos ----------------------------------

TemporalGraph recovery_graph() {
  datagen::SynthSpec spec;
  spec.num_src = 40;
  spec.num_dst = 20;
  spec.num_events = 800;
  spec.edge_feat_dim = 4;
  spec.seed = 7;
  return datagen::generate(spec);
}

TrainingConfig recovery_config() {
  TrainingConfig cfg;
  cfg.model.mem_dim = 8;
  cfg.model.time_dim = 4;
  cfg.model.attn_dim = 8;
  cfg.model.emb_dim = 8;
  cfg.model.num_neighbors = 4;
  cfg.model.head_hidden = 8;
  cfg.local_batch = 40;  // 14 batches over the 560-event train split
  cfg.epochs = 1;
  cfg.seed = 11;
  cfg.recovery.backoff_ms = 1;
  return cfg;
}

void expect_bitwise_equal(const ThreadedTrainResult& base,
                          const ThreadedTrainResult& res) {
  ASSERT_EQ(base.weights.size(), res.weights.size());
  for (std::size_t x = 0; x < base.weights.size(); ++x)
    ASSERT_EQ(base.weights[x], res.weights[x]) << "weight " << x;
  EXPECT_EQ(base.loss_sum, res.loss_sum);
  EXPECT_EQ(base.loss_count, res.loss_count);
  EXPECT_EQ(base.final_val, res.final_val);
  EXPECT_EQ(base.final_test, res.final_test);
  ASSERT_EQ(base.memory_digests.size(), res.memory_digests.size());
  for (std::size_t m = 0; m < base.memory_digests.size(); ++m)
    EXPECT_EQ(base.memory_digests[m], res.memory_digests[m])
        << "memory copy " << m;
}

// recovery.checkpoint_dir need not exist: the trainer creates it, with
// its parents, on either fabric, and the run commits its sets there.
TEST(Snapshots, MissingCheckpointDirIsCreatedOnBothFabrics) {
  TemporalGraph g = recovery_graph();
  for (const FabricKind kind : {FabricKind::kThread, FabricKind::kProc}) {
    TrainingConfig cfg = recovery_config();
    cfg.parallel = {.i = 2, .j = 1, .k = 1};
    cfg.fabric.kind = kind;
    cfg.recovery.checkpoint_dir = fresh_dir("missing_dir") + "/run/ckpt";
    cfg.recovery.checkpoint_every = 3;
    ASSERT_FALSE(fs::exists(cfg.recovery.checkpoint_dir));
    (void)train_distributed(cfg, g, nullptr);
    EXPECT_TRUE(find_latest_snapshot(
                    cfg.recovery.checkpoint_dir,
                    config_fingerprint(cfg, g.num_nodes(), g.num_events()),
                    cfg.parallel.total_trainers(), cfg.parallel.k)
                    .has_value())
        << "fabric " << static_cast<int>(kind);
  }
}

// comm_chunk_elems changes no bit of the trajectory, so the fingerprint
// leaves it out: a set written at chunk size 64 resumes by hand at the
// default chunking and lands bitwise where the run that wrote it lands.
TEST(Snapshots, SetWrittenAtOneCommChunkSizeResumesBitwiseAtAnother) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  TrainingConfig writer = cfg;
  writer.comm_chunk_elems = 64;
  writer.recovery.checkpoint_dir = fresh_dir("chunk_resume");
  writer.recovery.checkpoint_every = 2;
  const ThreadedTrainResult base = train_distributed(writer, g, nullptr);
  const std::vector<SnapshotRef> sets =
      list_snapshots(writer.recovery.checkpoint_dir);
  ASSERT_FALSE(sets.empty());

  cfg.recovery.resume_from = sets.back().stem;  // the oldest set kept
  expect_bitwise_equal(base, train_distributed(cfg, g, nullptr));
}

// The same across address spaces: the writer's ranks meet in a segment
// cut into 64-element chunks, the resumed run's in one balanced chunk
// per rank, and the resumed run still lands bitwise on the writer's.
TEST(Snapshots, SetWrittenAtOneCommChunkSizeResumesBitwiseOnProcFabric) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  cfg.fabric.kind = FabricKind::kProc;
  TrainingConfig writer = cfg;
  writer.comm_chunk_elems = 64;
  writer.recovery.checkpoint_dir = fresh_dir("chunk_resume_proc");
  writer.recovery.checkpoint_every = 2;
  const ThreadedTrainResult base = train_distributed(writer, g, nullptr);
  const std::vector<SnapshotRef> sets =
      list_snapshots(writer.recovery.checkpoint_dir);
  ASSERT_FALSE(sets.empty());

  cfg.recovery.resume_from = sets.back().stem;  // the oldest set kept
  expect_bitwise_equal(base, train_distributed(cfg, g, nullptr));
}

// The fingerprint names a trajectory, not a way of running it: the
// fabric and the collective's chunk size leave it as it is, while a
// knob that moves the weights changes it.
TEST(Snapshots, FingerprintLeavesOutFabricAndCommChunking) {
  const TrainingConfig cfg = recovery_config();
  const std::uint64_t fp = config_fingerprint(cfg, 40, 800);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64},
                                  std::size_t{1} << 20}) {
    TrainingConfig c = cfg;
    c.comm_chunk_elems = chunk;
    EXPECT_EQ(config_fingerprint(c, 40, 800), fp) << "chunk " << chunk;
  }
  for (const FabricKind kind : {FabricKind::kProc, FabricKind::kTcp}) {
    TrainingConfig c = cfg;
    c.fabric.kind = kind;
    EXPECT_EQ(config_fingerprint(c, 40, 800), fp)
        << "fabric " << static_cast<int>(kind);
  }

  TrainingConfig clip = cfg;
  clip.grad_clip = cfg.grad_clip / 2;
  EXPECT_NE(config_fingerprint(clip, 40, 800), fp);
  TrainingConfig lr = cfg;
  lr.base_lr = cfg.base_lr * 2;
  EXPECT_NE(config_fingerprint(lr, 40, 800), fp);
  TrainingConfig seed = cfg;
  seed.seed = cfg.seed + 1;
  EXPECT_NE(config_fingerprint(seed, 40, 800), fp);
  EXPECT_NE(config_fingerprint(cfg, 41, 800), fp);
}

// Snapshot sets on disk name their config by this value, so a build that
// hashes the default config differently resumes none of them. Change
// the pin only with a config field that really moves the trajectory.
TEST(Snapshots, DefaultConfigFingerprintIsPinned) {
  EXPECT_EQ(config_fingerprint(TrainingConfig{}, 1000, 20000),
            0xca5ad3e0a85d87e4ULL);
}

TEST(Supervisor, RestartBackoffIsJitteredCappedAndDeterministic) {
  RecoveryConfig rc;
  rc.backoff_ms = 100;
  rc.backoff_cap_ms = 5'000;
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t base = std::min<std::uint64_t>(
        rc.backoff_ms << std::min<std::size_t>(attempt, 20),
        rc.backoff_cap_ms);
    const std::uint64_t got = restart_backoff_ms(rc, 7, attempt);
    // Jitter stays inside [base/2, base] — anti-stampede without ever
    // shortening the wait below half of the exponential schedule.
    EXPECT_GE(got, base / 2) << "attempt " << attempt;
    EXPECT_LE(got, base) << "attempt " << attempt;
    // Same (seed, attempt) replays the same delay; a different seed
    // lands elsewhere in the window (checked in aggregate below).
    EXPECT_EQ(got, restart_backoff_ms(rc, 7, attempt));
  }
  // Differently-seeded supervisors must actually desynchronise.
  bool any_differ = false;
  for (std::size_t attempt = 0; attempt < 12 && !any_differ; ++attempt)
    any_differ = restart_backoff_ms(rc, 7, attempt) !=
                 restart_backoff_ms(rc, 8, attempt);
  EXPECT_TRUE(any_differ) << "jitter ignores the seed";
  // Degenerate bases pass through unjittered (nothing to spread).
  rc.backoff_ms = 0;
  EXPECT_EQ(restart_backoff_ms(rc, 7, 0), 0u);
  rc.backoff_ms = 1;
  EXPECT_EQ(restart_backoff_ms(rc, 7, 0), 1u);
}

TEST(Supervisor, MaxRestartsZeroFailsFastTyped) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 1, .j = 2, .k = 1};
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 1;
  cfg.fabric.fault.kill_iteration = 2;
  ASSERT_EQ(cfg.recovery.max_restarts, 0u);  // the fail-fast default
  try {
    (void)train_supervised(cfg, g);
    FAIL() << "expected FabricError";
  } catch (const dist::FabricError& e) {
    EXPECT_EQ(e.code(), dist::FabricErrc::kInjectedFault);
  }
}

TEST(Supervisor, KilledRunResumesBitwiseOnThreadFabric) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 1, .j = 2, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.recovery.checkpoint_dir = fresh_dir("thread_resume");
  cfg.recovery.checkpoint_every = 3;
  cfg.recovery.max_restarts = 2;
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 1;
  cfg.fabric.fault.kill_iteration = 5;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.resume_stems.size(), 1u);
  EXPECT_EQ(sup.resume_stems[0],
            snapshot_stem(cfg.recovery.checkpoint_dir, 3));
  ASSERT_EQ(sup.failures.size(), 1u);
  EXPECT_NE(sup.failures[0].find("injected"), std::string::npos);
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, ScratchRestartWhenNoSnapshotExists) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.recovery.checkpoint_dir = fresh_dir("scratch");
  cfg.recovery.checkpoint_every = 100;  // never reached before the kill
  cfg.recovery.max_restarts = 1;
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 0;
  cfg.fabric.fault.kill_iteration = 2;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.resume_stems.size(), 1u);
  EXPECT_TRUE(sup.resume_stems[0].empty()) << sup.resume_stems[0];
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, CorruptLatestSnapshotFallsBackToPrevious) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 1, .j = 2, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.recovery.checkpoint_dir = fresh_dir("corrupt_latest");
  cfg.recovery.checkpoint_every = 2;  // snapshots at 2, 4 (keep_last=2)
  cfg.recovery.max_restarts = 1;
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 0;
  cfg.fabric.fault.kill_iteration = 5;
  cfg.fabric.fault.corrupt_latest_checkpoint = true;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.resume_stems.size(), 1u);
  EXPECT_EQ(sup.resume_stems[0],
            snapshot_stem(cfg.recovery.checkpoint_dir, 2));
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, KilledProcessRankResumesBitwise) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.fabric.kind = FabricKind::kProc;
  cfg.fabric.timeout_ms = 2'000;  // surviving ranks fail fast
  cfg.recovery.checkpoint_dir = fresh_dir("proc_resume");
  cfg.recovery.checkpoint_every = 3;
  cfg.recovery.max_restarts = 2;
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 1;  // SIGKILLs itself mid-run
  cfg.fabric.fault.kill_iteration = 4;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.resume_stems.size(), 1u);
  EXPECT_EQ(sup.resume_stems[0],
            snapshot_stem(cfg.recovery.checkpoint_dir, 3));
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, HungRankCaughtByHeartbeatAndRecovered) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.fabric.kind = FabricKind::kProc;
  cfg.fabric.timeout_ms = 5'000;  // heartbeat must win, not the shm timeout
  cfg.recovery.heartbeat_ms = 50;
  cfg.recovery.heartbeat_timeout_ms = 400;
  cfg.recovery.max_restarts = 1;
  cfg.fabric.fault.stall_armed = true;
  cfg.fabric.fault.stall_rank = 0;
  cfg.fabric.fault.stall_iteration = 2;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.failures.size(), 1u);
  EXPECT_NE(sup.failures[0].find("heartbeat"), std::string::npos)
      << sup.failures[0];
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, FsyncBoundCheckpointIsNotAFalseHeartbeatLoss) {
  // A snapshot write longer than the heartbeat timeout must not read as
  // a hung rank: every rank announces the save (pre-write
  // kCheckpointNote), which extends its grace window in ProcGroup::wait.
  // Without the note, this config SIGKILLed a healthy group mid-fsync.
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.fabric.kind = FabricKind::kProc;
  cfg.recovery.checkpoint_dir = fresh_dir("slow_save");
  cfg.recovery.checkpoint_every = 3;
  cfg.recovery.heartbeat_ms = 50;
  cfg.recovery.heartbeat_timeout_ms = 400;
  cfg.recovery.checkpoint_grace_ms = 5'000;  // explicit knob
  cfg.fabric.fault.slow_save_ms = 1'200;     // 3x the heartbeat timeout

  const ThreadedTrainResult res = train_distributed(cfg, g, nullptr);
  expect_bitwise_equal(base, res);
}

TEST(Supervisor, CheckpointGraceDoesNotMaskARealStall) {
  // The grace is scoped to announced saves, not a blanket widening: a
  // rank that hangs in its iteration loop (last frame = plain heartbeat,
  // which clears any grace) is still caught at the beat cadence even
  // with checkpointing and slow saves active in the same run.
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.fabric.kind = FabricKind::kProc;
  cfg.fabric.timeout_ms = 5'000;  // heartbeat must win, not the shm timeout
  cfg.recovery.checkpoint_dir = fresh_dir("grace_stall");
  cfg.recovery.checkpoint_every = 3;
  cfg.recovery.heartbeat_ms = 50;
  cfg.recovery.heartbeat_timeout_ms = 400;
  cfg.recovery.max_restarts = 1;
  cfg.fabric.fault.slow_save_ms = 600;  // saves outlive the beat timeout
  cfg.fabric.fault.stall_armed = true;
  cfg.fabric.fault.stall_rank = 0;
  cfg.fabric.fault.stall_iteration = 4;  // after the iteration-3 snapshot

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.failures.size(), 1u);
  EXPECT_NE(sup.failures[0].find("heartbeat"), std::string::npos)
      << sup.failures[0];
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, KilledTcpRankResumesBitwise) {
  // The supervisor loop is fabric-agnostic: an injected SIGKILL on the
  // TCP fabric (which also severs the leader ring) restarts and resumes
  // bitwise from the latest snapshot, same as the process fabric.
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  const ThreadedTrainResult base = train_distributed(cfg, g, nullptr);

  cfg.fabric.kind = FabricKind::kTcp;
  cfg.fabric.tcp.hosts = 2;
  cfg.fabric.timeout_ms = 2'000;  // surviving ranks fail fast
  cfg.recovery.checkpoint_dir = fresh_dir("tcp_resume");
  cfg.recovery.checkpoint_every = 3;
  cfg.recovery.max_restarts = 2;
  cfg.fabric.fault.kill_armed = true;
  cfg.fabric.fault.kill_rank = 1;
  cfg.fabric.fault.kill_iteration = 4;

  const SupervisedResult sup = train_supervised(cfg, g);
  EXPECT_EQ(sup.restarts, 1u);
  ASSERT_EQ(sup.resume_stems.size(), 1u);
  EXPECT_EQ(sup.resume_stems[0],
            snapshot_stem(cfg.recovery.checkpoint_dir, 3));
  expect_bitwise_equal(base, sup.result);
}

TEST(Supervisor, HungRankFailsTypedWithoutRestartBudget) {
  TemporalGraph g = recovery_graph();
  TrainingConfig cfg = recovery_config();
  cfg.parallel = {.i = 2, .j = 1, .k = 1};
  cfg.fabric.kind = FabricKind::kProc;
  cfg.fabric.timeout_ms = 5'000;
  cfg.recovery.heartbeat_ms = 50;
  cfg.recovery.heartbeat_timeout_ms = 400;
  cfg.fabric.fault.stall_armed = true;
  cfg.fabric.fault.stall_rank = 1;
  cfg.fabric.fault.stall_iteration = 2;
  try {
    (void)train_supervised(cfg, g);
    FAIL() << "expected FabricError";
  } catch (const dist::FabricError& e) {
    EXPECT_EQ(e.code(), dist::FabricErrc::kHeartbeatLost);
  }
}

}  // namespace
}  // namespace disttgl
