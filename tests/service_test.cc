// Tests for the sweep-service layer: the SpoolQueue work-queue protocol
// (claim/done lifecycle, idempotent init, manifest grid-mismatch rejection,
// dead-worker reclaim), spool-drained sweeps matching direct runs
// bit-for-bit, Scenario spec parsing, the ServeCore query tiers
// (LRU hot set / cache store / compute) with batch bit-identity, the LruMap
// eviction policy, cache-store save-failure propagation, and the
// merge_results tool's edge cases (empty shards, missing shard files,
// mixed-backend rows).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/serve.h"
#include "engine/spool.h"
#include "models/zoo.h"
#include "sched/config.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/fnv.h"
#include "util/lru.h"

namespace mbs::engine {
namespace {

namespace fs = std::filesystem;

std::string test_dir(const char* name) {
  const std::string dir = testing::TempDir() + "mbs_svc_" + name + "_" +
                          std::to_string(static_cast<long>(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Scenario mbs2_scenario(const std::string& net = "resnet50") {
  Scenario s;
  s.network = net;
  s.config = sched::ExecConfig::kMbs2;
  return s;
}

/// This host's name as SpoolQueue spells it in claim files.
std::string this_host() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0')
    return "localhost";
  return buf;
}

/// A claim file name as the spool protocol spells it:
/// u<unit>.g<generation>.<host>.<pid>.
std::string claim_name(int unit, long gen, const std::string& host, long pid) {
  std::string name = "u";
  name += std::to_string(unit) + ".g" + std::to_string(gen) + "." + host +
          "." + std::to_string(pid);
  return name;
}

/// Backdates a file's mtime by `ms` milliseconds (simulates a claim whose
/// owner stopped heartbeating that long ago).
void age_file(const std::string& path, long ms) {
  struct timespec now;
  ASSERT_EQ(clock_gettime(CLOCK_REALTIME, &now), 0);
  struct timespec stale = now;
  stale.tv_sec -= ms / 1000;
  stale.tv_nsec -= (ms % 1000) * 1000000L;
  if (stale.tv_nsec < 0) {
    stale.tv_nsec += 1000000000L;
    --stale.tv_sec;
  }
  const struct timespec times[2] = {stale, stale};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool step_equal(const sim::StepResult& a, const sim::StepResult& b) {
  return a.time_s == b.time_s && a.dram_bytes == b.dram_bytes &&
         a.buffer_bytes == b.buffer_bytes && a.total_macs == b.total_macs &&
         a.systolic_utilization == b.systolic_utilization &&
         a.compute_time_s == b.compute_time_s &&
         a.memory_time_s == b.memory_time_s;
}

// ---- SpoolQueue -------------------------------------------------------------

TEST(SpoolQueue, ClaimDoneLifecycleDrainsEveryUnitOnce) {
  const std::string dir = test_dir("spool_lifecycle");
  SpoolQueue q(dir, 0x1234u, 3);
  q.init();
  EXPECT_EQ(q.unit_count(), 3u);
  EXPECT_EQ(q.done_count(), 0u);
  EXPECT_FALSE(q.all_done());

  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const int u = q.claim();
    ASSERT_GE(u, 0);
    ASSERT_LT(u, 3);
    EXPECT_FALSE(seen[static_cast<std::size_t>(u)]) << "unit claimed twice";
    seen[static_cast<std::size_t>(u)] = true;
    q.mark_done(u);
  }
  EXPECT_EQ(q.claim(), -1);  // nothing left
  EXPECT_EQ(q.done_count(), 3u);
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, InitIsIdempotentAndSkipsFinishedUnits) {
  const std::string dir = test_dir("spool_idem");
  {
    SpoolQueue q(dir, 0xabcdu, 2);
    q.init();
    const int u = q.claim();
    ASSERT_GE(u, 0);
    q.mark_done(u);
  }
  // A late-joining worker re-inits the same queue: the done unit must not
  // reappear in todo, and the drain finishes with each unit done once.
  SpoolQueue late(dir, 0xabcdu, 2);
  late.init();
  EXPECT_EQ(late.done_count(), 1u);
  const int u = late.claim();
  ASSERT_GE(u, 0);
  late.mark_done(u);
  EXPECT_TRUE(late.all_done());
  EXPECT_EQ(late.claim(), -1);
  fs::remove_all(dir);
}

TEST(SpoolQueueDeathTest, ManifestGridMismatchAborts) {
  const std::string dir = test_dir("spool_mismatch");
  SpoolQueue q(dir, 0x1111u, 4);
  q.init();
  // Same directory, different grid: fingerprint and unit count disagree
  // with the manifest — the worker must refuse rather than mix grids.
  SpoolQueue other_fp(dir, 0x2222u, 4);
  EXPECT_DEATH(other_fp.init(), "different grid");
  SpoolQueue other_count(dir, 0x1111u, 5);
  EXPECT_DEATH(other_count.init(), "different grid");
  fs::remove_all(dir);
}

TEST(SpoolQueueDeathTest, SeqAxisChangesGridFingerprint) {
  // A seq override changes every member cache key, and with it the drain
  // fingerprint — so a worker draining a seq=256 grid pointed at the
  // default grid's queue directory refuses rather than mixing the grids.
  Scenario base = mbs2_scenario("vit_small");
  Scenario longer = base;
  longer.seq = 256;
  const std::uint64_t fp_base = util::fnv1a64(base.cache_key());
  const std::uint64_t fp_longer = util::fnv1a64(longer.cache_key());
  ASSERT_NE(fp_base, fp_longer);

  const std::string dir = test_dir("spool_seq");
  SpoolQueue q(dir, fp_base, 1);
  q.init();
  SpoolQueue other(dir, fp_longer, 1);
  EXPECT_DEATH(other.init(), "different grid");
  fs::remove_all(dir);
}

TEST(SpoolQueue, DeadOwnersClaimIsReclaimed) {
  const std::string dir = test_dir("spool_reclaim");
  SpoolQueue q(dir, 0x77u, 1);
  q.init();
  // Simulate a crashed same-host worker: move the unit into claimed/ under
  // a pid that cannot exist (far above any kernel pid limit), as if the
  // owner died mid-evaluation. Same host => the pid probe detects death
  // immediately, no lease wait.
  ASSERT_EQ(
      std::rename(
          (dir + "/todo/u0").c_str(),
          (dir + "/claimed/" + claim_name(0, 1, this_host(), 999999999))
              .c_str()),
      0);
  EXPECT_EQ(q.done_count(), 0u);
  const int u = q.claim();  // takeover-renames the dead claim to itself
  EXPECT_EQ(u, 0);
  q.mark_done(0);
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, CrossHostStaleClaimWaitsForLeaseExpiry) {
  const std::string dir = test_dir("spool_xhost");
  ::setenv("MBS_SPOOL_LEASE_MS", "120", 1);
  SpoolQueue q(dir, 0x79u, 1);
  q.init();
  // A claim from another machine: the pid is meaningless here (pid 1 is
  // alive on every Linux box — that must NOT make the claim look alive),
  // so only the mtime lease can decide.
  const std::string stale =
      dir + "/claimed/" + claim_name(0, 1, "builder-07.example.com", 1);
  ASSERT_EQ(std::rename((dir + "/todo/u0").c_str(), stale.c_str()), 0);
  // Fresh mtime: the remote owner could still be heartbeating.
  EXPECT_EQ(q.claim(), -1);
  // Backdate past the lease: now it is reclaimable.
  age_file(stale, 1000);
  EXPECT_EQ(q.claim(), 0);
  q.mark_done(0);
  EXPECT_TRUE(q.all_done());
  ::unsetenv("MBS_SPOOL_LEASE_MS");
  fs::remove_all(dir);
}

TEST(SpoolQueue, PoisonedUnitIsQuarantinedInFailed) {
  const std::string dir = test_dir("spool_poison");
  SpoolQueue q(dir, 0x7au, 2);
  q.init();
  // A unit whose claim generation already reached the poison limit
  // (default 3): three workers died holding it. It must move to failed/
  // rather than be handed to a fourth victim.
  ASSERT_EQ(
      std::rename(
          (dir + "/todo/u0").c_str(),
          (dir + "/claimed/" + claim_name(0, 3, this_host(), 999999999))
              .c_str()),
      0);
  const int u = q.claim();  // todo/ first: the healthy unit
  EXPECT_EQ(u, 1);
  q.mark_done(1);
  // The next claim finds todo/ empty and sweeps claimed/: the poisoned
  // unit moves to failed/ instead of being handed out.
  EXPECT_EQ(q.claim(), -1);
  EXPECT_TRUE(fs::exists(dir + "/failed/u0"));
  EXPECT_EQ(q.failed_count(), 1u);
  EXPECT_EQ(q.done_count(), 1u);
  // failed counts toward completion: the drain terminates instead of
  // spinning forever on a unit that kills every owner.
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolQueue, RefreshClaimAdvancesTheLease) {
  const std::string dir = test_dir("spool_lease");
  SpoolQueue q(dir, 0x7bu, 1);
  q.init();
  ASSERT_EQ(q.claim(), 0);
  // Find the claim file and backdate it as if the heartbeat had stalled.
  std::string claim;
  for (const auto& e : fs::directory_iterator(dir + "/claimed"))
    claim = e.path().string();
  ASSERT_FALSE(claim.empty());
  age_file(claim, 10000);
  struct stat before;
  ASSERT_EQ(::stat(claim.c_str(), &before), 0);
  EXPECT_TRUE(q.refresh_claim(0));
  struct stat after;
  ASSERT_EQ(::stat(claim.c_str(), &after), 0);
  EXPECT_GT(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  q.mark_done(0);
  fs::remove_all(dir);
}

TEST(SpoolQueue, DoneMarkerOutranksStaleClaim) {
  const std::string dir = test_dir("spool_doneclaim");
  SpoolQueue q(dir, 0x88u, 1);
  q.init();
  // A worker that crashed between writing the done marker and releasing
  // its claim leaves both behind. The unit must NOT be re-executed: the
  // done marker wins and the stale claim is swept away.
  const int u = q.claim();
  ASSERT_EQ(u, 0);
  q.mark_done(0);
  const std::string stale =
      dir + "/claimed/" + claim_name(0, 1, this_host(), 999999999);
  std::ofstream(stale) << "stale";
  EXPECT_EQ(q.claim(), -1);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(q.all_done());
  fs::remove_all(dir);
}

TEST(SpoolDrain, SingleWorkerSpoolSweepMatchesDirectRunBitForBit) {
  const std::string dir = test_dir("spool_e2e");

  std::vector<Scenario> grid;
  for (const char* net : {"alexnet", "resnet50"})
    for (const sched::ExecConfig cfg :
         {sched::ExecConfig::kBaseline, sched::ExecConfig::kMbs2}) {
      Scenario s = mbs2_scenario(net);
      s.config = cfg;
      grid.push_back(s);
    }
  Scenario sys = mbs2_scenario("alexnet");
  sys.device = Device::kSystolic;
  grid.push_back(sys);

  Evaluator direct_eval;
  const auto direct = SweepRunner().run(grid, direct_eval);

  CacheStore store(dir + "/cache/evaluator.mbscache");
  Evaluator spool_eval(&store);
  SweepOptions opts;
  opts.spool_dir = dir + "/spool";
  const auto spooled = SweepRunner(opts).run(grid, spool_eval);

  ASSERT_EQ(spooled.size(), direct.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(step_equal(spooled[i].step, direct[i].step))
        << "scenario " << i;
    EXPECT_EQ(spooled[i].systolic.time_s, direct[i].systolic.time_s);
  }
  fs::remove_all(dir);
}

// ---- parse_scenario ---------------------------------------------------------

TEST(ParseScenario, RoundTripsEveryAxis) {
  Scenario s;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      "net=resnet50;cfg=MBS2;buf=8388608;mb=64;opt=1;var=noncontiguous;"
      "dev=systolic;df=ws;spad=262144;stage=simulate",
      &s, &error))
      << error;
  EXPECT_EQ(s.network, "resnet50");
  EXPECT_EQ(s.config, sched::ExecConfig::kMbs2);
  EXPECT_EQ(s.params.buffer_bytes, 8388608);
  EXPECT_EQ(s.params.mini_batch, 64);
  EXPECT_TRUE(s.params.optimal_grouping);
  EXPECT_EQ(s.params.variant, sched::GroupingVariant::kNonContiguous);
  EXPECT_EQ(s.device, Device::kSystolic);
  EXPECT_EQ(s.systolic.dataflow, arch::Dataflow::kWeightStationary);
  EXPECT_EQ(s.stage, Stage::kSimulate);

  // Keys derive from the parsed fields, so two spellings of one scenario
  // (reordered keys, stray semicolons, whitespace) share cache keys.
  Scenario t;
  ASSERT_TRUE(parse_scenario(
      " stage=simulate; dev=systolic ;df=ws;spad=262144;; mb=64;opt=1;"
      "var=noncontiguous;buf=8388608;cfg=MBS2;net=resnet50 ",
      &t, &error))
      << error;
  EXPECT_EQ(t.cache_key(), s.cache_key());
}

TEST(ParseScenario, RejectsMalformedSpecsWithReasons) {
  Scenario s;
  std::string error;
  EXPECT_FALSE(parse_scenario("", &s, &error));
  EXPECT_FALSE(parse_scenario("cfg=MBS2", &s, &error));  // net required
  EXPECT_NE(error.find("net"), std::string::npos);
  EXPECT_FALSE(parse_scenario("net=alexnet;cfg=MBS9", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;dev=tpu", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;buf=0", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;buf=8m", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;stage=warp", &s, &error));
  EXPECT_FALSE(parse_scenario("net=alexnet;bogus=1", &s, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

// ---- LruMap -----------------------------------------------------------------

TEST(LruMap, EvictsLeastRecentlyUsedAtCapacity) {
  util::LruMap<int> lru(2);
  lru.put("a", 1);
  lru.put("b", 2);
  ASSERT_NE(lru.get("a"), nullptr);  // refresh a: b is now LRU
  lru.put("c", 3);                   // evicts b
  EXPECT_EQ(lru.get("b"), nullptr);
  ASSERT_NE(lru.get("a"), nullptr);
  EXPECT_EQ(*lru.get("a"), 1);
  ASSERT_NE(lru.get("c"), nullptr);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(LruMap, PutRefreshesExistingKeyWithoutEviction) {
  util::LruMap<int> lru(2);
  lru.put("a", 1);
  lru.put("b", 2);
  lru.put("a", 10);  // refresh, not insert: nothing evicted
  EXPECT_EQ(lru.evictions(), 0u);
  EXPECT_EQ(*lru.get("a"), 10);
  lru.put("c", 3);  // now b (the LRU) goes
  EXPECT_EQ(lru.get("b"), nullptr);
  EXPECT_NE(lru.get("a"), nullptr);
}

// ---- ServeCore --------------------------------------------------------------

TEST(ServeCore, AnswersAreBitIdenticalToBatchEvaluator) {
  const std::vector<std::string> specs = {
      "net=alexnet;cfg=MBS2;buf=8388608",
      "net=alexnet;cfg=MBS2;dev=systolic;buf=8388608",
      "net=alexnet;dev=gpu",
      "net=alexnet;cfg=MBS2;stage=schedule",
      "net=alexnet;cfg=MBS2;stage=traffic",
      "net=alexnet;stage=network",
      "net=vit_small;seq=256;cfg=MBS2;stage=traffic",
  };
  Evaluator batch;
  ServeCore core(nullptr);
  for (const std::string& spec : specs) {
    Scenario s;
    std::string error;
    ASSERT_TRUE(parse_scenario(spec, &s, &error)) << spec << ": " << error;
    const std::string expected =
        ServeCore::format_answer(s, evaluate_scenario(s, batch));
    const ServeCore::Answer a = core.query(spec);
    ASSERT_TRUE(a.ok) << spec << ": " << a.text;
    EXPECT_EQ(a.text, expected) << spec;
  }
}

TEST(ServeCore, TiersClassifyHotStoreAndComputed) {
  const std::string dir = test_dir("serve_tiers");
  const std::string path = dir + "/evaluator.mbscache";

  // Pre-warm the store with one scenario through the batch path.
  const std::string warm_spec = "net=alexnet;cfg=MBS2;buf=8388608";
  Scenario warm;
  std::string error;
  ASSERT_TRUE(parse_scenario(warm_spec, &warm, &error));
  {
    CacheStore store(path);
    Evaluator eval(&store);
    // evaluate_scenario, not eval.step(): the serve path touches every
    // stage a batch sweep row does (including traffic), and the store is
    // only "warm" for a key when all of them are on disk.
    evaluate_scenario(warm, eval);
    ASSERT_TRUE(store.save());
  }

  CacheStore store(path);
  ServeCore core(&store, /*hot_capacity=*/1);
  // Warm key, cold LRU: served from the store.
  ServeCore::Answer a = core.query(warm_spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);
  // Same key again: now resident in the hot set.
  a = core.query(warm_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kHot);
  // A key no sweep ever computed: the compute tier, written through.
  const std::string cold_spec = "net=alexnet;cfg=MBS1;buf=4194304";
  a = core.query(cold_spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kComputed);
  // The cold query evicted the warm key (capacity 1), but the store still
  // answers it without recomputing.
  a = core.query(warm_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);
  // And the written-through cold key now store-hits a FRESH core (fresh
  // LRU, fresh store instance): write-through really persisted it.
  CacheStore store2(path);
  ServeCore core2(&store2, 1);
  a = core2.query(cold_spec);
  EXPECT_EQ(a.source, ServeCore::Source::kStore);

  const ServeStats st = core.stats();
  EXPECT_EQ(st.queries, 4u);
  EXPECT_EQ(st.hot_hits, 1u);
  EXPECT_EQ(st.store_hits, 2u);
  EXPECT_EQ(st.computed, 1u);
  EXPECT_EQ(st.errors, 0u);
  fs::remove_all(dir);
}

TEST(ServeCore, MalformedAndUnknownQueriesAreCleanErrors) {
  ServeCore core(nullptr);
  ServeCore::Answer a = core.query("cfg=MBS2");
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.source, ServeCore::Source::kError);
  a = core.query("net=notanet");
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("notanet"), std::string::npos);
  a = core.query("net=alexnet;dev=abacus");
  EXPECT_FALSE(a.ok);
  // seq validation is a serve-side check: the parse accepts any
  // non-negative token count, but the query must fail cleanly when the
  // network cannot take it.
  a = core.query("net=vit_small;seq=200;cfg=MBS2");  // not a perfect square
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("perfect square"), std::string::npos);
  a = core.query("net=alexnet;seq=16");  // CNNs have no sequence axis
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.text.find("no sequence-length axis"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 5u);
  EXPECT_EQ(core.stats().queries, 5u);
}

// ---- CacheStore save-failure propagation ------------------------------------

TEST(CacheStoreSave, UnwritableDirectoryPropagatesFailure) {
  const std::string dir = test_dir("save_fail");
  // The store path's parent is a regular FILE, so no entry (nor the shard
  // directory) can ever be created — every write must fail loudly, not
  // vanish. (A permission-bit test would be bypassed by root, which CI
  // containers run as; a file-in-the-way fails for every uid.)
  std::ofstream(dir + "/blocker") << "not a directory";
  const std::string path = dir + "/blocker/evaluator.mbscache";

  CacheStore store(path);
  Evaluator eval(&store);
  eval.step(mbs2_scenario("alexnet"));
  EXPECT_TRUE(store.dirty());
  EXPECT_FALSE(store.save());
  EXPECT_GT(store.save_failures(), 0u);
  // The entries stay dirty: a later save to a fixed-up path would retry
  // rather than silently dropping them.
  EXPECT_TRUE(store.dirty());
  EXPECT_FALSE(store.save());
  fs::remove_all(dir);
}

// ---- Fault registry ---------------------------------------------------------

class FaultTest : public testing::Test {
 protected:
  void TearDown() override { util::fault_clear(); }
};

TEST_F(FaultTest, FailNthFiresExactlyOnce) {
  ASSERT_TRUE(util::fault_arm("x.site:fail@2"));
  EXPECT_FALSE(util::fault_point("x.site").fail);  // call 1
  EXPECT_TRUE(util::fault_point("x.site").fail);   // call 2: the injection
  EXPECT_FALSE(util::fault_point("x.site").fail);  // call 3
  EXPECT_FALSE(util::fault_point("other.site").fail);  // unarmed site
  EXPECT_EQ(util::fault_injection_count(), 1);
}

TEST_F(FaultTest, EveryKthFiresPeriodically) {
  ASSERT_TRUE(util::fault_arm("y.site:every@3"));
  int failures = 0;
  for (int i = 0; i < 9; ++i)
    if (util::fault_point("y.site").fail) ++failures;
  EXPECT_EQ(failures, 3);  // calls 3, 6, 9
}

TEST_F(FaultTest, TornCarriesTheByteBudget) {
  ASSERT_TRUE(util::fault_arm("z.site:torn@1/17"));
  const util::FaultDecision d = util::fault_point("z.site");
  EXPECT_FALSE(d.fail);
  EXPECT_TRUE(d.torn);
  EXPECT_EQ(d.torn_bytes, 17);
  EXPECT_FALSE(util::fault_point("z.site").torn);  // only the 1st call
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  EXPECT_FALSE(util::fault_arm("nosep"));
  EXPECT_FALSE(util::fault_arm("s:unknown@1"));
  EXPECT_FALSE(util::fault_arm("s:fail@0"));      // counts are 1-based
  EXPECT_FALSE(util::fault_arm("s:fail@abc"));
  EXPECT_FALSE(util::fault_arm("s:torn@1"));      // torn needs /bytes
  EXPECT_TRUE(util::fault_arm("s:fail@1,t:every@2"));  // list form parses
}

TEST_F(FaultTest, TornWriteLeavesTruncatedFileButReportsSuccess) {
  const std::string dir = test_dir("fault_torn");
  ASSERT_TRUE(util::fault_arm("w.site:torn@1/5"));
  // The torn write must land on the FINAL path (bypassing the tmp+rename
  // protection — that is the failure mode being simulated) and still
  // report success, exactly like a kernel that acked a write it then lost.
  EXPECT_TRUE(util::fs::write_atomic(dir + "/f", "0123456789", "w.site"));
  std::ifstream in(dir + "/f", std::ios::binary);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "01234");
  // Next write is clean and atomic again.
  EXPECT_TRUE(util::fs::write_atomic(dir + "/f", "0123456789", "w.site"));
  fs::remove_all(dir);
}

TEST_F(FaultTest, InjectedEioFailsTheOperationCleanly) {
  const std::string dir = test_dir("fault_eio");
  ASSERT_TRUE(util::fs::write_atomic(dir + "/a", "x", "q.site"));
  ASSERT_TRUE(util::fault_arm("q.site:fail@1"));
  EXPECT_FALSE(util::fs::write_atomic(dir + "/b", "y", "q.site"));
  EXPECT_FALSE(fs::exists(dir + "/b"));  // EIO means nothing was written
  EXPECT_TRUE(fs::exists(dir + "/a"));
  fs::remove_all(dir);
}

TEST_F(FaultTest, SaveRetriesPastATransientWriteFailure) {
  const std::string dir = test_dir("fault_retry");
  ::setenv("MBS_CACHE_RETRY_MS", "1", 1);
  // First write attempt per entry can fail: the bounded retry must land
  // the entry anyway, and a reload must see it.
  ASSERT_TRUE(util::fault_arm("cache.entry.write:fail@1"));
  const Scenario s = mbs2_scenario("alexnet");
  {
    CacheStore store(dir + "/evaluator.mbscache");
    Evaluator eval(&store);
    eval.step(s);
    EXPECT_TRUE(store.save());
    EXPECT_EQ(store.save_failures(), 0u);
  }
  EXPECT_GT(util::fault_injection_count(), 0);
  util::fault_clear();
  CacheStore reload(dir + "/evaluator.mbscache");
  Evaluator eval(&reload);
  eval.step(s);
  EXPECT_GT(reload.loaded_entries(), 0u);
  ::unsetenv("MBS_CACHE_RETRY_MS");
  fs::remove_all(dir);
}

// ---- env_int ----------------------------------------------------------------

TEST(EnvInt, ParsesValidatesAndFallsBack) {
  ::setenv("MBS_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 42);
  ::setenv("MBS_TEST_ENV_INT", "1x", 1);  // trailing junk
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "banana", 1);
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "101", 1);  // above hi
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "-1", 1);  // below lo
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "", 1);  // empty string == unset
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::unsetenv("MBS_TEST_ENV_INT");
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 7);
  ::setenv("MBS_TEST_ENV_INT", "100", 1);  // bounds are inclusive
  EXPECT_EQ(util::env_int("MBS_TEST_ENV_INT", 7, 0, 100), 100);
  ::unsetenv("MBS_TEST_ENV_INT");
}

// ---- ServeCore degradation --------------------------------------------------

TEST(ServeCore, CorruptStoreEntryDegradesGracefullyToRecompute) {
  const std::string dir = test_dir("serve_degraded");
  const std::string path = dir + "/evaluator.mbscache";
  const std::string spec = "net=alexnet;cfg=MBS2;buf=8388608";
  Scenario s;
  std::string error;
  ASSERT_TRUE(parse_scenario(spec, &s, &error));

  Evaluator batch;
  const std::string expected =
      ServeCore::format_answer(s, evaluate_scenario(s, batch));

  {
    CacheStore store(path);
    Evaluator eval(&store);
    evaluate_scenario(s, eval);
    ASSERT_TRUE(store.save());
  }
  // Flip a byte in every step-stage record: the serve path must detect the
  // damage (checksum), quarantine, recompute, and still answer correctly.
  std::size_t flipped = 0;
  for (const auto& e : fs::recursive_directory_iterator(path + ".d/step")) {
    if (!e.is_regular_file()) continue;
    std::string bytes = slurp(e.path().string());
    ASSERT_GT(bytes.size(), 40u);
    // Near the end: inside the record body, where only the checksum (not a
    // header token mismatch) can catch the damage.
    bytes[bytes.size() - 20] ^= 0x01;
    std::ofstream(e.path(), std::ios::binary | std::ios::trunc) << bytes;
    ++flipped;
  }
  ASSERT_GT(flipped, 0u);

  CacheStore store(path);
  ServeCore core(&store, 4);
  const ServeCore::Answer a = core.query(spec);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.text, expected);
  const ServeStats st = core.stats();
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.degraded, 1u);
  EXPECT_GT(store.corrupt_entries(), 0u);
  // The damaged record was quarantined, not deleted or left in place.
  EXPECT_TRUE(fs::exists(path + ".d/quarantine"));
  fs::remove_all(dir);
}

// ---- merge_results tool edge cases ------------------------------------------

/// Locates the merge_results binary: $MBS_MERGE_RESULTS when set (the CMake
/// test property), else next to the build's cwd (ctest runs from the build
/// directory). Empty when unavailable — callers skip.
std::string merge_results_binary() {
  if (const char* env = std::getenv("MBS_MERGE_RESULTS"); env && *env)
    return env;
  if (fs::exists("merge_results")) return "./merge_results";
  return "";
}

int run_tool(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Writes `rows` sharded N ways into `dir` as <stem>.shard<i>of<N>.{csv,json}
/// (round-robin row i -> shard i%N, the engine's MBS_SHARD export layout)
/// and returns the unsharded reference documents (csv, json).
std::pair<std::string, std::string> write_shards(
    const std::string& dir, const std::string& stem, const std::string& title,
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows, int count) {
  for (int i = 0; i < count; ++i) {
    ResultSink shard(title, headers);
    for (std::size_t j = static_cast<std::size_t>(i); j < rows.size();
         j += static_cast<std::size_t>(count))
      shard.add_row(rows[j]);
    const std::string base = dir + "/" + stem + ".shard" + std::to_string(i) +
                             "of" + std::to_string(count);
    std::ofstream csv(base + ".csv", std::ios::binary);
    shard.write_csv(csv);
    std::ofstream json(base + ".json", std::ios::binary);
    shard.write_json(json);
  }
  ResultSink ref(title, headers);
  for (const auto& row : rows) ref.add_row(row);
  std::ostringstream csv, json;
  ref.write_csv(csv);
  ref.write_json(json);
  return {csv.str(), json.str()};
}

TEST(MergeResultsTool, EmptyShardsOfAShortTableMergeByteIdentically) {
  const std::string bin = merge_results_binary();
  if (bin.empty()) GTEST_SKIP() << "merge_results binary not found";
  const std::string dir = test_dir("merge_empty");

  // 7-way shard of a 5-row table: shards 5 and 6 export header-only
  // documents, which must still parse and contribute zero rows.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 5; ++i)
    rows.push_back({"net" + std::to_string(i), std::to_string(i * 1.5),
                    std::to_string(1 << i)});
  const auto [ref_csv, ref_json] = write_shards(
      dir, "short_table", "Fig. T: empty-shard merge",
      {"network", "time", "bytes"}, rows, 7);

  ASSERT_EQ(run_tool(bin + " " + dir + " > " + dir + "/out.log 2>&1"), 0)
      << slurp(dir + "/out.log");
  EXPECT_EQ(slurp(dir + "/short_table.csv"), ref_csv);
  EXPECT_EQ(slurp(dir + "/short_table.json"), ref_json);
  fs::remove_all(dir);
}

TEST(MergeResultsTool, MissingShardFileFailsLoudly) {
  const std::string bin = merge_results_binary();
  if (bin.empty()) GTEST_SKIP() << "merge_results binary not found";
  const std::string dir = test_dir("merge_missing");

  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 6; ++i) {
    std::string row = "r";
    row += std::to_string(i);
    rows.push_back({row, "1"});
  }
  write_shards(dir, "gappy", "Fig. T: missing shard", {"row", "v"}, rows, 3);
  // Lose one export file (a worker died before flushing): the tool must
  // refuse the whole group, not silently merge a 2/3 document.
  ASSERT_TRUE(fs::remove(dir + "/gappy.shard1of3.csv"));

  EXPECT_NE(run_tool(bin + " " + dir + " > " + dir + "/out.log 2> " + dir +
                     "/err.log"),
            0);
  EXPECT_NE(slurp(dir + "/err.log").find("has 2 of 3 shard files"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/gappy.csv"));
  fs::remove_all(dir);
}

TEST(MergeResultsTool, MixedBackendRowsSurviveTheRoundTrip) {
  const std::string bin = merge_results_binary();
  if (bin.empty()) GTEST_SKIP() << "merge_results binary not found";
  const std::string dir = test_dir("merge_mixed");

  // Rows shaped like a mixed analytic/systolic table: hex-float cells,
  // "-" placeholders for fields one backend lacks, embedded commas in the
  // quoted title. Byte fidelity through parse -> merge -> re-serialize is
  // the whole contract.
  const std::vector<std::vector<std::string>> rows = {
      {"alexnet", "wave", "0x1.91a2b3c4d5e6fp-3", "-", "123456789"},
      {"alexnet", "systolic", "0x1.91a2b3c4d5e70p-3", "8192", "123456789"},
      {"resnet50", "wave", "0x1.0p+0", "-", "987654321"},
      {"resnet50", "systolic", "0x1.0000000000001p+0", "16384", "987654321"},
      {"vit_small", "wave", "0x1.8p-2", "-", "55"},
  };
  const auto [ref_csv, ref_json] = write_shards(
      dir, "mixed", "Fig. T: analytic vs cycle, mixed rows",
      {"network", "backend", "time_s", "stall_cycles", "macs"}, rows, 2);

  ASSERT_EQ(run_tool(bin + " " + dir + " > " + dir + "/out.log 2>&1"), 0)
      << slurp(dir + "/out.log");
  EXPECT_EQ(slurp(dir + "/mixed.csv"), ref_csv);
  EXPECT_EQ(slurp(dir + "/mixed.json"), ref_json);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mbs::engine
