// Chaos soak: the service layer's crash-consistency contract, under fire.
//
// The sweep service's promise is that worker crashes, I/O errors, torn
// writes, and byte-level store corruption change *when* work happens but
// never *what* comes out: the merged sweep output is byte-identical to a
// fault-free run, and a served answer is byte-identical to the storeless
// reference. This bench makes that promise falsifiable on every run:
//
//   1. Reference: evaluate the grid storeless (no cache, no spool) and
//      render the canonical ResultSink CSV/JSON bytes + per-scenario
//      ServeCore answers.
//   2. Chaos drain: repeatedly fork a worker against one shared spool +
//      cache store, each round arming a seeded random MBS_FAULTS schedule
//      (crash mid-claim, EIO on pack/done writes, torn pack writes) —
//      and, between rounds, corrupting a random store pack on disk
//      (truncation or a flipped byte).
//   3. Clean finish: drain the remainder fault-free and materialize the
//      sweep warm from the (battered) store. The rendered CSV/JSON must
//      equal the reference bytes exactly.
//   4. Serve under corruption: damage every step pack, then
//      query every scenario through ServeCore. Every answer must match
//      the reference; the corruption must surface as `degraded` (graceful
//      re-evaluation), never as a wrong answer or a daemon error.
//
// Any violation exits nonzero. MBS_CHAOS_SEED picks the fault schedule
// (default 42, what CI pins); MBS_CHAOS_ROUNDS the number of chaos
// workers (default 8); MBS_CHAOS_DIR the scratch root (default: a fresh
// mkdtemp under /tmp). Exports chaos_grid_ref / chaos_grid via
// MBS_RESULT_DIR for the CI byte-identity cmp.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/cache_store.h"
#include "engine/result_sink.h"
#include "engine/scenario.h"
#include "engine/serve.h"
#include "engine/sweep_runner.h"
#include "models/zoo.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

namespace fsys = std::filesystem;
using namespace mbs;

std::string num(long v) { return std::to_string(v); }

/// One round's fault schedule: every entry deterministic in the rng.
std::string pick_faults(util::Rng& rng) {
  switch (rng.uniform_int(5)) {
    case 0:
      return "spool.unit.start:crash@" + num(1 + (long)rng.uniform_int(3));
    case 1:
      return "cache.pack.write:fail@" + num(1 + (long)rng.uniform_int(4));
    case 2:
      return "cache.pack.write:torn@" + num(1 + (long)rng.uniform_int(4)) +
             "/" + num(8 + (long)rng.uniform_int(160));
    case 3:
      return "spool.done.write:fail@1,spool.unit.start:crash@" +
             num(2 + (long)rng.uniform_int(2));
    default:
      return "cache.entry.read:fail@" + num(1 + (long)rng.uniform_int(6));
  }
}

/// All .pack files under `dir` (skipping quarantine/), sorted for a
/// deterministic pick order.
std::vector<std::string> list_packs(const std::string& dir) {
  std::vector<std::string> packs;
  std::error_code ec;
  for (fsys::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    const std::string p = it->path().string();
    if (p.size() > 5 && p.compare(p.size() - 5, 5, ".pack") == 0 &&
        p.find("/quarantine/") == std::string::npos)
      packs.push_back(p);
  }
  std::sort(packs.begin(), packs.end());
  return packs;
}

bool read_bytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void write_bytes(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Damages `path` in place: truncation (a torn write as a crash would
/// leave it) or one flipped byte (bit rot). Non-atomic on purpose.
void damage_file(util::Rng& rng, const std::string& path) {
  std::string bytes;
  if (!read_bytes(path, &bytes) || bytes.size() < 4) return;
  if (rng.uniform_int(2) == 0) {
    bytes.resize(1 + rng.uniform_int(bytes.size() - 1));
  } else {
    bytes[rng.uniform_int(bytes.size())] ^= 0x20;
  }
  write_bytes(path, bytes);
}

/// The canonical rendering of the grid: one row per scenario, the answer
/// cell carrying every %.17g metric. Byte equality of two renderings is
/// double-bit equality of every result.
engine::ResultSink render(const std::vector<std::string>& specs,
                          const std::vector<std::string>& answers) {
  engine::ResultSink sink("chaos soak grid", {"spec", "answer"});
  for (std::size_t i = 0; i < specs.size(); ++i)
    sink.add_row({specs[i], answers[i]});
  return sink;
}

std::string csv_of(const engine::ResultSink& sink) {
  std::ostringstream os;
  sink.write_csv(os);
  return os.str();
}

std::string json_of(const engine::ResultSink& sink) {
  std::ostringstream os;
  sink.write_json(os);
  return os.str();
}

}  // namespace

int main() {
  // The chaos loop forks workers; a single-threaded parent keeps
  // fork-while-threaded hazards out of the picture (the pool never spins
  // up, and drain heartbeat threads are joined before each fork).
  util::set_thread_budget(1);

  std::string root;
  if (const char* env = std::getenv("MBS_CHAOS_DIR"); env && *env) {
    root = env;
    std::error_code ec;
    fsys::create_directories(root, ec);
  } else {
    char tmpl[] = "/tmp/mbs_chaos.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (!made) {
      std::fprintf(stderr, "chaos_soak: mkdtemp failed\n");
      return 1;
    }
    root = made;
  }
  const std::string cache_path = root + "/cache/evaluator.mbscache";
  const std::string shard_dir = cache_path + ".d";
  const std::string spool_dir = root + "/spool";
  const long seed = util::env_int("MBS_CHAOS_SEED", 42, 0, 1L << 62);
  const long rounds = util::env_int("MBS_CHAOS_ROUNDS", 8, 0, 10000);
  // Keep a wedged round short: a worker whose done-marker write was
  // eaten would otherwise wait the full default stall timeout.
  ::setenv("MBS_SPOOL_TIMEOUT_MS", "1000", /*overwrite=*/0);
  ::setenv("MBS_CACHE_RETRY_MS", "1", /*overwrite=*/0);

  // ---- Grid: every evaluated network under both MBS configs.
  std::vector<std::string> specs;
  for (const std::string& net : models::evaluated_network_names())
    for (const char* cfg : {"MBS1", "MBS2"})
      specs.push_back("net=" + net + ";cfg=" + std::string(cfg) +
                      ";buf=8388608");
  std::vector<engine::Scenario> grid;
  for (const std::string& spec : specs) {
    engine::Scenario s;
    std::string error;
    if (!engine::parse_scenario(spec, &s, &error)) {
      std::fprintf(stderr, "chaos_soak: bad spec '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 1;
    }
    grid.push_back(std::move(s));
  }

  engine::SweepOptions opts;
  opts.threads = 1;

  // ---- Phase 1: storeless fault-free reference.
  std::vector<std::string> ref_answers(specs.size());
  std::string ref_csv, ref_json;
  {
    engine::Evaluator eval(nullptr);
    const std::vector<engine::ScenarioResult> results =
        engine::SweepRunner(opts).run(grid, eval);
    for (std::size_t i = 0; i < specs.size(); ++i)
      ref_answers[i] = engine::ServeCore::format_answer(grid[i], results[i]);
    const engine::ResultSink sink = render(specs, ref_answers);
    ref_csv = csv_of(sink);
    ref_json = json_of(sink);
    sink.export_files("chaos_grid_ref");
  }

  // ---- Phase 2: chaos drain. Each round forks a worker with a seeded
  // fault schedule; between rounds the parent corrupts a store pack.
  util::Rng rng(static_cast<std::uint64_t>(seed));
  long crashed = 0, clean = 0, damaged = 0;
  engine::SweepOptions spool_opts = opts;
  spool_opts.spool_dir = spool_dir;
  for (long r = 0; r < rounds; ++r) {
    const std::string faults = pick_faults(rng);
    std::fprintf(stderr, "chaos_soak: round %ld faults=%s\n", r,
                 faults.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "chaos_soak: fork failed\n");
      return 1;
    }
    if (pid == 0) {
      util::fault_arm(faults);
      engine::CacheStore store(cache_path);
      engine::Evaluator eval(&store);
      engine::SweepRunner(spool_opts).run(grid, eval);
      store.save();
      std::_Exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
      ++clean;
    else
      ++crashed;
    const std::vector<std::string> packs = list_packs(shard_dir);
    if (!packs.empty()) {
      damage_file(rng, packs[rng.uniform_int(packs.size())]);
      ++damaged;
    }
  }

  // ---- Phase 3: fault-free finish; the merged output must be
  // byte-identical to the reference despite everything above.
  std::string chaos_csv, chaos_json;
  {
    engine::CacheStore store(cache_path);
    engine::Evaluator eval(&store);
    const std::vector<engine::ScenarioResult> results =
        engine::SweepRunner(spool_opts).run(grid, eval);
    store.save();
    std::vector<std::string> answers(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      answers[i] = engine::ServeCore::format_answer(grid[i], results[i]);
    const engine::ResultSink sink = render(specs, answers);
    chaos_csv = csv_of(sink);
    chaos_json = json_of(sink);
    sink.export_files("chaos_grid");
    sink.print(std::cout);
  }
  const bool csv_ok = chaos_csv == ref_csv;
  const bool json_ok = chaos_json == ref_json;

  // ---- Phase 4: serve with a fully corrupted step tier. Every answer
  // must still match the storeless reference; the damage must surface as
  // graceful degradation, never as a wrong answer.
  long serve_mismatches = 0;
  std::size_t step_packs_damaged = 0;
  engine::ServeStats serve_stats;
  {
    for (const std::string& pack : list_packs(shard_dir + "/step")) {
      damage_file(rng, pack);
      ++step_packs_damaged;
    }
    engine::CacheStore store(cache_path);
    engine::ServeCore core(&store, /*hot_capacity=*/8);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const engine::ServeCore::Answer a = core.query(specs[i]);
      if (!a.ok || a.text != ref_answers[i]) {
        ++serve_mismatches;
        std::fprintf(stderr, "chaos_soak: WRONG ANSWER for %s\n  got: %s\n  want: %s\n",
                     specs[i].c_str(), a.text.c_str(), ref_answers[i].c_str());
      }
    }
    serve_stats = core.stats();
  }
  const bool serve_ok = serve_mismatches == 0 && serve_stats.errors == 0;
  const bool degraded_ok = step_packs_damaged == 0 || serve_stats.degraded > 0;

  std::printf("\n--- chaos soak summary ---\n");
  std::printf("seed=%ld rounds=%ld grid=%zu scenarios\n", seed, rounds,
              specs.size());
  std::printf("workers: crashed=%ld clean=%ld; packs damaged=%ld "
              "(+%zu step packs pre-serve)\n",
              crashed, clean, damaged, step_packs_damaged);
  std::printf("byte identity: csv %s (%zu bytes), json %s (%zu bytes)\n",
              csv_ok ? "OK" : "MISMATCH", ref_csv.size(),
              json_ok ? "OK" : "MISMATCH", ref_json.size());
  std::printf("serve: queries=%zu store=%zu computed=%zu degraded=%zu "
              "errors=%zu mismatches=%ld\n",
              serve_stats.queries, serve_stats.store_hits,
              serve_stats.computed, serve_stats.degraded, serve_stats.errors,
              serve_mismatches);
  const bool pass = csv_ok && json_ok && serve_ok && degraded_ok;
  std::printf("CHAOS SOAK %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
