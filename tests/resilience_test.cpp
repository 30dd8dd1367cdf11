// Resilience suite (ctest label: resilience): the robustness layer —
// crash-safe journal recovery (replay determinism at every record
// boundary, torn-tail and corrupt-record tolerance, compaction
// equivalence), the solver watchdog's quarantine/cold-reset cycle, the
// warm-session self-reset heuristic, and anytime graceful degradation
// (approximate answers must carry *sound* optimality-gap bounds, checked
// against brute force). Failpoint-dependent tests skip themselves on
// builds without -DMPMCS_FAILPOINTS=ON; the CI matrix runs both.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "engine/analysis_engine.hpp"
#include "format/format.hpp"
#include "ft/parser.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "service/http_client.hpp"
#include "service/journal.hpp"
#include "service/solve_service.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta::service {
namespace {

std::string plant_text() {
  return "toplevel TOP;\nTOP or M1 M2;\nM1 and a b;\nM2 and c d;\n"
         "a prob=0.1; b prob=0.2; c prob=0.3; d prob=0.1;\n";
}

/// A fresh empty directory under the gtest temp root, unique per call.
std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "resilience-" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte offsets of each frame END in a journal file ([u32 len][u32 crc]
/// [payload] repeated) — prefixes cut at these offsets are exactly the
/// states a crash immediately after the k-th append would leave behind.
std::vector<std::size_t> frame_boundaries(const std::string& bytes) {
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  while (off + 8 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off, sizeof len);
    if (off + 8 + len > bytes.size()) break;
    off += 8 + len;
    ends.push_back(off);
  }
  return ends;
}

using LiveMap = std::map<std::string, JournalEntry>;

/// Mirrors the journal's put semantics: a post-image with an empty solver
/// (patch records) inherits the live entry's solver from its create, and
/// an older version than the live one is ignored.
void apply_put(LiveMap& live, const JournalEntry& e) {
  JournalEntry put = e;
  const auto it = live.find(put.id);
  if (it != live.end()) {
    if (put.solver.empty()) put.solver = it->second.solver;
    if (put.version < it->second.version) return;
  }
  live[put.id] = std::move(put);
}

JournalEntry entry(const std::string& id, const std::string& tenant,
                   const std::string& solver, const std::string& tree,
                   std::uint64_t version, std::uint64_t edits) {
  JournalEntry e;
  e.id = id;
  e.tenant = tenant;
  e.solver = solver;
  e.tree_text = tree;
  e.version = version;
  e.edits = edits;
  return e;
}

void expect_recovered(const std::vector<JournalEntry>& got,
                      const LiveMap& want, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (const JournalEntry& e : got) {
    const auto it = want.find(e.id);
    ASSERT_NE(it, want.end()) << context << ": unexpected id " << e.id;
    EXPECT_EQ(e.tenant, it->second.tenant) << context << " id=" << e.id;
    EXPECT_EQ(e.solver, it->second.solver) << context << " id=" << e.id;
    EXPECT_EQ(e.tree_text, it->second.tree_text) << context << " id=" << e.id;
    EXPECT_EQ(e.version, it->second.version) << context << " id=" << e.id;
    EXPECT_EQ(e.edits, it->second.edits) << context << " id=" << e.id;
  }
}

/// The scripted mutation history every journal test replays: creates,
/// a patch post-image, deletes — with the expected live set after each op.
struct JournalScript {
  std::vector<LiveMap> after;         ///< after[k] = state once ops[0..k] ran.
  std::string dir;
};

JournalScript run_script(const std::string& tag) {
  JournalScript s;
  s.dir = fresh_dir(tag);
  JournalOptions jopts;
  jopts.dir = s.dir;
  jopts.compact_threshold_bytes = std::size_t{1} << 30;  // never auto-compact
  TreeJournal j(jopts);
  EXPECT_TRUE(j.recover().empty());

  LiveMap live;
  const auto step = [&](auto&& op) {
    op();
    s.after.push_back(live);
  };
  const JournalEntry a1 = entry("t1", "ops", "oll", plant_text(), 1, 0);
  const JournalEntry b1 = entry("t2", "ops", "", "toplevel L;\nL and p q;\n"
                                "p prob=0.2; q prob=0.3;\n", 1, 0);
  const JournalEntry a2 = entry("t1", "ops", "", plant_text(), 2, 1);
  const JournalEntry c1 = entry("t3", "lab", "lsu", plant_text(), 1, 0);
  step([&] { j.record_put(a1); apply_put(live, a1); });
  step([&] { j.record_put(b1); apply_put(live, b1); });
  step([&] { j.record_put(a2); apply_put(live, a2); });  // patch post-image
  step([&] { j.record_put(c1); apply_put(live, c1); });
  step([&] { j.record_delete("t2"); live.erase("t2"); });
  step([&] { j.record_delete("t1"); live.erase("t1"); });
  return s;
}

TEST(TreeJournal, ReplayIsDeterministicAtEveryRecordBoundary) {
  const JournalScript script = run_script("boundary");
  const std::string bytes = read_file(script.dir + "/journal.log");
  const std::vector<std::size_t> ends = frame_boundaries(bytes);
  ASSERT_EQ(ends.size(), script.after.size());

  // A crash right after the k-th acknowledged append must recover exactly
  // the state after ops[0..k] — nothing more, nothing less.
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const std::string dir = fresh_dir("boundary-cut");
    write_file(dir + "/journal.log", bytes.substr(0, ends[k]));
    JournalOptions jopts;
    jopts.dir = dir;
    TreeJournal j(jopts);
    expect_recovered(j.recover(), script.after[k],
                     "cut after record " + std::to_string(k));
    EXPECT_EQ(j.recover_stats().truncated_bytes, 0u);
  }

  // A crash *mid*-append tears the trailing record: recovery keeps the
  // acknowledged prefix and truncates the torn bytes away.
  for (std::size_t k = 0; k + 1 < ends.size(); ++k) {
    const std::size_t torn = ends[k] + (ends[k + 1] - ends[k]) / 2;
    const std::string dir = fresh_dir("boundary-torn");
    write_file(dir + "/journal.log", bytes.substr(0, torn));
    JournalOptions jopts;
    jopts.dir = dir;
    TreeJournal j(jopts);
    expect_recovered(j.recover(), script.after[k],
                     "torn inside record " + std::to_string(k + 1));
    EXPECT_GT(j.recover_stats().truncated_bytes, 0u);
    // The torn tail is physically gone: the journal is appendable again
    // and a fresh recovery sees prefix + the new record only.
    const JournalEntry fresh = entry("t9", "ops", "", plant_text(), 1, 0);
    j.record_put(fresh);
    JournalOptions again;
    again.dir = dir;
    TreeJournal j2(again);
    LiveMap want = script.after[k];
    apply_put(want, fresh);
    expect_recovered(j2.recover(), want, "append after torn-tail recovery");
  }
}

TEST(TreeJournal, CorruptRecordsStopReplayAtTheGoodPrefix) {
  const JournalScript script = run_script("corrupt");
  const std::string bytes = read_file(script.dir + "/journal.log");
  const std::vector<std::size_t> ends = frame_boundaries(bytes);
  ASSERT_GE(ends.size(), 2u);

  // Bit-flip inside the last record's payload: the CRC catches it and
  // replay keeps everything before it.
  {
    std::string flipped = bytes;
    flipped[ends[ends.size() - 2] + 10] ^= 0x40;
    const std::string dir = fresh_dir("corrupt-flip");
    write_file(dir + "/journal.log", flipped);
    JournalOptions jopts;
    jopts.dir = dir;
    TreeJournal j(jopts);
    expect_recovered(j.recover(), script.after[ends.size() - 2],
                     "bit flip in final record");
    EXPECT_GT(j.recover_stats().truncated_bytes, 0u);
  }

  // Garbage appended past the last good frame is dropped the same way.
  {
    const std::string dir = fresh_dir("corrupt-garbage");
    write_file(dir + "/journal.log", bytes + "\xde\xad\xbe\xef garbage");
    JournalOptions jopts;
    jopts.dir = dir;
    TreeJournal j(jopts);
    expect_recovered(j.recover(), script.after.back(), "garbage tail");
    EXPECT_GT(j.recover_stats().truncated_bytes, 0u);
  }
}

// Concurrent PATCHes on one resource may append their post-images out of
// order; replay keeps each resource's newest one.
TEST(TreeJournal, ReplayKeepsTheNewestPostImageOfEachResource) {
  const std::string dir = fresh_dir("newest");
  JournalOptions jopts;
  jopts.dir = dir;
  LiveMap want;
  {
    TreeJournal j(jopts);
    ASSERT_TRUE(j.recover().empty());
    j.record_put(entry("t1", "ops", "auto", plant_text(), 1, 0));
    const JournalEntry v3 = entry("t1", "ops", "", "toplevel v3;", 3, 2);
    j.record_put(v3);
    j.record_put(entry("t1", "ops", "", "toplevel v2;", 2, 1));
    want["t1"] = v3;
    want["t1"].solver = "auto";
  }
  TreeJournal replayed(jopts);
  expect_recovered(replayed.recover(), want, "put of v3, then of v2");
  // Compaction writes the same newest post-image.
  replayed.compact();
  TreeJournal compacted(jopts);
  expect_recovered(compacted.recover(), want, "after compaction");
}

TEST(TreeJournal, CompactionPreservesStateAndReplayConverges) {
  const JournalScript script = run_script("compact");
  const std::string precompact_log = read_file(script.dir + "/journal.log");

  {
    JournalOptions jopts;
    jopts.dir = script.dir;
    TreeJournal j(jopts);
    j.recover();
    j.compact();
    EXPECT_EQ(j.compactions(), 1u);
  }
  {
    JournalOptions jopts;
    jopts.dir = script.dir;
    TreeJournal j(jopts);
    expect_recovered(j.recover(), script.after.back(), "post-compaction");
    EXPECT_GT(j.recover_stats().snapshot_records, 0u);
    EXPECT_EQ(j.recover_stats().log_records, 0u);
  }

  // Crash window: snapshot written but the journal never truncated (the
  // crash landed between the rename and the ftruncate). Records are
  // idempotent post-images, so replaying the whole old log on top of the
  // snapshot converges to the same state.
  write_file(script.dir + "/journal.log", precompact_log);
  JournalOptions jopts;
  jopts.dir = script.dir;
  TreeJournal j(jopts);
  expect_recovered(j.recover(), script.after.back(),
                   "snapshot + stale full journal");
}

// --- service-level replay ---------------------------------------------------

HttpRequest req(const char* method, const std::string& path,
                std::string body = "") {
  HttpRequest r;
  r.method = method;
  r.path = path;
  r.body = std::move(body);
  return r;
}

ServiceOptions journaled_options(const std::string& dir) {
  ServiceOptions opts;
  opts.engine_threads = 2;
  opts.journal_dir = dir;
  return opts;
}

std::string create_body(const std::string& tree, const std::string& solver) {
  std::string body = "{\"tree\": \"" + util::json_escape(tree) + "\"";
  if (!solver.empty()) body += ", \"solver\": \"" + solver + "\"";
  return body + "}";
}

/// (etag, version, tree) of a resource, asserting the GET succeeds.
struct ResourceView {
  std::string etag;
  double version = 0.0;
  std::string tree;
};

ResourceView view_resource(SolveService& svc, const std::string& id) {
  const HttpResponse r = svc.handle(req("GET", "/v1/trees/" + id));
  EXPECT_EQ(r.status, 200) << r.body;
  const util::JsonValue doc = util::JsonValue::parse(r.body);
  ResourceView v;
  v.etag = doc.get_string("etag", "");
  v.version = doc.get_number("version", 0.0);
  v.tree = doc.get_string("tree", "");
  return v;
}

TEST(ServiceJournal, RestartRestoresAcknowledgedResourcesByteIdentically) {
  const std::string dir = fresh_dir("svc-replay");
  std::string id_kept, id_patched, id_deleted;
  ResourceView want_kept, want_patched;

  {
    SolveService svc(journaled_options(dir));
    EXPECT_EQ(svc.handle(req("GET", "/v1/readyz")).status, 200);

    const HttpResponse c1 =
        svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "oll")));
    ASSERT_EQ(c1.status, 201) << c1.body;
    id_kept = util::JsonValue::parse(c1.body).get_string("id", "");

    const HttpResponse c2 =
        svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "")));
    ASSERT_EQ(c2.status, 201) << c2.body;
    id_patched = util::JsonValue::parse(c2.body).get_string("id", "");

    const HttpResponse c3 =
        svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "")));
    ASSERT_EQ(c3.status, 201) << c3.body;
    id_deleted = util::JsonValue::parse(c3.body).get_string("id", "");

    const HttpResponse patched = svc.handle(req(
        "PATCH", "/v1/trees/" + id_patched,
        "{\"delta\": [{\"op\": \"weight\", \"event\": \"a\", "
        "\"probability\": 0.42}]}"));
    ASSERT_EQ(patched.status, 200) << patched.body;

    const HttpResponse deleted =
        svc.handle(req("DELETE", "/v1/trees/" + id_deleted));
    ASSERT_EQ(deleted.status, 200) << deleted.body;

    want_kept = view_resource(svc, id_kept);
    want_patched = view_resource(svc, id_patched);
    EXPECT_EQ(want_patched.version, 2.0);
  }

  // Process restart: replay must restore both live resources with the
  // same etag/version/tree and must NOT resurrect the deleted one.
  SolveService svc(journaled_options(dir));
  EXPECT_EQ(svc.handle(req("GET", "/v1/readyz")).status, 200);

  const ResourceView got_kept = view_resource(svc, id_kept);
  EXPECT_EQ(got_kept.etag, want_kept.etag);
  EXPECT_EQ(got_kept.version, want_kept.version);
  EXPECT_EQ(got_kept.tree, want_kept.tree);
  const ResourceView got_patched = view_resource(svc, id_patched);
  EXPECT_EQ(got_patched.etag, want_patched.etag);
  EXPECT_EQ(got_patched.version, want_patched.version);
  EXPECT_EQ(got_patched.tree, want_patched.tree);
  EXPECT_EQ(svc.handle(req("GET", "/v1/trees/" + id_deleted)).status, 404);

  const util::JsonValue stats =
      util::JsonValue::parse(svc.statsz_json());
  const util::JsonValue* res = stats.find("resilience");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->get_number("restoredTrees", -1.0), 2.0);
  EXPECT_TRUE(res->get_bool("journalEnabled", false));

  // The restored resource is fully live: another patch bumps it to v3
  // under the restored etag lineage.
  const HttpResponse again = svc.handle(req(
      "PATCH", "/v1/trees/" + id_patched,
      "{\"etag\": \"" + got_patched.etag +
          "\", \"delta\": [{\"op\": \"weight\", \"event\": \"b\", "
          "\"probability\": 0.25}]}"));
  ASSERT_EQ(again.status, 200) << again.body;
  EXPECT_EQ(view_resource(svc, id_patched).version, 3.0);
}

TEST(ServiceJournal, ReplayRestoresEveryProbabilityBitForBit) {
  // The journal stores a tree as ft::to_text. Its probabilities must
  // survive a restart exactly as the service acknowledged them, whether
  // the body was Galileo or JSON, subnormal probabilities included.
  const std::string dir = fresh_dir("svc-replay-bits");
  gen::GeneratorOptions g;
  g.num_events = 2000;
  ft::FaultTree tree = gen::random_tree(g, 2000);
  tree.set_event_probability(0, std::numeric_limits<double>::denorm_min());
  tree.set_event_probability(1, 1e-310);
  tree.set_event_probability(2, std::numeric_limits<double>::min());
  std::vector<std::string> ids;
  {
    SolveService svc(journaled_options(dir));
    for (const std::string& text :
         {format::to_galileo(tree), format::to_json(tree)}) {
      const HttpResponse created =
          svc.handle(req("POST", "/v1/trees", create_body(text, "")));
      ASSERT_EQ(created.status, 201) << created.body;
      ids.push_back(util::JsonValue::parse(created.body).get_string("id", ""));
    }
  }
  SolveService svc(journaled_options(dir));
  for (const std::string& id : ids) {
    const ft::FaultTree back =
        ft::parse_fault_tree(view_resource(svc, id).tree);
    ASSERT_EQ(back.num_events(), tree.num_events()) << id;
    std::size_t exact = 0;
    for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
      const ft::NodeIndex i = back.find(tree.event(e).name);
      ASSERT_NE(i, ft::kNoIndex) << tree.event(e).name;
      exact += std::bit_cast<std::uint64_t>(back.node(i).probability) ==
               std::bit_cast<std::uint64_t>(tree.event_probability(e));
    }
    EXPECT_EQ(exact, tree.num_events()) << id;
  }
}

TEST(ServiceJournal, RefusesNamesTheJournalCannotWrite) {
  // The journal keeps trees as Galileo text, which has no escape for a
  // double quote or a line feed in a name. A JSON body may carry either:
  // the service must refuse it before registering or journaling anything
  // (it used to answer 201 and lose the tree on restart).
  const std::string dir = fresh_dir("svc-names");
  const auto appends = [](SolveService& svc) {
    const util::JsonValue stats = util::JsonValue::parse(svc.statsz_json());
    return stats.find("resilience")->get_number("journalAppends", -1.0);
  };
  std::string kept;
  {
    SolveService svc(journaled_options(dir));
    for (const std::string name : {"a\"b", "a\nb"}) {
      const std::string json =
          "{\"top\": \"T\", \"nodes\": [{\"id\": \"" +
          util::json_escape(name) +
          "\", \"type\": \"event\", \"prob\": 0.1}, {\"id\": \"T\", "
          "\"type\": \"or\", \"children\": [\"" +
          util::json_escape(name) + "\"]}]}";
      const HttpResponse r =
          svc.handle(req("POST", "/v1/trees", create_body(json, "")));
      EXPECT_EQ(r.status, 400) << r.body;
      EXPECT_NE(r.body.find("holds a double quote or a line feed"),
                std::string::npos)
          << r.body;
    }
    EXPECT_EQ(appends(svc), 0.0);
    EXPECT_TRUE(svc.engine().list_trees().empty());

    // A replace subtree is Galileo text, whose reader refuses both.
    const HttpResponse c =
        svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "")));
    ASSERT_EQ(c.status, 201) << c.body;
    kept = util::JsonValue::parse(c.body).get_string("id", "");
    const double before = appends(svc);
    const HttpResponse patched = svc.handle(
        req("PATCH", "/v1/trees/" + kept,
            "{\"delta\": [{\"op\": \"replace\", \"gate\": \"M1\", "
            "\"subtree\": \"toplevel r;\\nr or a\\\"b c;\\n\"}]}"));
    EXPECT_EQ(patched.status, 400) << patched.body;
    EXPECT_EQ(appends(svc), before);
  }
  SolveService svc(journaled_options(dir));
  const util::JsonValue stats = util::JsonValue::parse(svc.statsz_json());
  EXPECT_EQ(stats.find("resilience")->get_number("restoredTrees", -1.0), 1.0);
  EXPECT_EQ(svc.handle(req("GET", "/v1/trees/" + kept)).status, 200);
}

TEST(ServiceJournal, ReadyzReflectsDrainAndHealthzStaysServing) {
  SolveService svc(journaled_options(fresh_dir("svc-readyz")));
  EXPECT_EQ(svc.handle(req("GET", "/v1/readyz")).status, 200);
  EXPECT_EQ(svc.handle(req("POST", "/v1/readyz")).status, 405);
  svc.begin_shutdown();
  EXPECT_EQ(svc.handle(req("GET", "/v1/readyz")).status, 503);
}

// --- failpoint control plane ------------------------------------------------

/// Clears armed failpoints on scope exit so a failing assertion cannot
/// leak an armed site into later tests.
struct FailpointGuard {
  ~FailpointGuard() { util::clear_failpoints(); }
};

TEST(Failpoints, FailzEndpointConfiguresListsAndClears) {
  SolveService svc(ServiceOptions{});
  if (!util::failpoints_compiled()) {
    EXPECT_EQ(svc.handle(req("GET", "/v1/failz")).status, 501);
    return;
  }
  FailpointGuard guard;
  const HttpResponse armed = svc.handle(
      req("POST", "/v1/failz", "{\"spec\": \"cache.insert=error%0.5\"}"));
  ASSERT_EQ(armed.status, 200) << armed.body;
  const HttpResponse listed = svc.handle(req("GET", "/v1/failz"));
  EXPECT_NE(listed.body.find("cache.insert"), std::string::npos);
  EXPECT_EQ(
      svc.handle(req("POST", "/v1/failz", "{\"spec\": \"nonsense\"}")).status,
      400);
  EXPECT_EQ(svc.handle(req("DELETE", "/v1/failz")).status, 200);
  EXPECT_EQ(svc.handle(req("GET", "/v1/failz")).body.find("cache.insert"),
            std::string::npos);
}

TEST(Failpoints, JournalAppendFaultFailsCreateWithoutLeakingTheResource) {
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  FailpointGuard guard;
  SolveService svc(journaled_options(fresh_dir("svc-append-fault")));
  util::configure_failpoints("journal.append=throw*1");

  const HttpResponse failed =
      svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "")));
  EXPECT_EQ(failed.status, 503) << failed.body;
  EXPECT_NE(failed.body.find("persistence_failed"), std::string::npos);
  EXPECT_EQ(svc.engine().num_trees(), 0u);  // rolled back, not leaked

  // The failpoint disarmed itself after one fire: the next create lands.
  const HttpResponse ok =
      svc.handle(req("POST", "/v1/trees", create_body(plant_text(), "")));
  EXPECT_EQ(ok.status, 201) << ok.body;
}

// --- watchdog + warm self-reset ---------------------------------------------

TEST(Watchdog, FrozenSolveIsCancelledQuarantinedAndResetCold) {
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  FailpointGuard guard;
  engine::EngineOptions eo;
  eo.num_threads = 2;
  eo.watchdog_interval_seconds = 0.05;
  eo.watchdog_stall_intervals = 3;
  engine::AnalysisEngine eng(eo);
  // The plant is closed-form: under the paper's race its solve is one
  // SAT-backed instance for the failpoint to hold.
  core::PipelineOptions race;
  race.solver = core::SolverChoice::Portfolio;
  const std::string id =
      eng.create_tree(ft::parse_fault_tree(plant_text()), race);

  // Every SAT solve entry sleeps 600 ms *before* ticking the liveness
  // counter — from the watchdog's side this is indistinguishable from a
  // wedged solver, and 600 ms >> 3 x 50 ms stall threshold.
  util::configure_failpoints("sat.solve=delay(600)");
  engine::AnalysisRequest wedge;
  wedge.id = "wedge";
  wedge.tree_id = id;
  const engine::AnalysisResult res = eng.submit(std::move(wedge)).get();
  util::clear_failpoints();

  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(res.cancelled) << res.error;
  engine::EngineStats st = eng.stats();
  EXPECT_GE(st.watchdog_cancels, 1u);
  EXPECT_GE(st.quarantines, 1u);

  // The quarantined resource self-heals: the next solve rebuilds its
  // artefact cold and completes normally.
  engine::AnalysisRequest retry;
  retry.id = "retry";
  retry.tree_id = id;
  const engine::AnalysisResult healed = eng.submit(std::move(retry)).get();
  EXPECT_TRUE(healed.ok) << healed.error;
  EXPECT_GE(eng.stats().session_resets, 1u);
}

TEST(Watchdog, HealthySolvesAreNeverFlagged) {
  engine::EngineOptions eo;
  eo.num_threads = 2;
  eo.watchdog_interval_seconds = 0.05;
  eo.watchdog_stall_intervals = 3;
  engine::AnalysisEngine eng(eo);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    engine::AnalysisRequest r;
    r.id = "healthy-" + std::to_string(seed);
    r.tree = gen::ladder_tree(3, seed);
    const engine::AnalysisResult res = eng.submit(std::move(r)).get();
    EXPECT_TRUE(res.ok) << res.error;
  }
  const engine::EngineStats st = eng.stats();
  EXPECT_EQ(st.watchdog_cancels, 0u);
  EXPECT_EQ(st.quarantines, 0u);
}

TEST(WarmReset, BudgetTripAbandonsWarmSessionAndStillAnswers) {
  engine::EngineOptions eo;
  eo.num_threads = 2;
  // Warm re-solves get a budget of multiple x max(cold EWMA, floor);
  // 1e-6 x 50 ms is sub-microsecond, so the first warm descent trips it
  // immediately and the engine must fall back to a cold re-solve.
  eo.warm_reset_multiple = 1e-6;
  engine::AnalysisEngine eng(eo);
  // The plant is closed-form: under the paper's race it is one instance
  // with one warm session to abandon.
  core::PipelineOptions race;
  race.solver = core::SolverChoice::Portfolio;
  const std::string id =
      eng.create_tree(ft::parse_fault_tree(plant_text()), race);

  engine::AnalysisRequest cold;
  cold.id = "cold";
  cold.tree_id = id;
  ASSERT_TRUE(eng.submit(std::move(cold)).get().ok);

  engine::AnalysisRequest warm;
  warm.id = "warm";
  warm.tree_id = id;
  ft::TreeDelta delta;
  delta.ops.push_back(ft::TreeDelta::weight("a", 0.17));
  warm.delta = delta;
  const engine::AnalysisResult res = eng.submit(std::move(warm)).get();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.delta_applied);
  EXPECT_EQ(res.tree_version, 2u);
  EXPECT_GE(eng.stats().session_resets, 1u);
}

TEST(WarmReset, BudgetCoversFrontierModuleSessionsUnderTheDefault) {
  engine::EngineOptions eo;
  eo.num_threads = 2;
  eo.warm_reset_multiple = 1e-6;  // trips on the first warm descent
  engine::AnalysisEngine eng(eo);
  // A closed-form top over frontier modules: the default keeps no
  // whole-tree session, only one per module, and the warm budget must
  // cover those too.
  const std::string id = eng.create_tree(test::composed_tree(3), {});

  engine::AnalysisRequest cold;
  cold.id = "cold";
  cold.tree_id = id;
  const engine::AnalysisResult first = eng.submit(std::move(cold)).get();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.mpmcs.solver_name, "stratified");

  engine::AnalysisRequest warm;
  warm.id = "warm";
  warm.tree_id = id;
  ft::TreeDelta delta;
  // x0 is the event the first module's two gates share.
  delta.ops.push_back(ft::TreeDelta::weight("x0", 0.17));
  warm.delta = delta;
  const engine::AnalysisResult res = eng.submit(std::move(warm)).get();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.delta_applied);
  EXPECT_EQ(res.delta.strata_reweighted, 1u);
  EXPECT_GE(eng.stats().session_resets, 1u);
}

// --- anytime graceful degradation -------------------------------------------

/// Invariants every approximate answer must satisfy against the known
/// optimum (solved with the same pipeline options, so scaled-integer
/// costs live in the same reporting space).
void expect_sound_gap(const core::MpmcsSolution& approx,
                      const core::MpmcsSolution& optimal,
                      const std::string& context) {
  EXPECT_TRUE(approx.approximate) << context;
  EXPECT_FALSE(approx.cut.empty()) << context;
  // Certified sandwich: lower bound <= optimum <= incumbent, all in the
  // same scaled space.
  EXPECT_LE(approx.scaled_lower_bound, optimal.scaled_cost) << context;
  EXPECT_GE(approx.scaled_cost, optimal.scaled_cost) << context;
  EXPECT_GE(approx.optimality_gap, 0.0) << context;
  EXPECT_LE(approx.optimality_gap, 1.0) << context;
  // The incumbent is a valid cut, so it cannot beat the optimum (small
  // slack for the llround weight quantisation).
  EXPECT_GE(approx.log_cost,
            optimal.log_cost - 1e-6 * std::max(1.0, optimal.log_cost))
      << context;
  // No cut set is more probable than the certified upper bound.
  EXPECT_GE(approx.probability_upper_bound, optimal.probability * (1 - 1e-9))
      << context;
}

TEST(GracefulDegradation, DeterministicApproximateAnswerIsSoundVsBruteForce) {
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  FailpointGuard guard;
  core::PipelineOptions lsu;
  lsu.solver = core::SolverChoice::Lsu;  // anytime: keeps incumbents

  // Brute-force anchor (tiny tree, both solvers untimed): the exhaustive
  // optimum and the LSU optimum must agree before LSU's untimed answer is
  // trusted as the gap baseline on trees brute force cannot reach.
  {
    gen::GeneratorOptions small;
    small.num_events = 12;
    small.and_fraction = 0.5;
    const ft::FaultTree tiny = gen::random_tree(small, 7);
    const core::MpmcsSolution via_lsu = core::MpmcsPipeline(lsu).solve(tiny);
    ASSERT_EQ(via_lsu.status, maxsat::MaxSatStatus::Optimal);
    core::PipelineOptions bf;
    bf.solver = core::SolverChoice::BruteForce;
    const core::MpmcsSolution brute = core::MpmcsPipeline(bf).solve(tiny);
    ASSERT_EQ(brute.status, maxsat::MaxSatStatus::Optimal);
    EXPECT_NEAR(brute.log_cost, via_lsu.log_cost,
                1e-6 * std::max(1.0, via_lsu.log_cost));
  }

  // A tree small enough to solve exactly in milliseconds but big enough
  // that the optimality proof needs real search (so a cancelled SAT call
  // cannot stumble into an UNSAT proof by pure propagation). The exact
  // reference comes from the default portfolio — LSU alone may never
  // prove optimality here (its bound encoding is budgeted), which is
  // precisely why it is the anytime solver under test.
  gen::GeneratorOptions g;
  g.num_events = 35;
  g.and_fraction = 0.5;
  g.sharing = 0.2;
  const ft::FaultTree tree = gen::random_tree(g, 11);
  const core::MpmcsPipeline exact{core::PipelineOptions{}};
  const core::MpmcsSolution optimal = exact.solve(tree);
  ASSERT_EQ(optimal.status, maxsat::MaxSatStatus::Optimal);
  const core::MpmcsPipeline pipe(lsu);

  // The first SAT call (which finds LSU's first incumbent) runs free;
  // every later call sleeps past the deadline, so the solve *must* end as
  // Unknown-with-incumbent: a deterministic approximate answer.
  util::configure_failpoints("sat.solve=delay(400)@1");
  auto token = std::make_shared<util::CancelToken>();
  token->set_deadline_after(0.25);
  const core::MpmcsSolution approx = pipe.solve(tree, token);
  util::clear_failpoints();

  ASSERT_EQ(approx.status, maxsat::MaxSatStatus::Unknown);
  expect_sound_gap(approx, optimal, "failpoint-forced incumbent");
}

TEST(GracefulDegradation, DeadlineSweepNeverYieldsAnUnsoundGap) {
  // Organic sweep: whatever the deadline race produces — optimal,
  // approximate, or empty-handed — the approximate answers must carry
  // sound bounds. (On fast machines small trees may always finish; the
  // failpoint test above covers the approximate path deterministically.)
  gen::GeneratorOptions g;
  g.num_events = 60;
  g.vote_fraction = 0.1;
  g.sharing = 0.2;
  std::size_t approximates = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ft::FaultTree tree = gen::random_tree(g, seed);
    const core::MpmcsPipeline pipe{core::PipelineOptions{}};
    const core::MpmcsSolution optimal = pipe.solve(tree);
    ASSERT_EQ(optimal.status, maxsat::MaxSatStatus::Optimal);
    for (const double deadline : {1e-4, 1e-3, 5e-3, 2e-2}) {
      auto token = std::make_shared<util::CancelToken>();
      token->set_deadline_after(deadline);
      const core::MpmcsSolution sol = pipe.solve(tree, token);
      if (sol.status == maxsat::MaxSatStatus::Optimal) {
        EXPECT_FALSE(sol.approximate);
        continue;
      }
      if (!sol.approximate) continue;  // expired before any incumbent
      ++approximates;
      expect_sound_gap(sol, optimal,
                       "seed " + std::to_string(seed) + " deadline " +
                           std::to_string(deadline));
    }
  }
  // Not asserted — diagnostic only: how often the sweep actually
  // exercised the approximate path on this machine.
  ::testing::Test::RecordProperty("approximate_answers",
                                  static_cast<int>(approximates));
}

TEST(GracefulDegradation, ServiceRendersApproximateAnswersAs200) {
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  FailpointGuard guard;
  ServiceOptions opts;
  opts.engine_threads = 2;
  SolveService svc(opts);

  // Same medium tree and forcing recipe as the pipeline-level test: the
  // incumbent arrives on the free first call, the proof phase wedges.
  gen::GeneratorOptions g;
  g.num_events = 35;
  g.and_fraction = 0.5;
  g.sharing = 0.2;
  const ft::FaultTree tree = gen::random_tree(g, 11);
  const core::MpmcsPipeline exact{core::PipelineOptions{}};
  const core::MpmcsSolution optimal = exact.solve(tree);
  ASSERT_EQ(optimal.status, maxsat::MaxSatStatus::Optimal);

  util::configure_failpoints("sat.solve=delay(400)@1");
  const HttpResponse r = svc.handle(req(
      "POST", "/v1/solve",
      "{\"tree\": \"" + util::json_escape(ft::to_text(tree)) +
          "\", \"solver\": \"lsu\", \"deadline_ms\": 250}"));
  util::clear_failpoints();

  ASSERT_EQ(r.status, 200) << r.body;
  const util::JsonValue doc = util::JsonValue::parse(r.body);
  EXPECT_TRUE(doc.get_bool("ok", false));
  EXPECT_EQ(doc.get_string("status", ""), "approximate");
  const util::JsonValue* sol = doc.find("solution");
  ASSERT_NE(sol, nullptr);
  EXPECT_TRUE(sol->get_bool("approximate", false));
  const double scaled_cost = sol->get_number("scaledCost", -1.0);
  const double lower = sol->get_number("scaledLowerBound", -1.0);
  const double gap = sol->get_number("optimalityGap", -1.0);
  EXPECT_GE(scaled_cost, 0.0);
  EXPECT_GE(lower, 0.0);
  EXPECT_LE(lower, scaled_cost);
  EXPECT_GE(gap, 0.0);
  EXPECT_LE(gap, 1.0);
  // The certified ceiling must clear the true optimum of this tree.
  EXPECT_GE(sol->get_number("probabilityUpperBound", -1.0),
            optimal.probability * (1 - 1e-9));
}

// --- client retries ---------------------------------------------------------

TEST(HttpClientRetry, ExhaustsAttemptsAgainstADeadEndpoint) {
  // Nothing listens on this port: every attempt is a transport failure,
  // so the retry loop must run out of attempts and report failure rather
  // than hang or throw.
  HttpClient client("127.0.0.1", 9);  // discard port, never bound in tests
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.001;
  policy.max_backoff_seconds = 0.002;
  const auto r =
      client.request_with_retry("GET", "/v1/healthz", "", policy, 0.5);
  EXPECT_FALSE(r.has_value());
}

}  // namespace
}  // namespace fta::service
