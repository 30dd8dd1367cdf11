// Serving-layer suite (ctest label: service): the SolveService contract —
// request coalescing, per-tenant admission control, deadline-aware
// shedding, graceful drain — plus the HTTP framing layer's guarantee that
// arbitrary bytes become a structured 4xx, never a crash. Most tests call
// SolveService::handle() directly (the HTTP layer is a thin adapter); the
// round-trip tests exercise real sockets through HttpServer/HttpClient.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ft/builder.hpp"
#include "ft/parser.hpp"
#include "gen/generator.hpp"
#include "service/http_client.hpp"
#include "service/http_server.hpp"
#include "service/solve_service.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta::service {
namespace {

std::string ladder_text() {
  return ft::to_text(gen::ladder_tree(3, 42));
}

/// Structurally distinct trees (distinct probabilities => distinct
/// structural keys): requests that must NOT coalesce with each other.
std::string distinct_tree_text(std::uint64_t seed) {
  gen::GeneratorOptions g;
  g.num_events = 12;
  g.vote_fraction = 0.1;
  g.sharing = 0.2;
  return ft::to_text(gen::random_tree(g, seed));
}

std::string solve_body(const std::string& tenant, const std::string& tree,
                       const std::string& solver = "", int k = 0,
                       double deadline_ms = -1.0) {
  std::string body = "{\"tenant\": \"" + util::json_escape(tenant) +
                     "\", \"tree\": \"" + util::json_escape(tree) + "\"";
  if (!solver.empty()) body += ", \"solver\": \"" + solver + "\"";
  if (k > 0) body += ", \"k\": " + std::to_string(k);
  if (deadline_ms >= 0.0) {
    body += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  return body + "}";
}

HttpRequest post(const std::string& path, std::string body) {
  HttpRequest r;
  r.method = "POST";
  r.path = path;
  r.body = std::move(body);
  return r;
}

HttpRequest get(const std::string& path) {
  HttpRequest r;
  r.method = "GET";
  r.path = path;
  return r;
}

/// Service options sized for tests: two engine workers so a held solve
/// cannot serialise the fast control-path requests behind it.
ServiceOptions test_options() {
  ServiceOptions opts;
  opts.engine_threads = 2;
  return opts;
}

/// Options with fault injection: every engine run is held for `seconds`,
/// so a test can deterministically observe a request in flight.
ServiceOptions delayed_options(double seconds) {
  ServiceOptions opts = test_options();
  opts.debug_solve_delay_seconds = seconds;
  return opts;
}

/// Polls until `done` or the deadline; failed waits fail the test.
template <typename Predicate>
::testing::AssertionResult eventually(Predicate done,
                                      double timeout_seconds = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return ::testing::AssertionSuccess();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return ::testing::AssertionFailure() << "condition not reached in "
                                       << timeout_seconds << "s";
}

TEST(SolveService, HealthzStatszAndRoutingAreStructured) {
  SolveService svc(test_options());

  const HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"serving\""), std::string::npos);

  // Every error is a parseable JSON object with ok/code/error members.
  for (const HttpRequest& bad :
       {post("/v1/healthz", ""), get("/v1/solve"), get("/nope"),
        post("/v1/statsz", "")}) {
    const HttpResponse r = svc.handle(bad);
    EXPECT_GE(r.status, 400) << bad.method << " " << bad.path;
    const util::JsonValue doc = util::JsonValue::parse(r.body);
    ASSERT_TRUE(doc.is_object());
    EXPECT_FALSE(doc.get_bool("ok", true));
    EXPECT_FALSE(doc.get_string("code", "").empty());
    EXPECT_FALSE(doc.get_string("error", "").empty());
  }

  const HttpResponse stats = svc.handle(get("/v1/statsz"));
  EXPECT_EQ(stats.status, 200);
  EXPECT_TRUE(util::JsonValue::parse(stats.body).is_object());
}

TEST(SolveService, SolveAndTopKRenderTheBatchSchema) {
  SolveService svc(test_options());

  const HttpResponse solved =
      svc.handle(post("/v1/solve", solve_body("plant", ladder_text())));
  ASSERT_EQ(solved.status, 200) << solved.body;
  const util::JsonValue doc = util::JsonValue::parse(solved.body);
  EXPECT_TRUE(doc.get_bool("ok", false));
  EXPECT_EQ(doc.get_string("kind", ""), "mpmcs");
  const util::JsonValue* sol = doc.find("solution");
  ASSERT_NE(sol, nullptr);
  const double probability = sol->get_number("probability", 0.0);
  EXPECT_GT(probability, 0.0);
  EXPECT_LT(probability, 1.0);
  EXPECT_FALSE(sol->get_string("solver", "").empty());
  const util::JsonValue* cut = sol->find("mpmcs");
  ASSERT_NE(cut, nullptr);
  ASSERT_TRUE(cut->is_array());
  EXPECT_FALSE(cut->items().empty());

  const HttpResponse ranked =
      svc.handle(post("/v1/topk", solve_body("plant", ladder_text(), "", 3)));
  ASSERT_EQ(ranked.status, 200) << ranked.body;
  const util::JsonValue rdoc = util::JsonValue::parse(ranked.body);
  EXPECT_EQ(rdoc.get_string("kind", ""), "top-k");
  const util::JsonValue* top = rdoc.find("top");
  ASSERT_NE(top, nullptr);
  ASSERT_TRUE(top->is_array());
  ASSERT_EQ(top->items().size(), 3u);
  // Rank 1 of the enumeration IS the MPMCS, and ranks descend.
  EXPECT_DOUBLE_EQ(top->items()[0].get_number("probability", -1.0),
                   probability);
  for (std::size_t i = 1; i < top->items().size(); ++i) {
    EXPECT_GE(top->items()[i - 1].get_number("probability", -1.0),
              top->items()[i].get_number("probability", -1.0));
  }
}

TEST(SolveService, CoalescingCollapsesIdenticalRequestsToOneSolve) {
  // The leader's flight is held in the engine for a second — long enough
  // that the five concurrent twins reliably join it (or, arriving after
  // it lands, replay the memo).
  SolveService svc(delayed_options(1.0));
  const std::string body = solve_body("fleet", ladder_text());

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::vector<HttpResponse> responses(kClients);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&svc, &body, &responses, i] {
      responses[i] = svc.handle(post("/v1/solve", body));
    });
  }
  for (std::thread& t : clients) t.join();

  std::string reference;
  for (const HttpResponse& r : responses) {
    ASSERT_EQ(r.status, 200) << r.body;
    const util::JsonValue doc = util::JsonValue::parse(r.body);
    EXPECT_TRUE(doc.get_bool("ok", false));
    // Identical answers for everyone, whatever path each request took.
    const util::JsonValue* sol = doc.find("solution");
    ASSERT_NE(sol, nullptr);
    std::string rendered =
        std::to_string(sol->get_number("probability", -1.0));
    if (reference.empty()) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference);
    }
  }
  // The serving guarantee: N structurally identical concurrent requests
  // cost ONE engine run — followers share the flight, stragglers hit the
  // memo. (The coalesced/memoHits split depends on arrival timing; their
  // sum does not.)
  EXPECT_EQ(svc.stats().global().engine_solves.load(), 1u);
  EXPECT_EQ(svc.stats().global().ok.load(), static_cast<std::uint64_t>(
                                                kClients));
  const TenantCounters* fleet = svc.stats().find("fleet");
  ASSERT_NE(fleet, nullptr);
  // Every request after the first either joined the flight or replayed
  // the memo (a flight follower can be both).
  EXPECT_GE(fleet->coalesced.load() + fleet->memo_hits.load() + 1,
            static_cast<std::uint64_t>(kClients));
}

TEST(SolveService, UnmeetableDeadlinesAreShedBeforeSolving) {
  ServiceOptions opts = test_options();
  // A cold EWMA floor of one second makes any millisecond deadline
  // unmeetable by construction — the rejection is deterministic.
  opts.min_service_estimate_seconds = 1.0;
  SolveService svc(opts);

  const HttpResponse shed = svc.handle(
      post("/v1/solve", solve_body("impatient", ladder_text(), "", 0, 1.0)));
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_NE(shed.body.find("deadline_unmeetable"), std::string::npos);
  const TenantCounters* t = svc.stats().find("impatient");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rejected_deadline.load(), 1u);
  // Shed up front: the engine never saw the request.
  EXPECT_EQ(svc.engine().stats().submitted, 0u);

  // Without a deadline the same request sails through.
  const HttpResponse solved =
      svc.handle(post("/v1/solve", solve_body("impatient", ladder_text())));
  EXPECT_EQ(solved.status, 200) << solved.body;
}

TEST(SolveService, FollowerDeadlineExpiresWithoutKillingTheFlight) {
  SolveService svc(delayed_options(2.0));

  HttpResponse leader_response;
  std::thread leader([&] {
    leader_response =
        svc.handle(post("/v1/solve", solve_body("patient", ladder_text())));
  });
  ASSERT_TRUE(eventually([&] { return svc.queue_depth() == 1; }));

  // Structurally identical request with a 1ms deadline: it joins the
  // in-flight solve as a follower, its deadline expires, and it gets a
  // 504 — while the leader's solve keeps running to a 200.
  const HttpResponse follower = svc.handle(
      post("/v1/solve", solve_body("impatient", ladder_text(), "", 0, 1.0)));
  EXPECT_EQ(follower.status, 504) << follower.body;
  EXPECT_NE(follower.body.find("deadline_exceeded"), std::string::npos);

  leader.join();
  EXPECT_EQ(leader_response.status, 200) << leader_response.body;
  const TenantCounters* t = svc.stats().find("impatient");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->deadline_exceeded.load(), 1u);
}

TEST(SolveService, TenantQuotaShedsOnlyTheNoisyTenant) {
  ServiceOptions opts = delayed_options(1.5);
  opts.tenant_queue_limit = 1;
  SolveService svc(opts);

  HttpResponse noisy_response;
  std::thread noisy([&] {
    noisy_response = svc.handle(
        post("/v1/solve", solve_body("noisy", distinct_tree_text(1))));
  });
  ASSERT_TRUE(eventually([&] { return svc.queue_depth() == 1; }));

  // Second (structurally distinct) request from the same tenant: over
  // quota, 429, before any engine resources are spent on it.
  const HttpResponse shed = svc.handle(
      post("/v1/solve", solve_body("noisy", distinct_tree_text(2))));
  EXPECT_EQ(shed.status, 429) << shed.body;
  EXPECT_NE(shed.body.find("over_quota"), std::string::npos);

  // A different tenant is untouched by the noisy tenant's backlog.
  const HttpResponse quiet =
      svc.handle(post("/v1/solve", solve_body("quiet", ladder_text())));
  EXPECT_EQ(quiet.status, 200) << quiet.body;

  noisy.join();
  EXPECT_EQ(noisy_response.status, 200) << noisy_response.body;
  const TenantCounters* t = svc.stats().find("noisy");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rejected_quota.load(), 1u);
  const TenantCounters* q = svc.stats().find("quiet");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->rejected_quota.load(), 0u);
}

TEST(SolveService, GlobalOverloadShedsWithStructured503) {
  ServiceOptions opts = delayed_options(1.5);
  opts.global_queue_limit = 1;
  SolveService svc(opts);

  HttpResponse first_response;
  std::thread first([&] {
    first_response = svc.handle(
        post("/v1/solve", solve_body("a", distinct_tree_text(3))));
  });
  ASSERT_TRUE(eventually([&] { return svc.queue_depth() == 1; }));

  const HttpResponse shed = svc.handle(
      post("/v1/solve", solve_body("b", distinct_tree_text(4))));
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_NE(shed.body.find("over_capacity"), std::string::npos);

  first.join();
  EXPECT_EQ(first_response.status, 200) << first_response.body;
  EXPECT_EQ(svc.stats().global().rejected_capacity.load(), 1u);
}

TEST(SolveService, DrainCompletesInFlightWorkThenShedsNewRequests) {
  SolveService svc(delayed_options(1.5));

  HttpResponse in_flight_response;
  std::thread in_flight([&] {
    in_flight_response = svc.handle(
        post("/v1/solve", solve_body("a", distinct_tree_text(5))));
  });
  ASSERT_TRUE(eventually([&] { return svc.queue_depth() == 1; }));

  svc.begin_shutdown();
  const HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_NE(health.body.find("\"draining\""), std::string::npos);

  const HttpResponse shed =
      svc.handle(post("/v1/solve", solve_body("b", ladder_text())));
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_NE(shed.body.find("shutting_down"), std::string::npos);

  // The admitted request was NOT cancelled by the drain.
  in_flight.join();
  EXPECT_EQ(in_flight_response.status, 200) << in_flight_response.body;
}

TEST(SolveService, MalformedBodiesAlwaysGetStructured400s) {
  SolveService svc(test_options());

  const struct {
    const char* note;
    std::string body;
  } cases[] = {
      {"empty body", ""},
      {"truncated JSON", "{\"tenant\": \"a\", \"tree"},
      {"not JSON at all", "toplevel T; T or a b;"},
      {"JSON scalar", "42"},
      {"JSON array", "[1, 2, 3]"},
      {"missing tree", "{\"tenant\": \"a\"}"},
      {"empty tenant", solve_body("", ladder_text())},
      {"oversized tenant", solve_body(std::string(200, 'x'), ladder_text())},
      {"tree of wrong type", "{\"tree\": 17}"},
      {"truncated .ft text", "{\"tree\": \"toplevel T; T or a\"}"},
      {"unparseable .ft text", "{\"tree\": \"?? not a tree ??;\"}"},
      {"truncated Open-PSA", "{\"tree\": \"<define-fault-tree\"}"},
      {"probability out of range", "{\"tree\": \"toplevel T; T or a b; a "
                                   "prob=1.5; b prob=0.1;\"}"},
      {"unknown solver", solve_body("a", ladder_text(), "quantum")},
      {"negative deadline",
       "{\"tree\": \"" + util::json_escape(ladder_text()) +
           "\", \"deadline_ms\": -5}"},
      {"deadline of wrong type",
       "{\"tree\": \"" + util::json_escape(ladder_text()) +
           "\", \"deadline_ms\": \"soon\"}"},
      {"absurd nesting depth",
       std::string(128, '[') + "1" + std::string(128, ']')},
  };
  std::uint64_t expected_bad = 0;
  for (const auto& c : cases) {
    const HttpResponse r = svc.handle(post("/v1/solve", c.body));
    EXPECT_EQ(r.status, 400) << c.note << ": " << r.body;
    const util::JsonValue doc = util::JsonValue::parse(r.body);
    ASSERT_TRUE(doc.is_object()) << c.note;
    EXPECT_FALSE(doc.get_bool("ok", true)) << c.note;
    EXPECT_EQ(doc.get_string("code", ""), "bad_request") << c.note;
    EXPECT_FALSE(doc.get_string("error", "").empty()) << c.note;
    ++expected_bad;
  }
  // k validation on the topk endpoint.
  for (int k : {0, -3, 1000000}) {
    const HttpResponse r =
        svc.handle(post("/v1/topk", "{\"tree\": \"" +
                                        util::json_escape(ladder_text()) +
                                        "\", \"k\": " + std::to_string(k) +
                                        "}"));
    EXPECT_EQ(r.status, 400) << "k=" << k << ": " << r.body;
    ++expected_bad;
  }
  EXPECT_EQ(svc.stats().global().bad_requests.load(), expected_bad);
  // The service stayed healthy throughout, and takes every solver name
  // the CLI takes.
  const HttpResponse solved =
      svc.handle(post("/v1/solve", solve_body("a", ladder_text())));
  EXPECT_EQ(solved.status, 200) << solved.body;
  for (const char* solver : {"auto", "portfolio", "oll", "stratified"}) {
    const HttpResponse named =
        svc.handle(post("/v1/solve", solve_body("a", ladder_text(), solver)));
    EXPECT_EQ(named.status, 200) << solver << ": " << named.body;
  }
}

TEST(SolveService, BruteForceKeepsTheWatchdogFed) {
  // The exhaustive solver makes no SAT conflicts to tick on; its own
  // liveness ticks keep a watchdog with a 30 ms stall window from taking
  // its sweep of the ladder (19 variables, ~80 ms in optimised builds)
  // for a wedged solve.
  ServiceOptions opts = test_options();
  opts.watchdog_interval_seconds = 0.01;
  opts.watchdog_stall_intervals = 3;
  SolveService svc(opts);
  const HttpResponse r =
      svc.handle(post("/v1/solve", solve_body("b", ladder_text(), "brute")));
  EXPECT_EQ(r.status, 200) << r.body;
}

TEST(SolveService, CancelledSolveWithoutDeadlineNamesNoDeadline) {
  // A watchdog cancel of a request that set no deadline must not cite a
  // "deadline of 0s". Every SAT solve entry sleeps before its first
  // liveness tick, so the watchdog cancels.
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  ServiceOptions opts = test_options();
  opts.watchdog_interval_seconds = 0.01;
  opts.watchdog_stall_intervals = 2;
  SolveService svc(opts);
  util::configure_failpoints("sat.solve=delay(200)");
  const HttpResponse r = svc.handle(
      post("/v1/solve", solve_body("c", distinct_tree_text(7), "oll")));
  util::clear_failpoints();
  EXPECT_EQ(r.status, 504) << r.body;
  EXPECT_EQ(r.body.find("deadline of 0s"), std::string::npos) << r.body;
}

TEST(SolveService, StatszExposesTheWholeFunnel) {
  ServiceOptions opts = test_options();
  opts.min_service_estimate_seconds = 1.0;
  SolveService svc(opts);

  ASSERT_EQ(svc.handle(post("/v1/solve", solve_body("t1", ladder_text())))
                .status,
            200);
  ASSERT_EQ(svc.handle(post("/v1/solve", solve_body("t1", ladder_text())))
                .status,
            200);  // memo hit
  ASSERT_EQ(svc.handle(post("/v1/solve", "{broken")).status, 400);
  ASSERT_EQ(svc.handle(post("/v1/solve",
                            solve_body("t2", ladder_text(), "", 0, 1.0)))
                .status,
            503);  // deadline shed

  const util::JsonValue doc =
      util::JsonValue::parse(svc.handle(get("/v1/statsz")).body);
  const util::JsonValue* global = doc.find("global");
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->get_number("requests", -1), 4);
  EXPECT_EQ(global->get_number("ok", -1), 2);
  EXPECT_EQ(global->get_number("engineSolves", -1), 1);
  EXPECT_EQ(global->get_number("memoHits", -1), 1);
  EXPECT_EQ(global->get_number("badRequests", -1), 1);
  EXPECT_EQ(global->get_number("rejectedDeadline", -1), 1);
  EXPECT_EQ(global->get_number("queueDepth", -1), 0);
  EXPECT_GT(global->get_number("p99Seconds", -1), 0.0);

  const util::JsonValue* engine = doc.find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->get_number("submitted", -1), 2);
  EXPECT_EQ(engine->get_number("threads", -1), 2);

  const util::JsonValue* sat = doc.find("sat");
  ASSERT_NE(sat, nullptr);
  EXPECT_EQ(sat->get_number("escalations", -1),
            static_cast<double>(core::MpmcsPipeline::escalations()));

  const util::JsonValue* tenants = doc.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->items().size(), 2u);
  for (const util::JsonValue& t : tenants->items()) {
    const std::string name = t.get_string("tenant", "");
    if (name == "t1") {
      EXPECT_EQ(t.get_number("ok", -1), 2);
      EXPECT_EQ(t.get_number("memoHits", -1), 1);
    } else {
      EXPECT_EQ(name, "t2");
      EXPECT_EQ(t.get_number("rejectedDeadline", -1), 1);
    }
  }
}

// --- stateful tree resources: /v1/trees ---------------------------------

/// Generic request builder (the tree-resource API also speaks PATCH and
/// DELETE, and carries the tenant/etag in the body on every method).
HttpRequest req(const std::string& method, const std::string& path,
                std::string body = "") {
  HttpRequest r;
  r.method = method;
  r.path = path;
  r.body = std::move(body);
  return r;
}

/// A small tree with stable event names for edit scripts.
std::string named_tree_text() {
  return "toplevel TOP;\nTOP or M1 M2;\nM1 and a b;\nM2 and c d;\n"
         "a prob=0.1; b prob=0.2; c prob=0.3; d prob=0.1;\n";
}

std::string patch_body(const std::string& tenant, const std::string& etag,
                       const std::string& delta) {
  std::string body = "{\"tenant\": \"" + util::json_escape(tenant) + "\"";
  if (!etag.empty()) body += ", \"etag\": \"" + util::json_escape(etag) + "\"";
  return body + ", \"delta\": " + delta + "}";
}

TEST(TreeResources, LifecycleCreatePatchDeleteRoundTrips) {
  SolveService svc(test_options());

  const HttpResponse created = svc.handle(
      req("POST", "/v1/trees", solve_body("plant", named_tree_text())));
  ASSERT_EQ(created.status, 201) << created.body;
  const util::JsonValue cdoc = util::JsonValue::parse(created.body);
  const std::string id = cdoc.get_string("id", "");
  const std::string etag = cdoc.get_string("etag", "");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(etag, id + "-v1");
  EXPECT_EQ(cdoc.get_number("version", -1), 1);
  EXPECT_EQ(cdoc.get_number("events", -1), 4);

  const HttpResponse fetched = svc.handle(
      req("GET", "/v1/trees/" + id, "{\"tenant\": \"plant\"}"));
  ASSERT_EQ(fetched.status, 200) << fetched.body;
  const util::JsonValue fdoc = util::JsonValue::parse(fetched.body);
  EXPECT_EQ(fdoc.get_string("etag", ""), etag);
  EXPECT_NE(fdoc.get_string("tree", "").find("TOP"), std::string::npos);

  // A weight-only PATCH re-solves with lineage attached: the session was
  // rebased, nothing re-prepared, and the solution reflects the new
  // probabilities ({c, d} overtakes {a, b} once both get p = 0.6).
  const HttpResponse patched = svc.handle(req(
      "PATCH", "/v1/trees/" + id,
      patch_body("plant", etag,
                 "[{\"op\": \"weight\", \"event\": \"c\", \"probability\": "
                 "0.6}, {\"op\": \"weight\", \"event\": \"d\", "
                 "\"probability\": 0.6}]")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  const util::JsonValue pdoc = util::JsonValue::parse(patched.body);
  EXPECT_TRUE(pdoc.get_bool("ok", false));
  EXPECT_TRUE(pdoc.get_bool("deltaApplied", false));
  EXPECT_EQ(pdoc.get_number("version", -1), 2);
  EXPECT_EQ(pdoc.get_string("etag", ""), id + "-v2");
  const util::JsonValue* lineage = pdoc.find("delta");
  ASSERT_NE(lineage, nullptr);
  EXPECT_TRUE(lineage->get_bool("weightOnly", false));
  EXPECT_FALSE(lineage->get_bool("reprepared", true));
  const util::JsonValue* sol = pdoc.find("solution");
  ASSERT_NE(sol, nullptr);
  EXPECT_NEAR(sol->get_number("probability", 0.0), 0.36, 1e-9);

  const HttpResponse listed =
      svc.handle(req("GET", "/v1/trees", "{\"tenant\": \"plant\"}"));
  ASSERT_EQ(listed.status, 200) << listed.body;
  const util::JsonValue ldoc = util::JsonValue::parse(listed.body);
  const util::JsonValue* owned = ldoc.find("trees");
  ASSERT_NE(owned, nullptr);
  ASSERT_EQ(owned->items().size(), 1u);
  EXPECT_EQ(owned->items()[0].get_number("version", -1), 2);

  const HttpResponse deleted = svc.handle(
      req("DELETE", "/v1/trees/" + id, "{\"tenant\": \"plant\"}"));
  ASSERT_EQ(deleted.status, 200) << deleted.body;
  EXPECT_EQ(svc.handle(req("GET", "/v1/trees/" + id,
                           "{\"tenant\": \"plant\"}")).status,
            404);
  EXPECT_EQ(svc.engine().num_trees(), 0u);
}

// Disabling an event of the only cut leaves a probability-0 answer; its
// log cost is infinite, which JSON cannot carry, so it answers null.
TEST(TreeResources, DeeplyNestedOpenPsaIsA400NotACrash) {
  // 200 000 nested connectives, a 2.2 MB body: deep enough to overflow a
  // recursive reader's stack. The reader's nesting cap answers 400.
  SolveService svc(test_options());
  std::string doc =
      "<opsa-mef><define-fault-tree name=\"t\"><define-gate name=\"top\">";
  for (int i = 0; i < 200'000; ++i) doc += "<and>";
  doc += "<basic-event name=\"x\"/>";
  for (int i = 0; i < 200'000; ++i) doc += "</and>";
  doc += "</define-gate></define-fault-tree></opsa-mef>";
  const HttpResponse r = svc.handle(req(
      "POST", "/v1/trees",
      "{\"tenant\": \"deep\", \"format\": \"openpsa\", \"tree\": \"" +
          util::json_escape(doc) + "\"}"));
  EXPECT_EQ(r.status, 400) << r.body;
  EXPECT_NE(r.body.find("deeper than 64"), std::string::npos) << r.body;
}

TEST(TreeResources, ProbabilityZeroAnswerIsValidJson) {
  SolveService svc(test_options());
  const HttpResponse created = svc.handle(
      req("POST", "/v1/trees",
          solve_body("plant", "toplevel TOP; TOP and a b; a prob=0.1; "
                              "b prob=0.2;")));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id =
      util::JsonValue::parse(created.body).get_string("id", "");
  const HttpResponse patched = svc.handle(
      req("PATCH", "/v1/trees/" + id,
          patch_body("plant", "",
                     "[{\"op\": \"toggle\", \"event\": \"a\", "
                     "\"enabled\": false}]")));
  ASSERT_EQ(patched.status, 200) << patched.body;
  const util::JsonValue doc = util::JsonValue::parse(patched.body);
  const util::JsonValue* sol = doc.find("solution");
  ASSERT_NE(sol, nullptr);
  EXPECT_EQ(sol->get_number("probability", -1.0), 0.0);
  ASSERT_NE(sol->find("logCost"), nullptr);
  EXPECT_TRUE(sol->find("logCost")->is_null());
  const util::JsonValue* cut = sol->find("mpmcs");
  ASSERT_NE(cut, nullptr);
  ASSERT_EQ(cut->items().size(), 2u);
  EXPECT_EQ(cut->items()[0].as_string(), "a");
  EXPECT_EQ(cut->items()[1].as_string(), "b");
}

TEST(TreeResources, StaleEtagConflictsAndOmittedEtagWins) {
  SolveService svc(test_options());
  const util::JsonValue cdoc = util::JsonValue::parse(
      svc.handle(req("POST", "/v1/trees",
                     solve_body("ops", named_tree_text())))
          .body);
  const std::string id = cdoc.get_string("id", "");
  const std::string v1 = cdoc.get_string("etag", "");
  ASSERT_FALSE(id.empty());

  const std::string bump =
      "[{\"op\": \"weight\", \"event\": \"a\", \"probability\": 0.5}]";
  ASSERT_EQ(svc.handle(req("PATCH", "/v1/trees/" + id,
                           patch_body("ops", v1, bump))).status,
            200);

  // Replaying the v1 etag against the now-v2 resource is a lost update:
  // 409, and the edit is NOT applied.
  const HttpResponse stale = svc.handle(
      req("PATCH", "/v1/trees/" + id, patch_body("ops", v1, bump)));
  EXPECT_EQ(stale.status, 409) << stale.body;
  EXPECT_NE(stale.body.find("etag_conflict"), std::string::npos);
  const util::JsonValue after = util::JsonValue::parse(
      svc.handle(req("GET", "/v1/trees/" + id, "{\"tenant\": \"ops\"}"))
          .body);
  EXPECT_EQ(after.get_number("version", -1), 2);

  // Omitting the etag opts out of the guard (last-writer-wins).
  const HttpResponse lww = svc.handle(
      req("PATCH", "/v1/trees/" + id, patch_body("ops", "", bump)));
  EXPECT_EQ(lww.status, 200) << lww.body;
  EXPECT_EQ(util::JsonValue::parse(lww.body).get_number("version", -1), 3);

  const util::JsonValue stats =
      util::JsonValue::parse(svc.handle(get("/v1/statsz")).body);
  const util::JsonValue* tsec = stats.find("trees");
  ASSERT_NE(tsec, nullptr);
  EXPECT_EQ(tsec->get_number("etagConflicts", -1), 1);
}

// Two PATCHes that carry the same etag race for one resource: exactly one
// lands, and the other is refused as a lost update.
TEST(TreeResources, ConcurrentPatchesWithOneEtagLandOnce) {
  ServiceOptions opts = delayed_options(0.2);
  opts.engine_threads = 4;
  SolveService svc(opts);
  const util::JsonValue cdoc = util::JsonValue::parse(
      svc.handle(req("POST", "/v1/trees",
                     solve_body("ops", named_tree_text())))
          .body);
  const std::string id = cdoc.get_string("id", "");
  const std::string v1 = cdoc.get_string("etag", "");
  ASSERT_EQ(v1, id + "-v1");

  HttpResponse answers[2];
  std::thread racers[2];
  for (int i = 0; i < 2; ++i) {
    racers[i] = std::thread([&, i] {
      answers[i] = svc.handle(req(
          "PATCH", "/v1/trees/" + id,
          patch_body("ops", v1,
                     "[{\"op\": \"weight\", \"event\": \"a\", "
                     "\"probability\": 0." + std::to_string(i + 4) + "}]")));
    });
  }
  for (std::thread& t : racers) t.join();
  const HttpResponse& won = answers[0].status == 200 ? answers[0] : answers[1];
  const HttpResponse& lost = answers[0].status == 200 ? answers[1] : answers[0];
  EXPECT_EQ(won.status, 200) << won.body;
  EXPECT_EQ(util::JsonValue::parse(won.body).get_number("version", -1), 2);
  EXPECT_EQ(lost.status, 409) << lost.body;
  EXPECT_EQ(util::JsonValue::parse(lost.body).get_string("code", ""),
            "etag_conflict");

  const util::JsonValue after = util::JsonValue::parse(
      svc.handle(req("GET", "/v1/trees/" + id, "{\"tenant\": \"ops\"}"))
          .body);
  EXPECT_EQ(after.get_number("version", -1), 2);
  const util::JsonValue stats =
      util::JsonValue::parse(svc.handle(get("/v1/statsz")).body);
  EXPECT_EQ(stats.find("trees")->get_number("etagConflicts", -1), 1);
}

TEST(TreeResources, ForeignTenantSeesNothingAndBadDeltasGet400) {
  SolveService svc(test_options());
  const util::JsonValue cdoc = util::JsonValue::parse(
      svc.handle(req("POST", "/v1/trees",
                     solve_body("owner", named_tree_text())))
          .body);
  const std::string id = cdoc.get_string("id", "");
  ASSERT_FALSE(id.empty());

  // A foreign tenant's GET/PATCH/DELETE are answered exactly like a
  // missing id: 404, no existence leak.
  const std::string bump =
      "[{\"op\": \"weight\", \"event\": \"a\", \"probability\": 0.5}]";
  for (const HttpRequest& probe :
       {req("GET", "/v1/trees/" + id, "{\"tenant\": \"intruder\"}"),
        req("PATCH", "/v1/trees/" + id, patch_body("intruder", "", bump)),
        req("DELETE", "/v1/trees/" + id, "{\"tenant\": \"intruder\"}"),
        req("GET", "/v1/trees/absent", "{\"tenant\": \"owner\"}")}) {
    const HttpResponse r = svc.handle(probe);
    EXPECT_EQ(r.status, 404) << probe.method << " " << probe.path << ": "
                             << r.body;
  }
  // The resource is untouched.
  EXPECT_EQ(svc.engine().num_trees(), 1u);

  // Semantically invalid deltas are the client's fault: structured 400.
  for (const std::string& bad :
       {std::string("[{\"op\": \"weight\", \"event\": \"ghost\", "
                    "\"probability\": 0.5}]"),
        std::string("[{\"op\": \"weight\", \"event\": \"a\", "
                     "\"probability\": 1.5}]"),
        std::string("[]"), std::string("{\"op\": \"weight\"}"),
        std::string("[{\"op\": \"teleport\"}]")}) {
    const HttpResponse r = svc.handle(
        req("PATCH", "/v1/trees/" + id, patch_body("owner", "", bad)));
    EXPECT_EQ(r.status, 400) << bad << ": " << r.body;
    EXPECT_EQ(util::JsonValue::parse(r.body).get_string("code", ""),
              "bad_request");
  }
}

TEST(TreeResources, TenantQuotaAndGlobalLruEviction) {
  ServiceOptions opts = test_options();
  opts.tenant_tree_limit = 2;
  opts.max_trees = 2;
  SolveService svc(opts);

  auto create = [&svc](const std::string& tenant, std::uint64_t seed) {
    return svc.handle(
        req("POST", "/v1/trees", solve_body(tenant, distinct_tree_text(seed))));
  };

  const util::JsonValue first =
      util::JsonValue::parse(create("heavy", 10).body);
  const std::string id1 = first.get_string("id", "");
  ASSERT_FALSE(id1.empty());
  const util::JsonValue second =
      util::JsonValue::parse(create("heavy", 11).body);
  const std::string id2 = second.get_string("id", "");
  ASSERT_FALSE(id2.empty());

  // The per-tenant creation quota sheds with 429 before any prepare.
  const HttpResponse over = create("heavy", 12);
  EXPECT_EQ(over.status, 429) << over.body;
  EXPECT_NE(over.body.find("over_quota"), std::string::npos);

  // Touch the older tree so it becomes the most recently used.
  ASSERT_EQ(svc.handle(req("PATCH", "/v1/trees/" + id1,
                           patch_body("heavy", "",
                                      "[{\"op\": \"weight\", \"event\": "
                                      "\"e0\", \"probability\": 0.5}]")))
                .status,
            200);

  // A different tenant's create hits the GLOBAL cap instead: the least
  // recently used resource (id2 — id1 was just patched) is evicted.
  const HttpResponse third = create("light", 13);
  ASSERT_EQ(third.status, 201) << third.body;
  EXPECT_EQ(svc.handle(req("GET", "/v1/trees/" + id2,
                           "{\"tenant\": \"heavy\"}")).status,
            404);
  EXPECT_EQ(svc.handle(req("GET", "/v1/trees/" + id1,
                           "{\"tenant\": \"heavy\"}")).status,
            200);

  const util::JsonValue stats =
      util::JsonValue::parse(svc.handle(get("/v1/statsz")).body);
  const util::JsonValue* tsec = stats.find("trees");
  ASSERT_NE(tsec, nullptr);
  EXPECT_EQ(tsec->get_number("created", -1), 3);
  EXPECT_EQ(tsec->get_number("evicted", -1), 1);
  EXPECT_EQ(tsec->get_number("active", -1), 2);
}

TEST(TreeResources, CreateAtTheCapAndOtherReadsDoNotWaitForASolve) {
  // A PATCH holds its resource's lock through the solve, here over a
  // second: every SAT call of its kernel's search sleeps 600 ms. The
  // eviction of a create at the cap reads every resource's counters, and
  // another tenant's GET meets the ownership lock that eviction holds;
  // neither may wait for the solve.
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  ServiceOptions opts = test_options();
  opts.max_trees = 2;
  SolveService svc(opts);
  const auto create = [&svc](const std::string& tenant,
                             const std::string& tree) {
    return svc.handle(req("POST", "/v1/trees", solve_body(tenant, tree)));
  };
  // M1's kernel needs search: a is shared by X1 and Y1.
  const HttpResponse searched = create(
      "a",
      "toplevel TOP;\nTOP or M1 M2;\nM1 and X1 Y1;\nX1 or a b;\n"
      "Y1 or a c;\nM2 and d e;\n"
      "a prob=0.1; b prob=0.2; c prob=0.3; d prob=0.1; e prob=0.05;\n");
  ASSERT_EQ(searched.status, 201) << searched.body;
  const std::string held =
      util::JsonValue::parse(searched.body).get_string("id", "");
  const HttpResponse other = create("b", named_tree_text());
  ASSERT_EQ(other.status, 201) << other.body;
  const std::string other_id =
      util::JsonValue::parse(other.body).get_string("id", "");

  util::configure_failpoints("sat.solve=delay(600)");
  std::thread patch([&] {
    svc.handle(req("PATCH", "/v1/trees/" + held,
                   "{\"tenant\": \"a\", \"deadline_ms\": 1000, \"delta\": "
                   "[{\"op\": \"weight\", \"event\": \"a\", "
                   "\"probability\": 0.4}]}"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto timed = [](auto&& call) {
    const auto start = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  HttpResponse capped;
  double create_seconds = 0.0;
  std::thread creator([&] {
    create_seconds = timed([&] { capped = create("c", ladder_text()); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double get_seconds = timed([&] {
    svc.handle(req("GET", "/v1/trees/" + other_id, "{\"tenant\": \"b\"}"));
  });
  creator.join();
  patch.join();
  util::clear_failpoints();
  EXPECT_EQ(capped.status, 201) << capped.body;
  EXPECT_LT(create_seconds, 0.2);
  EXPECT_LT(get_seconds, 0.2);
}

// --- pinned answers -------------------------------------------------------

/// `body` with the value of every `key` member (of every member when
/// `key` is empty) replaced by '#' where it is a number or a boolean: the
/// fields that vary from run to run, or from build to build.
std::string mask_values(const std::string& body, const std::string& key) {
  const std::string anchor = key.empty() ? "\": " : "\"" + key + "\": ";
  std::string out;
  std::size_t at = 0;
  for (std::size_t hit = body.find(anchor); hit != std::string::npos;
       hit = body.find(anchor, at)) {
    std::size_t end = hit + anchor.size();
    out.append(body, at, end - at);
    std::size_t stop = body.find_first_not_of("0123456789.eE+-", end);
    for (const char* word : {"true", "false"}) {
      if (stop == end && body.compare(end, std::strlen(word), word) == 0) {
        stop = end + std::strlen(word);
      }
    }
    if (stop == std::string::npos) stop = body.size();
    if (stop > end) {
      out += '#';
      end = stop;
    }
    at = end;
  }
  return out + body.substr(at);
}

struct Pinned {
  std::string note;
  HttpRequest request;
  int status;
  std::string body;  ///< With its "seconds" masked.
};

void expect_pinned(SolveService& svc, const Pinned& c) {
  const HttpResponse r = svc.handle(c.request);
  const std::string body = mask_values(r.body, "seconds");
  EXPECT_EQ(r.status, c.status) << c.note;
  EXPECT_EQ(body, c.body) << c.note;
}

/// Creates the pinned tree for tenant "pin" and returns its id.
std::string create_pinned(SolveService& svc) {
  const HttpResponse r = svc.handle(
      req("POST", "/v1/trees", solve_body("pin", named_tree_text())));
  EXPECT_EQ(r.status, 201) << r.body;
  return util::JsonValue::parse(r.body).get_string("id", "");
}

/// The exact status and body of every answer the solve and tree
/// endpoints give, one case per defect, refusal and outcome.
TEST(PinnedAnswers, EveryStatusAndBodyStaysTheSame) {
  const std::string tree = util::json_escape(named_tree_text());
  const std::string bump =
      "[{\"op\": \"weight\", \"event\": \"a\", \"probability\": 0.5}]";
  const auto patch = [](const std::string& id, const std::string& body) {
    return req("PATCH", "/v1/trees/" + id, body);
  };
  {
    SolveService svc(test_options());
    const std::string id = create_pinned(svc);
    const std::string other = create_pinned(svc);
    const Pinned cases[] = {
        // Malformed bodies on every reading endpoint.
        {"solve: empty body", post("/v1/solve", ""), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unexpected end of document (at byte 0)\"}"},
        {"solve: not JSON", post("/v1/solve", "{broken"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "expected object key (at byte 1)\"}"},
        {"solve: JSON array", post("/v1/solve", "[1, 2]"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "request body must be a JSON object (at byte 0)\"}"},
        {"solve: missing tree", post("/v1/solve", "{\"tenant\": \"a\"}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "missing required member \\\"tree\\\" (at byte 0)\"}"},
        {"solve: empty tenant",
         post("/v1/solve", "{\"tenant\": \"\", \"tree\": \"" + tree + "\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "tenant must be 1..128 bytes (at byte 0)\"}"},
        {"solve: oversized tenant",
         post("/v1/solve", solve_body(std::string(129, 'x'),
                                      named_tree_text())),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "tenant must be 1..128 bytes (at byte 0)\"}"},
        {"solve: tree of wrong type", post("/v1/solve", "{\"tree\": 17}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "member \\\"tree\\\" must be a string (at byte 0)\"}"},
        {"solve: unparseable tree",
         post("/v1/solve", "{\"tree\": \"?? not a tree ??;\"}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"galileo: "
         "line 1, column 4: unknown gate operator 'not'\"}"},
        {"solve: unknown format",
         post("/v1/solve",
              "{\"tree\": \"" + tree + "\", \"format\": \"xml\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unknown format \\\"xml\\\" (expected auto, json, galileo, or "
         "openpsa) (at byte 0)\"}"},
        {"solve: probability out of range",
         post("/v1/solve", "{\"tree\": \"toplevel T; T or a b; a prob=1.5; "
                           "b prob=0.1;\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"galileo: "
         "line 1, column 23: probability of 'a' out of [0,1]: 1.500000\"}"},
        {"solve: unknown solver",
         post("/v1/solve", solve_body("a", named_tree_text(), "quantum")), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unknown solver \\\"quantum\\\" (at byte 0)\"}"},
        {"solve: negative deadline",
         post("/v1/solve",
              "{\"tree\": \"" + tree + "\", \"deadline_ms\": -5}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "deadline_ms must be >= 0 (at byte 0)\"}"},
        {"solve: deadline of wrong type",
         post("/v1/solve",
              "{\"tree\": \"" + tree + "\", \"deadline_ms\": \"soon\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "member \\\"deadline_ms\\\" must be a number (at byte 0)\"}"},
        {"topk: k = 0",
         post("/v1/topk", "{\"tree\": \"" + tree + "\", \"k\": 0}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: k "
         "must be in [1, 64] (at byte 0)\"}"},
        {"topk: k too large",
         post("/v1/topk", "{\"tree\": \"" + tree + "\", \"k\": 1000000}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: k "
         "must be in [1, 64] (at byte 0)\"}"},
        {"topk: missing tree", post("/v1/topk", "{\"k\": 2}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "missing required member \\\"tree\\\" (at byte 0)\"}"},
        {"create: empty body", req("POST", "/v1/trees", ""), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unexpected end of document (at byte 0)\"}"},
        {"create: missing tree",
         req("POST", "/v1/trees", "{\"tenant\": \"pin\"}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "missing required member \\\"tree\\\" (at byte 0)\"}"},
        {"create: empty tenant",
         req("POST", "/v1/trees",
             "{\"tenant\": \"\", \"tree\": \"" + tree + "\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "tenant must be 1..128 bytes (at byte 0)\"}"},
        {"create: unknown solver",
         req("POST", "/v1/trees",
             solve_body("pin", named_tree_text(), "quantum")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unknown solver \\\"quantum\\\" (at byte 0)\"}"},
        {"create: unknown format",
         req("POST", "/v1/trees",
             "{\"tree\": \"" + tree + "\", \"format\": \"xml\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "unknown format \\\"xml\\\" (expected auto, json, galileo, or "
         "openpsa) (at byte 0)\"}"},
        {"create: name Galileo cannot write",
         req("POST", "/v1/trees",
             "{\"tree\": \"{\\\"top\\\": \\\"T\\\", \\\"nodes\\\": "
             "[{\\\"id\\\": \\\"a\\\\\\\"b\\\", \\\"type\\\": "
             "\\\"event\\\", \\\"prob\\\": 0.1}, {\\\"id\\\": \\\"T\\\", "
             "\\\"type\\\": \\\"or\\\", \\\"children\\\": "
             "[\\\"a\\\\\\\"b\\\"]}]}\"}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"node "
         "'a\\\\\\\"b' holds a double quote or a line feed, which Galileo "
         "text cannot write\"}"},
        {"patch: not JSON", patch(id, "{broken"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "expected object key (at byte 1)\"}"},
        {"patch: JSON array", patch(id, "[1]"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "request body must be a JSON object (at byte 0)\"}"},
        {"patch: empty tenant",
         patch(id, "{\"tenant\": \"\", \"delta\": " + bump + "}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "tenant must be 1..128 bytes (at byte 0)\"}"},
        {"patch: missing delta", patch(id, "{\"tenant\": \"pin\"}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "missing required member \\\"delta\\\" (at byte 0)\"}"},
        {"patch: delta not an array",
         patch(id, patch_body("pin", "", "{\"op\": \"weight\"}")), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"delta "
         "must be a JSON array of edit ops\"}"},
        {"patch: empty delta", patch(id, patch_body("pin", "", "[]")), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "delta must contain at least one op (at byte 0)\"}"},
        {"patch: unknown op",
         patch(id, patch_body("pin", "", "[{\"op\": \"teleport\"}]")), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"unknown "
         "delta op 'teleport'\"}"},
        {"patch: weight without probability",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"weight\", \"event\": \"a\"}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"weight op "
         "needs a string 'event' and numeric 'probability'\"}"},
        {"patch: negative deadline",
         patch(id, "{\"tenant\": \"pin\", \"deadline_ms\": -1, \"delta\": " +
                       bump + "}"),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "deadline_ms must be >= 0 (at byte 0)\"}"},
        // Deltas the tree refuses.
        {"patch: unknown event",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"weight\", \"event\": \"ghost\", "
                              "\"probability\": 0.5}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"unknown "
         "event 'ghost'\"}"},
        {"patch: probability 1.5",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"weight\", \"event\": \"a\", "
                              "\"probability\": 1.5}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": "
         "\"probability of 'a' out of [0,1]: 1.500000\"}"},
        {"patch: weight on a gate",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"weight\", \"event\": \"M1\", "
                              "\"probability\": 0.5}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"'M1' is a "
         "gate, not a basic event\"}"},
        {"patch: toggle an unknown event",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"toggle\", \"event\": \"ghost\", "
                              "\"enabled\": false}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"unknown "
         "event 'ghost'\"}"},
        {"patch: replace an unknown gate",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"replace\", \"gate\": \"G9\", "
                              "\"subtree\": \"toplevel r; r or a c;\"}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"replace: "
         "unknown gate 'G9'\"}"},
        {"patch: replace a basic event",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"replace\", \"gate\": \"a\", "
                              "\"subtree\": \"toplevel r; r or a c;\"}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"replace: "
         "target 'a' is a basic event; only gates can be replaced\"}"},
        {"patch: replace with a bad subtree",
         patch(id, patch_body("pin", "",
                              "[{\"op\": \"replace\", \"gate\": \"M1\", "
                              "\"subtree\": \"toplevel r; r or\"}]")),
         400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"replace: "
         "bad subtree: line 1: statement not terminated by ';'\"}"},
        {"get: malformed body", req("GET", "/v1/trees/" + id, "[1]"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "request body must be a JSON object (at byte 0)\"}"},
        {"delete: empty tenant",
         req("DELETE", "/v1/trees/" + id, "{\"tenant\": \"\"}"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "tenant must be 1..128 bytes (at byte 0)\"}"},
        {"list: not JSON", req("GET", "/v1/trees", "{broken"), 400,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"json: "
         "expected object key (at byte 1)\"}"},
        // Unknown, foreign and malformed ids.
        {"get: foreign tenant",
         req("GET", "/v1/trees/" + id, "{\"tenant\": \"intruder\"}"), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t1\\\"\"}"},
        {"patch: foreign tenant", patch(id, patch_body("intruder", "", bump)),
         404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t1\\\"\"}"},
        {"delete: foreign tenant",
         req("DELETE", "/v1/trees/" + id, "{\"tenant\": \"intruder\"}"), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t1\\\"\"}"},
        {"get: unknown id",
         req("GET", "/v1/trees/t99", "{\"tenant\": \"pin\"}"), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t99\\\"\"}"},
        {"patch: unknown id", patch("t99", patch_body("pin", "", bump)), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t99\\\"\"}"},
        {"delete: unknown id",
         req("DELETE", "/v1/trees/t99", "{\"tenant\": \"pin\"}"), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "tree id \\\"t99\\\"\"}"},
        {"malformed id", req("GET", "/v1/trees/a/b", ""), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"malformed "
         "tree id\"}"},
        {"empty id", req("GET", "/v1/trees/", ""), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"malformed "
         "tree id\"}"},
        {"unknown path", get("/v1/nope"), 404,
         "{\"ok\": false, \"code\": \"not_found\", \"error\": \"unknown "
         "path /v1/nope (try /v1/solve, /v1/topk, /v1/trees, /v1/healthz, "
         "/v1/readyz, /v1/statsz)\"}"},
        // Methods a path does not take.
        {"solve: GET", get("/v1/solve"), 405,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"solve "
         "endpoints are POST\"}"},
        {"trees: PUT", req("PUT", "/v1/trees", ""), 405,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"/v1/trees "
         "is POST or GET\"}"},
        {"tree: POST", req("POST", "/v1/trees/" + id, ""), 405,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"tree "
         "resources accept GET, PATCH, DELETE\"}"},
        {"healthz: POST", post("/v1/healthz", ""), 405,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"healthz "
         "is GET-only\"}"},
        {"statsz: POST", post("/v1/statsz", ""), 405,
         "{\"ok\": false, \"code\": \"bad_request\", \"error\": \"statsz is "
         "GET-only\"}"},
        // Answers.
        {"solve: optimal",
         post("/v1/solve", solve_body("pin", named_tree_text())), 200,
         "{\"ok\": true, \"status\": \"optimal\", \"tenant\": \"pin\", "
         "\"kind\": \"mpmcs\", \"cacheHit\": false, \"memoized\": false, "
         "\"coalesced\": false, \"seconds\": #, \"solution\": "
         "{\"probability\": 0.03, \"logCost\": 3.50655789732, \"solver\": "
         "\"stratified\", \"lineage\": \"strata\", \"satDecisions\": 0, "
         "\"satPropagations\": 0, \"satConflicts\": 0, \"mpmcs\": [\"c\", "
         "\"d\"]}}"},
        {"topk: optimal",
         post("/v1/topk", solve_body("pin", named_tree_text(), "", 3)), 200,
         "{\"ok\": true, \"status\": \"optimal\", \"tenant\": \"pin\", "
         "\"kind\": \"top-k\", \"cacheHit\": true, \"memoized\": false, "
         "\"coalesced\": false, \"seconds\": #, \"top\": [{\"probability\": "
         "0.03, \"logCost\": 3.50655789732, \"solver\": \"stratified\", "
         "\"lineage\": \"strata\", \"satDecisions\": 0, "
         "\"satPropagations\": 0, \"satConflicts\": 0, \"mpmcs\": [\"c\", "
         "\"d\"]}, {\"probability\": 0.02, \"logCost\": 3.91202300543, "
         "\"solver\": \"stratified\", \"lineage\": \"strata\", "
         "\"satDecisions\": 0, \"satPropagations\": 0, \"satConflicts\": 0, "
         "\"mpmcs\": [\"a\", \"b\"]}]}"},
        {"patch: optimal",
         patch(id, patch_body("pin", id + "-v1",
                              "[{\"op\": \"weight\", \"event\": \"c\", "
                              "\"probability\": 0.6}, {\"op\": \"weight\", "
                              "\"event\": \"d\", \"probability\": 0.6}]")),
         200,
         "{\"ok\": true, \"status\": \"optimal\", \"tenant\": \"pin\", "
         "\"id\": \"t1\", \"etag\": \"t1-v2\", \"version\": 2, "
         "\"deltaApplied\": true, \"delta\": {\"weightOnly\": true, "
         "\"sessionRebased\": false, \"reprepared\": false, "
         "\"strataTotal\": 0, \"strataReused\": 0, \"strataReweighted\": 0, "
         "\"strataReprepared\": 0}, \"memoized\": false, \"seconds\": #, "
         "\"solution\": {\"probability\": 0.36, \"logCost\": 1.02165124753, "
         "\"solver\": \"stratified\", \"lineage\": \"strata\", "
         "\"satDecisions\": 0, \"satPropagations\": 0, \"satConflicts\": 0, "
         "\"mpmcs\": [\"c\", \"d\"]}}"},
        {"patch: stale etag", patch(id, patch_body("pin", id + "-v1", bump)),
         409,
         "{\"ok\": false, \"code\": \"etag_conflict\", \"error\": \"etag "
         "\\\"t1-v1\\\" does not match current \\\"t1-v2\\\"\"}"},
        {"patch: splice",
         patch(id, patch_body("pin", id + "-v2",
                              "[{\"op\": \"replace\", \"gate\": \"M1\", "
                              "\"subtree\": \"toplevel r; r or a e; e "
                              "prob=0.05;\"}]")),
         200,
         "{\"ok\": true, \"status\": \"optimal\", \"tenant\": \"pin\", "
         "\"id\": \"t1\", \"etag\": \"t1-v3\", \"version\": 3, "
         "\"deltaApplied\": true, \"delta\": {\"weightOnly\": false, "
         "\"sessionRebased\": false, \"reprepared\": false, "
         "\"strataTotal\": 0, \"strataReused\": 0, \"strataReweighted\": 0, "
         "\"strataReprepared\": 0}, \"memoized\": false, \"seconds\": #, "
         "\"solution\": {\"probability\": 0.36, \"logCost\": 1.02165124753, "
         "\"solver\": \"stratified\", \"lineage\": \"strata\", "
         "\"satDecisions\": 0, \"satPropagations\": 0, \"satConflicts\": 0, "
         "\"mpmcs\": [\"c\", \"d\"]}}"},
        {"get: after the edits",
         req("GET", "/v1/trees/" + id, "{\"tenant\": \"pin\"}"), 200,
         "{\"ok\": true, \"tenant\": \"pin\", \"id\": \"t1\", \"etag\": "
         "\"t1-v3\", \"version\": 3, \"edits\": 3, \"events\": 5, "
         "\"nodes\": 8, \"tree\": \"toplevel \\\"TOP\\\";\\n\\\"a\\\" "
         "prob=0;\\n\\\"b\\\" prob=0.20000000000000001;\\n\\\"c\\\" "
         "prob=0.59999999999999998;\\n\\\"d\\\" "
         "prob=0.59999999999999998;\\n\\\"e\\\" "
         "prob=0.050000000000000003;\\n\\\"TOP\\\" or \\\"M1\\\" "
         "\\\"M2\\\";\\n\\\"M1\\\" or \\\"a\\\" \\\"e\\\";\\n\\\"M2\\\" and "
         "\\\"c\\\" \\\"d\\\";\\n\"}"},
        {"list", req("GET", "/v1/trees", "{\"tenant\": \"pin\"}"), 200,
         "{\"ok\": true, \"tenant\": \"pin\", \"trees\": [{\"id\": \"t2\", "
         "\"etag\": \"t2-v1\", \"version\": 1, \"edits\": 0, \"events\": 4, "
         "\"nodes\": 7}, {\"id\": \"t1\", \"etag\": \"t1-v3\", \"version\": "
         "3, \"edits\": 3, \"events\": 5, \"nodes\": 8}]}"},
        {"delete", req("DELETE", "/v1/trees/" + other, "{\"tenant\": \"pin\"}"),
         200,
         "{\"ok\": true, \"id\": \"t2\", \"deleted\": true}"},
    };
    for (const Pinned& c : cases) expect_pinned(svc, c);
  }
  {
    // Every admission refusal, deterministic without a request in
    // flight: zero-length queues and a one-second service estimate.
    ServiceOptions opts = test_options();
    opts.tenant_queue_limit = 0;
    SolveService quota(opts);
    const std::string qid = create_pinned(quota);
    opts = test_options();
    opts.global_queue_limit = 0;
    SolveService full(opts);
    const std::string fid = create_pinned(full);
    opts = test_options();
    opts.min_service_estimate_seconds = 1.0;
    SolveService slow(opts);
    const std::string sid = create_pinned(slow);
    opts = test_options();
    opts.tenant_tree_limit = 0;
    SolveService owned(opts);
    SolveService draining(test_options());
    const std::string did = create_pinned(draining);
    draining.begin_shutdown();
    const std::string solve = solve_body("pin", named_tree_text());
    const std::string hurried =
        solve_body("pin", named_tree_text(), "", 0, 1.0);
    const std::string hurried_patch =
        "{\"tenant\": \"pin\", \"deadline_ms\": 1, \"delta\": " + bump + "}";
    const std::pair<SolveService*, Pinned> cases[] = {
        {&quota, {"solve: tenant queue", post("/v1/solve", solve), 429,
                  "{\"ok\": false, \"code\": \"over_quota\", \"error\": "
                  "\"tenant \\\"pin\\\" has 0 requests outstanding\"}"}},
        {&quota,
         {"patch: tenant queue", patch(qid, patch_body("pin", "", bump)), 429,
          "{\"ok\": false, \"code\": \"over_quota\", \"error\": \"tenant "
          "\\\"pin\\\" has 0 requests outstanding\"}"}},
        {&full, {"solve: global queue", post("/v1/solve", solve), 503,
                 "{\"ok\": false, \"code\": \"over_capacity\", \"error\": "
                 "\"global queue is full (0 outstanding)\"}"}},
        {&full,
         {"patch: global queue", patch(fid, patch_body("pin", "", bump)), 503,
          "{\"ok\": false, \"code\": \"over_capacity\", \"error\": \"global "
          "queue is full (0 outstanding)\"}"}},
        {&slow,
         {"solve: unmeetable deadline", post("/v1/solve", hurried), 503,
          "{\"ok\": false, \"code\": \"deadline_unmeetable\", \"error\": "
          "\"estimated wait 1s exceeds the 0.001s deadline\"}"}},
        {&slow, {"patch: unmeetable deadline", patch(sid, hurried_patch), 503,
                 "{\"ok\": false, \"code\": \"deadline_unmeetable\", "
                 "\"error\": \"estimated wait 1s exceeds the 0.001s "
                 "deadline\"}"}},
        {&owned,
         {"create: tree quota", req("POST", "/v1/trees", solve), 429,
          "{\"ok\": false, \"code\": \"over_quota\", \"error\": \"tenant "
          "\\\"pin\\\" owns 0 trees (limit 0)\"}"}},
        {&draining, {"solve: draining", post("/v1/solve", solve), 503,
                     "{\"ok\": false, \"code\": \"shutting_down\", "
                     "\"error\": \"server is draining\"}"}},
        {&draining,
         {"create: draining", req("POST", "/v1/trees", solve), 503,
          "{\"ok\": false, \"code\": \"shutting_down\", \"error\": \"server "
          "is draining\"}"}},
        {&draining,
         {"patch: draining", patch(did, patch_body("pin", "", bump)), 503,
          "{\"ok\": false, \"code\": \"shutting_down\", \"error\": \"server "
          "is draining\"}"}},
    };
    for (const auto& [svc, c] : cases) expect_pinned(*svc, c);
    // Each refusal is counted once, globally and for its tenant; the
    // engine never saw a refused request.
    const auto counted = [](SolveService& svc,
                            std::atomic<std::uint64_t> TenantCounters::*n) {
      return std::make_pair((svc.stats().global().*n).load(),
                            (svc.stats().tenant("pin").*n).load());
    };
    const auto twice = std::make_pair(std::uint64_t{2}, std::uint64_t{2});
    EXPECT_EQ(counted(quota, &TenantCounters::rejected_quota), twice);
    EXPECT_EQ(counted(full, &TenantCounters::rejected_capacity), twice);
    EXPECT_EQ(counted(slow, &TenantCounters::rejected_deadline), twice);
    EXPECT_EQ(counted(owned, &TenantCounters::rejected_quota),
              std::make_pair(std::uint64_t{1}, std::uint64_t{1}));
    for (SolveService* svc : {&quota, &full, &slow, &owned, &draining}) {
      EXPECT_EQ(svc->engine().stats().submitted, 0u);
    }
  }
  {
    // A 504 with a deadline: the held engine run outlives it.
    SolveService svc(delayed_options(0.5));
    const std::string id = create_pinned(svc);
    const Pinned cases[] = {
        {"solve: deadline expired",
         post("/v1/solve",
              solve_body("pin", named_tree_text(), "", 0, 50.0)),
         504,
         "{\"ok\": false, \"code\": \"deadline_exceeded\", \"error\": "
         "\"deadline of 0.05s expired before the solve finished\"}"},
        {"patch: deadline expired",
         patch(id, "{\"tenant\": \"pin\", \"deadline_ms\": 50, \"delta\": " +
                       bump + "}"),
         504,
         "{\"ok\": false, \"code\": \"deadline_exceeded\", \"error\": "
         "\"deadline of 0.05s expired before the re-solve finished\"}"},
    };
    for (const Pinned& c : cases) expect_pinned(svc, c);
  }
  {
    // A 504 without one: the engine cancels the held run.
    SolveService svc(delayed_options(5.0));
    const std::string id = create_pinned(svc);
    const Pinned cases[] = {
        {"solve: cancelled",
         post("/v1/solve", solve_body("pin", named_tree_text())), 504,
         "{\"ok\": false, \"code\": \"deadline_exceeded\", \"error\": \"the "
         "solve was cancelled before it finished\"}"},
        {"patch: cancelled", patch(id, patch_body("pin", "", bump)), 504,
         "{\"ok\": false, \"code\": \"deadline_exceeded\", \"error\": \"the "
         "re-solve was cancelled before it finished\"}"},
    };
    for (const Pinned& c : cases) {
      // Once the engine counts the request, its token is a child of the
      // lifetime token cancel_all() cancels.
      const std::uint64_t before = svc.engine().stats().submitted;
      std::thread cancel([&svc, before] {
        EXPECT_TRUE(eventually(
            [&] { return svc.engine().stats().submitted > before; }));
        svc.engine().cancel_all();
      });
      expect_pinned(svc, c);
      cancel.join();
    }
  }
  {
    // The members /v1/statsz reports (its numbers masked).
    SolveService svc(test_options());
    svc.handle(post("/v1/solve", solve_body("pin", named_tree_text())));
    const HttpResponse r = svc.handle(get("/v1/statsz"));
    EXPECT_EQ(r.status, 200);
    const std::string body = mask_values(r.body, "");
    EXPECT_EQ(body,
              "{\n  \"global\": {\"requests\": #, \"ok\": #, "
              "\"coalescedHits\": #, \"memoHits\": #, \"cacheHits\": #, "
              "\"engineSolves\": #, \"rejectedQuota\": #, "
              "\"rejectedCapacity\": #, \"rejectedDeadline\": #, "
              "\"deadlineExceeded\": #, \"degraded\": #, \"badRequests\": "
              "#, \"errors\": #, \"queueDepth\": #, \"p50Seconds\": #, "
              "\"p99Seconds\": #},\n  \"engine\": {\"submitted\": #, "
              "\"completed\": #, \"cancelled\": #, \"failed\": #, "
              "\"cacheHits\": #, \"cacheMisses\": #, "
              "\"memoHits\": #, \"sessionMemoryBytes\": #, "
              "\"sessionEvictions\": #, \"poolSteals\": #, \"threads\": "
              "#},\n  \"trees\": {\"active\": #, \"edits\": #, \"created\": "
              "#, \"evicted\": #, \"etagConflicts\": #},\n  \"resilience\": "
              "{\"journalEnabled\": #, \"restoredTrees\": #, "
              "\"journalAppends\": #, \"journalCompactions\": #, "
              "\"journalFsyncs\": #, \"watchdogCancels\": #, "
              "\"quarantines\": #, \"sessionResets\": #, "
              "\"failpointsCompiled\": #},\n  \"sat\": {\"solves\": #, "
              "\"decisions\": #, \"propagations\": #, \"conflicts\": #, "
              "\"escalations\": #},\n  \"tenants\": [\n    {\"tenant\": "
              "\"pin\", \"requests\": #, \"ok\": #, \"coalescedHits\": #, "
              "\"memoHits\": #, \"cacheHits\": #, \"engineSolves\": #, "
              "\"rejectedQuota\": #, \"rejectedCapacity\": #, "
              "\"rejectedDeadline\": #, \"deadlineExceeded\": #, "
              "\"degraded\": #, \"badRequests\": #, \"errors\": #, "
              "\"queueDepth\": #, \"p50Seconds\": #, \"p99Seconds\": #}\n  "
              "]\n}\n")
        << "statsz";
  }
}

/// The approximate 200 on both solving endpoints: the first SAT call
/// (LSU's first incumbent) runs free and every later one sleeps past the
/// deadline.
TEST(PinnedAnswers, ApproximateAnswersStayTheSame) {
  if (!util::failpoints_compiled()) {
    GTEST_SKIP() << "build without MPMCS_FAILPOINTS";
  }
  gen::GeneratorOptions g;
  g.num_events = 35;
  g.and_fraction = 0.5;
  g.sharing = 0.2;
  const std::string tree = ft::to_text(gen::random_tree(g, 11));
  SolveService svc(test_options());
  const HttpResponse created = svc.handle(
      req("POST", "/v1/trees", solve_body("pin", tree, "lsu")));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id =
      util::JsonValue::parse(created.body).get_string("id", "");
  const Pinned cases[] = {
      {"solve: approximate",
       post("/v1/solve", solve_body("pin", tree, "lsu", 0, 250.0)), 200,
       "{\"ok\": true, \"status\": \"approximate\", \"tenant\": \"pin\", "
       "\"kind\": \"mpmcs\", \"seconds\": #, \"solution\": "
       "{\"probability\": 2.15676954653e-15, \"logCost\": 33.770164873, "
       "\"solver\": \"lsu-inc\", \"lineage\": \"pre\", \"satDecisions\": "
       "39, \"satPropagations\": 41, \"satConflicts\": 0, \"mpmcs\": "
       "[\"e2\", \"e15\", \"e17\", \"e19\", \"e25\", \"e29\", \"e32\"], "
       "\"approximate\": true, \"scaledCost\": 33770166, "
       "\"scaledLowerBound\": 26424028, \"probabilityUpperBound\": "
       "3.3434162578e-12, \"optimalityGap\": 0.217533369543}}"},
      {"patch: approximate",
       req("PATCH", "/v1/trees/" + id,
           "{\"tenant\": \"pin\", \"deadline_ms\": 250, \"delta\": "
           "[{\"op\": \"weight\", \"event\": \"e0\", \"probability\": "
           "0.5}]}"),
       200,
       "{\"ok\": true, \"status\": \"approximate\", \"tenant\": \"pin\", "
       "\"id\": \"t1\", \"etag\": \"t1-v2\", \"version\": 2, "
       "\"deltaApplied\": true, \"delta\": {\"weightOnly\": true, "
       "\"sessionRebased\": true, \"reprepared\": false, \"strataTotal\": "
       "0, \"strataReused\": 0, \"strataReweighted\": 0, "
       "\"strataReprepared\": 0}, \"seconds\": #, \"solution\": "
       "{\"probability\": 2.15676954653e-15, \"logCost\": 33.770164873, "
       "\"solver\": \"lsu-inc\", \"lineage\": \"pre\", \"satDecisions\": "
       "39, \"satPropagations\": 41, \"satConflicts\": 0, \"mpmcs\": "
       "[\"e2\", \"e15\", \"e17\", \"e19\", \"e25\", \"e29\", \"e32\"], "
       "\"approximate\": true, \"scaledCost\": 33770166, "
       "\"scaledLowerBound\": 26424028, \"probabilityUpperBound\": "
       "3.3434162578e-12, \"optimalityGap\": 0.217533369543}}"},
  };
  for (const Pinned& c : cases) {
    util::configure_failpoints("sat.solve=delay(400)@1");
    expect_pinned(svc, c);
    util::clear_failpoints();
  }
}

// --- the wire: real sockets through HttpServer/HttpClient ---------------

/// Sends raw bytes on a fresh connection and returns whatever the server
/// answers within a couple of seconds (empty = no response — the server
/// is allowed to wait for more bytes or just close on hostile input; the
/// invariant under test is that it neither crashes nor stops serving).
std::string raw_exchange(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), 0) >= 0) {
    char buf[4096];
    for (;;) {
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
      if (out.find("\r\n\r\n") != std::string::npos) break;
    }
  }
  ::close(fd);
  return out;
}

TEST(HttpWire, RoundTripAndHostileBytesNeverCrashTheServer) {
  SolveService svc(test_options());
  HttpServerOptions sopts;
  sopts.max_body_bytes = 64 << 10;
  HttpServer server(sopts, [&svc](const HttpRequest& r) {
    return svc.handle(r);
  });
  ASSERT_GT(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  const auto health = client.get("/v1/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  const auto solved =
      client.post("/v1/solve", solve_body("wire", ladder_text()));
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->status, 200) << solved->body;
  EXPECT_TRUE(util::JsonValue::parse(solved->body).get_bool("ok", false));

  // Malformed JSON over the wire: a 400 on a connection that stays up.
  const auto bad = client.post("/v1/solve", "{nope");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  const auto after = client.get("/v1/healthz");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);

  // Hostile framing: garbage request lines, binary noise, oversized
  // bodies and oversized headers each get a structured 4xx (or a plain
  // close), and the server keeps serving afterwards.
  EXPECT_NE(raw_exchange(server.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  raw_exchange(server.port(), std::string("\x00\x01\x02\xff\xfe", 5));
  const std::string oversized_body =
      "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: " +
      std::to_string((64 << 10) + 1) + "\r\n\r\n";
  EXPECT_NE(raw_exchange(server.port(), oversized_body).find("413"),
            std::string::npos);
  const std::string oversized_header = "GET /v1/healthz HTTP/1.1\r\nX-Pad: " +
                                       std::string(128 << 10, 'a') +
                                       "\r\n\r\n";
  EXPECT_NE(raw_exchange(server.port(), oversized_header).find("431"),
            std::string::npos);

  const auto still_up = client.get("/v1/healthz");
  ASSERT_TRUE(still_up.has_value());
  EXPECT_EQ(still_up->status, 200);
  EXPECT_GE(server.counters().parse_errors, 3u);

  server.shutdown();
}

TEST(HttpWire, ShutdownDrainsInFlightRequests) {
  SolveService svc(delayed_options(1.5));
  HttpServer server({}, [&svc](const HttpRequest& r) { return svc.handle(r); });

  HttpClient slow_client("127.0.0.1", server.port());
  std::optional<ClientResponse> slow_response;
  std::thread slow([&] {
    slow_response = slow_client.post(
        "/v1/solve", solve_body("drain", distinct_tree_text(6)));
  });
  ASSERT_TRUE(eventually([&] { return svc.queue_depth() == 1; }));

  // Shutdown while the solve is in flight: the response still arrives.
  svc.begin_shutdown();
  server.shutdown();
  slow.join();
  ASSERT_TRUE(slow_response.has_value());
  EXPECT_EQ(slow_response->status, 200) << slow_response->body;

  // And the listener is really gone.
  HttpClient late("127.0.0.1", server.port());
  EXPECT_FALSE(late.get("/v1/healthz", 2.0).has_value());
}

}  // namespace
}  // namespace fta::service
