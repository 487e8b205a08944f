// The experiment daemon: ResultStore lifecycle, in-process routing via
// Daemon::handle, and a full loopback-socket exercise — concurrent
// duplicate submissions must execute once, served bundles must be
// byte-identical to a direct run_request, and replay must verify it.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "campaign/run_request.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/result_store.hpp"

namespace core = mkbas::core;
namespace serve = mkbas::serve;

namespace {

/// A cheap request (3-zone fabric, ~1s of virtual time) all the daemon
/// tests share.
core::ExperimentRequest fabric_request() {
  core::ExperimentRequest r;
  r.mode = core::RequestMode::kFabric;
  r.zones = 3;
  r.seed = 7;
  r.attack = "spoof-write";
  return r;
}

const std::string kFabricBody =
    "{\"attack\":\"spoof-write\",\"mode\":\"fabric\",\"seed\":7,"
    "\"zones\":3}";

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// Poll POST /run through `fn` until it reports ready (or attempts run
/// out), returning the final body.
template <typename Fn>
std::string poll_until_ready(Fn&& fn, int attempts = 200) {
  std::string body;
  for (int i = 0; i < attempts; ++i) {
    body = fn();
    if (contains(body, "\"status\":\"ready\"") ||
        contains(body, "\"status\":\"failed\"")) {
      return body;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return body;
}

}  // namespace

TEST(ResultStore, LifecycleAndCoalescing) {
  serve::ResultStore store;
  const auto req = fabric_request();
  const std::uint64_t key = req.cell_key();

  EXPECT_EQ(store.lookup(key).state, serve::ResultStore::State::kUnknown);
  EXPECT_EQ(store.submit(req), serve::ResultStore::Submit::kQueued);
  EXPECT_EQ(store.submit(req), serve::ResultStore::Submit::kCoalesced);
  EXPECT_EQ(store.submit(req), serve::ResultStore::Submit::kCoalesced);
  EXPECT_EQ(store.lookup(key).state, serve::ResultStore::State::kPending);

  serve::ResultBundle bundle;
  bundle.exit_code = 0;
  bundle.artifacts["summary"] = "{\"ok\":true}";
  store.complete(key, bundle);
  const auto e = store.lookup(key);
  EXPECT_EQ(e.state, serve::ResultStore::State::kReady);
  ASSERT_NE(e.bundle, nullptr);
  EXPECT_EQ(e.bundle->artifacts.at("summary"), "{\"ok\":true}");
  EXPECT_EQ(store.submit(req), serve::ResultStore::Submit::kHit);

  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.coalesced(), 2u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, FailedCellsAreTerminal) {
  serve::ResultStore store;
  auto req = fabric_request();
  ASSERT_EQ(store.submit(req), serve::ResultStore::Submit::kQueued);
  store.fail(req.cell_key(), "scenario exploded");
  const auto e = store.lookup(req.cell_key());
  EXPECT_EQ(e.state, serve::ResultStore::State::kFailed);
  EXPECT_EQ(e.error, "scenario exploded");
  EXPECT_EQ(store.submit(req), serve::ResultStore::Submit::kHit);
}

TEST(ResultStore, DifferentRequestsAreDifferentCells) {
  serve::ResultStore store;
  auto a = fabric_request();
  auto b = fabric_request();
  b.seed = 8;
  EXPECT_EQ(store.submit(a), serve::ResultStore::Submit::kQueued);
  EXPECT_EQ(store.submit(b), serve::ResultStore::Submit::kQueued);
  EXPECT_EQ(store.size(), 2u);
}

// ---------------------------------------------------------------------
// In-process routing (no sockets): Daemon::handle is exactly the HTTP
// surface, so the protocol can be unit-tested deterministically.

namespace {

serve::HttpRequest make_req(const std::string& method, const std::string& path,
                            const std::string& body = "",
                            const std::string& query = "") {
  serve::HttpRequest r;
  r.method = method;
  r.path = path;
  r.query = query;
  r.body = body;
  r.client = "test";
  return r;
}

}  // namespace

TEST(Daemon, RejectsBadRequestsWithFieldErrors) {
  serve::DaemonOptions opts;
  serve::Daemon d(opts);  // never started: handle() works standalone
  auto r = d.handle(make_req("POST", "/run", "{\"zoned\":16}"));
  EXPECT_EQ(r.status, 400);
  EXPECT_TRUE(contains(r.body, "unknown field"));
  EXPECT_TRUE(contains(r.body, "zones"));

  r = d.handle(make_req("POST", "/run", "not json"));
  EXPECT_EQ(r.status, 400);

  r = d.handle(make_req("GET", "/nope"));
  EXPECT_EQ(r.status, 404);

  r = d.handle(make_req("GET", "/result/zzzz"));
  EXPECT_EQ(r.status, 400);

  r = d.handle(make_req("GET", "/result/0123456789abcdef"));
  EXPECT_EQ(r.status, 404);
}

TEST(Daemon, QueuedThenReadyThenHit) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;

  auto first = d.handle(make_req("POST", "/run", kFabricBody));
  EXPECT_EQ(first.status, 202);
  EXPECT_TRUE(contains(first.body, "\"status\":\"queued\"")) << first.body;

  const std::string key = fabric_request().cell_key_hex();
  EXPECT_TRUE(contains(first.body, key)) << first.body;

  const std::string last = poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", kFabricBody)).body;
  });
  EXPECT_TRUE(contains(last, "\"status\":\"ready\"")) << last;
  EXPECT_TRUE(contains(last, "\"exit_code\":0")) << last;
  EXPECT_EQ(d.executions(), 1u);

  // The cached bundle is byte-identical to a direct dispatch.
  const auto direct = core::run_request(fabric_request(),
                                        core::all_deterministic_artifacts());
  auto summary = d.handle(make_req("GET", "/result/" + key));
  EXPECT_EQ(summary.status, 200);
  EXPECT_EQ(summary.body, direct.artifacts.at("summary"));
  auto metrics =
      d.handle(make_req("GET", "/result/" + key, "", "artifact=metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.body, direct.artifacts.at("metrics"));
  auto missing =
      d.handle(make_req("GET", "/result/" + key, "", "artifact=nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_TRUE(contains(missing.body, "available"));

  // Replay re-executes and verifies byte identity.
  auto replay = d.handle(make_req("GET", "/replay/" + key));
  EXPECT_EQ(replay.status, 200);
  EXPECT_TRUE(contains(replay.body, "\"identical\":true")) << replay.body;
  EXPECT_TRUE(contains(replay.body, "\"mismatched\":[]")) << replay.body;

  auto status = d.handle(make_req("GET", "/status"));
  EXPECT_EQ(status.status, 200);
  EXPECT_TRUE(contains(status.body, "\"executions\":1")) << status.body;
  EXPECT_TRUE(contains(status.body, "\"misses\":1")) << status.body;
  EXPECT_TRUE(contains(status.body, "\"serve.requests\"")) << status.body;
  d.shutdown();
}

TEST(Daemon, InvalidModeCombinationIs400NotACell) {
  serve::DaemonOptions opts;
  serve::Daemon d(opts);
  // kill is not a fabric attack: strict validation, nothing enqueued.
  auto r = d.handle(
      make_req("POST", "/run", "{\"attack\":\"kill\",\"mode\":\"fabric\"}"));
  EXPECT_EQ(r.status, 400);
  EXPECT_TRUE(contains(r.body, "attack")) << r.body;
  EXPECT_EQ(d.store().size(), 0u);
}

TEST(Daemon, UnknownScenarioVariantIs400NotACell) {
  serve::DaemonOptions opts;
  serve::Daemon d(opts);
  // seL4 has no "uds" build: rejected up front, no execution spent.
  auto r = d.handle(make_req(
      "POST", "/run", "{\"platform\":\"sel4\",\"scenario\":\"uds\"}"));
  EXPECT_EQ(r.status, 400);
  EXPECT_TRUE(contains(r.body, "scenario")) << r.body;
  EXPECT_EQ(d.store().size(), 0u);
}

// ---------------------------------------------------------------------
// Full loopback exercise over real sockets.

TEST(DaemonSocket, ConcurrentDuplicatesExecuteOnce) {
  serve::DaemonOptions opts;
  opts.port = 0;  // ephemeral
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  const int port = d.port();
  ASSERT_GT(port, 0);

  // Four clients race the same request; exactly one execution may
  // happen, the rest must hit or coalesce.
  std::vector<std::thread> clients;
  std::vector<std::string> finals(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      serve::HttpClient c(port, "client-" + std::to_string(i));
      finals[static_cast<std::size_t>(i)] = poll_until_ready([&] {
        serve::HttpResponse resp;
        std::string cerr;
        if (!c.post("/run", kFabricBody, &resp, &cerr)) return cerr;
        return resp.body;
      });
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& f : finals) {
    EXPECT_TRUE(contains(f, "\"status\":\"ready\"")) << f;
  }
  EXPECT_EQ(d.executions(), 1u);
  EXPECT_EQ(d.store().size(), 1u);

  // Served artifacts equal a direct in-process run, byte for byte.
  const auto direct = core::run_request(fabric_request(),
                                        core::all_deterministic_artifacts());
  serve::HttpClient c(port, "verify");
  const std::string key = fabric_request().cell_key_hex();
  for (const auto& [name, text] : direct.artifacts) {
    serve::HttpResponse resp;
    std::string cerr;
    ASSERT_TRUE(c.get("/result/" + key + "?artifact=" + name, &resp, &cerr))
        << cerr;
    EXPECT_EQ(resp.status, 200) << name;
    EXPECT_EQ(resp.body, text) << name;
  }

  serve::HttpResponse replay;
  std::string cerr;
  ASSERT_TRUE(c.get("/replay/" + key, &replay, &cerr)) << cerr;
  EXPECT_EQ(replay.status, 200);
  EXPECT_TRUE(contains(replay.body, "\"identical\":true")) << replay.body;

  // POST /shutdown unblocks wait().
  std::thread waiter([&] { d.wait(); });
  serve::HttpResponse stop;
  ASSERT_TRUE(c.post("/shutdown", "", &stop, &cerr)) << cerr;
  EXPECT_EQ(stop.status, 200);
  waiter.join();
}

TEST(DaemonSocket, DistinctRequestsGetDistinctCells) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  serve::HttpClient c(d.port(), "multi");

  const std::string body_a = kFabricBody;
  const std::string body_b =
      "{\"attack\":\"replay\",\"mode\":\"fabric\",\"seed\":7,\"zones\":3}";
  const std::string ra = poll_until_ready([&] {
    serve::HttpResponse resp;
    std::string cerr;
    if (!c.post("/run", body_a, &resp, &cerr)) return cerr;
    return resp.body;
  });
  const std::string rb = poll_until_ready([&] {
    serve::HttpResponse resp;
    std::string cerr;
    if (!c.post("/run", body_b, &resp, &cerr)) return cerr;
    return resp.body;
  });
  EXPECT_TRUE(contains(ra, "\"status\":\"ready\"")) << ra;
  EXPECT_TRUE(contains(rb, "\"status\":\"ready\"")) << rb;
  EXPECT_EQ(d.store().size(), 2u);
  EXPECT_EQ(d.executions(), 2u);
  d.shutdown();
}
