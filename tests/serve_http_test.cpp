// End-to-end service tests over real loopback sockets: routing, the
// cold-miss/warm-hit contract (byte-identical bodies), POST/GET
// equivalence, error paths, verify mode and the admission gate.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/request.hpp"
#include "obs/json_writer.hpp"
#include "obs/jsonlite.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus;

/// One in-process server + connected client per fixture instance.
class ServeTest : public ::testing::Test {
 protected:
  void start(serve::Service::Options sopts = {}) {
    service_ = std::make_unique<serve::Service>(sopts);
    server_ = std::make_unique<serve::HttpServer>(
        serve::HttpServer::Options{}, [this](const serve::HttpRequest& req) {
          return service_->handle(req);
        });
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    ASSERT_TRUE(client_.connect(server_->port(), "127.0.0.1", &error)) << error;
  }

  void TearDown() override {
    client_.close();
    if (server_) server_->stop();
  }

  std::unique_ptr<serve::Service> service_;
  std::unique_ptr<serve::HttpServer> server_;
  serve::HttpClient client_;
};

constexpr const char* kQuery = "/query?workload=npb&bench=EP&class=S&np=4";

TEST_F(ServeTest, Healthz) {
  start();
  const auto resp = client_.request("GET", "/healthz");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, R"({"status":"ok"})");
}

TEST_F(ServeTest, ColdMissThenWarmHitByteIdentical) {
  start();
  const auto cold = client_.request("GET", kQuery);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->status, 200);
  EXPECT_EQ(cold->headers.at("x-cirrus-cache"), "miss");
  EXPECT_NE(cold->body.find(R"("cache":"miss")"), std::string::npos);

  const auto warm1 = client_.request("GET", kQuery);
  const auto warm2 = client_.request("GET", kQuery);
  ASSERT_TRUE(warm1.has_value() && warm2.has_value());
  EXPECT_EQ(warm1->headers.at("x-cirrus-cache"), "hit");
  EXPECT_NE(warm1->body.find(R"("cache":"hit")"), std::string::npos);
  // Warm repeats are byte-identical to each other, and differ from the cold
  // body only in the cache marker.
  EXPECT_EQ(warm1->body, warm2->body);
  std::string cold_as_hit = cold->body;
  const auto pos = cold_as_hit.find(R"("cache":"miss")");
  ASSERT_NE(pos, std::string::npos);
  cold_as_hit.replace(pos, 14, R"("cache":"hit")");
  EXPECT_EQ(warm1->body, cold_as_hit);

  // The response is well-formed JSON carrying the canonical key.
  obs::jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(warm1->body, doc, &error)) << error;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str, "cirrus-serve/1");
  ASSERT_NE(doc.find("key"), nullptr);
  EXPECT_NE(doc.find("key")->str.find("workload=npb"), std::string::npos);
}

TEST_F(ServeTest, EnvelopeBytesMatchTheJsonWriter) {
  // The hit and miss envelopes are rendered in one pass; their bytes must be
  // exactly what the shared JSON writer gives for the same fields.
  start();
  core::RunRequest run;
  std::string error;
  const auto kvs = serve::parse_query_string("workload=npb&bench=EP&class=S&np=4");
  ASSERT_TRUE(core::RunRequest::parse(kvs, run, &error)) << error;
  const std::string blob = serve::query_json(run);
  const auto envelope = [&](const char* cache) {
    obs::jsonw::Writer w;
    w.begin_object();
    w.key("schema").value("cirrus-serve/1");
    w.key("cache").value(cache);
    w.key("key").value(run.canonical_key());
    w.key("key_hash").value(run.key_hash_hex());
    w.key("result").raw(blob);
    w.end_object();
    return w.str();
  };
  const auto miss = client_.request("GET", kQuery);
  const auto hit = client_.request("GET", kQuery);
  ASSERT_TRUE(miss.has_value() && hit.has_value());
  EXPECT_EQ(miss->body, envelope("miss"));
  EXPECT_EQ(hit->body, envelope("hit"));
  EXPECT_EQ(hit->headers.at("x-cirrus-key"), run.key_hash_hex());
}

TEST_F(ServeTest, PostJsonEqualsGetQueryString) {
  start();
  const auto get = client_.request("GET", kQuery);
  const auto post = client_.request(
      "POST", "/query", R"({"workload":"npb","bench":"EP","class":"S","np":4})");
  ASSERT_TRUE(get.has_value() && post.has_value());
  EXPECT_EQ(post->status, 200);
  // Same canonical request: the POST is a warm hit on the GET's entry and
  // the result payloads are byte-identical.
  EXPECT_EQ(post->headers.at("x-cirrus-cache"), "hit");
  EXPECT_EQ(get->headers.at("x-cirrus-key"), post->headers.at("x-cirrus-key"));
}

TEST_F(ServeTest, AdviseEndpoint) {
  start();
  const auto resp = client_.request("GET", "/advise?bench=CG&np=16&queue_wait_hours=4");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  obs::jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(resp->body, doc, &error)) << error;
  const auto* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("advice"), nullptr);
  EXPECT_EQ(result->find("advice")->str, "burst");
  const auto warm = client_.request("GET", "/advise?bench=CG&np=16&queue_wait_hours=4");
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->headers.at("x-cirrus-cache"), "hit");
}

TEST_F(ServeTest, ErrorPaths) {
  start();
  const auto notfound = client_.request("GET", "/nope");
  ASSERT_TRUE(notfound.has_value());
  EXPECT_EQ(notfound->status, 404);

  const auto badjson = client_.request("POST", "/query", "{not json");
  ASSERT_TRUE(badjson.has_value());
  EXPECT_EQ(badjson->status, 400);
  EXPECT_NE(badjson->body.find("invalid JSON"), std::string::npos);

  const auto badknob = client_.request("GET", "/query?workload=npb&np=minus-two");
  ASSERT_TRUE(badknob.has_value());
  EXPECT_EQ(badknob->status, 400);

  const auto unknown = client_.request("GET", "/query?frobnicate=1");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status, 400);
  EXPECT_NE(unknown->body.find("unknown key"), std::string::npos);

  // More ranks than the platform holds is a client error naming the limit.
  const auto too_big = client_.request("GET", "/query?bench=EP&class=S&np=100000");
  ASSERT_TRUE(too_big.has_value());
  EXPECT_EQ(too_big->status, 400);
  EXPECT_NE(too_big->body.find("does not fit"), std::string::npos);
  EXPECT_NE(too_big->body.find("at most"), std::string::npos);

  // Shapes a workload cannot run are client errors too, found while
  // computing (std::invalid_argument), and the server keeps answering.
  const std::pair<const char*, const char*> shape_errors[] = {
      {"/query?workload=npb&bench=CG&np=3", "CG requires a power-of-two np"},
      {"/query?workload=npb&bench=MG&np=3", "MG requires power-of-two np"},
      {"/advise?np=3", "CG requires a power-of-two np"},
      {"/advise?np=20000", "at most"},
      {"/advise?np=99999999999", "np: integer in [1, 1048576] expected"},
      {"/advise?bench=XX", "bench:"},
      {"/advise?queue_wait_hours=nan", "queue_wait_hours:"},
      {"/advise?frobnicate=1", "unknown key"},
      {"/query?workload=osu&bench=xyz", "bench: bw|lat expected for osu, got 'xyz'"},
      {"/query?workload=osu", "bench: bw|lat expected for osu"},
  };
  for (const auto& [target, why] : shape_errors) {
    const auto resp = client_.request("GET", target);
    ASSERT_TRUE(resp.has_value()) << target;
    EXPECT_EQ(resp->status, 400) << target << ": " << resp->body;
    EXPECT_NE(resp->body.find(why), std::string::npos) << target << ": " << resp->body;
  }
  // An osu query without a bench names the choices, not npb's default CG.
  const auto osu = client_.request("GET", "/query?workload=osu");
  ASSERT_TRUE(osu.has_value());
  EXPECT_EQ(osu->body.find("CG"), std::string::npos) << osu->body;
  const auto alive = client_.request("GET", "/healthz");
  ASSERT_TRUE(alive.has_value());
  EXPECT_EQ(alive->status, 200);
}

TEST_F(ServeTest, RunsTheBenchTheKeyNames) {
  // The key renders osu's bench lower-case and npb's upper-case; the run
  // must read the same value, whatever case the client sent.
  start();
  const auto result_of = [this](const char* target) {
    const auto resp = client_.request("GET", target);
    EXPECT_TRUE(resp.has_value()) << target;
    if (!resp) return std::string();
    EXPECT_EQ(resp->status, 200) << target << ": " << resp->body;
    // The envelope ends with "result":<blob>}.
    const std::size_t at = resp->body.find(R"("result":)");
    if (at == std::string::npos) return std::string();
    return resp->body.substr(at + 9, resp->body.size() - at - 10);
  };
  for (const char* target : {"/query?workload=osu&bench=BW", "/query?workload=osu&bench=bw"}) {
    const std::string blob = result_of(target);
    EXPECT_NE(blob.find("mb_per_s"), std::string::npos) << target << ": " << blob;
    EXPECT_EQ(blob.find("usec"), std::string::npos) << target << ": " << blob;
  }
  EXPECT_EQ(result_of("/query?bench=cg&class=S&np=4"),
            serve::query_json({.workload = "npb", .bench = "CG", .cls = "S", .np = 4}));
  EXPECT_EQ(result_of("/advise?bench=cg&np=16&queue_wait_hours=4"),
            serve::advise_json({.bench = "CG", .np = 16, .queue_wait_h = 4}));
}

TEST_F(ServeTest, MetricsExposition) {
  start();
  (void)client_.request("GET", kQuery);
  (void)client_.request("GET", kQuery);
  const auto resp = client_.request("GET", "/metrics");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("serve_cache_requests_total{result=\"hit\"} 1"),
            std::string::npos);
  EXPECT_NE(resp->body.find("serve_cache_requests_total{result=\"miss\"} 1"),
            std::string::npos);
  EXPECT_NE(resp->body.find("serve_requests_total{route=\"query\"} 2"), std::string::npos);
  EXPECT_NE(resp->body.find("serve_request_duration_us_count{cache=\"hit\",route=\"query\"} 1"),
            std::string::npos);
}

TEST_F(ServeTest, VerifyModeReExecutesHits) {
  serve::Service::Options sopts;
  sopts.verify_fraction = 1.0;  // audit every hit
  start(sopts);
  const auto cold = client_.request("GET", kQuery);
  ASSERT_TRUE(cold.has_value());
  const auto warm = client_.request("GET", kQuery);
  ASSERT_TRUE(warm.has_value());
  // Determinism holds, so the audited hit still succeeds...
  EXPECT_EQ(warm->status, 200);
  EXPECT_EQ(warm->headers.at("x-cirrus-cache"), "hit");
  // ...and the audit shows up in the verify counter.
  const auto metrics = client_.request("GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->body.find("serve_verify_total{result=\"ok\"} 1"), std::string::npos);
}

TEST(GateTest, BoundsInFlightWork) {
  serve::Gate gate(2);
  ASSERT_TRUE(gate.acquire_for(std::chrono::milliseconds(10)));
  ASSERT_TRUE(gate.acquire_for(std::chrono::milliseconds(10)));
  EXPECT_EQ(gate.in_flight(), 2);
  // Full: a third acquisition times out (the service turns this into 503).
  EXPECT_FALSE(gate.acquire_for(std::chrono::milliseconds(50)));
  gate.release();
  EXPECT_TRUE(gate.acquire_for(std::chrono::milliseconds(10)));
  gate.release();
  gate.release();
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(GateTest, ReleaseWakesWaiter) {
  serve::Gate gate(1);
  ASSERT_TRUE(gate.acquire_for(std::chrono::milliseconds(10)));
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.release();
  });
  // Blocks until the releaser frees the slot — well within the timeout.
  EXPECT_TRUE(gate.acquire_for(std::chrono::milliseconds(2000)));
  releaser.join();
  gate.release();
}

TEST_F(ServeTest, BackpressureRejectsWhenQueueFull) {
  serve::Service::Options sopts;
  sopts.max_inflight_jobs = 1;
  sopts.queue_timeout_ms = 1;  // reject almost immediately when the slot is busy
  start(sopts);

  // Hold the only compute slot so every miss times out at admission.
  auto& gate = const_cast<serve::Gate&>(service_->gate());
  ASSERT_TRUE(gate.acquire_for(std::chrono::milliseconds(100)));
  const auto rejected = client_.request("GET", kQuery);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, 503);
  EXPECT_EQ(rejected->headers.at("x-cirrus-cache"), "rejected");
  EXPECT_EQ(rejected->headers.at("retry-after"), "1");
  gate.release();

  // With the slot free the same query now computes and caches.
  const auto ok = client_.request("GET", kQuery);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->headers.at("x-cirrus-cache"), "miss");
}

TEST(HttpParsing, QueryString) {
  const auto kvs = serve::parse_query_string("a=1&b=two%20words&flag&c=%3D");
  ASSERT_EQ(kvs.size(), 4U);
  EXPECT_EQ(kvs[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(kvs[1], (std::pair<std::string, std::string>{"b", "two words"}));
  EXPECT_EQ(kvs[2], (std::pair<std::string, std::string>{"flag", ""}));
  EXPECT_EQ(kvs[3], (std::pair<std::string, std::string>{"c", "="}));
}

TEST(HttpServerTest, IdleReapedConnectionGetsNoStrayResponse) {
  // The read timeout reaps an idle keep-alive connection by closing it, with
  // no reply: a stray 400 would be read as the answer to the client's next
  // request.
  serve::HttpServer::Options opts;
  opts.read_timeout_ms = 100;
  serve::HttpServer server(opts, [](const serve::HttpRequest&) {
    return serve::HttpResponse{200, "application/json", R"({"status":"ok"})", {}};
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // On a raw socket: after the reaper's timeout, the server's end is closed
  // and nothing was written to it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const timeval give_up{5, 0};  // a server that never reaps fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &give_up, sizeof give_up);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "reaped connection wrote a response";
  ::close(fd);

  // Through the client: every request on a reaped connection gets its own
  // answer (the client reconnects once the server has closed).
  serve::HttpClient client;
  ASSERT_TRUE(client.connect(server.port()));
  for (int i = 0; i < 3; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const auto resp = client.request("GET", "/healthz");
    ASSERT_TRUE(resp.has_value()) << "request " << i;
    EXPECT_EQ(resp->status, 200) << "request " << i << ": " << resp->body;
  }
  server.stop();
}

TEST(HttpServerTest, ConcurrentClients) {
  serve::Service service({});
  serve::HttpServer server(serve::HttpServer::Options{},
                           [&service](const serve::HttpRequest& req) {
                             return service.handle(req);
                           });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Prime the cache so the storm below is mixed hit/miss.
  {
    serve::HttpClient warm;
    ASSERT_TRUE(warm.connect(server.port()));
    const auto resp = warm.request("GET", kQuery);
    ASSERT_TRUE(resp.has_value());
  }

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::HttpClient client;
      if (!client.connect(server.port())) return;
      for (int i = 0; i < 5; ++i) {
        // Odd clients stay on the hot key; even ones fan out to cold seeds.
        const std::string target =
            (c % 2 != 0) ? kQuery
                         : std::string(kQuery) + "&seed=" + std::to_string(100 + c * 5 + i);
        const auto resp = client.request("GET", target);
        if (resp && resp->status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * 5);
  server.stop();
  EXPECT_EQ(server.active_connections(), 0);
}

}  // namespace
