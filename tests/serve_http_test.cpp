// End-to-end service tests over real loopback sockets: routing, the
// cold-miss/warm-hit contract (byte-identical bodies), POST/GET
// equivalence, error paths, verify mode and the admission gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
