// Request tracing through the service: X-Cirrus-Trace ids, the /spans ring
// (miss shows gate-wait + execute, hit does not), per-route counters and
// duration histograms, and the JSON-lines access log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/jsonlite.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"

namespace {

using namespace cirrus;

class ServeTraceTest : public ::testing::Test {
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

std::vector<std::string> span_names(const serve::RequestTrace& t) {
  std::vector<std::string> names;
  names.reserve(t.spans.size());
  for (const auto& s : t.spans) names.emplace_back(s.name);
  return names;
}

bool has_span(const serve::RequestTrace& t, const std::string& name) {
  for (const auto& s : t.spans)
    if (s.name == name) return true;
  return false;
}

TEST_F(ServeTraceTest, EveryResponseCarriesADistinctTraceId) {
  start();
  std::set<std::string> ids;
  for (const char* path : {"/healthz", kQuery, kQuery, "/metrics", "/nope"}) {
    const auto resp = client_.request("GET", path);
    ASSERT_TRUE(resp.has_value()) << path;
    const auto it = resp->headers.find("x-cirrus-trace");
    ASSERT_NE(it, resp->headers.end()) << path;
    EXPECT_EQ(it->second.size(), 16U) << path;  // %016llx
    EXPECT_EQ(it->second.find_first_not_of("0123456789abcdef"), std::string::npos) << path;
    ids.insert(it->second);
  }
  EXPECT_EQ(ids.size(), 5U);  // monotone sequence: all distinct
}

TEST_F(ServeTraceTest, MissShowsExecuteChainHitDoesNot) {
  start();
  const auto cold = client_.request("GET", kQuery);
  const auto warm = client_.request("GET", kQuery);
  ASSERT_TRUE(cold.has_value() && warm.has_value());
  EXPECT_EQ(cold->headers.at("x-cirrus-cache"), "miss");
  EXPECT_EQ(warm->headers.at("x-cirrus-cache"), "hit");

  const auto traces = service_->recent_traces();
  ASSERT_EQ(traces.size(), 2U);
  const auto& miss = traces[0];
  const auto& hit = traces[1];

  // Cold miss: the full parse -> cache -> gate-wait -> execute -> serialize
  // chain, in begin order.
  EXPECT_EQ(miss.cache, "miss");
  for (const char* name : {"parse", "cache", "gate-wait", "execute", "serialize"})
    EXPECT_TRUE(has_span(miss, name)) << name << " missing from " << miss.route;
  const auto names = span_names(miss);
  // execute comes after gate-wait, serialize last
  EXPECT_LT(std::find(names.begin(), names.end(), "gate-wait") - names.begin(),
            std::find(names.begin(), names.end(), "execute") - names.begin());
  for (const auto& s : miss.spans) EXPECT_LE(s.begin_us, s.end_us) << s.name;

  // Warm hit: served from the blob — no compute slot, no execute span.
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_TRUE(has_span(hit, "cache"));
  EXPECT_FALSE(has_span(hit, "execute"));
  EXPECT_FALSE(has_span(hit, "gate-wait"));
}

TEST_F(ServeTraceTest, SpansEndpointIsStrictJson) {
  start();
  (void)client_.request("GET", kQuery);
  (void)client_.request("GET", kQuery);
  const auto resp = client_.request("GET", "/spans");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);

  obs::jsonlite::Value doc;
  std::string error;
  ASSERT_TRUE(obs::jsonlite::parse(resp->body, doc, &error)) << error;
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str, "cirrus-serve-spans/1");
  const auto* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_EQ(requests->array.size(), 2U);  // /spans itself is recorded *after*
  const auto& first = requests->array[0];
  EXPECT_EQ(first.find("route")->str, "query");
  EXPECT_EQ(first.find("cache")->str, "miss");
  EXPECT_EQ(first.find("status")->number, 200);
  const auto* spans = first.find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_GE(spans->array.size(), 4U);
  for (const auto& s : spans->array) {
    ASSERT_NE(s.find("name"), nullptr);
    EXPECT_LE(s.find("begin_us")->number, s.find("end_us")->number);
  }
}

TEST_F(ServeTraceTest, SpansRingIsBounded) {
  serve::Service::Options sopts;
  sopts.spans_capacity = 3;
  start(sopts);
  for (int i = 0; i < 6; ++i) (void)client_.request("GET", "/healthz");
  const auto traces = service_->recent_traces();
  EXPECT_EQ(traces.size(), 3U);
  for (const auto& t : traces) EXPECT_EQ(t.route, "healthz");
}

TEST_F(ServeTraceTest, PerRouteCountersAndDurationHistograms) {
  start();
  (void)client_.request("GET", "/healthz");
  (void)client_.request("GET", "/healthz");
  (void)client_.request("GET", "/cache/stats");
  (void)client_.request("GET", kQuery);
  (void)client_.request("GET", "/spans");
  (void)client_.request("GET", "/nope");
  const auto resp = client_.request("GET", "/metrics");
  ASSERT_TRUE(resp.has_value());
  const std::string& body = resp->body;

  // The observability routes are first-class, not lumped under "other".
  EXPECT_NE(body.find("serve_requests_total{route=\"healthz\"} 2"), std::string::npos);
  EXPECT_NE(body.find("serve_requests_total{route=\"cache_stats\"} 1"), std::string::npos);
  EXPECT_NE(body.find("serve_requests_total{route=\"query\"} 1"), std::string::npos);
  EXPECT_NE(body.find("serve_requests_total{route=\"spans\"} 1"), std::string::npos);
  EXPECT_NE(body.find("serve_requests_total{route=\"other\"} 1"), std::string::npos);
  // One log2 duration histogram in microseconds (Prometheus triple), one
  // series per (route, cache outcome); "-" marks routes without a cache.
  const std::pair<const char*, const char*> series[] = {
      {"query", "miss"}, {"healthz", "-"}, {"cache_stats", "-"}, {"spans", "-"}, {"other", "-"}};
  for (const auto& [route, cache] : series) {
    const std::string count = std::string("serve_request_duration_us_count{cache=\"") + cache +
                              "\",route=\"" + route + "\"} ";
    EXPECT_NE(body.find(count), std::string::npos) << route;
  }
  EXPECT_NE(body.find("serve_request_duration_us_bucket{"), std::string::npos);
  EXPECT_NE(body.find("serve_request_duration_us_sum{"), std::string::npos);
  // The two histograms it replaced are gone.
  EXPECT_EQ(body.find("serve_request_duration_seconds"), std::string::npos);
  EXPECT_EQ(body.find("serve_request_latency_us"), std::string::npos);
}

TEST_F(ServeTraceTest, AccessLogIsJsonLines) {
  const std::string path =
      ::testing::TempDir() + "/cirrus_access_log_" + std::to_string(::getpid()) + ".jsonl";
  serve::Service::Options sopts;
  sopts.access_log_path = path;
  start(sopts);
  (void)client_.request("GET", kQuery);
  (void)client_.request("GET", kQuery);
  (void)client_.request("GET", "/healthz");
  (void)client_.request("GET", "/nope");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4U);

  const std::vector<std::pair<std::string, std::string>> expect = {
      {"query", "miss"}, {"query", "hit"}, {"healthz", "-"}, {"other", "-"}};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    obs::jsonlite::Value doc;
    std::string error;
    ASSERT_TRUE(obs::jsonlite::parse(lines[i], doc, &error)) << error << "\n" << lines[i];
    ASSERT_NE(doc.find("trace"), nullptr) << lines[i];
    EXPECT_EQ(doc.find("trace")->str.size(), 16U);
    EXPECT_EQ(doc.find("route")->str, expect[i].first) << lines[i];
    EXPECT_EQ(doc.find("cache")->str, expect[i].second) << lines[i];
    ASSERT_NE(doc.find("status"), nullptr);
    ASSERT_NE(doc.find("latency_us"), nullptr);
    EXPECT_GE(doc.find("latency_us")->number, 0);
  }
  EXPECT_EQ(std::remove(path.c_str()), 0);
}

TEST(ServeTraceOptions, BadAccessLogPathThrows) {
  serve::Service::Options sopts;
  sopts.access_log_path = "/nonexistent-dir/access.jsonl";
  EXPECT_THROW(serve::Service service(sopts), std::runtime_error);
}

}  // namespace
