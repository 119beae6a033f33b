// Minimal HTTP/1.1 server for cirrus_serve: POSIX sockets, one thread per
// connection, keep-alive, bounded header/body sizes and per-connection read
// timeouts. No TLS, no chunked encoding — exactly the subset a what-if
// advisor needs behind a trusted front end or on localhost.
//
// Threading model (DESIGN.md "Serving"): the accept loop runs on its own
// thread and spawns a detached handler thread per connection; a connection
// cap turns excess connects into immediate 503s. Backpressure on the
// *simulation* work lives one layer up (serve::Gate) — sockets are cheap,
// sweeps are not, so the two are bounded independently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace cirrus::serve {

struct HttpRequest {
  std::string method;                        ///< "GET", "POST", ...
  std::string path;                          ///< path without the query string
  std::string query;                         ///< raw query string ("" if none)
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string_view content_type = "application/json";  ///< views a string literal
  std::string body;
  /// Extra headers (e.g. {"X-Cirrus-Cache", "hit"}).
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Reason phrase for the status codes the service emits.
const char* status_text(int status) noexcept;

/// Percent-decodes and splits "a=1&b=2" into pairs (missing '=' -> empty
/// value). Exposed for the query front end and tests.
std::vector<std::pair<std::string, std::string>> parse_query_string(std::string_view q);

/// Splits an HTTP head (the bytes before the blank line) into its start
/// line and its header fields, keys lower-cased and values trimmed; the
/// one header parser of HttpServer and HttpClient. A line without a colon
/// is skipped; a repeated field keeps its last value. False when the start
/// line is empty.
bool parse_head(std::string_view head, std::string_view& start_line,
                std::map<std::string, std::string>& headers);

/// ASCII case-insensitive equality (header values such as "Close").
bool iequals(std::string_view a, std::string_view b) noexcept;

class HttpServer {
 public:
  struct Options {
    int port = 0;                 ///< 0: ephemeral, read back via port()
    int backlog = 512;
    int max_connections = 4096;   ///< beyond this, connects get 503 + close
    int read_timeout_ms = 30000;  ///< idle-connection reaper
    std::size_t max_header_bytes = 64 * 1024;
    std::size_t max_body_bytes = 1 << 20;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(Options opts, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the accept thread. False + `error` on failure.
  bool start(std::string* error = nullptr);

  /// Stops accepting, unblocks and drains every connection thread. Safe to
  /// call twice; the destructor calls it.
  void stop();

  /// The bound port (after start()).
  [[nodiscard]] int port() const noexcept { return port_; }

  /// Connections currently being served.
  [[nodiscard]] int active_connections() const noexcept { return active_.load(); }

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Reads one request off `fd`. Returns 1 on success, 0 when the
  /// connection ends, times out or fails between requests (close silently),
  /// -1 on a malformed, oversized or truncated request (answer 400, close).
  int read_request(int fd, std::string& buffered, HttpRequest& out);
  void send_response(int fd, const HttpResponse& resp, bool keep_alive);

  Options opts_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_{0};
  std::mutex mu_;                 // guards open_fds_ and cv waits
  std::condition_variable cv_;    // signalled when a connection finishes
  std::set<int> open_fds_;
};

}  // namespace cirrus::serve
