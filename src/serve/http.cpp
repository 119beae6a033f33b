#include "serve/http.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cirrus::serve {

namespace {

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]), lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

}  // namespace

const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::vector<std::pair<std::string, std::string>> parse_query_string(const std::string& q) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t start = 0;
  while (start < q.size()) {
    std::size_t amp = q.find('&', start);
    if (amp == std::string::npos) amp = q.size();
    const std::string piece = q.substr(start, amp - start);
    if (!piece.empty()) {
      const std::size_t eq = piece.find('=');
      if (eq == std::string::npos) {
        out.emplace_back(url_decode(piece), "");
      } else {
        out.emplace_back(url_decode(piece.substr(0, eq)), url_decode(piece.substr(eq + 1)));
      }
    }
    start = amp + 1;
  }
  return out;
}

HttpServer::HttpServer(Options opts, Handler handler)
    : opts_(opts), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, opts_.backlog) != 0) return fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    // shutdown unblocks accept(); close happens after the thread exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock every in-flight connection read, then wait for the detached
  // handler threads to drain.
  std::unique_lock<std::mutex> lock(mu_);
  for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  cv_.wait(lock, [this] { return active_.load() == 0; });
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket gone
    }
    if (active_.load() >= opts_.max_connections) {
      const HttpResponse resp{503, "application/json",
                              R"({"error":"connection limit reached"})", {}};
      send_response(fd, resp, false);
      ::close(fd);
      continue;
    }
    const timeval tv{opts_.read_timeout_ms / 1000, (opts_.read_timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);

    active_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_fds_.insert(fd);
    }
    std::thread([this, fd] {
      serve_connection(fd);
      // Everything happens under mu_: stop() cannot see active_ reach zero
      // (and ~HttpServer destroy cv_) until this thread has released the
      // lock, after its last touch of the server.
      std::lock_guard<std::mutex> lock(mu_);
      open_fds_.erase(fd);
      ::close(fd);
      active_.fetch_sub(1);
      cv_.notify_all();
    }).detach();
  }
}

void HttpServer::serve_connection(int fd) {
  std::string buffered;
  while (!stopping_.load()) {
    HttpRequest req;
    const int rc = read_request(fd, buffered, req);
    if (rc <= 0) {
      if (rc < 0 && !stopping_.load()) {
        send_response(fd, {400, "application/json", R"({"error":"malformed request"})", {}},
                      false);
      }
      return;
    }
    HttpResponse resp;
    try {
      resp = handler_(req);
    } catch (const std::exception& e) {
      resp = {500, "application/json",
              std::string(R"({"error":"internal: )") + e.what() + "\"}", {}};
    }
    const auto conn = req.headers.find("connection");
    const bool keep_alive = conn == req.headers.end() ? true : lower(conn->second) != "close";
    send_response(fd, resp, keep_alive);
    if (!keep_alive) return;
  }
}

int HttpServer::read_request(int fd, std::string& buffered, HttpRequest& out) {
  // Accumulate until the blank line; `buffered` carries any pipelined bytes
  // from the previous request on this connection.
  std::size_t header_end = std::string::npos;
  char chunk[8192];
  while ((header_end = buffered.find("\r\n\r\n")) == std::string::npos) {
    if (buffered.size() > opts_.max_header_bytes) return -1;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return buffered.empty() ? 0 : -1;
    if (n < 0) return errno == EINTR ? (buffered.empty() ? 0 : -1) : -1;
    buffered.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP target SP version.
  const std::string head = buffered.substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line = head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return -1;
  out.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  out.path = qmark == std::string::npos ? target : target.substr(0, qmark);
  out.query = qmark == std::string::npos ? "" : target.substr(qmark + 1);

  // Headers.
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      out.headers[lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
    }
    pos = eol + 2;
  }

  // Body (Content-Length only; no chunked support).
  std::size_t content_length = 0;
  if (const auto it = out.headers.find("content-length"); it != out.headers.end()) {
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || v < 0) return -1;
    content_length = static_cast<std::size_t>(v);
    if (content_length > opts_.max_body_bytes) return -1;
  }
  const std::size_t body_start = header_end + 4;
  while (buffered.size() < body_start + content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return -1;
    buffered.append(chunk, static_cast<std::size_t>(n));
  }
  out.body = buffered.substr(body_start, content_length);
  buffered.erase(0, body_start + content_length);
  return 1;
}

void HttpServer::send_response(int fd, const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " + status_text(resp.status) +
                    "\r\nContent-Type: " + resp.content_type +
                    "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                    "\r\nConnection: " + (keep_alive ? "keep-alive" : "close") + "\r\n";
  for (const auto& [k, v] : resp.headers) out += k + ": " + v + "\r\n";
  out += "\r\n";
  out += resp.body;
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace cirrus::serve
