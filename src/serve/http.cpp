#include "serve/http.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cirrus::serve {

namespace {

/// `s` without leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept {
  const auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(std::string_view s) {
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

std::vector<std::pair<std::string, std::string>> parse_query_string(std::string_view q) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(static_cast<std::size_t>(std::count(q.begin(), q.end(), '&')) + 1);
  while (!q.empty()) {
    const std::size_t amp = std::min(q.find('&'), q.size());
    const std::string_view piece = q.substr(0, amp);
    q.remove_prefix(std::min(amp + 1, q.size()));
    if (piece.empty()) continue;
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos) {
      out.emplace_back(url_decode(piece), "");
    } else {
      out.emplace_back(url_decode(piece.substr(0, eq)), url_decode(piece.substr(eq + 1)));
    }
  }
  return out;
}

bool parse_head(std::string_view head, std::string_view& start_line,
                std::map<std::string, std::string>& headers) {
  std::size_t eol = std::min(head.find("\r\n"), head.size());
  start_line = head.substr(0, eol);
  while (eol < head.size()) {
    head.remove_prefix(eol + 2);
    eol = std::min(head.find("\r\n"), head.size());
    const std::string_view line = head.substr(0, eol);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key(trim(line.substr(0, colon)));
    for (auto& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    headers.insert_or_assign(std::move(key), std::string(trim(line.substr(colon + 1))));
  }
  return !start_line.empty();
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
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
    const bool keep_alive = conn == req.headers.end() || !iequals(conn->second, "close");
    send_response(fd, resp, keep_alive);
    if (!keep_alive) return;
  }
}

int HttpServer::read_request(int fd, std::string& buffered, HttpRequest& out) {
  // Accumulate until the blank line; `buffered` carries any pipelined bytes
  // from the previous request on this connection. A connection that ends or
  // times out (the idle reaper) between requests closes silently: only bytes
  // that fail to parse earn a 400.
  std::size_t header_end = std::string::npos;
  char chunk[8192];
  while ((header_end = buffered.find("\r\n\r\n")) == std::string::npos) {
    if (buffered.size() > opts_.max_header_bytes) return -1;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return buffered.empty() ? 0 : -1;
    buffered.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP target SP version.
  std::string_view request_line;
  if (!parse_head(std::string_view(buffered).substr(0, header_end), request_line, out.headers)) {
    return -1;
  }
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return -1;
  out.method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = std::min(target.find('?'), target.size());
  out.path = target.substr(0, qmark);
  out.query = target.substr(std::min(qmark + 1, target.size()));

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
  out.body.assign(buffered, body_start, content_length);
  buffered.erase(0, body_start + content_length);
  return 1;
}

void HttpServer::send_response(int fd, const HttpResponse& resp, bool keep_alive) {
  // Head and body in one buffer, one send.
  std::size_t size = 128 + resp.content_type.size() + resp.body.size();
  for (const auto& [k, v] : resp.headers) size += k.size() + v.size() + 4;
  std::string out;
  out.reserve(size);
  char status[16];
  std::snprintf(status, sizeof status, "HTTP/1.1 %d ", resp.status);
  out += status;
  out += status_text(resp.status);
  out += "\r\nContent-Type: ";
  out += resp.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(resp.body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n" : "\r\nConnection: close\r\n";
  for (const auto& [k, v] : resp.headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
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
