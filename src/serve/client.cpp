#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "serve/http.hpp"

namespace cirrus::serve {

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpClient::connect(int port, const std::string& host, std::string* error) {
  close();
  port_ = port;
  host_ = host;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad IPv4 address: " + host;
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) *error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  const int on = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
  return true;
}

std::optional<ClientResponse> HttpClient::request(const std::string& method,
                                                  const std::string& target,
                                                  const std::string& body) {
  if (fd_ < 0 && !connect(port_, host_)) return std::nullopt;
  if (auto resp = request_once(method, target, body)) return resp;
  // The server may have reaped the idle connection between requests;
  // reconnect and retry exactly once.
  if (!connect(port_, host_)) return std::nullopt;
  return request_once(method, target, body);
}

std::optional<ClientResponse> HttpClient::request_once(const std::string& method,
                                                       const std::string& target,
                                                       const std::string& body) {
  std::string req;
  req.reserve(method.size() + target.size() + host_.size() + body.size() + 96);
  req += method;
  req += ' ';
  req += target;
  req += " HTTP/1.1\r\nHost: ";
  req += host_;
  req += "\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\nContent-Length: ";
    req += std::to_string(body.size());
    req += "\r\n";
  }
  req += "\r\n";
  req += body;

  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close();
      return std::nullopt;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string buf;
  char chunk[8192];
  std::size_t header_end = std::string::npos;
  while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      close();
      return std::nullopt;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }

  ClientResponse resp;
  std::string_view status_line;  // "HTTP/1.1 200 OK"
  parse_head(std::string_view(buf).substr(0, header_end), status_line, resp.headers);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos) {
    close();
    return std::nullopt;
  }
  resp.status = std::atoi(buf.c_str() + sp + 1);

  std::size_t content_length = 0;
  if (const auto it = resp.headers.find("content-length"); it != resp.headers.end()) {
    content_length = static_cast<std::size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
  }
  const std::size_t body_start = header_end + 4;
  while (buf.size() < body_start + content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      close();
      return std::nullopt;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  resp.body.assign(buf, body_start, content_length);

  if (const auto it = resp.headers.find("connection");
      it != resp.headers.end() && iequals(it->second, "close")) {
    close();
  }
  return resp;
}

}  // namespace cirrus::serve
