#include "net/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "util/strings.h"

namespace ixp::net {
namespace {

// Hard ceilings on one request.  They fit the serving API (short GET
// targets, no bodies) with room to spare; every violation maps to a
// specific 4xx so clients can tell what they did wrong.
constexpr std::size_t kMaxHeadBytes = 8192;    ///< request line + headers, incl. CRLFs
constexpr std::size_t kMaxHeaders = 64;
constexpr std::size_t kMaxTargetBytes = 2048;  ///< request-target (path + query)
constexpr std::size_t kMaxBodyBytes = 65536;   ///< Content-Length ceiling

constexpr int kListenBacklog = 128;
/// Keep-alive requests served per connection before forcing a close
/// (bounds per-connection state lifetime).
constexpr int kMaxRequestsPerConnection = 100000;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool is_token_char(char c) {
  // RFC 9110 token charset (header names, methods).
  static constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return std::isalnum(static_cast<unsigned char>(c)) != 0 ||
         kExtra.find(c) != std::string_view::npos;
}

bool is_target_char(char c) {
  // Printable ASCII except space and DEL; controls embedded in a target are
  // always an attack or corruption, never a real client.
  return c > 0x20 && c < 0x7f;
}

HttpParse bad(int code, std::string why, int* status, std::string* error) {
  if (status != nullptr) *status = code;
  if (error != nullptr) *error = std::move(why);
  return HttpParse::kBad;
}

// Writes all of `bytes`, retrying on EINTR.  False once a send fails or
// makes no progress; MSG_NOSIGNAL keeps a vanished peer from raising
// SIGPIPE.
bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

std::string HttpRequest::query_param(std::string_view key, std::string_view fallback) const {
  std::string_view q = query;
  while (!q.empty()) {
    const std::size_t amp = q.find('&');
    const std::string_view pair = q.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key &&
        eq + 1 < pair.size()) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    q.remove_prefix(amp + 1);
  }
  return std::string(fallback);
}

HttpParse parse_http_request(std::string_view in, HttpRequest* req, std::size_t* consumed,
                             int* status, std::string* error) {
  // ---- Locate the end of the head (CRLFCRLF) within the head budget -----
  const std::size_t head_end = in.substr(0, kMaxHeadBytes).find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (in.size() >= kMaxHeadBytes) {
      return bad(431, "request head exceeds the size limit", status, error);
    }
    // An early NUL can never become a valid request; reject instead of
    // buffering until the head limit trips.
    if (in.find('\0') != std::string_view::npos) {
      return bad(400, "NUL byte in request head", status, error);
    }
    return HttpParse::kNeedMore;
  }
  const std::string_view head = in.substr(0, head_end);

  // ---- Request line ------------------------------------------------------
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line = head.substr(0, line_end);  // npos = whole head
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return bad(400, "malformed request line", status, error);
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || method.size() > 16) {
    return bad(400, "malformed method", status, error);
  }
  for (const char c : method) {
    if (!is_token_char(c)) return bad(400, "malformed method", status, error);
  }
  if (target.size() > kMaxTargetBytes) {
    return bad(414, "request target too long", status, error);
  }
  if (target.empty() || target[0] != '/') {
    return bad(400, "request target must be origin-form", status, error);
  }
  for (const char c : target) {
    if (!is_target_char(c)) return bad(400, "invalid byte in request target", status, error);
  }
  int minor = 0;
  if (version == "HTTP/1.1") {
    minor = 1;
  } else if (version == "HTTP/1.0") {
    minor = 0;
  } else {
    return bad(400, "unsupported HTTP version", status, error);
  }

  // ---- Headers -----------------------------------------------------------
  HttpRequest out;
  out.method = std::string(method);
  out.target = std::string(target);
  const std::size_t qmark = target.find('?');
  out.path = std::string(target.substr(0, qmark));
  out.query = qmark == std::string_view::npos ? "" : std::string(target.substr(qmark + 1));
  out.minor_version = minor;

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{} : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view hline = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
    if (hline.empty()) return bad(400, "empty header line", status, error);
    if (out.headers.size() >= kMaxHeaders) {
      return bad(431, "too many header fields", status, error);
    }
    const std::size_t colon = hline.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return bad(400, "malformed header field", status, error);
    }
    const std::string_view name = hline.substr(0, colon);
    for (const char c : name) {
      if (!is_token_char(c)) return bad(400, "malformed header name", status, error);
    }
    std::string_view value = hline.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    for (const char c : value) {
      if (static_cast<unsigned char>(c) < 0x20 && c != '\t') {
        return bad(400, "control byte in header value", status, error);
      }
    }
    out.headers.emplace_back(std::string(name), std::string(value));
  }

  // ---- Framing: no chunked support, strictly bounded bodies --------------
  if (out.header("Transfer-Encoding") != nullptr) {
    // The serving API takes no request bodies; chunked framing would force
    // unbounded decode state, so it is rejected outright.
    return bad(400, "Transfer-Encoding is not supported", status, error);
  }
  std::size_t body_len = 0;
  bool saw_content_length = false;
  for (const auto& [k, v] : out.headers) {
    if (!iequals(k, "Content-Length")) continue;
    if (v.empty() || v.size() > 19) {
      return bad(400, "malformed Content-Length", status, error);
    }
    std::uint64_t n = 0;
    for (const char c : v) {
      if (c < '0' || c > '9') return bad(400, "malformed Content-Length", status, error);
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (saw_content_length && n != body_len) {
      return bad(400, "conflicting Content-Length fields", status, error);
    }
    if (n > kMaxBodyBytes) {
      return bad(413, "request body exceeds the size limit", status, error);
    }
    body_len = static_cast<std::size_t>(n);
    saw_content_length = true;
  }

  const std::size_t total = head_end + 4 + body_len;
  if (in.size() < total) return HttpParse::kNeedMore;
  out.body = std::string(in.substr(head_end + 4, body_len));

  // ---- Connection semantics ---------------------------------------------
  out.keep_alive = out.minor_version >= 1;
  if (const std::string* conn = out.header("Connection"); conn != nullptr) {
    if (iequals(*conn, "close")) out.keep_alive = false;
    if (iequals(*conn, "keep-alive")) out.keep_alive = true;
  }

  if (req != nullptr) *req = std::move(out);
  if (consumed != nullptr) *consumed = total;
  return HttpParse::kOk;
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_http_response(const HttpResponse& resp, bool keep_alive) {
  const bool close = resp.close || !keep_alive;
  std::string out = strformat("HTTP/1.1 %d %s\r\n", resp.status, http_status_reason(resp.status));
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += strformat("Content-Length: %zu\r\n", resp.body.size());
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += resp.body;
  return out;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

HttpServer::HttpServer(Handler handler, Options opt)
    : handler_(std::move(handler)), opt_(opt) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string* error) {
  if (running_.load()) return true;
  // A peer that disappears mid-write must not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = strformat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    if (error != nullptr) *error = strformat("bind/listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const int threads = std::max(1, opt_.threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake every accept() blocked on the listening socket; workers then see
  // the stop flag, finish their in-flight connection, and exit.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::worker_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket is gone
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  auto set_timeout = [fd](int option, int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
  };
  set_timeout(SO_RCVTIMEO, opt_.poll_interval_ms);
  // A client that stops reading must not hold the worker: a send that makes
  // no progress for the idle timeout fails and the connection closes.  (A
  // zero timeout would mean "block forever", hence the 1 ms floor.)
  set_timeout(SO_SNDTIMEO, std::max(1, opt_.idle_timeout_ms));
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  std::string buf;
  char chunk[8192];
  int served = 0;
  const auto timeout = std::chrono::milliseconds(opt_.idle_timeout_ms);
  // Start of the current wait: the connection going idle, or the first byte
  // of a request.  Later chunks do not move it, so a client trickling a
  // request head (slowloris) is cut off like an idle one.
  auto since = std::chrono::steady_clock::now();
  // The parser promises kNeedMore only while within limits, but cap the
  // buffer anyway: belt and braces against a parser bug becoming a
  // memory-growth bug.
  constexpr std::size_t kHardCap = kMaxHeadBytes + kMaxBodyBytes + 1024;

  while (true) {
    // Drain any complete request already buffered before reading more.
    HttpRequest req;
    std::size_t consumed = 0;
    int bad_status = 400;
    std::string perr;
    const HttpParse st = parse_http_request(buf, &req, &consumed, &bad_status, &perr);
    if (st == HttpParse::kBad) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse resp;
      resp.status = bad_status;
      resp.content_type = "text/plain";
      resp.body = perr + "\n";
      send_all(fd, render_http_response(resp, /*keep_alive=*/false));
      return;  // framing is unrecoverable; close
    }
    if (st == HttpParse::kOk) {
      buf.erase(0, consumed);
      HttpResponse resp;
      try {
        resp = handler_(req);
      } catch (const std::exception& e) {
        resp.status = 500;
        resp.content_type = "text/plain";
        resp.body = std::string(e.what()) + "\n";
      }
      ++served;
      const bool drain = stopping_.load(std::memory_order_acquire);
      const bool keep = req.keep_alive && !resp.close && !drain &&
                        served < kMaxRequestsPerConnection;
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (!send_all(fd, render_http_response(resp, keep))) return;
      if (!keep) return;
      since = std::chrono::steady_clock::now();
      continue;
    }

    // kNeedMore: block (briefly) for more bytes, unless the partial request
    // is already past its deadline.
    if (buf.size() >= kHardCap) return;
    if (!buf.empty() && std::chrono::steady_clock::now() - since > timeout) return;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      if (buf.empty()) since = std::chrono::steady_clock::now();
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Poll tick: shut idle connections, honor stop().  A connection with
      // a partial request buffered is mid-read; it gets until the timeout
      // even while stopping, which keeps the drain bounded.
      if (stopping_.load(std::memory_order_acquire) && buf.empty()) return;
      if (std::chrono::steady_clock::now() - since > timeout) return;
      continue;
    }
    return;  // transport error
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpClient::connect(int port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close();
    return false;
  }
  const int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return true;
}

bool HttpClient::get(const std::string& target, int* status, std::string* body) {
  if (fd_ < 0) return false;
  if (!send_all(fd_, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
    close();
    return false;
  }

  std::string buf;
  char chunk[8192];
  std::size_t head_end = std::string::npos;
  std::size_t content_length = 0;
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buf.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // Parse status + Content-Length out of the head.
        const std::size_t sp = buf.find(' ');
        if (sp == std::string::npos || sp + 4 > head_end) {
          close();
          return false;
        }
        if (status != nullptr) *status = std::atoi(buf.c_str() + sp + 1);
        const std::size_t cl = buf.find("Content-Length:");
        if (cl == std::string::npos || cl > head_end) {
          close();
          return false;
        }
        content_length = static_cast<std::size_t>(std::atoll(buf.c_str() + cl + 15));
      }
    }
    if (head_end != std::string::npos && buf.size() >= head_end + 4 + content_length) {
      if (body != nullptr) *body = buf.substr(head_end + 4, content_length);
      // Keep-alive: leave the connection open unless the server said close.
      if (buf.find("Connection: close") != std::string::npos &&
          buf.find("Connection: close") < head_end) {
        close();
      }
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close();
      return false;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool HttpClient::raw_roundtrip(std::string_view bytes, std::string* response,
                               std::size_t max_bytes) {
  if (fd_ < 0) return false;
  // A failed send is not the end: the server may already have rejected the
  // bytes and closed, and its answer is still there to read.
  (void)send_all(fd_, bytes);
  // Signal end-of-request so the server never waits on us.
  ::shutdown(fd_, SHUT_WR);
  std::string buf;
  char chunk[8192];
  while (buf.size() < max_bytes) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  if (response != nullptr) *response = std::move(buf);
  close();
  return true;
}

}  // namespace ixp::net
