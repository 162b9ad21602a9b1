// A tiny blocking HTTP/1.1 server (and matching client) for the serving
// layer -- no external dependencies, loopback-oriented, hardened against
// malformed input.
//
// The parser is an incremental pure function over a byte buffer: feed it
// whatever has arrived so far and it answers kOk (one complete request,
// with how many bytes it consumed), kNeedMore (keep reading), or kBad
// (answer with the indicated 4xx and close).  Every limit is a named
// constant in http.cc, enforced *before* buffering more input, so a hostile
// peer can never make the server hold more than 8 KiB of head plus 64 KiB
// of body per connection: oversized heads are rejected with 431, oversized or
// non-numeric Content-Length with 413/400, and Transfer-Encoding (chunked
// framing) with 400 outright -- the serving API never needs request
// bodies, so the simplest rejection is also the safest.  The fuzz sweep in
// tests/test_serve.cc holds the parser to "every truncation and every
// single-byte corruption of a valid request yields kNeedMore or a clean
// 4xx, never a crash".
//
// The server runs N worker threads, each blocking in accept() on a shared
// listening socket (the kernel load-balances).  A worker owns one
// connection at a time and serves keep-alive requests in a loop; reads
// carry a short timeout so stop() is honored promptly even with idle
// connections parked on workers.  stop() drains: in-flight requests are
// answered before their connections close, and workers are joined before
// stop() returns -- the deterministic-shutdown contract `afixp serve`
// builds on (docs/SERVING.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace ixp::net {

/// One parsed request.  `target` is the raw request-target; `path` and
/// `query` are the two sides of its first '?' (query empty when absent).
struct HttpRequest {
  std::string method;
  std::string target;
  std::string path;
  std::string query;
  int minor_version = 1;  ///< 1 for HTTP/1.1, 0 for HTTP/1.0
  std::vector<std::pair<std::string, std::string>> headers;  ///< arrival order
  std::string body;
  bool keep_alive = true;

  /// First header with this name (ASCII case-insensitive); nullptr when
  /// absent.
  [[nodiscard]] const std::string* header(std::string_view name) const;
  /// Value of the query parameter `key` in `key=value&...` syntax; empty
  /// optional-style: returns `fallback` when absent or empty.
  [[nodiscard]] std::string query_param(std::string_view key,
                                        std::string_view fallback = "") const;
};

enum class HttpParse {
  kOk,        ///< one complete request parsed
  kNeedMore,  ///< prefix of a valid request; read more bytes
  kBad,       ///< malformed; answer with `status` and close
};

/// Incremental request parse over the front of `in`.  On kOk fills `*req`
/// and `*consumed` (bytes to drop from the buffer).  On kBad fills
/// `*status` with the 4xx to answer (400 malformed syntax / unsupported
/// framing, 413 body too large, 414 target too long, 431 head too large)
/// and `*error` with a one-line reason.  kNeedMore promises that no limit
/// has been exceeded yet, so callers can keep buffering safely.
HttpParse parse_http_request(std::string_view in, HttpRequest* req,
                             std::size_t* consumed, int* status, std::string* error);

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close = false;  ///< force Connection: close even mid-keep-alive
};

/// Reason phrase for the status codes the serving layer emits.
const char* http_status_reason(int status);

/// Serializes status line + headers + body.  `keep_alive` decides the
/// Connection header (overridden by resp.close).
std::string render_http_response(const HttpResponse& resp, bool keep_alive);

/// Blocking HTTP server on 127.0.0.1.  Construct, start(), serve, stop().
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
    int threads = 2;         ///< accept/serve workers
    /// Read timeout granularity: how often a worker parked on an idle
    /// connection re-checks the stop flag.
    int poll_interval_ms = 200;
    /// Idle keep-alive connections are closed after this long without a
    /// byte (0 = first poll interval closes them).  The same budget bounds
    /// a partial request, timed from its first byte, and a response send
    /// that makes no progress because the client stopped reading.
    int idle_timeout_ms = 5000;
  };

  HttpServer(Handler handler, Options opt);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and launches the workers.  False (with `*error`
  /// filled) when the socket cannot be set up.
  bool start(std::string* error);

  /// Drains and stops: no new connections are accepted, requests already
  /// being read or handled are answered, then workers are joined.  Safe to
  /// call more than once (later calls are no-ops).
  void stop();

  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (valid after a successful start()).
  [[nodiscard]] int port() const { return port_; }

  // Served-traffic counters (monotone, lock-free; readable at any time).
  [[nodiscard]] std::uint64_t connections_accepted() const { return connections_.load(); }
  [[nodiscard]] std::uint64_t requests_served() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t bad_requests() const { return bad_requests_.load(); }

 private:
  void worker_loop();
  void serve_connection(int fd);

  Handler handler_;
  Options opt_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
};

/// Minimal blocking client for tests and the serve benchmark: one
/// keep-alive connection to 127.0.0.1:`port`.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// (Re)connects; false on failure.
  bool connect(int port);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends GET `target` and reads one full response.  False on transport
  /// error (connection reset, malformed response); the connection is then
  /// closed and must be re-connect()ed.
  bool get(const std::string& target, int* status, std::string* body);

  /// Sends raw bytes and reads whatever the server answers until it closes
  /// the connection or `max_bytes` arrive -- for malformed-input tests.
  bool raw_roundtrip(std::string_view bytes, std::string* response,
                     std::size_t max_bytes = 1 << 16);

 private:
  int fd_ = -1;
};

}  // namespace ixp::net
