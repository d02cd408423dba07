#ifndef VQLIB_NET_HTTP_SERVER_H_
#define VQLIB_NET_HTTP_SERVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/http_message.h"
#include "net/http_parser.h"
#include "obs/metrics.h"
#include "service/resilience/fault_injector.h"
#include "service/thread_pool.h"

namespace vqi {
namespace net {

/// Sizing, deadline, and chaos knobs for an HttpServer.
struct HttpServerOptions {
  /// Address to bind. The default is loopback-only: exposing the service
  /// beyond the host is a deployment decision, not a library default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Connection worker threads (each runs one connection at a time).
  size_t num_threads = 4;
  /// Accepted-but-unstarted connections held in the pool queue; beyond this
  /// the accept loop answers 503 and closes (admission control at the edge).
  size_t queue_capacity = 128;
  /// Per-request socket deadlines. The read clock starts at a request's
  /// first byte and is cumulative: a request that has not fully arrived
  /// read_timeout_ms later gets 408 and the connection closes — the
  /// slowloris bound (trickling bytes does not extend it). An idle
  /// keep-alive connection closes after read_timeout_ms of silence.
  /// write_timeout_ms bounds a peer that stops draining responses.
  double read_timeout_ms = 5000;
  double write_timeout_ms = 5000;
  /// Requests served over one connection before the server forces
  /// Connection: close (bounded keep-alive; rotation caps per-connection
  /// state lifetime).
  size_t max_keepalive_requests = 1000;
  /// At Shutdown, connections get this long to finish in-flight requests
  /// before their sockets are forcibly shut down.
  double drain_grace_ms = 2000;
  /// Request parsing limits (see HttpParserLimits).
  HttpParserLimits parser_limits;
  /// When set, the server registers its vqi_http_* instruments here and the
  /// connection pool reports as {pool="http"}. Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Chaos hook: when set, the server consults the http_read fault point
  /// before reading each request. latency = a slowloris peer trickling bytes
  /// (the worker sleeps, holding its slot); drop = a torn read (connection
  /// closed with no response); error = a failed read (503, then close).
  /// Must outlive the server.
  resilience::FaultInjector* fault_injector = nullptr;
};

/// Minimal dependency-free HTTP/1.1 server: a blocking accept loop that
/// dispatches each connection onto a vqi::ThreadPool worker, which owns the
/// connection for its lifetime (read → parse → handle → write, keep-alive
/// loop). Production posture from day one: per-connection read/write
/// deadlines, request-size and header-count limits, bounded keep-alive,
/// edge admission control, graceful drain, and vqi_http_* metrics.
///
/// The handler runs on connection workers and must be thread-safe. Errors
/// the parser detects (malformed, oversized, torn input) never reach the
/// handler — the server answers 4xx/5xx itself, with JsonErrorBody.
///
/// Thread-safe. Start() may be called once; Shutdown() is idempotent and
/// also runs in the destructor.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept loop. kUnavailable when the bind
  /// or listen fails (e.g. port in use), kFailedPrecondition on reuse.
  Status Start();

  /// Graceful drain: stop accepting, let in-flight connections finish
  /// (responses during drain carry Connection: close), force-close laggards
  /// after drain_grace_ms, then join every worker. Idempotent.
  void Shutdown();

  /// The bound port (after a successful Start). With options.port == 0 this
  /// is the kernel-assigned ephemeral port.
  uint16_t port() const { return port_; }

  bool draining() const;
  size_t active_connections() const;
  uint64_t connections_accepted() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// One request→response turn. Returns false when the connection must
  /// close (error, torn read, timeout, keep-alive exhausted, drain).
  bool ServeOne(int fd, HttpRequestParser& parser, size_t served);
  bool WriteResponse(int fd, const HttpResponse& response, bool close);
  /// Sends everything or gives up at the write deadline / a socket error.
  bool WriteAll(int fd, std::string_view data);
  /// Waits up to `timeout_ms` for readability; 1 ready, 0 timeout,
  /// -1 socket error.
  int PollReadable(int fd, double timeout_ms);

  void RegisterConnection(int fd);
  void UnregisterConnection(int fd);

  HttpServerOptions options_;
  Handler handler_;
  ThreadPool pool_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable Mutex mutex_;
  bool started_ VQLIB_GUARDED_BY(mutex_) = false;
  bool draining_ VQLIB_GUARDED_BY(mutex_) = false;
  bool stopped_ VQLIB_GUARDED_BY(mutex_) = false;
  uint64_t accepted_ VQLIB_GUARDED_BY(mutex_) = 0;
  /// Sockets owned by live connection tasks. A task removes its fd here
  /// before closing it, so the drain path can safely ::shutdown() every
  /// member to unblock laggards without touching a reused descriptor.
  std::unordered_set<int> active_fds_ VQLIB_GUARDED_BY(mutex_);

  // Instrument handles resolved once in the constructor (null without a
  // registry).
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* connections_rejected_total_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* responses_total_2xx_ = nullptr;
  obs::Counter* responses_total_4xx_ = nullptr;
  obs::Counter* responses_total_5xx_ = nullptr;
  obs::Counter* parse_errors_total_ = nullptr;
  obs::Counter* read_timeouts_total_ = nullptr;
  obs::Counter* torn_reads_total_ = nullptr;
  obs::Histogram* request_latency_ms_ = nullptr;
};

}  // namespace net
}  // namespace vqi

#endif  // VQLIB_NET_HTTP_SERVER_H_
