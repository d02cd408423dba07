#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace vqi {
namespace net {
namespace {

ThreadPoolOptions ConnectionPoolOptions(const HttpServerOptions& options) {
  ThreadPoolOptions pool;
  pool.num_threads = options.num_threads;
  pool.queue_capacity = options.queue_capacity;
  pool.metrics = options.metrics;
  pool.metric_labels = {{"pool", "http"}};
  return pool;
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      pool_(ConnectionPoolOptions(options_)) {
  VQI_CHECK(handler_ != nullptr) << "HttpServer requires a handler";
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    connections_total_ = &registry.GetCounter(
        "vqi_http_connections_total", "TCP connections accepted.");
    connections_rejected_total_ = &registry.GetCounter(
        "vqi_http_connections_rejected_total",
        "Connections answered 503 because the worker queue was full.");
    connections_active_ = &registry.GetGauge(
        "vqi_http_connections_active", "Connections currently being served.");
    requests_total_ = &registry.GetCounter(
        "vqi_http_requests_total", "HTTP requests that reached the handler.");
    responses_total_2xx_ = &registry.GetCounter(
        "vqi_http_responses_total", "HTTP responses by status class.",
        {{"class", "2xx"}});
    responses_total_4xx_ = &registry.GetCounter(
        "vqi_http_responses_total", "HTTP responses by status class.",
        {{"class", "4xx"}});
    responses_total_5xx_ = &registry.GetCounter(
        "vqi_http_responses_total", "HTTP responses by status class.",
        {{"class", "5xx"}});
    parse_errors_total_ = &registry.GetCounter(
        "vqi_http_parse_errors_total",
        "Requests rejected by the parser (malformed or over limits).");
    read_timeouts_total_ = &registry.GetCounter(
        "vqi_http_read_timeouts_total",
        "Connections closed at the per-connection read deadline.");
    torn_reads_total_ = &registry.GetCounter(
        "vqi_http_torn_reads_total",
        "Connections the peer abandoned mid-request.");
    request_latency_ms_ = &registry.GetHistogram(
        "vqi_http_request_latency_ms",
        "Parse-complete to response-written latency.",
        obs::Histogram::DefaultLatencyBoundsMs());
  }
}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  {
    MutexLock lock(&mutex_);
    if (started_) {
      return Status::FailedPrecondition("HttpServer already started");
    }
    started_ = true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Unavailable(
        "bind " + options_.bind_address + ":" +
        std::to_string(options_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status =
        Status::Unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  {
    MutexLock lock(&mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
    draining_ = true;
  }
  // Unblock the accept loop; shutdown (not close) so the fd stays valid
  // until the thread has observed the failure.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Grace period: in-flight connections notice draining at their next
  // request boundary and close. Laggards (mid-read, slowloris peers) get
  // their sockets shut down so their workers unblock immediately.
  Stopwatch grace;
  for (;;) {
    {
      MutexLock lock(&mutex_);
      if (active_fds_.empty()) break;
      if (grace.ElapsedMillis() >= options_.drain_grace_ms) {
        for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Joins every worker: running connection tasks finish (their sockets now
  // error out fast), queued ones observe draining and close immediately.
  pool_.Shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool HttpServer::draining() const {
  MutexLock lock(&mutex_);
  return draining_;
}

size_t HttpServer::active_connections() const {
  MutexLock lock(&mutex_);
  return active_fds_.size();
}

uint64_t HttpServer::connections_accepted() const {
  MutexLock lock(&mutex_);
  return accepted_;
}

void HttpServer::RegisterConnection(int fd) {
  MutexLock lock(&mutex_);
  ++accepted_;
  active_fds_.insert(fd);
  if (connections_active_ != nullptr) {
    connections_active_->Set(static_cast<double>(active_fds_.size()));
  }
}

void HttpServer::UnregisterConnection(int fd) {
  MutexLock lock(&mutex_);
  active_fds_.erase(fd);
  if (connections_active_ != nullptr) {
    connections_active_->Set(static_cast<double>(active_fds_.size()));
  }
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener shut down (drain) or unrecoverable
    }
    if (draining()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_total_ != nullptr) connections_total_->Increment();
    RegisterConnection(fd);
    Status submitted = pool_.Submit([this, fd] { HandleConnection(fd); });
    if (!submitted.ok()) {
      // Edge admission control: tell the client to back off rather than
      // letting connections pile up unserved.
      if (connections_rejected_total_ != nullptr) {
        connections_rejected_total_->Increment();
      }
      if (responses_total_5xx_ != nullptr) responses_total_5xx_->Increment();
      // Best-effort single non-blocking send: the accept thread must never
      // block on a peer — overload, when this path runs, is exactly when an
      // unresponsive client would otherwise stall every accept. The small
      // response fits the socket buffer of any live peer; a dead one just
      // misses its 503.
      HttpResponse response;
      response.status = 503;
      response.body = JsonErrorBody(
          Status::Unavailable("server overloaded, connection rejected"));
      std::string wire = SerializeResponse(response, /*close=*/true);
      (void)::send(fd, wire.data(), wire.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      UnregisterConnection(fd);
      ::close(fd);
    }
  }
}

void HttpServer::HandleConnection(int fd) {
  HttpRequestParser parser(options_.parser_limits);
  size_t served = 0;
  while (ServeOne(fd, parser, served)) ++served;
  UnregisterConnection(fd);
  ::close(fd);
}

int HttpServer::PollReadable(int fd, double timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  int timeout = timeout_ms >= 1 ? static_cast<int>(timeout_ms) : 1;
  for (;;) {
    int ready = ::poll(&pfd, 1, timeout);
    if (ready < 0 && errno == EINTR) continue;
    return ready;
  }
}

bool HttpServer::ServeOne(int fd, HttpRequestParser& parser, size_t served) {
  // Request boundary: during drain the connection closes instead of
  // starting another request (responses already sent carried
  // Connection: close, so a well-behaved client is gone by now).
  if (draining()) return false;

  // Chaos: one http_read decision per request, drawn when its first bytes
  // arrive — never while idling between keep-alive requests, so the fault
  // tally is a function of the request count alone and seeded runs are
  // reproducible. Returns false when the injected fault closes the
  // connection.
  bool fault_checked = false;
  auto fault_gate = [&]() {
    if (fault_checked || options_.fault_injector == nullptr) return true;
    fault_checked = true;
    resilience::FaultDecision decision =
        options_.fault_injector->Decide(resilience::FaultPoint::kHttpRead);
    if (decision.latency_ms > 0) {
      // A slowloris peer trickling its request: the worker sits occupied.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(decision.latency_ms));
    }
    if (decision.dropped) {
      // Torn read: the peer vanished mid-request.
      if (torn_reads_total_ != nullptr) torn_reads_total_->Increment();
      return false;
    }
    if (!decision.status.ok()) {
      HttpResponse response;
      response.status = 503;
      response.body = JsonErrorBody(decision.status);
      WriteResponse(fd, response, /*close=*/true);
      return false;
    }
    return true;
  };

  HttpRequestParser::State state = parser.state();
  // A pipelined request already buffered counts as arrived.
  if (state != HttpRequestParser::State::kNeedMore && !fault_gate()) {
    return false;
  }
  // The read deadline is cumulative per request: the clock starts at the
  // request's first byte (immediately, when pipelining already buffered a
  // partial one) and the poll budget shrinks as bytes trickle in, so a
  // slowloris peer sending one byte per poll cannot hold the worker past
  // read_timeout_ms. Before the first byte the connection is merely idle
  // between keep-alive requests; each poll there gets the full timeout.
  Stopwatch read_timer;
  bool request_started = parser.buffered_bytes() > 0;
  while (state == HttpRequestParser::State::kNeedMore) {
    double budget = options_.read_timeout_ms;
    if (request_started) {
      budget = options_.read_timeout_ms - read_timer.ElapsedMillis();
    }
    int ready = budget <= 0 ? 0 : PollReadable(fd, budget);
    if (ready == 0) {
      if (read_timeouts_total_ != nullptr) read_timeouts_total_->Increment();
      if (request_started) {
        // Mid-request deadline: answer 408 so the peer knows it fired; an
        // idle keep-alive connection just closes.
        HttpResponse response;
        response.status = 408;
        response.body =
            JsonErrorBody(Status::DeadlineExceeded("read deadline exceeded"));
        WriteResponse(fd, response, /*close=*/true);
      }
      return false;
    }
    if (ready < 0) return false;
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      if (request_started && torn_reads_total_ != nullptr) {
        torn_reads_total_->Increment();
      }
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (!request_started) {
      request_started = true;
      read_timer.Restart();
    }
    // Real request bytes are in hand: this is the per-request fault draw.
    // A peer that merely disconnects (recv == 0 above) draws nothing, so
    // the injected-fault tally tracks requests, not connection churn.
    if (!fault_gate()) return false;
    state = parser.Consume(std::string_view(buf, static_cast<size_t>(n)));
  }

  if (state == HttpRequestParser::State::kError) {
    if (parse_errors_total_ != nullptr) parse_errors_total_->Increment();
    HttpResponse response;
    response.status = parser.error_status();
    response.body = JsonErrorBody(Status::InvalidArgument(parser.error()));
    WriteResponse(fd, response, /*close=*/true);
    return false;
  }

  // kComplete: hand to the application handler.
  Stopwatch handle_timer;
  if (requests_total_ != nullptr) requests_total_->Increment();
  const HttpRequest& request = parser.request();
  HttpResponse response = handler_(request);
  bool close = !request.keep_alive() || response.close || draining() ||
               served + 1 >= options_.max_keepalive_requests;
  bool written = WriteResponse(fd, response, close);
  if (request_latency_ms_ != nullptr) {
    request_latency_ms_->Observe(handle_timer.ElapsedMillis());
  }
  if (!written || close) return false;
  parser.Reset();
  return true;
}

bool HttpServer::WriteResponse(int fd, const HttpResponse& response,
                               bool close) {
  if (response.status >= 500) {
    if (responses_total_5xx_ != nullptr) responses_total_5xx_->Increment();
  } else if (response.status >= 400) {
    if (responses_total_4xx_ != nullptr) responses_total_4xx_->Increment();
  } else {
    if (responses_total_2xx_ != nullptr) responses_total_2xx_->Increment();
  }
  return WriteAll(fd, SerializeResponse(response, close));
}

bool HttpServer::WriteAll(int fd, std::string_view data) {
  Stopwatch deadline;
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    if (deadline.ElapsedMillis() >= options_.write_timeout_ms) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    double remaining = options_.write_timeout_ms - deadline.ElapsedMillis();
    int ready = ::poll(&pfd, 1, remaining >= 1 ? static_cast<int>(remaining)
                                               : 1);
    if (ready < 0 && errno != EINTR) return false;
  }
  return true;
}

}  // namespace net
}  // namespace vqi
