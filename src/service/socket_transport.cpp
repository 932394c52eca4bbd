#include "service/socket_transport.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "base/contracts.h"
#include "obs/eventlog.h"
#include "obs/exposition.h"
#include "obs/telemetry.h"
#include "service/line_framer.h"
#include "service/metrics_http.h"
#include "service/protocol.h"

namespace tfa::service {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The one-line goodbye a shed connection receives.  `seq` is 0: no
/// request of this connection was ever accepted — and no trace either;
/// the shed envelope is the one response without a `trace` field
/// (docs/service.md).
const std::string& shed_line() {
  static const std::string line = [] {
    WireError e;
    e.code = "shed";
    e.message = "connection limit reached, retry later";
    return error_envelope(0, "", "", "", e) + "\n";
  }();
  return line;
}

/// Fixed bucket upper bounds of the request-latency histogram,
/// nanoseconds: 100µs, 1ms, 10ms, 100ms, 1s, 10s (+overflow).  Fixed so
/// per-connection histograms always merge bucket-wise.
const std::vector<std::int64_t>& latency_bounds() {
  static const std::vector<std::int64_t> bounds = {
      100'000,     1'000'000,     10'000'000,
      100'000'000, 1'000'000'000, 10'000'000'000};
  return bounds;
}

/// Bucket-wise histogram fold (same rule MetricRegistry::merge applies).
void fold_histogram(obs::Histogram& dst, const obs::Histogram& src) {
  TFA_ASSERT(dst.bounds == src.bounds);
  for (std::size_t k = 0; k < src.counts.size(); ++k)
    dst.counts[k] += src.counts[k];
  dst.overflow += src.overflow;
  dst.count += src.count;
  dst.sum += src.sum;
}

}  // namespace

/// One client connection.  `framer` and `eof` are touched only by the
/// event-loop thread; the executor/loop handshake (`pending`, `busy`,
/// `outbuf`, the close flags) is guarded by `mu`.  `service` is used
/// exclusively by the executor that holds `busy`, honouring Service's
/// single-threaded contract; cross-connection safety comes from the
/// shared SessionStore's locks underneath.
struct SocketServer::Conn {
  Conn(net::UniqueFd fd_in, std::uint64_t id_in, const ServiceConfig& cfg,
       SessionStore* store)
      : fd(std::move(fd_in)),
        id(id_in),
        service(cfg, nullptr, store),
        framer(cfg.max_request_bytes, [this](const FramedLine& l) {
          // Stamp the arrival now, so `deadline_ms` counts queueing.
          Item item{std::string(l.text), steady_now_ns(), l.oversized};
          const std::scoped_lock lock(mu);
          pending.push_back(std::move(item));
        }) {
    latency.bounds = latency_bounds();
    latency.counts.assign(latency.bounds.size(), 0);
  }

  net::UniqueFd fd;
  const std::uint64_t id;  ///< Monotone accept index (1-based).
  Service service;

  LineFramer framer;
  bool eof = false;  ///< Read side closed.

  /// One unit of executor work: a framed request line, or the byte
  /// count of an oversized line the loop refused to buffer.
  struct Item {
    std::string line;
    std::int64_t arrival_ns = 0;
    std::size_t oversized_bytes = 0;  ///< Non-zero marks the oversized case.
  };

  std::mutex mu;
  std::deque<Item> pending;
  bool busy = false;  ///< An executor currently owns `service`.
  std::string outbuf;
  std::size_t out_cursor = 0;  ///< Bytes of `outbuf` already written.
  bool broken = false;         ///< Hard socket error: close without flushing.

  /// Request latency (arrival to responses-drained), recorded by the
  /// owning executor and read by the metrics snapshot — guarded by `mu`
  /// like the rest of the executor handshake.
  obs::Histogram latency;
};

SocketServer::SocketServer(SocketServerConfig cfg, obs::Telemetry* telemetry)
    : cfg_(std::move(cfg)),
      store_(cfg_.service.max_sessions),
      telemetry_(telemetry) {
  // The transport stamps arrivals with the steady clock; an injected
  // service clock would make `deadline_ms` compare apples to oranges.
  cfg_.service.clock = nullptr;
  if (cfg_.executors == 0) cfg_.executors = 1;
  if (cfg_.max_conns == 0) cfg_.max_conns = 1;
  closed_latency_.bounds = latency_bounds();
  closed_latency_.counts.assign(closed_latency_.bounds.size(), 0);
}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start(std::string* error) {
  TFA_EXPECTS(!started_.load());
  listener_ = cfg_.unix_path.empty()
                  ? net::listen_tcp(cfg_.tcp_port, &port_, error)
                  : net::listen_unix(cfg_.unix_path, error);
  if (!listener_.valid()) return false;
  if (!net::set_nonblocking(listener_.get(), true, error)) {
    listener_.reset();
    return false;
  }
  std::optional<net::Pipe> wake = net::Pipe::create(error);
  if (!wake) {
    listener_.reset();
    return false;
  }
  wake_ = std::move(*wake);

  if (cfg_.metrics_port >= 0) {
    metrics_server_ = std::make_unique<MetricsHttpServer>(
        static_cast<std::uint16_t>(cfg_.metrics_port),
        [this] { return metrics_text(); });
    if (!metrics_server_->start(error)) {
      metrics_server_.reset();
      listener_.reset();
      return false;
    }
  }

  stop_requested_.store(false);
  loop_done_.store(false);
  quit_executors_.store(false);
  started_.store(true);
  executor_threads_.reserve(cfg_.executors);
  for (std::size_t i = 0; i < cfg_.executors; ++i)
    executor_threads_.emplace_back([this] { executor_loop(); });
  loop_thread_ = std::thread([this] { event_loop(); });
  return true;
}

void SocketServer::stop() {
  if (!started_.load()) return;
  // The endpoint snapshots connections and sessions; take it down
  // before the structures it reads start draining.
  if (metrics_server_ != nullptr) {
    metrics_server_->stop();
    metrics_server_.reset();
  }
  stop_requested_.store(true);
  wake_.notify();
  if (loop_thread_.joinable()) loop_thread_.join();
  quit_executors_.store(true);
  ready_cv_.notify_all();
  for (std::thread& t : executor_threads_)
    if (t.joinable()) t.join();
  executor_threads_.clear();
  publish_counters();
  listener_.reset();
  started_.store(false);
}

bool SocketServer::running() const noexcept {
  return started_.load() && !loop_done_.load();
}

void SocketServer::wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return loop_done_.load(); });
}

void SocketServer::add_counters(obs::MetricRegistry& m) const {
  const auto v = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<std::int64_t>(a.load(std::memory_order_relaxed));
  };
  m.counter("service.net.accepted") += v(accepted_);
  m.counter("service.net.shed") += v(shed_);
  m.counter("service.net.requests") += v(requests_);
  m.counter("service.net.oversized") += v(oversized_);
  m.counter("service.net.bytes_in") += v(bytes_in_);
  m.counter("service.net.bytes_out") += v(bytes_out_);
}

void SocketServer::publish_counters() {
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& m = telemetry_->metrics;
  add_counters(m);
  const std::scoped_lock lock(latency_mu_);
  if (closed_latency_.count > 0)
    fold_histogram(
        m.histogram("service.net.request_latency_ns", latency_bounds()),
        closed_latency_);
}

std::uint16_t SocketServer::metrics_port() const noexcept {
  return metrics_server_ != nullptr ? metrics_server_->port() : 0;
}

std::string SocketServer::metrics_text() {
  obs::MetricRegistry snap;
  add_counters(snap);

  // Latency: the closed-connection fold plus every live connection, in
  // connection-id order (fixed merge order — docs/observability.md).
  obs::Histogram merged;
  merged.bounds = latency_bounds();
  merged.counts.assign(merged.bounds.size(), 0);
  {
    const std::scoped_lock lock(latency_mu_);
    fold_histogram(merged, closed_latency_);
  }
  std::vector<std::shared_ptr<Conn>> live;
  {
    const std::scoped_lock lock(conns_mu_);
    live = conns_;
  }
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<Conn>& a, const std::shared_ptr<Conn>& b) {
              return a->id < b->id;
            });
  for (const std::shared_ptr<Conn>& c : live) {
    const std::scoped_lock lock(c->mu);
    fold_histogram(merged, c->latency);
  }
  fold_histogram(snap.histogram("service.net.request_latency_ns",
                                latency_bounds()),
                 merged);

  // The attached telemetry (only stop() writes it, after the endpoint
  // is down) and every session's registry, in name order.
  if (telemetry_ != nullptr) snap.merge(telemetry_->metrics);
  store_.for_each([&](const std::string& name, Session& sess) {
    const std::scoped_lock session_lock(sess.mu);
    snap.merge_with_prefix(sess.telemetry.metrics, "session." + name + ".");
  });

  return obs::prometheus_text(snap);
}

void SocketServer::accept_pending() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or transient accept failure.
    }
    net::UniqueFd owned(fd);
    if (conns_.size() >= cfg_.max_conns) {
      // Shed: a fresh socket's send buffer is empty, so this
      // best-effort write delivers the envelope in practice.
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.service.event_log != nullptr)
        cfg_.service.event_log->record(
            obs::EventSeverity::kWarn, "service.shed",
            {{"limit", std::to_string(cfg_.max_conns)}});
      const std::string& line = shed_line();
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      continue;  // `owned` closes it.
    }
    if (!net::set_nonblocking(fd, true)) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_conn_id_++;
    if (cfg_.service.event_log != nullptr)
      cfg_.service.event_log->record(obs::EventSeverity::kInfo,
                                     "service.accept",
                                     {{"conn", std::to_string(id)}});
    std::shared_ptr<Conn> conn =
        std::make_shared<Conn>(std::move(owned), id, cfg_.service, &store_);
    const std::scoped_lock lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void SocketServer::read_from(const std::shared_ptr<Conn>& c) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c->fd.get(), buf, sizeof buf, 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      c->framer.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      c->eof = true;
      c->framer.finish();
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    const std::scoped_lock lock(c->mu);
    c->broken = true;
    break;
  }
  maybe_dispatch(c);
}

void SocketServer::maybe_dispatch(const std::shared_ptr<Conn>& c) {
  bool dispatch = false;
  {
    const std::scoped_lock lock(c->mu);
    if (!c->busy && !c->pending.empty() && !c->broken) {
      c->busy = true;
      dispatch = true;
    }
  }
  if (dispatch) {
    {
      const std::scoped_lock lock(ready_mu_);
      ready_.push_back(c);
    }
    ready_cv_.notify_one();
  }
}

void SocketServer::write_to(const std::shared_ptr<Conn>& c) {
  for (;;) {
    std::string chunk;
    {
      const std::scoped_lock lock(c->mu);
      if (c->out_cursor >= c->outbuf.size()) {
        c->outbuf.clear();
        c->out_cursor = 0;
        return;
      }
      chunk.assign(c->outbuf, c->out_cursor,
                   std::min<std::size_t>(c->outbuf.size() - c->out_cursor,
                                         std::size_t{1} << 16));
    }
    const ssize_t n =
        ::send(c->fd.get(), chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
      const std::scoped_lock lock(c->mu);
      c->out_cursor += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    const std::scoped_lock lock(c->mu);
    c->broken = true;
    return;
  }
}

void SocketServer::event_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  for (;;) {
    const bool draining = stop_requested_.load();
    fds.clear();
    polled.clear();
    fds.push_back({wake_.read_end.get(), POLLIN, 0});
    if (!draining) fds.push_back({listener_.get(), POLLIN, 0});

    // Sweep finished connections and build this round's poll set.
    bool all_quiescent = true;
    for (std::size_t k = 0; k < conns_.size();) {
      const std::shared_ptr<Conn>& c = conns_[k];
      short events = 0;
      bool done = false;
      {
        const std::scoped_lock lock(c->mu);
        const bool idle = c->pending.empty() && !c->busy;
        const bool flushed = c->out_cursor >= c->outbuf.size();
        done = c->broken || (c->eof && idle && flushed);
        if (!done) {
          if (!idle || !flushed) all_quiescent = false;
          const bool backpressured =
              c->outbuf.size() - c->out_cursor >= cfg_.max_output_bytes;
          if (!c->eof && !backpressured && !draining) events |= POLLIN;
          if (!flushed) events |= POLLOUT;
        }
      }
      if (done) {
        retire(c);
        const std::scoped_lock lock(conns_mu_);
        conns_[k] = std::move(conns_.back());
        conns_.pop_back();
        continue;
      }
      if (events != 0) {
        fds.push_back({c->fd.get(), events, 0});
        polled.push_back(c);
      }
      ++k;
    }
    if (draining && all_quiescent) break;

    // 250ms safety timeout: every state change also pokes the wake
    // pipe, so this only bounds the cost of a lost wakeup.
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 250);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) wake_.drain();
    ++idx;
    if (!draining) {
      if (fds[idx].revents & POLLIN) accept_pending();
      ++idx;
    }
    for (std::size_t j = 0; j < polled.size(); ++j) {
      const short got = fds[idx + j].revents;
      if (got == 0) continue;
      if (got & POLLERR) {
        const std::scoped_lock lock(polled[j]->mu);
        polled[j]->broken = true;
        continue;
      }
      if (got & (POLLIN | POLLHUP)) read_from(polled[j]);
      if (got & POLLOUT) write_to(polled[j]);
    }
  }

  for (const std::shared_ptr<Conn>& c : conns_) retire(c);
  {
    const std::scoped_lock lock(conns_mu_);
    conns_.clear();
  }
  {
    const std::scoped_lock lock(done_mu_);
    loop_done_.store(true);
  }
  done_cv_.notify_all();
}

void SocketServer::retire(const std::shared_ptr<Conn>& c) {
  // Fold the connection's latency histogram into the closed-connection
  // aggregate.  A broken connection can still be owned by an executor;
  // its tail samples are dropped rather than raced for.
  const std::scoped_lock lock(c->mu, latency_mu_);
  if (c->busy) return;
  fold_histogram(closed_latency_, c->latency);
  c->latency.counts.assign(c->latency.bounds.size(), 0);
  c->latency.overflow = 0;
  c->latency.count = 0;
  c->latency.sum = 0;
}

void SocketServer::executor_loop() {
  for (;;) {
    std::shared_ptr<Conn> c;
    {
      std::unique_lock<std::mutex> lock(ready_mu_);
      ready_cv_.wait(lock, [this] {
        return quit_executors_.load() || !ready_.empty();
      });
      if (ready_.empty()) {
        if (quit_executors_.load()) return;
        continue;
      }
      c = std::move(ready_.front());
      ready_.pop_front();
    }

    // This executor owns c->service until it clears `busy`.
    for (;;) {
      std::deque<Conn::Item> items;
      {
        const std::scoped_lock lock(c->mu);
        items.swap(c->pending);
      }
      for (Conn::Item& item : items) {
        if (item.oversized_bytes > 0) {
          oversized_.fetch_add(1, std::memory_order_relaxed);
          c->service.submit_oversized(item.oversized_bytes);
        } else {
          c->service.submit(item.line, item.arrival_ns);
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
      }
      std::string out;
      while (std::optional<std::string> r = c->service.next_response()) {
        out += *r;
        out += '\n';
      }
      const std::int64_t done_ns = steady_now_ns();
      bool finished;
      {
        const std::scoped_lock lock(c->mu);
        for (const Conn::Item& item : items)
          c->latency.record(done_ns - item.arrival_ns);
        c->outbuf += out;
        finished = c->pending.empty();
        if (finished) c->busy = false;
      }
      wake_.notify();  // Re-poll: new POLLOUT interest / close check.
      if (finished) break;
    }

    if (cfg_.stop_on_shutdown && c->service.draining() &&
        !stop_requested_.exchange(true)) {
      wake_.notify();
    }
  }
}

}  // namespace tfa::service
