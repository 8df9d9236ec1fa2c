#include "net/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/audit.hpp"

namespace rt {
namespace net {

namespace {

/// Reads exactly `n` bytes unless the peer closes or the socket errors.
/// Returns the byte count actually read (n on success, less on EOF mid-way,
/// 0 on EOF at a frame boundary) or -1 on a socket error.
std::ptrdiff_t read_full(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return static_cast<std::ptrdiff_t>(got);
}

/// Writes all of `buf`; false when the peer is gone. MSG_NOSIGNAL keeps a
/// dead peer from killing the process with SIGPIPE.
bool write_full(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void set_nodelay(int fd) {
  // Frames are small and latency-bound; Nagle would serialize pipelined
  // requests into 40ms clumps.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::vector<std::uint8_t> text_body(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// InferenceServer
// ---------------------------------------------------------------------------

/// One accepted connection: a reader thread decoding + dispatching frames
/// and a writer thread streaming responses back in arrival order. The
/// response queue is the only shared state; `done_threads` lets the acceptor
/// reap a connection whose both loops have exited.
struct InferenceServer::Connection {
  int fd = -1;
  std::thread reader;
  std::thread writer;

  /// One response slot, queued in request arrival order. Immediate replies
  /// carry a pre-encoded body; PREDICT replies carry the serving future the
  /// writer waits on (in order, so pipelining never reorders responses).
  struct Pending {
    std::uint64_t request_id = 0;
    bool ready = true;
    Status status = Status::kOk;
    std::vector<std::uint8_t> body;
    std::future<Tensor> future;
    bool close_after = false;  ///< protocol error: reply, then hang up
  };

  std::mutex mutex;  ///< audit::LockRank::kNetConnection (leaf)
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool reader_done = false;

  std::atomic<int> done_threads{0};
};

InferenceServer::InferenceServer(registry::Registry& registry,
                                 const NetOptions& options)
    : registry_(registry), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("net::InferenceServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("net::InferenceServer: bad host address '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("net::InferenceServer: cannot listen on " +
                             options_.host + ":" +
                             std::to_string(options_.port) + ": " + err);
  }
  // Read the bound port back: with options.port == 0 the kernel picked a
  // free one, which is what makes parallel ctest/bench processes
  // collision-safe.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("net::InferenceServer: getsockname failed: " +
                             err);
  }
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread(&InferenceServer::acceptor_main, this);
}

InferenceServer::~InferenceServer() { stop(); }

void InferenceServer::acceptor_main() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // stop() shut the listening socket down; any other failure on the
      // accept path (EMFILE, EINVAL) also ends the accept loop — existing
      // connections keep serving either way.
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->reader =
        std::thread(&InferenceServer::reader_main, this, std::ref(*conn));
    conn->writer =
        std::thread(&InferenceServer::writer_main, this, std::ref(*conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kNetAccept);
      reap_finished_locked();
      connections_.push_back(std::move(conn));
    }
  }
}

void InferenceServer::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = **it;
    if (conn.done_threads.load(std::memory_order_acquire) == 2) {
      conn.reader.join();
      conn.writer.join();
      ::close(conn.fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void InferenceServer::reader_main(Connection& conn) {
  std::uint8_t header_buf[kHeaderBytes];
  std::vector<std::uint8_t> body;

  auto push = [&](Connection::Pending pending) {
    {
      std::lock_guard<std::mutex> lock(conn.mutex);
      RT_AUDIT_LOCK(audit::LockRank::kNetConnection);
      conn.queue.push_back(std::move(pending));
    }
    conn.cv.notify_one();
  };
  auto protocol_error = [&](std::uint64_t request_id,
                            const std::string& message) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Connection::Pending pending;
    pending.request_id = request_id;
    pending.status = Status::kProtocolError;
    pending.body = text_body(message);
    pending.close_after = true;
    push(std::move(pending));
  };

  for (;;) {
    const std::ptrdiff_t got = read_full(conn.fd, header_buf, kHeaderBytes);
    const auto receipt = std::chrono::steady_clock::now();
    if (got == 0) break;  // clean EOF at a frame boundary
    if (got < 0) break;   // socket error / shutdown — nothing to answer
    if (got < static_cast<std::ptrdiff_t>(kHeaderBytes)) {
      protocol_error(0, "truncated frame header");
      break;
    }
    FrameHeader header;
    const HeaderDecode decode =
        decode_header(header_buf, options_.max_body_bytes, &header);
    if (decode != HeaderDecode::kOk) {
      // With a bad magic the id bytes are as untrustworthy as the rest of
      // the header; every other failure mode decoded a structurally valid
      // header, so the id can be echoed for client-side correlation.
      const std::uint64_t id =
          decode == HeaderDecode::kBadMagic ? 0 : header.request_id;
      protocol_error(id, std::string("malformed frame header: ") +
                             header_decode_name(decode));
      break;
    }
    body.resize(header.body_len);
    if (header.body_len > 0) {
      const std::ptrdiff_t body_got =
          read_full(conn.fd, body.data(), header.body_len);
      if (body_got < static_cast<std::ptrdiff_t>(header.body_len)) {
        // Mid-payload disconnect: the peer is gone, so no error frame can
        // reach it — just retire the connection cleanly.
        break;
      }
    }
    if (!dispatch(conn, header, body, receipt)) break;
  }

  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    RT_AUDIT_LOCK(audit::LockRank::kNetConnection);
    conn.reader_done = true;
  }
  conn.cv.notify_one();
  conn.done_threads.fetch_add(1, std::memory_order_acq_rel);
}

bool InferenceServer::dispatch(
    Connection& conn, const FrameHeader& header,
    const std::vector<std::uint8_t>& body,
    std::chrono::steady_clock::time_point receipt) {
  requests_.fetch_add(1, std::memory_order_relaxed);

  Connection::Pending pending;
  pending.request_id = header.request_id;
  bool keep_reading = true;

  auto fail = [&](Status status, const std::string& message) {
    pending.status = status;
    pending.body = text_body(message);
  };

  switch (static_cast<Verb>(header.kind)) {
    case Verb::kPing:
      break;  // kOk, empty body

    case Verb::kList: {
      std::ostringstream lines;
      for (const std::string& name : registry_.models()) {
        lines << name << " latest=" << registry_.latest(name)
              << " stable=" << registry_.stable(name)
              << " live=" << registry_.live_version(name)
              << " candidate=" << registry_.candidate_version(name) << "\n";
      }
      pending.body = text_body(lines.str());
      break;
    }

    case Verb::kStats: {
      std::string ref;
      std::string error;
      if (!decode_stats_body(body.data(), body.size(), &ref, &error)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        fail(Status::kProtocolError, "malformed stats body: " + error);
        pending.close_after = true;
        keep_reading = false;
        break;
      }
      try {
        registry_.resolve(ref);  // typed kNotFound for unknown model/version
        serving::Server* server =
            registry_.find_server(registry::parse_model_ref(ref).model);
        if (server == nullptr) {
          fail(Status::kFailedPrecondition,
               "model has no serving endpoint yet (send a PREDICT first)");
          break;
        }
        pending.body = text_body(serialize_stats(*server));
      } catch (const std::invalid_argument& e) {
        fail(Status::kBadRequest, e.what());
      } catch (const std::out_of_range& e) {
        fail(Status::kNotFound, e.what());
      } catch (const std::logic_error& e) {
        fail(Status::kFailedPrecondition, e.what());
      }
      break;
    }

    case Verb::kPredict: {
      PredictRequest request;
      std::string error;
      if (!decode_predict_body(body.data(), body.size(), &request, &error)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        fail(Status::kProtocolError, "malformed predict body: " + error);
        pending.close_after = true;
        keep_reading = false;
        break;
      }
      if (stopping_.load(std::memory_order_acquire)) {
        fail(Status::kShuttingDown, "server is draining");
        break;
      }
      // Deadline honored before dispatch: the clock started when the frame
      // header was received, so time spent streaming a large payload (or
      // stuck behind a slow socket) counts against the budget. An expired
      // request is answered, never silently dropped, and never reaches the
      // serving queue.
      if (request.deadline_us > 0 &&
          std::chrono::steady_clock::now() >=
              receipt + std::chrono::microseconds(request.deadline_us)) {
        fail(Status::kDeadlineExceeded,
             "deadline of " + std::to_string(request.deadline_us) +
                 "us expired before dispatch");
        break;
      }
      try {
        const registry::WireRoute route = registry_.route_for_wire(
            request.ref, options_.serving, options_.compile);
        if (route.version != route.live_version &&
            route.version != route.candidate_version) {
          fail(Status::kFailedPrecondition,
               "version " + std::to_string(route.version) +
                   " is published but not live (live=" +
                   std::to_string(route.live_version) + "); deploy it first");
          break;
        }
        pending.ready = false;
        pending.future = route.server->submit(std::move(request.rows));
      } catch (const std::invalid_argument& e) {
        fail(Status::kBadRequest, e.what());
      } catch (const std::out_of_range& e) {
        fail(Status::kNotFound, e.what());
      } catch (const std::logic_error& e) {
        fail(Status::kFailedPrecondition, e.what());
      }
      break;
    }

    default:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      fail(Status::kProtocolError,
           "unknown verb " + std::to_string(header.kind));
      pending.close_after = true;
      keep_reading = false;
      break;
  }

  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    RT_AUDIT_LOCK(audit::LockRank::kNetConnection);
    conn.queue.push_back(std::move(pending));
  }
  conn.cv.notify_one();
  return keep_reading;
}

std::string InferenceServer::serialize_stats(serving::Server& server) {
  const serving::ServerStats s = server.stats();
  const serving::CacheStats c = server.cache_stats();
  std::ostringstream out;
  out << "submitted_requests " << s.submitted_requests << "\n"
      << "submitted_rows " << s.submitted_rows << "\n"
      << "completed_requests " << s.completed_requests << "\n"
      << "failed_requests " << s.failed_requests << "\n"
      << "rejected_requests " << s.rejected_requests << "\n"
      << "batches " << s.batches << "\n"
      << "batched_rows " << s.batched_rows << "\n"
      << "idle_batches " << s.idle_batches << "\n"
      << "queued_rows " << s.queued_rows << "\n"
      << "capacity_rows " << s.capacity_rows << "\n"
      << "cache_hit_rows " << c.hit_rows << "\n"
      << "cache_miss_rows " << c.miss_rows << "\n"
      << "cache_inserted_rows " << c.inserted_rows << "\n"
      << "cache_evicted_rows " << c.evicted_rows << "\n"
      << "cache_size_rows " << c.size_rows << "\n"
      << "cache_capacity_rows " << c.capacity_rows << "\n"
      << "latency_count " << s.latency.count << "\n"
      << "latency_p50_us " << s.latency.quantile_us(0.50) << "\n"
      << "latency_p99_us " << s.latency.quantile_us(0.99) << "\n";
  return out.str();
}

void InferenceServer::writer_main(Connection& conn) {
  std::vector<std::uint8_t> frame;
  for (;;) {
    Connection::Pending pending;
    {
      std::unique_lock<std::mutex> lock(conn.mutex);
      RT_AUDIT_LOCK(audit::LockRank::kNetConnection);
      conn.cv.wait(lock,
                   [&] { return !conn.queue.empty() || conn.reader_done; });
      if (conn.queue.empty()) break;  // reader finished and queue is flushed
      pending = std::move(conn.queue.front());
      conn.queue.pop_front();
    }
    if (!pending.ready) {
      // Waiting here — on the oldest in-flight request — is what keeps
      // responses in arrival order while later requests execute behind it.
      try {
        const Tensor logits = pending.future.get();
        pending.status = Status::kOk;
        encode_logits_body(logits, pending.body);
      } catch (const serving::ServerOverloaded& e) {
        pending.status = Status::kOverloaded;
        pending.body = text_body(e.what());
      } catch (const std::invalid_argument& e) {
        pending.status = Status::kBadRequest;
        pending.body = text_body(e.what());
      } catch (const std::exception& e) {
        pending.status = Status::kInternal;
        pending.body = text_body(e.what());
      }
      pending.ready = true;
    }
    FrameHeader header;
    header.kind = static_cast<std::uint8_t>(pending.status);
    header.request_id = pending.request_id;
    header.body_len = static_cast<std::uint32_t>(pending.body.size());
    frame.clear();
    encode_header(header, frame);
    frame.insert(frame.end(), pending.body.begin(), pending.body.end());
    if (!write_full(conn.fd, frame.data(), frame.size())) break;
    responses_.fetch_add(1, std::memory_order_relaxed);
    if (pending.close_after) break;
  }
  // Half-close so a well-behaved peer sees EOF after the last response; the
  // fd itself is closed once both threads are reaped.
  ::shutdown(conn.fd, SHUT_RDWR);
  conn.done_threads.fetch_add(1, std::memory_order_acq_rel);
}

NetCounters InferenceServer::counters() const {
  NetCounters out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses = responses_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kNetAccept);
    for (const auto& conn : connections_) {
      if (conn->done_threads.load(std::memory_order_acquire) < 2) {
        ++out.connections_open;
      }
    }
  }
  return out;
}

void InferenceServer::stop() {
  std::call_once(stop_once_, [&] {
    stopping_.store(true, std::memory_order_release);
    // Breaks the blocking accept(); no new connections from here on.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    std::vector<std::unique_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kNetAccept);
      conns.swap(connections_);
    }
    // Graceful drain: half-close the read side so every reader stops
    // consuming new frames, while writers keep flushing — every in-flight
    // PREDICT future completes and its response reaches the wire before
    // the socket closes. Zero admitted requests are lost.
    for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RD);
    for (const auto& conn : conns) {
      conn->reader.join();
      conn->writer.join();
      ::close(conn->fd);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
  });
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("net::Client: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net::Client: bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net::Client: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + err);
  }
  set_nodelay(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Reply Client::send_frame(Verb verb,
                                 const std::vector<std::uint8_t>& body) {
  FrameHeader header;
  header.kind = static_cast<std::uint8_t>(verb);
  header.request_id = next_id_++;
  header.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + body.size());
  encode_header(header, frame);
  frame.insert(frame.end(), body.begin(), body.end());
  if (!write_full(fd_, frame.data(), frame.size())) {
    throw std::runtime_error("net::Client: connection closed while sending");
  }
  return Reply(this, header.request_id);
}

void Client::wait_for(std::uint64_t id) {
  while (received_.find(id) == received_.end()) {
    std::uint8_t header_buf[kHeaderBytes];
    const std::ptrdiff_t got = read_full(fd_, header_buf, kHeaderBytes);
    if (got < static_cast<std::ptrdiff_t>(kHeaderBytes)) {
      throw std::runtime_error("net::Client: connection closed by server");
    }
    FrameHeader header;
    if (decode_header(header_buf, kDefaultMaxBodyBytes, &header) !=
        HeaderDecode::kOk) {
      throw std::runtime_error("net::Client: malformed response header");
    }
    Response response;
    response.status = static_cast<Status>(header.kind);
    response.body.resize(header.body_len);
    if (header.body_len > 0 &&
        read_full(fd_, response.body.data(), header.body_len) <
            static_cast<std::ptrdiff_t>(header.body_len)) {
      throw std::runtime_error("net::Client: connection closed mid-response");
    }
    if (header.request_id == 0 &&
        response.status == Status::kProtocolError) {
      // Connection-level protocol error: the server could not attribute the
      // failure to any request, so no awaited id will ever resolve.
      throw RpcError(Status::kProtocolError,
                     std::string(response.body.begin(), response.body.end()));
    }
    received_.emplace(header.request_id, std::move(response));
  }
}

Client::Response Client::take(std::uint64_t id) {
  wait_for(id);
  const auto it = received_.find(id);
  Response response = std::move(it->second);
  received_.erase(it);
  return response;
}

Tensor Client::logits_or_throw(const Response& response) {
  if (response.status != Status::kOk) {
    throw RpcError(response.status,
                   std::string(response.body.begin(), response.body.end()));
  }
  Tensor logits{std::vector<std::int64_t>{1}};
  std::string error;
  if (!decode_logits_body(response.body.data(), response.body.size(), &logits,
                          &error)) {
    throw std::runtime_error("net::Client: malformed logits body: " + error);
  }
  return logits;
}

Tensor Client::Reply::get() {
  return logits_or_throw(client_->take(id_));
}

Client::Reply Client::submit(const std::string& ref, const Tensor& rows,
                             std::uint64_t deadline_us) {
  std::vector<std::uint8_t> body;
  encode_predict_body(ref, deadline_us, rows, body);
  return send_frame(Verb::kPredict, body);
}

Tensor Client::predict(const std::string& ref, const Tensor& rows,
                       std::uint64_t deadline_us) {
  return submit(ref, rows, deadline_us).get();
}

std::map<std::string, double> Client::stats(const std::string& ref) {
  std::vector<std::uint8_t> body;
  encode_stats_body(ref, body);
  const Response response = take(send_frame(Verb::kStats, body).id_);
  if (response.status != Status::kOk) {
    throw RpcError(response.status,
                   std::string(response.body.begin(), response.body.end()));
  }
  std::map<std::string, double> out;
  std::istringstream in(
      std::string(response.body.begin(), response.body.end()));
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  return out;
}

std::vector<std::string> Client::list() {
  const Response response =
      take(send_frame(Verb::kList, std::vector<std::uint8_t>{}).id_);
  if (response.status != Status::kOk) {
    throw RpcError(response.status,
                   std::string(response.body.begin(), response.body.end()));
  }
  std::vector<std::string> lines;
  std::istringstream in(
      std::string(response.body.begin(), response.body.end()));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void Client::ping() {
  const Response response =
      take(send_frame(Verb::kPing, std::vector<std::uint8_t>{}).id_);
  if (response.status != Status::kOk) {
    throw RpcError(response.status,
                   std::string(response.body.begin(), response.body.end()));
  }
}

}  // namespace net
}  // namespace rt
