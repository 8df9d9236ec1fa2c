#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/protocol.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_full(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

void encode_predict_frame(const std::string& ref, std::uint64_t id,
                          const rt::Tensor& rows,
                          std::vector<std::uint8_t>& body,
                          std::vector<std::uint8_t>& frame) {
  body.clear();
  rt::net::encode_predict_body(ref, 0, rows, body);
  rt::net::FrameHeader header;
  header.kind = static_cast<std::uint8_t>(rt::net::Verb::kPredict);
  header.request_id = id;
  header.body_len = static_cast<std::uint32_t>(body.size());
  frame.clear();
  rt::net::encode_header(header, frame);
  frame.insert(frame.end(), body.begin(), body.end());
}

bool decode_reply_frame(const std::uint8_t* frame, std::uint64_t id,
                        rt::Tensor* logits) {
  rt::net::FrameHeader header;
  std::string error;
  return rt::net::decode_header(frame, rt::net::kDefaultMaxBodyBytes,
                                &header) == rt::net::HeaderDecode::kOk &&
         header.kind == static_cast<std::uint8_t>(rt::net::Status::kOk) &&
         header.request_id == id &&
         rt::net::decode_logits_body(frame + rt::net::kHeaderBytes,
                                     header.body_len, logits, &error);
}

WireLoad::WireLoad(std::uint16_t port, int connections, std::string ref,
                   RowFn row)
    : ref_(std::move(ref)), row_fn_(std::move(row)) {
  reserve_resident(replies_, kReservedReplies);
  conns_.resize(static_cast<std::size_t>(connections));
  try {
    for (Conn& c : conns_) c.fd = connect_loopback(port);
  } catch (...) {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    throw;
  }
  receiver_ = std::thread([this] { receiver_main(); });
}

WireLoad::~WireLoad() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  receiver_.join();
  for (Conn& c : conns_) ::close(c.fd);
}

std::uint64_t WireLoad::prepare() {
  const std::uint64_t id = ++next_id_;
  row_fn_(id, row_.data());
  Span span("net.encode", id);
  encode_predict_frame(ref_, id, row_, body_, frame_);
  return id;
}

void WireLoad::transmit(int conn, std::uint64_t id, int phase) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns_[static_cast<std::size_t>(conn)].pending.push_back(
        {id, now_ns(), phase});
    ++in_flight_;
  }
  if (!write_full(conns_[static_cast<std::size_t>(conn)].fd, frame_.data(),
                  frame_.size())) {
    throw std::runtime_error("wire connection closed while sending");
  }
}

void WireLoad::receiver_main() {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
  std::vector<std::uint8_t> buf(1 << 16);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    if (::poll(fds.data(), fds.size(), 5) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t r = ::recv(fds[i].fd, buf.data(), buf.size(), MSG_DONTWAIT);
      const std::int64_t t = now_ns();
      if (r <= 0) {
        if (r < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        fds[i].fd = -1;  // closed: poll() skips negative descriptors
        continue;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      Conn& c = conns_[i];
      c.in.insert(c.in.end(), buf.begin(), buf.begin() + r);
      recv_ns_ = t;
      parse_locked(c);
    }
  }
}

void WireLoad::parse_locked(Conn& c) {
  std::size_t off = 0;
  rt::Tensor logits{std::vector<std::int64_t>{1}};
  while (c.in.size() - off >= rt::net::kHeaderBytes) {
    rt::net::FrameHeader header;
    const auto decoded = rt::net::decode_header(
        c.in.data() + off, rt::net::kDefaultMaxBodyBytes, &header);
    if (decoded != rt::net::HeaderDecode::kOk || c.pending.empty()) {
      // Unparseable stream: nothing on this connection can be matched any
      // more, so its outstanding requests stay missing and count as failed.
      off = c.in.size();
      break;
    }
    const std::size_t frame = rt::net::kHeaderBytes + header.body_len;
    if (c.in.size() - off < frame) break;

    const Pending p = c.pending.front();
    c.pending.pop_front();
    bool ok = false;
    {
      Span span("net.decode", p.id);
      ok = decode_reply_frame(c.in.data() + off, p.id, &logits) &&
           logits.numel() == 10;
    }
    if (ok && p.id % 16 == 0) {
      std::array<float, 10> out{};
      std::memcpy(out.data(), logits.data(), sizeof(out));
      sampled_.emplace(p.id, out);
    }
    replies_.push_back({p.phase, ok, p.sent_ns, recv_ns_});
    --in_flight_;
    off += frame;
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  replied_.notify_all();
}

std::int64_t WireLoad::drain(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  replied_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                    [&] { return in_flight_ == 0; });
  return in_flight_;
}

PhaseResult WireLoad::collect(int phase, std::int64_t window_start,
                              std::int64_t window_end, std::int64_t missing) {
  PhaseResult out;
  out.start_ns = window_start;
  out.end_ns = window_end;
  out.failed = missing;
  std::lock_guard<std::mutex> lock(mutex_);
  // Exactly the room needed: peak_rss_mb is read after the last phase.
  std::size_t ok = 0;
  for (const Reply& r : replies_) ok += r.phase == phase && r.ok;
  out.latency_us.reserve(ok);
  for (const Reply& r : replies_) {
    if (r.phase != phase) continue;
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    out.latency_us.add(r.recv_ns,
                       static_cast<double>(r.recv_ns - r.sent_ns) / 1e3);
  }
  return out;
}

PhaseResult WireLoad::run_closed(int connections, int depth, double seconds) {
  const int phase = ++phases_;
  const std::int64_t start = now_ns();
  const std::int64_t end =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t sent = 0;
  int next = 0;
  while (now_ns() < end) {
    int target = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (int k = 0; k < connections && target < 0; ++k) {
        const int c = (next + k) % connections;
        if (static_cast<int>(conns_[static_cast<std::size_t>(c)]
                                 .pending.size()) < depth) {
          target = c;
        }
      }
      if (target < 0) {
        replied_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
    }
    const std::uint64_t id = prepare();
    transmit(target, id, phase);
    next = (target + 1) % connections;
    ++sent;
  }
  const std::int64_t missing = drain(10.0);
  PhaseResult out = collect(phase, start, end, missing);
  out.sent = sent;
  return out;
}

}  // namespace e2e
