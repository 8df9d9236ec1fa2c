#pragma once
// Socket load generator for wire_unique: raw sockets plus net/protocol.hpp,
// one sender (the calling thread) and one poll() receiver thread for every
// connection, so the client adds as little of its own machinery as possible.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "tensor/tensor.hpp"

namespace e2e {

/// A PREDICT request frame (header + body) for `rows`, as a client sends
/// it; `body` is scratch. The wire load and the codec probe both time this.
void encode_predict_frame(const std::string& ref, std::uint64_t id,
                          const rt::Tensor& rows,
                          std::vector<std::uint8_t>& body,
                          std::vector<std::uint8_t>& frame);
/// Decodes one complete response frame: true when it is an OK reply to
/// `id` whose logits body decodes into `logits`.
bool decode_reply_frame(const std::uint8_t* frame, std::uint64_t id,
                        rt::Tensor* logits);

/// What one phase of the load produced.
struct PhaseResult {
  std::int64_t sent = 0;
  std::int64_t failed = 0;  ///< non-OK status, bad body, or no reply
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// OK replies, at reply time: reply minus send time.
  Timeline latency_us;
};

class WireLoad {
 public:
  using RowFn = std::function<void(std::uint64_t index, float* out)>;

  /// Connects `connections` sockets to 127.0.0.1:port. Request `id` carries
  /// the 1-row input row(id); ids are unique across both phases.
  WireLoad(std::uint16_t port, int connections, std::string ref, RowFn row);
  ~WireLoad();

  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Closed loop: each of the first `connections` sockets keeps `depth`
  /// requests outstanding for `seconds`, then waits for every reply.
  PhaseResult run_closed(int connections, int depth, double seconds);

  /// Logits of every request whose id is a multiple of 16, for the check.
  const std::map<std::uint64_t, std::array<float, 10>>& sampled() const {
    return sampled_;
  }

 private:
  struct Pending {
    std::uint64_t id;
    std::int64_t sent_ns;
    int phase;
  };
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;   ///< received bytes not yet parsed
    std::deque<Pending> pending;    ///< sent, reply not yet parsed
  };
  struct Reply {
    int phase;
    bool ok;
    std::int64_t sent_ns;
    std::int64_t recv_ns;
  };
  /// Replies recorded without growing the resident set: several times what
  /// a run sends on the calibration host.
  static constexpr std::size_t kReservedReplies = 1 << 18;

  /// Encodes the next request (a fresh id and its row) into frame_.
  std::uint64_t prepare();
  /// Sends frame_ on `conn`; the reply is timed from now.
  void transmit(int conn, std::uint64_t id, int phase);
  void receiver_main();
  /// Parses every complete frame buffered on `conn`; mutex_ held.
  void parse_locked(Conn& conn);
  /// Blocks until every sent request has a reply or `timeout_s` passes;
  /// returns the number still missing.
  std::int64_t drain(double timeout_s);
  PhaseResult collect(int phase, std::int64_t window_start,
                      std::int64_t window_end, std::int64_t missing);

  std::string ref_;
  RowFn row_fn_;
  std::uint64_t next_id_ = 0;
  int phases_ = 0;  ///< run_closed calls so far; tags each call's replies
  rt::Tensor row_{std::vector<std::int64_t>{1, 3, 16, 16}};
  std::vector<std::uint8_t> body_;
  std::vector<std::uint8_t> frame_;

  std::mutex mutex_;
  std::condition_variable replied_;
  std::vector<Conn> conns_;                 // guarded by mutex_
  std::vector<Reply> replies_;              // guarded by mutex_
  std::map<std::uint64_t, std::array<float, 10>> sampled_;  // guarded
  std::int64_t in_flight_ = 0;              // guarded by mutex_
  std::int64_t recv_ns_ = 0;  ///< arrival of the bytes being parsed; guarded
  bool stop_ = false;                       // guarded by mutex_

  std::thread receiver_;
};

}  // namespace e2e
