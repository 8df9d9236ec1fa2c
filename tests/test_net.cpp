// rt::net — wire-format, socket front-end, and drain tests.
//
// The acceptance contracts pinned here:
//   - end-to-end wire parity: logits served over a loopback socket for
//     "model@version" are BITWISE identical to an in-process
//     Session::predict() on the same compiled plan — including through a
//     registry hot swap performed mid-connection;
//   - robustness: deadlines are honored before dispatch (expired requests
//     are answered with kDeadlineExceeded, never silently dropped),
//     overload/bad-ref/bad-geometry map to typed status frames on a
//     connection that stays usable, and a deterministic Pcg32-driven
//     malformed-input sweep (truncated headers, bad magic, over-limit
//     lengths, garbage bodies, mid-payload disconnects, interleaved
//     garbage) never crashes the server — a fresh connection still serves
//     after every case;
//   - graceful drain: stop() flushes every admitted in-flight request;
//     zero admitted requests are lost across shutdown.
// The suite runs under the scripts/check.sh sanitizer passes (TSan/ASan/
// UBSan), so request and connection counts stay modest.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/synth.hpp"
#include "engine/engine.hpp"
#include "net/net.hpp"
#include "net/protocol.hpp"
#include "prune/omp.hpp"
#include "registry/registry.hpp"
#include "serving/serving.hpp"
#include "train/loop.hpp"

namespace rt {
namespace {

std::unique_ptr<ResNet> tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  ResNetConfig cfg;
  cfg.stage_blocks = {1, 1};
  cfg.stage_channels = {6, 12};
  cfg.num_classes = 10;
  cfg.name = "tn";
  return std::make_unique<ResNet>(cfg, rng);
}

/// Briefly trained + 90%-pruned model, so the CSR executor is non-trivial
/// and parity actually exercises the sparse path the bench uses.
std::unique_ptr<ResNet> served_model(std::uint64_t seed) {
  auto model = tiny_model(seed);
  const Dataset train = generate_dataset(source_task_spec(), 48, seed ^ 0x11);
  TrainLoopConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  Rng rng(seed ^ 0x5EEDULL);
  train_classifier(*model, train, cfg, rng);
  OmpConfig prune_cfg;
  prune_cfg.sparsity = 0.9f;
  omp_prune(*model, prune_cfg);
  model->set_training(false);
  return model;
}

/// Registry backed by memory only: the disk cache has its own tests.
registry::RegistryOptions memory_only() {
  registry::RegistryOptions opt;
  opt.cache_root = "";
  return opt;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flat index " << i;
  }
}

/// Raw frame-level connection for the malformed-input sweep and the
/// deadline test: sends arbitrary byte sequences (including deliberately
/// broken ones net::Client refuses to produce) and reads response frames.
struct RawConn {
  int fd = -1;

  RawConn(const std::string& host, std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("RawConn: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      throw std::runtime_error("RawConn: cannot connect");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t r =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(r, 0) << "send failed: " << std::strerror(errno);
      sent += static_cast<std::size_t>(r);
    }
  }

  /// Half-close the write side so the server's reader sees EOF while this
  /// side can still receive the response frame.
  void close_write() { ::shutdown(fd, SHUT_WR); }

  /// Reads exactly n bytes; returns the count actually read (short on EOF).
  std::size_t read_exact(std::uint8_t* buf, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, buf + got, n - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    return got;
  }

  /// Reads one response frame. Returns false on EOF before a full frame.
  bool read_frame(net::FrameHeader* header, std::vector<std::uint8_t>* body) {
    std::uint8_t buf[net::kHeaderBytes];
    if (read_exact(buf, net::kHeaderBytes) < net::kHeaderBytes) return false;
    if (net::decode_header(buf, net::kDefaultMaxBodyBytes, header) !=
        net::HeaderDecode::kOk) {
      return false;
    }
    body->resize(header->body_len);
    return header->body_len == 0 ||
           read_exact(body->data(), header->body_len) == header->body_len;
  }

  /// True when the server closed the connection without sending a frame.
  bool at_eof() {
    std::uint8_t byte = 0;
    return read_exact(&byte, 1) == 0;
  }
};

std::vector<std::uint8_t> make_frame(std::uint8_t kind, std::uint64_t id,
                                     const std::vector<std::uint8_t>& body) {
  net::FrameHeader header;
  header.kind = kind;
  header.request_id = id;
  header.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::uint8_t> frame;
  net::encode_header(header, frame);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

// ---------------------------------------------------------------------------
// Protocol layer (no sockets): encode/decode round-trips and rejections.
// ---------------------------------------------------------------------------

TEST(NetProtocol, HeaderRoundTrip) {
  net::FrameHeader in;
  in.kind = static_cast<std::uint8_t>(net::Verb::kPredict);
  in.request_id = 0x1122334455667788ULL;
  in.body_len = 513;
  std::vector<std::uint8_t> bytes;
  net::encode_header(in, bytes);
  ASSERT_EQ(bytes.size(), net::kHeaderBytes);

  net::FrameHeader out;
  ASSERT_EQ(net::decode_header(bytes.data(), net::kDefaultMaxBodyBytes, &out),
            net::HeaderDecode::kOk);
  EXPECT_EQ(out.magic, net::kMagic);
  EXPECT_EQ(out.version, net::kProtocolVersion);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.body_len, in.body_len);
}

TEST(NetProtocol, HeaderRejectsMalformed) {
  net::FrameHeader header;
  header.body_len = 8;
  std::vector<std::uint8_t> good;
  net::encode_header(header, good);
  net::FrameHeader out;

  auto bytes = good;
  bytes[0] ^= 0xFF;  // magic
  EXPECT_EQ(net::decode_header(bytes.data(), net::kDefaultMaxBodyBytes, &out),
            net::HeaderDecode::kBadMagic);

  bytes = good;
  bytes[4] = 99;  // version
  EXPECT_EQ(net::decode_header(bytes.data(), net::kDefaultMaxBodyBytes, &out),
            net::HeaderDecode::kBadVersion);

  bytes = good;
  bytes[6] = 1;  // reserved must be zero
  EXPECT_EQ(net::decode_header(bytes.data(), net::kDefaultMaxBodyBytes, &out),
            net::HeaderDecode::kBadReserved);

  // A body length over the cap is rejected before any allocation: the
  // decoded header still carries the announced length for diagnostics.
  EXPECT_EQ(net::decode_header(good.data(), /*max_body_bytes=*/4, &out),
            net::HeaderDecode::kOverLimit);
  EXPECT_EQ(out.body_len, 8u);

  EXPECT_STREQ(net::header_decode_name(net::HeaderDecode::kBadMagic),
               "bad magic");
}

TEST(NetProtocol, PredictBodyRoundTripBitwise) {
  Tensor rows({2, 3, 4, 5});
  Pcg32 rng(7);
  for (std::int64_t i = 0; i < rows.numel(); ++i) {
    rows[i] = static_cast<float>(rng.uniform_double()) * 2.0f - 1.0f;
  }
  std::vector<std::uint8_t> body;
  net::encode_predict_body("demo@latest", 2500, rows, body);

  net::PredictRequest out;
  std::string error;
  ASSERT_TRUE(net::decode_predict_body(body.data(), body.size(), &out, &error))
      << error;
  EXPECT_EQ(out.ref, "demo@latest");
  EXPECT_EQ(out.deadline_us, 2500u);
  expect_bitwise(out.rows, rows);
}

TEST(NetProtocol, PredictBodyRejectsInconsistencies) {
  Tensor rows({1, 2, 2, 2});
  for (std::int64_t i = 0; i < rows.numel(); ++i) rows[i] = 1.0f;
  std::vector<std::uint8_t> good;
  net::encode_predict_body("m", 0, rows, good);

  net::PredictRequest out;
  std::string error;

  // Truncation anywhere — inside the ref, the shape, or the payload —
  // must fail, never read out of bounds, and never fabricate a tensor.
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                good.size() - 1, good.size() - 4}) {
    EXPECT_FALSE(net::decode_predict_body(good.data(), len, &out, &error))
        << "length " << len << " decoded";
  }

  // Zero extents are rejected (offset 3 = u16 ref_len + 1-byte ref +
  // u64 deadline puts the first extent at 2 + 1 + 8 = 11).
  auto zero_extent = good;
  for (int i = 0; i < 4; ++i) zero_extent[11 + i] = 0;
  EXPECT_FALSE(
      net::decode_predict_body(zero_extent.data(), zero_extent.size(), &out,
                               &error));

  // Trailing bytes after the announced payload are an inconsistency, not
  // padding.
  auto trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(net::decode_predict_body(trailing.data(), trailing.size(),
                                        &out, &error));
}

TEST(NetProtocol, LogitsBodyRoundTripBitwise) {
  Tensor logits({3, 10});
  Pcg32 rng(9);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.uniform_double()) * 8.0f - 4.0f;
  }
  std::vector<std::uint8_t> body;
  net::encode_logits_body(logits, body);

  Tensor out{std::vector<std::int64_t>{1}};
  std::string error;
  ASSERT_TRUE(net::decode_logits_body(body.data(), body.size(), &out, &error))
      << error;
  expect_bitwise(out, logits);

  EXPECT_FALSE(net::decode_logits_body(body.data(), body.size() - 1, &out,
                                       &error));
}

TEST(NetProtocol, StatsBodyRoundTripAndRejection) {
  std::vector<std::uint8_t> body;
  net::encode_stats_body("m@stable", body);
  std::string ref;
  std::string error;
  ASSERT_TRUE(net::decode_stats_body(body.data(), body.size(), &ref, &error));
  EXPECT_EQ(ref, "m@stable");

  auto trailing = body;
  trailing.push_back(0);
  EXPECT_FALSE(net::decode_stats_body(trailing.data(), trailing.size(), &ref,
                                      &error));
  EXPECT_FALSE(net::decode_stats_body(body.data(), 1, &ref, &error));
}

// ---------------------------------------------------------------------------
// End-to-end wire parity.
// ---------------------------------------------------------------------------

TEST(NetWire, PredictMatchesInProcessBitwise) {
  registry::Registry reg(memory_only());
  auto model = served_model(301);
  reg.publish("m", *model);

  net::InferenceServer server(reg);
  net::Client client("127.0.0.1", server.port());

  // The reference session shares the registry's compiled plan, so any wire
  // difference is a serialization bug, not a compilation difference.
  Session reference(reg.compiled("m@1"), /*max_batch=*/8);
  const Dataset probe = generate_dataset(source_task_spec(), 12, 303);

  // Blocking round-trip.
  expect_bitwise(client.predict("m@1", probe.images),
                 reference.predict(probe.images));

  // Pipelined: several submits in flight at once, replies awaited out of
  // submission order (the client buffers whatever arrives early).
  const std::vector<std::int64_t> sizes{1, 3, 2, 4, 2};
  std::vector<Tensor> inputs;
  std::vector<net::Client::Reply> replies;
  std::int64_t begin = 0;
  for (const std::int64_t n : sizes) {
    inputs.push_back(probe.images.slice_rows(begin, n));
    begin += n;
    replies.push_back(client.submit("m@1", inputs.back()));
  }
  for (std::size_t i = replies.size(); i-- > 0;) {
    expect_bitwise(replies[i].get(), reference.predict(inputs[i]));
  }

  // The writer bumps its response counter after the frame reaches the
  // socket, so the client can observe a reply a beat before the counter;
  // stop() joins the writers, after which the counts are final.
  server.stop();
  const net::NetCounters counters = server.counters();
  EXPECT_GE(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.requests, sizes.size() + 1);
  EXPECT_EQ(counters.responses, sizes.size() + 1);
  EXPECT_EQ(counters.protocol_errors, 0u);
}

TEST(NetWire, HotSwapMidConnectionStaysBitwise) {
  registry::Registry reg(memory_only());
  auto v1 = served_model(311);
  auto v2 = served_model(313);
  reg.publish("m", *v1);

  net::InferenceServer server(reg);
  net::Client client("127.0.0.1", server.port());
  const Dataset probe = generate_dataset(source_task_spec(), 6, 317);

  // First PREDICT creates the serving endpoint with version 1 live.
  Session ref1(reg.compiled("m@1"), 8);
  expect_bitwise(client.predict("m@1", probe.images),
                 ref1.predict(probe.images));

  // Version 2 exists in the catalog but owns no traffic: the wire answers
  // with a typed precondition failure instead of silently routing to v1.
  reg.publish("m", *v2);
  try {
    client.predict("m@2", probe.images);
    FAIL() << "published-but-not-live version was served";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
  }

  // Hot swap on the SAME connection: after deploy, the same client must
  // get v2 bits for "m@2" (and for the bare name, which follows @latest).
  reg.deploy("m@2");
  Session ref2(reg.compiled("m@2"), 8);
  expect_bitwise(client.predict("m@2", probe.images),
                 ref2.predict(probe.images));
  expect_bitwise(client.predict("m", probe.images),
                 ref2.predict(probe.images));

  // And the swapped-out version is now the one that is not live.
  try {
    client.predict("m@1", probe.images);
    FAIL() << "swapped-out version was served";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
  }
  server.stop();
}

TEST(NetWire, TypedStatusesLeaveConnectionUsable) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(321);
  reg.publish("m", *model);

  net::InferenceServer server(reg);
  net::Client client("127.0.0.1", server.port());
  Tensor row({1, 3, 16, 16});
  for (std::int64_t i = 0; i < row.numel(); ++i) row[i] = 0.25f;

  auto expect_status = [&](const std::string& ref, const Tensor& rows,
                           net::Status want) {
    try {
      client.predict(ref, rows);
      FAIL() << ref << " unexpectedly succeeded";
    } catch (const net::RpcError& e) {
      EXPECT_EQ(e.status(), want) << e.what();
    }
  };

  expect_status("nosuch", row, net::Status::kNotFound);
  expect_status("m@99", row, net::Status::kNotFound);
  expect_status("m@", row, net::Status::kBadRequest);  // malformed reference

  // Wrong geometry passes framing but is rejected by the serving layer via
  // the future — the writer maps it to kBadRequest.
  Tensor wrong({1, 3, 8, 8});
  for (std::int64_t i = 0; i < wrong.numel(); ++i) wrong[i] = 0.25f;
  expect_status("m@1", wrong, net::Status::kBadRequest);

  // Every one of those was a typed response, not a connection kill: the
  // same client still serves a healthy request.
  client.ping();
  EXPECT_EQ(client.predict("m@1", row).dim(1), 10);
  EXPECT_EQ(server.counters().protocol_errors, 0u);
  server.stop();
}

TEST(NetWire, OverloadMapsToTypedStatus) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(331);
  reg.publish("m", *model);

  // The endpoint is created through the wire with capacity 1, so a 2-row
  // request is rejected by admission control deterministically.
  net::NetOptions opt;
  opt.serving.queue_capacity_rows = 1;
  net::InferenceServer server(reg, opt);
  net::Client client("127.0.0.1", server.port());

  Tensor one({1, 3, 16, 16});
  for (std::int64_t i = 0; i < one.numel(); ++i) one[i] = 0.5f;
  EXPECT_EQ(client.predict("m", one).dim(0), 1);

  Tensor two({2, 3, 16, 16});
  for (std::int64_t i = 0; i < two.numel(); ++i) two[i] = 0.5f;
  try {
    client.predict("m", two);
    FAIL() << "2 rows admitted past a 1-row capacity";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::Status::kOverloaded);
  }

  // Admission rejection is per-request: the connection and the fleet both
  // stay healthy.
  EXPECT_EQ(client.predict("m", one).dim(0), 1);
  server.stop();
}

TEST(NetWire, DeadlineExpiredBeforeDispatchIsAnswered) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(341);
  reg.publish("m", *model);
  net::InferenceServer server(reg);

  // The deadline clock starts at header receipt: stream the header, stall
  // (as a slow or stuck peer would), then deliver a body whose 1ms budget
  // is long gone. The request must be answered — kDeadlineExceeded, id
  // echoed — and must never reach the serving queue.
  Tensor row({1, 3, 16, 16});
  for (std::int64_t i = 0; i < row.numel(); ++i) row[i] = 1.0f;
  std::vector<std::uint8_t> body;
  net::encode_predict_body("m", /*deadline_us=*/1000, row, body);
  const auto frame =
      make_frame(static_cast<std::uint8_t>(net::Verb::kPredict), 42, body);

  RawConn conn("127.0.0.1", server.port());
  conn.send_bytes(std::vector<std::uint8_t>(
      frame.begin(), frame.begin() + net::kHeaderBytes));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  conn.send_bytes(std::vector<std::uint8_t>(
      frame.begin() + net::kHeaderBytes, frame.end()));

  net::FrameHeader response;
  std::vector<std::uint8_t> response_body;
  ASSERT_TRUE(conn.read_frame(&response, &response_body));
  EXPECT_EQ(static_cast<net::Status>(response.kind),
            net::Status::kDeadlineExceeded);
  EXPECT_EQ(response.request_id, 42u);

  // Never dispatched: the endpoint (created lazily by PREDICT) does not
  // even exist, because the request expired before route resolution.
  EXPECT_EQ(reg.find_server("m"), nullptr);

  // The connection survives an expired deadline.
  conn.send_bytes(make_frame(static_cast<std::uint8_t>(net::Verb::kPing), 43,
                             {}));
  ASSERT_TRUE(conn.read_frame(&response, &response_body));
  EXPECT_EQ(static_cast<net::Status>(response.kind), net::Status::kOk);
  EXPECT_EQ(response.request_id, 43u);
  server.stop();
}

TEST(NetWire, StatsVerbSnapshotsServingCounters) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(351);
  reg.publish("m", *model);
  reg.publish("cold", *model);

  net::NetOptions opt;
  opt.serving.cache.capacity_rows = 64;  // exercise the cache counters too
  net::InferenceServer server(reg, opt);
  net::Client client("127.0.0.1", server.port());

  Tensor rows({3, 3, 16, 16});
  for (std::int64_t i = 0; i < rows.numel(); ++i) {
    rows[i] = static_cast<float>(i % 7) * 0.1f;
  }
  client.predict("m", rows);
  client.predict("m", rows);  // second pass hits the prediction cache

  const std::map<std::string, double> stats = client.stats("m");
  for (const char* key :
       {"submitted_requests", "submitted_rows", "completed_requests",
        "failed_requests", "rejected_requests", "batches", "batched_rows",
        "idle_batches", "queued_rows", "capacity_rows", "cache_hit_rows",
        "cache_miss_rows", "cache_inserted_rows", "cache_evicted_rows",
        "cache_size_rows", "cache_capacity_rows", "latency_count",
        "latency_p50_us", "latency_p99_us"}) {
    EXPECT_EQ(stats.count(key), 1u) << "missing stats key " << key;
  }
  EXPECT_EQ(stats.at("submitted_requests"), 2.0);
  EXPECT_EQ(stats.at("submitted_rows"), 6.0);
  EXPECT_EQ(stats.at("completed_requests"), 2.0);
  EXPECT_EQ(stats.at("queued_rows"), 0.0);
  EXPECT_EQ(stats.at("cache_hit_rows"), 3.0);
  EXPECT_EQ(stats.at("cache_capacity_rows"), 64.0);
  EXPECT_GE(stats.at("latency_count"), 2.0);

  // Typed failures: unknown model vs published-but-never-served model.
  try {
    client.stats("nosuch");
    FAIL() << "stats for unknown model succeeded";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::Status::kNotFound);
  }
  try {
    client.stats("cold");
    FAIL() << "stats for endpoint-less model succeeded";
  } catch (const net::RpcError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
  }
  server.stop();
}

TEST(NetWire, ListAndPing) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(361);
  reg.publish("alpha", *model);
  reg.publish("beta", *model);
  reg.publish("beta", *model);
  reg.set_stable("beta", 1);

  net::InferenceServer server(reg);
  net::Client client("127.0.0.1", server.port());
  client.ping();

  Tensor row({1, 3, 16, 16});
  for (std::int64_t i = 0; i < row.numel(); ++i) row[i] = 0.1f;
  client.predict("alpha", row);  // alpha@1 goes live

  const std::vector<std::string> lines = client.list();
  ASSERT_EQ(lines.size(), 2u);  // std::map catalog: sorted by name
  EXPECT_EQ(lines[0], "alpha latest=1 stable=0 live=1 candidate=0");
  EXPECT_EQ(lines[1], "beta latest=2 stable=1 live=0 candidate=0");
  server.stop();
}

// ---------------------------------------------------------------------------
// Malformed-input sweep: the mini-fuzzer.
// ---------------------------------------------------------------------------

TEST(NetMalformed, DeterministicSweepSurvivesAndTypesErrors) {
  registry::Registry reg(memory_only());
  auto model = tiny_model(401);
  reg.publish("m", *model);

  net::NetOptions opt;
  opt.max_body_bytes = 1u << 20;
  net::InferenceServer server(reg, opt);
  const std::string host = "127.0.0.1";

  Tensor row({1, 3, 16, 16});
  for (std::int64_t i = 0; i < row.numel(); ++i) row[i] = 0.75f;
  std::vector<std::uint8_t> predict_body;
  net::encode_predict_body("m", 0, row, predict_body);
  const auto valid_predict = make_frame(
      static_cast<std::uint8_t>(net::Verb::kPredict), 7, predict_body);

  // Deterministic Pcg32-driven sweep: every parameter below (truncation
  // points, corrupted byte positions, garbage contents) comes from the
  // seeded generator, so the exact byte sequences replay on every run —
  // including under the ASan/TSan/UBSan passes in scripts/check.sh.
  Pcg32 rng(0x5EEDF00Du);
  std::uint64_t expected_errors = 0;

  for (int round = 0; round < 16; ++round) {
    const int category = round % 8;
    RawConn conn(host, server.port());
    net::FrameHeader response;
    std::vector<std::uint8_t> response_body;

    switch (category) {
      case 0: {  // truncated header: 1..19 bytes, then EOF
        const std::size_t len = 1 + rng.next_below(net::kHeaderBytes - 1);
        conn.send_bytes(std::vector<std::uint8_t>(
            valid_predict.begin(),
            valid_predict.begin() + static_cast<std::ptrdiff_t>(len)));
        conn.close_write();
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        EXPECT_EQ(response.request_id, 0u);  // header never decoded
        ++expected_errors;
        break;
      }
      case 1: {  // corrupted magic byte
        auto frame = valid_predict;
        frame[rng.next_below(4)] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
        conn.send_bytes(frame);
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        // Bad magic: the id bytes are untrustworthy, so the server does
        // not echo them.
        EXPECT_EQ(response.request_id, 0u);
        ++expected_errors;
        break;
      }
      case 2: {  // wrong protocol version; id is echoed
        auto frame = valid_predict;
        frame[4] = static_cast<std::uint8_t>(2 + rng.next_below(250));
        conn.send_bytes(frame);
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        EXPECT_EQ(response.request_id, 7u);
        ++expected_errors;
        break;
      }
      case 3: {  // body length over the configured cap
        net::FrameHeader header;
        header.kind = static_cast<std::uint8_t>(net::Verb::kPredict);
        header.request_id = 7;
        header.body_len = opt.max_body_bytes + 1 + rng.next_below(4096);
        std::vector<std::uint8_t> frame;
        net::encode_header(header, frame);
        conn.send_bytes(frame);
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        EXPECT_EQ(response.request_id, 7u);
        ++expected_errors;
        break;
      }
      case 4: {  // garbage PREDICT body of random length
        std::vector<std::uint8_t> garbage(1 + rng.next_below(48));
        for (auto& byte : garbage) {
          byte = static_cast<std::uint8_t>(rng.next_below(256));
        }
        conn.send_bytes(make_frame(
            static_cast<std::uint8_t>(net::Verb::kPredict), 9, garbage));
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        EXPECT_EQ(response.request_id, 9u);
        ++expected_errors;
        break;
      }
      case 5: {  // unknown verb
        const auto verb = static_cast<std::uint8_t>(5 + rng.next_below(200));
        conn.send_bytes(make_frame(verb, 11, {}));
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        EXPECT_EQ(response.request_id, 11u);
        ++expected_errors;
        break;
      }
      case 6: {  // interleaved: a healthy PING, then garbage
        conn.send_bytes(
            make_frame(static_cast<std::uint8_t>(net::Verb::kPing), 13, {}));
        auto frame = valid_predict;
        frame[rng.next_below(4)] ^= 0x80;
        conn.send_bytes(frame);
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind), net::Status::kOk);
        EXPECT_EQ(response.request_id, 13u);
        ASSERT_TRUE(conn.read_frame(&response, &response_body));
        EXPECT_EQ(static_cast<net::Status>(response.kind),
                  net::Status::kProtocolError);
        ++expected_errors;
        break;
      }
      case 7: {  // mid-payload disconnect: the peer is gone, no reply owed
        const std::size_t cut =
            net::kHeaderBytes + 1 +
            rng.next_below(static_cast<std::uint32_t>(predict_body.size() -
                                                      1));
        conn.send_bytes(std::vector<std::uint8_t>(
            valid_predict.begin(),
            valid_predict.begin() + static_cast<std::ptrdiff_t>(cut)));
        conn.close_write();
        EXPECT_TRUE(conn.at_eof());  // retired silently, no frame, no crash
        break;
      }
    }

    // After every malformed connection the server must still serve a
    // fresh, healthy one — the blast radius is one connection.
    net::Client healthy(host, server.port());
    healthy.ping();
  }

  EXPECT_EQ(server.counters().protocol_errors, expected_errors);

  // End-to-end proof of life: full predict round-trip after the sweep.
  net::Client client(host, server.port());
  Session reference(reg.compiled("m@1"), 8);
  expect_bitwise(client.predict("m@1", row), reference.predict(row));
  server.stop();
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(NetDrain, StopFlushesEveryAdmittedRequest) {
  registry::Registry reg(memory_only());
  auto model = served_model(411);
  reg.publish("m", *model);

  // A full 64-row request goes first and runs as one batch; the eight
  // 1-row requests behind it wait for company behind that running batch
  // (up to the long coalescing bound), so stop() usually lands while
  // admitted rows are still pending. The drain must flush them through the
  // writers, not abandon them; the checks below hold whichever way the race
  // falls.
  net::NetOptions opt;
  opt.serving.max_batch = 64;
  opt.serving.max_delay_ms = 150.0;
  net::InferenceServer server(reg, opt);
  net::Client client("127.0.0.1", server.port());

  Session reference(reg.compiled("m@1"), 8);
  const Dataset probe = generate_dataset(source_task_spec(), 72, 413);

  std::vector<Tensor> inputs{probe.images.slice_rows(0, 64)};
  std::vector<net::Client::Reply> replies;
  replies.push_back(client.submit("m@1", inputs.back()));
  for (std::int64_t i = 64; i < 72; ++i) {
    inputs.push_back(probe.images.slice_rows(i, 1));
    replies.push_back(client.submit("m@1", inputs.back()));
  }

  // Wait until the serving layer has admitted all 9, so stop() races only
  // with execution, not with admission.
  serving::Server* endpoint = nullptr;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    endpoint = reg.find_server("m");
    if (endpoint != nullptr && endpoint->stats().submitted_requests >= 9) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "requests were never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.stop();

  // Zero admitted requests lost: every reply arrives, bitwise correct —
  // the responses were flushed to the socket before the drain closed it.
  for (std::size_t i = 0; i < replies.size(); ++i) {
    expect_bitwise(replies[i].get(), reference.predict(inputs[i]));
  }

  // After the drain the listener is gone: new connections are refused.
  EXPECT_THROW(net::Client("127.0.0.1", server.port()), std::runtime_error);

  const net::NetCounters counters = server.counters();
  EXPECT_EQ(counters.requests, 9u);
  EXPECT_EQ(counters.responses, 9u);
  EXPECT_EQ(counters.connections_open, 0u);

  // stop() is idempotent.
  server.stop();
}

}  // namespace
}  // namespace rt
