// Network service layer tests: wire-protocol round trips, malformed and
// truncated frames, pipelining (and the server's per-group response
// batching), concurrent clients (including 8 YCSB-A clients over loopback
// with a lost/duplicate-ack audit), graceful shutdown with in-flight
// writes, a FaultInjectionDrive behind the server (read-only degradation
// must surface as a typed error response, not a hang), and the client's
// buffered frame reader against a scripted raw peer. Runs under TSan via
// the "stress" ctest label.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/presets.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "net/seal_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/seal_server.h"
#include "smr/fault_injection_drive.h"
#include "util/coding.h"
#include "ycsb/runner.h"

namespace sealdb {

namespace {

using baselines::BuildStack;
using baselines::Stack;
using baselines::StackConfig;
using baselines::SystemKind;

StackConfig SmallConfig(bool fault_injection = false) {
  StackConfig config;
  config.kind = SystemKind::kSEALDB;
  config.capacity_bytes = 256ull << 20;
  config.band_bytes = 640 << 10;
  config.sstable_bytes = 64 << 10;
  config.write_buffer_bytes = 64 << 10;
  config.track_bytes = 16 << 10;
  config.conventional_bytes = 8 << 20;
  config.inline_compactions = false;
  config.fault_injection = fault_injection;
  return config;
}

std::string Key(int client, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%02d-key%08d", client, i);
  return buf;
}

std::string Value(int client, int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "value-%02d-%08d", client, i);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire format unit tests (no sockets).

TEST(WireFormat, FrameRoundTrip) {
  std::string stream;
  net::EncodeFrame(&stream, static_cast<uint8_t>(net::Op::kPut), 42,
                   "payload-bytes");
  Slice input(stream);
  net::FrameHeader header;
  Slice payload;
  ASSERT_EQ(net::DecodeFrame(&input, &header, &payload),
            net::DecodeResult::kOk);
  EXPECT_EQ(header.opcode, static_cast<uint8_t>(net::Op::kPut));
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(payload, Slice("payload-bytes"));
  EXPECT_TRUE(input.empty());
}

TEST(WireFormat, TruncatedFrameNeedsMore) {
  std::string stream;
  net::EncodeFrame(&stream, static_cast<uint8_t>(net::Op::kGet), 7, "key");
  for (size_t cut = 0; cut < stream.size(); cut++) {
    Slice input(stream.data(), cut);
    net::FrameHeader header;
    Slice payload;
    EXPECT_EQ(net::DecodeFrame(&input, &header, &payload),
              net::DecodeResult::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(WireFormat, CorruptionDetected) {
  std::string good;
  net::EncodeFrame(&good, static_cast<uint8_t>(net::Op::kPut), 1, "abcdef");

  {
    std::string bad = good;
    bad[0] = 'x';  // magic
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p), net::DecodeResult::kBadMagic);
  }
  {
    std::string bad = good;
    bad[net::kVersionOffset] = 99;
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p),
              net::DecodeResult::kBadVersion);
  }
  {
    std::string bad = good;
    bad[net::kFrameHeaderBytes + 2] ^= 0x40;  // flip a payload bit
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p), net::DecodeResult::kBadCrc);
  }
  {
    std::string bad = good;
    EncodeFixed32(bad.data() + net::kPayloadLenOffset,
                  64 << 20);  // absurd payload length
    Slice input(bad);
    net::FrameHeader h;
    Slice p;
    EXPECT_EQ(net::DecodeFrame(&input, &h, &p, /*max_payload=*/1 << 20),
              net::DecodeResult::kTooLarge);
  }
}

TEST(WireFormat, StatusRecordRoundTrip) {
  for (const Status& s :
       {Status::OK(), Status::NotFound("missing key"),
        Status::IOError("drive", "degraded"), Status::NoSpace("full"),
        Status::InvalidArgument("bad"), Status::Corruption("crc")}) {
    std::string payload;
    net::EncodeStatusRecord(&payload, s);
    Slice input(payload);
    Status decoded;
    ASSERT_TRUE(net::DecodeStatusRecord(&input, &decoded));
    EXPECT_EQ(decoded.ok(), s.ok());
    EXPECT_EQ(decoded.IsNotFound(), s.IsNotFound());
    EXPECT_EQ(decoded.IsIOError(), s.IsIOError());
    EXPECT_EQ(decoded.IsNoSpace(), s.IsNoSpace());
    EXPECT_EQ(decoded.ToString(), s.ToString());
  }
}

TEST(WireFormat, WriteBatchRoundTrip) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Put("k3", std::string(1000, 'x'));

  std::string payload;
  net::EncodeWriteBatchRequest(&payload, batch);
  WriteBatch decoded;
  ASSERT_TRUE(net::DecodeWriteBatchRequest(payload, &decoded));
  std::string a, b;
  ASSERT_TRUE(WriteBatchInternal::Contents(&batch) ==
              WriteBatchInternal::Contents(&decoded));
}

// ---------------------------------------------------------------------------
// End-to-end server tests.

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(bool fault_injection = false,
                   const server::ServerOptions& opts = {}) {
    ASSERT_TRUE(
        BuildStack(SmallConfig(fault_injection), "/served", &stack_).ok());
    server_ = std::make_unique<server::SealServer>(stack_->db(), stack_.get(),
                                                   opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    if (stack_ != nullptr) stack_->db()->WaitForIdle();
  }

  // One sealdb_server_* counter from the server's registry.
  uint64_t ServerCounter(const std::string& name) const {
    return server_->metrics_registry()->counter_value(name);
  }

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<server::SealServer> server_;
};

TEST_F(ServerTest, ProtocolRoundTrips) {
  StartServer();
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("apple", "red").ok());
  ASSERT_TRUE(client.Put("banana", "yellow").ok());
  ASSERT_TRUE(client.Put("cherry", "dark").ok());

  std::string value;
  ASSERT_TRUE(client.Get("banana", &value).ok());
  EXPECT_EQ(value, "yellow");
  EXPECT_TRUE(client.Get("durian", &value).IsNotFound());

  ASSERT_TRUE(client.Delete("banana").ok());
  EXPECT_TRUE(client.Get("banana", &value).IsNotFound());

  WriteBatch batch;
  batch.Put("date", "brown");
  batch.Put("elderberry", "purple");
  batch.Delete("apple");
  ASSERT_TRUE(client.Write(batch).ok());

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", 100, &entries).ok());
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, "cherry");
  EXPECT_EQ(entries[1].first, "date");
  EXPECT_EQ(entries[2].first, "elderberry");

  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("-- engine --"), std::string::npos);
  EXPECT_NE(stats.find("-- device --"), std::string::npos);
  EXPECT_NE(stats.find("-- server --"), std::string::npos);
  EXPECT_NE(stats.find("approximate memory usage"), std::string::npos);
}

TEST_F(ServerTest, PipelinedBatchApi) {
  StartServer();
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  constexpr int kOps = 200;
  for (int i = 0; i < kOps; i++) {
    client.QueuePut(Key(0, i), Value(0, i));
  }
  std::vector<net::SealClient::Result> results;
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(kOps));
  for (const auto& r : results) EXPECT_TRUE(r.status.ok());

  // Mixed pipeline: interleave reads of existing and missing keys.
  for (int i = 0; i < kOps; i++) {
    client.QueueGet(Key(0, i));
    client.QueueGet("missing-" + std::to_string(i));
  }
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), static_cast<size_t>(2 * kOps));
  for (int i = 0; i < kOps; i++) {
    EXPECT_TRUE(results[2 * i].status.ok());
    EXPECT_EQ(results[2 * i].value, Value(0, i));
    EXPECT_TRUE(results[2 * i + 1].status.IsNotFound());
  }

  // Pipelined writes must have hit the group-commit path.
  EXPECT_GE(ServerCounter("sealdb_server_write_groups_total"), 1u);
  EXPECT_EQ(ServerCounter("sealdb_server_batched_writes_total"),
            static_cast<uint64_t>(kOps));
}

// One pipelined window of 16 GETs and 16 PUTs on a one-worker server:
// every response is matched to its request by id, and the worker's
// per-group wake lets the loop answer the window in fewer sends than
// responses. With max_batch_requests = 1 every request is its own group.
TEST_F(ServerTest, PipelinedWindowBatchesSocketWrites) {
  for (const size_t max_batch : {size_t{256}, size_t{1}}) {
    SCOPED_TRACE("max_batch_requests=" + std::to_string(max_batch));
    server::ServerOptions opts;
    opts.num_workers = 1;
    opts.max_batch_requests = max_batch;
    StartServer(/*fault_injection=*/false, opts);
    net::SealClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    constexpr int kPairs = 16;
    for (int i = 0; i < kPairs; i++) {
      ASSERT_TRUE(client.Put(Key(0, i), Value(0, i)).ok());
    }

    const uint64_t writes0 =
        ServerCounter("sealdb_server_socket_writes_total");
    const uint64_t requests0 = ServerCounter("sealdb_server_requests_total");
    const uint64_t idle0 = ServerCounter("sealdb_server_idle_wakeups_total");
    std::vector<uint64_t> ids;
    for (int i = 0; i < kPairs; i++) {
      ids.push_back(client.QueueGet(Key(0, i)));
      ids.push_back(client.QueuePut(Key(1, i), Value(1, i)));
    }
    std::vector<net::SealClient::Result> results;
    ASSERT_TRUE(client.Flush(&results).ok());
    ASSERT_EQ(results.size(), ids.size());
    for (int i = 0; i < kPairs; i++) {
      const auto& get = results[2 * i];
      const auto& put = results[2 * i + 1];
      EXPECT_EQ(get.request_id, ids[2 * i]);
      EXPECT_EQ(get.opcode, static_cast<uint8_t>(net::Op::kGet));
      EXPECT_TRUE(get.status.ok()) << get.status.ToString();
      EXPECT_EQ(get.value, Value(0, i));
      EXPECT_EQ(put.request_id, ids[2 * i + 1]);
      EXPECT_EQ(put.opcode, static_cast<uint8_t>(net::Op::kPut));
      EXPECT_TRUE(put.status.ok()) << put.status.ToString();
    }
    // Each request got exactly one response (all were matched above).
    const uint64_t responses =
        ServerCounter("sealdb_server_requests_total") - requests0;
    const uint64_t writes =
        ServerCounter("sealdb_server_socket_writes_total") - writes0;
    const uint64_t idle =
        ServerCounter("sealdb_server_idle_wakeups_total") - idle0;
    EXPECT_EQ(responses, static_cast<uint64_t>(2 * kPairs));
    if (max_batch > 1) {
      // A handful of groups, one send each, so well below one send per
      // response (what a wake per response costs).
      EXPECT_LE(writes, responses / 4);
    }
    // The cost of grouping: each token whose request another group already
    // ran wakes the worker into an empty queue once. That is at most one
    // idle wake-up per request (a write leader's re-release only replaces
    // a token dropped at its leader-locked queue).
    EXPECT_LE(idle, responses);

    std::string value;
    for (int i = 0; i < kPairs; i++) {
      ASSERT_TRUE(client.Get(Key(1, i), &value).ok());
      EXPECT_EQ(value, Value(1, i));
    }
    std::string stats;
    ASSERT_TRUE(client.Stats(&stats).ok());
    EXPECT_NE(stats.find("responses per socket write"), std::string::npos);
    client.Close();
    TearDown();
    server_.reset();
    stack_.reset();
  }
}

TEST_F(ServerTest, MalformedFramesGetTypedErrorsOrClose) {
  StartServer();

  // Garbage magic: the server cannot trust the stream and just closes it.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(net::WriteFully(fd, garbage, sizeof(garbage) - 1).ok());
    char byte;
    EXPECT_TRUE(net::ReadFully(fd, &byte, 1).IsIOError());  // clean EOF
    net::CloseFd(fd);
  }

  // Corrupted payload: typed protocol error response, then close.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    ASSERT_TRUE(net::SetRecvTimeout(fd, 5000).ok());
    std::string req;
    net::EncodePutRequest(&req, "key", "value");
    std::string frame;
    net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 9, req);
    frame[frame.size() - 1] ^= 0x20;  // corrupt the payload
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());

    char header[net::kFrameHeaderBytes];
    ASSERT_TRUE(net::ReadFully(fd, header, sizeof(header)).ok());
    EXPECT_EQ(static_cast<uint8_t>(header[net::kOpcodeOffset]),
              net::kOpError | net::kResponseBit);
    const uint32_t payload_len =
        DecodeFixed32(header + net::kPayloadLenOffset);
    std::string payload(payload_len, 0);
    ASSERT_TRUE(net::ReadFully(fd, payload.data(), payload_len).ok());
    Slice in(payload);
    Status err;
    ASSERT_TRUE(net::DecodeStatusRecord(&in, &err));
    EXPECT_TRUE(err.IsCorruption());
    // And then EOF.
    char byte;
    EXPECT_TRUE(net::ReadFully(fd, &byte, 1).IsIOError());
    net::CloseFd(fd);
  }

  // A truncated frame followed by a client hangup must not wedge the
  // server.
  {
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    std::string frame;
    net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 11,
                     "incomplete");
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size() / 2).ok());
    net::CloseFd(fd);
  }

  // The server keeps serving fresh connections afterwards.
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_GE(ServerCounter("sealdb_server_protocol_errors_total"), 2u);
}

// A peer that hangs up while its request is still in flight must not make
// the event loop spin until the request finishes: an EOF stays readable
// and EPOLLHUP is reported whatever the interest mask. Both an orderly
// close (FIN) and an abortive one (RST) are covered.
TEST_F(ServerTest, HangupWithRequestInFlightDoesNotSpinTheLoop) {
  server::ServerOptions opts;
  opts.sync_writes = true;
  StartServer(/*fault_injection=*/true, opts);
  constexpr uint64_t kWriteDelayMicros = 50 * 1000;

  for (const bool abortive : {false, true}) {
    SCOPED_TRACE(abortive ? "RST" : "FIN");
    const std::string key = abortive ? "hangup-rst" : "hangup-fin";
    int fd = -1;
    ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
    // Every drive write now sleeps, so the synced put stays in flight.
    stack_->fault_drive()->SetWriteDelayMicros(kWriteDelayMicros);
    std::string req;
    net::EncodePutRequest(&req, key, "v");
    std::string frame;
    // Distinct request ids: the write dedup window would ack a repeated id
    // without applying it.
    net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut),
                     abortive ? 2 : 1, req);
    const uint64_t requests = ServerCounter("sealdb_server_requests_total");
    ASSERT_TRUE(net::WriteFully(fd, frame.data(), frame.size()).ok());
    // Hang up once the server has dispatched the put.
    for (int i = 0; i < 500 &&
                    ServerCounter("sealdb_server_requests_total") == requests;
         i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const uint64_t wakes_before =
        ServerCounter("sealdb_server_loop_wakeups_total");
    if (abortive) {
      linger lg{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    net::CloseFd(fd);

    // The put completes, its response is dropped, and the connection
    // closes without the loop turning over in between.
    std::string value;
    for (int i = 0; i < 5000 && !stack_->db()->Get(ReadOptions(), key, &value)
                                     .ok();
         i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(stack_->db()->Get(ReadOptions(), key, &value).ok());
    stack_->fault_drive()->SetWriteDelayMicros(0);
    for (int i = 0; i < 1000 && server_->metrics_registry()->gauge_value(
                                    "sealdb_server_connections_active") > 0;
         i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server_->metrics_registry()->gauge_value(
                  "sealdb_server_connections_active"),
              0.0);
    const uint64_t wakes =
        ServerCounter("sealdb_server_loop_wakeups_total") - wakes_before;
    EXPECT_LT(wakes, 20u) << "loop woke " << wakes << " times";
  }
}

TEST_F(ServerTest, ConcurrentClientsNoLostOrDuplicatedAcks) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 300;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures++;
        return;
      }
      for (int i = 0; i < kOpsPerClient; i++) {
        if (!client.Put(Key(c, i), Value(c, i)).ok()) {
          failures++;
          return;
        }
      }
      // Read back our own writes through the same server.
      std::string value;
      for (int i = 0; i < kOpsPerClient; i++) {
        if (!client.Get(Key(c, i), &value).ok() || value != Value(c, i)) {
          failures++;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Audit: every acknowledged key exists exactly once (a full scan cannot
  // yield duplicates from a correct iterator, and must not miss any).
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", kClients * kOpsPerClient + 10, &entries).ok());
  ASSERT_EQ(entries.size(),
            static_cast<size_t>(kClients * kOpsPerClient));
  std::set<std::string> seen;
  for (const auto& [key, value] : entries) {
    EXPECT_TRUE(seen.insert(key).second) << "duplicate key " << key;
  }
  for (int c = 0; c < kClients; c++) {
    for (int i = 0; i < kOpsPerClient; i++) {
      EXPECT_EQ(seen.count(Key(c, i)), 1u);
    }
  }

  EXPECT_GE(ServerCounter("sealdb_server_connections_accepted_total"),
            static_cast<uint64_t>(kClients));
  EXPECT_GE(ServerCounter("sealdb_server_requests_total"),
            static_cast<uint64_t>(2 * kClients * kOpsPerClient));
}

TEST_F(ServerTest, EightConcurrentYcsbAClients) {
  StartServer();
  constexpr int kClients = 8;
  constexpr uint64_t kRecords = 400;
  constexpr uint64_t kOps = 300;

  // Load through one remote client, then run YCSB-A from 8 concurrent
  // remote clients (disjoint seeds so the insert streams differ).
  {
    net::SealClient loader;
    ASSERT_TRUE(loader.Connect("127.0.0.1", server_->port()).ok());
    ycsb::Runner runner(&loader, 16, 128);
    ycsb::RunResult load;
    ASSERT_TRUE(runner.Load(kRecords, &load).ok());
    ASSERT_EQ(load.operations, kRecords);
    EXPECT_GT(load.wall_seconds, 0.0);
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> total_ops{0};
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([this, c, &failures, &total_ops] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures++;
        return;
      }
      ycsb::Runner runner(&client, 16, 128, /*seed=*/1000 + c);
      ycsb::RunResult result;
      if (!runner.Run(ycsb::WorkloadSpec::A(), kRecords, kOps, &result)
               .ok()) {
        failures++;
        return;
      }
      if (result.operations != kOps) failures++;
      total_ops += result.operations;
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(total_ops.load(), kClients * kOps);
}

TEST_F(ServerTest, GracefulShutdownDrainsInflightWrites) {
  StartServer();
  constexpr int kWriters = 4;

  // Writers hammer the server; everything acknowledged OK before the
  // shutdown severs them must be durable in the DB.
  std::vector<std::set<std::string>> acked(kWriters);
  std::vector<std::thread> threads;
  std::atomic<bool> begin{false};
  for (int c = 0; c < kWriters; c++) {
    threads.emplace_back([this, c, &acked, &begin] {
      net::SealClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      while (!begin.load()) std::this_thread::yield();
      for (int i = 0; i < 100000; i++) {
        const std::string key = Key(c, i);
        if (!client.Put(key, Value(c, i)).ok()) break;  // shutdown reached
        acked[c].insert(key);
      }
    });
  }

  begin.store(true);
  // Let the writers get going, then pull the plug mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  for (auto& t : threads) t.join();

  size_t total_acked = 0;
  std::string value;
  for (int c = 0; c < kWriters; c++) {
    total_acked += acked[c].size();
    for (const std::string& key : acked[c]) {
      EXPECT_TRUE(stack_->db()->Get(ReadOptions(), key, &value).ok())
          << "acknowledged write lost: " << key;
    }
  }
  // The writers must have been genuinely mid-flight when Stop() hit.
  EXPECT_GT(total_acked, 0u);
  server_.reset();
}

TEST_F(ServerTest, FaultInjectionSurfacesTypedErrorsNotHangs) {
  StartServer(/*fault_injection=*/true);
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Healthy first: some writes land.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client.Put(Key(0, i), Value(0, i)).ok());
  }

  // Kill the whole drive for writes. The next WAL/flush write fails, the
  // DB latches read-only degradation, and clients must see a typed error
  // response (the 30 s client recv timeout turns a hang into a failure).
  stack_->fault_drive()->SetWriteError(true);
  Status degraded;
  for (int i = 0; i < 20000; i++) {
    degraded = client.Put("poison-" + std::to_string(i), "x");
    if (!degraded.ok()) break;
  }
  ASSERT_FALSE(degraded.ok()) << "writes kept succeeding on a dead drive";
  EXPECT_TRUE(degraded.IsIOError() || degraded.IsNoSpace())
      << degraded.ToString();

  // Once degraded, every further write is refused promptly and reads keep
  // serving from memory/cache-resident state.
  Status again = client.Put("after-degradation", "x");
  EXPECT_FALSE(again.ok());
  std::string value;
  Status rs = client.Get(Key(0, 0), &value);
  EXPECT_TRUE(rs.ok() || rs.IsIOError()) << rs.ToString();

  // STATS still answers and reports the latched background error.
  std::string stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_NE(stats.find("background error"), std::string::npos);

  stack_->fault_drive()->SetWriteError(false);
}

// Connection buffer accounting flows into the DB memory property.
TEST_F(ServerTest, ApproximateMemoryUsageIncludesConnectionBuffers) {
  StartServer();
  std::string before_str;
  ASSERT_TRUE(stack_->db()->GetProperty("sealdb.approximate-memory-usage",
                                        &before_str));

  // Park a large unfinished frame in the server's read buffer.
  int fd = -1;
  ASSERT_TRUE(net::ConnectTcp("127.0.0.1", server_->port(), &fd).ok());
  const size_t kChunk = 1 << 20;
  std::string req;
  net::EncodePutRequest(&req, "big-key", std::string(2 * kChunk, 'x'));
  std::string frame;
  net::EncodeFrame(&frame, static_cast<uint8_t>(net::Op::kPut), 77, req);
  ASSERT_TRUE(net::WriteFully(fd, frame.data(), kChunk).ok());

  // Wait for the bytes to land in the connection buffer.
  uint64_t buffered = 0;
  for (int i = 0; i < 200 && buffered < kChunk; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    buffered = server_->connection_buffer_bytes();
  }
  EXPECT_GE(buffered, kChunk);

  std::string after_str;
  ASSERT_TRUE(stack_->db()->GetProperty("sealdb.approximate-memory-usage",
                                        &after_str));
  const uint64_t before = std::stoull(before_str);
  const uint64_t after = std::stoull(after_str);
  EXPECT_GE(after, before + kChunk);
  net::CloseFd(fd);
}

// ---------------------------------------------------------------------------
// SealClient's buffered frame reader against a scripted raw peer.

namespace {

// A loopback peer that accepts connections on an ephemeral port and runs
// `script(fd, index)` on each accepted socket, one after another.
class RawPeer {
 public:
  using Script = std::function<void(int fd, int index)>;

  explicit RawPeer(Script script) {
    EXPECT_TRUE(net::ListenTcp("127.0.0.1", 0, 8, &listen_fd_, &port_).ok());
    thread_ = std::thread([this, script = std::move(script)] {
      for (int i = 0;; i++) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;  // the destructor shut the listener down
        (void)net::SetNoDelay(fd);
        script(fd, i);
        net::CloseFd(fd);
      }
    });
  }

  ~RawPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    net::CloseFd(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// Read one request frame from `fd`; returns false on EOF or a bad frame.
bool ReadRequest(int fd, net::FrameHeader* header, std::string* payload) {
  std::string frame(net::kFrameHeaderBytes, '\0');
  if (!net::ReadFully(fd, frame.data(), frame.size()).ok()) return false;
  const uint32_t len = DecodeFixed32(frame.data() + net::kPayloadLenOffset);
  frame.resize(net::kFrameHeaderBytes + len);
  if (len > 0 &&
      !net::ReadFully(fd, frame.data() + net::kFrameHeaderBytes, len).ok()) {
    return false;
  }
  Slice input(frame);
  Slice body;
  if (net::DecodeFrame(&input, header, &body) != net::DecodeResult::kOk) {
    return false;
  }
  payload->assign(body.data(), body.size());
  return true;
}

// Append a successful GET response for `request` carrying `value`.
void AppendGetResponse(std::string* out, const net::FrameHeader& request,
                       const std::string& value) {
  std::string payload;
  net::EncodeGetResponse(&payload, Status::OK(), value);
  net::EncodeFrame(out, request.opcode | net::kResponseBit,
                   request.request_id, payload, request.trace_id);
}

// Block until the client closes its end.
void AwaitPeerClose(int fd) {
  char byte;
  while (::recv(fd, &byte, 1, 0) > 0) {
  }
}

}  // namespace

TEST(SealClientReader, TwoFramesCoalescedInOneSegment) {
  RawPeer peer([](int fd, int) {
    net::FrameHeader a, b;
    std::string pa, pb;
    if (!ReadRequest(fd, &a, &pa) || !ReadRequest(fd, &b, &pb)) return;
    std::string out;
    AppendGetResponse(&out, a, "value-a");
    AppendGetResponse(&out, b, "value-b");
    (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);  // one segment
    AwaitPeerClose(fd);
  });
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), 5000).ok());
  const uint64_t id_a = client.QueueGet("a");
  const uint64_t id_b = client.QueueGet("b");
  std::vector<net::SealClient::Result> results;
  ASSERT_TRUE(client.Flush(&results).ok());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].request_id, id_a);
  EXPECT_EQ(results[0].value, "value-a");
  EXPECT_EQ(results[1].request_id, id_b);
  EXPECT_EQ(results[1].value, "value-b");
}

TEST(SealClientReader, FrameDeliveredOneByteAtATime) {
  RawPeer peer([](int fd, int) {
    net::FrameHeader req;
    std::string payload;
    if (!ReadRequest(fd, &req, &payload)) return;
    std::string out;
    AppendGetResponse(&out, req, "trickled-value");
    for (char c : out) {
      if (::send(fd, &c, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    AwaitPeerClose(fd);
  });
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), 5000).ok());
  std::string value;
  ASSERT_TRUE(client.Get("k", &value).ok());
  EXPECT_EQ(value, "trickled-value");
}

TEST(SealClientReader, CorruptCrcInBufferedFrameIsCorruption) {
  RawPeer peer([](int fd, int) {
    net::FrameHeader a, b;
    std::string pa, pb;
    if (!ReadRequest(fd, &a, &pa) || !ReadRequest(fd, &b, &pb)) return;
    std::string out;
    AppendGetResponse(&out, a, "good");
    AppendGetResponse(&out, b, "flipped");
    out[out.size() - 1] ^= 0x20;  // second frame's payload, behind the first
    (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    AwaitPeerClose(fd);
  });
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(), 5000).ok());
  client.QueueGet("a");
  client.QueueGet("b");
  std::vector<net::SealClient::Result> results;
  EXPECT_TRUE(client.Flush(&results).IsCorruption());
}

// The first attempt times out holding half of a reply in the receive
// buffer. The retry reconnects and must read only the new socket's answer:
// leftover bytes spliced in front of it would decode as a corrupt frame.
TEST(SealClientReader, TimedOutReplyIsDiscardedOnReconnect) {
  RawPeer peer([](int fd, int index) {
    net::FrameHeader req;
    std::string payload;
    if (!ReadRequest(fd, &req, &payload)) return;
    std::string out;
    AppendGetResponse(&out, req, index == 0 ? "stale-late-reply" : "fresh");
    if (index == 0) out.resize(out.size() - 4);  // the rest never comes
    (void)::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    AwaitPeerClose(fd);
  });
  net::SealClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port(),
                             /*recv_timeout_millis=*/200)
                  .ok());
  net::RetryPolicy retry;
  retry.enabled = true;
  retry.max_attempts = 2;
  retry.base_backoff_millis = 1;
  retry.deadline_millis = 10000;
  client.set_retry_policy(retry);
  std::string value;
  ASSERT_TRUE(client.Get("k", &value).ok());
  EXPECT_EQ(value, "fresh");
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().reconnects, 1u);
}

}  // namespace sealdb
