// Embedded HTTP endpoint tests: every scrape goes over a real loopback
// socket — /metrics must match WritePrometheus byte-for-byte, /healthz must
// flip to 503 on a wedged runtime, /statusz serves the cached status page.

#include "obs/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rfid/workload.h"
#include "runtime/sharded_runtime.h"
#include "system/sase_system.h"

namespace sase {
namespace {

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

/// Blocking one-shot HTTP client: connects to 127.0.0.1:`port`, sends one
/// request line, reads to EOF (the endpoint answers `Connection: close`).
HttpResponse Get(int port, const std::string& path,
                 const std::string& method = "GET") {
  HttpResponse response;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return response;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return response;
  }
  std::string request = method + " " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 <status> ...\r\n<headers>\r\n\r\n<body>"
  size_t sp = raw.find(' ');
  if (sp != std::string::npos) response.status = std::atoi(raw.c_str() + sp + 1);
  size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    response.headers = raw.substr(0, split);
    response.body = raw.substr(split + 4);
  }
  return response;
}

std::vector<EventPtr> Trace(const Catalog& catalog, int64_t count) {
  SyntheticConfig config;
  config.seed = 23;
  config.event_count = count;
  config.tag_count = 20;
  config.area_count = 4;
  SyntheticStreamGenerator generator(&catalog, config);
  return generator.Generate();
}

// --- bare endpoint ----------------------------------------------------------

TEST(HttpEndpointTest, ServesHandlersAnd404AndMethodCheck) {
  obs::HttpEndpoint endpoint;
  endpoint.Handle("/ping", [] {
    return obs::HttpEndpoint::Response{200, "text/plain; charset=utf-8",
                                       "pong\n"};
  });
  ASSERT_TRUE(endpoint.Start(0).ok());
  ASSERT_GT(endpoint.port(), 0);

  HttpResponse ok = Get(endpoint.port(), "/ping");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "pong\n");
  EXPECT_NE(ok.headers.find("Content-Length: 5"), std::string::npos);

  // Query strings are stripped before handler lookup.
  EXPECT_EQ(Get(endpoint.port(), "/ping?verbose=1").status, 200);

  HttpResponse missing = Get(endpoint.port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/metrics"), std::string::npos);

  EXPECT_EQ(Get(endpoint.port(), "/ping", "POST").status, 405);

  // HEAD answers the status with an empty body.
  HttpResponse head = Get(endpoint.port(), "/ping", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());

  EXPECT_EQ(endpoint.requests_served(), 5u);
  endpoint.Stop();
  EXPECT_FALSE(endpoint.running());
  endpoint.Stop();  // idempotent
}

TEST(HttpEndpointTest, ClientDisconnectMidResponseDoesNotKillServer) {
  obs::HttpEndpoint endpoint;
  // Large enough that the response cannot fit in the kernel's socket
  // buffers: the serve thread is still send()ing when the peer vanishes.
  std::string big(8 * 1024 * 1024, 'x');
  endpoint.Handle("/big", [&big] {
    return obs::HttpEndpoint::Response{200, "text/plain; charset=utf-8", big};
  });
  ASSERT_TRUE(endpoint.Start(0).ok());

  // Request the large body and abort the connection without reading it:
  // the server's next write lands on a dead socket. With a raw write(2)
  // that raised SIGPIPE on the serve thread and killed the process; with
  // send(MSG_NOSIGNAL) it surfaces as EPIPE/ECONNRESET and the response is
  // abandoned.
  for (int round = 0; round < 3; ++round) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int tiny = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(endpoint.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::string request = "GET /big HTTP/1.1\r\nHost: l\r\n\r\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    // Read a sliver so the response is in flight, then close with a
    // zero-linger RST instead of a graceful FIN — the abort makes the
    // server's in-progress send() error out rather than buffer away.
    char buf[1024];
    (void)!::read(fd, buf, sizeof(buf));
    struct linger abort_on_close = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                 sizeof(abort_on_close));
    ::close(fd);
  }

  // The endpoint survived all three aborted scrapes: a patient client still
  // gets the full body.
  HttpResponse after = Get(endpoint.port(), "/big");
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body.size(), big.size());
  endpoint.Stop();
}

TEST(HttpEndpointTest, DoubleStartIsRefused) {
  obs::HttpEndpoint endpoint;
  ASSERT_TRUE(endpoint.Start(0).ok());
  EXPECT_FALSE(endpoint.Start(0).ok());
  endpoint.Stop();
}

// --- system wiring ----------------------------------------------------------

TEST(HttpEndpointTest, MetricsScrapeMatchesWritePrometheusByteForByte) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 2;
  config.obs.http_port = -1;  // ephemeral
  SaseSystem system(StoreLayout::RetailDemo(), config);
  ASSERT_GT(system.http_port(), 0);

  auto id = system.RegisterMonitoringQuery(
      "pairs",
      "EVENT SEQ(SHELF_READING x, EXIT_READING z) "
      "WHERE x.TagId = z.TagId WITHIN 50 RETURN x.TagId",
      nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  Catalog catalog = Catalog::RetailDemo();
  for (const EventPtr& event : Trace(catalog, 400)) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();

  std::string path = ::testing::TempDir() + "/http_endpoint_scrape.prom";
  ASSERT_TRUE(system.metrics()->WritePrometheus(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream file;
  file << in.rdbuf();

  HttpResponse scraped = Get(system.http_port(), "/metrics");
  EXPECT_EQ(scraped.status, 200);
  EXPECT_NE(scraped.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_EQ(scraped.body, file.str());
  EXPECT_FALSE(scraped.body.empty());
  EXPECT_NE(scraped.body.find("sase_query_events_seen_total"),
            std::string::npos);
}

TEST(HttpEndpointTest, HealthzAndStatuszOnLiveSystem) {
  SystemConfig config;
  config.noise = NoiseModel::Perfect();
  config.shard_count = 2;
  config.obs.http_port = -1;
  SaseSystem system(StoreLayout::RetailDemo(), config);
  ASSERT_GT(system.http_port(), 0);

  HttpResponse health = Get(system.http_port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Before the first scrape /statusz explains how to populate itself.
  HttpResponse empty = Get(system.http_port(), "/statusz");
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("no status captured yet"), std::string::npos);

  auto id = system.RegisterMonitoringQuery(
      "shelves", "EVENT SHELF_READING s WHERE s.AreaId = 2 RETURN s.TagId",
      nullptr);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Catalog catalog = Catalog::RetailDemo();
  for (const EventPtr& event : Trace(catalog, 200)) {
    system.event_bus().OnEvent(event);
  }
  system.Flush();
  system.ScrapeMetrics();

  HttpResponse status = Get(system.http_port(), "/statusz");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("queries: 1 registered"), std::string::npos);
  EXPECT_NE(status.body.find("name=shelves"), std::string::npos);
  EXPECT_NE(status.body.find("per-query operator latency"), std::string::npos);
  // The fleet view rides along (shard/key skew lives there).
  EXPECT_NE(status.body.find("shard-0"), std::string::npos);
}

TEST(HttpEndpointTest, DisabledWithoutPortOrMetrics) {
  {
    SystemConfig config;
    config.noise = NoiseModel::Perfect();
    SaseSystem system(StoreLayout::RetailDemo(), config);  // http_port = 0
    EXPECT_EQ(system.http_port(), 0);
  }
  {
    SystemConfig config;
    config.noise = NoiseModel::Perfect();
    config.obs.metrics_enabled = false;
    config.obs.http_port = -1;  // ignored: the endpoint needs a registry
    SaseSystem system(StoreLayout::RetailDemo(), config);
    EXPECT_EQ(system.http_port(), 0);
  }
}

// --- wedge detection --------------------------------------------------------

TEST(HttpEndpointTest, HealthzFlipsTo503OnWedgedRuntime) {
  Catalog catalog = Catalog::RetailDemo();
  std::atomic<bool> release{false};
  RuntimeConfig config;
  config.shard_count = 2;
  config.merge_interval = 1;  // one event per batch: later batches queue up
  ShardedRuntime runtime(&catalog, config, [&release](QueryEngine& engine) {
    (void)engine.functions()->Register(
        "_stall", 1, [&release](const std::vector<Value>&) -> Result<Value> {
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Value(static_cast<int64_t>(1));
        });
  });
  auto id = runtime.Register(
      "EVENT SHELF_READING s WHERE _stall(s.AreaId) = 1 RETURN s.TagId",
      [](const OutputRecord&) {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  obs::HttpEndpoint endpoint;
  endpoint.Handle("/healthz", [&runtime] {
    std::string why;
    if (!runtime.Healthy(/*stall_ns=*/2'000'000, &why)) {
      return obs::HttpEndpoint::Response{503, "text/plain; charset=utf-8",
                                         "unhealthy: " + why + "\n"};
    }
    return obs::HttpEndpoint::Response{200, "text/plain; charset=utf-8",
                                       "ok\n"};
  });
  ASSERT_TRUE(endpoint.Start(0).ok());

  // An idle runtime is healthy.
  EXPECT_EQ(Get(endpoint.port(), "/healthz").status, 200);

  // Feed a handful of events; the hosting worker blocks inside _stall on
  // the first one and the rest sit in its queue.
  std::vector<EventPtr> trace = Trace(catalog, 50);
  for (size_t i = 0; i < 8; ++i) runtime.OnEvent(trace[i]);

  // The first probe of a stuck worker only arms its stall clock; poll until
  // the wedge is declared (bounded — the stall threshold is 2ms).
  HttpResponse wedged;
  for (int attempt = 0; attempt < 200; ++attempt) {
    wedged = Get(endpoint.port(), "/healthz");
    if (wedged.status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(wedged.status, 503);
  EXPECT_NE(wedged.body.find("wedged"), std::string::npos);

  // Unblock before teardown: the runtime destructor joins its workers.
  release.store(true, std::memory_order_release);
  runtime.WaitIdle();

  // Drained again: healthy (possibly after the probe re-arms).
  HttpResponse healed;
  for (int attempt = 0; attempt < 200; ++attempt) {
    healed = Get(endpoint.port(), "/healthz");
    if (healed.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(healed.status, 200);
  endpoint.Stop();
}

}  // namespace
}  // namespace sase
