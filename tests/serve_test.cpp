// Serving layer tests (DESIGN §13): the query engine's answers must match
// the offline analysis point queries byte for byte, the HTTP front end must
// honour its 400/404/405 contract, and the read hot path must survive eight
// concurrent clients (the verify --tsan lane runs this binary under TSan).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/point_query.h"
#include "src/core/world.h"
#include "src/load/gauges.h"
#include "src/netbase/strfmt.h"
#include "src/obs/metrics.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"

namespace {

using namespace ac;

/// One engine over the small world, shared by every test in this binary
/// (startup freezes 13 letters' select caches; ~tens of ms).
const serve::query_engine& engine() {
    static const serve::query_engine instance = [] {
        auto config = core::world_config::small();
        config.threads = 1;
        return serve::query_engine{std::make_unique<core::world>(std::move(config))};
    }();
    return instance;
}

/// Minimal blocking loopback client: one connection, sequential requests.
class test_client {
public:
    explicit test_client(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    ~test_client() {
        if (fd_ >= 0) ::close(fd_);
    }
    test_client(const test_client&) = delete;
    test_client& operator=(const test_client&) = delete;

    [[nodiscard]] bool connected() const { return connected_; }

    /// Sends `raw` verbatim and returns everything up to the end of the
    /// response body (headers + body), or "" on socket failure.
    std::string round_trip(const std::string& raw) {
        if (!send_all(raw)) return {};
        return read_response();
    }

    std::string get(const std::string& target) {
        return round_trip("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
    }

    bool send_all(const std::string& raw) {
        return ::send(fd_, raw.data(), raw.size(), 0) == static_cast<ssize_t>(raw.size());
    }

    /// True when at least one byte (or EOF) is readable within `ms`.
    [[nodiscard]] bool readable_within(int ms) const {
        pollfd pfd{fd_, POLLIN, 0};
        return ::poll(&pfd, 1, ms) > 0;
    }

    /// Reads one response (headers + body), or "" on socket failure.
    std::string read_response() {
        std::string response;
        std::size_t header_end = std::string::npos;
        while (header_end == std::string::npos) {
            if (!fill(response)) return {};
            header_end = response.find("\r\n\r\n");
        }
        const std::size_t body_start = header_end + 4;
        const std::size_t length = content_length(response);
        while (response.size() < body_start + length) {
            if (!fill(response)) return {};
        }
        return response.substr(0, body_start + length);
    }

    static int status_of(const std::string& response) {
        // "HTTP/1.1 NNN ..."
        if (response.size() < 12) return -1;
        return std::atoi(response.c_str() + 9);
    }

    static std::string body_of(const std::string& response) {
        const auto pos = response.find("\r\n\r\n");
        return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
    }

private:
    bool fill(std::string& response) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        response.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    static std::size_t content_length(const std::string& response) {
        const auto pos = response.find("Content-Length: ");
        if (pos == std::string::npos) return 0;
        return static_cast<std::size_t>(
            std::strtoull(response.c_str() + pos + 16, nullptr, 10));
    }

    int fd_ = -1;
    bool connected_ = false;
};

/// Server bound to an ephemeral port for the duration of a test.
class running_server {
public:
    explicit running_server(serve::http_options options = {.port = 0})
        : server_(engine(), options) {
        server_.start();
    }
    ~running_server() { server_.stop(); }
    [[nodiscard]] std::uint16_t port() const { return server_.port(); }

private:
    serve::http_server server_;
};

// ---------------------------------------------------------------------------
// Differential: served answers == offline analysis point queries.
// ---------------------------------------------------------------------------

TEST(ServeDifferential, InflationJsonMatchesOfflinePointQuery) {
    const auto& idx = engine().index();
    ASSERT_FALSE(idx.asns().empty());
    std::string body;
    for (const topo::asn_t asn : idx.asns()) {
        engine().inflation_json(std::span<const topo::asn_t>{&asn, 1}, body);
        const auto point = analysis::inflation_for_as(idx, asn);
        ASSERT_TRUE(point.has_value()) << "asn " << asn;
        // The served gi_ms must be the offline value rendered through the
        // shared fixed-precision formatter — byte equality, not EXPECT_NEAR.
        const std::string expected = "\"gi_ms\":" + strfmt::fixed(point->gi_ms, 6);
        EXPECT_NE(body.find(expected), std::string::npos)
            << "asn " << asn << ": " << body << " missing " << expected;
    }
    // An ASN outside the index answers found:false, not an error.
    const topo::asn_t unknown = 4'000'000'000u;
    engine().inflation_json(std::span<const topo::asn_t>{&unknown, 1}, body);
    EXPECT_NE(body.find("\"found\":false"), std::string::npos);
}

TEST(ServeDifferential, AmortizedJsonMatchesOfflinePointQuery) {
    const auto& idx = engine().index();
    ASSERT_FALSE(idx.slash24_keys().empty());
    std::string body;
    for (const std::uint32_t key : idx.slash24_keys()) {
        engine().amortized_json(std::span<const std::uint32_t>{&key, 1}, body);
        const auto point =
            analysis::amortized_for_slash24(idx, net::slash24{net::ipv4_addr{key << 8}});
        ASSERT_TRUE(point.has_value());
        const std::string expected =
            "\"queries_per_day\":" + strfmt::fixed(point->queries_per_day, 6);
        EXPECT_NE(body.find(expected), std::string::npos) << body;
    }
}

TEST(ServeDifferential, GridRowsMatchIndexEntries) {
    std::string csv;
    engine().grid_csv(1, csv);
    const auto& idx = engine().index();
    // One header plus one row per indexed AS and /24.
    const auto rows = static_cast<std::size_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, 1 + idx.asns().size() + idx.slash24_keys().size());
    // Spot-check the first inflation row against the offline point query.
    const auto point = analysis::inflation_for_as(idx, idx.asns().front());
    ASSERT_TRUE(point.has_value());
    const std::string expected_row = "inflation," + std::to_string(idx.asns().front()) +
                                     "," + strfmt::fixed(point->gi_ms, 6);
    EXPECT_NE(csv.find(expected_row), std::string::npos);
}

TEST(ServeDifferential, RouteAnswersComeFromFrozenTable) {
    // Every warmed source must answer wait-free with the RIB's own selection.
    ASSERT_GT(engine().frozen_entries(), 0u);
    const auto& catchments = engine().catchments();
    ASSERT_FALSE(catchments.empty());
    const char letter = catchments.begin()->first;
    const auto& rib = engine().world().roots().deployment_of(letter).rib();
    ASSERT_TRUE(rib.select_cache_stats().frozen);

    const auto& recs = engine().world().users().recursives();
    ASSERT_FALSE(recs.empty());
    std::string body;
    ASSERT_TRUE(engine().route_json(letter, recs.front().asn, recs.front().region, body));
    EXPECT_NE(body.find("\"frozen\":true"), std::string::npos) << body;
    const auto expected = rib.select(recs.front().asn, recs.front().region);
    ASSERT_TRUE(expected.has_value());
    EXPECT_NE(body.find("\"site\":" + std::to_string(expected->site)), std::string::npos)
        << body;

    // Unknown letter is a structural error (HTTP 400), not a JSON answer.
    EXPECT_FALSE(engine().route_json('z', recs.front().asn, recs.front().region, body));
}

// ---------------------------------------------------------------------------
// HTTP contract.
// ---------------------------------------------------------------------------

TEST(ServeHttp, ServedBytesEqualEngineWriters) {
    running_server server;
    test_client client{server.port()};
    ASSERT_TRUE(client.connected());

    // Batched inflation over the first three indexed ASes: the HTTP body is
    // the engine writer's output, byte for byte.
    const auto asns = engine().index().asns();
    ASSERT_GE(asns.size(), 3u);
    std::string expected;
    engine().inflation_json(asns.subspan(0, 3), expected);
    std::string target = "/inflation?asn=" + std::to_string(asns[0]) + "," +
                         std::to_string(asns[1]) + "," + std::to_string(asns[2]);
    auto response = client.get(target);
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), expected);

    // /grid == grid_csv.
    engine().grid_csv(1, expected);
    response = client.get("/grid");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), expected);

    // /healthz and /metricsz answer.
    EXPECT_EQ(test_client::body_of(client.get("/healthz")), "ok\n");
    response = client.get("/metricsz");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_NE(test_client::body_of(response).find("ac-metrics-v1"), std::string::npos);
}

TEST(ServeHttp, MalformedRequestsGet400) {
    running_server server;
    const std::vector<std::string> bad_targets{
        "/inflation?asn=not-a-number",   // non-numeric key
        "/inflation?asn=",               // empty value
        "/inflation?asn=1,,2",           // empty list element
        "/inflation?asn=1,2,",           // trailing comma
        "/inflation?frobnicate=1",       // unknown parameter
        "/inflation",                    // missing required parameter
        "/amortized?slash24=999.0.0.0/24",  // unparsable address
        "/catchment?letter=AB",          // letter must be one character
        "/route?letter=A&asn=1",         // missing region
        "/route?letter=%&asn=1&region=0",  // junk letter
        "/grid?stride=0",                // stride must be positive
        "/grid?stride=x",
    };
    for (const auto& target : bad_targets) {
        test_client client{server.port()};
        ASSERT_TRUE(client.connected());
        const auto response = client.get(target);
        EXPECT_EQ(test_client::status_of(response), 400) << target << "\n" << response;
    }

    test_client client{server.port()};
    ASSERT_TRUE(client.connected());
    // A parseable route query for an AS the RIB never saw is answered
    // (found:false), not thrown across the connection thread.
    const char letter = engine().catchments().begin()->first;
    const auto response = client.get("/route?letter=" + std::string(1, letter) +
                                     "&asn=4000000000&region=0");
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_NE(test_client::body_of(response).find("\"found\":false"), std::string::npos);
    EXPECT_EQ(test_client::status_of(client.get("/nope")), 404);
    EXPECT_EQ(test_client::status_of(
                  client.round_trip("POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")),
              405);
    EXPECT_EQ(test_client::status_of(
                  client.round_trip("GET /healthz HTTP/0.9\r\nHost: t\r\n\r\n")),
              400);
}

TEST(ServeHttp, KeepAliveServesManyRequestsPerConnection) {
    running_server server;
    test_client client{server.port()};
    ASSERT_TRUE(client.connected());
    std::string expected;
    const auto asns = engine().index().asns();
    engine().inflation_json(asns.subspan(0, 1), expected);
    const std::string target = "/inflation?asn=" + std::to_string(asns[0]);
    for (int i = 0; i < 50; ++i) {
        const auto response = client.get(target);
        ASSERT_EQ(test_client::status_of(response), 200) << "request " << i;
        ASSERT_EQ(test_client::body_of(response), expected) << "request " << i;
    }
}

TEST(ServeHttp, ConnectionCapQueuesExcessClients) {
    running_server server{{.port = 0, .max_connections = 1}};
    // A holds the only slot and never sends a byte. It connects first, and
    // the listen queue is FIFO, so the acceptor takes A before B; B's
    // request then waits for the slot.
    auto idle = std::make_unique<test_client>(server.port());
    ASSERT_TRUE(idle->connected());
    test_client waiting{server.port()};
    ASSERT_TRUE(waiting.connected());
    ASSERT_TRUE(waiting.send_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
    EXPECT_FALSE(waiting.readable_within(300)) << "served past max_connections = 1";

    // A closes: its slot frees and B is served.
    idle.reset();
    ASSERT_TRUE(waiting.readable_within(5000)) << "queued client never served";
    const auto response = waiting.read_response();
    EXPECT_EQ(test_client::status_of(response), 200);
    EXPECT_EQ(test_client::body_of(response), "ok\n");
}

// ---------------------------------------------------------------------------
// Concurrency: eight clients hammer the wait-free read path (TSan lane).
// ---------------------------------------------------------------------------

TEST(ServeStress, EightConcurrentClientsGetConsistentAnswers) {
    running_server server;
    const auto asns = engine().index().asns();
    const auto& recs = engine().world().users().recursives();
    const char letter = engine().catchments().begin()->first;
    ASSERT_GE(asns.size(), 8u);
    ASSERT_FALSE(recs.empty());

    std::vector<std::thread> clients;
    std::vector<int> failures(8, 0);
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&, t] {
            test_client client{server.port()};
            if (!client.connected()) {
                failures[t] = 1;
                return;
            }
            // Per-thread expected bytes, computed once up front so the hot
            // loop only compares.
            const topo::asn_t asn = asns[static_cast<std::size_t>(t)];
            const auto& rec = recs[static_cast<std::size_t>(t) % recs.size()];
            std::string expected_inflation;
            engine().inflation_json(std::span<const topo::asn_t>{&asn, 1},
                                    expected_inflation);
            std::string expected_route;
            if (!engine().route_json(letter, rec.asn, rec.region, expected_route)) {
                failures[t] = 2;
                return;
            }
            const std::string inflation_target = "/inflation?asn=" + std::to_string(asn);
            const std::string route_target = "/route?letter=" + std::string(1, letter) +
                                             "&asn=" + std::to_string(rec.asn) +
                                             "&region=" + std::to_string(rec.region);
            for (int round = 0; round < 200; ++round) {
                auto response = client.get(inflation_target);
                if (test_client::status_of(response) != 200 ||
                    test_client::body_of(response) != expected_inflation) {
                    failures[t] = 3;
                    return;
                }
                response = client.get(route_target);
                if (test_client::status_of(response) != 200 ||
                    test_client::body_of(response) != expected_route) {
                    failures[t] = 4;
                    return;
                }
            }
        });
    }
    for (auto& c : clients) c.join();
    for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "client " << t;
}

TEST(ServeGauges, EngineStartupPublishesLoadGauges) {
    // Building the engine publishes the shared load gauge names
    // (src/load/gauges.h): per-letter catchment users always, per-front-end
    // connection totals whenever the world carries server-side telemetry.
    // /metricsz therefore reports the same load profile an `acctx load` run
    // would write.
    const auto& e = engine();
    auto& reg = obs::registry::global();
    for (const auto& [letter, catchment] : e.catchments()) {
        const std::string name = load::letter_users_gauge_name({&letter, 1});
        EXPECT_EQ(reg.get_gauge(name).value(), catchment.total_users) << name;
    }
    if (e.world().server_log_table().rows() > 0) {
        std::int64_t samples = 0;
        double published = 0.0;
        const auto& logs = e.world().server_log_table();
        for (std::size_t i = 0; i < logs.rows(); ++i) {
            samples += logs.sample_count[i];
        }
        for (int f = 0; f < e.world().cdn_net().ring_size(
                                e.world().cdn_net().ring_count() - 1);
             ++f) {
            published += reg.get_gauge(load::front_end_conn_gauge_name(f)).value();
        }
        EXPECT_EQ(published, static_cast<double>(samples));
    }
}

} // namespace
