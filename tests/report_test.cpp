// Figure CSV exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/world.h"
#include "src/obs/trace.h"
#include "tests/temp_dir.h"

namespace {

using namespace ac;

class ReportFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }

    static std::filesystem::path temp_dir() {
        // Unique per test and per process: the suite runs in parallel
        // processes, and so may two runs of it on one host.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        const auto dir = test_support::process_temp_dir() /
                         (std::string{"ac_report_"} + info->name());
        std::filesystem::remove_all(dir);
        return dir;
    }

    static std::vector<std::string> read_lines(const std::string& path) {
        std::ifstream in{path};
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
        return lines;
    }

    static std::string read_bytes(const std::string& path) {
        std::ifstream in{path, std::ios::binary};
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    static std::uint64_t fnv1a(const std::string& bytes) {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (const unsigned char c : bytes) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
        return hash;
    }

    // FNV-1a checksums captured from the row-oriented pipeline before the
    // columnar refactor; every later refactor (shared table kernels, the
    // routing fast path) must keep the figure bytes pinned to these. A
    // deliberate analysis change must update them.
    static const std::map<std::string, std::uint64_t>& golden_checksums() {
        static const std::map<std::string, std::uint64_t> golden{
            {"fig02a_root_geographic_inflation.csv", 0xf89b2711a8752802ull},
            {"fig02b_root_latency_inflation.csv", 0x6a9c3423ad802dbdull},
            {"fig03_queries_per_user.csv", 0x3ece8f7160e524bcull},
            {"fig05a_cdn_geographic_inflation.csv", 0x5d7265254d591962ull},
            {"fig05b_cdn_latency_inflation.csv", 0xf9188357f8e7a56full},
            {"fig06a_as_path_lengths.csv", 0xe720d1e81e60ee21ull},
            {"fig07a_size_latency_efficiency.csv", 0xdc045b25c74e6a2bull},
            {"fig07b_coverage.csv", 0x8131c0bca505e0dcull},
        };
        return golden;
    }

    static void expect_golden_files(const std::vector<std::string>& files,
                                    const std::string& context) {
        ASSERT_EQ(files.size(), golden_checksums().size()) << context;
        for (const auto& f : files) {
            const auto name = std::filesystem::path{f}.filename().string();
            const auto it = golden_checksums().find(name);
            ASSERT_NE(it, golden_checksums().end())
                << "unexpected figure file " << name << " (" << context << ")";
            EXPECT_EQ(fnv1a(read_bytes(f)), it->second) << name << " (" << context << ")";
        }
    }
};

TEST_F(ReportFixture, WritesAllFigureFiles) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    EXPECT_EQ(files.size(), 8u);
    for (const auto& f : files) {
        EXPECT_TRUE(std::filesystem::exists(f)) << f;
        EXPECT_GT(std::filesystem::file_size(f), 0u) << f;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, CsvHasHeaderAndParsableRows) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    for (const auto& f : files) {
        const auto lines = read_lines(f);
        ASSERT_GT(lines.size(), 1u) << f;
        // Header: no digits in first char; all rows have the same number of
        // commas as the header.
        const auto commas = static_cast<long>(
            std::count(lines[0].begin(), lines[0].end(), ','));
        EXPECT_GE(commas, 2) << f;
        for (std::size_t i = 1; i < lines.size(); ++i) {
            EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), commas)
                << f << " line " << i;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, CdfColumnsAreMonotone) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    // fig03: per series, the cdf column must be non-decreasing.
    const auto fig03 = std::find_if(files.begin(), files.end(), [](const std::string& f) {
        return f.find("fig03") != std::string::npos;
    });
    ASSERT_NE(fig03, files.end());
    std::map<std::string, double> last_cdf;
    const auto lines = read_lines(*fig03);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        std::istringstream row{lines[i]};
        std::string series;
        std::string value;
        std::string cdf;
        std::getline(row, series, ',');
        std::getline(row, value, ',');
        std::getline(row, cdf, ',');
        const double q = std::stod(cdf);
        auto it = last_cdf.find(series);
        if (it != last_cdf.end()) {
            EXPECT_GE(q, it->second - 1e-12);
        }
        last_cdf[series] = q;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, IdenticalWorldsRenderIdenticalReports) {
    // No hash iteration order may leak into the figures: a second world built
    // from the same config must render byte-identical CSVs.
    const core::world other{core::world_config::small()};
    const auto dir_a = temp_dir() += "_a";
    const auto dir_b = temp_dir() += "_b";
    const auto files_a = core::write_figure_csvs(w(), dir_a.string());
    const auto files_b = core::write_figure_csvs(other, dir_b.string());
    ASSERT_EQ(files_a.size(), files_b.size());
    for (std::size_t i = 0; i < files_a.size(); ++i) {
        EXPECT_EQ(read_bytes(files_a[i]), read_bytes(files_b[i]))
            << files_a[i] << " vs " << files_b[i];
    }
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
}

TEST_F(ReportFixture, GoldenChecksumsPinFigureBytes) {
    const auto dir = temp_dir();
    const auto files = core::write_figure_csvs(w(), dir.string());
    expect_golden_files(files, "default config");
    std::filesystem::remove_all(dir);
}

TEST_F(ReportFixture, ThreadCountNeverChangesFigureBytes) {
    // The determinism contract: memoized route selection, parallel RIB
    // construction, and pooled stages must leave every figure byte-identical
    // at any thread count — the goldens above, unchanged.
    for (const int threads : {1, 2, 8}) {
        auto config = core::world_config::small();
        config.threads = threads;
        const core::world threaded{std::move(config)};
        const auto dir = temp_dir() += "_t" + std::to_string(threads);
        const auto files = core::write_figure_csvs(threaded, dir.string());
        expect_golden_files(files, "threads=" + std::to_string(threads));
        std::filesystem::remove_all(dir);
    }
}

TEST_F(ReportFixture, ObservabilityNeverChangesFigureBytes) {
    // Spans and metrics observe, they do not participate: a world built with
    // tracing enabled and every instrumented subsystem recording must still
    // produce the goldens above, byte for byte. (The CLI equivalent —
    // `acctx report --trace --metrics-json` vs a flag-less run — is checked
    // by ci/verify.sh's round trip.)
    obs::enable_tracing();
    auto config = core::world_config::small();
    config.threads = 4;
    const core::world traced{std::move(config)};
    const auto dir = temp_dir() += "_traced";
    const auto files = core::write_figure_csvs(traced, dir.string());
    obs::disable_tracing();

    expect_golden_files(files, "tracing enabled");
    EXPECT_GT(obs::trace_event_count(), 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
