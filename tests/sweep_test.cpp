// Sweep harness tests: the bounded capture writer's ring/spill round trip,
// streamed-vs-materialized DITL byte-identity, grid spec parsing and cell
// expansion, and the driver's core contracts — thread-count byte-identity
// of a whole grid on disk, manifest resume without recompute, and
// config-hash mismatches forcing re-runs (DESIGN §15).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/capture/bounded_writer.h"
#include "src/core/world.h"
#include "src/sweep/driver.h"
#include "src/sweep/spec.h"
#include "tests/temp_dir.h"

namespace {

using namespace ac;
namespace fs = std::filesystem;

// capture_record carries internal padding, so raw memcmp would compare
// indeterminate bytes; equality is field-wise everywhere in this file.
bool same_record(const capture::capture_record& a, const capture::capture_record& b) {
    return a.source_ip == b.source_ip && a.site == b.site && a.category == b.category &&
           a.queries_per_day == b.queries_per_day;
}

capture::capture_record make_record(std::uint32_t i) {
    capture::capture_record r;
    r.source_ip = net::ipv4_addr{0x0a000000u + i};
    r.site = static_cast<route::site_id>(i % 7);
    r.category = capture::query_category::valid_tld;
    r.queries_per_day = 1.0 + i;
    return r;
}

// ---------------------------------------------------------------------------
// bounded_record_writer
// ---------------------------------------------------------------------------

TEST(BoundedWriter, SpillRoundTripPreservesOrder) {
    constexpr std::size_t bound = 1000;
    constexpr std::uint32_t count = 10500;  // 10 full spills + a tail
    capture::bounded_record_writer writer{bound};
    for (std::uint32_t i = 0; i < count; ++i) writer.append(make_record(i));

    EXPECT_EQ(writer.size(), count);
    EXPECT_GT(writer.spilled_records(), 0u);
    EXPECT_EQ(writer.peak_buffered_bytes(), bound * sizeof(capture::capture_record));

    const auto records = std::move(writer).take();
    ASSERT_EQ(records.size(), count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const auto want = make_record(i);
        EXPECT_EQ(records[i].source_ip, want.source_ip) << "record " << i;
        EXPECT_EQ(records[i].site, want.site) << "record " << i;
        EXPECT_EQ(records[i].queries_per_day, want.queries_per_day) << "record " << i;
    }
}

TEST(BoundedWriter, NoSpillBelowBoundOrUnbounded) {
    capture::bounded_record_writer small_load{100};
    for (std::uint32_t i = 0; i < 99; ++i) small_load.append(make_record(i));
    EXPECT_EQ(small_load.spilled_records(), 0u);
    EXPECT_EQ(std::move(small_load).take().size(), 99u);

    capture::bounded_record_writer unbounded{0};
    for (std::uint32_t i = 0; i < 5000; ++i) unbounded.append(make_record(i));
    EXPECT_EQ(unbounded.spilled_records(), 0u);
    EXPECT_EQ(unbounded.peak_buffered_bytes(), 5000 * sizeof(capture::capture_record));
    EXPECT_EQ(std::move(unbounded).take().size(), 5000u);
}

TEST(BoundedWriter, SpanAppendMatchesSingleAppends) {
    std::vector<capture::capture_record> batch;
    for (std::uint32_t i = 0; i < 2500; ++i) batch.push_back(make_record(i));

    capture::bounded_record_writer by_span{700};
    by_span.append(batch);
    capture::bounded_record_writer by_one{700};
    for (const auto& r : batch) by_one.append(r);

    const auto a = std::move(by_span).take();
    const auto b = std::move(by_one).take();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(same_record(a[i], b[i])) << "record " << i;
    }
}

// Streaming the DITL generator through the bounded writer must not change a
// single output byte relative to the materialized path: the spill bound is
// a memory knob, never a semantic one.
TEST(BoundedWriter, StreamedDitlMatchesMaterialized) {
    auto materialized_config = core::world_config::small();
    materialized_config.threads = 1;
    ASSERT_EQ(materialized_config.ditl.max_buffered_records, 0u);
    const core::world materialized{materialized_config};

    auto streamed_config = core::world_config::small();
    streamed_config.threads = 1;
    streamed_config.ditl.max_buffered_records = 512;  // force many spills
    const core::world streamed{streamed_config};

    const auto& a = materialized.ditl().letters;
    const auto& b = streamed.ditl().letters;
    ASSERT_EQ(a.size(), b.size());
    std::size_t total = 0;
    for (std::size_t li = 0; li < a.size(); ++li) {
        ASSERT_EQ(a[li].records.size(), b[li].records.size()) << "letter " << li;
        for (std::size_t r = 0; r < a[li].records.size(); ++r) {
            ASSERT_TRUE(same_record(a[li].records[r], b[li].records[r]))
                << "letter " << li << " record " << r;
        }
        total += a[li].records.size();
    }
    EXPECT_EQ(materialized.ditl().total_queries_per_day(),
              streamed.ditl().total_queries_per_day());
    EXPECT_EQ(materialized.ditl().stream_peak_buffered_bytes, 0u);
    EXPECT_EQ(streamed.ditl().stream_peak_buffered_bytes,
              512 * sizeof(capture::capture_record));
    EXPECT_GT(streamed.ditl().stream_spilled_records, total / 2);
}

// ---------------------------------------------------------------------------
// grid specs
// ---------------------------------------------------------------------------

sweep::grid_spec parse(const std::string& text) {
    std::istringstream in{text};
    return sweep::parse_grid_spec(in);
}

TEST(GridSpec, ParsesDirectivesAndComments) {
    const auto spec = parse(
        "# a comment\n"
        "tier small\n"
        "seed 7\n"
        "year 2020\n"
        "\n"
        "dim peering 0.3 0.72   # trailing comment\n"
        "dim rings 3 5\n"
        "dim cache real ideal\n");
    EXPECT_EQ(spec.tier, core::scale_tier::small);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.year, core::ditl_year::y2020);
    ASSERT_EQ(spec.dims.size(), 3u);
    EXPECT_EQ(spec.cell_count(), 8u);
}

TEST(GridSpec, RejectsBadInput) {
    EXPECT_THROW(parse("tier huge\n"), sweep::spec_error);
    EXPECT_THROW(parse("year 2019\n"), sweep::spec_error);
    EXPECT_THROW(parse("seed banana\n"), sweep::spec_error);
    EXPECT_THROW(parse("dim peering 1.5\n"), sweep::spec_error);   // fraction > 1
    EXPECT_THROW(parse("dim rings 0\n"), sweep::spec_error);       // below 1
    EXPECT_THROW(parse("dim rings 99\n"), sweep::spec_error);      // more than exist
    EXPECT_THROW(parse("dim cache magic\n"), sweep::spec_error);   // unknown token
    EXPECT_THROW(parse("dim flavor a b\n"), sweep::spec_error);    // unknown dim
    EXPECT_THROW(parse("dim rings 3\ndim rings 5\n"), sweep::spec_error);  // duplicate
    EXPECT_THROW(parse("tier small extra\n"), sweep::spec_error);  // trailing token
    EXPECT_THROW(parse("wat 1\n"), sweep::spec_error);             // unknown directive
    // The message names the offending line.
    try {
        parse("tier small\ndim rings 0\n");
        FAIL() << "expected spec_error";
    } catch (const sweep::spec_error& err) {
        EXPECT_NE(std::string{err.what()}.find("line 2"), std::string::npos) << err.what();
    }
}

TEST(GridSpec, ExpandsRowMajorWithLastDimFastest) {
    const auto cells = sweep::expand_cells(parse(
        "tier small\n"
        "dim peering 0.3 0.72\n"
        "dim rings 3 5\n"));
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].name, "peering-0.3_rings-3");
    EXPECT_EQ(cells[1].name, "peering-0.3_rings-5");
    EXPECT_EQ(cells[2].name, "peering-0.72_rings-3");
    EXPECT_EQ(cells[3].name, "peering-0.72_rings-5");
    for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);

    EXPECT_EQ(cells[0].config.cdn.eyeball_peering_fraction, 0.3);
    EXPECT_EQ(cells[3].config.cdn.eyeball_peering_fraction, 0.72);
    EXPECT_EQ(cells[0].config.cdn.ring_sizes.size(), 3u);
    EXPECT_EQ(cells[1].config.cdn.ring_sizes.size(), 5u);

    // Hashes separate every cell from every other cell.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
            EXPECT_NE(cells[i].config_hash, cells[j].config_hash) << i << " vs " << j;
        }
    }

    const auto single = sweep::expand_cells(parse("tier small\n"));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].name, "base");
}

TEST(GridSpec, HashIgnoresThreadsButSeesEveryKnob) {
    auto config = core::world_config::small();
    const auto base_hash = sweep::hash_config(config);

    config.threads = 8;
    EXPECT_EQ(sweep::hash_config(config), base_hash) << "threads must not force re-runs";

    auto seeded = core::world_config::small();
    seeded.seed = 43;
    EXPECT_NE(sweep::hash_config(seeded), base_hash);

    auto streamed = core::world_config::small();
    streamed.ditl.max_buffered_records = 512;
    EXPECT_NE(sweep::hash_config(streamed), base_hash);
}

TEST(GridSpec, IdealCacheCollapsesRefreshes) {
    const auto cells = sweep::expand_cells(parse("tier small\ndim cache real ideal\n"));
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].name, "cache-real");
    EXPECT_EQ(cells[1].name, "cache-ideal");
    EXPECT_EQ(cells[1].config.query_model.refresh_sigma, 0.0);
    EXPECT_NE(cells[0].config.query_model.refresh_sigma,
              cells[1].config.query_model.refresh_sigma);
    EXPECT_NE(cells[0].config_hash, cells[1].config_hash);
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

class SweepDriver : public ::testing::Test {
protected:
    static sweep::grid_spec grid() {
        return parse(
            "tier small\n"
            "seed 42\n"
            "dim peering 0.3 0.72\n"
            "dim rings 3 5\n");
    }

    void SetUp() override {
        root_ = test_support::process_temp_dir() / "sweep";
        fs::remove_all(root_);
        fs::create_directories(root_);
    }
    void TearDown() override { fs::remove_all(root_); }

    [[nodiscard]] fs::path dir(const std::string& name) const { return root_ / name; }

    /// Every regular file under `tree`, as relative path -> content bytes.
    static std::map<std::string, std::string> slurp_tree(const fs::path& tree) {
        std::map<std::string, std::string> files;
        for (const auto& entry : fs::recursive_directory_iterator(tree)) {
            if (!entry.is_regular_file()) continue;
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream bytes;
            bytes << in.rdbuf();
            files[fs::relative(entry.path(), tree).string()] = std::move(bytes).str();
        }
        return files;
    }

    static void expect_identical_trees(const fs::path& a, const fs::path& b) {
        const auto ta = slurp_tree(a);
        const auto tb = slurp_tree(b);
        ASSERT_EQ(ta.size(), tb.size()) << a << " vs " << b;
        for (const auto& [rel, bytes] : ta) {
            const auto it = tb.find(rel);
            ASSERT_NE(it, tb.end()) << rel << " missing from " << b;
            EXPECT_EQ(bytes == it->second, true) << rel << " differs between " << a
                                                 << " and " << b;
        }
    }

private:
    fs::path root_;
};

TEST_F(SweepDriver, GridIsByteIdenticalAcrossThreadCounts) {
    for (const int threads : {1, 2, 8}) {
        sweep::sweep_options options;
        options.threads = threads;
        const auto result =
            sweep::run_grid(grid(), dir("t" + std::to_string(threads)).string(), options);
        EXPECT_EQ(result.built, 4u);
        EXPECT_EQ(result.skipped, 0u);
    }
    expect_identical_trees(dir("t1"), dir("t2"));
    expect_identical_trees(dir("t1"), dir("t8"));
}

TEST_F(SweepDriver, ResumesWithoutRecomputeAndMatchesOneShot) {
    sweep::sweep_options options;
    options.threads = 1;
    const auto oneshot = sweep::run_grid(grid(), dir("oneshot").string(), options);
    ASSERT_EQ(oneshot.built, 4u);

    // First run stops after one cell (a stand-in for a killed run: the
    // manifest is rewritten after every cell, so stopping early leaves the
    // same on-disk state as a kill between cells).
    options.max_cells = 1;
    const auto partial = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(partial.built, 1u);
    EXPECT_EQ(partial.pending, 3u);

    options.max_cells = 0;
    const auto finished = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(finished.built, 3u) << "resume must not rebuild the finished cell";
    EXPECT_EQ(finished.skipped, 1u);
    EXPECT_EQ(finished.pending, 0u);
    expect_identical_trees(dir("oneshot"), dir("resumed"));

    // A third run over the complete grid builds nothing at all.
    const auto idle = sweep::run_grid(grid(), dir("resumed").string(), options);
    EXPECT_EQ(idle.built, 0u);
    EXPECT_EQ(idle.skipped, 4u);
}

TEST_F(SweepDriver, ConfigHashMismatchForcesRerun) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    // Same cell names, different base seed: every hash changes, so the
    // driver must distrust all four directories and rebuild them.
    auto reseeded = grid();
    reseeded.seed = 43;
    const auto rerun = sweep::run_grid(reseeded, dir("g").string(), options);
    EXPECT_EQ(rerun.built, 4u);
    EXPECT_EQ(rerun.skipped, 0u);

    // And the reseeded grid matches a fresh reseeded one-shot.
    ASSERT_EQ(sweep::run_grid(reseeded, dir("fresh43").string(), options).built, 4u);
    expect_identical_trees(dir("g"), dir("fresh43"));
}

TEST_F(SweepDriver, MalformedManifestDegradesToFullRebuild) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    std::ofstream(dir("g") / "manifest.tsv", std::ios::trunc) << "not a manifest\n";
    const auto rerun = sweep::run_grid(grid(), dir("g").string(), options);
    EXPECT_EQ(rerun.built, 4u) << "a corrupt manifest must never be trusted";
    EXPECT_EQ(rerun.skipped, 0u);
}

TEST_F(SweepDriver, MissingCellFileForcesRerunOfThatCellOnly) {
    sweep::sweep_options options;
    options.threads = 1;
    ASSERT_EQ(sweep::run_grid(grid(), dir("g").string(), options).built, 4u);

    fs::remove(dir("g") / "peering-0.3_rings-5" / "metrics.json");
    const auto rerun = sweep::run_grid(grid(), dir("g").string(), options);
    EXPECT_EQ(rerun.built, 1u);
    EXPECT_EQ(rerun.skipped, 3u);
    ASSERT_EQ(rerun.cells.size(), 4u);
    EXPECT_TRUE(rerun.cells[1].built) << "the damaged cell rebuilds";
    EXPECT_TRUE(rerun.cells[0].skipped);
}

} // namespace
