// Snapshot container: round trips, hydration fidelity, corruption handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/capture/serialize.h"
#include "src/core/report.h"
#include "src/snapshot/world_io.h"
#include "src/snapshot/xxhash64.h"
#include "tests/temp_dir.h"

namespace {

using namespace ac;

class SnapshotFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }

    /// The small world's snapshot image, encoded once.
    static const std::vector<std::byte>& image() {
        static const std::vector<std::byte> img = snapshot::encode_world(w());
        return img;
    }

    static std::filesystem::path temp_file(const std::string& suffix = "") {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        return test_support::process_temp_dir() /
               (std::string{"ac_snapshot_"} + info->name() + suffix + ".acx");
    }

    static std::filesystem::path temp_dir(const std::string& suffix = "") {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        const auto dir = test_support::process_temp_dir() /
                         (std::string{"ac_snapshot_"} + info->name() + suffix);
        std::filesystem::remove_all(dir);
        return dir;
    }

    static void write_image(const std::vector<std::byte>& bytes,
                            const std::filesystem::path& path) {
        std::ofstream out{path, std::ios::binary};
        ASSERT_TRUE(out) << path;
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
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

    /// The report_test.cpp goldens: a hydrated world must reproduce the same
    /// figure bytes a live build produces.
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

    static void expect_golden_figures(const core::world& world, const std::string& context) {
        const auto dir = temp_dir("_" + context);
        const auto files = core::write_figure_csvs(world, dir.string());
        ASSERT_EQ(files.size(), golden_checksums().size()) << context;
        for (const auto& f : files) {
            const auto name = std::filesystem::path{f}.filename().string();
            const auto it = golden_checksums().find(name);
            ASSERT_NE(it, golden_checksums().end()) << name << " (" << context << ")";
            EXPECT_EQ(fnv1a(read_bytes(f)), it->second) << name << " (" << context << ")";
        }
        std::filesystem::remove_all(dir);
    }

    static snapshot::errc code_of(const std::vector<std::byte>& bytes) {
        try {
            (void)snapshot::bundle::from_bytes(bytes);
        } catch (const snapshot::snapshot_error& e) {
            return e.code();
        }
        ADD_FAILURE() << "expected snapshot_error, image parsed cleanly";
        return snapshot::errc::io;
    }

    /// Recomputes the file checksum after a deliberate in-place edit, so the
    /// edit reaches the targeted validation layer instead of tripping the
    /// whole-file checksum.
    static void patch_file_checksum(std::vector<std::byte>& img) {
        const std::uint64_t head = snapshot::xxhash64(img.data(), 56);
        const std::uint64_t sum = snapshot::xxhash64(
            img.data() + snapshot::header_bytes, img.size() - snapshot::header_bytes, head);
        std::memcpy(img.data() + 56, &sum, sizeof sum);
    }

    /// Recomputes the stored checksum of every section whose payload starts
    /// at `payload_offset` (shared/deduped payloads have several entries).
    static void patch_section_checksums(std::vector<std::byte>& img,
                                        std::uint64_t payload_offset) {
        std::uint32_t count = 0;
        std::memcpy(&count, img.data() + 12, sizeof count);
        for (std::uint32_t i = 0; i < count; ++i) {
            auto* entry =
                img.data() + snapshot::header_bytes + snapshot::section_entry_bytes * i;
            std::uint64_t off = 0;
            std::uint64_t bytes = 0;
            std::memcpy(&off, entry + 16, sizeof off);
            std::memcpy(&bytes, entry + 24, sizeof bytes);
            if (off != payload_offset) continue;
            const std::uint64_t sum = snapshot::xxhash64(img.data() + off, bytes);
            std::memcpy(entry + 32, &sum, sizeof sum);
        }
    }
};

// ------------------------------------------------------------ writer/reader

TEST_F(SnapshotFixture, WriterRoundTripsSectionsInMemory) {
    snapshot::writer w;
    const std::vector<double> doubles{1.5, -2.25, 1e300};
    const std::vector<std::uint32_t> ints{7, 11};
    const char raw[] = "payload";
    w.add_scalar<std::uint64_t>("meta/count", 42);
    w.add_column<double>("col/d", doubles);
    w.add_column<std::uint32_t>("col/u", ints);
    w.add_raw("blob", raw, sizeof raw);
    ASSERT_EQ(w.section_count(), 4u);

    const auto b = snapshot::bundle::from_bytes(w.finish());
    EXPECT_EQ(b->sections().size(), 4u);
    EXPECT_EQ(b->scalar<std::uint64_t>("meta/count"), 42u);
    const auto d = b->column<double>("col/d");
    ASSERT_EQ(d.size(), doubles.size());
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], doubles[i]);
    const auto u = b->column<std::uint32_t>("col/u");
    ASSERT_EQ(u.size(), ints.size());
    EXPECT_EQ(u[0], 7u);
    EXPECT_EQ(u[1], 11u);
    EXPECT_EQ(b->raw("blob").size(), sizeof raw);

    // Every payload lands aligned for its container version (the mmap
    // zero-copy contract).
    const auto alignment = snapshot::payload_alignment_for(b->container_version());
    for (const auto& s : b->sections()) {
        EXPECT_EQ(s.payload_offset % alignment, 0u) << s.name;
    }
}

TEST_F(SnapshotFixture, TypedAccessErrors) {
    snapshot::writer w;
    const std::vector<std::uint32_t> ints{1, 2, 3};
    w.add_column<std::uint32_t>("col/u", ints);
    const auto b = snapshot::bundle::from_bytes(w.finish());

    try {
        (void)b->column<double>("col/u");
        FAIL() << "type_mismatch expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::type_mismatch);
    }
    try {
        (void)b->column<std::uint32_t>("absent");
        FAIL() << "section_missing expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::section_missing);
    }
    try {
        (void)b->scalar<std::uint32_t>("col/u");  // 3 values, not 1
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed);
    }
}

TEST_F(SnapshotFixture, DuplicateSectionNameRejected) {
    snapshot::writer w;
    const std::vector<std::uint32_t> ints{1};
    w.add_column<std::uint32_t>("twice", ints);
    try {
        w.add_column<std::uint32_t>("twice", ints);
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed);
    }
}

// ------------------------------------------------------- hydration fidelity

TEST_F(SnapshotFixture, HydratedWorldReproducesGoldenFiguresOwned) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::owned);
    EXPECT_EQ(b->mode(), snapshot::load_mode::owned);
    const auto hydrated = snapshot::hydrate_world(b);
    expect_golden_figures(hydrated, "owned");
    std::filesystem::remove(path);
}

TEST_F(SnapshotFixture, HydratedWorldReproducesGoldenFiguresMapped) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    const auto hydrated = snapshot::hydrate_world(b, /*threads_override=*/2);
    expect_golden_figures(hydrated, "mapped");
    std::filesystem::remove(path);
}

TEST_F(SnapshotFixture, MappedColumnsAreZeroCopy) {
#if defined(__unix__) || defined(__APPLE__)
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    ASSERT_EQ(b->mode(), snapshot::load_mode::mapped);
    const auto hydrated = snapshot::hydrate_world(b);
    // Table columns alias the bundle's bytes: encoded columns scan straight
    // out of the mapped payload (never decoded on load), plain columns stay
    // borrowed spans with pointer identity.
    ASSERT_FALSE(hydrated.filtered_tables().empty());
    const auto& t = hydrated.filtered_tables().front();
    EXPECT_FALSE(t.source_ip.owns());
    ASSERT_TRUE(t.source_ip.is_encoded());
    EXPECT_NE(b->section("tables/0/source_ip").encoding, table::enc::encoding::plain);
    EXPECT_EQ(t.source_ip.storage_origin(),
              static_cast<const void*>(b->raw("tables/0/source_ip").data()));
    const auto& median = hydrated.server_log_table().median_rtt_ms;
    EXPECT_FALSE(median.owns());
    ASSERT_TRUE(median.is_encoded());
    EXPECT_EQ(median.storage_origin(),
              static_cast<const void*>(b->raw("server/median_rtt_ms").data()));
    // Plain sections keep the original borrowed-span identity.
    const auto total = b->typed_column<double>("pop/cdn/total");
    ASSERT_FALSE(total.is_encoded());
    EXPECT_EQ(static_cast<const void*>(total.view().data()),
              static_cast<const void*>(b->raw("pop/cdn/total").data()));
    std::filesystem::remove(path);
#else
    GTEST_SKIP() << "no mmap on this platform";
#endif
}

TEST_F(SnapshotFixture, MappedAndOwnedSeeIdenticalBytes) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto owned = snapshot::bundle::open(path.string(), snapshot::load_mode::owned);
    const auto mapped = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    ASSERT_EQ(owned->file_bytes(), mapped->file_bytes());
    ASSERT_EQ(owned->sections().size(), mapped->sections().size());
    for (const auto& s : owned->sections()) {
        const auto a = owned->raw(s.name);
        const auto b = mapped->raw(s.name);
        ASSERT_EQ(a.size(), b.size()) << s.name;
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0) << s.name;
    }
    std::filesystem::remove(path);
}

TEST_F(SnapshotFixture, HydratedDatasetsMatchLive) {
    const auto b = snapshot::bundle::from_bytes(image());
    const auto hydrated = snapshot::hydrate_world(b);
    ASSERT_EQ(hydrated.ditl().letters.size(), w().ditl().letters.size());
    for (std::size_t i = 0; i < w().ditl().letters.size(); ++i) {
        EXPECT_EQ(hydrated.ditl().letters[i].records.size(),
                  w().ditl().letters[i].records.size());
        EXPECT_EQ(hydrated.ditl().letters[i].tcp_rtts.size(),
                  w().ditl().letters[i].tcp_rtts.size());
    }
    EXPECT_EQ(hydrated.server_logs().size(), w().server_logs().size());
    EXPECT_EQ(hydrated.client_measurements().size(), w().client_measurements().size());
    EXPECT_EQ(hydrated.space().allocated_slash24s(), w().space().allocated_slash24s());
    EXPECT_EQ(hydrated.cdn_user_counts().total_observed_users(),
              w().cdn_user_counts().total_observed_users());
    EXPECT_EQ(hydrated.apnic_user_counts().as_count(), w().apnic_user_counts().as_count());
    // The filtered tables carry the full spec, strategy included.
    ASSERT_EQ(hydrated.filtered_tables().size(), w().filtered_tables().size());
    for (std::size_t i = 0; i < w().filtered_tables().size(); ++i) {
        EXPECT_EQ(hydrated.filtered_tables()[i].spec.strategy,
                  w().filtered_tables()[i].spec.strategy);
    }
}

TEST_F(SnapshotFixture, SnapshotBytesIdenticalAcrossThreadCounts) {
    // The determinism contract end-to-end: the thread count is an execution
    // knob (not serialized), and every dataset is byte-identical at any
    // thread count, so the container files are too.
    auto serial_config = core::world_config::small();
    serial_config.threads = 1;
    const core::world serial{std::move(serial_config)};
    auto parallel_config = core::world_config::small();
    parallel_config.threads = 8;
    const core::world parallel{std::move(parallel_config)};
    EXPECT_EQ(snapshot::encode_world(serial), snapshot::encode_world(parallel));
    // And a hydrated world re-encodes to the same bytes it was loaded from.
    const auto rehydrated =
        snapshot::hydrate_world(snapshot::bundle::from_bytes(image()));
    EXPECT_EQ(snapshot::encode_world(rehydrated), image());
}

TEST_F(SnapshotFixture, V1ContainerRoundTripsAndV2Shrinks) {
    // A v1 writer reproduces the original all-plain 64-byte-aligned format…
    const auto v1 = snapshot::encode_world(w(), 1);
    const auto b = snapshot::bundle::from_bytes(v1);
    EXPECT_EQ(b->container_version(), 1u);
    for (const auto& s : b->sections()) {
        EXPECT_EQ(s.encoding, table::enc::encoding::plain) << s.name;
        EXPECT_EQ(s.payload_offset % snapshot::payload_alignment, 0u) << s.name;
    }
    // …that still hydrates, and re-encodes at the default version to the
    // exact image a live world produces (backward-compat reads are lossless).
    const auto hydrated = snapshot::hydrate_world(b);
    EXPECT_EQ(snapshot::encode_world(hydrated), image());
    // The headline: the encoded v2 container is at least 2x smaller.
    EXPECT_GE(v1.size(), 2 * image().size())
        << "v1 " << v1.size() << " bytes vs v2 " << image().size();
}

TEST_F(SnapshotFixture, HydratedV1WorldReproducesGoldenFigures) {
    const auto v1 = snapshot::encode_world(w(), 1);
    const auto hydrated = snapshot::hydrate_world(snapshot::bundle::from_bytes(v1));
    expect_golden_figures(hydrated, "v1");
}

TEST_F(SnapshotFixture, HydrateRejectsDitlOnlySnapshot) {
    const auto ditl_image = snapshot::encode_ditl(w().ditl());
    const auto b = snapshot::bundle::from_bytes(ditl_image);
    EXPECT_FALSE(snapshot::has_world(*b));
    try {
        (void)snapshot::hydrate_world(b);
        FAIL() << "section_missing expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::section_missing);
    }
}

// The binary DITL snapshot stores exactly the fields the text format stores,
// so text-round-tripping a dataset and re-snapshotting it is byte-identical.
TEST_F(SnapshotFixture, TextRoundTripResnapshotsIdentically) {
    const auto direct = snapshot::encode_ditl(w().ditl());
    std::stringstream text;
    capture::write_dataset(text, w().ditl());
    const auto reread = capture::read_dataset(text);
    const auto via_text = snapshot::encode_ditl(reread);
    EXPECT_EQ(direct, via_text);
}

// ------------------------------------------------------------- corruption --

TEST_F(SnapshotFixture, EveryFlippedSectionByteIsCaught) {
    const auto b = snapshot::bundle::from_bytes(image());
    for (const auto& s : b->sections()) {
        if (s.payload_bytes == 0) continue;
        // First payload byte, last payload byte, and the padding byte just
        // before the section (covered by the whole-file checksum).
        for (const std::uint64_t at :
             {s.payload_offset, s.payload_offset + s.payload_bytes - 1,
              s.payload_offset - 1}) {
            auto corrupt = image();
            corrupt[at] ^= std::byte{0x40};
            EXPECT_EQ(code_of(corrupt), snapshot::errc::checksum_mismatch)
                << s.name << " flip at " << at;
        }
    }
}

TEST_F(SnapshotFixture, V1NonzeroEncodingFieldIsMalformed) {
    // The v2 entry bytes ([9, 12): encoding tag + xref source) must be zero
    // in a v1 file; a nonzero value is a structural error, not a checksum
    // one, so the file checksum is re-patched to let the gate fire.
    auto corrupt = snapshot::encode_world(w(), 1);
    corrupt[snapshot::header_bytes + 9] = std::byte{1};
    patch_file_checksum(corrupt);
    EXPECT_EQ(code_of(corrupt), snapshot::errc::malformed);
}

TEST_F(SnapshotFixture, BadEncodingHeadersAreTyped) {
    // Sabotage the bit-width byte inside every encoded section's payload
    // header (0xff is invalid for every encoding) with both checksums
    // re-patched: only the open-time encoding validation can catch it.
    const auto b = snapshot::bundle::from_bytes(image());
    std::size_t tested = 0;
    for (const auto& s : b->sections()) {
        if (s.encoding == table::enc::encoding::plain) continue;
        auto corrupt = image();
        corrupt[s.payload_offset + 4] = std::byte{0xff};
        patch_section_checksums(corrupt, s.payload_offset);
        patch_file_checksum(corrupt);
        EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_encoding) << s.name;
        ++tested;
    }
    EXPECT_GT(tested, 0u) << "world image has no encoded sections";
}

TEST_F(SnapshotFixture, EncodedPayloadCorruptionIsTyped) {
    // Flipping bytes inside the packed data (past the header) must also be
    // caught by the open-time validation or fail closed with a checksum
    // mismatch — never parse into an out-of-range view.
    const auto b = snapshot::bundle::from_bytes(image());
    for (const auto& s : b->sections()) {
        if (s.encoding == table::enc::encoding::plain) continue;
        if (s.payload_bytes < 17) continue;
        auto corrupt = image();
        corrupt[s.payload_offset + 16] ^= std::byte{0xff};
        patch_section_checksums(corrupt, s.payload_offset);
        patch_file_checksum(corrupt);
        try {
            const auto parsed = snapshot::bundle::from_bytes(corrupt);
            // A flip that survives validation decoded to different values;
            // the view must still be in range (scanning must not crash).
            for (const auto& ps : parsed->sections()) {
                ASSERT_LE(ps.payload_offset + ps.payload_bytes, corrupt.size());
            }
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_TRUE(e.code() == snapshot::errc::bad_encoding ||
                        e.code() == snapshot::errc::checksum_mismatch)
                << s.name << ": " << e.what();
        }
    }
}

TEST_F(SnapshotFixture, NonXrefSourceIndexIsTyped) {
    // A nonzero xref-source entry field on a non-xref section is typed.
    const auto b = snapshot::bundle::from_bytes(image());
    for (std::size_t i = 0; i < b->sections().size(); ++i) {
        const auto& s = b->sections()[i];
        if (s.encoding != table::enc::encoding::dict) continue;
        auto corrupt = image();
        corrupt[snapshot::header_bytes + snapshot::section_entry_bytes * i + 10] =
            std::byte{1};
        patch_file_checksum(corrupt);
        EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_encoding) << s.name;
        break;
    }
}

TEST_F(SnapshotFixture, TruncationsAreTyped) {
    const auto& img = image();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, snapshot::header_bytes - 1,
          snapshot::header_bytes, img.size() / 2, img.size() - 1}) {
        std::vector<std::byte> cut{img.begin(), img.begin() + static_cast<long>(keep)};
        EXPECT_EQ(code_of(cut), snapshot::errc::truncated) << "kept " << keep;
    }
}

TEST_F(SnapshotFixture, BadMagicIsTyped) {
    auto corrupt = image();
    corrupt[0] = std::byte{'Z'};
    EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_magic);
}

TEST_F(SnapshotFixture, FutureVersionIsTyped) {
    auto corrupt = image();
    // Version field lives at offset 8; bump it without fixing the checksum —
    // the version check must fire first with a typed error.
    const std::uint32_t future = snapshot::format_version + 1;
    std::memcpy(corrupt.data() + 8, &future, sizeof future);
    EXPECT_EQ(code_of(corrupt), snapshot::errc::version_mismatch);
}

TEST_F(SnapshotFixture, ZeroSectionFileIsMalformed) {
    const snapshot::writer empty;
    EXPECT_EQ(code_of(empty.finish()), snapshot::errc::malformed);
}

TEST_F(SnapshotFixture, OpenMissingFileIsIoError) {
    for (const auto mode : {snapshot::load_mode::owned, snapshot::load_mode::mapped}) {
        try {
            (void)snapshot::bundle::open("/nonexistent/ac_snapshot.acx", mode);
            FAIL() << "io error expected";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::io);
        }
    }
}

TEST_F(SnapshotFixture, CorruptFileIsCaughtInBothModes) {
    auto corrupt = image();
    corrupt[corrupt.size() - 1] ^= std::byte{0x01};
    const auto path = temp_file();
    write_image(corrupt, path);
    for (const auto mode : {snapshot::load_mode::owned, snapshot::load_mode::mapped}) {
        try {
            (void)snapshot::bundle::open(path.string(), mode);
            FAIL() << "checksum_mismatch expected";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::checksum_mismatch);
        }
    }
    std::filesystem::remove(path);
}

} // namespace
