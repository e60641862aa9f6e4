// Snapshot load-path baseline: how much faster is re-analyzing an archived
// world than regenerating it? Builds the small world, archives it, then
// times rebuild vs owned-load vs mmap-load (bundle open = full checksum
// verification) and full hydration (datasets from the archive, substrate
// rebuilt from the config). Exports an ac-bench-v1 BENCH_snapshot.json.
//
//   bench_snapshot [--repeat R] [--out FILE]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <utility>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/core/world.h"
#include "src/snapshot/world_io.h"
#include "tests/temp_dir.h"

namespace {

using namespace ac;

void time_into(bench::metric& samples, int repeat, const auto& fn) {
    for (int i = 0; i < repeat; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        samples.add(bench::ms_since(start));
    }
}

} // namespace

int main(int argc, char** argv) {
    const auto args =
        bench::bench_args::parse(argc, argv, "bench_snapshot", 3, "BENCH_snapshot.json");

    const auto path = (test_support::process_temp_dir() / "snapshot.acx").string();

    bench::report report{"snapshot", "small", args.repeat};
    report.set_note("load = open + full checksum verification; hydrate adds dataset "
                    "restore and the deterministic substrate rebuild");
    using bench::direction;
    auto& rebuild_ms =
        report.add_metric("rebuild_ms", "ms", direction::lower_is_better, 2.0);
    auto& save_ms = report.add_metric("save_ms", "ms", direction::lower_is_better, 2.0);
    auto& owned_load_ms =
        report.add_metric("owned_load_ms", "ms", direction::lower_is_better, 2.0);
    auto& mmap_load_ms =
        report.add_metric("mmap_load_ms", "ms", direction::lower_is_better, 2.0);
    auto& hydrate_ms =
        report.add_metric("hydrate_ms", "ms", direction::lower_is_better, 2.0);

    std::cerr << "building small world (serial)...\n";
    time_into(rebuild_ms, args.repeat, [] {
        auto config = core::world_config::small();
        config.threads = 1;
        const core::world w{std::move(config)};
    });

    auto config = core::world_config::small();
    config.threads = 1;
    const core::world w{std::move(config)};

    std::cerr << "archiving...\n";
    time_into(save_ms, args.repeat, [&] { snapshot::save_world(w, path); });
    const auto file_bytes = std::filesystem::file_size(path);

    std::cerr << "loading (owned)...\n";
    time_into(owned_load_ms, args.repeat, [&] {
        const auto b = snapshot::bundle::open(path, snapshot::load_mode::owned);
    });

    std::cerr << "loading (mmap)...\n";
    time_into(mmap_load_ms, args.repeat, [&] {
        const auto b = snapshot::bundle::open(path, snapshot::load_mode::mapped);
    });

    std::cerr << "hydrating (mmap load + substrate rebuild)...\n";
    time_into(hydrate_ms, args.repeat, [&] {
        const auto hydrated = snapshot::hydrate_world(
            snapshot::bundle::open(path, snapshot::load_mode::mapped), 1);
    });

    // The all-plain v1 container of the same world, for the compression
    // headline (v2 stores columns encoded; see src/table/encoding.h).
    const auto v1_path = (test_support::process_temp_dir() / "snapshot_v1.acx").string();
    snapshot::save_world(w, v1_path, 1);
    const auto v1_file_bytes = std::filesystem::file_size(v1_path);
    std::remove(v1_path.c_str());

    report.add_scalar("file_bytes", "bytes", direction::lower_is_better, 0.25,
                      static_cast<double>(file_bytes));
    report.add_scalar("v1_file_bytes", "bytes", direction::lower_is_better, 0.25,
                      static_cast<double>(v1_file_bytes));
    report.add_scalar("compression_ratio", "ratio", direction::higher_is_better, 0.25,
                      static_cast<double>(v1_file_bytes) /
                          static_cast<double>(file_bytes));
    report.add_scalar("owned_load_speedup", "x", direction::higher_is_better, 0.6,
                      rebuild_ms.median() / owned_load_ms.median());
    report.add_scalar("mmap_load_speedup", "x", direction::higher_is_better, 0.6,
                      rebuild_ms.median() / mmap_load_ms.median());

    std::remove(path.c_str());
    return report.write_file_and_stdout(args.out_path);
}
