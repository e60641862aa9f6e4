// Scenario/event baseline: incremental re-convergence vs full RIB rebuild.
//
// The mutable-RIB contract (DESIGN §11) is that a single-site withdrawal
// re-converges incrementally — clear one matrix row, repair the per-AS index
// for touched ASes, invalidate only their cache shards — instead of
// re-propagating every site. This bench pins that claim on the small world:
//
//   * incremental.withdraw_ms — anycast_rib::withdraw of one PoP
//   * incremental.announce_ms — re-announcing the same PoP
//   * incremental.withdraw_all_ms / incremental.announce_all_ms — a whole-RIB
//     cycle: withdrawing every PoP one by one, then re-announcing them all
//     (a letter-wide `withdraw`/`announce` event); each per-site event
//     repairs the index per touched AS, so the cycle grows with sites ×
//     touched ASes, not sites² × touched ASes
//   * full.rebuild_ms         — constructing a fresh RIB with that PoP's
//     announcement flagged withdrawn (what degraded_deployment does)
//   * withdraw_speedup_vs_rebuild — the gated ratio; acceptance bar >= 10x
//   * scenario.run_ms         — end-to-end driver replay (drain + restore of
//     a root-letter site, catchment re-measured each step)
//
//   bench_scenario [--threads N] [--repeat R] [--out FILE]
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/core/world.h"
#include "src/scenario/driver.h"

namespace {

using namespace ac;

using clock_type = std::chrono::steady_clock;

} // namespace

int main(int argc, char** argv) {
    const auto args =
        bench::bench_args::parse(argc, argv, "bench_scenario", 5, "BENCH_scenario.json");

    std::cerr << "building small world...\n";
    auto config = core::world_config::small();
    config.threads = 1;
    core::world w{std::move(config)};  // non-const: the driver leg mutates letter RIBs
    engine::thread_pool pool{args.threads};

    bench::report report{"scenario", "small", args.repeat};
    report.set_note("incremental = anycast_rib withdraw/announce of one CDN PoP, and "
                    "withdraw/announce of every PoP in turn (*_all); full = "
                    "fresh RIB construction with that PoP withdrawn; speedup is the "
                    "DESIGN §11 acceptance bar (>= 10x); scenario.run_ms replays a "
                    "drain/restore timeline against a root letter");
    using bench::direction;
    auto& withdraw_ms =
        report.add_metric("incremental.withdraw_ms", "ms", direction::lower_is_better, 2.0);
    auto& announce_ms =
        report.add_metric("incremental.announce_ms", "ms", direction::lower_is_better, 2.0);
    auto& withdraw_all_ms =
        report.add_metric("incremental.withdraw_all_ms", "ms", direction::lower_is_better, 2.0);
    auto& announce_all_ms =
        report.add_metric("incremental.announce_all_ms", "ms", direction::lower_is_better, 2.0);
    auto& rebuild_ms =
        report.add_metric("full.rebuild_ms", "ms", direction::lower_is_better, 2.0);
    auto& scenario_ms =
        report.add_metric("scenario.run_ms", "ms", direction::lower_is_better, 3.0);

    // Leg 1: one-PoP withdrawal on the CDN PoP RIB, incremental vs rebuild.
    const auto announcements = w.cdn_net().pop_rib().announcements();
    route::anycast_rib rib{w.graph(), w.regions(), announcements, &pool};
    const auto victim = static_cast<route::site_id>(announcements.size() / 2);
    std::cerr << "withdrawing site " << victim << " of " << announcements.size()
              << " PoPs, incremental vs rebuild...\n";
    std::size_t ases_touched = 0;
    for (int i = 0; i < args.repeat; ++i) {
        auto start = clock_type::now();
        const auto stats = rib.withdraw(victim);
        withdraw_ms.add(bench::ms_since(start));
        ases_touched = stats.ases_touched;

        start = clock_type::now();
        (void)rib.announce(rib.announcements()[victim]);
        announce_ms.add(bench::ms_since(start));
    }

    // Whole-RIB cycle: every PoP withdrawn, then every PoP re-announced.
    for (int i = 0; i < args.repeat; ++i) {
        auto start = clock_type::now();
        for (route::site_id s = 0; s < rib.site_count(); ++s) (void)rib.withdraw(s);
        withdraw_all_ms.add(bench::ms_since(start));

        start = clock_type::now();
        for (route::site_id s = 0; s < rib.site_count(); ++s) {
            (void)rib.announce(rib.announcements()[s]);
        }
        announce_all_ms.add(bench::ms_since(start));
    }

    auto degraded = announcements;
    degraded[victim].withdrawn = true;
    for (int i = 0; i < args.repeat; ++i) {
        const auto start = clock_type::now();
        route::anycast_rib full{w.graph(), w.regions(), degraded, &pool};
        rebuild_ms.add(bench::ms_since(start));
    }

    const double speedup = rebuild_ms.median() / withdraw_ms.median();
    report.add_scalar("withdraw_speedup_vs_rebuild", "x", direction::higher_is_better, 0.6,
                      speedup);
    if (speedup < 10.0) {
        std::cerr << "WARNING: incremental withdrawal only " << speedup
                  << "x faster than rebuild (acceptance bar is 10x)\n";
    }

    // Leg 2: end-to-end scenario replay against a root letter.
    std::cerr << "replaying drain/restore timeline against K root...\n";
    scenario::driver drv{w.graph(), w.regions()};
    drv.add_target("K", w.mutable_roots().mutable_deployment_of('K'));
    std::vector<scenario::weighted_source> sources;
    sources.reserve(w.users().locations().size());
    for (const auto& loc : w.users().locations()) {
        sources.push_back(scenario::weighted_source{loc.asn, loc.region, loc.users});
    }
    drv.set_sources(std::move(sources));
    const auto tl = scenario::parse_timeline_text("1 drain K 0\n2 restore K 0\n");
    scenario::driver_options drv_options;
    drv_options.pool = &pool;
    drv_options.threads = args.threads;
    for (int i = 0; i < args.repeat; ++i) {
        const auto start = clock_type::now();
        const auto steps = drv.run(tl, drv_options);
        scenario_ms.add(bench::ms_since(start));
        if (steps.size() != 3) {
            std::cerr << "bench_scenario: unexpected step count " << steps.size() << "\n";
            return 1;
        }
    }

    std::ostringstream info;
    info << "{\"pop_sites\": " << announcements.size() << ", \"victim_site\": " << victim
         << ", \"ases_touched\": " << ases_touched << ", \"threads\": " << args.threads
         << "}";
    report.add_details("workload", info.str());
    return report.write_file_and_stdout(args.out_path);
}
