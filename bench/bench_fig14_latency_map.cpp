// Figure 14 / Appendix F: R110 latency by region.
//
// The paper's map colors user populations by relative latency to R110.
// We print the textual equivalent: per-continent relative-latency summaries
// and the correlation the figure demonstrates — latency falls with distance
// to the nearest front-end.
#include "bench/bench_common.h"
#include "src/analysis/stats.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();
    const int r110 = cdn.ring_count() - 1;

    // Per-<region,AS> medians to R110 from server-side logs.
    double max_latency = 1.0;
    for (const auto& row : w.server_logs()) {
        if (row.ring == r110) max_latency = std::max(max_latency, row.median_rtt_ms);
    }

    os << "=== Figure 14: relative latency to R110 by continent ===\n";
    analysis::weighted_cdf by_continent[7];
    analysis::weighted_cdf near_users;  // <500 km from a front-end
    analysis::weighted_cdf far_users;   // >2000 km
    const auto nearest_km = cdn.nearest_front_end_km_by_region(r110);
    for (const auto& row : w.server_logs()) {
        if (row.ring != r110) continue;
        const auto& region = w.regions().at(row.region);
        const double relative = row.median_rtt_ms / max_latency;
        by_continent[static_cast<int>(region.cont)].add(relative, row.users);
        const double d = nearest_km.at(row.region);
        if (d < 500.0) near_users.add(row.median_rtt_ms, row.users);
        if (d > 2000.0) far_users.add(row.median_rtt_ms, row.users);
    }
    for (int c = 0; c < 7; ++c) {
        if (by_continent[c].empty()) continue;
        os << "  " << topo::to_string(static_cast<topo::continent>(c))
           << ": median relative latency = " << strfmt::fixed(by_continent[c].median(), 3)
           << " (p90 " << strfmt::fixed(by_continent[c].quantile(0.9), 3) << ")\n";
    }
    if (!near_users.empty() && !far_users.empty()) {
        os << "  users <500 km from a front-end: median "
           << strfmt::fixed(near_users.median(), 1) << " ms; users >2000 km: median "
           << strfmt::fixed(far_users.median(), 1)
           << " ms (latency falls near front-ends)\n";
    }
}

void BM_Fig14Aggregation(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        double total = 0.0;
        for (const auto& row : w.server_logs()) {
            if (row.ring == w.cdn_net().ring_count() - 1) total += row.median_rtt_ms;
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_Fig14Aggregation)->Unit(benchmark::kMicrosecond);

} // namespace

AC_BENCH_MAIN(print_figure)
