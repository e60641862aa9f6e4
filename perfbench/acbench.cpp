// acbench: the measuring process behind perfbench/run.py.
//
// One invocation is one repetition of one workload (or, for `client`, one
// load generator serving several repetitions), so each repetition's peak RSS
// is its own process's high-water mark. Every mode prints exactly one JSON
// object per repetition on stdout:
//
//   {"e2e": {...}, "layers": {...}, "attempted": N, "failed": M,
//    "failures": [...], "outputs": {...}}
//
// `e2e` holds the untraced end-to-end figures (seconds, MB), `layers` the
// per-layer figures (filled in full only under --trace), `attempted`/`failed`
// the checks and operations this process ran itself, and `outputs` the
// FNV-1a hashes of what the repetition produced (run.py compares them across
// repetitions and, for the default seed, against the committed values).
//
// Modes:
//   acbench provenance
//   acbench report   --tier medium|large --threads N --seed S --out DIR [--trace]
//   acbench failover --threads N --seed S --rounds R --out FILE [--trace]
//   acbench snapshot --seed S --threads N --out FILE   (untimed serve preparation)
//   acbench server   --snapshot FILE --threads N [--trace]   (stdin: "stop")
//   acbench client   --snapshot FILE --seed S --conns C      (stdin: "run PORT [corrupt]")
//
// The spans opened here (`bench/...`) wrap the calls into the libraries;
// nothing in src/ is instrumented for the benchmark's sake.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/core/report.h"
#include "src/core/world.h"
#include "src/netbase/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/driver.h"
#include "src/scenario/event.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"
#include "src/snapshot/world_io.h"

namespace {

using namespace ac;
using steady = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Serve load shape. The closed-loop phase on a 4-core Intel Xeon VM
// (RelWithDebInfo, one connection, client and server pinned to one core,
// medium snapshot, batches of 32 keys) completed 17,000-25,000 requests/s;
// the open-loop rates are about 1/20 and 1/4 of that, so the low phase idles
// the server between requests and the high phase keeps the connection busy
// part of the time. The connection count is run.py's CLIENT_CONNS (1).
constexpr double low_rate_rps = 1000.0;
constexpr double high_rate_rps = 5000.0;
constexpr double open_phase_s = 1.0;        // each open-loop phase lasts this long
constexpr std::size_t closed_requests = 40000;
constexpr double latency_limit_us = 2000.0;  // p99 limit for each open-loop phase
constexpr std::chrono::seconds reply_timeout{10};  // a reply later than this fails

// Traffic assumptions (see perfbench/README.md for the path each exercises).
constexpr double share_inflation = 0.40;
constexpr double share_amortized = 0.30;
constexpr double share_route = 0.20;  // the rest is /catchment
constexpr std::size_t inflation_batch = 32;
constexpr std::size_t amortized_batch = 32;
constexpr double unknown_key_share = 0.05;

constexpr std::size_t trace_capacity = std::size_t{1} << 18;

// ---------------------------------------------------------------------------
// Small utilities.

double seconds_between(steady::time_point a, steady::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// VmHWM of this process in MB (MiB), from /proc/self/status.
double peak_rss_mb() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    throw std::runtime_error("acbench: VmHWM missing from /proc/self/status");
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL) {
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string json_escape(std::string_view s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

/// An ordered name -> number map rendered as a JSON object.
class metric_map {
public:
    void set(const std::string& name, double value) { values_[name] = value; }
    [[nodiscard]] std::string json() const {
        std::ostringstream out;
        out.precision(17);
        out << "{";
        bool first = true;
        for (const auto& [name, value] : values_) {
            out << (first ? "" : ", ") << "\"" << name << "\": " << value;
            first = false;
        }
        out << "}";
        return out.str();
    }

private:
    std::map<std::string, double> values_;
};

/// Checks and operations one repetition ran, with the first few failures.
struct check_tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (failures.size() < 8) failures.push_back(what);
    }
};

struct repetition {
    metric_map e2e;
    metric_map layers;
    check_tally checks;
    std::map<std::string, std::string> outputs;  // name -> hash

    void print() const {
        std::ostringstream out;
        out << "{\"e2e\": " << e2e.json() << ", \"layers\": " << layers.json()
            << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
            << ", \"failures\": [";
        for (std::size_t i = 0; i < checks.failures.size(); ++i) {
            out << (i ? ", " : "") << "\"" << json_escape(checks.failures[i]) << "\"";
        }
        out << "], \"outputs\": {";
        bool first = true;
        for (const auto& [name, hash] : outputs) {
            out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": \"" << hash << "\"";
            first = false;
        }
        out << "}}";
        std::cout << out.str() << "\n" << std::flush;
    }
};

// ---------------------------------------------------------------------------
// Trace analysis: the recorded spans, with self time per span (duration
// minus the spans nested inside it on the same thread).

struct span_record {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t tid = 0;
    double self_us = 0.0;
};

struct trace_view {
    std::vector<span_record> spans;
    std::uint64_t dropped = 0;

    [[nodiscard]] double total_ms(std::string_view name) const {
        double us = 0.0;
        for (const auto& s : spans) us += s.name == name ? s.dur_us : 0.0;
        return us / 1e3;
    }
    [[nodiscard]] double self_ms(std::string_view name) const {
        double us = 0.0;
        for (const auto& s : spans) us += s.name == name ? s.self_us : 0.0;
        return us / 1e3;
    }
};

std::string field_after(std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos) return {};
    std::size_t begin = at + key.size();
    std::size_t end = begin;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return std::string{line.substr(begin, end - begin)};
}

/// Stops tracing and reads back every recorded span.
trace_view collect_trace() {
    obs::disable_tracing();
    std::ostringstream chrome;
    chrome.precision(17);  // microsecond timestamps need more than 6 digits
    obs::write_chrome_trace(chrome);
    trace_view view;
    view.dropped = obs::trace_dropped_count();
    std::istringstream lines{chrome.str()};
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t name_at = line.find("{\"name\": \"");
        if (name_at == std::string::npos) continue;
        const std::size_t name_begin = name_at + 10;
        const std::size_t name_end = line.find('"', name_begin);
        span_record rec;
        rec.name = line.substr(name_begin, name_end - name_begin);
        rec.tid = static_cast<std::uint32_t>(std::stoul(field_after(line, "\"tid\": ")));
        rec.ts_us = std::stod(field_after(line, "\"ts\": "));
        rec.dur_us = std::stod(field_after(line, "\"dur\": "));
        rec.self_us = rec.dur_us;
        view.spans.push_back(std::move(rec));
    }
    // Self time: walk each thread's spans in start order (outer before inner
    // on ties) with a stack of open ancestors.
    std::vector<std::size_t> order(view.spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const auto& x = view.spans[a];
        const auto& y = view.spans[b];
        if (x.tid != y.tid) return x.tid < y.tid;
        if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
        return x.dur_us > y.dur_us;
    });
    std::vector<std::size_t> open;
    std::uint32_t tid = 0;
    for (const std::size_t i : order) {
        auto& s = view.spans[i];
        if (open.empty() || s.tid != tid) {
            open.clear();
            tid = s.tid;
        }
        while (!open.empty() && view.spans[open.back()].ts_us + view.spans[open.back()].dur_us <=
                                    s.ts_us) {
            open.pop_back();
        }
        if (!open.empty()) view.spans[open.back()].self_us -= s.dur_us;
        open.push_back(i);
    }
    return view;
}

// ---------------------------------------------------------------------------
// Library-published figures.

std::uint64_t counter_value(std::string_view name) {
    return obs::registry::global().get_counter(name).value();
}

/// Registry counters the per-layer table reads, sampled before and after a
/// repetition so only its own work is attributed.
struct counter_sample {
    static constexpr std::string_view names[] = {
        "table.kernel_rows",   "table.plain_bytes_scanned", "table.encoded_bytes_scanned",
        "table.decode_ns",     "engine.stage_items",        "engine.stages_executed",
        "snapshot.bytes_read",
    };
    std::map<std::string, std::uint64_t> values;

    static counter_sample take() {
        counter_sample s;
        for (const auto name : names) s.values[std::string{name}] = counter_value(name);
        return s;
    }
    [[nodiscard]] double since(const counter_sample& before, const std::string& name) const {
        return static_cast<double>(values.at(name) - before.values.at(name));
    }
};

route::anycast_rib::cache_stats all_rib_stats(const core::world& w) {
    auto total = w.cdn_net().pop_rib().select_cache_stats();
    for (const char letter : w.roots().all_letters()) {
        const auto s = w.roots().deployment_of(letter).rib().select_cache_stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.invalidations += s.invalidations;
        total.frozen_hits += s.frozen_hits;
        total.frozen_misses += s.frozen_misses;
    }
    return total;
}

void put_rib_stats(metric_map& layers, const route::anycast_rib::cache_stats& s) {
    layers.set("routing.select_hits", static_cast<double>(s.hits));
    layers.set("routing.select_misses", static_cast<double>(s.misses));
    layers.set("routing.select_hit_rate", s.hit_rate());
    layers.set("routing.frozen_hits", static_cast<double>(s.frozen_hits));
    layers.set("routing.frozen_misses", static_cast<double>(s.frozen_misses));
    layers.set("routing.invalidations", static_cast<double>(s.invalidations));
}

/// World-build stages grouped as the per-layer table names them; every
/// other stage (user_counts, zone, databases, ...) lands in build.other_ms.
void put_build_stages(metric_map& layers, const engine::stage_report& timing, double setup_ms) {
    static constexpr std::string_view named[] = {
        "regions", "graph",   "users",       "roots",       "cdn",    "profiles",
        "ditl",    "filter",  "server_logs", "client_rows", "tables", "fleet",
    };
    double attributed = 0.0;
    for (const auto name : named) {
        double ms = 0.0;
        for (const auto& st : timing.stages) ms += st.name == name ? st.wall_ms : 0.0;
        layers.set("build." + std::string{name} + "_ms", ms);
        attributed += ms;
    }
    layers.set("build.other_ms", setup_ms - attributed);
}

void put_trace_layers(metric_map& layers, const trace_view& trace, const counter_sample& before,
                      const counter_sample& after) {
    layers.set("routing.propagate_ms", trace.total_ms("bgp/propagate_site"));
    layers.set("routing.build_fast_path_ms", trace.total_ms("bgp/build_fast_path"));
    layers.set("table.sort_ms", trace.self_ms("table/sort_permutation"));
    layers.set("table.group_ms",
               trace.self_ms("table/make_grouping") + trace.self_ms("table/group_by") +
                   trace.self_ms("table/group_reduce") + trace.self_ms("table/sum_by"));
    layers.set("table.kernel_rows", after.since(before, "table.kernel_rows"));
    layers.set("table.plain_bytes_scanned", after.since(before, "table.plain_bytes_scanned"));
    layers.set("table.encoded_bytes_scanned",
               after.since(before, "table.encoded_bytes_scanned"));
    layers.set("table.decode_ms", after.since(before, "table.decode_ns") / 1e6);
    layers.set("engine.stage_items", after.since(before, "engine.stage_items"));
    layers.set("engine.stages_executed", after.since(before, "engine.stages_executed"));
    layers.set("trace.dropped_spans", static_cast<double>(trace.dropped));
}

/// The traced repetition's own set-up and wall time, and the part of its
/// wall time that no `bench/` span covers.
void put_trace_totals(metric_map& layers, const trace_view& trace, double setup_s,
                      double wall_s) {
    double covered_us = 0.0;
    for (const auto& s : trace.spans) {
        if (s.name.rfind("bench/", 0) == 0) covered_us += s.dur_us;
    }
    layers.set("trace.setup_ms", setup_s * 1e3);
    layers.set("trace.wall_ms", wall_s * 1e3);
    layers.set("trace.unattributed_ms", wall_s * 1e3 - covered_us / 1e3);
}

double ms_since(steady::time_point t0) {
    return seconds_between(t0, steady::now()) * 1e3;
}

// ---------------------------------------------------------------------------
// Argument parsing.

struct args {
    std::string mode;
    std::map<std::string, std::string> values;
    bool trace = false;

    [[nodiscard]] std::string get(const std::string& key) const {
        const auto it = values.find(key);
        if (it == values.end()) throw std::invalid_argument("acbench: missing --" + key);
        return it->second;
    }
    [[nodiscard]] long long num(const std::string& key) const { return std::stoll(get(key)); }
};

args parse_args(int argc, char** argv) {
    if (argc < 2) throw std::invalid_argument("acbench: missing mode");
    args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (!flag.starts_with("--")) {
            throw std::invalid_argument("acbench: unexpected argument " + std::string{flag});
        }
        if (flag == "--trace") {
            a.trace = true;
        } else if (i + 1 < argc) {
            a.values[std::string{flag.substr(2)}] = argv[++i];
        } else {
            throw std::invalid_argument("acbench: " + std::string{flag} + " needs a value");
        }
    }
    return a;
}

core::world_config config_for(const std::string& tier_name, std::uint64_t seed, int threads) {
    const auto tier = core::parse_scale_tier(tier_name);
    if (!tier) throw std::invalid_argument("acbench: unknown tier " + tier_name);
    auto config = core::world_config::for_tier(*tier);
    config.seed = seed;
    config.threads = threads;
    return config;
}

// ---------------------------------------------------------------------------
// report: build the world, write the figure-CSV bundle, destroy the world.

/// Times each public analysis call write_figure_csvs makes, on a fresh
/// world of the same config (so caches start as cold as in the repetition).
/// Returns the summed milliseconds.
double time_analysis_calls(const core::world_config& config, metric_map& layers) {
    const core::world w{config};
    double total_ms = 0.0;
    const auto timed = [&](const std::string& name, const std::function<void()>& body) {
        const auto t0 = steady::now();
        body();
        const double ms = ms_since(t0);
        layers.set("analysis." + name + "_ms", ms);
        total_ms += ms;
    };
    std::optional<analysis::root_inflation_result> root;
    timed("root_inflation", [&] {
        root = analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                w.cdn_user_counts(), {}, w.pool());
    });
    std::optional<analysis::cdn_inflation_result> cdn;
    timed("cdn_inflation",
          [&] { cdn = analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net()); });
    timed("amortization", [&] {
        const auto r = analysis::compute_amortization(
            w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(),
            w.as_mapper(), w.config().query_model, {}, w.pool());
        (void)r;
    });
    timed("aspath", [&] {
        const auto r = analysis::run_aspath_study(w.fleet(), w.roots(), w.cdn_net(), w.graph());
        (void)r;
    });
    timed("probe_latency", [&] {
        double sink = 0.0;
        for (const char letter : w.roots().geographic_analysis_letters()) {
            sink += analysis::median_probe_latency(w.fleet(), w.roots().deployment_of(letter), 7);
        }
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            sink += analysis::median_probe_latency_to_ring(w.fleet(), w.cdn_net(), ring, 7);
        }
        (void)sink;
    });
    timed("coverage", [&] {
        const std::vector<double> radii{100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000, 3000};
        std::size_t points =
            analysis::compute_all_roots_coverage(w.roots(), w.users(), w.regions(), radii)
                .radii_km.size();
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            points += analysis::compute_ring_coverage(w.cdn_net(), ring, w.users(), w.regions(),
                                                      radii)
                          .radii_km.size();
        }
        for (const char letter : w.roots().geographic_analysis_letters()) {
            points += analysis::compute_coverage(w.roots().deployment_of(letter), w.users(),
                                                 w.regions(), radii)
                          .radii_km.size();
        }
        (void)points;
    });
    return total_ms;
}

repetition run_report(const args& a) {
    const auto config = config_for(a.get("tier"), static_cast<std::uint64_t>(a.num("seed")),
                                   static_cast<int>(a.num("threads")));
    const std::string out_dir = a.get("out");
    if (a.trace) obs::enable_tracing(trace_capacity);
    const auto before = counter_sample::take();

    repetition rep;
    const auto t0 = steady::now();
    std::unique_ptr<core::world> w;
    {
        obs::span span{"bench/setup"};
        w = std::make_unique<core::world>(config);
    }
    const auto t1 = steady::now();
    {
        obs::span span{"bench/figures"};
        const auto written = core::write_figure_csvs(*w, out_dir);
        rep.checks.check(written.size() == 8, "write_figure_csvs wrote " +
                                                  std::to_string(written.size()) + " files");
    }
    const auto t2 = steady::now();
    const auto timing = w->timing();
    const auto rib_stats = all_rib_stats(*w);
    {
        obs::span span{"bench/teardown"};
        w.reset();
    }
    const auto t3 = steady::now();
    const auto after = counter_sample::take();

    rep.e2e.set("setup_s", seconds_between(t0, t1));
    rep.e2e.set("work_s", seconds_between(t1, t3));
    rep.e2e.set("wall_s", seconds_between(t0, t3));
    rep.e2e.set("cpu_s", cpu_seconds());
    rep.e2e.set("peak_rss_mb", peak_rss_mb());
    if (!a.trace) return rep;

    const auto trace = collect_trace();
    put_build_stages(rep.layers, timing, seconds_between(t0, t1) * 1e3);
    put_rib_stats(rep.layers, rib_stats);
    put_trace_layers(rep.layers, trace, before, after);
    rep.layers.set("core.figures_ms", seconds_between(t1, t2) * 1e3);
    rep.layers.set("core.teardown_ms", seconds_between(t2, t3) * 1e3);
    put_trace_totals(rep.layers, trace, seconds_between(t0, t1), seconds_between(t0, t3));

    const double analysis_ms = time_analysis_calls(config, rep.layers);
    rep.layers.set("core.render_io_ms", seconds_between(t1, t2) * 1e3 - analysis_ms);
    return rep;
}

// ---------------------------------------------------------------------------
// failover: seeded drain/restore + withdraw/announce rounds over every letter.

constexpr int steps_per_round = 4;

/// The timeline text: each round drains one rng-chosen site per letter,
/// restores it, then withdraws and re-announces every letter, so each round
/// ends with every letter at its baseline. Letter order within a step is
/// shuffled; no step holds two events on one letter.
std::string failover_timeline(const core::world& w, std::uint64_t seed, int rounds) {
    rand::rng rng{rand::mix_seed(seed, 0x6661696c6f766572ULL)};  // "failover"
    std::vector<char> letters = w.roots().all_letters();
    std::ostringstream text;
    for (int round = 0; round < rounds; ++round) {
        const int base = round * steps_per_round;
        rng.shuffle(letters);
        for (const char letter : letters) {
            const auto sites = w.roots().deployment_of(letter).sites().size();
            const auto site = rng.uniform_index(sites);
            text << base + 1 << " drain " << letter << " " << site << "\n";
            text << base + 2 << " restore " << letter << " " << site << "\n";
        }
        rng.shuffle(letters);
        for (const char letter : letters) {
            text << base + 3 << " withdraw " << letter << "\n";
            text << base + 4 << " announce " << letter << "\n";
        }
    }
    return text.str();
}

/// Every round-end step must reproduce step 0 exactly for every letter.
void check_round_ends(const std::vector<scenario::step_metrics>& steps, int rounds,
                      check_tally& checks) {
    checks.check(steps.size() == static_cast<std::size_t>(rounds * steps_per_round + 1),
                 "replay returned " + std::to_string(steps.size()) + " steps");
    if (steps.empty()) return;
    const auto& baseline = steps.front().targets;
    for (std::size_t s = steps_per_round; s < steps.size(); s += steps_per_round) {
        const auto& targets = steps[s].targets;
        checks.check(targets.size() == baseline.size(), "target count changed");
        for (std::size_t t = 0; t < std::min(targets.size(), baseline.size()); ++t) {
            const auto& x = targets[t];
            const auto& b = baseline[t];
            checks.check(x.target == b.target && x.active_sites == b.active_sites &&
                             x.reach_fraction == b.reach_fraction &&
                             x.median_rtt_ms == b.median_rtt_ms && x.p90_rtt_ms == b.p90_rtt_ms &&
                             x.median_inflation_ms == b.median_inflation_ms &&
                             x.max_site_share == b.max_site_share,
                         "step " + std::to_string(s) + " letter " + x.target +
                             " differs from step 0");
        }
    }
}

repetition run_failover(const args& a) {
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const int rounds = static_cast<int>(a.num("rounds"));
    const auto config = config_for("medium", seed, static_cast<int>(a.num("threads")));
    if (a.trace) obs::enable_tracing(trace_capacity);
    const auto before = counter_sample::take();

    repetition rep;
    const auto t0 = steady::now();
    std::unique_ptr<core::world> w;
    {
        obs::span span{"bench/setup"};
        w = std::make_unique<core::world>(config);
    }
    const auto t1 = steady::now();
    std::optional<scenario::driver> drv;
    scenario::timeline tl;
    {
        obs::span span{"bench/prepare"};
        tl = scenario::parse_timeline_text(failover_timeline(*w, seed, rounds));
        drv.emplace(w->graph(), w->regions());
        for (const char letter : w->roots().all_letters()) {
            drv->add_target(std::string{letter}, w->mutable_roots().mutable_deployment_of(letter));
        }
        std::vector<scenario::weighted_source> sources;
        for (const auto& loc : w->users().locations()) {
            sources.push_back({loc.asn, loc.region, loc.users});
        }
        drv->set_sources(std::move(sources));
    }
    const auto t2 = steady::now();
    std::vector<scenario::step_metrics> steps;
    {
        obs::span span{"bench/replay"};
        steps = drv->run(tl, {.pool = w->pool(), .threads = w->timing().threads});
    }
    const auto t3 = steady::now();
    const auto timing = w->timing();
    const auto rib_stats = all_rib_stats(*w);
    {
        obs::span span{"bench/teardown"};
        drv.reset();
        w.reset();
    }
    const auto t4 = steady::now();
    const auto after = counter_sample::take();

    check_round_ends(steps, rounds, rep.checks);
    std::ostringstream csv;
    scenario::write_step_csv(csv, steps);
    {
        std::ofstream out{a.get("out"), std::ios::binary};
        out << csv.str();
        rep.checks.check(static_cast<bool>(out), "cannot write " + a.get("out"));
    }

    rep.e2e.set("setup_s", seconds_between(t0, t1));
    rep.e2e.set("work_s", seconds_between(t2, t3));
    rep.e2e.set("wall_s", seconds_between(t0, t4));
    rep.e2e.set("cpu_s", cpu_seconds());
    rep.e2e.set("peak_rss_mb", peak_rss_mb());
    if (!a.trace) return rep;

    const auto trace = collect_trace();
    put_build_stages(rep.layers, timing, seconds_between(t0, t1) * 1e3);
    put_rib_stats(rep.layers, rib_stats);
    put_trace_layers(rep.layers, trace, before, after);
    double apply_ms = 0.0;
    double analyze_ms = 0.0;
    double events = 0.0;
    double touched = 0.0;
    for (const auto& s : steps) {
        apply_ms += s.apply_ms;
        analyze_ms += s.analyze_ms;
        events += static_cast<double>(s.applied.size());
        touched += static_cast<double>(s.ases_touched);
    }
    rep.layers.set("scenario.apply_ms", apply_ms);
    rep.layers.set("scenario.analyze_ms", analyze_ms);
    rep.layers.set("scenario.events", events);
    rep.layers.set("routing.reconverge_ases_touched", touched);
    rep.layers.set("core.teardown_ms", seconds_between(t3, t4) * 1e3);
    put_trace_totals(rep.layers, trace, seconds_between(t0, t1), seconds_between(t0, t4));
    return rep;
}

// ---------------------------------------------------------------------------
// snapshot: the serve workload's untimed preparation.

int run_snapshot(const args& a) {
    const auto config = config_for("medium", static_cast<std::uint64_t>(a.num("seed")),
                                   static_cast<int>(a.num("threads")));
    const core::world w{config};
    snapshot::save_world(w, a.get("out"));
    std::cout << "{\"snapshot\": \"" << json_escape(a.get("out")) << "\"}\n";
    return 0;
}

// ---------------------------------------------------------------------------
// server: open + hydrate + index/freeze + listen, serve until "stop" arrives
// on stdin, then stop and tear down.

repetition run_server(const args& a) {
    const std::string path = a.get("snapshot");
    const int threads = static_cast<int>(a.num("threads"));
    if (a.trace) obs::enable_tracing(trace_capacity);
    const auto before = counter_sample::take();

    repetition rep;
    const auto t0 = steady::now();
    std::shared_ptr<const snapshot::bundle> bundle;
    {
        obs::span span{"bench/open"};
        bundle = snapshot::bundle::open(path, snapshot::load_mode::mapped);
    }
    const auto t1 = steady::now();
    std::unique_ptr<core::world> hydrated;
    {
        obs::span span{"bench/hydrate"};
        hydrated = snapshot::hydrate_world_ptr(std::move(bundle), threads);
    }
    const auto t2 = steady::now();
    std::unique_ptr<serve::query_engine> engine;
    {
        obs::span span{"bench/index"};
        engine = std::make_unique<serve::query_engine>(std::move(hydrated));
    }
    const auto t3 = steady::now();
    std::unique_ptr<serve::http_server> server;
    {
        obs::span span{"bench/listen"};
        server = std::make_unique<serve::http_server>(*engine, serve::http_options{});
        server->start();
    }
    const auto t4 = steady::now();
    std::cout << "listening " << server->port() << "\n" << std::flush;
    {
        obs::span span{"bench/serving"};
        std::string line;
        while (std::getline(std::cin, line) && line != "stop") {
        }
        server->stop();
    }
    const auto t5 = steady::now();
    const auto rib_stats = all_rib_stats(engine->world());
    {
        obs::span span{"bench/teardown"};
        server.reset();
        engine.reset();
    }
    const auto t6 = steady::now();
    const auto after = counter_sample::take();

    rep.e2e.set("setup_s", seconds_between(t0, t4));
    rep.e2e.set("wall_s", seconds_between(t0, t6));
    rep.e2e.set("cpu_s", cpu_seconds());
    rep.e2e.set("peak_rss_mb", peak_rss_mb());
    rep.layers.set("snapshot.open_ms", seconds_between(t0, t1) * 1e3);
    rep.layers.set("snapshot.hydrate_ms", seconds_between(t1, t2) * 1e3);
    rep.layers.set("snapshot.bytes_read", after.since(before, "snapshot.bytes_read"));
    rep.layers.set("serve.index_ms", seconds_between(t2, t3) * 1e3);
    rep.layers.set("core.teardown_ms", seconds_between(t5, t6) * 1e3);
    put_rib_stats(rep.layers, rib_stats);
    if (!a.trace) return rep;

    const auto trace = collect_trace();
    put_trace_layers(rep.layers, trace, before, after);
    put_trace_totals(rep.layers, trace, seconds_between(t0, t4), seconds_between(t0, t6));
    return rep;
}

// ---------------------------------------------------------------------------
// client: the serve workload's load generator. It hydrates its own
// query_engine from the same snapshot, draws requests from the world's own
// data, computes each expected body in process, then for every "run PORT"
// line on stdin drives one repetition against the server and prints it.

/// Weighted draws over a whole population with rng::weighted_index, in two
/// levels (a block of ~sqrt(n) keys by block weight, then a key within the
/// block by key weight) so each draw costs O(sqrt(n)) yet every key is drawn
/// with probability exactly proportional to its weight.
class key_sampler {
public:
    explicit key_sampler(std::vector<double> weights) : weights_(std::move(weights)) {
        if (weights_.empty()) throw std::invalid_argument("key_sampler: empty population");
        block_ = 1;
        while (block_ * block_ < weights_.size()) ++block_;
        for (std::size_t begin = 0; begin < weights_.size(); begin += block_) {
            const std::size_t end = std::min(weights_.size(), begin + block_);
            double total = 0.0;
            for (std::size_t i = begin; i < end; ++i) total += weights_[i];
            block_totals_.push_back(total);
        }
    }

    [[nodiscard]] std::size_t draw(rand::rng& rng) const {
        const std::size_t b = rng.weighted_index(block_totals_);
        const std::size_t begin = b * block_;
        const std::size_t len = std::min(weights_.size(), begin + block_) - begin;
        return begin + rng.weighted_index(std::span<const double>{weights_}.subspan(begin, len));
    }

private:
    std::vector<double> weights_;
    std::vector<double> block_totals_;
    std::size_t block_ = 1;
};

struct request {
    std::string target;    // request path and query
    std::string expected;  // the in-process query_engine answer
    std::vector<std::string> unknown_markers;  // substrings an unknown key must produce
};

std::string slash24_text(std::uint32_t key) {
    return std::to_string(key >> 16) + "." + std::to_string((key >> 8) & 0xff) + "." +
           std::to_string(key & 0xff) + ".0";
}

/// Per-endpoint timings of the in-process engine calls, in microseconds.
using engine_timings = std::map<std::string, std::vector<double>>;

class request_factory {
public:
    explicit request_factory(const serve::query_engine& engine) : engine_(engine) {
        const auto& users = engine.world().users();
        std::vector<double> location_weights;
        for (const auto& loc : users.locations()) location_weights.push_back(loc.users);
        locations_.emplace(std::move(location_weights));
        std::vector<double> recursive_weights;
        for (const auto& rec : users.recursives()) recursive_weights.push_back(rec.users_served);
        recursives_.emplace(std::move(recursive_weights));
        letters_ = engine.world().roots().all_letters();
        const auto asns = engine.index().asns();
        known_asns_.assign(asns.begin(), asns.end());
        std::sort(known_asns_.begin(), known_asns_.end());
        const auto keys = engine.index().slash24_keys();
        known_slash24s_.assign(keys.begin(), keys.end());
        std::sort(known_slash24s_.begin(), known_slash24s_.end());
    }

    request make(rand::rng& rng, engine_timings& timings) {
        const double pick = rng.uniform();
        if (pick < share_inflation) return inflation(rng, timings);
        if (pick < share_inflation + share_amortized) return amortized(rng, timings);
        if (pick < share_inflation + share_amortized + share_route) return route(rng, timings);
        return catchment(rng, timings);
    }

private:
    template <typename Fn>
    void timed(engine_timings& timings, const std::string& endpoint, Fn&& call) {
        const auto t0 = steady::now();
        call();
        timings[endpoint].push_back(seconds_between(t0, steady::now()) * 1e6);
    }

    request inflation(rand::rng& rng, engine_timings& timings) {
        const auto& locs = engine_.world().users().locations();
        request r;
        std::vector<topo::asn_t> asns;
        for (std::size_t i = 0; i < inflation_batch; ++i) {
            if (rng.chance(unknown_key_share)) {
                topo::asn_t asn = 0;
                do {
                    asn = static_cast<topo::asn_t>(4200000000ULL + rng.uniform_index(90000000));
                } while (std::binary_search(known_asns_.begin(), known_asns_.end(), asn));
                r.unknown_markers.push_back("{\"asn\":" + std::to_string(asn) +
                                            ",\"found\":false}");
                asns.push_back(asn);
            } else {
                asns.push_back(locs[locations_->draw(rng)].asn);
            }
        }
        r.target = "/inflation?asn=";
        for (std::size_t i = 0; i < asns.size(); ++i) {
            r.target += (i ? "," : "") + std::to_string(asns[i]);
        }
        timed(timings, "inflation", [&] { engine_.inflation_json(asns, r.expected); });
        return r;
    }

    request amortized(rand::rng& rng, engine_timings& timings) {
        const auto& recs = engine_.world().users().recursives();
        request r;
        std::vector<std::uint32_t> keys;
        for (std::size_t i = 0; i < amortized_batch; ++i) {
            if (rng.chance(unknown_key_share)) {
                std::uint32_t key = 0;
                do {  // 240.0.0.0/4 is reserved, so no world allocates it
                    key = 0xF00000u | static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
                } while (std::binary_search(known_slash24s_.begin(), known_slash24s_.end(), key));
                r.unknown_markers.push_back("{\"slash24\":\"" + slash24_text(key) +
                                            "/24\",\"found\":false}");
                keys.push_back(key);
            } else {
                keys.push_back(recs[recursives_->draw(rng)].block.key());
            }
        }
        r.target = "/amortized?slash24=";
        for (std::size_t i = 0; i < keys.size(); ++i) {
            r.target += (i ? "," : "") + slash24_text(keys[i]);
        }
        timed(timings, "amortized", [&] { engine_.amortized_json(keys, r.expected); });
        return r;
    }

    request route(rand::rng& rng, engine_timings& timings) {
        const auto& loc = engine_.world().users().locations()[locations_->draw(rng)];
        const char letter = letters_[rng.uniform_index(letters_.size())];
        request r;
        r.target = std::string{"/route?letter="} + letter + "&asn=" + std::to_string(loc.asn) +
                   "&region=" + std::to_string(loc.region);
        timed(timings, "route", [&] {
            if (!engine_.route_json(letter, loc.asn, loc.region, r.expected)) {
                throw std::logic_error("route_json rejected a known letter");
            }
        });
        return r;
    }

    request catchment(rand::rng& rng, engine_timings& timings) {
        const char letter = letters_[rng.uniform_index(letters_.size())];
        const auto sites = engine_.world().roots().deployment_of(letter).sites().size();
        std::vector<std::uint32_t> ids;
        const std::size_t count = 1 + rng.uniform_index(3);
        for (std::size_t i = 0; i < count; ++i) {
            ids.push_back(static_cast<std::uint32_t>(rng.uniform_index(sites)));
        }
        request r;
        r.target = std::string{"/catchment?letter="} + letter + "&site=";
        for (std::size_t i = 0; i < ids.size(); ++i) {
            r.target += (i ? "," : "") + std::to_string(ids[i]);
        }
        timed(timings, "catchment", [&] {
            if (!engine_.catchment_json(letter, ids, r.expected)) {
                throw std::logic_error("catchment_json rejected an in-range site");
            }
        });
        return r;
    }

    const serve::query_engine& engine_;
    std::optional<key_sampler> locations_;
    std::optional<key_sampler> recursives_;
    std::vector<char> letters_;
    std::vector<topo::asn_t> known_asns_;
    std::vector<std::uint32_t> known_slash24s_;
};

enum class reply_state { partial, done, failed };

/// One keep-alive HTTP/1.1 connection to the server under test. run_phase
/// sends a request, then hands the connection whatever has arrived, read
/// without blocking, until a whole reply is parsed.
class connection {
public:
    explicit connection(std::uint16_t port) : port_(port) { open(); }
    ~connection() { close_fd(); }
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;

    [[nodiscard]] int fd() const { return fd_; }

    /// Sends one GET; false on a connection error (the connection is then
    /// reopened for the next request).
    bool send_request(const std::string& target) {
        request_.clear();
        request_ += "GET ";
        request_ += target;
        request_ += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
        if (fd_ < 0 && !open()) return false;
        if (!send_all(request_)) {
            close_fd();
            return false;
        }
        return true;
    }

    /// Reads what has arrived: done (status and body set) once a whole
    /// reply is in, partial while bytes are missing, failed on a connection
    /// error or a malformed reply (the connection is then closed).
    reply_state on_readable(int& status, std::string& body) {
        char chunk[16384];
        bool closed = false;
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n > 0) {
                buffer_.append(chunk, static_cast<std::size_t>(n));
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
                break;
            }
        }
        const reply_state state = parse_reply(status, body);
        if (closed || state == reply_state::failed) close_fd();
        return closed && state == reply_state::partial ? reply_state::failed : state;
    }

    /// Gives up on the request in flight.
    void abandon() { close_fd(); }

private:
    bool open() {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) return false;
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port_);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            close_fd();
            return false;
        }
        return true;
    }

    void close_fd() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
        buffer_.clear();
    }

    /// Sends block, but a request is under a kilobyte and only one is in
    /// flight, so the socket buffer always has room.
    bool send_all(std::string_view data) {
        while (!data.empty()) {
            const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
            if (n <= 0) return false;
            data.remove_prefix(static_cast<std::size_t>(n));
        }
        return true;
    }

    reply_state parse_reply(int& status, std::string& body) {
        const std::size_t header_end = buffer_.find("\r\n\r\n");
        if (header_end == std::string::npos) {
            return buffer_.size() > 65536 ? reply_state::failed : reply_state::partial;
        }
        const std::string_view headers{buffer_.data(), header_end};
        const std::size_t cl = headers.find("Content-Length: ");
        if (!headers.starts_with("HTTP/1.1 ") || headers.size() < 12 ||
            cl == std::string_view::npos) {
            return reply_state::failed;
        }
        std::size_t length = 0;
        const char* const end = headers.data() + headers.size();
        const auto status_parse = std::from_chars(headers.data() + 9, headers.data() + 12, status);
        const auto length_parse = std::from_chars(headers.data() + cl + 16, end, length);
        if (status_parse.ec != std::errc{} || length_parse.ec != std::errc{}) {
            return reply_state::failed;
        }
        const std::size_t body_begin = header_end + 4;
        if (buffer_.size() < body_begin + length) return reply_state::partial;
        body.assign(buffer_, body_begin, length);
        buffer_.erase(0, body_begin + length);
        return reply_state::done;
    }

    std::uint16_t port_;
    int fd_ = -1;
    std::string request_;
    std::string buffer_;
};

struct request_outcome {
    bool ok = false;              // 200 and the expected body
    std::uint64_t body_hash = 0;  // FNV-1a of the received body
    double latency_us = 0.0;      // open loop: from the due time
    double late_us = 0.0;         // open loop: send time minus due time
};

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Checks one reply against its request and records the outcome.
void judge(const request& req, bool transport_ok, int status, std::string& body, bool corrupt,
           request_outcome& out) {
    if (corrupt && !body.empty()) body[body.size() / 2] ^= 0x01;
    out.body_hash = fnv1a(body);
    out.ok = transport_ok && status == 200 && body == req.expected;
    for (const auto& marker : req.unknown_markers) {
        out.ok = out.ok && body.find(marker) != std::string::npos;
    }
}

/// Drives one phase over every connection from this one thread, with one
/// request in flight per connection at most. rate_rps > 0 is an open loop:
/// request i is due i / rate_rps after the start and goes out on connection
/// i mod the connection count once it is due and that connection is free.
/// 0 is a closed loop: a connection sends the next request as soon as its
/// last reply is in. Returns the phase's elapsed seconds.
double run_phase(std::vector<std::unique_ptr<connection>>& conns,
                 const std::vector<request>& reqs, double rate_rps, bool corrupt_first,
                 std::vector<request_outcome>& outcomes) {
    constexpr std::size_t idle = std::numeric_limits<std::size_t>::max();
    const bool open_loop = rate_rps > 0.0;
    const std::size_t count = conns.size();
    outcomes.assign(reqs.size(), {});
    const auto start = steady::now() + std::chrono::milliseconds(2);
    const auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<steady::duration>(
                           std::chrono::duration<double>(static_cast<double>(i) / rate_rps));
    };
    std::vector<std::size_t> in_flight(count, idle);
    std::vector<steady::time_point> sent(count);
    std::vector<std::size_t> next_open(count);  // open loop: each connection's next request
    for (std::size_t c = 0; c < count; ++c) next_open[c] = c;
    std::size_t next_closed = 0;
    std::size_t finished = 0;
    int status = 0;
    std::string body;
    const auto finish = [&](std::size_t c, bool ok) {
        const std::size_t i = in_flight[c];
        const auto done = steady::now();
        if (!ok) body.clear();
        auto& out = outcomes[i];
        judge(reqs[i], ok, status, body, corrupt_first && i == 0, out);
        out.latency_us = seconds_between(open_loop ? due(i) : sent[c], done) * 1e6;
        out.late_us = open_loop ? seconds_between(due(i), sent[c]) * 1e6 : 0.0;
        in_flight[c] = idle;
        ++finished;
    };

    std::this_thread::sleep_until(start);
    std::vector<pollfd> polled;
    std::vector<std::size_t> polled_conn;
    while (finished < reqs.size()) {
        auto wake = steady::now() + std::chrono::milliseconds(100);
        for (std::size_t c = 0; c < count; ++c) {
            if (in_flight[c] != idle) continue;
            std::size_t& next = open_loop ? next_open[c] : next_closed;
            if (next >= reqs.size()) continue;
            if (open_loop && due(next) > steady::now()) {
                wake = std::min(wake, due(next));
                continue;
            }
            in_flight[c] = next;
            next += open_loop ? count : 1;
            sent[c] = steady::now();
            if (!conns[c]->send_request(reqs[in_flight[c]].target)) finish(c, false);
        }
        polled.clear();
        polled_conn.clear();
        for (std::size_t c = 0; c < count; ++c) {
            if (in_flight[c] == idle) continue;
            polled.push_back({conns[c]->fd(), POLLIN, 0});
            polled_conn.push_back(c);
        }
        // With a request in flight, poll without waiting: a reply then
        // never has to wake this thread (see run.py's CLIENT_CONNS).
        const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
            polled.empty() ? std::max(steady::duration::zero(), wake - steady::now())
                           : steady::duration::zero());
        const timespec timeout{static_cast<time_t>(wait.count() / 1'000'000'000),
                               static_cast<long>(wait.count() % 1'000'000'000)};
        const int ready = ::ppoll(polled.data(), polled.size(), &timeout, nullptr);
        if (ready < 0 && errno != EINTR) throw std::runtime_error("acbench: ppoll failed");
        // Hand the core to the server's connection thread, which run.py pins
        // to the same core as this client.
        if (ready == 0 && !polled.empty()) std::this_thread::yield();
        for (std::size_t k = 0; k < polled.size(); ++k) {
            const std::size_t c = polled_conn[k];
            if (polled[k].revents == 0) {
                if (steady::now() - sent[c] > reply_timeout) {
                    conns[c]->abandon();
                    finish(c, false);
                }
                continue;
            }
            const reply_state state = conns[c]->on_readable(status, body);
            if (state != reply_state::partial) finish(c, state == reply_state::done);
        }
    }
    return seconds_between(start, steady::now());
}

int run_client(const args& a) {
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const auto conn_count = static_cast<std::size_t>(a.num("conns"));
    // A serial hydration keeps the client's own threads to the connections.
    const serve::query_engine engine{snapshot::hydrate_world_ptr(
        snapshot::bundle::open(a.get("snapshot"), snapshot::load_mode::mapped), 1)};
    request_factory factory{engine};
    engine_timings timings;
    const auto generate = [&](std::uint64_t tag, std::size_t count) {
        rand::rng rng{rand::mix_seed(seed, 0x7365727665ULL, tag)};  // "serve"
        std::vector<request> reqs;
        reqs.reserve(count);
        for (std::size_t i = 0; i < count; ++i) reqs.push_back(factory.make(rng, timings));
        return reqs;
    };
    const auto low = generate(1, static_cast<std::size_t>(low_rate_rps * open_phase_s));
    const auto high = generate(2, static_cast<std::size_t>(high_rate_rps * open_phase_s));
    const auto closed = generate(3, closed_requests);
    std::cout << "ready\n" << std::flush;

    std::string line;
    while (std::getline(std::cin, line)) {
        std::istringstream command{line};
        std::string verb;
        int port = 0;
        std::string flag;
        command >> verb >> port >> flag;
        if (verb != "run") break;
        const bool corrupt = flag == "corrupt";

        repetition rep;
        std::vector<std::unique_ptr<connection>> conns;
        for (std::size_t c = 0; c < conn_count; ++c) {
            conns.push_back(std::make_unique<connection>(static_cast<std::uint16_t>(port)));
        }
        // One /healthz per connection first, so the server's per-connection
        // thread start is not charged to the low phase's first requests.
        const std::vector<request> warm_up(conn_count, request{"/healthz", "ok\n", {}});
        std::vector<request_outcome> warm_up_out;
        run_phase(conns, warm_up, 0.0, false, warm_up_out);
        for (const auto& out : warm_up_out) rep.checks.check(out.ok, "healthz warm-up");
        std::vector<request_outcome> low_out;
        std::vector<request_outcome> high_out;
        std::vector<request_outcome> closed_out;
        run_phase(conns, low, low_rate_rps, false, low_out);
        run_phase(conns, high, high_rate_rps, false, high_out);
        const double closed_s = run_phase(conns, closed, 0.0, corrupt, closed_out);
        conns.clear();

        std::vector<double> late;
        int within_limit = 0;
        const auto summarize = [&](const std::string& name, const std::vector<request>& reqs,
                                   const std::vector<request_outcome>& outs, bool open_loop) {
            std::vector<double> latency;
            std::uint64_t hash = 1469598103934665603ULL;
            for (std::size_t i = 0; i < outs.size(); ++i) {
                rep.checks.check(outs[i].ok, name + " request " + std::to_string(i) + " " +
                                                 reqs[i].target);
                latency.push_back(outs[i].latency_us);
                if (open_loop) late.push_back(outs[i].late_us);
                hash = fnv1a(std::string_view{reinterpret_cast<const char*>(&outs[i].body_hash),
                                              sizeof outs[i].body_hash},
                             hash);
            }
            rep.outputs["serve." + name + ".bodies"] = hex64(hash);
            if (!open_loop) return;
            const double p99 = percentile(latency, 0.99);
            rep.layers.set("serve." + name + ".p50_us", percentile(latency, 0.50));
            rep.layers.set("serve." + name + ".p99_us", p99);
            within_limit += p99 <= latency_limit_us ? 1 : 0;
        };
        summarize("low", low, low_out, true);
        summarize("high", high, high_out, true);
        summarize("closed", closed, closed_out, false);
        rep.e2e.set("work_s", closed_s);
        rep.layers.set("serve.closed.rps", static_cast<double>(closed.size()) / closed_s);
        rep.layers.set("serve.gen_late_us", percentile(late, 0.99));
        rep.layers.set("serve.requests",
                       static_cast<double>(low.size() + high.size() + closed.size()));
        rep.layers.set("serve.open_phases_within_limit", within_limit);
        for (const auto& [endpoint, us] : timings) {
            rep.layers.set("serve.engine_us." + endpoint, percentile(us, 0.50));
        }
        rep.print();
    }
    return 0;
}

// ---------------------------------------------------------------------------

int run_provenance() {
    std::cout << "{\"build_type\": \"" << json_escape(ACBENCH_BUILD_TYPE) << "\", \"flags\": \""
              << json_escape(ACBENCH_CXX_FLAGS) << "\", \"compiler\": \""
              << json_escape(ACBENCH_COMPILER) << "\", \"optimized\": "
#if defined(__OPTIMIZE__)
              << "true"
#else
              << "false"
#endif
              << ", \"sanitized\": "
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
              << "true"
#else
              << "false"
#endif
              << "}\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const args a = parse_args(argc, argv);
        if (a.mode == "provenance") return run_provenance();
        if (a.mode == "snapshot") return run_snapshot(a);
        if (a.mode == "client") return run_client(a);
        if (a.mode == "report") {
            run_report(a).print();
        } else if (a.mode == "failover") {
            run_failover(a).print();
        } else if (a.mode == "server") {
            run_server(a).print();
        } else {
            throw std::invalid_argument("acbench: unknown mode " + a.mode);
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
