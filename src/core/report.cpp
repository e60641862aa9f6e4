#include "src/core/report.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"
#include "src/obs/trace.h"

namespace ac::core {

namespace {

std::ofstream open_csv(const std::filesystem::path& path, const std::string& header) {
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error("report: cannot open " + path.string() + " for writing");
    }
    out << header << "\n";
    out.precision(10);
    return out;
}

void write_cdf(std::ofstream& out, const std::string& series,
               const analysis::weighted_cdf& cdf, int points) {
    for (const auto& [value, q] : cdf.curve(points)) {
        out << series << "," << value << "," << q << "\n";
    }
}

/// Runs one figure producer inside its `report/<producer>` span.
template <class Producer>
auto produce(std::string_view span_name, Producer&& producer) {
    const obs::span span{span_name};
    return producer();
}

} // namespace

std::vector<std::string> write_figure_csvs(const world& w, const std::string& directory,
                                           const report_options& options) {
    const std::filesystem::path dir{directory};
    std::filesystem::create_directories(dir);
    std::vector<std::string> written;
    // Writes one figure file inside a `report/write/<stem>` span; the stream
    // closes (and flushes) before the span ends.
    auto write_csv = [&](const std::string& file, const std::string& header, auto&& rows) {
        const auto path = dir / file;
        const obs::span span{"report/write/" + path.stem().string()};
        auto out = open_csv(path, header);
        rows(out);
        written.push_back(path.string());
    };
    const auto& cdn = w.cdn_net();
    const auto letters = w.roots().geographic_analysis_letters();

    const auto root_inflation = produce("report/root_inflation", [&] {
        return analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                w.cdn_user_counts(), {}, w.pool());
    });
    const auto cdn_inflation = produce("report/cdn_inflation", [&] {
        return analysis::compute_cdn_inflation(w.server_log_table(), cdn);
    });

    write_csv("fig02a_root_geographic_inflation.csv", "series,inflation_ms,cdf", [&](auto& out) {
        for (const auto& [letter, cdf] : root_inflation.geographic) {
            write_cdf(out, std::string{letter}, cdf, options.cdf_points);
        }
        write_cdf(out, "all-roots", root_inflation.geographic_all_roots, options.cdf_points);
    });
    write_csv("fig02b_root_latency_inflation.csv", "series,inflation_ms,cdf", [&](auto& out) {
        for (const auto& [letter, cdf] : root_inflation.latency) {
            write_cdf(out, std::string{letter}, cdf, options.cdf_points);
        }
        write_cdf(out, "all-roots", root_inflation.latency_all_roots, options.cdf_points);
    });

    const auto amortized = produce("report/amortization", [&] {
        return analysis::compute_amortization(w.filtered_tables(), w.users(),
                                              w.cdn_user_counts(), w.apnic_user_counts(),
                                              w.as_mapper(), w.config().query_model, {},
                                              w.pool());
    });
    write_csv("fig03_queries_per_user.csv", "series,queries_per_user_day,cdf", [&](auto& out) {
        write_cdf(out, "ideal", amortized.ideal, options.cdf_points);
        write_cdf(out, "cdn", amortized.cdn, options.cdf_points);
        write_cdf(out, "apnic", amortized.apnic, options.cdf_points);
    });

    write_csv("fig05a_cdn_geographic_inflation.csv", "series,inflation_ms,cdf", [&](auto& out) {
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            write_cdf(out, cdn.ring_name(ring),
                      cdn_inflation.geographic_by_ring[static_cast<std::size_t>(ring)],
                      options.cdf_points);
        }
        write_cdf(out, "root-dns", root_inflation.geographic_all_roots, options.cdf_points);
    });
    write_csv("fig05b_cdn_latency_inflation.csv", "series,inflation_ms,cdf", [&](auto& out) {
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            write_cdf(out, cdn.ring_name(ring),
                      cdn_inflation.latency_by_ring[static_cast<std::size_t>(ring)],
                      options.cdf_points);
        }
        write_cdf(out, "root-dns", root_inflation.latency_all_roots, options.cdf_points);
    });

    const auto aspath = produce("report/aspath", [&] {
        return analysis::run_aspath_study(w.fleet(), w.roots(), cdn, w.graph());
    });
    write_csv("fig06a_as_path_lengths.csv", "destination,bucket,share", [&](auto& out) {
        static constexpr const char* buckets[] = {"2", "3", "4", "5+"};
        for (const auto& d : aspath.lengths) {
            for (std::size_t b = 0; b < 4; ++b) {
                out << d.destination << "," << buckets[b] << "," << d.share[b] << "\n";
            }
        }
    });

    // Median probe RTTs: the geographic letters, then the rings.
    const auto probe_ms = produce("report/probe_latency", [&] {
        std::vector<double> ms;
        for (char letter : letters) {
            ms.push_back(
                analysis::median_probe_latency(w.fleet(), w.roots().deployment_of(letter), 7));
        }
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            ms.push_back(analysis::median_probe_latency_to_ring(w.fleet(), cdn, ring, 7));
        }
        return ms;
    });
    write_csv("fig07a_size_latency_efficiency.csv", "deployment,sites,median_ms,efficiency",
              [&](auto& out) {
                  std::size_t i = 0;
                  for (char letter : letters) {
                      out << letter << ","
                          << w.roots().deployment_of(letter).global_site_count() << ","
                          << probe_ms[i++] << "," << root_inflation.efficiency(letter) << "\n";
                  }
                  for (int ring = 0; ring < cdn.ring_count(); ++ring) {
                      out << cdn.ring_name(ring) << "," << cdn.ring_size(ring) << ","
                          << probe_ms[i++] << "," << cdn_inflation.efficiency(ring) << "\n";
                  }
              });

    const auto coverage = produce("report/coverage", [&] {
        const std::vector<double> radii{100, 250,  500,  750,  1000,
                                        1250, 1500, 1750, 2000, 3000};
        std::vector<analysis::coverage_curve> curves;
        curves.push_back(
            analysis::compute_all_roots_coverage(w.roots(), w.users(), w.regions(), radii));
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            curves.push_back(
                analysis::compute_ring_coverage(cdn, ring, w.users(), w.regions(), radii));
        }
        for (char letter : letters) {
            curves.push_back(analysis::compute_coverage(w.roots().deployment_of(letter),
                                                        w.users(), w.regions(), radii));
        }
        return curves;
    });
    write_csv("fig07b_coverage.csv", "deployment,radius_km,covered_fraction", [&](auto& out) {
        for (const auto& curve : coverage) {
            for (std::size_t i = 0; i < curve.radii_km.size(); ++i) {
                out << curve.name << "," << curve.radii_km[i] << ","
                    << curve.covered_fraction[i] << "\n";
            }
        }
    });
    return written;
}

} // namespace ac::core
