// BGP-style anycast route computation.
//
// For each anycast site (an announcement from a host AS at a region), routes
// propagate through the AS graph under standard Gao-Rexford policy:
//
//   * export: customer-learned routes go to everyone; peer- and
//     provider-learned routes go only to customers (valley-free);
//     `local` scope announcements reach direct neighbors only (§2.1's
//     local root sites, implemented by limiting BGP propagation).
//   * selection: local-preference by relationship (customer > peer >
//     provider), then shortest AS path — BGP's top criteria as discussed in
//     §7.1 — then, among equal candidates, hot-potato/early-exit chosen at
//     evaluation time per source region (lowest IGP cost, §7.1).
//
// Latency is *derived from the chosen path's geography*: the evaluator walks
// the AS path hop by hop, picking at each inter-AS link the interconnection
// point nearest the current position (early exit) and accumulating
// great-circle distance scaled by the link's circuitousness. Inflation is
// therefore an emergent property of policy routing over the synthetic graph,
// never an injected quantity.
//
// Route selection is the fast path of the whole system (every figure funnels
// through `select`), so the RIB is built for O(1)-amortized queries
// (DESIGN §8):
//
//   * the route matrix is a flat struct-of-arrays (site-major), not a
//     vector-of-vectors;
//   * a per-AS best-route index (best class, best length, CSR candidate
//     lists, direct-route flag) is precomputed once after propagation, so
//     `best_candidates` and `has_direct_route` never rescan site tables;
//   * all geographic terms come from the region-pair distance matrix
//     (`topo::region_table::distance_km`): early exit scans the link's own
//     few interconnect regions, one matrix read per candidate, with no
//     per-RIB table and no haversine trig at query time;
//   * `select` results are memoized in a sharded, lazily-filled cache.
//     Selection is a pure function of (asn, region), so cached and uncached
//     results are bit-identical, and concurrent fills are race-safe: any
//     thread that computes a key computes the same bytes, and the first
//     insert wins.
//
// The RIB is *mutable* (DESIGN §11): per-source `announce`/`withdraw` entry
// points re-converge incrementally. Because every site owns a disjoint route
// row, an event only rewrites that one row; the per-AS best-route index is
// then repaired for exactly the ASes whose row entry changed (the event's
// frontier), and only the select-cache shards holding those ASes are
// invalidated. The repair is done while the row is walked, with O(1)
// comparisons per touched AS (plus a sorted insert or erase in its candidate
// list), so an event costs O(touched) rather than O(touched × sites):
//
//   * a removed route that was best leaves the sorted candidate list; a
//     removed worse route changes nothing;
//   * an added route sets the direct flag if its path has at most 2 ASes,
//     becomes the sole best if better, joins the list in site order if
//     equal, and changes nothing else if worse;
//   * only when a removal empties the list (the best worsens), or drops a
//     route of at most 2 ASes while no best route is that short (the
//     direct flag may clear), is the AS's column rescanned, exactly as the
//     bulk build scans it.
//
// Nothing else — other rows, the geo tables, untouched index slots,
// untouched cache shards — is rebuilt. A `shared_mutex` makes
// mutation safe against concurrent selects: readers see either the pre- or
// the post-event state, never a torn one, and the post-event state is
// byte-identical to a from-scratch rebuild with the same announcement set.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/engine/thread_pool.h"
#include "src/topology/addressing.h"
#include "src/topology/as_graph.h"
#include "src/topology/region.h"

namespace ac::route {

using site_id = std::uint32_t;

enum class announcement_scope : std::uint8_t {
    global,  // normal propagation
    local,   // direct neighbors only (no re-export)
};

/// One anycast site's BGP announcement.
struct announcement {
    site_id site = 0;
    topo::asn_t origin_asn = 0;
    topo::region_id origin_region = 0;
    announcement_scope scope = announcement_scope::global;
    /// Traffic engineering (§7.1): neighbors the origin does NOT announce
    /// this site to — "not announcing to particular ASes at particular
    /// peering points" when they make poor routing decisions. Those
    /// neighbors can still learn the site transitively through others.
    std::vector<topo::asn_t> suppressed_neighbors;
    /// AS-path prepending (§7.1's other TE lever): the origin announces an
    /// artificially lengthened path, making this site lose path-length
    /// tie-breaks everywhere without withdrawing it.
    std::uint8_t prepend = 0;
    /// A withdrawn announcement defines the site (it keeps its dense id and
    /// its RTT-jitter identity) but contributes no routes until `announce`
    /// re-activates it. This is how scenario timelines express drained
    /// sites without renumbering — renumbering would change output bytes.
    bool withdrawn = false;
};

/// Route class in local-preference order (smaller value = more preferred).
enum class route_class : std::uint8_t {
    origin = 0,    // the AS itself originates the prefix
    customer = 1,  // learned from a customer
    peer = 2,      // learned from a peer
    provider = 3,  // learned from a provider
    none = 4,
};

/// The best route an AS holds toward one specific site.
struct site_route {
    route_class cls = route_class::none;
    std::uint8_t path_len = 0;          // number of ASes on the path, incl. both ends
    topo::asn_t next_hop = 0;           // 0 at the origin
    std::uint32_t link_index = 0;       // link to next_hop (valid unless origin)

    friend bool operator==(const site_route&, const site_route&) = default;
};

/// A fully evaluated path from a source <region, AS> to a site.
struct path_result {
    site_id site = 0;
    std::vector<topo::asn_t> as_path;   // source AS first, origin AS last
    double rtt_ms = 0.0;                // steady-state (median) round-trip time
    double path_km = 0.0;               // one-way geographic distance travelled
    double direct_km = 0.0;             // great-circle source-to-site distance

    friend bool operator==(const path_result&, const path_result&) = default;
};

/// One <AS, region> traffic source, for bulk route evaluation.
struct source_key {
    topo::asn_t asn = 0;
    topo::region_id region = 0;
};

/// Routing state for one anycast prefix (one deployment or ring).
class anycast_rib {
public:
    /// With a non-serial `pool`, per-site propagation and the fast-path index
    /// build run in parallel (each site owns a disjoint matrix row and each
    /// AS owns its index slot, so the result is schedule-free).
    anycast_rib(const topo::as_graph& graph, const topo::region_table& regions,
                std::vector<announcement> announcements, engine::thread_pool* pool = nullptr);

    /// Work done by one incremental re-convergence (announce or withdraw).
    struct reconverge_stats {
        std::size_t ases_touched = 0;              // index slots repaired
        std::size_t cache_entries_invalidated = 0; // memoized selects dropped
        std::size_t cache_shards_visited = 0;      // shards that held them
    };

    /// Withdraws `site`'s announcement and re-converges incrementally:
    /// clears the site's route row, repairs the best-route index for
    /// exactly the ASes that held a route to it, and invalidates only the
    /// select-cache shards containing those ASes. Every other site's routes
    /// are untouched (per-site rows are independent). No-op on an already
    /// withdrawn site. Thread-safe against concurrent selects; afterwards
    /// `select` is byte-identical to a from-scratch rebuild without the
    /// site. Throws std::out_of_range on an unknown site.
    reconverge_stats withdraw(site_id site);

    /// (Re-)announces a site and re-converges incrementally. `a.site` must
    /// be an existing site id (re-announce: scope/prepend/suppression/origin
    /// may all change) or exactly `site_count()` (a brand-new site, whose
    /// row is appended). The changed row is re-propagated from scratch and
    /// the index repaired and the cache invalidated for the union of ASes
    /// that held the old route or hold the new one. Throws
    /// std::invalid_argument on an unknown origin ASN or a non-dense site id.
    reconverge_stats announce(announcement a);

    /// True if `site` is currently withdrawn (no routes).
    [[nodiscard]] bool is_withdrawn(site_id site) const;

    /// Total sites this RIB knows (withdrawn ones included).
    [[nodiscard]] std::size_t site_count() const noexcept { return announcements_.size(); }

    /// Sites currently announced.
    [[nodiscard]] std::size_t active_site_count() const;

    /// Sites for which `asn` holds any route, restricted to the best
    /// (class, path length) — BGP's deterministic criteria. Hot-potato
    /// resolution among these happens per region in `select`. O(1) lookup
    /// into the precomputed best-route index.
    [[nodiscard]] std::vector<site_id> best_candidates(topo::asn_t asn) const;

    /// The route `asn` holds toward `site`, if any.
    [[nodiscard]] std::optional<site_route> route_toward(topo::asn_t asn, site_id site) const;

    /// Evaluates the concrete path from <asn, region> to `site`, walking the
    /// AS path geographically. Returns nullopt if the AS has no route.
    [[nodiscard]] std::optional<path_result> evaluate(topo::asn_t asn, topo::region_id region,
                                                      site_id site) const;

    /// Full selection for a source <region, AS>: picks among best_candidates
    /// by lowest first-segment IGP distance (early exit), returning the
    /// evaluated path. Returns nullopt if the AS has no route at all.
    /// Memoized: repeat queries for the same (asn, region) are cache hits.
    /// Thread-safe, and byte-identical at any thread count (selection is
    /// pure, so every fill of a key stores the same value).
    [[nodiscard]] std::optional<path_result> select(topo::asn_t asn, topo::region_id region) const;

    /// `select` without the memoization layer: always recomputes, never reads
    /// or writes the cache. Differential-testing and cold-benchmark surface.
    [[nodiscard]] std::optional<path_result> select_uncached(topo::asn_t asn,
                                                             topo::region_id region) const;

    /// Pre-fast-path reference implementation: rescans every site's route
    /// row per call and evaluates hot-potato geometry with on-the-fly
    /// haversine instead of distance-matrix reads. Kept so tests can assert
    /// the fast path is bit-identical and benchmarks can measure the win.
    [[nodiscard]] std::optional<path_result> select_reference(topo::asn_t asn,
                                                              topo::region_id region) const;

    /// Bulk `select` over many sources, chunked across the pool (inline when
    /// `pool` is null or serial). Result i corresponds to sources[i];
    /// evaluation is stateless per source, so output is thread-count
    /// independent.
    [[nodiscard]] std::vector<std::optional<path_result>> select_many(
        std::span<const source_key> sources, engine::thread_pool* pool = nullptr) const;

    /// True if this AS reaches the deployment through a route learned
    /// directly from the origin AS (a "2 AS" path in Fig. 6a terms).
    /// O(1) lookup into the precomputed per-AS flag.
    [[nodiscard]] bool has_direct_route(topo::asn_t asn) const;

    [[nodiscard]] const std::vector<announcement>& announcements() const noexcept {
        return announcements_;
    }

    /// ASNs this RIB holds routes for (the graph snapshot at construction;
    /// ASes attached to the graph later are unknown to this RIB).
    [[nodiscard]] std::span<const topo::asn_t> known_asns() const noexcept { return asns_; }

    /// Read-only struct-of-arrays view over one site's route row
    /// (src/table/column.h-style spans; position = dense AS index, aligned
    /// with known_asns()). `next_index` is the dense index of the next hop,
    /// or `no_next_hop` at the origin and for absent routes.
    struct site_route_view {
        std::span<const std::uint8_t> cls;        // route_class values
        std::span<const std::uint8_t> path_len;
        std::span<const std::uint32_t> next_index;
        std::span<const std::uint32_t> link_index;
    };
    static constexpr std::uint32_t no_next_hop = std::numeric_limits<std::uint32_t>::max();
    [[nodiscard]] site_route_view site_routes(site_id site) const;

    /// Memoization counters (monotone; relaxed atomics). Under concurrent
    /// fills `misses` counts computations, which can slightly exceed the
    /// number of distinct keys when two threads race on the same key.
    /// Post-freeze lookups are counted separately (`frozen_hits` /
    /// `frozen_misses`), so the sharded counters keep describing the
    /// mutex-guarded path alone: a frozen miss that falls through to the
    /// shards is counted on both layers.
    struct cache_stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;  // entries dropped by announce/withdraw
        bool frozen = false;              // a sealed table is currently published
        std::uint64_t frozen_hits = 0;    // lookups answered by the sealed table
        std::uint64_t frozen_misses = 0;  // lookups that fell through to the shards

        /// Hit fraction over all lookups; 0.0 before the first lookup (the
        /// zero-query case must not divide by zero).
        [[nodiscard]] double hit_rate() const noexcept {
            const std::uint64_t lookups = hits + misses;
            return lookups == 0 ? 0.0
                                : static_cast<double>(hits) / static_cast<double>(lookups);
        }
    };
    [[nodiscard]] cache_stats select_cache_stats() const noexcept {
        return {cache_hits_.load(std::memory_order_relaxed),
                cache_misses_.load(std::memory_order_relaxed),
                cache_invalidations_.load(std::memory_order_relaxed),
                frozen_.load(std::memory_order_acquire) != nullptr,
                frozen_hits_.load(std::memory_order_relaxed),
                frozen_misses_.load(std::memory_order_relaxed)};
    }

    /// Seals the selects currently memoized in the sharded cache into an
    /// immutable open-addressing table and publishes it, making subsequent
    /// `select` calls for sealed keys wait-free: no shard mutex, no
    /// `topo_mutex_` shared lock, just a probe over const arrays. Returns
    /// the number of entries sealed. Keys that were never warmed fall
    /// through to the normal locked path (counted as `frozen_misses`).
    ///
    /// Intended for read-only serving (`acctx serve`): warm the cache with
    /// `select_many` over the query population, then freeze. Any later
    /// `announce`/`withdraw`/`clear_select_cache` unpublishes the table
    /// (stats report frozen = false again); the sealed storage is retired,
    /// not freed, so in-flight wait-free probes stay valid — a concurrent
    /// reader may observe the pre-event selection, which is a consistent
    /// (never torn) historical state. Not safe to call concurrently with
    /// itself; calling again re-seals the current shard contents.
    std::size_t freeze_select_cache();

    /// Wait-free probe of the frozen table: returns a pointer to the sealed
    /// result (valid until the RIB is destroyed — retired tables are kept),
    /// or nullptr when nothing is frozen or the key was not sealed. Never
    /// locks, never allocates, never copies. Counts frozen_hits only (a
    /// nullptr return is not counted; use `select` for fall-through).
    [[nodiscard]] const std::optional<path_result>* select_frozen(
        topo::asn_t asn, topo::region_id region) const noexcept;

    /// Empties every select-cache shard (counters are left alone). Makes
    /// subsequent invalidation work counts a pure function of the queries
    /// run since, independent of prior process history — the scenario
    /// driver calls this so its per-step work accounting is reproducible
    /// whether the world came from a live build or a snapshot.
    void clear_select_cache();

private:
    void propagate(const announcement& a);
    void build_fast_path(engine::thread_pool* pool);
    /// Fallback of the index repair, for a removal that empties an AS's
    /// candidate list or may clear its direct flag: rescans the AS's whole
    /// column for its best (class, len), direct flag, and candidate list,
    /// writing candidates into the overlay. Same scan order and comparisons
    /// as the bulk build, so the result is byte-identical to a from-scratch
    /// index. Counted by `route.reconverge.rescans`.
    void recompute_as_index(std::size_t as);
    /// Clears `site`'s route row, marking every AS that held a route in
    /// `touched` (bitmap by dense index) and repairing its index entry for
    /// the removed route.
    void clear_row(site_id site, std::vector<std::uint8_t>& touched);
    /// The AS's mutable candidate list: on first touch it is copied out of
    /// the CSR into the overlay (activating the overlay layer on the RIB's
    /// first mutation).
    std::vector<site_id>& overlay_list(std::size_t as);
    /// Drops memoized selects for the touched ASes, visiting only the cache
    /// shards that can hold them. Returns (entries erased, shards visited).
    std::pair<std::size_t, std::size_t> invalidate_cache(
        const std::vector<std::uint8_t>& touched);
    /// Counts the touched set (whose index entries are already repaired)
    /// and invalidates its cache entries; fills `out`.
    void reconverge_touched(const std::vector<std::uint8_t>& touched, reconverge_stats& out);
    [[nodiscard]] std::size_t as_index(topo::asn_t asn) const;
    [[nodiscard]] std::size_t cell(site_id site, std::size_t as) const noexcept {
        return static_cast<std::size_t>(site) * as_count_ + as;
    }
    [[nodiscard]] std::span<const site_id> candidate_span(std::size_t as) const noexcept {
        if (!overlaid_.empty() && overlaid_[as]) {
            return std::span<const site_id>{overlay_[as]};
        }
        return std::span<const site_id>{cand_sites_}.subspan(
            cand_begin_[as], cand_begin_[as + 1] - cand_begin_[as]);
    }
    [[nodiscard]] std::optional<path_result> select_indexed(std::size_t as, topo::asn_t asn,
                                                            topo::region_id region) const;
    [[nodiscard]] std::optional<path_result> evaluate_indexed(std::size_t as, topo::asn_t asn,
                                                              topo::region_id region,
                                                              site_id site) const;

    const topo::as_graph* graph_;
    const topo::region_table* regions_;
    std::vector<announcement> announcements_;
    std::vector<topo::asn_t> asns_;  // dense index -> asn (graph snapshot)
    std::size_t as_count_ = 0;
    std::size_t link_count_ = 0;  // graph link snapshot at construction
    std::vector<std::uint8_t> withdrawn_;  // per site: currently not announced

    // Reader/writer gate for mutation: every query path holds it shared,
    // announce/withdraw hold it exclusively. Selection under a shared lock
    // is unchanged bytes; the lock only serializes against re-convergence.
    mutable std::shared_mutex topo_mutex_;

    // Route matrix, struct-of-arrays, site-major: entry for (site, as) lives
    // at site * as_count_ + as in each column. Dense because every AS usually
    // holds a route to every globally announced site.
    std::vector<std::uint8_t> cls_;        // route_class
    std::vector<std::uint8_t> len_;        // AS-path length
    std::vector<std::uint32_t> next_idx_;  // dense index of next hop (no_next_hop at origin)
    std::vector<std::uint32_t> link_;      // link to next hop

    // Per-AS best-route index, precomputed once after propagation and
    // repaired in place by announce/withdraw.
    std::vector<std::uint8_t> best_cls_;
    std::vector<std::uint8_t> best_len_;
    std::vector<std::uint32_t> cand_begin_;  // CSR offsets into cand_sites_, size as_count_+1
    std::vector<site_id> cand_sites_;        // candidate sites, ascending per AS
    std::vector<std::uint8_t> direct_;       // has_direct_route flags

    // Mutation overlay: an AS's candidate list moves out of the CSR (whose
    // offsets cannot shrink or grow in place) into its own vector the first
    // time an event changes it. Empty until then, so the static fast path
    // pays one vector-empty test. candidate_span prefers the overlay when set.
    std::vector<std::uint8_t> overlaid_;         // per dense AS index
    std::vector<std::vector<site_id>> overlay_;  // valid where overlaid_[i]

    // Sharded select memoization, keyed by (asn << 32) | region. Mutable:
    // the cache is an observably-pure accelerator of const queries. The
    // shard is picked from the ASN alone so that invalidating one AS visits
    // exactly one shard (region-mixed sharding would smear an AS's entries
    // across every shard and force full-cache scans on every event).
    static constexpr std::size_t cache_shard_count = 64;  // power of two
    [[nodiscard]] static constexpr std::size_t shard_of(topo::asn_t asn) noexcept {
        return (std::uint64_t{asn} * 0x9e3779b97f4a7c15ULL) >> 58;
    }
    struct cache_shard {
        std::mutex mutex;
        std::unordered_map<std::uint64_t, std::optional<path_result>> entries;
    };
    mutable std::array<cache_shard, cache_shard_count> cache_shards_;
    mutable std::atomic<std::uint64_t> cache_hits_{0};
    mutable std::atomic<std::uint64_t> cache_misses_{0};
    mutable std::atomic<std::uint64_t> cache_invalidations_{0};

    // Frozen select cache: an immutable open-addressing table (linear
    // probing, load factor <= 0.5, power-of-two capacity) sealed from the
    // shard contents by freeze_select_cache(). Readers probe it before any
    // lock; the published pointer is the only synchronization (release
    // store on publish, acquire load on probe). Unpublishing (mutation,
    // clear) retires the table into retired_frozen_ instead of freeing it,
    // so a reader that loaded the pointer can finish its probe without any
    // reclamation protocol — freezes are rare (once per serving process),
    // so the retained storage is bounded and tiny.
    struct frozen_cache {
        std::vector<std::uint64_t> keys;                  // capacity slots
        std::vector<std::uint8_t> occupied;               // 1 = slot holds a key
        std::vector<std::optional<path_result>> values;   // aligned with keys
        std::uint64_t mask = 0;                           // capacity - 1
    };
    void unpublish_frozen();  // callers hold the exclusive topo lock
    mutable std::atomic<const frozen_cache*> frozen_{nullptr};
    std::vector<std::unique_ptr<frozen_cache>> retired_frozen_;
    mutable std::atomic<std::uint64_t> frozen_hits_{0};
    mutable std::atomic<std::uint64_t> frozen_misses_{0};
};

/// Per-hop router processing added to the propagation delay, ms (round trip).
inline constexpr double per_hop_overhead_ms = 0.25;

/// Deterministic steady-state RTT jitter bound applied per (source, site).
inline constexpr double rtt_jitter_sigma = 0.04;

} // namespace ac::route
