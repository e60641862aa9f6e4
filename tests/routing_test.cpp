// BGP policy-routing tests on hand-built mini topologies: Gao-Rexford
// export rules, local-preference ordering, path-length tie-breaks, local
// announcement scope, hot-potato site selection, and the fast-path layer
// (best-route index, geo tables, select memoization) — which must be
// bit-identical to the reference implementation and race-safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/netbase/rng.h"
#include "src/obs/metrics.h"
#include "src/routing/bgp.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

// A four-region world laid out west-to-east, 1000 km apart.
topo::region_table make_line_regions() {
    std::vector<topo::region> regions;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};  // ~1000 km steps
        r.population_weight = 1.0;
        regions.push_back(r);
    }
    return topo::region_table{std::move(regions)};
}

topo::autonomous_system make_as(topo::asn_t asn, topo::as_role role,
                                std::vector<topo::region_id> presence) {
    topo::autonomous_system as;
    as.asn = asn;
    as.role = role;
    as.name = "as" + std::to_string(asn);
    as.organization = as.name;
    as.presence = std::move(presence);
    as.last_mile_ms = 1.0;
    return as;
}

class RoutingPolicy : public ::testing::Test {
protected:
    RoutingPolicy() : regions_(make_line_regions()) {
        // Topology (relationships from the first argument's perspective):
        //   origin(1) --provider--> transit(2) --provider--> tier1(3)
        //   origin(1) --peer-- peerAS(4);  peerAS(4) --peer-- peer2(5)
        //   customer(6) --provider--> origin(1)
        //   eyeball(7) --provider--> transit(2)
        //   eyeball(8) --provider--> tier1(3)
        graph_.add_as(make_as(1, topo::as_role::content, {0}));
        graph_.add_as(make_as(2, topo::as_role::transit, {0, 1}));
        graph_.add_as(make_as(3, topo::as_role::tier1, {1, 2}));
        graph_.add_as(make_as(4, topo::as_role::transit, {0, 2}));
        graph_.add_as(make_as(5, topo::as_role::transit, {2}));
        graph_.add_as(make_as(6, topo::as_role::eyeball, {0}));
        graph_.add_as(make_as(7, topo::as_role::eyeball, {1}));
        graph_.add_as(make_as(8, topo::as_role::eyeball, {2}));

        graph_.add_link(1, 2, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(2, 3, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(1, 4, topo::as_relationship::peer, {0}, 1.2);
        graph_.add_link(4, 5, topo::as_relationship::peer, {2}, 1.2);
        graph_.add_link(6, 1, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(7, 2, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(8, 3, topo::as_relationship::provider, {2}, 1.2);
    }

    route::anycast_rib make_rib(std::vector<route::announcement> announcements) {
        return route::anycast_rib{graph_, regions_, std::move(announcements)};
    }

    topo::region_table regions_;
    topo::as_graph graph_;
};

TEST_F(RoutingPolicy, OriginHoldsOriginRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(1, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::origin);
    EXPECT_EQ(r->path_len, 1);
}

TEST_F(RoutingPolicy, ProviderLearnsCustomerRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(2, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::customer);
    EXPECT_EQ(r->path_len, 2);
    EXPECT_EQ(r->next_hop, 1u);
}

TEST_F(RoutingPolicy, CustomerRouteClimbsTransitively) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(3, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::customer);
    EXPECT_EQ(r->path_len, 3);
}

TEST_F(RoutingPolicy, PeerLearnsButDoesNotReexportToPeers) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto peer = rib.route_toward(4, 0);
    ASSERT_TRUE(peer.has_value());
    EXPECT_EQ(peer->cls, route::route_class::peer);
    // AS 5 peers with 4; a peer-learned route must not flow peer-to-peer.
    EXPECT_FALSE(rib.route_toward(5, 0).has_value());
}

TEST_F(RoutingPolicy, CustomersLearnFromAnyRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // Eyeball 7 sits under transit 2: provider route, length 3.
    const auto r7 = rib.route_toward(7, 0);
    ASSERT_TRUE(r7.has_value());
    EXPECT_EQ(r7->cls, route::route_class::provider);
    EXPECT_EQ(r7->path_len, 3);
    // Eyeball 8 under the tier-1: provider route, length 4.
    const auto r8 = rib.route_toward(8, 0);
    ASSERT_TRUE(r8.has_value());
    EXPECT_EQ(r8->cls, route::route_class::provider);
    EXPECT_EQ(r8->path_len, 4);
}

TEST_F(RoutingPolicy, DirectCustomerOfOriginGetsProviderRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(6, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::provider);
    EXPECT_EQ(r->path_len, 2);
}

TEST_F(RoutingPolicy, LocalScopeReachesNeighborsOnly) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::local, {}}});
    EXPECT_TRUE(rib.route_toward(2, 0).has_value());   // direct provider
    EXPECT_TRUE(rib.route_toward(4, 0).has_value());   // direct peer
    EXPECT_TRUE(rib.route_toward(6, 0).has_value());   // direct customer
    EXPECT_FALSE(rib.route_toward(3, 0).has_value());  // two hops away
    EXPECT_FALSE(rib.route_toward(7, 0).has_value());
}

TEST_F(RoutingPolicy, EvaluateBuildsFullAsPath) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto path = rib.evaluate(8, 2, 0);
    ASSERT_TRUE(path.has_value());
    const std::vector<topo::asn_t> expected{8, 3, 2, 1};
    EXPECT_EQ(path->as_path, expected);
    EXPECT_GT(path->rtt_ms, 0.0);
    EXPECT_GT(path->path_km, 0.0);
}

TEST_F(RoutingPolicy, RttGrowsWithPathDistance) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // AS 7 (one region away) vs AS 8 (two regions away, longer AS path).
    const auto near = rib.evaluate(7, 1, 0);
    const auto far = rib.evaluate(8, 2, 0);
    ASSERT_TRUE(near && far);
    EXPECT_LT(near->rtt_ms, far->rtt_ms);
}

TEST_F(RoutingPolicy, SelectPrefersCustomerOverPeerRegardlessOfLength) {
    // Site 0 reachable from AS 5? No. Use AS 4: it holds a peer route to
    // site 0 (len 2). Give it also a provider route via a second site's
    // chain — peer must still win over provider.
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto route4 = rib.route_toward(4, 0);
    ASSERT_TRUE(route4.has_value());
    EXPECT_EQ(route4->cls, route::route_class::peer);
}

TEST_F(RoutingPolicy, HasDirectRouteDetectsShortPaths) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_TRUE(rib.has_direct_route(2));
    EXPECT_TRUE(rib.has_direct_route(4));
    EXPECT_FALSE(rib.has_direct_route(8));
}

TEST_F(RoutingPolicy, DenseSiteIdsEnforced) {
    EXPECT_THROW(make_rib({{5, 1, 0, route::announcement_scope::global, {}}}),
                 std::invalid_argument);
}

TEST_F(RoutingPolicy, UnknownOriginRejected) {
    EXPECT_THROW(make_rib({{0, 99, 0, route::announcement_scope::global, {}}}),
                 std::invalid_argument);
}

class HotPotato : public ::testing::Test {
protected:
    HotPotato() : regions_(make_line_regions()) {
        // Origin AS 1 present at both ends (regions 0 and 3) with two sites;
        // eyeball 2 present in the middle (region 1, nearer region 0).
        graph_.add_as(make_as(1, topo::as_role::content, {0, 3}));
        graph_.add_as(make_as(2, topo::as_role::eyeball, {1}));
        graph_.add_link(2, 1, topo::as_relationship::peer, {0, 3}, 1.2);
    }

    topo::region_table regions_;
    topo::as_graph graph_;
};

TEST_F(HotPotato, SelectsNearestEgressAmongEqualRoutes) {
    route::anycast_rib rib{graph_,
                           regions_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}}};
    // Both sites are peer routes of identical length; the eyeball at region 1
    // should early-exit to the site at region 0.
    const auto candidates = rib.best_candidates(2);
    EXPECT_EQ(candidates.size(), 2u);
    const auto chosen = rib.select(2, 1);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->site, 0u);
}

// Fast-path differential tests: the memoized select, the uncached indexed
// select, and the pre-index reference (per-call rescan + raw haversine) must
// agree byte-for-byte on every (asn, region) pair.

TEST_F(RoutingPolicy, CachedSelectionMatchesUncachedAndReferenceEverywhere) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            const auto cached = rib.select(asn, region);
            const auto uncached = rib.select_uncached(asn, region);
            const auto reference = rib.select_reference(asn, region);
            EXPECT_EQ(cached, uncached) << "asn " << asn << " region " << region;
            EXPECT_EQ(cached, reference) << "asn " << asn << " region " << region;
            // Repeat query: now a guaranteed cache hit, still identical.
            EXPECT_EQ(rib.select(asn, region), cached);
        }
    }
}

TEST_F(RoutingPolicy, BestCandidatesMatchRouteTowardScan) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        // Reference scan over route_toward, mirroring the pre-index logic.
        route::route_class best = route::route_class::none;
        std::uint8_t best_len = 255;
        std::vector<route::site_id> expected;
        for (route::site_id s = 0; s < 2; ++s) {
            const auto r = rib.route_toward(asn, s);
            if (!r) continue;
            if (r->cls < best || (r->cls == best && r->path_len < best_len)) {
                best = r->cls;
                best_len = r->path_len;
            }
        }
        for (route::site_id s = 0; s < 2; ++s) {
            const auto r = rib.route_toward(asn, s);
            if (r && r->cls == best && r->path_len == best_len) expected.push_back(s);
        }
        EXPECT_EQ(rib.best_candidates(asn), expected) << "asn " << asn;
    }
}

TEST_F(RoutingPolicy, CacheStatsCountHitsAndMisses) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_EQ(rib.select_cache_stats().hits, 0u);
    EXPECT_EQ(rib.select_cache_stats().misses, 0u);
    (void)rib.select(8, 2);
    EXPECT_EQ(rib.select_cache_stats().misses, 1u);
    EXPECT_EQ(rib.select_cache_stats().hits, 0u);
    (void)rib.select(8, 2);
    EXPECT_EQ(rib.select_cache_stats().misses, 1u);
    EXPECT_EQ(rib.select_cache_stats().hits, 1u);
    (void)rib.select(8, 3);  // different region: a distinct key
    EXPECT_EQ(rib.select_cache_stats().misses, 2u);
}

TEST_F(RoutingPolicy, SiteRoutesViewMatchesRouteToward) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto view = rib.site_routes(0);
    const auto asns = rib.known_asns();
    ASSERT_EQ(view.cls.size(), asns.size());
    for (std::size_t i = 0; i < asns.size(); ++i) {
        const auto r = rib.route_toward(asns[i], 0);
        if (!r) {
            EXPECT_EQ(static_cast<route::route_class>(view.cls[i]), route::route_class::none);
            continue;
        }
        EXPECT_EQ(static_cast<route::route_class>(view.cls[i]), r->cls);
        EXPECT_EQ(view.path_len[i], r->path_len);
        EXPECT_EQ(view.link_index[i], r->link_index);
        if (view.next_index[i] == route::anycast_rib::no_next_hop) {
            EXPECT_EQ(r->next_hop, 0u);
        } else {
            EXPECT_EQ(asns[view.next_index[i]], r->next_hop);
        }
    }
    EXPECT_THROW((void)rib.site_routes(1), std::out_of_range);
}

TEST_F(RoutingPolicy, UnknownAsnAndNoRouteOrdering) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_THROW((void)rib.select(99, 0), std::out_of_range);
    EXPECT_THROW((void)rib.has_direct_route(99), std::out_of_range);
    EXPECT_THROW((void)rib.evaluate(99, 0, 0), std::out_of_range);
    // AS 5 holds no route at all: nullopt wins over region validation, as in
    // the pre-index implementation (candidate check came first).
    EXPECT_FALSE(rib.select(5, 999).has_value());
    EXPECT_FALSE(rib.evaluate(5, 999, 0).has_value());
    // An AS with a route and a bogus region must still throw.
    EXPECT_THROW((void)rib.select(8, 999), std::out_of_range);
    EXPECT_THROW((void)rib.evaluate(8, 999, 0), std::out_of_range);
}

TEST_F(RoutingPolicy, ConcurrentCacheFillMatchesSerialOracle) {
    // TSan target: many threads hammer the same small key space while a pool
    // runs select_many over it. Every answer must equal the uncached oracle.
    engine::thread_pool pool{4};
    route::anycast_rib rib{graph_,
                           regions_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}},
                           &pool};

    std::vector<route::source_key> keys;
    std::vector<std::optional<route::path_result>> oracle;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            keys.push_back({asn, region});
            oracle.push_back(rib.select_uncached(asn, region));
        }
    }

    std::vector<std::thread> hammers;
    for (int t = 0; t < 4; ++t) {
        hammers.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    // Stagger start offsets so threads collide on fresh keys.
                    const auto& key = keys[(k + static_cast<std::size_t>(t) * 7) % keys.size()];
                    const auto got = rib.select(key.asn, key.region);
                    ASSERT_EQ(got, oracle[(k + static_cast<std::size_t>(t) * 7) % keys.size()]);
                }
            }
        });
    }
    const auto bulk = rib.select_many(keys, &pool);
    for (auto& h : hammers) h.join();

    ASSERT_EQ(bulk.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) EXPECT_EQ(bulk[i], oracle[i]);
    const auto stats = rib.select_cache_stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GE(stats.misses, 1u);  // racing fills may exceed distinct keys
}

// Mutation tests: per-source withdraw/announce with incremental
// re-convergence (DESIGN §11). The contract: after any event sequence the
// RIB is byte-identical to one rebuilt from scratch with the same
// announcement state.

TEST_F(RoutingPolicy, WithdrawClearsRoutesAndReconverges) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    ASSERT_TRUE(rib.route_toward(8, 0).has_value());
    const auto stats = rib.withdraw(0);
    EXPECT_GT(stats.ases_touched, 0u);
    EXPECT_FALSE(rib.route_toward(8, 0).has_value());
    EXPECT_TRUE(rib.is_withdrawn(0));
    EXPECT_EQ(rib.active_site_count(), 1u);
    // Selection falls over to the surviving site.
    const auto chosen = rib.select(8, 2);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->site, 1u);
}

TEST_F(RoutingPolicy, WithdrawIsIdempotent) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto first = rib.withdraw(0);
    EXPECT_GT(first.ases_touched, 0u);
    const auto second = rib.withdraw(0);
    EXPECT_EQ(second.ases_touched, 0u);
    EXPECT_EQ(second.cache_entries_invalidated, 0u);
    EXPECT_THROW((void)rib.withdraw(9), std::out_of_range);
}

TEST_F(RoutingPolicy, AnnounceRestoresWithdrawnSite) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    const auto before = rib.select_uncached(8, 2);
    (void)rib.withdraw(0);
    (void)rib.announce(rib.announcements()[0]);
    EXPECT_FALSE(rib.is_withdrawn(0));
    EXPECT_EQ(rib.active_site_count(), 2u);
    // Restoration is exact: same announcement, same selection bytes.
    EXPECT_EQ(rib.select_uncached(8, 2), before);
}

TEST_F(RoutingPolicy, AnnounceValidatesOriginAndDensity) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_THROW((void)rib.announce({0, 99, 0, route::announcement_scope::global, {}}),
                 std::invalid_argument);
    EXPECT_THROW((void)rib.announce({5, 1, 0, route::announcement_scope::global, {}}),
                 std::invalid_argument);
}

TEST_F(RoutingPolicy, AnnounceAppendsNewSite) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto stats = rib.announce({1, 1, 3, route::announcement_scope::global, {}});
    EXPECT_GT(stats.ases_touched, 0u);
    EXPECT_EQ(rib.site_count(), 2u);
    EXPECT_TRUE(rib.route_toward(8, 1).has_value());
    // Byte-identical to a RIB built with both sites from scratch.
    auto fresh = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                           {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            EXPECT_EQ(rib.select(asn, region), fresh.select(asn, region));
        }
    }
}

TEST_F(RoutingPolicy, PrependLengthensPathsAndShiftsSelection) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto plain = rib.route_toward(2, 0);
    ASSERT_TRUE(plain.has_value());
    auto prepended = rib.announcements()[0];
    prepended.prepend = 3;
    (void)rib.announce(prepended);
    const auto longer = rib.route_toward(2, 0);
    ASSERT_TRUE(longer.has_value());
    EXPECT_EQ(longer->path_len, plain->path_len + 3);
    // And it matches a from-scratch build with the prepended announcement.
    auto fresh = make_rib({prepended});
    EXPECT_EQ(rib.route_toward(2, 0), fresh.route_toward(2, 0));
}

TEST_F(RoutingPolicy, CacheStatsZeroQueryGuardAndInvalidations) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // Satellite fix: hit_rate() with zero lookups is 0.0, not NaN.
    const auto empty = rib.select_cache_stats();
    EXPECT_EQ(empty.hits + empty.misses, 0u);
    EXPECT_EQ(empty.hit_rate(), 0.0);
    EXPECT_EQ(empty.invalidations, 0u);

    (void)rib.select(8, 2);
    (void)rib.select(8, 2);
    EXPECT_GT(rib.select_cache_stats().hit_rate(), 0.0);
    const auto stats = rib.withdraw(0);
    EXPECT_EQ(rib.select_cache_stats().invalidations, stats.cache_entries_invalidated);
    EXPECT_GT(rib.select_cache_stats().invalidations, 0u);
}

TEST_F(RoutingPolicy, IncrementalMatchesRebuildAfterRandomizedTimeline) {
    // The tentpole equivalence contract: replay a randomized event timeline
    // and, after *every* event, require select over all (asn, region) pairs
    // to be byte-identical to a from-scratch rebuild holding the same
    // announcement state — at thread counts 1, 2, and 8.
    for (const int threads : {1, 2, 8}) {
        engine::thread_pool pool{threads};
        route::anycast_rib rib{graph_,
                               regions_,
                               {{0, 1, 0, route::announcement_scope::global, {}},
                                {1, 1, 3, route::announcement_scope::global, {}},
                                {2, 1, 1, route::announcement_scope::local, {}}},
                               &pool};
        rand::rng gen{rand::mix_seed(0x5cea4106ULL, static_cast<std::uint64_t>(threads))};
        for (int round = 0; round < 24; ++round) {
            const auto site = static_cast<route::site_id>(gen.uniform_index(rib.site_count()));
            switch (gen.uniform_index(4)) {
                case 0: (void)rib.withdraw(site); break;
                case 1: (void)rib.announce(rib.announcements()[site]); break;
                case 2: {
                    auto a = rib.announcements()[site];
                    a.prepend = static_cast<std::uint8_t>(gen.uniform_index(4));
                    (void)rib.announce(a);
                    break;
                }
                default: {
                    auto a = rib.announcements()[site];
                    a.scope = a.scope == route::announcement_scope::global
                                  ? route::announcement_scope::local
                                  : route::announcement_scope::global;
                    (void)rib.announce(a);
                    break;
                }
            }
            route::anycast_rib fresh{graph_,
                                     regions_,
                                     std::vector<route::announcement>(
                                         rib.announcements().begin(),
                                         rib.announcements().end()),
                                     &pool};
            for (const topo::asn_t asn : rib.known_asns()) {
                for (topo::region_id region = 0; region < regions_.size(); ++region) {
                    ASSERT_EQ(rib.select(asn, region), fresh.select(asn, region))
                        << "threads " << threads << " round " << round << " asn " << asn
                        << " region " << region;
                }
            }
        }
    }
}

TEST_F(RoutingPolicy, ConcurrentSelectsDuringInvalidationAreSafe) {
    // TSan target: reader threads hammer select() while the main thread
    // withdraws and re-announces sites. Readers must always observe a fully
    // converged state — one of the two the mutation moves between.
    engine::thread_pool pool{4};
    route::anycast_rib rib{graph_,
                           regions_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}},
                           &pool};

    std::vector<route::source_key> keys;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            keys.push_back({asn, region});
        }
    }
    // The two converged states a reader may legitimately observe.
    std::vector<std::optional<route::path_result>> with_both;
    for (const auto& k : keys) with_both.push_back(rib.select_uncached(k.asn, k.region));
    (void)rib.withdraw(0);
    std::vector<std::optional<route::path_result>> without_site0;
    for (const auto& k : keys) without_site0.push_back(rib.select_uncached(k.asn, k.region));
    (void)rib.announce(rib.announcements()[0]);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    const auto got = rib.select(keys[k].asn, keys[k].region);
                    ASSERT_TRUE(got == with_both[k] || got == without_site0[k]);
                }
            }
        });
    }
    for (int cycle = 0; cycle < 50; ++cycle) {
        (void)rib.withdraw(0);
        (void)rib.announce(rib.announcements()[0]);
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();

    // Settled state: identical to the pre-mutation world.
    for (std::size_t k = 0; k < keys.size(); ++k) {
        EXPECT_EQ(rib.select_uncached(keys[k].asn, keys[k].region), with_both[k]);
    }
}

// Frozen select cache (DESIGN §13): seal the memoized selections into an
// immutable table; the serving read path probes it wait-free, and any
// mutation unpublishes it.

TEST_F(RoutingPolicy, FreezeSealsMemoizedSelections) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    EXPECT_FALSE(rib.select_cache_stats().frozen);
    EXPECT_EQ(rib.select_frozen(8, 2), nullptr);  // nothing sealed yet

    // Warm a few keys, then freeze: every warmed key must answer from the
    // sealed table with the exact locked-path result.
    std::vector<route::source_key> keys{{8, 2}, {8, 3}, {7, 1}, {6, 0}};
    std::vector<std::optional<route::path_result>> expected;
    for (const auto& k : keys) expected.push_back(rib.select(k.asn, k.region));
    const std::size_t sealed = rib.freeze_select_cache();
    EXPECT_EQ(sealed, keys.size());
    EXPECT_TRUE(rib.select_cache_stats().frozen);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto* hit = rib.select_frozen(keys[i].asn, keys[i].region);
        ASSERT_NE(hit, nullptr) << "key " << i;
        EXPECT_EQ(*hit, expected[i]);
    }
    EXPECT_EQ(rib.select_cache_stats().frozen_hits, keys.size());

    // A key never warmed is not sealed: the probe misses without locking,
    // and select() still answers it through the shards.
    EXPECT_EQ(rib.select_frozen(5, 2), nullptr);
    EXPECT_EQ(rib.select(5, 2), rib.select_uncached(5, 2));
}

TEST_F(RoutingPolicy, MutationUnpublishesFrozenTable) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    (void)rib.select(8, 2);
    ASSERT_GT(rib.freeze_select_cache(), 0u);
    ASSERT_TRUE(rib.select_cache_stats().frozen);

    (void)rib.withdraw(0);
    EXPECT_FALSE(rib.select_cache_stats().frozen);
    EXPECT_EQ(rib.select_frozen(8, 2), nullptr);

    // Re-warm and re-freeze after the withdrawal: the sealed answer must
    // reflect the mutated RIB, not the retired table.
    const auto degraded = rib.select(8, 2);
    (void)rib.freeze_select_cache();
    const auto* hit = rib.select_frozen(8, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, degraded);

    (void)rib.announce(rib.announcements()[0]);
    EXPECT_FALSE(rib.select_cache_stats().frozen);

    (void)rib.select(8, 2);
    (void)rib.freeze_select_cache();
    ASSERT_TRUE(rib.select_cache_stats().frozen);
    rib.clear_select_cache();
    EXPECT_FALSE(rib.select_cache_stats().frozen);
}

TEST_F(RoutingPolicy, FrozenReadersRaceMutationsSafely) {
    // TSan target: wait-free readers probe the frozen table while a writer
    // freezes, mutates (unpublishing), and re-freezes in a loop. Readers
    // must only ever observe answers equal to one of the two settled states.
    engine::thread_pool pool{2};
    route::anycast_rib rib{graph_,
                           regions_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}},
                           &pool};
    std::vector<route::source_key> keys;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            keys.push_back({asn, region});
        }
    }
    std::vector<std::optional<route::path_result>> with_both;
    std::vector<std::optional<route::path_result>> degraded;
    for (const auto& k : keys) with_both.push_back(rib.select_uncached(k.asn, k.region));
    (void)rib.withdraw(0);
    for (const auto& k : keys) degraded.push_back(rib.select_uncached(k.asn, k.region));
    (void)rib.announce(rib.announcements()[0]);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    const auto* hit = rib.select_frozen(keys[k].asn, keys[k].region);
                    if (hit == nullptr) continue;  // unpublished or not sealed
                    ASSERT_TRUE(*hit == with_both[k] || *hit == degraded[k]) << "key " << k;
                }
            }
        });
    }
    for (int cycle = 0; cycle < 25; ++cycle) {
        (void)rib.select_many(keys, &pool);  // warm every key
        (void)rib.freeze_select_cache();
        (void)rib.withdraw(0);  // unpublishes
        (void)rib.select_many(keys, &pool);
        (void)rib.freeze_select_cache();
        (void)rib.announce(rib.announcements()[0]);  // unpublishes again
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();

    // Settled: a final freeze seals the restored state. Keys whose AS holds
    // no route are never memoized (select returns early), so only routed
    // keys appear in the sealed table.
    (void)rib.select_many(keys, &pool);
    EXPECT_GT(rib.freeze_select_cache(), 0u);
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const auto* hit = rib.select_frozen(keys[k].asn, keys[k].region);
        if (with_both[k].has_value()) {
            ASSERT_NE(hit, nullptr) << "key " << k;
            EXPECT_EQ(*hit, with_both[k]);
        }
    }
}

TEST_F(HotPotato, EvaluateReportsDirectDistance) {
    route::anycast_rib rib{graph_,
                           regions_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}}};
    const auto path = rib.evaluate(2, 1, 1);
    ASSERT_TRUE(path.has_value());
    // Direct distance to the far site (region 3) is ~2 region-steps.
    EXPECT_NEAR(path->direct_km,
                geo::distance_km(regions_.at(1).location, regions_.at(3).location), 1.0);
}

// Independent oracle for the early-exit path walk. `select_reference` only
// checks which candidate wins; this re-walks each route hop by hop through
// public accessors alone (route_toward, the graph's links, the region
// distance matrix) and must reproduce evaluate() exactly.

struct walked_path {
    std::vector<topo::asn_t> as_path;
    double path_km = 0.0;
    double direct_km = 0.0;
    std::size_t multi_point_hops = 0;  // hops over links with >1 interconnect
};

std::optional<walked_path> rewalk(const route::anycast_rib& rib, const topo::as_graph& graph,
                                  const topo::region_table& regions, topo::asn_t asn,
                                  topo::region_id region, route::site_id site) {
    auto hop = rib.route_toward(asn, site);
    if (!hop) return std::nullopt;
    const topo::region_id site_region = rib.announcements()[site].origin_region;
    walked_path out;
    out.direct_km = regions.distance_km(region, site_region);
    topo::asn_t cur = asn;
    topo::region_id here = region;
    while (hop.value().cls != route::route_class::origin) {
        out.as_path.push_back(cur);
        // Cross at the listed interconnect nearest `here`; on a tie the
        // earlier-listed one stays.
        const auto& points = graph.link(hop->link_index).interconnect_regions;
        topo::region_id exit = points.front();
        for (const topo::region_id p : points) {
            if (regions.distance_km(here, p) < regions.distance_km(here, exit)) exit = p;
        }
        if (points.size() > 1) ++out.multi_point_hops;
        out.path_km += regions.distance_km(here, exit);
        here = exit;
        cur = hop->next_hop;
        hop = rib.route_toward(cur, site);
    }
    out.as_path.push_back(cur);
    out.path_km += regions.distance_km(here, site_region);
    return out;
}

// A small generated world: 75 regions, 120 ASes across every role, with
// links that list several interconnects.
topo::region_table make_generated_regions() {
    return topo::make_regions(topo::region_plan{20, 6, 20, 8, 15, 5, 1}, 13);
}

topo::as_graph make_generated_graph(const topo::region_table& regions) {
    topo::graph_plan plan;
    plan.tier1_count = 4;
    plan.transits_per_continent = 4;
    plan.eyeball_count = 80;
    plan.enterprise_count = 10;
    plan.public_dns_count = 1;
    return topo::make_graph(regions, plan, 13);
}

/// The `rank`-th AS of `role` in graph order.
const topo::autonomous_system& nth_of(const topo::as_graph& graph, topo::as_role role,
                                      std::size_t rank = 0) {
    for (const auto& as : graph.all()) {
        if (as.role == role && rank-- == 0) return as;
    }
    throw std::out_of_range("no such AS");
}

TEST(PathWalkOracle, EvaluateMatchesHopByHopRewalkOnGeneratedGraph) {
    const auto regions = make_generated_regions();
    const auto graph = make_generated_graph(regions);

    // Sites at both ends of a tier-1's footprint, at a transit and at an
    // eyeball, so walks climb, cross and descend the hierarchy.
    const auto& tier1 = nth_of(graph, topo::as_role::tier1);
    const auto& transit = nth_of(graph, topo::as_role::transit);
    const auto& eyeball = nth_of(graph, topo::as_role::eyeball);
    const route::anycast_rib rib{
        graph,
        regions,
        {{0, tier1.asn, tier1.presence.front(), route::announcement_scope::global, {}},
         {1, tier1.asn, tier1.presence.back(), route::announcement_scope::global, {}},
         {2, transit.asn, transit.presence.front(), route::announcement_scope::global, {}},
         {3, eyeball.asn, eyeball.presence.front(), route::announcement_scope::global, {}}}};

    std::size_t walks = 0;
    std::size_t multi_point_hops = 0;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions.size(); ++region) {
            for (route::site_id site = 0; site < rib.site_count(); ++site) {
                const auto want = rewalk(rib, graph, regions, asn, region, site);
                const auto got = rib.evaluate(asn, region, site);
                ASSERT_EQ(got.has_value(), want.has_value())
                    << "asn " << asn << " region " << region << " site " << site;
                if (!want) continue;
                ASSERT_EQ(got->as_path, want->as_path)
                    << "asn " << asn << " region " << region << " site " << site;
                ASSERT_EQ(got->path_km, want->path_km)
                    << "asn " << asn << " region " << region << " site " << site;
                ASSERT_EQ(got->direct_km, want->direct_km)
                    << "asn " << asn << " region " << region << " site " << site;
                ++walks;
                multi_point_hops += want->multi_point_hops;
            }
        }
    }
    // The comparison means something only if early exit had real choices.
    EXPECT_GT(walks, 10000u);
    EXPECT_GT(multi_point_hops, walks);
}

TEST(PathWalkOracle, EquidistantInterconnectsResolveToFirstListed) {
    const auto regions = make_line_regions();
    // r0 and r2 sit 14 degrees of longitude either side of r1 on one
    // parallel, so both interconnects are exactly as far from a source in r1.
    ASSERT_EQ(regions.distance_km(1, 0), regions.distance_km(1, 2));
    for (const auto& points : {std::vector<topo::region_id>{2, 0}, {0, 2}}) {
        topo::as_graph graph;
        graph.add_as(make_as(1, topo::as_role::content, {0}));
        graph.add_as(make_as(2, topo::as_role::eyeball, {1}));
        graph.add_link(2, 1, topo::as_relationship::peer, points, 1.2);
        const route::anycast_rib rib{
            graph, regions, {{0, 1, 0, route::announcement_scope::global, {}}}};

        // Crossing at r2 costs a return leg to the site in r0; crossing at
        // r0 does not, so path_km tells which interconnect was taken.
        const topo::region_id first = points.front();
        const auto path = rib.evaluate(2, 1, 0);
        ASSERT_TRUE(path.has_value());
        EXPECT_EQ(path->path_km,
                  regions.distance_km(1, first) + regions.distance_km(first, 0))
            << "first listed interconnect r" << first;
        const auto want = rewalk(rib, graph, regions, 2, 1, 0);
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(path->path_km, want->path_km);
        EXPECT_EQ(path->as_path, want->as_path);
    }
}

// Differential test of the incremental best-route index repair with many
// sites: after every event the mutated RIB must answer best_candidates,
// has_direct_route and select_uncached exactly like a RIB rebuilt from its
// announcements, and report as touched exactly the ASes in the union of the
// site's old and new route rows.

/// Per dense AS index: 1 if the AS holds a route in `site`'s row.
std::vector<std::uint8_t> row_members(const route::anycast_rib& rib, route::site_id site) {
    const auto view = rib.site_routes(site);
    std::vector<std::uint8_t> held(view.cls.size());
    for (std::size_t i = 0; i < held.size(); ++i) {
        held[i] = static_cast<route::route_class>(view.cls[i]) != route::route_class::none;
    }
    return held;
}

TEST(IncrementalIndex, ManySiteTimelineMatchesRebuild) {
    const auto regions = make_generated_regions();
    const auto graph = make_generated_graph(regions);

    // 31 sites: several per origin AS, so equal-best ties between sites of
    // one origin are common; every fourth site is local scope.
    std::vector<route::announcement> anns;
    const auto add_sites = [&](const topo::autonomous_system& as, std::size_t count) {
        for (std::size_t k = 0; k < count; ++k) {
            const auto site = static_cast<route::site_id>(anns.size());
            anns.push_back({site, as.asn, as.presence[k % as.presence.size()],
                            site % 4 == 3 ? route::announcement_scope::local
                                          : route::announcement_scope::global,
                            {}});
        }
    };
    for (std::size_t r = 0; r < 2; ++r) add_sites(nth_of(graph, topo::as_role::tier1, r), 5);
    for (std::size_t r = 0; r < 3; ++r) add_sites(nth_of(graph, topo::as_role::transit, r), 3);
    for (std::size_t r = 0; r < 6; ++r) add_sites(nth_of(graph, topo::as_role::eyeball, r), 2);
    ASSERT_EQ(anns.size(), 31u);
    route::anycast_rib rib{graph, regions, anns};

    auto& rescans = obs::registry::global().get_counter("route.reconverge.rescans");
    const std::uint64_t rescans_before = rescans.value();
    std::size_t events = 0;
    std::size_t ties = 0;
    std::size_t touched = 0;
    const auto apply = [&](const char* what, route::site_id site, auto&& event) {
        const auto before = row_members(rib, site);
        const route::anycast_rib::reconverge_stats stats = event();
        const auto after = row_members(rib, site);
        std::size_t want_touched = 0;
        for (std::size_t i = 0; i < before.size(); ++i) want_touched += before[i] | after[i];
        ASSERT_EQ(stats.ases_touched, want_touched)
            << "event " << events << ": " << what << " site " << site;
        touched += stats.ases_touched;

        const route::anycast_rib fresh{
            graph, regions,
            std::vector<route::announcement>(rib.announcements().begin(),
                                             rib.announcements().end())};
        for (const topo::asn_t asn : rib.known_asns()) {
            const auto got = rib.best_candidates(asn);
            ASSERT_EQ(got, fresh.best_candidates(asn))
                << "event " << events << ": " << what << " site " << site << " asn " << asn;
            ties += got.size() > 1;
            ASSERT_EQ(rib.has_direct_route(asn), fresh.has_direct_route(asn))
                << "event " << events << ": " << what << " site " << site << " asn " << asn;
            for (topo::region_id region = 0; region < regions.size(); ++region) {
                ASSERT_EQ(rib.select_uncached(asn, region), fresh.select_uncached(asn, region))
                    << "event " << events << ": " << what << " site " << site << " asn "
                    << asn << " region " << region;
            }
        }
        ++events;
    };

    rand::rng gen{0x1dc0ffeeULL};
    for (int round = 0; round < 40; ++round) {
        const auto site = static_cast<route::site_id>(gen.uniform_index(rib.site_count()));
        auto a = rib.announcements()[site];
        switch (gen.uniform_index(4)) {
            case 0:
                apply("withdraw", site, [&] { return rib.withdraw(site); });
                break;
            case 1:
                apply("announce", site, [&] { return rib.announce(a); });
                break;
            case 2:
                a.prepend = static_cast<std::uint8_t>(gen.uniform_index(4));
                apply("prepend", site, [&] { return rib.announce(a); });
                break;
            default:
                a.scope = a.scope == route::announcement_scope::global
                              ? route::announcement_scope::local
                              : route::announcement_scope::global;
                apply(a.scope == route::announcement_scope::global ? "promote" : "demote",
                      site, [&] { return rib.announce(a); });
                break;
        }
        if (HasFatalFailure()) return;
    }

    // Withdraw everything, then re-announce in reverse site order, so equal
    // candidates arrive out of site order and the last withdrawal of each
    // AS empties its candidate list.
    for (route::site_id site = 0; site < rib.site_count(); ++site) {
        apply("withdraw-all", site, [&] { return rib.withdraw(site); });
        if (HasFatalFailure()) return;
    }
    for (auto site = static_cast<route::site_id>(rib.site_count()); site-- > 0;) {
        const auto a = rib.announcements()[site];
        apply("announce-all", site, [&] { return rib.announce(a); });
        if (HasFatalFailure()) return;
    }
    EXPECT_EQ(events, 40u + 2 * 31u);
    // The comparison means something only if candidate lists held ties.
    EXPECT_GT(ties, events * 10);
    // Every repair that fell back to a column rescan was counted, and the
    // fallback stayed the exception.
    const std::uint64_t rescanned = rescans.value() - rescans_before;
    EXPECT_GT(rescanned, 0u);
    EXPECT_LT(rescanned * 4, touched);
}

} // namespace
