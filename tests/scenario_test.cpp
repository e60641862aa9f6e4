// Scenario subsystem tests: timeline parsing (strict rejection of unknown
// event types and malformed entries), deterministic event replay through the
// driver, and per-step catchment/inflation metrics.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/anycast/deployment.h"
#include "src/scenario/driver.h"
#include "src/scenario/event.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

// A four-region world laid out west-to-east, 1000 km apart (the routing
// tests' topology, repeated here so scenario tests stay self-contained).
topo::region_table make_line_regions() {
    std::vector<topo::region> regions;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};
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

class ScenarioDriver : public ::testing::Test {
protected:
    ScenarioDriver() : regions_(make_line_regions()) {
        // Origin AS 1 spans the line; eyeballs 2/3 sit at the two ends
        // behind transit 4.
        graph_.add_as(make_as(1, topo::as_role::content, {0, 3}));
        graph_.add_as(make_as(4, topo::as_role::transit, {0, 1, 2, 3}));
        graph_.add_as(make_as(2, topo::as_role::eyeball, {0}));
        graph_.add_as(make_as(3, topo::as_role::eyeball, {3}));
        graph_.add_link(1, 4, topo::as_relationship::provider, {0, 3}, 1.2);
        graph_.add_link(2, 4, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(3, 4, topo::as_relationship::provider, {3}, 1.2);
    }

    anycast::deployment make_two_site_deployment() {
        std::vector<anycast::site> sites;
        sites.push_back({0, "west", 1, 0, route::announcement_scope::global});
        sites.push_back({1, "east", 1, 3, route::announcement_scope::global});
        return anycast::deployment{"D", std::move(sites), graph_, regions_};
    }

    std::vector<scenario::weighted_source> eyeball_sources() {
        return {{2, 0, 10.0}, {3, 3, 10.0}};
    }

    topo::region_table regions_;
    topo::as_graph graph_;
};

TEST(ScenarioTimeline, ParsesSortsAndDescribes) {
    // withdraw/announce and promote/demote pairs fire at *different* steps:
    // same-step conflicting events on one target are now parse errors
    // (their outcome would depend on input line order).
    const auto tl = scenario::parse_timeline_text(
        "# maintenance window\n"
        "2 restore K 3\n"
        "\n"
        "1 drain K 3   # drain first\n"
        "3 outage 2\n"
        "3 prepend B 0 4\n"
        "4 withdraw K\n"
        "5 announce K\n"
        "6 promote K 1\n"
        "7 demote K 1\n");
    ASSERT_EQ(tl.events.size(), 8u);
    EXPECT_EQ(tl.last_step(), 7);
    // Stable-sorted by step: the drain now precedes the restore.
    EXPECT_EQ(tl.events[0].describe(), "drain K site 3");
    EXPECT_EQ(tl.events[1].describe(), "restore K site 3");
    EXPECT_EQ(tl.events[2].describe(), "outage region 2");
    EXPECT_EQ(tl.events[3].describe(), "prepend B site 0 x4");
    EXPECT_EQ(tl.events[4].describe(), "withdraw K");
    EXPECT_EQ(tl.events[5].describe(), "announce K");
    EXPECT_EQ(tl.events[6].describe(), "promote K site 1");
    EXPECT_EQ(tl.events[7].describe(), "demote K site 1");
}

TEST(ScenarioTimeline, RejectsUnknownEventType) {
    EXPECT_THROW((void)scenario::parse_timeline_text("1 explode K 3\n"),
                 scenario::timeline_error);
    try {
        (void)scenario::parse_timeline_text("1 explode K 3\n");
    } catch (const scenario::timeline_error& e) {
        EXPECT_NE(std::string{e.what()}.find("unknown event type 'explode'"),
                  std::string::npos);
    }
}

TEST(ScenarioTimeline, RejectsMalformedEntries) {
    // Non-numeric step.
    EXPECT_THROW((void)scenario::parse_timeline_text("one drain K 3\n"),
                 scenario::timeline_error);
    // Missing site argument.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K\n"),
                 scenario::timeline_error);
    // Extra argument.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 withdraw K 3\n"),
                 scenario::timeline_error);
    // Negative / non-numeric site.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K -2\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K x\n"),
                 scenario::timeline_error);
    // Prepend out of range.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 prepend K 0 0\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 prepend K 0 99\n"),
                 scenario::timeline_error);
    // Bare step with no type.
    EXPECT_THROW((void)scenario::parse_timeline_text("7\n"), scenario::timeline_error);
}

TEST(ScenarioTimeline, EmptyAndCommentOnlyInputIsEmpty) {
    const auto tl = scenario::parse_timeline_text("# nothing\n\n   \n");
    EXPECT_TRUE(tl.events.empty());
    EXPECT_EQ(tl.last_step(), 0);
}

TEST_F(ScenarioDriver, DrainShiftsCatchmentAndRestoreRecovers) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto tl = scenario::parse_timeline_text("1 drain D 0\n2 restore D 0\n");
    const auto steps = drv.run(tl);
    ASSERT_EQ(steps.size(), 3u);

    // Step 0: baseline, both sites up, everyone routed, split catchment.
    ASSERT_EQ(steps[0].targets.size(), 1u);
    const auto& base = steps[0].targets[0];
    EXPECT_EQ(base.active_sites, 2u);
    EXPECT_DOUBLE_EQ(base.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(base.max_site_share, 0.5);
    EXPECT_EQ(steps[0].ases_touched, 0u);

    // Step 1: west site drained — its users shift east, catchment collapses
    // onto one site, and the re-convergence counters report the work.
    const auto& drained = steps[1].targets[0];
    EXPECT_EQ(drained.active_sites, 1u);
    EXPECT_DOUBLE_EQ(drained.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(drained.max_site_share, 1.0);
    EXPECT_DOUBLE_EQ(drained.shifted_share, 0.5);
    EXPECT_DOUBLE_EQ(drained.stranded_share, 0.0);
    // The weighted median sits on the still-local east users, but the p90
    // lands on the shifted west users, whose RTT strictly worsens.
    EXPECT_GT(drained.p90_rtt_ms, base.p90_rtt_ms);
    EXPECT_GT(steps[1].ases_touched, 0u);
    ASSERT_EQ(steps[1].applied.size(), 1u);
    EXPECT_EQ(steps[1].applied[0], "drain D site 0");

    // Step 2: restored — metrics return to the baseline bytes.
    const auto& restored = steps[2].targets[0];
    EXPECT_EQ(restored.active_sites, 2u);
    EXPECT_DOUBLE_EQ(restored.median_rtt_ms, base.median_rtt_ms);
    EXPECT_DOUBLE_EQ(restored.p90_rtt_ms, base.p90_rtt_ms);
    EXPECT_DOUBLE_EQ(restored.shifted_share, 0.5);  // the west users move back
}

TEST_F(ScenarioDriver, RunIsDeterministic) {
    const auto tl = scenario::parse_timeline_text("1 drain D 0\n2 restore D 0\n3 outage 3\n");
    auto run_once = [&] {
        auto dep = make_two_site_deployment();
        scenario::driver drv{graph_, regions_};
        drv.add_target("D", dep);
        drv.set_sources(eyeball_sources());
        std::ostringstream csv;
        scenario::write_step_csv(csv, drv.run(tl));
        return csv.str();
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("drain D site 0"), std::string::npos);
}

TEST_F(ScenarioDriver, WholeprefixWithdrawStrandsEveryone) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto steps =
        drv.run(scenario::parse_timeline_text("1 withdraw D\n2 announce D\n"));
    ASSERT_EQ(steps.size(), 3u);
    const auto& dark = steps[1].targets[0];
    EXPECT_EQ(dark.active_sites, 0u);
    EXPECT_DOUBLE_EQ(dark.reach_fraction, 0.0);
    EXPECT_DOUBLE_EQ(dark.stranded_share, 1.0);
    EXPECT_DOUBLE_EQ(dark.median_rtt_ms, 0.0);
    const auto& back = steps[2].targets[0];
    EXPECT_EQ(back.active_sites, 2u);
    EXPECT_DOUBLE_EQ(back.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(back.stranded_share, 0.0);
}

TEST_F(ScenarioDriver, OutageHitsEveryTargetInRegion) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto steps = drv.run(scenario::parse_timeline_text("1 outage 0\n"));
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[1].targets[0].active_sites, 1u);  // west site is in region 0
    // A region hosting no site is a no-op event.
    auto dep2 = make_two_site_deployment();
    scenario::driver drv2{graph_, regions_};
    drv2.add_target("D", dep2);
    drv2.set_sources(eyeball_sources());
    const auto steps2 = drv2.run(scenario::parse_timeline_text("1 outage 1\n"));
    EXPECT_EQ(steps2[1].targets[0].active_sites, 2u);
    EXPECT_EQ(steps2[1].ases_touched, 0u);
}

TEST_F(ScenarioDriver, RejectsUnknownTargetSiteAndRegionBeforeMutating) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 drain Q 0\n")),
                 scenario::timeline_error);
    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 drain D 9\n")),
                 scenario::timeline_error);
    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 outage 99\n")),
                 scenario::timeline_error);
    // Validation happens before step 0 runs: a bad event at the *end* of the
    // timeline must leave the deployment untouched.
    EXPECT_THROW(
        (void)drv.run(scenario::parse_timeline_text("1 drain D 0\n2 drain Q 0\n")),
        scenario::timeline_error);
    EXPECT_EQ(dep.rib().active_site_count(), 2u);
}

TEST_F(ScenarioDriver, CsvHasHeaderAndOneRowPerStepTarget) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());
    const auto steps = drv.run(scenario::parse_timeline_text("1 drain D 0\n"));

    std::ostringstream csv;
    scenario::write_step_csv(csv, steps);
    const auto text = csv.str();
    std::size_t lines = 0;
    for (const char c : text) lines += (c == '\n');
    EXPECT_EQ(lines, 3u);  // header + step 0 + step 1
    EXPECT_EQ(text.rfind("step,target,events,", 0), 0u);
    EXPECT_NE(text.find("\"drain D site 0\""), std::string::npos);
}

TEST_F(ScenarioDriver, PrependEventReroutesTraffic) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    // Heavily prepending the west site makes its paths longer, so both
    // eyeballs converge on the east site.
    const auto steps = drv.run(scenario::parse_timeline_text("1 prepend D 0 8\n"));
    const auto& after = steps[1].targets[0];
    EXPECT_EQ(after.active_sites, 2u);  // still announced, just unattractive
    EXPECT_DOUBLE_EQ(after.max_site_share, 1.0);
    EXPECT_DOUBLE_EQ(after.shifted_share, 0.5);
}

TEST(ScenarioAccounting, LetterWideWithdrawAnnounceWorkColumnsArePinned) {
    // The ases_touched and cache_invalidated CSV columns are part of the
    // byte contract of `acctx scenario`: pin them for a whole-prefix
    // withdraw and re-announce of a 12-site deployment on a generated
    // graph, where sites share origin ASes, best routes tie and every
    // fourth site is local scope.
    const auto regions = topo::make_regions(topo::region_plan{20, 6, 20, 8, 15, 5, 1}, 13);
    topo::graph_plan plan;
    plan.tier1_count = 4;
    plan.transits_per_continent = 4;
    plan.eyeball_count = 80;
    plan.enterprise_count = 10;
    plan.public_dns_count = 1;
    const auto graph = topo::make_graph(regions, plan, 13);

    std::vector<anycast::site> sites;
    std::vector<scenario::weighted_source> sources;
    std::size_t tier1s = 0;
    std::size_t transits = 0;
    for (const auto& as : graph.all()) {
        const bool tier1 = as.role == topo::as_role::tier1 && tier1s++ < 2;
        const bool transit = as.role == topo::as_role::transit && transits++ < 3;
        for (std::size_t k = 0; k < (tier1 ? 3u : transit ? 2u : 0u); ++k) {
            const auto id = static_cast<route::site_id>(sites.size());
            sites.push_back({id, "s" + std::to_string(id), as.asn,
                             as.presence[k % as.presence.size()],
                             id % 4 == 3 ? route::announcement_scope::local
                                         : route::announcement_scope::global});
        }
        if (as.role == topo::as_role::eyeball) {
            for (const topo::region_id r : as.presence) sources.push_back({as.asn, r, 1.0});
        }
    }
    ASSERT_EQ(sites.size(), 12u);
    anycast::deployment dep{"D", std::move(sites), graph, regions};
    scenario::driver drv{graph, regions};
    drv.add_target("D", dep);
    drv.set_sources(std::move(sources));

    std::ostringstream csv;
    scenario::write_step_csv(
        csv, drv.run(scenario::parse_timeline_text("1 withdraw D\n2 announce D\n")));
    // Keep the last two columns of every data row.
    std::istringstream rows{csv.str()};
    std::string line;
    std::getline(rows, line);  // header
    std::string work;
    while (std::getline(rows, line)) {
        const auto last = line.rfind(',');
        work += line.substr(line.rfind(',', last - 1) + 1) + ';';
    }
    EXPECT_EQ(work, "0,0;1100,190;1100,0;");
}

} // namespace
