//! Golden optimizer outputs for travel templates of the kind the query
//! server plans on every plan-cache miss: each of the four template
//! shapes at k = 3..=10, optimal cache, execution-time metric. Every
//! line pins the chosen access-pattern choice, the topology's covering
//! pairs, the fetch factors, the cost to the bit and the search effort
//! counters, so a faster optimizer must reproduce the same search.

use mdq::prelude::*;
use mdq::Mdq;

fn travel_engine() -> Mdq {
    let w = travel_world(2008);
    Mdq::from_world(mdq::services::domains::World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

/// The four shapes over one set of constants: (name, atoms, the budget
/// predicate). Conference and weather are bulk services; flight and
/// hotel are chunked, so their fetch factors are the phase-3 knobs.
fn templates() -> Vec<(&'static str, String)> {
    let conf = "conf('DB', Conf, Start, End, City)";
    let weather = "weather(City, Temp, Start)";
    let flight = "flight('Milano', City, Start, End, ST, ET, FPrice)";
    let hotel = "hotel(Hotel, City, 'luxury', Start, End, HPrice)";
    let window = "Start >= '2007/3/14' + 7, End <= '2007/3/14' + 170";
    vec![
        (
            "conf-weather-flight",
            format!(
                "q(Conf, City, FPrice) :- {conf}, {weather}, {flight}, {window}, \
                 Temp >= 18, FPrice < 800.0."
            ),
        ),
        (
            "conf-weather-hotel",
            format!(
                "q(Conf, City, HPrice, Hotel) :- {conf}, {weather}, {hotel}, {window}, \
                 Temp >= 18, HPrice < 1000.0."
            ),
        ),
        (
            "conf-flight-hotel",
            format!(
                "q(Conf, City, FPrice, HPrice, Hotel) :- {conf}, {flight}, {hotel}, {window}, \
                 FPrice + HPrice < 1700.0."
            ),
        ),
        (
            "all",
            format!(
                "q(Conf, City, FPrice, HPrice, Hotel) :- {conf}, {weather}, {flight}, {hotel}, \
                 {window}, Temp >= 18, FPrice + HPrice < 1700.0."
            ),
        ),
    ]
}

fn golden_line(engine: &Mdq, name: &str, text: &str, k: u64) -> String {
    let query = engine.parse(text).expect("template parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k,
                cache: CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("template optimizes");
    let plan = &optimized.candidate.plan;
    format!(
        "{name} k={k}: choice={:?} pairs={:?} fetches={:?} cost={:#018x} stats={:?}",
        plan.choice.0,
        plan.poset.covering_pairs(),
        plan.fetches,
        optimized.candidate.cost.to_bits(),
        optimized.stats,
    )
}

/// One line per template and k, in `templates()` order. A line that
/// moves means the server would choose, price or search differently:
/// update it only in a change that means to.
const GOLDEN: &[&str] = &[
    "conf-weather-flight k=3: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 10] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=4: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 13] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=5: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 17] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=6: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 20] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=7: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 23] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=8: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 26] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=9: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 30] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 5, partials_pruned: 3, fetch: FetchStats { vectors_costed: 5, pruned_by_bound: 1, pruned_infeasible: 0 } } }",
    "conf-weather-flight k=10: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 33] cost=0x402d1c71c71c71c6 stats=OptimizerStats { sequences_permissible: 1, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 1, partials_considered: 5, partials_pruned: 2, fetch: FetchStats { vectors_costed: 9, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=3: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 49] cost=0x40272f684bda12f7 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 13, partials_considered: 27, partials_pruned: 2, fetch: FetchStats { vectors_costed: 49, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=4: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=5: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=6: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=7: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=8: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=9: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-weather-hotel k=10: choice=[0, 0, 0] pairs=[(0, 1), (1, 2)] fetches=[1, 1, 64] cost=0x402ca12f684bda13 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 15, partials_considered: 0, partials_pruned: 0, fetch: FetchStats { vectors_costed: 21, pruned_by_bound: 0, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=3: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=4: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=5: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=6: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=7: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=8: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=9: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "conf-flight-hotel k=10: choice=[1, 0, 1] pairs=[(2, 0), (2, 1)] fetches=[1, 1, 1] cost=0x402d333333333333 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 0, partials_considered: 24, partials_pruned: 15, fetch: FetchStats { vectors_costed: 11, pruned_by_bound: 5, pruned_infeasible: 0 } } }",
    "all k=3: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 8, 7] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 27, pruned_by_bound: 11, pruned_infeasible: 0 } } }",
    "all k=4: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 9, 8] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 31, pruned_by_bound: 13, pruned_infeasible: 0 } } }",
    "all k=5: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 10, 9] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 34, pruned_by_bound: 16, pruned_infeasible: 0 } } }",
    "all k=6: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 10, 11] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 36, pruned_by_bound: 18, pruned_infeasible: 0 } } }",
    "all k=7: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 11, 12] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 41, pruned_by_bound: 19, pruned_infeasible: 0 } } }",
    "all k=8: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 12, 12] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 66, pruned_by_bound: 22, pruned_infeasible: 0 } } }",
    "all k=9: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 13, 13] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 68, pruned_by_bound: 24, pruned_infeasible: 0 } } }",
    "all k=10: choice=[0, 0, 0, 0] pairs=[(0, 1), (1, 2), (1, 3)] fetches=[1, 1, 14, 13] cost=0x402c777777777777 stats=OptimizerStats { sequences_permissible: 3, sequences_pruned: 0, phase2: Phase2Stats { topologies_complete: 2, partials_considered: 98, partials_pruned: 67, fetch: FetchStats { vectors_costed: 88, pruned_by_bound: 27, pruned_infeasible: 0 } } }",
];

#[test]
fn travel_templates_plan_as_recorded() {
    let engine = travel_engine();
    let mut got = Vec::new();
    for (name, text) in templates() {
        for k in 3..=10 {
            got.push(golden_line(&engine, name, &text, k));
        }
    }
    assert_eq!(got.len(), GOLDEN.len());
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}
