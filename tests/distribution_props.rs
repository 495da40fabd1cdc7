//! Property-based tests over the distribution machinery and the model:
//! invariants that must hold for *any* weights, capacities, and
//! distributions, not just the ones the experiments happen to visit.

use mheta::dist::{bal, blk, ic, ic_bal};
use mheta::dist::{AnchorInputs, GenBlock, SpectrumPath};
use proptest::prelude::*;

fn arb_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn apportion_preserves_total_and_minimum(
        total in 8usize..2000,
        weights in arb_weights(8),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let g = GenBlock::apportion(total, &weights);
        prop_assert_eq!(g.total(), total);
        prop_assert!(g.rows().iter().all(|&r| r >= 1));
    }

    #[test]
    fn apportion_is_weight_monotone(
        total in 64usize..2000,
        weights in arb_weights(6),
    ) {
        prop_assume!(weights.iter().all(|&w| w > 0.01));
        let g = GenBlock::apportion(total, &weights);
        // Strictly heavier weights never get strictly fewer rows than
        // a weight at most half theirs.
        for i in 0..6 {
            for j in 0..6 {
                if weights[i] >= 2.0 * weights[j] {
                    prop_assert!(
                        g.rows()[i] + 1 >= g.rows()[j],
                        "w[{i}]={} >> w[{j}]={} but rows {} < {}",
                        weights[i], weights[j], g.rows()[i], g.rows()[j]
                    );
                }
            }
        }
    }

    #[test]
    fn owner_is_consistent_with_offsets(
        rows in proptest::collection::vec(1usize..50, 2..8),
    ) {
        let g = GenBlock::new(rows).unwrap();
        let offsets = g.offsets();
        for node in 0..g.len() {
            for r in offsets[node]..offsets[node + 1] {
                prop_assert_eq!(g.owner(r), node);
            }
        }
    }

    #[test]
    fn anchors_always_valid(
        total in 16usize..1500,
        ns in proptest::collection::vec(0.1f64..10.0, 8..=8),
        caps in proptest::collection::vec(1usize..400, 8..=8),
    ) {
        let inp = AnchorInputs {
            total_rows: total,
            ns_per_row: ns,
            capacity_rows: caps,
        };
        for g in [blk(&inp), bal(&inp), ic(&inp), ic_bal(&inp)] {
            prop_assert_eq!(g.total(), total);
            prop_assert!(g.rows().iter().all(|&r| r >= 1));
        }
    }

    #[test]
    fn spectrum_interpolation_preserves_invariants(
        total in 16usize..1500,
        ns in proptest::collection::vec(0.1f64..10.0, 8..=8),
        caps in proptest::collection::vec(1usize..400, 8..=8),
        t in 0.0f64..1.0,
    ) {
        let inp = AnchorInputs {
            total_rows: total,
            ns_per_row: ns,
            capacity_rows: caps,
        };
        for path in [SpectrumPath::new(&inp), SpectrumPath::full(&inp)] {
            let g = path.at(t);
            prop_assert_eq!(g.total(), total);
            prop_assert!(g.rows().iter().all(|&r| r >= 1));
        }
    }

    #[test]
    fn searches_respect_invariants_and_budget(
        total in 16usize..300,
        seed in 0u64..1000,
    ) {
        use mheta::dist::{random_search, simulated_annealing, AnnealingConfig, RandomConfig};
        let n = 4;
        // A synthetic fitness: quadratic distance to an arbitrary target.
        let target: Vec<usize> = GenBlock::apportion(
            total,
            &[seed as f64 % 7.0 + 1.0, 2.0, 3.0, 1.0],
        )
        .rows()
        .to_vec();
        let fitness = move |rows: &[usize]| -> f64 {
            rows.iter()
                .zip(&target)
                .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
                .sum()
        };
        let r = random_search(total, n, &fitness, RandomConfig {
            max_evals: 40,
            seed,
        });
        prop_assert!(r.evaluations <= 40);
        prop_assert_eq!(r.best.total(), total);
        let a = simulated_annealing(
            &GenBlock::block(total, n),
            &fitness,
            AnnealingConfig { max_evals: 40, seed },
        );
        prop_assert!(a.evaluations <= 40);
        prop_assert_eq!(a.best.total(), total);
        prop_assert!(a.best.rows().iter().all(|&x| x >= 1));
    }
}

mod fileio_props {
    use mheta::core::{load_model, measure_arch, save_model};
    use mheta::core::{
        CommPattern, InstrumentedProfile, Mheta, NodeProfile, ProgramStructure, SectionSpec,
        StageSpec, Variable,
    };
    use mheta::mpi::Scope;
    use mheta::sim::ClusterSpec;
    use proptest::prelude::*;

    fn arb_comm() -> impl Strategy<Value = CommPattern> {
        prop_oneof![
            Just(CommPattern::None),
            (1usize..4096).prop_map(|m| CommPattern::NearestNeighbor { msg_elems: m }),
            (1usize..4096).prop_map(|m| CommPattern::Pipelined { msg_elems: m }),
            (1usize..4096).prop_map(|m| CommPattern::Reduction { msg_elems: m }),
        ]
    }

    fn arb_structure() -> impl Strategy<Value = ProgramStructure> {
        let var = (1u32..20, 1usize..5000, 0.01f64..4096.0, any::<bool>()).prop_map(
            |(id, rows, epr, ro)| Variable::streamed(id, &format!("v{id}"), rows, epr, ro),
        );
        (
            proptest::collection::vec(var, 1..4),
            proptest::collection::vec((arb_comm(), any::<bool>(), 0.01f64..=1.0), 1..5),
        )
            .prop_map(|(mut vars, sections)| {
                // Distinct ids and one shared row count.
                let rows = vars[0].total_rows;
                for (k, v) in vars.iter_mut().enumerate() {
                    v.id = k as u32 + 1;
                    v.total_rows = rows;
                }
                let first = vars[0].id;
                let sections = sections
                    .into_iter()
                    .enumerate()
                    .map(|(i, (comm, prefetch, frac))| {
                        let tiles = if matches!(comm, CommPattern::Pipelined { .. }) {
                            3
                        } else {
                            1
                        };
                        SectionSpec {
                            id: i as u32,
                            tiles,
                            stages: vec![StageSpec::new(0, vec![first], vec![], prefetch)
                                .with_row_fraction(frac)],
                            comm,
                        }
                    })
                    .collect();
                ProgramStructure {
                    name: "prop".into(),
                    sections,
                    variables: vars,
                }
            })
    }

    /// `s` on two measured nodes, every stage timed and every variable's
    /// I/O measured, so the file carries every kind of member.
    fn uniform_model(s: &ProgramStructure) -> Mheta {
        let arch = measure_arch(&ClusterSpec::homogeneous(2)).unwrap();
        let mut node = NodeProfile::default();
        for sec in &s.sections {
            node.section_send_bytes.insert(sec.id, 64);
            for tile in 0..sec.tiles {
                for st in &sec.stages {
                    let scope = Scope {
                        section: sec.id,
                        tile,
                        stage: st.id,
                    };
                    node.compute_ns_per_row.insert(scope, 0.1 + f64::from(tile));
                }
            }
        }
        for v in &s.variables {
            node.read_ns_per_elem.insert(v.id, v.elems_per_row / 3.0);
            node.write_ns_per_elem.insert(v.id, v.elems_per_row / 7.0);
        }
        let nodes = vec![node.clone(), NodeProfile { rank: 1, ..node }];
        let total = s.distribution_rows();
        let rows = vec![total / 2, total - total / 2];
        Mheta::new(s.clone(), arch, InstrumentedProfile { nodes, rows }).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn any_valid_structure_round_trips(s in arb_structure()) {
            prop_assume!(s.validate().is_ok());
            let text = save_model(&uniform_model(&s));
            let back = load_model(&text).unwrap();
            prop_assert_eq!(&s, back.structure());
            prop_assert_eq!(save_model(&back), text);
        }
    }
}

mod redistribution_props {
    use mheta::dist::{rows_moved, transfer_plan, GenBlock};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn plans_conserve_rows_for_any_pair(
            old_w in proptest::collection::vec(1.0f64..50.0, 6..=6),
            new_w in proptest::collection::vec(1.0f64..50.0, 6..=6),
            total in 6usize..500,
        ) {
            let old = GenBlock::apportion(total, &old_w);
            let new = GenBlock::apportion(total, &new_w);
            let plan = transfer_plan(old.rows(), new.rows());
            let shipped: usize = plan.iter().map(|t| t.rows).sum();
            prop_assert_eq!(shipped, total);
            prop_assert!(rows_moved(&plan) <= total);
            // Each destination receives exactly its new share, each
            // source ships exactly its old share.
            for i in 0..6 {
                let inc: usize = plan.iter().filter(|t| t.to == i).map(|t| t.rows).sum();
                prop_assert_eq!(inc, new.rows()[i]);
                let out: usize = plan.iter().filter(|t| t.from == i).map(|t| t.rows).sum();
                prop_assert_eq!(out, old.rows()[i]);
            }
            // Transfers tile the row space without overlap.
            let mut covered = vec![false; total];
            for t in &plan {
                for (r, slot) in covered
                    .iter_mut()
                    .enumerate()
                    .skip(t.global_start)
                    .take(t.rows)
                {
                    prop_assert!(!*slot, "row {r} covered twice");
                    *slot = true;
                }
            }
            prop_assert!(covered.into_iter().all(|c| c));
        }

        #[test]
        fn identity_plans_move_nothing(
            w in proptest::collection::vec(1.0f64..50.0, 4..=4),
            total in 4usize..300,
        ) {
            let g = GenBlock::apportion(total, &w);
            prop_assert_eq!(rows_moved(&transfer_plan(g.rows(), g.rows())), 0);
        }
    }
}
