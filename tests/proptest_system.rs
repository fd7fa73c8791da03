//! System-level property tests spanning crates.

use mileena::privacy::{FactorizedMechanism, FpmConfig, PrivacyBudget};
use mileena::relation::RelationBuilder;
use mileena::semiring::triple_of;
use mileena::sketch::{build_sketch, eval_join, eval_union, SketchConfig};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-50i32..=50).prop_map(|v| v as f64 / 50.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The crate stack's central invariant, end to end: evaluating an
    /// augmentation on *sketches* equals aggregating the *materialized*
    /// augmented relation, for arbitrary data.
    #[test]
    fn sketch_eval_equals_materialized_join(
        train_rows in prop::collection::vec((0i64..6, small_f64(), small_f64()), 5..40),
        cand_rows in prop::collection::vec((0i64..6, small_f64()), 1..20),
    ) {
        let train = RelationBuilder::new("train")
            .int_col("k", &train_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("x", &train_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .float_col("y", &train_rows.iter().map(|r| r.2).collect::<Vec<_>>())
            .build().unwrap();
        let cand = RelationBuilder::new("prov")
            .int_col("k", &cand_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("z", &cand_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .build().unwrap();

        let tcfg = SketchConfig {
            key_columns: Some(vec!["k".into()]),
            feature_columns: Some(vec!["x".into(), "y".into()]),
            ..SketchConfig::requester()
        };
        let ccfg = SketchConfig {
            key_columns: Some(vec!["k".into()]),
            feature_columns: Some(vec!["z".into()]),
            ..Default::default()
        };
        let ts = build_sketch(&train, &tcfg).unwrap();
        let cs = build_sketch(&cand, &ccfg).unwrap();
        let stats = eval_join(ts.keyed_for("k").unwrap(), cs.keyed_for("k").unwrap()).unwrap();

        let joined = train.hash_join(&cand, &["k"], &["k"]).unwrap();
        if joined.num_rows() == 0 {
            prop_assert_eq!(stats.triple.c, 0.0);
        } else {
            let naive = triple_of(&joined, &["x", "y", "z"]).unwrap()
                .rename_features(|n| if n == "z" { "prov.z".into() } else { n.to_string() });
            let got = stats.triple.align(&naive.feature_names()).unwrap();
            prop_assert!(got.approx_eq(&naive, 1e-6), "\n{:?}\n{:?}", got, naive);
        }
    }

    /// Arena-layout invariant at tight tolerance: the slab-backed
    /// `eval_join` (sorted-merge over interned key ids) must equal the
    /// materialized-join triple within 1e-9 on random corpora, including
    /// through an arena projection (the candidate-cache path).
    #[test]
    fn arena_eval_join_equals_materialized_within_1e9(
        train_rows in prop::collection::vec((0i64..8, small_f64(), small_f64()), 5..50),
        cand_rows in prop::collection::vec((0i64..8, small_f64(), small_f64()), 1..30),
    ) {
        let train = RelationBuilder::new("train")
            .int_col("k", &train_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("x", &train_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .float_col("y", &train_rows.iter().map(|r| r.2).collect::<Vec<_>>())
            .build().unwrap();
        let cand = RelationBuilder::new("prov")
            .int_col("k", &cand_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("z", &cand_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .float_col("w", &cand_rows.iter().map(|r| r.2).collect::<Vec<_>>())
            .build().unwrap();

        let tcfg = SketchConfig {
            key_columns: Some(vec!["k".into()]),
            feature_columns: Some(vec!["x".into(), "y".into()]),
            ..SketchConfig::requester()
        };
        let ccfg = SketchConfig {
            key_columns: Some(vec!["k".into()]),
            feature_columns: Some(vec!["z".into(), "w".into()]),
            ..Default::default()
        };
        let ts = build_sketch(&train, &tcfg).unwrap();
        let cs = build_sketch(&cand, &ccfg).unwrap();

        // Exercise the cached-evaluation path: project the candidate arena
        // onto a feature subset first, as CandidateCache does.
        let ck = cs.keyed_for("k").unwrap();
        let projected = mileena::sketch::KeyedSketch::from_arena(
            "k",
            ck.arena().project(&["prov.z"]).unwrap(),
        );
        let stats = eval_join(ts.keyed_for("k").unwrap(), &projected).unwrap();

        let joined = train.hash_join(&cand, &["k"], &["k"]).unwrap();
        if joined.num_rows() == 0 {
            prop_assert_eq!(stats.triple.c, 0.0);
        } else {
            let naive = triple_of(&joined, &["x", "y", "z"]).unwrap()
                .rename_features(|n| if n == "z" { "prov.z".into() } else { n.to_string() });
            let got = stats.triple.align(&naive.feature_names()).unwrap();
            prop_assert!(got.approx_eq(&naive, 1e-9), "\n{:?}\n{:?}", got, naive);
        }
    }

    /// Packed-triangle arena ops pinned against a full-m² reference: every
    /// kernel that now runs on packed upper triangles (join_stats, compose,
    /// merge_add, project, total) must match the same computation done with
    /// full-matrix `CovarTriple` semi-ring ops on the same grouped data,
    /// within 1e-9 (mirroring PR 1's arena-vs-materialized pin).
    #[test]
    fn packed_arena_ops_match_full_matrix_reference(
        train_rows in prop::collection::vec((0i64..8, small_f64(), small_f64()), 5..50),
        cand_rows in prop::collection::vec((0i64..8, small_f64(), small_f64()), 1..30),
    ) {
        use mileena::semiring::{grouped_triples, CovarTriple, GroupedArena};

        let train = RelationBuilder::new("train")
            .int_col("k", &train_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("x", &train_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .float_col("y", &train_rows.iter().map(|r| r.2).collect::<Vec<_>>())
            .build().unwrap();
        let cand = RelationBuilder::new("cand")
            .int_col("k", &cand_rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("z", &cand_rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .float_col("w", &cand_rows.iter().map(|r| r.2).collect::<Vec<_>>())
            .build().unwrap();

        // Full-matrix reference: per-key CovarTriples straight from the
        // relations (q is the complete m² symmetric matrix).
        let ref_left = grouped_triples(&train, &["k"], &["x", "y"]).unwrap();
        let ref_right = grouped_triples(&cand, &["k"], &["z", "w"]).unwrap();

        // Packed arenas over the same data.
        let left = GroupedArena::from_groups(
            &["x".to_string(), "y".to_string()], ref_left.clone()).unwrap();
        let right = GroupedArena::from_groups(
            &["z".to_string(), "w".to_string()], ref_right.clone()).unwrap();

        // join_stats vs Σ_k mul over the key intersection.
        let (c, s, q, matched) = left.join_stats(&right);
        let mut ref_total = CovarTriple::zero(&[]);
        let mut ref_matched = 0usize;
        for (key, lt) in &ref_left {
            if let Some(rt) = ref_right.get(key) {
                ref_total = ref_total.add(&lt.mul(rt).unwrap()).unwrap();
                ref_matched += 1;
            }
        }
        prop_assert_eq!(matched, ref_matched);
        if ref_matched > 0 {
            let got = CovarTriple {
                features: vec!["x".into(), "y".into(), "z".into(), "w".into()], c, s, q,
            };
            let got = got.align(&ref_total.feature_names()).unwrap();
            prop_assert!(got.approx_eq(&ref_total, 1e-9), "\n{:?}\n{:?}", got, ref_total);
        }

        // compose vs per-key mul.
        let composed = left.compose(&right);
        for (key, triple) in composed.sorted_pairs() {
            let want = ref_left[&key].mul(&ref_right[&key]).unwrap();
            prop_assert!(triple.approx_eq(&want, 1e-9));
        }

        // project vs CovarTriple::project.
        let projected = left.project(&["y"]).unwrap();
        for (key, triple) in projected.sorted_pairs() {
            let want = ref_left[&key].project(&["y"]).unwrap();
            prop_assert!(triple.approx_eq(&want, 1e-9));
        }

        // merge_add (self-union doubles every triple) and total.
        let mut doubled = left.clone();
        doubled.merge_add(&left).unwrap();
        for (key, triple) in doubled.sorted_pairs() {
            let want = ref_left[&key].add(&ref_left[&key]).unwrap();
            prop_assert!(triple.approx_eq(&want, 1e-9));
        }
        let mut ref_sum = CovarTriple::zero(&[]);
        for t in ref_left.values() {
            ref_sum = ref_sum.add(t).unwrap();
        }
        let total = left.total().align(&ref_sum.feature_names()).unwrap();
        prop_assert!(total.approx_eq(&ref_sum, 1e-9));
    }

    /// Union-side invariant with provider-qualified renaming.
    #[test]
    fn sketch_eval_equals_materialized_union(
        a_rows in prop::collection::vec((small_f64(), small_f64()), 2..30),
        b_rows in prop::collection::vec((small_f64(), small_f64()), 2..30),
    ) {
        let mk = |name: &str, rows: &[(f64, f64)]| RelationBuilder::new(name)
            .float_col("x", &rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("y", &rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .build().unwrap();
        let train = mk("train", &a_rows);
        let cand = mk("prov", &b_rows);
        let ts = build_sketch(&train, &SketchConfig::requester()).unwrap();
        let cs = build_sketch(&cand, &SketchConfig::default()).unwrap();
        let stats = eval_union(&ts.full, &cs.full, |n| {
            n.strip_prefix("prov.").unwrap_or(n).to_string()
        }).unwrap();
        let naive = triple_of(&train.union(&cand).unwrap(), &["x", "y"]).unwrap();
        prop_assert!(stats.triple.approx_eq(&naive, 1e-6));
    }

    /// FPM noise is unbiased-ish and deterministic: privatizing twice with
    /// one seed gives identical sketches; with more budget, the expected
    /// distortion shrinks.
    #[test]
    fn fpm_determinism_under_any_data(
        rows in prop::collection::vec((0i64..4, small_f64()), 4..30),
        seed in 0u64..1000,
    ) {
        let r = RelationBuilder::new("d")
            .int_col("k", &rows.iter().map(|r| r.0).collect::<Vec<_>>())
            .float_col("x", &rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .build().unwrap();
        let sketch = build_sketch(&r, &SketchConfig::default()).unwrap();
        let fpm = FactorizedMechanism::new(FpmConfig::default());
        let b = PrivacyBudget::new(1.0, 1e-6).unwrap();
        let p1 = fpm.privatize(&sketch, b, seed).unwrap();
        let p2 = fpm.privatize(&sketch, b, seed).unwrap();
        prop_assert_eq!(&p1.sketch, &p2.sketch);
        // Symmetry of Q preserved under noise.
        let t = &p1.sketch.full;
        let m = t.num_features();
        for i in 0..m {
            for j in 0..m {
                prop_assert_eq!(t.q[i * m + j], t.q[j * m + i]);
            }
        }
    }

    /// CSV round trip at the system boundary preserves relations.
    #[test]
    fn csv_roundtrip_arbitrary_numeric(
        rows in prop::collection::vec((any::<i32>(), small_f64()), 1..30),
    ) {
        let r = RelationBuilder::new("t")
            .int_col("a", &rows.iter().map(|r| r.0 as i64).collect::<Vec<_>>())
            .float_col("b", &rows.iter().map(|r| r.1).collect::<Vec<_>>())
            .build().unwrap();
        let mut buf = Vec::new();
        mileena::relation::csv::write_csv_to(&r, &mut buf).unwrap();
        let back = mileena::relation::csv::read_csv_from(buf.as_slice(), "t").unwrap();
        prop_assert_eq!(r, back);
    }
}
