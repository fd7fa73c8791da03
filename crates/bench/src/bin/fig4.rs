//! Figure 4 reproduction: task utility (test R²) vs wall-clock for five
//! systems on a 517-dataset corpus.
//!
//! Paper's shape: Mileena's proxy reaches high R² almost immediately and
//! its AutoML handoff tops everything; ARDA grinds to slightly-worse;
//! Novelty degrades the model; AutoML-alone is poor. Absolute times are a
//! laptop simulator's, not the paper testbed's — compare *ratios*.
//!
//! ```sh
//! cargo run -p mileena-bench --release --bin fig4
//! ```

use mileena_bench::{fmt3, index_of, request_of};
use mileena_core::{CentralPlatform, LocalDataStore, PlatformConfig};
use mileena_datagen::{generate_corpus, CorpusConfig};
use mileena_ml::{AutoMl, AutoMlConfig};
use mileena_search::arda::ArdaSearch;
use mileena_search::modes::materialized_utility;
use mileena_search::novelty::NoveltySearch;
use mileena_search::{enumerate_candidates, Augmentation, SearchConfig};
use std::time::{Duration, Instant};

fn main() {
    let cfg = CorpusConfig::paper_scale(42);
    println!("=== Figure 4: utility vs time, corpus of {} datasets ===\n", cfg.num_datasets);
    let corpus = generate_corpus(&cfg);
    let request = request_of(&corpus);
    let index = index_of(&corpus);
    let search_cfg = SearchConfig { time_budget: Duration::from_secs(10), ..Default::default() };

    // ── Mileena: sketch upload (offline) + proxy search (online) ──────────
    let t_offline = Instant::now();
    let platform = CentralPlatform::new(PlatformConfig::default());
    for p in &corpus.providers {
        platform.register(LocalDataStore::new(p.clone()).prepare_upload(None, 7).unwrap()).unwrap();
    }
    let offline = t_offline.elapsed();

    let t0 = Instant::now();
    let result = platform.search(&request, &search_cfg).unwrap();
    let mileena_time = t0.elapsed();
    println!("Mileena proxy search trajectory (★ in the figure):");
    println!("  {:>9}  {:>7}", "t", "R²");
    println!("  {:>9.3?}  {:>7.3}", Duration::ZERO, result.outcome.base_score);
    for s in &result.outcome.steps {
        println!("  {:>9.3?}  {:>7.3}", s.elapsed, s.score_after);
    }

    // Mileena → AutoML handoff (● in the figure): materialize the selected
    // augmentations, let AutoML use the rest of the 10 s budget.
    let selections: Vec<Augmentation> =
        result.outcome.steps.iter().map(|s| s.augmentation.clone()).collect();
    let (aug_train, aug_test, feats) = materialize(&request, &selections, &corpus.providers);
    let t1 = Instant::now();
    let automl = AutoMl::new(AutoMlConfig {
        budget: Duration::from_secs(10).saturating_sub(mileena_time),
        enforce_budget: true,
        ..Default::default()
    });
    let frefs: Vec<&str> = feats.iter().map(|s| s.as_str()).collect();
    let train_xy = aug_train.to_xy(&frefs, "y").unwrap();
    let test_xy = aug_test.to_xy(&frefs, "y").unwrap();
    let report = automl.run(&train_xy).unwrap();
    let preds = report.best_model.predict(&test_xy).unwrap();
    let automl_r2 = mileena_ml::r2_score(&test_xy.y, &preds).unwrap();
    let mileena_automl_time = mileena_time + t1.elapsed();
    println!(
        "  AutoML handoff picked {} (cv R² {:.3}) → test R² {:.3}",
        report.best_name, report.best_cv_r2, automl_r2
    );

    // ── ARDA (retrain per candidate; does not enforce the budget) ─────────
    let profile = mileena_discovery::DatasetProfile::of(&request.train, 128);
    let all_cands = enumerate_candidates(
        &index,
        &platform.store(),
        &profile,
        &mileena_search::CandidateLimits::default(),
    )
    .resolve(platform.store().dataset_interner());
    let arda = ArdaSearch::new(search_cfg.clone(), &corpus.providers, false);
    let t2 = Instant::now();
    let arda_out = arda.run(&request, all_cands.clone()).unwrap();
    let arda_time = t2.elapsed();

    // ── Novelty baseline ───────────────────────────────────────────────────
    let novelty = NoveltySearch::new(search_cfg.clone(), &corpus.providers, 5);
    let t3 = Instant::now();
    let nov_out = novelty.run(&request, all_cands).unwrap();
    let nov_time = t3.elapsed();

    // ── AutoML alone (no data search) ──────────────────────────────────────
    let t4 = Instant::now();
    let base_train = request.train.to_xy(&["base_x"], "y").unwrap();
    let base_test = request.test.to_xy(&["base_x"], "y").unwrap();
    let auto_alone = AutoMl::new(AutoMlConfig {
        budget: Duration::from_secs(10),
        enforce_budget: true,
        ..Default::default()
    })
    .run(&base_train)
    .unwrap();
    let alone_preds = auto_alone.best_model.predict(&base_test).unwrap();
    let alone_r2 = mileena_ml::r2_score(&base_test.y, &alone_preds).unwrap();
    let alone_time = t4.elapsed();

    // Final utilities, all measured as non-private materialized test R².
    let mileena_sel_r2 =
        materialized_utility(&request, &selections, &corpus.providers, 1e-4).unwrap();

    println!("\nsummary (per-system final point):");
    println!("  {:<22} {:>10} {:>8}   note", "system", "time", "test R²");
    let row = |name: &str, t: Duration, r2: f64, note: &str| {
        println!("  {:<22} {:>10.2?} {}   {note}", name, t, fmt3(r2));
    };
    row("Mileena (proxy)", mileena_time, mileena_sel_r2, "★ search only");
    row("Mileena + AutoML", mileena_automl_time, automl_r2.max(mileena_sel_r2), "● full pipeline");
    row("ARDA", arda_time, arda_out.final_score, "budget not enforced");
    row("Novelty", nov_time, nov_out.final_score, "top-5 most novel");
    row("AutoML alone", alone_time, alone_r2, "no augmentation");
    println!(
        "\n  (offline sketch upload, amortized across all requests: {offline:.2?}; \
         Mileena evaluated {} candidates, ARDA {})",
        result.outcome.evaluations, arda_out.evaluations
    );
    println!(
        "\npaper: Mileena ≈0.7 almost immediately → 0.82 with AutoML; ARDA ≈50 min \
         slightly worse; Novelty degrades; AutoML-alone poor."
    );
}

/// Materialize selections (per-key aggregated joins) for the AutoML handoff.
fn materialize(
    request: &mileena_search::SearchRequest,
    selections: &[Augmentation],
    providers: &[mileena_relation::Relation],
) -> (mileena_relation::Relation, mileena_relation::Relation, Vec<String>) {
    let mut train = request.train.clone();
    let mut test = request.test.clone();
    let mut features = request.task.features.clone();
    for aug in selections {
        let cand = providers.iter().find(|p| p.name() == aug.dataset()).unwrap();
        match aug {
            Augmentation::Union { .. } => {
                train = train.union(cand).unwrap();
            }
            Augmentation::Join { query_key, candidate_key, .. } => {
                let cand = mileena_search::modes::aggregate_per_key(cand, candidate_key).unwrap();
                let before: Vec<String> =
                    train.schema().names().iter().map(|s| s.to_string()).collect();
                train = train.hash_join(&cand, &[query_key], &[candidate_key]).unwrap();
                test = test.hash_join(&cand, &[query_key], &[candidate_key]).unwrap();
                features.extend(
                    train
                        .schema()
                        .fields()
                        .iter()
                        .filter(|f| !before.contains(&f.name) && f.data_type.is_numeric())
                        .map(|f| f.name.clone()),
                );
            }
        }
    }
    (train, test, features)
}
