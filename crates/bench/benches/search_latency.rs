//! Criterion benches for end-to-end search latency (the §1 claim that
//! sketch-based search answers in seconds where retraining takes minutes),
//! plus the cached-vs-uncached candidate-evaluation comparison that tracks
//! the projection cache's win (see DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mileena_bench::{index_of, request_of};
use mileena_core::{CentralPlatform, LocalDataStore, PlatformConfig, PlatformService};
use mileena_datagen::{generate_corpus, CorpusConfig};
use mileena_search::arda::ArdaSearch;
use mileena_search::greedy::build_requester_state;
use mileena_search::{
    enumerate_candidates, CandidateCache, CandidateLimits, GreedySearch, SearchConfig,
    SketchedRequest,
};
use mileena_sketch::{build_sketch, SketchConfig, SketchStore};
use std::sync::Arc;

fn corpus_cfg(n: usize) -> CorpusConfig {
    CorpusConfig {
        num_datasets: n,
        num_signal: 4,
        num_union: 2,
        num_novelty_traps: 4,
        train_rows: 400,
        test_rows: 400,
        provider_rows: 200,
        key_domain: 100,
        signal_rows_per_key: 1,
        noise: 0.15,
        nonlinear_strength: 0.0,
        seed: 9,
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for n in [50usize, 200] {
        let corpus = generate_corpus(&corpus_cfg(n));
        let request = request_of(&corpus);
        let index = index_of(&corpus);
        let platform = CentralPlatform::new(PlatformConfig::default());
        for p in &corpus.providers {
            platform
                .register(LocalDataStore::new(p.clone()).prepare_upload(None, 7).unwrap())
                .unwrap();
        }
        group.bench_with_input(BenchmarkId::new("mileena_search", n), &n, |b, _| {
            b.iter(|| platform.search(&request, &SearchConfig::default()).unwrap())
        });
        // ARDA on the same candidates, one greedy round only (full runs are
        // measured by the fig4 binary; this isolates per-round cost).
        let profile = mileena_discovery::DatasetProfile::of(&request.train, 128);
        let cands =
            enumerate_candidates(&index, &platform.store(), &profile, &CandidateLimits::default())
                .resolve(platform.store().dataset_interner());
        let arda_cfg = SearchConfig { max_augmentations: 1, ..Default::default() };
        group.bench_with_input(BenchmarkId::new("arda_one_round", n), &n, |b, _| {
            let arda = ArdaSearch::new(arda_cfg.clone(), &corpus.providers, false);
            b.iter(|| arda.run(&request, cands.clone()).unwrap())
        });
    }
    group.finish();
}

/// Per-round evaluation cost across corpus scales (the acceptance gate for
/// the packed-slab + bound-pruning PR): for each corpus size, one greedy
/// *round* over pre-projected cache entries — exhaustively (`cached`, the
/// packed-kernel per-candidate cost), via the re-project-per-eval reference
/// (`uncached`), and with the production bound-pruned plan (`pruned_round`,
/// which stops as soon as no remaining bound can win — the sublinear
/// claim). Full searches track the user-visible end-to-end difference.
fn bench_eval_rounds(c: &mut Criterion) {
    for n_datasets in [500usize, 2000, 5000] {
        let group_name = format!("eval_round_{n_datasets}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(10);
        let corpus = generate_corpus(&corpus_cfg(n_datasets));
        let request = request_of(&corpus);
        let index = index_of(&corpus);
        let store = SketchStore::new();
        for p in &corpus.providers {
            store.register(build_sketch(p, &SketchConfig::default()).unwrap()).unwrap();
        }
        let cfg = SearchConfig::default();
        let (state, profile) = build_requester_state(&request, &cfg).unwrap();
        let candidates = enumerate_candidates(&index, &store, &profile, &cfg.limits).candidates;
        let n = candidates.len();

        let entries =
            CandidateCache::build(&state, candidates.clone(), &store, true).into_entries();
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
            b.iter(|| entries.iter().filter_map(|e| e.evaluate(&state).ok()).count())
        });
        // The reference path addresses the store by name, like the
        // pre-cache code it preserves.
        let named: Vec<mileena_search::Augmentation> =
            candidates.iter().map(|c| c.resolve(store.dataset_interner())).collect();
        group.bench_with_input(BenchmarkId::new("uncached", n), &n, |b, _| {
            b.iter(|| {
                named
                    .iter()
                    .filter_map(|aug| {
                        let sketch = store.get(aug.dataset()).ok()?;
                        state.evaluate_reference(aug, &sketch).ok()
                    })
                    .count()
            })
        });

        // One round under the real (bound-pruned) plan, against the base
        // incumbent — what a production round actually costs.
        let searcher = GreedySearch::new(cfg.clone());
        let base_score = state.current_score().unwrap();
        group.bench_with_input(BenchmarkId::new("pruned_round", n), &n, |b, _| {
            b.iter(|| searcher.score_round(&state, &entries, base_score))
        });

        // Full greedy searches (all rounds): the default pruned plan, the
        // exhaustive cached plan, and — at the baseline scale only — the
        // uncached reference (it is quadratically slow at 5k).
        group.bench_with_input(BenchmarkId::new("full_search_cached", n), &n, |b, _| {
            b.iter(|| searcher.run(state.clone(), candidates.clone(), &store).unwrap())
        });
        let exhaustive = GreedySearch::new(SearchConfig { pruning: false, ..cfg.clone() });
        group.bench_with_input(BenchmarkId::new("full_search_exhaustive", n), &n, |b, _| {
            b.iter(|| exhaustive.run(state.clone(), candidates.clone(), &store).unwrap())
        });
        if n_datasets == 500 {
            group.bench_with_input(BenchmarkId::new("full_search_uncached", n), &n, |b, _| {
                b.iter(|| searcher.run_uncached(state.clone(), candidates.clone(), &store).unwrap())
            });
        }
        group.finish();
    }
}

/// Service-layer scaling: searches/sec with N requesters hitting the same
/// platform concurrently (sessions run on worker threads against frozen
/// store snapshots). `concurrent_search/4` measures one batch of 4 parallel
/// sessions, so searches/sec = 4e9 / mean_ns; `search_serial/1` is the
/// single-requester baseline the speedup is measured against.
fn bench_concurrent_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    let corpus = generate_corpus(&corpus_cfg(100));
    let platform = Arc::new(CentralPlatform::new(PlatformConfig::default()));
    for p in &corpus.providers {
        platform.register(LocalDataStore::new(p.clone()).prepare_upload(None, 7).unwrap()).unwrap();
    }
    let service = mileena_core::InProcess::new(Arc::clone(&platform));
    let keys = vec!["zone".to_string()];
    let sketched = SketchedRequest::sketch(
        &corpus.train,
        &corpus.test,
        &mileena_search::TaskSpec::new("y", &["base_x"]),
        Some(&keys),
    )
    .unwrap();

    group.bench_with_input(BenchmarkId::new("search_serial", 1), &1, |b, _| {
        b.iter(|| service.search(sketched.clone(), None).unwrap())
    });
    let parallelism = 4usize;
    group.bench_with_input(
        BenchmarkId::new("concurrent_search", parallelism),
        &parallelism,
        |b, &n| {
            b.iter(|| {
                let sessions: Vec<_> =
                    (0..n).map(|_| service.submit(sketched.clone(), None).unwrap()).collect();
                let replies: Vec<_> = sessions.into_iter().map(|s| s.wait().unwrap()).collect();
                replies
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_eval_rounds, bench_concurrent_service);
criterion_main!(benches);
