//! Generalization acceptance test: train/test accuracy of every
//! regularized language across the planted-query families, with and
//! without label noise, recorded in `BENCH_generalize.json` at the
//! repository root.
//!
//! For each [`workloads::planted_split`] family the harness fits a
//! strength sweep — `CQ[m]` for `m = 1..m*`, `GHW(1)`, `CQ[m*]-Sep[ℓ]`
//! for `ℓ = 1, 2`, and the exact min-error `CQ[m*]` path — on the
//! (possibly noisy) training database and scores held-out
//! accuracy/precision/recall on an independently sampled clean test
//! database. Everything is seed-deterministic: the same table
//! regenerates forever.
//!
//! Hard assertions (the CI contract):
//!
//! * every zero-noise family is exactly fit at its matching tier `m*`
//!   (fit_exact, zero training errors);
//! * at zero noise, the best matching-tier method reaches **100%
//!   held-out accuracy** — the planted target is recoverable;
//! * under noise, exact `CQ[m*]` fitting degrades to the majority
//!   fallback or overfits, while the min-error path's training error is
//!   bounded by the number of flipped labels.

use bench::with_engine_stats;
use cqsep::generalize::{evaluate_in, EvalReport, FitMethod};
use cqsep::Engine;
use std::fmt::Write as _;
use workloads::{families, planted_split, PlantedFamily, SampleConfig};

/// Per-family harness scale, tuned so the whole grid stays in CI-smoke
/// territory (seconds, not minutes) while every family shows both label
/// classes at every noise rate.
fn scale_of(family: &PlantedFamily) -> (usize, usize, u64) {
    match family.name {
        "out_edge" => (28, 18, 0xA11CE),
        "two_cycle" => (24, 16, 0xB0B),
        "out_path2" => (24, 16, 0xCAFE),
        "triangle" => (18, 12, 0xD00D),
        other => panic!("unknown family {other}"),
    }
}

/// The strength sweep for a family with matching tier `m*`.
fn methods_for(atoms: usize) -> Vec<FitMethod> {
    let mut ms: Vec<FitMethod> = (1..=atoms).map(FitMethod::Cqm).collect();
    ms.push(FitMethod::Ghw(1));
    ms.push(FitMethod::Sep { m: atoms, ell: 1 });
    ms.push(FitMethod::Sep { m: atoms, ell: 2 });
    ms.push(FitMethod::MinError(atoms));
    ms
}

/// Is `method` at the family's full regularization strength (fits the
/// planted target's own tier)?
fn matching_tier(method: FitMethod, atoms: usize) -> bool {
    match method {
        FitMethod::Cqm(m) | FitMethod::MinError(m) => m == atoms,
        FitMethod::Ghw(_) => true, // all planted targets have ghw 1
        FitMethod::Sep { m, .. } => m == atoms,
    }
}

const NOISE_RATES: [f64; 2] = [0.0, 0.15];

#[test]
fn heldout_accuracy_across_regularized_languages() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let engine = Engine::new();
    let effective_threads = engine.effective_parallelism();

    let mut family_blocks = Vec::new();
    for family in families() {
        let (train_n, test_n, seed) = scale_of(&family);
        let mut result_lines = Vec::new();
        for &noise in &NOISE_RATES {
            let cfg = SampleConfig {
                train_n,
                test_n,
                density: family.default_density,
                noise,
                seed,
            };
            let split = planted_split(&family, &cfg);
            assert_eq!(
                split.flips,
                (noise * train_n as f64) as usize,
                "{}: noise accounting",
                family.name
            );

            let mut best_matching_accuracy: f64 = 0.0;
            for method in methods_for(family.atoms) {
                let r = evaluate_in(&engine.ctx(), &split.train, &split.test, method).unwrap();
                assert_eq!(r.test_size(), test_n, "{}: {method}", family.name);
                println!(
                    "{:<10} noise {:.2}  {:<14} acc {:.3}  prec {:.3}  rec {:.3}  \
                     train_err {}  dim {:?}  exact {}",
                    family.name,
                    noise,
                    method.to_string(),
                    r.accuracy(),
                    r.precision(),
                    r.recall(),
                    r.train_errors,
                    r.dimension,
                    r.fit_exact,
                );

                if noise == 0.0 && matching_tier(method, family.atoms) {
                    // Zero-noise data is separable at the matching tier:
                    // the exact paths must fit perfectly.
                    match method {
                        FitMethod::Cqm(_) | FitMethod::MinError(_) => {
                            assert!(
                                r.fit_exact && r.train_errors == 0,
                                "{}: {method} must fit zero-noise data exactly",
                                family.name
                            );
                        }
                        _ => {}
                    }
                    best_matching_accuracy = best_matching_accuracy.max(r.accuracy());
                }
                if matches!(method, FitMethod::MinError(_)) {
                    assert!(
                        r.train_errors <= split.flips,
                        "{}: min-error {} exceeds {} flips at noise {noise}",
                        family.name,
                        r.train_errors,
                        split.flips
                    );
                }
                result_lines.push(render_result(noise, split.flips, method, &r));
            }
            if noise == 0.0 {
                // The CI contract: the planted target is recoverable —
                // some matching-tier method aces the held-out set.
                assert_eq!(
                    best_matching_accuracy, 1.0,
                    "{}: zero-noise best matching-tier held-out accuracy",
                    family.name
                );
            }
        }
        family_blocks.push(format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{name}\",\n",
                "      \"target\": \"{target}\",\n",
                "      \"atoms\": {atoms},\n",
                "      \"train_n\": {train_n},\n",
                "      \"test_n\": {test_n},\n",
                "      \"density\": {density},\n",
                "      \"seed\": {seed},\n",
                "      \"results\": [\n{results}\n      ]\n",
                "    }}",
            ),
            name = family.name,
            target = family.query_text,
            atoms = family.atoms,
            train_n = train_n,
            test_n = test_n,
            density = family.default_density,
            seed = seed,
            results = result_lines.join(",\n"),
        ));
    }

    // One more pass over a single family on a fresh engine purely to
    // attribute LP-engine traffic (the sweep above shares `engine`).
    let counter_engine = Engine::new();
    let family = families().remove(1); // two_cycle: exercises Sep[ℓ≥2]
    let (train_n, test_n, seed) = scale_of(&family);
    let cfg = SampleConfig {
        train_n,
        test_n,
        density: family.default_density,
        noise: 0.0,
        seed,
    };
    let split = planted_split(&family, &cfg);
    let (_, stats) = with_engine_stats(&counter_engine, || {
        for method in methods_for(family.atoms) {
            std::hint::black_box(
                evaluate_in(&counter_engine.ctx(), &split.train, &split.test, method).unwrap(),
            );
        }
    });

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"available_parallelism\": {cores},\n",
            "  \"effective_threads\": {threads},\n",
            "  \"noise_rates\": [0.0, 0.15],\n",
            "  \"families\": [\n{families}\n  ],\n",
            "  \"counter_pass\": {{\n",
            "    \"family\": \"{cfam}\",\n",
            "    \"lps_solved\": {lps},\n",
            "    \"simplex_pivots\": {pivots},\n",
            "    \"sparse_pivots\": {sparse},\n",
            "    \"warm_start_hits\": {whits},\n",
            "    \"warm_start_misses\": {wmiss},\n",
            "    \"conflict_prunes\": {prunes},\n",
            "    \"hom_searches\": {homs},\n",
            "    \"games_solved\": {games}\n",
            "  }}\n",
            "}}\n",
        ),
        cores = cores,
        threads = effective_threads,
        families = family_blocks.join(",\n"),
        cfam = family.name,
        lps = stats.lp.lps_solved,
        pivots = stats.lp.simplex_pivots,
        sparse = stats.lp.sparse_pivots,
        whits = stats.lp.warm_start_hits,
        wmiss = stats.lp.warm_start_misses,
        prunes = stats.lp.conflict_prunes,
        homs = stats.hom.solves,
        games = stats.game.games_solved,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_generalize.json");
    std::fs::write(path, json).expect("write BENCH_generalize.json");
}

fn render_result(noise: f64, flips: usize, method: FitMethod, r: &EvalReport) -> String {
    format!(
        concat!(
            "        {{\"noise\": {noise}, \"flips\": {flips}, \"method\": \"{method}\", ",
            "\"strength\": {strength}, \"fit_exact\": {exact}, \"train_errors\": {terr}, ",
            "\"dimension\": {dim}, \"accuracy\": {acc:.4}, \"precision\": {prec:.4}, ",
            "\"recall\": {rec:.4}, \"tp\": {tp}, \"fp\": {fp}, \"tn\": {tn}, \"fn\": {fnn}}}",
        ),
        noise = noise,
        flips = flips,
        method = method,
        strength = method.strength(),
        exact = r.fit_exact,
        terr = r.train_errors,
        dim = r
            .dimension
            .map(|d| d.to_string())
            .unwrap_or_else(|| "null".to_string()),
        acc = r.accuracy(),
        prec = r.precision(),
        rec = r.recall(),
        tp = r.tp,
        fp = r.fp,
        tn = r.tn,
        fnn = r.fn_,
    )
}
