//! Regenerate the paper-reproduction tables of EXPERIMENTS.md.
//!
//! The paper's evaluation is Table 1 (a complexity landscape) plus
//! worst-case constructions; each experiment here measures the empirical
//! *shape* of one claim. Usage:
//!
//! ```text
//! repro [all|table1|e1|e2|e3|e4|e5|e6|e7|e8|e9|e10]
//! ```

use bench::{growth_ratios, loglog_slope, time_median};
use cq::EnumConfig;
use cqsep::sep_dim::{cq_sep_dim_in, DimBudget};
use cqsep::{apx, cls_ghw, fo, gen_ghw, sep_cq, sep_cqm, sep_ghw};
use engine::Engine;
use std::hint::black_box;
use workloads::{
    alternating_paths, cycle_with_chords, example_6_2, flip_labels, random_digraph_train,
    twin_paths,
};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let run = |name: &str| arg == "all" || arg == name;
    if run("e1") {
        e1_ghw_sep_scaling();
    }
    if run("e2") {
        e2_cq_sep_scaling();
    }
    if run("e3") {
        e3_cqm_scaling();
    }
    if run("e4") {
        e4_feature_blowup();
    }
    if run("e5") {
        e5_cls_vs_gen();
    }
    if run("e6") {
        e6_sep_dim();
    }
    if run("e7") {
        e7_apx();
    }
    if run("e8") {
        e8_fo();
    }
    if run("e9") {
        e9_sep_star();
    }
    if run("e10") {
        e10_hom_engine();
    }
    if run("table1") {
        table1();
    }
}

/// E10: the homomorphism engine — memoization (and parallel fan-out on
/// multi-core hosts) vs the sequential pairwise sweep, with the engine's
/// own counters. This is the implementation-side speedup experiment, not
/// a claim of the paper.
fn e10_hom_engine() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    use relational::homomorphism_exists;
    header("E10: hom engine — memoized/parallel pipeline vs sequential sweep");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>9}",
        "n", "pairs", "sequential (s)", "pipeline (s)", "speedup"
    );
    for n in [16usize, 32, 48] {
        let t = cycle_with_chords(n, n / 3, 5);
        let pairs = t.opposing_pairs();
        let s_seq = time_median(3, || {
            black_box(pairs.iter().all(|&(p, q)| {
                !(homomorphism_exists(&t.db, &t.db, &[(p, q)])
                    && homomorphism_exists(&t.db, &t.db, &[(q, p)]))
            }));
        });
        // One cold run charges the cache; the median then reflects the
        // steady state a pipeline (check → chain → classify) sees.
        black_box(sep_cq::cq_separable_in(&ctx, &t).unwrap());
        let (s_pipe, stats) = bench::with_engine_stats(&engine, || {
            time_median(3, || {
                black_box(sep_cq::cq_separable_in(&ctx, &t).unwrap());
            })
        });
        println!(
            "{n:>6} {:>8} {s_seq:>14.5} {s_pipe:>14.5} {:>8.1}x",
            pairs.len(),
            s_seq / s_pipe.max(1e-9)
        );
        println!("{}", stats.hom.report());
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// E1: GHW(k)-Sep runtime vs |D| — Theorem 5.3's PTIME claim. The
/// empirical log-log slope must look polynomial (bounded, stable).
fn e1_ghw_sep_scaling() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E1: GHW(k)-Sep scales polynomially (Thm 5.3)");
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "n", "facts", "k=1 (s)", "k=2 (s)"
    );
    let mut pts1 = Vec::new();
    let mut pts2 = Vec::new();
    for n in [8usize, 12, 16, 24, 32] {
        let t = random_digraph_train(n, 2.0 / n as f64, 11);
        let facts = t.db.fact_count();
        let s1 = time_median(3, || {
            black_box(sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap());
        });
        let s2 = if n <= 16 {
            time_median(1, || {
                black_box(sep_ghw::ghw_separable_in(&ctx, &t, 2).unwrap());
            })
        } else {
            f64::NAN
        };
        println!("{n:>6} {facts:>8} {s1:>12.4} {s2:>12.4}");
        pts1.push((facts as f64, s1));
        if !s2.is_nan() {
            pts2.push((facts as f64, s2));
        }
    }
    println!(
        "empirical degree: k=1 ≈ {:.2}, k=2 ≈ {:.2} (polynomial, as claimed)",
        loglog_slope(&pts1),
        loglog_slope(&pts2)
    );
}

/// E2: CQ-Sep (coNP baseline) on chorded cycles — the homomorphism tests
/// dominate; compare against the GHW(1) test on the same instances.
fn e2_cq_sep_scaling() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E2: CQ-Sep (coNP) vs GHW(1)-Sep on the same instances (Thm 3.2)");
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "n", "facts", "CQ (s)", "GHW(1) (s)"
    );
    let (_, stats) = bench::with_engine_stats(&engine, || {
        for n in [10usize, 16, 24, 32] {
            let t = cycle_with_chords(n, n / 3, 5);
            let facts = t.db.fact_count();
            let s_cq = time_median(3, || {
                black_box(sep_cq::cq_separable_in(&ctx, &t).unwrap());
            });
            let s_ghw = time_median(3, || {
                black_box(sep_ghw::ghw_separable_in(&ctx, &t, 1).unwrap());
            });
            println!("{n:>6} {facts:>8} {s_cq:>12.4} {s_ghw:>12.4}");
        }
    });
    println!("(CQ-Sep stays feasible here because the hom solver prunes well;");
    println!(" its worst case is exponential, GHW(k)'s is not.)");
    println!("{}", stats.hom.report());
}

/// E3: CQ[m]-Sep — polynomial in |D| for fixed schema, exponential in m
/// (the 2^{q(k)} factor of Proposition 4.1).
fn e3_cqm_scaling() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E3: CQ[m]-Sep: polynomial in |D|, exponential in m (Prop 4.1)");
    println!(
        "{:>6} {:>6} {:>10} {:>12}",
        "n", "m", "#features", "time (s)"
    );
    let mut by_m = Vec::new();
    for m in 1..=3 {
        let t = random_digraph_train(10, 0.2, 3);
        let stat = sep_cqm::full_statistic(&t.db, &EnumConfig::cqm(m));
        let s = time_median(1, || {
            black_box(sep_cqm::cqm_separable_in(&ctx, &t, &EnumConfig::cqm(m)).unwrap());
        });
        println!("{:>6} {m:>6} {:>10} {s:>12.4}", 10, stat.dimension());
        by_m.push(stat.dimension() as f64);
    }
    println!(
        "feature-count growth ratios per +1 atom: {:?} (exponential in m)",
        growth_ratios(&by_m)
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
    );
    println!("{:>6} {:>6} {:>12}", "n", "m", "time (s)");
    let mut pts = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let t = random_digraph_train(n, 2.0 / n as f64, 3);
        let s = time_median(3, || {
            black_box(sep_cqm::cqm_separable_in(&ctx, &t, &EnumConfig::cqm(2)).unwrap());
        });
        println!("{n:>6} {:>6} {s:>12.4}", 2);
        pts.push((n as f64, s));
    }
    println!(
        "empirical degree in |D| at m=2: ≈ {:.2} (polynomial)",
        loglog_slope(&pts)
    );
}

/// E4: Theorem 5.7's two lower bounds, measured.
fn e4_feature_blowup() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E4: statistic dimension and feature size must grow (Thm 5.7)");
    // (a) dimension = m - 1 on the alternating chain.
    println!("{:>4} {:>12}", "m", "min dim");
    for m in [3usize, 4, 5] {
        let t = alternating_paths(m);
        let schema = t.db.schema().clone();
        let pool: Vec<cq::Cq> = (1..=m)
            .map(|len| {
                let mut body = String::from("q(x0) :- eta(x0)");
                for i in 0..len {
                    body += &format!(", E(x{i},x{})", i + 1);
                }
                cq::parse::parse_cq(&schema, &body).unwrap()
            })
            .collect();
        let dim = fo::min_dimension_of_in(&ctx, &t, &pool, m)
            .unwrap()
            .unwrap();
        println!("{m:>4} {dim:>12}");
    }
    // (b) extracted distinguishing feature size grows with n.
    println!("{:>4} {:>8} {:>14}", "n", "|D|", "feature atoms");
    for n in [3usize, 5, 7, 9] {
        let t = twin_paths(n);
        let u = t.db.val_by_name("u").unwrap();
        let v = t.db.val_by_name("v").unwrap();
        let (q, _) =
            covergame::extract_distinguishing_query(&t.db, u, &t.db, v, 1, 5_000_000).unwrap();
        println!("{n:>4} {:>8} {:>14}", t.db.fact_count(), q.atoms().len());
    }
    println!("(the paper's appendix gadget achieves 2^n; see DESIGN.md §4)");
}

/// E5: classification without generation (Theorem 5.8) — Algorithm 1
/// stays fast while explicit generation cost explodes with the budget it
/// needs.
fn e5_cls_vs_gen() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E5: classify cheaply, generate expensively (Thm 5.8 vs Prop 5.6)");
    println!(
        "{:>4} {:>14} {:>14} {:>12}",
        "m", "classify (s)", "generate (s)", "stat atoms"
    );
    for m in [4usize, 6, 8] {
        let t = alternating_paths(m);
        let eval = alternating_paths(m + 1).db;
        let s_cls = time_median(3, || {
            black_box(
                cls_ghw::ghw_classify_in(&ctx, &t, &eval, 1)
                    .unwrap()
                    .unwrap(),
            );
        });
        let mut atoms = 0usize;
        let s_gen = time_median(1, || {
            let model = gen_ghw::ghw_generate_in(&ctx, &t, 1, 10_000_000)
                .unwrap()
                .unwrap();
            atoms = model.statistic.total_atoms();
            black_box(&model);
        });
        println!("{m:>4} {s_cls:>14.4} {s_gen:>14.4} {atoms:>12}");
    }
}

/// E6: bounded dimension — Sep[ℓ] via QBE search (Theorem 6.6 shape) on
/// Example 6.2-style instances and growing chains.
fn e6_sep_dim() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E6: Sep[ℓ] search cost grows with entities (Thm 6.6 / Lemma 6.3)");
    let b = DimBudget::default();
    let t = example_6_2();
    println!(
        "Example 6.2: Sep[1] = {}, Sep[2] = {} (the paper's gap)",
        cq_sep_dim_in(&ctx, &t, 1, &b).unwrap().unwrap(),
        cq_sep_dim_in(&ctx, &t, 2, &b).unwrap().unwrap()
    );
    println!("{:>4} {:>6} {:>12}", "m", "ℓ", "time (s)");
    for m in [3usize, 4, 5] {
        let t = alternating_paths(m);
        let ell = m - 1;
        let mut blown = false;
        let s = time_median(1, || {
            match cq_sep_dim_in(&ctx, &t, ell, &b).unwrap() {
                Ok(ans) => {
                    black_box(ans);
                }
                Err(_) => blown = true, // product budget: the EXPTIME wall
            }
        });
        if blown {
            println!("{m:>4} {ell:>6} {:>12}", "budget!");
        } else {
            println!("{m:>4} {ell:>6} {s:>12.4}");
        }
    }
    println!("(larger m exhausts the product budget — the coNEXPTIME wall)");
}

/// E7: approximate separability — Algorithm 2's optimal error tracks the
/// injected noise rate (Theorem 7.4).
fn e7_apx() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E7: optimal relabeling error vs injected noise (Thm 7.4)");
    // Twin-rich workload: same-length path starts are →_1-equivalent, so
    // noise inside a twin group is genuinely irreparable. (On random
    // graphs every entity is its own class and min-error is always 0.)
    let clean = workloads::replicated_paths(4, 4);
    let n = clean.entities().len();
    println!(
        "{:>7} {:>7} {:>12} {:>10}",
        "noise", "flips", "min errors", "time (s)"
    );
    for noise in [0.0, 0.1, 0.2, 0.3] {
        let (noisy, flips) = flip_labels(&clean, noise, 13);
        let mut err = 0usize;
        let s = time_median(1, || {
            err = apx::ghw_min_errors_in(&ctx, &noisy, 1).unwrap();
        });
        println!("{noise:>7.2} {flips:>7} {err:>12} {s:>10.4}");
        assert!(err <= flips);
    }
    println!("(errors ≤ flips always: Algorithm 2 is optimal; n = {n})");
}

/// E8: FO separability (automorphism orbits, GI flavor) vs CQ
/// separability on the same instances (§8).
fn e8_fo() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E8: FO-Sep (GI) vs CQ-Sep (coNP) (Cor 8.2)");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>8}",
        "n", "FO (s)", "CQ (s)", "FO?", "CQ?"
    );
    for n in [8usize, 12, 16] {
        let t = random_digraph_train(n, 2.0 / n as f64, 31);
        let mut fo_ans = false;
        let s_fo = time_median(3, || {
            fo_ans = fo::fo_separable(&t);
        });
        let mut cq_ans = false;
        let s_cq = time_median(3, || {
            cq_ans = sep_cq::cq_separable_in(&ctx, &t).unwrap();
        });
        println!("{n:>6} {s_fo:>12.4} {s_cq:>12.4} {fo_ans:>8} {cq_ans:>8}");
        // CQ-separable implies FO-separable, never the converse.
        assert!(!cq_ans || fo_ans);
    }
}

/// E9: Sep[*] with the dimension as input — the column-subset search that
/// makes the problem NP-hard even for fixed arity (Prop 6.9 / 6.12).
fn e9_sep_star() {
    let engine = Engine::new();
    let ctx = engine.ctx();
    header("E9: CQ[m]-Sep[*]: column-subset search cost (Prop 6.9)");
    println!("{:>4} {:>4} {:>8} {:>12}", "m", "ℓ", "answer", "time (s)");
    let t = alternating_paths(4);
    for ell in 1..=3 {
        let mut ans = false;
        let s = time_median(1, || {
            ans = cqsep::sep_dim::cqm_sep_dim_in(&ctx, &t, &EnumConfig::cqm(4), ell).unwrap();
        });
        println!("{:>4} {ell:>4} {ans:>8} {s:>12.4}", 4);
    }
}

/// Table 1, empirically: for each cell print the claimed class and what
/// the implementation observed on the scaling experiments.
fn table1() {
    header("Table 1 (paper) with the implementation's empirical observations");
    println!("problem        | CQ              | CQ[m]          | GHW(k)");
    println!("---------------+-----------------+----------------+----------------");
    println!("L-Sep          | coNP-c. [22]    | PTIME          | PTIME");
    println!("  (observed)   | hom tests, fast | poly in |D|,   | poly (E1)");
    println!("               | on avg (E2)     | exp in m (E3)  |");
    println!("L-Sep[l]       | coNEXPTIME-c.   | PTIME*         | EXPTIME-c.");
    println!("  (observed)   | product blowup  | column search  | product+game");
    println!("               | (E6)            | (E9)           | (E6)");
    println!();
    println!("* for fixed schema; NP-c. when the schema varies (Thm 6.10).");
    println!("Generation:    CQ poly-size (sep_cq), GHW(k) exponential (E4/E5),");
    println!("               classification always poly (Algorithm 1, E5).");
}
