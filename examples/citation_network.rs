//! Citation-network classification with the GHW(k) machinery — the
//! paper's flagship phenomenon (§5): deciding separability and
//! classifying is cheap, *materializing the features may not be*.
//!
//! We build a citation graph where the positive class is "transitively
//! influential" (long citation chains lead out of the paper). On the
//! longer chains, explicit feature generation (Proposition 5.6) under a
//! small node budget fails — the distinguishing queries are long path
//! unfoldings — while Algorithm 1 classifies an unseen network instantly.
//!
//! Run with: `cargo run --example citation_network`

use cqsep::{cls_ghw, gen_ghw, sep_ghw, Engine};
use workloads::alternating_paths;

fn main() {
    // Every solver runs under a context over an explicit engine, which
    // owns the memo caches and counters; `engine.ctx()` has no deadline.
    let engine = Engine::new();
    let ctx = engine.ctx();

    // Training data: the alternating-chain family from the paper's
    // lower-bound analysis (Theorem 5.7) — papers starting citation
    // chains of length 1..=m, alternately labeled.
    let m = 6;
    let train = alternating_paths(m);
    println!(
        "training network: {} papers, {} citations",
        train.entities().len(),
        train.db.fact_count() - train.entities().len() // subtract η facts
    );

    // Separability is polynomial (Theorem 5.3).
    assert!(sep_ghw::ghw_separable_in(&ctx, &train, 1).unwrap());
    println!("GHW(1)-separable: yes");

    // Explicit generation with a tight budget fails on this family —
    // the features are path unfoldings of growing size.
    match gen_ghw::ghw_generate_in(&ctx, &train, 1, 8).unwrap() {
        Err(e) => println!("explicit generation (budget 8 nodes): {e}"),
        Ok(model) => println!(
            "explicit generation small-budget unexpectedly succeeded \
             ({} features)",
            model.statistic.dimension()
        ),
    }
    // With a generous budget it succeeds; measure the statistic size.
    let model = gen_ghw::ghw_generate_in(&ctx, &train, 1, 1_000_000)
        .unwrap()
        .expect("generous budget");
    println!(
        "explicit generation (generous budget): {} features, {} total atoms",
        model.statistic.dimension(),
        model.statistic.total_atoms()
    );

    // Classification without generation (Algorithm 1, Theorem 5.8).
    // The evaluation network must be at least as globally rich as the
    // training one (features are whole-database patterns); we use a
    // larger network of the same design, with chains up to length m + 1.
    let eval = alternating_paths(m + 1).db;
    let labels = cls_ghw::ghw_classify_in(&ctx, &train, &eval, 1)
        .unwrap()
        .unwrap();
    println!("\nclassification of the evaluation network (chain starts):");
    let mut named: Vec<(String, relational::Val)> = eval
        .entities()
        .into_iter()
        .map(|e| (eval.val_name(e).to_string(), e))
        .collect();
    named.sort();
    for (name, e) in named {
        println!("  {name}: {:?}", labels.get(e));
    }
    println!(
        "(chain length parity was learned; the length-{} chain exceeds the\n\
         training horizon and is classified like the longest seen chain)",
        m + 1
    );
}
