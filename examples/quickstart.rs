//! Quickstart: build a training database, test separability under every
//! regularization the paper studies, generate features, and classify new
//! entities.
//!
//! Run with: `cargo run --example quickstart`

use cqsep::{cls_ghw, gen_ghw, sep_cq, sep_cqm, sep_ghw, DbBuilder, Engine, EnumConfig, Schema};

fn main() {
    // Every solver runs under a context over an explicit engine, which
    // owns the memo caches and counters; `engine.ctx()` has no deadline.
    let engine = Engine::new();
    let ctx = engine.ctx();

    // 1. An entity schema: the distinguished unary η plus a binary edge
    //    relation ("cites", say).
    let mut schema = Schema::entity_schema();
    schema.add_relation("cites", 2);

    // 2. A training database (D, λ): papers citing a paper that itself
    //    cites something are "influential" (positive).
    let train = DbBuilder::new(schema.clone())
        .fact("cites", &["a", "b"])
        .fact("cites", &["b", "c"])
        .fact("cites", &["d", "c"])
        .positive("a") // cites b, which cites c
        .negative("b") // cites only a sink
        .negative("d")
        .negative("c")
        .training();

    // 3. Separability under the three regularized classes.
    println!(
        "CQ-separable:      {}",
        sep_cq::cq_separable_in(&ctx, &train).unwrap()
    );
    println!(
        "GHW(1)-separable:  {}",
        sep_ghw::ghw_separable_in(&ctx, &train, 1).unwrap()
    );
    println!(
        "CQ[1]-separable:   {}",
        sep_cqm::cqm_separable_in(&ctx, &train, &EnumConfig::cqm(1)).unwrap()
    );
    println!(
        "CQ[2]-separable:   {}",
        sep_cqm::cqm_separable_in(&ctx, &train, &EnumConfig::cqm(2)).unwrap()
    );

    // 4. Feature generation (Proposition 4.1 / Proposition 5.6): get an
    //    explicit statistic and classifier.
    let model = sep_cqm::cqm_generate_in(&ctx, &train, &EnumConfig::cqm(2))
        .unwrap()
        .expect("CQ[2] separates this instance");
    println!(
        "\nGenerated CQ[2] model ({} features):",
        model.statistic.dimension()
    );
    println!("{}", model.classifier);

    let ghw_model = gen_ghw::ghw_generate_in(&ctx, &train, 1, 100_000)
        .unwrap()
        .expect("GHW(1) separates");
    println!("GHW(1) statistic:");
    print!("{}", ghw_model.statistic);

    // 5. Classify a new evaluation database — including via Algorithm 1,
    //    which never materializes the features.
    let eval = DbBuilder::new(schema)
        .fact("cites", &["x", "y"])
        .fact("cites", &["y", "z"])
        .entity("x")
        .entity("y")
        .entity("z")
        .build();
    let labels = cls_ghw::ghw_classify_in(&ctx, &train, &eval, 1)
        .unwrap()
        .expect("training data separable");
    println!("\nClassification of the evaluation database (Algorithm 1):");
    for e in eval.entities() {
        println!("  {}: {:?}", eval.val_name(e), labels.get(e));
    }
}
