//! Molecule classification — the propositionalization scenario the
//! paper's introduction cites ([24, 29]): entities are molecules in a
//! relational database of atoms and bonds, and feature queries are joins
//! over that structure.
//!
//! We synthesize a tiny "toxicity" dataset: a molecule is toxic iff it
//! contains a nitrogen atom bonded to an oxygen atom (an N–O motif). The
//! example walks the paper's feature-generation pipeline:
//!
//! 1. small-join features (`CQ[m]`-QBE for m = 1, 2) fail — the motif is
//!    a 4-atom join;
//! 2. the product construction of §6.1 finds the most-specific common
//!    feature of the toxic molecules, and core minimization shrinks it to
//!    (essentially) the N–O motif;
//! 3. the resulting one-feature statistic classifies unseen molecules.
//!
//! Run with: `cargo run --example molecule_classification`

use cq::core::core_of;
use cq::EnumConfig;
use cqsep::{DbBuilder, Engine, LinearClassifier, Schema, SeparatorModel, Statistic};
use numeric::qint;

/// Schema: molecules are entities; `has(mol, atom)` links molecules to
/// their atoms; `bond(a, b)` links atoms; `nitrogen/oxygen/carbon(a)`
/// type the atoms.
fn molecule_schema() -> Schema {
    let mut s = Schema::entity_schema();
    s.add_relation("has", 2);
    s.add_relation("bond", 2);
    s.add_relation("nitrogen", 1);
    s.add_relation("oxygen", 1);
    s.add_relation("carbon", 1);
    s
}

struct Molecule {
    name: &'static str,
    atoms: &'static [(&'static str, &'static str)],
    bonds: &'static [(&'static str, &'static str)],
    toxic: bool,
}

const TRAIN: &[Molecule] = &[
    // Toxic: contain an N–O bond.
    Molecule {
        name: "m1",
        atoms: &[("m1n", "nitrogen"), ("m1o", "oxygen"), ("m1c", "carbon")],
        bonds: &[("m1n", "m1o"), ("m1o", "m1c")],
        toxic: true,
    },
    Molecule {
        name: "m2",
        atoms: &[("m2n", "nitrogen"), ("m2o", "oxygen")],
        bonds: &[("m2n", "m2o")],
        toxic: true,
    },
    // Non-toxic: N and O present but not bonded.
    Molecule {
        name: "m3",
        atoms: &[("m3n", "nitrogen"), ("m3c", "carbon"), ("m3o", "oxygen")],
        bonds: &[("m3n", "m3c"), ("m3c", "m3o")],
        toxic: false,
    },
    // Non-toxic: no nitrogen.
    Molecule {
        name: "m4",
        atoms: &[("m4o", "oxygen"), ("m4c", "carbon")],
        bonds: &[("m4c", "m4o")],
        toxic: false,
    },
    // Non-toxic: no oxygen.
    Molecule {
        name: "m5",
        atoms: &[("m5n", "nitrogen"), ("m5c", "carbon")],
        bonds: &[("m5n", "m5c")],
        toxic: false,
    },
];

fn main() {
    // Every solver runs under a context over an explicit engine, which
    // owns the memo caches and counters; `engine.ctx()` has no deadline.
    let engine = Engine::new();
    let ctx = engine.ctx();

    let mut b = DbBuilder::new(molecule_schema());
    for m in TRAIN {
        for (atom, element) in m.atoms {
            b = b.fact("has", &[m.name, atom]).fact(element, &[atom]);
        }
        for (x, y) in m.bonds {
            b = b.fact("bond", &[x, y]).fact("bond", &[y, x]); // symmetric
        }
        b = if m.toxic {
            b.positive(m.name)
        } else {
            b.negative(m.name)
        };
    }
    let train = b.training();
    println!(
        "training: {} molecules, {} facts",
        train.entities().len(),
        train.db.fact_count()
    );

    // 1. Small joins are not enough: no single CQ[1]/CQ[2] feature
    //    explains the toxic/non-toxic split.
    let pos = train.positives();
    let neg = train.negatives();
    for m in 1..=2 {
        let found = qbe::cqm_qbe(&train.db, &pos, &neg, &EnumConfig::cqm(m).syntactic());
        println!(
            "CQ[{m}] explanation: {}",
            match &found {
                Some(q) => format!("{q}"),
                None => "none (motif needs more joins)".to_string(),
            }
        );
    }

    // 2. The product construction (§6.1) + core minimization.
    let explanation = qbe::cq_qbe_explain(&train.db, &pos, &neg, 5_000_000)
        .expect("product within budget")
        .expect("the N-O motif separates");
    println!(
        "\nproduct feature: {} atoms (most-specific common pattern)",
        explanation.atoms().len()
    );
    let cored = core_of(&explanation);
    println!("core-minimized feature: {} atoms", cored.atoms().len());
    // The product feature conditions on the whole training database,
    // including existential side conditions about *other* molecules that
    // would not transfer to new data. Keep only the part connected to
    // the classified molecule — the actual motif.
    let motif = cored.connected_to_free();
    println!(
        "motif (connected part, {} atoms):",
        motif.atom_count_for_cqm()
    );
    println!("  {motif}");

    // 3. One-feature statistic: toxic iff the motif matches.
    let model = SeparatorModel {
        statistic: Statistic::new(vec![motif.with_entity_guard()]),
        classifier: LinearClassifier::new(qint(1), vec![qint(1)]),
    };
    assert!(
        model.separates_in(&ctx, &train).unwrap(),
        "the motif separates the training data"
    );

    // Held-out molecules.
    let eval = DbBuilder::new(molecule_schema())
        // t1: toxic (N-O bond present).
        .fact("has", &["t1", "t1a"])
        .fact("has", &["t1", "t1b"])
        .fact("nitrogen", &["t1a"])
        .fact("oxygen", &["t1b"])
        .fact("bond", &["t1a", "t1b"])
        .fact("bond", &["t1b", "t1a"])
        // t2: safe (C-O only).
        .fact("has", &["t2", "t2a"])
        .fact("has", &["t2", "t2b"])
        .fact("carbon", &["t2a"])
        .fact("oxygen", &["t2b"])
        .fact("bond", &["t2a", "t2b"])
        .fact("bond", &["t2b", "t2a"])
        .entity("t1")
        .entity("t2")
        .build();
    let labels = model.classify_in(&ctx, &eval).unwrap();
    println!("\nheld-out molecules:");
    for e in eval.entities() {
        println!("  {}: {:?}", eval.val_name(e), labels.get(e));
    }
}
