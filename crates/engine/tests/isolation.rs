//! Cross-engine isolation: independent `Engine` instances must agree on
//! every verdict (with each other, with an uncached engine, and with the
//! raw solvers) while sharing no counters and no cache entries.

use engine::Engine;
use relational::{Database, DbBuilder, Schema, Val};

/// Deterministic xorshift64* — the workload must be random-ish but
/// reproducible across runs and platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random digraph on `n` named vertices with ~`edges` edges, all
/// vertices entities.
fn random_graph(rng: &mut Rng, n: u64, edges: u64) -> Database {
    let mut s = Schema::entity_schema();
    s.add_relation("E", 2);
    let mut b = DbBuilder::new(s);
    for e in 0..edges {
        let x = rng.below(n);
        let mut y = rng.below(n);
        if x == y {
            y = (y + 1) % n;
        }
        let _ = e;
        b = b.fact("E", &[&format!("v{x}"), &format!("v{y}")]);
    }
    for v in 0..n {
        b = b.entity(&format!("v{v}"));
    }
    b.build()
}

#[test]
fn fresh_engines_agree_with_each_other_and_an_uncached_engine() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let ea = Engine::new();
    let eb = Engine::new();
    let uncached = Engine::new().without_cache();
    let (ca, cb, cu) = (ea.ctx(), eb.ctx(), uncached.ctx());
    for round in 0..12 {
        let (n1, m1) = (4 + rng.below(3), 5 + rng.below(5));
        let d = random_graph(&mut rng, n1, m1);
        let (n2, m2) = (4 + rng.below(3), 5 + rng.below(5));
        let d2 = random_graph(&mut rng, n2, m2);
        let a: Vec<Val> = d.dom().take(2).collect();
        let b: Vec<Val> = d2.dom().take(2).collect();

        // Hom layer: both engines, the uncached engine, and the raw
        // solver must return the same verdict.
        let raw = relational::homomorphism_exists(&d, &d2, &[]);
        assert_eq!(ca.hom_exists(&d, &d2, &[]).unwrap(), raw, "round {round}");
        assert_eq!(cb.hom_exists(&d, &d2, &[]).unwrap(), raw, "round {round}");
        assert_eq!(cu.hom_exists(&d, &d2, &[]).unwrap(), raw);

        // Game layer, k = 1 and 2.
        for k in 1..=2 {
            let raw = covergame::cover_implies(&d, &a, &d2, &b, k);
            assert_eq!(
                ca.cover_implies(&d, &a, &d2, &b, k).unwrap(),
                raw,
                "round {round} k={k}"
            );
            assert_eq!(
                cb.cover_implies(&d, &a, &d2, &b, k).unwrap(),
                raw,
                "round {round} k={k}"
            );
            assert_eq!(cu.cover_implies(&d, &a, &d2, &b, k).unwrap(), raw);
        }
    }

    // Identical query streams through two fresh engines: identical
    // per-engine counters, and every lookup was a miss in both — no
    // cross-engine cache hits, so no shared table.
    let (sa, sb) = (ea.stats(), eb.stats());
    assert_eq!(sa.hom, sb.hom);
    assert_eq!(sa.game, sb.game);
    assert_eq!(sa.hom.cache_hits, 0);
    assert_eq!(sa.game.cache_hits, 0);
    assert_eq!(sa.hom.cache_misses, 12);
    assert_eq!(sa.game.cache_misses, 24);
}

#[test]
fn work_on_one_engine_leaves_another_untouched() {
    let worker = Engine::new();
    let bystander = Engine::new();
    let before = bystander.stats();
    let ctx = worker.ctx();
    let mut rng = Rng(42);
    for _ in 0..6 {
        let d = random_graph(&mut rng, 5, 7);
        let d2 = random_graph(&mut rng, 5, 7);
        ctx.hom_exists(&d, &d2, &[]).unwrap();
        let a: Vec<Val> = d.dom().take(1).collect();
        let b: Vec<Val> = d2.dom().take(1).collect();
        ctx.cover_implies(&d, &a, &d2, &b, 1).unwrap();
        ctx.separate(&[vec![1, 1], vec![-1, -1]], &[1, -1]).unwrap();
    }
    let after = bystander.stats();
    // Only the process-wide promotion counter may move underneath a
    // bystander; every per-engine figure must be untouched.
    assert_eq!(after.hom, before.hom);
    assert_eq!(after.game, before.game);
    assert_eq!(after.lp.lps_solved, before.lp.lps_solved);
    assert_eq!(after.lp.perceptron_hits, before.lp.perceptron_hits);
    assert_eq!(after.lp.conflict_prunes, before.lp.conflict_prunes);
    assert!(bystander.hom_cache().is_empty());
    assert!(bystander.game_cache().is_empty());
    // And the worker saw all of it.
    let w = worker.stats();
    assert_eq!(w.hom.cache_misses, 6);
    assert_eq!(w.game.cache_misses, 6);
    assert_eq!(w.lp.perceptron_hits, 6);
}
