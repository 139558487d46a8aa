//! The one-pass text loader against the `DatabaseSpec` path: pinned
//! fingerprints, equal databases on random specs, and agreement on
//! damaged input.

use proptest::prelude::*;
use relational::spec::{load_database, load_training, DatabaseSpec};
use relational::{Database, TrainingDb};

/// Specs covering `rel` after `fact`, entity lines between facts,
/// duplicate facts and entities, self-loops, repeated arguments and
/// labels, with `Database::fingerprint` as computed before the loader
/// existed. A changed literal means cached verdicts keyed by the old
/// fingerprints no longer hit.
const PINNED: [(&str, u128); 4] = [
    (
        "fact E(a,b)\nrel E/2\nfact E(b,c)\nentity a +\nentity c -\n",
        0xf6e75d44addecdf034caebc8f77c97d2,
    ),
    (
        "rel E/2\nrel L/1\n# comment\nfact E(x,x)\nentity x +\nfact E(x,y)\nfact E(x,y)\n\
         entity y -\n\nfact L(y)\nfact E(y,z)\nentity z -\nrel T/3\nfact T(z,x,z)\n",
        0x35f72827f3c386db683ef9eff70167d1,
    ),
    (
        "rel E/2\nentity u\nfact E(u,v)\nfact E(v,u)\nfact E(v,v)\nentity v\nentity u\n",
        0xf4350e547fb31185379c9c6aa3ed5185,
    ),
    (
        "rel R/3\nfact R(p, q ,p)\nentity w\nfact R(q,q,q)\nfact R(p,q,p)\nentity p\n",
        0x8c91cf037ddf3a905c2ceaf3c7927407,
    ),
];

#[test]
fn fingerprints_are_pinned() {
    for (text, fp) in PINNED {
        let spec = DatabaseSpec::parse(text).unwrap();
        assert_eq!(load_database(text).unwrap().fingerprint(), fp, "{text}");
        assert_eq!(spec.to_database().unwrap().fingerprint(), fp, "{text}");
        if let Ok(t) = load_training(text) {
            assert_eq!(t.db.fingerprint(), fp, "{text}");
        }
    }
}

fn same_db(a: &Database, b: &Database) -> Result<(), String> {
    let names = |d: &Database| {
        d.dom()
            .map(|v| d.val_name(v).to_string())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(names(a), names(b));
    prop_assert_eq!(a.facts(), b.facts());
    prop_assert_eq!(a.entities(), b.entities());
    prop_assert_eq!(a.fingerprint(), b.fingerprint());
    Ok(())
}

fn same_training(a: &TrainingDb, b: &TrainingDb) -> Result<(), String> {
    same_db(&a.db, &b.db)?;
    for v in a.db.dom() {
        prop_assert_eq!(a.labeling.try_get(v), b.labeling.try_get(v));
    }
    Ok(())
}

/// Both loaders on one text: the same verdict, and equal results.
fn loaders_agree(text: &str) -> Result<(), String> {
    let spec = DatabaseSpec::parse(text);
    let via_spec = spec.clone().and_then(|s| s.to_database());
    match (load_database(text), via_spec) {
        (Ok(a), Ok(b)) => same_db(&a, &b)?,
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(
            false,
            "{text:?}: direct {:?} vs spec {:?}",
            a.err(),
            b.err()
        ),
    }
    match (load_training(text), spec.and_then(|s| s.to_training())) {
        (Ok(a), Ok(b)) => same_training(&a, &b)?,
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(
            false,
            "{text:?}: direct {:?} vs spec {:?}",
            a.err(),
            b.err()
        ),
    }
    Ok(())
}

/// A random spec line over three relations and four element names.
fn line() -> impl Strategy<Value = String> {
    (0u8..10, 0usize..4, 0usize..4, 0usize..4, 0u8..3).prop_map(|(kind, a, b, c, l)| {
        let label = ["", " +", " -"][l as usize];
        match kind {
            0 => ["rel E/2", "rel L/1", "rel T/3"][a % 3].to_string(),
            1..=3 => format!("fact E(n{a},n{b})"),
            4 => format!("fact L(n{a})"),
            5 => format!("fact T(n{a}, n{b} ,n{c})"),
            6 | 7 => format!("entity n{a}{label}"),
            8 => format!("# n{a}"),
            _ => String::new(),
        }
    })
}

/// A `score`-shaped eval spec: a random out-degree-3 digraph over 40
/// entities.
fn score_text(seed: u64) -> String {
    let mut text = String::from("rel E/2\n");
    let mut x = seed | 1;
    for v in 0..40u64 {
        for _ in 0..3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            text.push_str(&format!("fact E(u{v},u{})\n", x % 40));
        }
    }
    for v in 0..40 {
        text.push_str(&format!("entity u{v}\n"));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn direct_and_spec_loaders_agree(lines in proptest::collection::vec(line(), 0..16)) {
        loaders_agree(&lines.join("\n"))?;
    }

    #[test]
    fn damaged_input_never_panics_either_loader(
        seed in 1u64..1000,
        cut in 0usize..4000,
        flips in proptest::collection::vec((0usize..4000, any::<u8>()), 0..4),
    ) {
        let text = score_text(seed);
        loaders_agree(&text[..cut.min(text.len())])?;
        let mut bytes = text.into_bytes();
        for (at, byte) in flips {
            let n = bytes.len();
            bytes[at % n] = byte;
        }
        loaders_agree(&String::from_utf8_lossy(&bytes))?;
    }
}
