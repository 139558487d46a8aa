//! Hostile delta scripts: truncations and bit flips of valid scripts,
//! plus arbitrary bytes, through [`Delta::parse`]. The contract under
//! test: parsing returns `Ok` or `Err` and never panics, and applying
//! any delta that parses to a fresh database (plain or training) returns
//! `Ok` or `Err` and never panics either.

use proptest::prelude::*;
use relational::spec::load_training;
use relational::{Database, Delta, Lineage};

const TRAIN: &str = "rel E/2\nrel T/3\nfact E(a,b)\nfact E(b,c)\nfact T(a,b,c)\n\
                     entity a +\nentity b -\n";

/// Valid script lines, covering every verb and both label forms.
const LINES: &[&str] = &[
    "add-value x",
    "add-fact E(a,x)",
    "add-fact E(c,c)",
    "add-fact T(a,a,b)",
    "del-fact E(a,b)",
    "del-fact T(a,b,c)",
    "add-entity c +",
    "add-entity x -",
    "add-entity y",
    "flip-label a",
    "# a comment",
    "",
];

/// A valid script of up to eight of [`LINES`].
fn valid_script() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..LINES.len(), 0..8)
        .prop_map(|picks| picks.iter().map(|&i| format!("{}\n", LINES[i])).collect())
}

/// Bytes of a valid script, cut at any byte.
fn truncated() -> impl Strategy<Value = Vec<u8>> {
    (valid_script(), 0usize..200).prop_map(|(s, cut)| {
        let bytes = s.into_bytes();
        let cut = cut.min(bytes.len());
        bytes[..cut].to_vec()
    })
}

/// Bytes of a valid script with up to three bits flipped.
fn flipped() -> impl Strategy<Value = Vec<u8>> {
    (
        valid_script(),
        proptest::collection::vec(0usize..1600, 1..4),
    )
        .prop_map(|(s, bits)| {
            let mut bytes = s.into_bytes();
            if !bytes.is_empty() {
                for bit in bits {
                    let bit = bit % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            bytes
        })
}

fn random_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..160)
}

fn any_script() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        truncated().boxed(),
        flipped().boxed(),
        random_bytes().boxed(),
    ]
    .boxed()
}

/// Parse `bytes` (lossily decoded, as a request body would be) and
/// apply whatever parses to fresh databases, with and without lineage.
fn parse_and_apply(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let Ok(delta) = Delta::parse(&text) else {
        return;
    };
    let train = load_training(TRAIN).unwrap();
    let mut plain: Database = train.db.clone();
    let _ = plain.apply(&delta);
    let mut labeled = train.clone();
    let _ = labeled.apply(&delta);
    let lineage = Lineage::new();
    let mut via = train;
    let _ = via.apply_via(&delta, &lineage);
    // What applied must still render and re-parse.
    assert!(Delta::parse(&delta.to_text()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_delta_scripts_never_panic(bytes in any_script()) {
        parse_and_apply(&bytes);
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_full_script_is_handled() {
    let script: String = LINES.iter().map(|l| format!("{l}\n")).collect();
    assert!(Delta::parse(&script).is_ok());
    let bytes = script.as_bytes();
    for cut in 0..=bytes.len() {
        parse_and_apply(&bytes[..cut]);
    }
    for bit in 0..bytes.len() * 8 {
        let mut bad = bytes.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        parse_and_apply(&bad);
    }
}
