//! Edge cases of the exact min-error search (§7's ε-approximate
//! separability core): conflicting labels, the ε = 0 and ε = 1 extremes,
//! and brute-force agreement on duplicated-vector instances — the
//! regime the generalization harness feeds it (noisy planted labels
//! collapse many entities onto few feature types).

use interrupt::Interrupt;
use linsep::{LinearClassifier, LpCounters, MinErrorResult};

fn min_error_classifier(vectors: &[Vec<i32>], labels: &[i32]) -> MinErrorResult {
    linsep::min_error_classifier(&LpCounters::new(), vectors, labels, &Interrupt::none()).unwrap()
}

fn separate(vectors: &[Vec<i32>], labels: &[i32]) -> Option<LinearClassifier> {
    linsep::separate(
        &LpCounters::new(),
        vectors,
        labels,
        None,
        &Interrupt::none(),
    )
    .unwrap()
    .result
    .map(|(c, _)| c)
}

/// Every classifier is constant on a type, so a type holding both
/// labels pays its minority — and with *one* type, that is the whole
/// optimum, whatever the mix.
#[test]
fn all_conflicting_single_type_pays_exactly_the_minority() {
    for (p, n) in [(1, 1), (5, 2), (2, 5), (7, 7), (10, 0), (0, 4)] {
        let vectors = vec![vec![1, -1]; p + n];
        let mut labels = vec![1; p];
        labels.extend(std::iter::repeat_n(-1, n));
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(r.errors, p.min(n), "p={p} n={n}");
        // The realized relabeling is constant and consistent with the
        // classifier that certifies it.
        assert!(r.labels.windows(2).all(|w| w[0] == w[1]), "p={p} n={n}");
        assert!(r.classifier.separates(
            vectors
                .iter()
                .map(|v| v.as_slice())
                .zip(r.labels.iter().copied())
        ));
    }
}

/// ε = 0 extreme: zero errors is achievable exactly when the instance is
/// linearly separable — `min_error_classifier` must agree with the LP
/// decision procedure on both sides.
#[test]
fn zero_errors_iff_separable() {
    let instances: Vec<(Vec<Vec<i32>>, Vec<i32>)> = vec![
        // Separable: AND on two features.
        (
            vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]],
            vec![1, -1, -1, -1],
        ),
        // Not separable: XOR.
        (
            vec![vec![1, 1], vec![1, -1], vec![-1, 1], vec![-1, -1]],
            vec![-1, 1, 1, -1],
        ),
        // Separable: single example.
        (vec![vec![1]], vec![-1]),
        // Not separable: same vector, both labels.
        (vec![vec![1, 1], vec![1, 1]], vec![1, -1]),
        // Separable: empty instance.
        (vec![], vec![]),
    ];
    for (vectors, labels) in instances {
        let r = min_error_classifier(&vectors, &labels);
        assert_eq!(
            r.errors == 0,
            separate(&vectors, &labels).is_some(),
            "{vectors:?} {labels:?}"
        );
        if r.errors == 0 {
            assert_eq!(r.labels, labels);
        }
    }
}

/// ε = 1 extreme: the majority-constant classifier errs on at most
/// min(#pos, #neg), so the optimum never exceeds that — every instance
/// is trivially ε-approximately separable at ε = 1.
#[test]
fn errors_never_exceed_the_minority_class() {
    let mut x = 41u64;
    let mut rnd = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for trial in 0..20 {
        let dims = 1 + trial % 3;
        let n = 4 + trial % 5;
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            vectors.push(
                (0..dims)
                    .map(|_| if rnd() % 2 == 0 { 1 } else { -1 })
                    .collect::<Vec<i32>>(),
            );
            labels.push(if rnd() % 2 == 0 { 1 } else { -1 });
        }
        let pos = labels.iter().filter(|&&y| y == 1).count();
        let neg = labels.len() - pos;
        let r = min_error_classifier(&vectors, &labels);
        assert!(
            r.errors <= pos.min(neg),
            "trial {trial}: {} > min({pos},{neg})",
            r.errors
        );
        // The reported error count matches the realized relabeling.
        let disagreements = r
            .labels
            .iter()
            .zip(labels.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(r.errors, disagreements, "trial {trial}");
    }
}

/// Brute-force agreement on instances built from few *duplicated*
/// vectors with conflicting multiplicities — the branch-and-bound's
/// type-grouping and cost accounting must match the exhaustive optimum.
#[test]
fn brute_force_agreement_on_duplicated_types() {
    let mut x = 99u64;
    let mut rnd = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for trial in 0..12 {
        let dims = 2 + trial % 2;
        // Few base types, each repeated with noisy labels.
        let base: Vec<Vec<i32>> = (0..3 + trial % 3)
            .map(|_| {
                (0..dims)
                    .map(|_| if rnd() % 2 == 0 { 1 } else { -1 })
                    .collect()
            })
            .collect();
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        for v in &base {
            for _ in 0..1 + rnd() % 3 {
                vectors.push(v.clone());
                // Mostly one label, occasionally flipped: planted noise.
                labels.push(if rnd() % 4 == 0 { -1 } else { 1 });
            }
        }
        let r = min_error_classifier(&vectors, &labels);
        let brute = brute_min_errors(&vectors, &labels);
        assert_eq!(r.errors, brute, "trial {trial}: {vectors:?} {labels:?}");
        assert!(r.classifier.separates(
            vectors
                .iter()
                .map(|v| v.as_slice())
                .zip(r.labels.iter().copied())
        ));
    }
}

/// Exhaustive minimum over all separable type assignments.
fn brute_min_errors(vectors: &[Vec<i32>], labels: &[i32]) -> usize {
    let mut types: Vec<Vec<i32>> = Vec::new();
    for v in vectors {
        if !types.contains(v) {
            types.push(v.clone());
        }
    }
    let k = types.len();
    assert!(k <= 20, "brute force needs few types");
    let mut best = usize::MAX;
    for mask in 0u32..(1 << k) {
        let assign: Vec<i32> = (0..k)
            .map(|i| if mask & (1 << i) != 0 { 1 } else { -1 })
            .collect();
        if separate(&types, &assign).is_none() {
            continue;
        }
        let cost = vectors
            .iter()
            .zip(labels.iter())
            .filter(|(v, &y)| {
                let t = types.iter().position(|u| u == *v).unwrap();
                assign[t] != y
            })
            .count();
        best = best.min(cost);
    }
    best
}
