//! One counter table per layer: [`counter_table!`](crate::counter_table)
//! declares a stats struct's fields once and generates its plumbing.
//!
//! Each solver layer counts its work in a plain `Copy` snapshot struct
//! (`HomStats`, `GameStats`, `LpStats`, …) and, where the counting
//! happens across threads, in an atomic twin the layer owns. The table
//! names every field once, with its kind:
//!
//! * `count` — an additive counter: `since` subtracts (saturating),
//!   `merge` adds, the twin's `add` does `fetch_add`;
//! * `max` — a high-water mark: `since` passes it through (the later
//!   mark already covers the interval), `merge` keeps the larger, the
//!   twin's `add` does `fetch_max`;
//! * `gauge` — a current value: `since` passes it through, `merge` and
//!   the twin's `add` sum (totals across engines);
//! * `nested(T)` — another table's snapshot: `since` and `merge`
//!   recurse. A table with nested fields has no twin.
//!
//! A field's optional `("label")` puts it in the generated `fields()`
//! list of `(label, value)` pairs, in table order, which the reports are
//! rendered from (see [`section`]); a field without one is carried but
//! never reported.

/// Declare a stats struct once and generate its `since`, `merge` and
/// `fields`, plus (when a second `struct Name;` follows) an atomic twin
/// with `add`, `snapshot` and `reset`. See the [module docs](crate::counters).
#[macro_export]
macro_rules! counter_table {
    (@ty nested($t:ty)) => { $t };
    (@ty $($kind:tt)*) => { u64 };

    (@since count, $a:expr, $b:expr) => { $a.saturating_sub($b) };
    (@since max, $a:expr, $b:expr) => { $a };
    (@since gauge, $a:expr, $b:expr) => { $a };
    (@since nested, $a:expr, $b:expr) => { $a.since(&$b) };

    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge nested, $a:expr, $b:expr) => { $a.merge(&$b) };
    (@merge $kind:ident, $a:expr, $b:expr) => { $a += $b };

    (@field $v:expr, nested $($rest:tt)*) => { None };
    (@field $v:expr, $kind:ident($label:literal)) => { Some(($label, $v)) };
    (@field $v:expr, $kind:ident) => { None };

    (@add max, $a:expr, $v:expr) => {
        if $v != 0 {
            $a.fetch_max($v, ::std::sync::atomic::Ordering::Relaxed);
        }
    };
    (@add $kind:ident, $a:expr, $v:expr) => {
        if $v != 0 {
            $a.fetch_add($v, ::std::sync::atomic::Ordering::Relaxed);
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident {
            $( $(#[$fmeta:meta])* $field:ident : $kind:ident $(($($arg:tt)*))? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $Stats {
            $( $(#[$fmeta])* pub $field: $crate::counter_table!(@ty $kind $(($($arg)*))?), )*
        }

        impl $Stats {
            /// Deltas since an earlier snapshot: counters subtract
            /// (saturating, so a concurrent reset cannot produce huge
            /// values); high-water marks and gauges pass through.
            pub fn since(&self, earlier: &$Stats) -> $Stats {
                $Stats {
                    $( $field: $crate::counter_table!(@since $kind, self.$field, earlier.$field), )*
                }
            }

            /// Accumulate another snapshot: counters and gauges add,
            /// high-water marks keep the larger.
            pub fn merge(&mut self, other: &$Stats) {
                $( $crate::counter_table!(@merge $kind, self.$field, other.$field); )*
            }

            /// The reported fields as `(label, value)`, in table order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                [$( $crate::counter_table!(@field self.$field, $kind $(($($arg)*))?) ),*]
                    .into_iter()
                    .flatten()
                    .collect()
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident {
            $( $(#[$fmeta:meta])* $field:ident : $kind:ident $(($($arg:tt)*))? ),* $(,)?
        }
        $(#[$ameta:meta])*
        $avis:vis struct $Atomic:ident;
    ) => {
        $crate::counter_table! {
            $(#[$meta])*
            $vis struct $Stats {
                $( $(#[$fmeta])* $field : $kind $(($($arg)*))? ),*
            }
        }

        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $Atomic {
            $( $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $Atomic {
            /// Fold a snapshot's figures into these counters.
            pub fn add(&self, s: &$Stats) {
                $( $crate::counter_table!(@add $kind, self.$field, s.$field); )*
            }

            /// The current figures.
            pub fn snapshot(&self) -> $Stats {
                $Stats {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }

            /// Zero every field.
            pub fn reset(&self) {
                $( self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
}

/// A multi-line report section: `title`, then one `  label: value` line
/// per reported field and per derived `(label, text)` line, each label
/// padded to `width` columns (colon included).
pub fn section(
    title: &str,
    width: usize,
    fields: &[(&str, u64)],
    derived: &[(&str, String)],
) -> String {
    use std::fmt::Write as _;
    let mut out = title.to_string();
    let fields = fields.iter().map(|&(l, v)| (l, v.to_string()));
    for (label, value) in fields.chain(derived.iter().cloned()) {
        let _ = write!(out, "\n  {:<width$}{value}", format!("{label}:"));
    }
    out
}

/// `part / whole` as a one-decimal percentage (`"0.0%"` for an empty
/// whole), the format of the reports' derived rate lines.
pub fn percent(part: u64, whole: u64) -> String {
    let rate = if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    };
    format!("{rate:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_table! {
        struct Probe {
            hits: count("hits"),
            live: gauge("live"),
            deepest: max("deepest"),
            hidden: count,
        }
        struct ProbeCounters;
    }

    #[test]
    fn generated_plumbing_follows_each_field_kind() {
        let earlier = Probe {
            hits: 3,
            live: 9,
            deepest: 4,
            hidden: 1,
        };
        let later = Probe {
            hits: 5,
            live: 7,
            deepest: 4,
            hidden: 2,
        };
        // Counters subtract (saturating); the gauge and the high-water
        // mark pass through.
        let delta = later.since(&earlier);
        assert_eq!(
            delta,
            Probe {
                hits: 2,
                live: 7,
                deepest: 4,
                hidden: 1
            }
        );
        assert_eq!(earlier.since(&later).hits, 0);

        // Merge adds counters and gauges and keeps the larger mark.
        let mut sum = earlier;
        sum.merge(&Probe {
            hits: 1,
            live: 1,
            deepest: 2,
            hidden: 1,
        });
        assert_eq!(
            sum,
            Probe {
                hits: 4,
                live: 10,
                deepest: 4,
                hidden: 2
            }
        );

        // Unlabelled fields stay out of the report list.
        assert_eq!(
            later.fields(),
            vec![("hits", 5), ("live", 7), ("deepest", 4)]
        );

        // The atomic twin: add accumulates the same way, snapshot reads
        // it back, reset zeroes it.
        let twin = ProbeCounters::default();
        twin.add(&earlier);
        assert_eq!(twin.snapshot(), earlier);
        twin.add(&later);
        assert_eq!(
            twin.snapshot(),
            Probe {
                hits: 8,
                live: 16,
                deepest: 4,
                hidden: 3
            }
        );
        twin.reset();
        assert_eq!(twin.snapshot(), Probe::default());
    }

    #[test]
    fn sections_pad_labels_and_append_derived_lines() {
        let s = section(
            "probe:",
            8,
            &[("hits", 5)],
            &[("rate", percent(1, 4)), ("none", percent(0, 0))],
        );
        assert_eq!(s, "probe:\n  hits:   5\n  rate:   25.0%\n  none:   0.0%");
    }
}
