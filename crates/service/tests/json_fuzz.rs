//! Protocol fuzzing: arbitrary, malformed, truncated, and
//! strangely-typed NDJSON through the real parser and the real serve
//! loop. The contract under test: every non-empty request line yields
//! exactly one *typed* response (`ok` / `error` / `interrupted`) — the
//! server never panics, never hangs, and never drops a line silently.

use proptest::prelude::*;
use service::json::Json;
use service::{serve, validate_tenant_id, ServeOpts, TenantConfig, TenantRegistry};
use std::sync::Arc;

const TRAIN: &str = "rel E/2\nfact E(a,b)\nentity a +\nentity b -\n";

/// Arbitrary bytes flattened onto one line (the serve loop frames on
/// newlines, so embedded terminators would split the line and break the
/// one-response-per-line accounting).
fn garbage_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..120)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " "))
}

/// A well-formed check request.
fn valid_request() -> impl Strategy<Value = String> {
    (1u64..1000).prop_map(|id| {
        format!(
            "{{\"id\":{id},\"task\":\"check\",\"train\":{},\"classes\":[\"cq\"]}}",
            service::json::escape(TRAIN)
        )
    })
}

/// A well-formed request chopped mid-byte: must parse-fail cleanly.
fn truncated_request() -> impl Strategy<Value = String> {
    (valid_request(), 0usize..80).prop_map(|(full, cut)| {
        let cut = cut.min(full.len().saturating_sub(1));
        full[..cut].to_string()
    })
}

/// Structurally valid JSON with adversarial field types and values.
fn odd_request() -> impl Strategy<Value = String> {
    let task = prop_oneof![
        Just("\"check\"".to_string()),
        Just("\"relabel\"".to_string()),
        Just("\"evaluate\"".to_string()),
        Just("\"no-such-task\"".to_string()),
        Just("17".to_string()),
        Just("null".to_string()),
    ];
    let timeout = prop_oneof![
        Just("-1".to_string()),
        Just("1e308".to_string()),
        Just("\"soon\"".to_string()),
        Just("0.001".to_string()),
        Just("[]".to_string()),
    ];
    let priority = prop_oneof![
        Just("0.5".to_string()),
        Just("-9".to_string()),
        Just("\"high\"".to_string()),
        Just("99999999999999999999".to_string()),
    ];
    (task, timeout, priority, 0u64..1000).prop_map(|(t, to, p, id)| {
        format!("{{\"id\":{id},\"task\":{t},\"timeout_secs\":{to},\"priority\":{p}}}")
    })
}

fn any_line() -> BoxedStrategy<String> {
    prop_oneof![
        garbage_line().boxed(),
        truncated_request().boxed(),
        odd_request().boxed(),
        valid_request().boxed(),
    ]
    .boxed()
}

fn run_serve(input: &str) -> (Vec<Json>, service::ServeSummary) {
    let mut output = Vec::new();
    let summary = serve(
        Arc::new(TenantRegistry::new(TenantConfig::default())),
        input.as_bytes(),
        &mut output,
        &ServeOpts::default(),
    )
    .expect("in-memory serve cannot fail on io");
    let responses = String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect();
    (responses, summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_parse_never_panics_and_accepted_values_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(v) = Json::parse(&text) {
            let again = Json::parse(&v.to_string())
                .map_err(|e| format!("reprint of accepted value rejected: {e}"))?;
            prop_assert_eq!(v, again);
        }
    }

    #[test]
    fn every_line_gets_exactly_one_typed_response(lines in proptest::collection::vec(any_line(), 1..10)) {
        let input = lines.join("\n");
        let (responses, summary) = run_serve(&input);
        let expected = lines.iter().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(responses.len(), expected, "one response per non-empty line");
        prop_assert_eq!(summary.total(), expected);
        for resp in &responses {
            let status = resp
                .get("status")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("response without status: {resp}"))?;
            prop_assert!(
                matches!(status, "ok" | "error" | "interrupted"),
                "unexpected status {:?}",
                status
            );
            if status == "error" {
                prop_assert!(
                    resp.get("error").and_then(Json::as_str).is_some(),
                    "error responses carry a message: {}",
                    resp
                );
            }
            prop_assert!(resp.get("id").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn arbitrary_tenant_ids_are_validated_not_trusted(bytes in proptest::collection::vec(any::<u8>(), 0..12)) {
        let tenant = String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ");
        let line = format!(
            "{{\"id\":1,\"task\":\"check\",\"train\":{},\"classes\":[\"cq\"],\"tenant\":{}}}",
            service::json::escape(TRAIN),
            service::json::escape(&tenant),
        );
        let (responses, summary) = run_serve(&line);
        prop_assert_eq!(responses.len(), 1);
        let status = responses[0].get("status").and_then(Json::as_str);
        match validate_tenant_id(&tenant) {
            Ok(()) => prop_assert_eq!(status, Some("ok"), "valid tenant id must serve: {}", responses[0]),
            Err(_) => {
                prop_assert_eq!(status, Some("error"));
                prop_assert_eq!(summary.failed, 1);
                let msg = responses[0].get("error").and_then(Json::as_str).unwrap_or("");
                prop_assert!(msg.contains("bad tenant id"), "{}", msg);
            }
        }
    }
}
