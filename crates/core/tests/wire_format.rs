//! The wire format, pinned: one scenario that touches every shape the
//! wire carries encodes to a checked-in string and plan hash, and the
//! decoder's answer to each kind of bad input is pinned by its text.
//!
//! The plan hash (`fnv1a` of `plan_key`) is persisted in run stores and
//! queried by `GET /v1/runs?hash=`, so a codec change that moves a byte
//! of the key orphans every stored run; the encoding test catches that.

use overlap_core::{ScenarioSpec, Strategy};
use overlap_model::{GuestSpec, ProgramKind, TaskGraph};
use overlap_net::topology::linear_array;
use overlap_net::DelayModel;
use overlap_sim::bandwidth::BandwidthMode;
use overlap_sim::engine::{Jitter, MemBudget};
use overlap_sim::faults::{FaultPlan, RetryPolicy};

/// A task-graph guest on a host drawn from a float-carrying delay
/// model, with every option set: a float-carrying strategy, fixed
/// bandwidth, multicast, jitter, a memory budget, compute costs and
/// faults of every kind with a retry policy.
fn every_shape() -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        GuestSpec::dag(
            TaskGraph::layered_random(6, 3, 2, 3, 1),
            ProgramKind::RuleAutomaton { db_size: 4 },
            3,
        ),
        linear_array(
            4,
            DelayModel::Bimodal {
                lo: 1,
                hi: 9,
                p_hi: 0.25,
            },
            7,
        ),
    );
    s.strategy = Strategy::Combined {
        c: 3.75,
        expansion: 2,
    };
    s.config.bandwidth = BandwidthMode::Fixed(3);
    s.config.max_ticks = 1 << 20;
    s.config.multicast = true;
    s.config.jitter = Jitter::Periodic {
        amplitude_pct: 30,
        period: 4,
    };
    s.config.mem = Some(MemBudget {
        budget: 2,
        reload_cost: 1,
    });
    s.compute_costs = Some(vec![1, 2, 1, 2]);
    let mut faults = FaultPlan::new()
        .link_down(0, 1, 2, 5)
        .delay_spike(1, 2, 3, 9, 2)
        .crash(3, 7);
    faults.retry = Some(RetryPolicy {
        base: 3,
        cap: 40,
        max_attempts: 6,
    });
    s.faults = Some(faults);
    s.trace = true;
    s
}

const EVERY_SHAPE_JSON: &str = concat!(
    r#"{"guest":{"topology":{"Dag":{"dbs":6,"layers":3}},"#,
    r#""program":{"RuleAutomaton":{"db_size":4}},"seed":3,"steps":3,"#,
    r#""graph":{"num_dbs":6,"layers":3,"deps":["#,
    r#"{"Cell":0},{"Cell":2},{"Cell":3},{"Cell":0},{"Cell":5},{"Cell":0},"#,
    r#"{"Cell":5},{"Cell":1},{"Cell":2},{"Cell":1},{"Cell":3},{"Cell":0},"#,
    r#"{"Cell":1},{"Cell":4},{"Cell":2},{"Cell":2},{"Cell":0},{"Cell":5},"#,
    r#"{"Cell":2},{"Cell":1},{"Cell":3},{"Cell":2},{"Cell":3},{"Cell":1},"#,
    r#"{"Cell":0},{"Cell":3},{"Cell":5},{"Cell":4},{"Cell":4},{"Cell":5},"#,
    r#"{"Cell":1},{"Cell":4},{"Cell":0},{"Cell":3},{"Cell":4},{"Cell":0},"#,
    r#"{"Cell":1},{"Cell":5},{"Cell":0},{"Cell":3},{"Cell":5},{"Cell":3},"#,
    r#"{"Cell":5},{"Cell":1}],"#,
    r#""dep_off":[0,3,5,7,9,12,14,15,18,20,22,25,28,31,34,37,40,42,44],"#,
    r#""costs":[2,1,2,3,2,1,3,3,1,1,3,1,1,1,1,1,2,3],"#,
    r#""relay":[false,false,false,false,false,false,false,false,false,"#,
    r#"false,false,false,false,false,false,false,false,false],"#,
    r#""uniform":false,"max_deps":3}},"#,
    r#""host":{"name":"line(4,bimodal(1,9,p=0.25))","n":4,"links":["#,
    r#"{"a":0,"b":1,"delay":9},{"a":1,"b":2,"delay":1},{"a":2,"b":3,"delay":9}],"#,
    r#""adj":[[[1,9]],[[0,9],[2,1]],[[1,1],[3,9]],[[2,9]]]},"#,
    r#""strategy":{"Combined":{"c":3.75,"expansion":2}},"#,
    r#""config":{"bandwidth":{"Fixed":3},"max_ticks":1048576,"multicast":true,"#,
    r#""jitter":{"Periodic":{"amplitude_pct":30,"period":4}},"#,
    r#""mem":{"budget":2,"reload_cost":1}},"#,
    r#""compute_costs":[1,2,1,2],"#,
    r#""faults":{"outages":[{"a":0,"b":1,"from":2,"until":5}],"#,
    r#""spikes":[{"a":1,"b":2,"from":3,"until":9,"factor":2}],"#,
    r#""crashes":[{"proc":3,"at":7}],"#,
    r#""retry":{"base":3,"cap":40,"max_attempts":6}},"#,
    r#""trace":true}"#,
);

const EVERY_SHAPE_PLAN_HASH: u64 = 0x832e_2fdc_f273_5122;

#[test]
fn every_wire_shape_encodes_to_the_pinned_bytes_and_plan_hash() {
    let s = every_shape();
    let json = serde_json::to_string(&s).unwrap();
    assert_eq!(json, EVERY_SHAPE_JSON);
    assert_eq!(ScenarioSpec::from_json(&json), Ok(s.clone()));
    let key = s.plan_key().unwrap();
    assert_eq!(
        overlap_sim::fnv1a(key.as_bytes()),
        EVERY_SHAPE_PLAN_HASH,
        "{key}"
    );
}

/// The pinned document with the first `from` replaced by `to`.
fn edit(from: &str, to: &str) -> String {
    let edited = EVERY_SHAPE_JSON.replacen(from, to, 1);
    assert_ne!(edited, EVERY_SHAPE_JSON, "`{from}` is not in the document");
    edited
}

/// What the wire decoder answers to `json`: the spec, or the error text.
fn decode(json: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_json(json)
}

#[test]
fn each_kind_of_bad_input_fails_with_its_pinned_text() {
    let len = EVERY_SHAPE_JSON.len();
    let cases = [
        // Unknown keys, at the top and nested, a struct variant included.
        (
            edit(r#""trace":true}"#, r#""trace":true,"bogus":0}"#),
            "unknown field `bogus` of `ScenarioSpec`".to_string(),
        ),
        (
            edit(r#""retry":{"#, r#""retry":{"bogus":0,"#),
            "unknown field `bogus` of `RetryPolicy`".to_string(),
        ),
        (
            edit(r#"{"c":3.75"#, r#"{"bogus":0,"c":3.75"#),
            "unknown field `bogus` of `Strategy::Combined`".to_string(),
        ),
        // Missing fields.
        (
            edit(r#","steps":3"#, ""),
            "missing field `steps` of `GuestSpec`".to_string(),
        ),
        (
            edit(r#""strategy":{"Combined":{"c":3.75,"expansion":2}},"#, ""),
            "missing field `strategy` of `ScenarioSpec`".to_string(),
        ),
        // Unknown variants, tagged and bare; a data variant named bare.
        (
            edit(r#"{"Combined":"#, r#"{"Bogus":"#),
            "unknown variant `Bogus` of Strategy".to_string(),
        ),
        (
            edit(r#"{"Combined":{"c":3.75,"expansion":2}}"#, r#""Bogus""#),
            "unknown variant `Bogus` of Strategy".to_string(),
        ),
        (
            edit(r#"{"Fixed":3}"#, r#""Fixed""#),
            "unknown variant `Fixed` of BandwidthMode".to_string(),
        ),
        // Wrong kinds.
        (
            edit(r#""steps":3"#, r#""steps":"3""#),
            "expected u32, found string".to_string(),
        ),
        (
            edit(r#""multicast":true"#, r#""multicast":1"#),
            "expected bool, found integer".to_string(),
        ),
        (
            edit(r#""c":3.75"#, r#""c":null"#),
            "expected f64, found null".to_string(),
        ),
        (
            edit(r#""max_deps":3"#, r#""max_deps":3.0"#),
            "expected usize, found float".to_string(),
        ),
        (
            edit(r#""steps":3"#, r#""steps":-3"#),
            "expected u32, found integer".to_string(),
        ),
        (
            edit(r#""steps":3"#, r#""steps":4294967296"#),
            "4294967296 out of range for u32".to_string(),
        ),
        (
            edit(r#""compute_costs":[1,2,1,2]"#, r#""compute_costs":{"a":1}"#),
            "expected sequence, found map".to_string(),
        ),
        (
            edit(
                r#""retry":{"base":3,"cap":40,"max_attempts":6}"#,
                r#""retry":[3,40,6]"#,
            ),
            "expected struct RetryPolicy, found sequence".to_string(),
        ),
        (
            edit(r#"{"Combined":{"c":3.75,"expansion":2}}"#, "7"),
            "expected enum Strategy, found integer".to_string(),
        ),
        (
            edit(
                r#"{"Combined":{"c":3.75,"expansion":2}}"#,
                r#"{"Combined":{"c":3.75,"expansion":2},"Auto":null}"#,
            ),
            "expected enum Strategy, found map".to_string(),
        ),
        (
            edit("[[1,9]]", "[[1,9,9]]"),
            "expected a tuple of 2 elements, found 3".to_string(),
        ),
        // Text that is not one JSON document.
        (
            format!("{EVERY_SHAPE_JSON} x"),
            format!("trailing characters at byte {}", len + 1),
        ),
        (
            EVERY_SHAPE_JSON[..len - 1].to_string(),
            format!("expected `,` or `}}` at byte {}", len - 1),
        ),
        (
            edit(r#""seed":3"#, r#""seed":3x"#),
            format!(
                "expected `,` or `}}` at byte {}",
                EVERY_SHAPE_JSON.find(r#""seed":3"#).unwrap() + 8
            ),
        ),
        (
            edit(r#""trace":true}"#, r#""trace":tru}"#),
            format!("unexpected character at byte {}", len - 5),
        ),
        (
            edit(r#""trace":true}"#, r#""trace":"true}"#),
            "unterminated string".to_string(),
        ),
        (String::new(), "unexpected character at byte 0".to_string()),
    ];
    for (json, error) in cases {
        assert_eq!(decode(&json), Err(error), "{json}");
        // The typed decoder refuses the same input with the same text.
        assert_eq!(
            serde_json::from_str::<ScenarioSpec>(&json).map_err(|e| e.to_string()),
            decode(&json),
            "{json}"
        );
    }
}

/// When one document has several faults, the decoder reports the one a
/// full parse followed by a typed walk would: a syntax error before any
/// type error; in an object, an unknown key before any other error of
/// that object, then the first field in declaration order that is
/// missing or fails; in a tuple or a tagged enum, a wrong element or
/// entry count before an error inside.
#[test]
fn documents_with_several_faults_report_the_pinned_one() {
    let bad_steps = edit(r#""steps":3"#, r#""steps":"3""#);
    let cases = [
        (
            bad_steps[..bad_steps.len() - 1].to_string(),
            format!("expected `,` or `}}` at byte {}", bad_steps.len() - 1),
        ),
        (
            bad_steps.replacen(r#""seed":3,"#, r#""seed":3,"bogus":0,"#, 1),
            "unknown field `bogus` of `GuestSpec`".to_string(),
        ),
        (
            bad_steps.replacen(r#""seed":3,"#, "", 1),
            "missing field `seed` of `GuestSpec`".to_string(),
        ),
        (
            format!(
                r#"{{"trace":"y",{}"#,
                &bad_steps[1..].replacen(r#","trace":true"#, "", 1)
            ),
            "expected u32, found string".to_string(),
        ),
        (
            edit("[[1,9]]", r#"[["1",9,9]]"#),
            "expected a tuple of 2 elements, found 3".to_string(),
        ),
        (
            edit(
                r#"{"Combined":{"c":3.75,"expansion":2}}"#,
                r#"{"Combined":{"c":"x","expansion":2},"Auto":null}"#,
            ),
            "expected enum Strategy, found map".to_string(),
        ),
        (
            edit(
                r#"{"Combined":{"c":3.75,"expansion":2}}"#,
                r#"{"Bogus":0,"Auto":null}"#,
            ),
            "expected enum Strategy, found map".to_string(),
        ),
    ];
    for (json, error) in cases {
        assert_eq!(decode(&json), Err(error), "{json}");
    }
}

/// A key given twice keeps its first value; later ones are not decoded.
#[test]
fn a_duplicated_key_keeps_its_first_occurrence() {
    let json = edit(r#""seed":3,"#, r#""seed":5,"seed":3,"seed":"x","#);
    let mut want = every_shape();
    want.guest.seed = 5;
    assert_eq!(decode(&json), Ok(want));
}

/// The wire decoder ignores the two retired keys, top-level `engine` and
/// `config.record_timing`; the typed decoder refuses them like any other
/// unknown key.
#[test]
fn retired_keys_decode_on_the_wire_only() {
    let json = edit(
        r#""config":{"#,
        r#""engine":"Stepped","config":{"record_timing":true,"#,
    );
    assert_eq!(decode(&json), Ok(every_shape()));
    assert_eq!(
        serde_json::from_str::<ScenarioSpec>(&json).map_err(|e| e.to_string()),
        Err("unknown field `engine` of `ScenarioSpec`".to_string())
    );
}
