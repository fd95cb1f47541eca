//! Description texts in the formats before the current one, for the
//! integration tests that read them (`mod support;`).

use serde_json::{
    InnerValue,
    Value, //
};

/// `text`, a description of the current format, with every link record
/// back in `topology.links` and `version` and `format_version` set to
/// `version`; and the topology it loads to.
fn with_every_link(text: &str, version: u32) -> (Value, mctop::Mctop) {
    let topo = mctop::desc::from_str(text).unwrap();
    let mut file: Value = serde_json::from_str(text).unwrap();
    file["version"] = serde_json::json!(version);
    file["provenance"]["format_version"] = serde_json::json!(version);
    file["topology"]["links"] = serde_json::to_value(&topo.links);
    (file, topo)
}

/// `text`, a description of the current format, as format 3 wrote it:
/// every link record stored, and `version` and `format_version` set to
/// 3.
pub fn v3_text(text: &str) -> String {
    serde_json::to_string_pretty(&with_every_link(text, 3).0).unwrap()
}

/// `text`, a description of the current format, as format 2 wrote it:
/// every link record stored, its latency table stored after `links`,
/// and `version` and `format_version` set to 2. `raise` adds one cycle
/// to the one table entry `(a, b)`, and leaves `(b, a)` as it was.
pub fn v2_text(text: &str, raise: Option<(usize, usize)>) -> String {
    let (mut file, topo) = with_every_link(text, 2);
    let n = topo.num_hwcs();
    let mut table = topo.lat_table;
    if let Some((a, b)) = raise {
        table[a * n + b] += 1;
    }
    let InnerValue::Object(fields) = &mut file["topology"].0 else {
        panic!("the topology is an object");
    };
    let at = 1 + fields.iter().position(|(k, _)| k == "links").unwrap();
    let table = table.into_iter().map(|v| InnerValue::U64(v.into()));
    fields.insert(at, ("lat_table".into(), InnerValue::Array(table.collect())));
    serde_json::to_string_pretty(&file).unwrap()
}
