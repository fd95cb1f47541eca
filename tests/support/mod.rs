//! Description texts in the format before the current one, for the
//! integration tests that read them (`mod support;`).

use serde_json::{
    InnerValue,
    Value, //
};

/// `text`, a description of the current format, as format 2 wrote it:
/// its latency table stored after `links`, and `version` and
/// `format_version` set to 2. `raise` adds one cycle to the one table
/// entry `(a, b)`, and leaves `(b, a)` as it was.
pub fn v2_text(text: &str, raise: Option<(usize, usize)>) -> String {
    let topo = mctop::desc::from_str(text).unwrap();
    let n = topo.num_hwcs();
    let mut table = topo.lat_table;
    if let Some((a, b)) = raise {
        table[a * n + b] += 1;
    }
    let mut file: Value = serde_json::from_str(text).unwrap();
    file["version"] = serde_json::json!(2);
    file["provenance"]["format_version"] = serde_json::json!(2);
    let InnerValue::Object(fields) = &mut file["topology"].0 else {
        panic!("the topology is an object");
    };
    let at = 1 + fields.iter().position(|(k, _)| k == "links").unwrap();
    let table = table.into_iter().map(|v| InnerValue::U64(v.into()));
    fields.insert(at, ("lat_table".into(), InnerValue::Array(table.collect())));
    serde_json::to_string_pretty(&file).unwrap()
}
