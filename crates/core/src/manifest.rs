//! Extension manifests.
//!
//! The VMM "is initialized with a manifest containing the extension
//! bytecodes and the points where they must be inserted. Different
//! extension codes can be attached to the same insertion point, and the
//! manifest defines in which order they are executed. The manifest also
//! lists the different xBGP API functions that the bytecode uses." (§2.1)
//!
//! Manifests are plain data (JSON on disk) so operators can ship them
//! alongside compiled bytecode. Bytecode travels hex-encoded. The codec is
//! [`xbgp_obs::json`] — hand-rolled (de)serialization keeps the manifest
//! format explicit and dependency-free.

use crate::api::{helper, InsertionPoint};
use crate::policy::OnFault;
use std::collections::HashMap;
use std::sync::Arc;
use xbgp_obs::json::Value;
use xbgp_vm::Program;

/// One extension bytecode and where/how to attach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionSpec {
    /// Human-readable name (diagnostics).
    pub name: String,
    /// Extensions with the same `program` share one persistent memory
    /// space (the GeoLoc use case: four bytecodes, one program).
    pub program: String,
    /// Where to attach.
    pub insertion_point: InsertionPoint,
    /// Helper names this bytecode is allowed to call; the verifier rejects
    /// any call outside this list.
    pub helpers: Vec<String>,
    /// Bytecode, hex-encoded 8-byte slots on the wire. Held behind an
    /// `Arc` so cloning a manifest for each shard's VMM shares one copy
    /// of the raw bytes instead of duplicating every program.
    pub bytecode: Arc<[u8]>,
    /// Per-invocation fuel budget. `None` uses the VMM-wide default.
    pub fuel: Option<u64>,
    /// Disposition when this extension faults (trap, fuel exhaustion,
    /// contract violation); defaults to falling back to native behaviour.
    pub on_fault: OnFault,
}

impl ExtensionSpec {
    /// Build a spec from an already-assembled program.
    pub fn from_program(
        name: impl Into<String>,
        program_group: impl Into<String>,
        insertion_point: InsertionPoint,
        helpers: &[&str],
        prog: &Program,
    ) -> ExtensionSpec {
        ExtensionSpec {
            name: name.into(),
            program: program_group.into(),
            insertion_point,
            helpers: helpers.iter().map(|s| s.to_string()).collect(),
            bytecode: prog.to_bytes().into(),
            fuel: None,
            on_fault: OnFault::Fallback,
        }
    }

    /// Decode the bytecode into instructions.
    pub fn program(&self) -> Result<Program, String> {
        Program::from_bytes(&self.bytecode)
    }

    /// Resolve the declared helper names to ids; unknown names are errors.
    pub fn helper_ids(&self) -> Result<Vec<u32>, String> {
        self.helpers
            .iter()
            .map(|n| helper::id_of(n).ok_or_else(|| format!("unknown helper `{n}`")))
            .collect()
    }
}

/// A full manifest: ordered list of extensions plus static configuration
/// exposed to bytecode through `get_xtra`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    pub extensions: Vec<ExtensionSpec>,
    /// Static key → bytes data (router coordinates, AS-pair tables, ROA
    /// file paths, …), hex-encoded on the wire.
    pub xtra: HashMap<String, HexBlob>,
}

impl Manifest {
    pub fn new() -> Manifest {
        Manifest::default()
    }

    /// Append an extension (executed after previously added ones attached
    /// to the same insertion point).
    pub fn push(&mut self, spec: ExtensionSpec) -> &mut Self {
        self.extensions.push(spec);
        self
    }

    /// Attach static data retrievable with `get_xtra`.
    pub fn set_xtra(&mut self, key: impl Into<String>, value: Vec<u8>) -> &mut Self {
        self.xtra.insert(key.into(), HexBlob(value));
        self
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let extensions: Vec<Value> = self
            .extensions
            .iter()
            .map(|e| {
                let mut obj = vec![
                    ("name".to_string(), Value::from(e.name.as_str())),
                    ("program".to_string(), Value::from(e.program.as_str())),
                    ("insertion_point".to_string(), Value::from(e.insertion_point.name())),
                    (
                        "helpers".to_string(),
                        Value::Arr(e.helpers.iter().map(|h| Value::from(h.as_str())).collect()),
                    ),
                    ("bytecode".to_string(), Value::from(to_hex(&e.bytecode))),
                ];
                // Policy fields are emitted only when they deviate from
                // the defaults, keeping pre-existing manifests byte-stable.
                if let Some(fuel) = e.fuel {
                    obj.push(("fuel".to_string(), Value::from(fuel)));
                }
                if e.on_fault != OnFault::Fallback {
                    obj.push(("on_fault".to_string(), Value::from(e.on_fault.as_str())));
                }
                Value::Obj(obj)
            })
            .collect();
        let mut xtra: Vec<(String, Value)> =
            self.xtra.iter().map(|(k, v)| (k.clone(), Value::from(to_hex(&v.0)))).collect();
        xtra.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Obj(vec![
            ("extensions".to_string(), Value::Arr(extensions)),
            ("xtra".to_string(), Value::Obj(xtra)),
        ])
        .to_string_pretty()
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Manifest, String> {
        let doc = Value::parse(s)?;
        let mut manifest = Manifest::new();
        let extensions = doc
            .get("extensions")
            .and_then(Value::as_array)
            .ok_or("manifest: missing `extensions` array")?;
        for (i, ext) in extensions.iter().enumerate() {
            let field = |key: &str| {
                ext.get(key).ok_or_else(|| format!("manifest: extension {i}: missing `{key}`"))
            };
            let str_field = |key: &str| {
                field(key)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("manifest: extension {i}: `{key}` must be a string"))
            };
            let point_name = str_field("insertion_point")?;
            let insertion_point = InsertionPoint::from_name(&point_name).ok_or_else(|| {
                format!("manifest: extension {i}: unknown insertion point `{point_name}`")
            })?;
            let helpers = field("helpers")?
                .as_array()
                .ok_or_else(|| format!("manifest: extension {i}: `helpers` must be an array"))?
                .iter()
                .map(|h| {
                    h.as_str().map(str::to_string).ok_or_else(|| {
                        format!("manifest: extension {i}: helper names must be strings")
                    })
                })
                .collect::<Result<Vec<String>, String>>()?;
            let fuel = match ext.get("fuel") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    format!("manifest: extension {i}: `fuel` must be a non-negative integer")
                })?),
            };
            let on_fault = match ext.get("on_fault").and_then(Value::as_str) {
                None => OnFault::Fallback,
                Some(s) => {
                    OnFault::parse(s).map_err(|e| format!("manifest: extension {i}: {e}"))?
                }
            };
            manifest.extensions.push(ExtensionSpec {
                name: str_field("name")?,
                // `program` defaults to empty, like the old serde(default).
                program: ext.get("program").and_then(Value::as_str).unwrap_or_default().to_string(),
                insertion_point,
                helpers,
                bytecode: from_hex(&str_field("bytecode")?)
                    .map_err(|e| format!("manifest: extension {i}: bad bytecode: {e}"))?
                    .into(),
                fuel,
                on_fault,
            });
        }
        if let Some(xtra) = doc.get("xtra") {
            let members = xtra.as_object().ok_or("manifest: `xtra` must be an object")?;
            for (key, value) in members {
                let hex = value
                    .as_str()
                    .ok_or_else(|| format!("manifest: xtra `{key}` must be a hex string"))?;
                manifest.xtra.insert(
                    key.clone(),
                    HexBlob(from_hex(hex).map_err(|e| format!("manifest: xtra `{key}`: {e}"))?),
                );
            }
        }
        Ok(manifest)
    }
}

/// Byte blob serialized as a hex string.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HexBlob(pub Vec<u8>);

/// Hex encoding used for bytecode and blobs in JSON manifests.
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbgp_vm::insn::build;

    fn sample() -> Manifest {
        let prog = Program::new(vec![build::mov_imm(0, 1), build::exit()]);
        let mut m = Manifest::new();
        m.push(ExtensionSpec::from_program(
            "accept_all",
            "demo",
            InsertionPoint::BgpInboundFilter,
            &["next", "get_peer_info"],
            &prog,
        ));
        m.set_xtra("coords", vec![1, 2, 3, 4]);
        m
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let json = m.to_json();
        assert!(json.contains("bgp_inbound_filter"));
        assert!(json.contains("accept_all"));
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn policy_fields_round_trip_and_default() {
        let mut m = sample();
        m.extensions[0].fuel = Some(4096);
        m.extensions[0].on_fault = OnFault::Abort;
        let json = m.to_json();
        assert!(json.contains("\"fuel\""));
        assert!(json.contains("\"abort\""));
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);

        // Defaults are omitted on the wire and restored on parse.
        let plain = sample().to_json();
        assert!(!plain.contains("on_fault"));
        let back = Manifest::from_json(&plain).unwrap();
        assert_eq!(back.extensions[0].fuel, None);
        assert_eq!(back.extensions[0].on_fault, OnFault::Fallback);

        // Bad values are rejected with the manifest error style.
        let bad =
            plain.replace("\"program\": \"demo\"", "\"program\": \"demo\", \"on_fault\": \"x\"");
        assert!(Manifest::from_json(&bad).unwrap_err().contains("unknown on_fault"));
    }

    #[test]
    fn bytecode_decodes_back_to_program() {
        let m = sample();
        let prog = m.extensions[0].program().unwrap();
        assert_eq!(prog.insns.len(), 2);
    }

    #[test]
    fn helper_name_resolution() {
        let m = sample();
        assert_eq!(m.extensions[0].helper_ids().unwrap(), vec![1, 4]);

        let mut bad = m.extensions[0].clone();
        bad.helpers.push("no_such_helper".into());
        assert!(bad.helper_ids().is_err());
    }

    #[test]
    fn hex_codec() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(from_hex("00ff1a").unwrap(), vec![0x00, 0xff, 0x1a]);
        assert!(from_hex("0").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn malformed_json_reports_error() {
        assert!(Manifest::from_json("{").is_err());
        assert!(Manifest::from_json(r#"{"extensions":[{"name":"x"}]}"#).is_err());
    }
}
