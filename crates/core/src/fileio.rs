//! The "internal MHETA file" (§4.1, Figure 3): the program structure,
//! microbenchmark results and instrumented measurements MHETA reads
//! before evaluating distributions, as one indented JSON document
//! `{"schema": "mheta-model/v1", "structure": …, "arch": …, "profile": …}`.
//!
//! `structure` and `arch` are the `Serialize` derives, the rendering the
//! serving cache key hashes. The profile's hash maps are `[key, value]`
//! pairs sorted by key: the JSON stand-in keys objects by string only,
//! and hash order must never reach the file. Floats are written in their
//! shortest round-trip form, so a model reloads bit for bit and
//! `save_model(&load_model(text)?)` is `text` again. JSON has no NaN or
//! ±∞: a model built from non-finite inputs saves `null` there, which
//! [`load_model`] refuses, naming the field.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use mheta_mpi::Scope;
use serde::{Serialize, Value};

use crate::error::ModelError;
use crate::model::Mheta;
use crate::params::{ArchParams, CommParams, DiskParams};
use crate::profile::{InstrumentedProfile, NodeProfile};
use crate::structure::{CommPattern, ProgramStructure, SectionSpec, StageSpec, Variable};

type Result<T> = std::result::Result<T, ModelError>;
type Reader<T> = fn(Field) -> Result<T>;

/// The `schema` member of every MHETA file.
const SCHEMA: &str = "mheta-model/v1";

/// Serialize a complete model to the MHETA file format.
#[must_use]
pub fn save_model(model: &Mheta) -> String {
    let nodes = model.profile().nodes.iter().map(|n| {
        Value::object(vec![
            ("rank", n.rank.to_value()),
            ("compute_ns_per_row", sorted_pairs(&n.compute_ns_per_row)),
            ("read_ns_per_elem", sorted_pairs(&n.read_ns_per_elem)),
            ("write_ns_per_elem", sorted_pairs(&n.write_ns_per_elem)),
            ("section_send_bytes", sorted_pairs(&n.section_send_bytes)),
        ])
    });
    let profile = Value::object(vec![
        ("nodes", Value::Array(nodes.collect())),
        ("rows", model.profile().rows.to_value()),
    ]);
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        ("structure", model.structure().to_value()),
        ("arch", model.arch().to_value()),
        ("profile", profile),
    ])
    .to_json_pretty()
}

fn sorted_pairs<K: Serialize + Ord, V: Serialize>(map: &HashMap<K, V>) -> Value {
    let sorted: BTreeMap<&K, &V> = map.iter().collect();
    Value::Array(sorted.into_iter().map(|kv| kv.to_value()).collect())
}

/// Reassemble a model from [`save_model`]'s output.
pub fn load_model(text: &str) -> Result<Mheta> {
    let doc = serde::from_str(text).map_err(|e| ModelError::File(e.to_string()))?;
    let root = Field {
        value: &doc,
        path: "$".into(),
    };
    let schema = root.get("schema")?;
    if schema.value.as_str() != Some(SCHEMA) {
        return Err(schema.expected(&format!("\"{SCHEMA}\"")));
    }
    let s = root.get("structure")?;
    let structure = ProgramStructure {
        name: s.get("name")?.string()?,
        sections: s.get("sections")?.list(|sec| {
            Ok(SectionSpec {
                id: sec.get("id")?.uint()?,
                tiles: sec.get("tiles")?.uint()?,
                stages: sec.get("stages")?.list(|st| {
                    Ok(StageSpec {
                        id: st.get("id")?.uint()?,
                        reads: st.get("reads")?.list(|id| id.uint())?,
                        writes: st.get("writes")?.list(|id| id.uint())?,
                        prefetch: st.get("prefetch")?.bool()?,
                        row_fraction: st.get("row_fraction")?.f64()?,
                    })
                })?,
                comm: comm(sec.get("comm")?)?,
            })
        })?,
        variables: s.get("variables")?.list(|v| {
            Ok(Variable {
                id: v.get("id")?.uint()?,
                name: v.get("name")?.string()?,
                elem_bytes: v.get("elem_bytes")?.uint()?,
                read_only: v.get("read_only")?.bool()?,
                distributed: v.get("distributed")?.bool()?,
                resident: v.get("resident")?.bool()?,
                total_rows: v.get("total_rows")?.uint()?,
                elems_per_row: v.get("elems_per_row")?.f64()?,
            })
        })?,
    };
    let a = root.get("arch")?;
    let comm = a.get("comm")?;
    let arch = ArchParams {
        name: a.get("name")?.string()?,
        comm: CommParams {
            o_s: comm.get("o_s")?.f64()?,
            o_r: comm.get("o_r")?.f64()?,
            alpha: comm.get("alpha")?.f64()?,
            beta: comm.get("beta")?.f64()?,
        },
        disks: a.get("disks")?.list(|d| {
            Ok(DiskParams {
                o_read: d.get("o_read")?.f64()?,
                o_write: d.get("o_write")?.f64()?,
                read_ns_per_byte: d.get("read_ns_per_byte")?.f64()?,
                write_ns_per_byte: d.get("write_ns_per_byte")?.f64()?,
            })
        })?,
        memory_bytes: a.get("memory_bytes")?.list(|m| m.uint())?,
    };
    let p = root.get("profile")?;
    let nodes: Vec<Field> = p.get("nodes")?.list(Ok)?;
    // The model indexes the profile by position, so `nodes[i]` must be
    // rank `i`: a permuted file would hand one rank another's measurements.
    let nodes = nodes.into_iter().enumerate().map(|(position, f)| {
        let rank = f.get("rank")?;
        if rank.uint::<usize>()? != position {
            return Err(rank.expected(&format!("{position}, the node's position")));
        }
        Ok(NodeProfile {
            rank: position,
            compute_ns_per_row: pairs(f.get("compute_ns_per_row")?, scope, |v| v.f64())?,
            read_ns_per_elem: pairs(f.get("read_ns_per_elem")?, |k| k.uint(), |v| v.f64())?,
            write_ns_per_elem: pairs(f.get("write_ns_per_elem")?, |k| k.uint(), |v| v.f64())?,
            section_send_bytes: pairs(f.get("section_send_bytes")?, |k| k.uint(), |v| v.uint())?,
        })
    });
    let profile = InstrumentedProfile {
        nodes: nodes.collect::<Result<_>>()?,
        rows: p.get("rows")?.list(|r| r.uint())?,
    };
    Mheta::new(structure, arch, profile)
}

/// A value of the parsed document and its path from the root `$`, e.g.
/// `$.profile.nodes[2].compute_ns_per_row[0][1]`, which errors name.
struct Field<'a> {
    value: &'a Value,
    path: String,
}

impl<'a> Field<'a> {
    fn expected(&self, what: &str) -> ModelError {
        ModelError::File(format!("{}: expected {what}", self.path))
    }

    fn want<T>(&self, v: Option<T>, what: &str) -> Result<T> {
        v.ok_or_else(|| self.expected(what))
    }

    /// The member `key` of this object; unknown keys are never looked at.
    fn get(&self, key: &str) -> Result<Field<'a>> {
        let path = format!("{}.{key}", self.path);
        match (self.value, self.value.get(key)) {
            (Value::Object(_), Some(value)) => Ok(Field { value, path }),
            (Value::Object(_), None) => Err(ModelError::File(format!("{path}: missing"))),
            _ => Err(self.expected("an object")),
        }
    }

    /// Every element of this array through `read`.
    fn list<T, C: FromIterator<T>>(&self, read: impl Fn(Field<'a>) -> Result<T>) -> Result<C> {
        let items = self.want(self.value.as_array(), "an array")?;
        let read = |(i, value)| {
            let path = format!("{}[{i}]", self.path);
            read(Field { value, path })
        };
        items.iter().enumerate().map(read).collect()
    }

    fn f64(&self) -> Result<f64> {
        self.want(self.value.as_f64(), "a number (NaN and ±∞ save as null)")
    }

    fn uint<T: TryFrom<u64>>(&self) -> Result<T> {
        let v = self.value.as_u64().and_then(|v| T::try_from(v).ok());
        self.want(v, "an unsigned integer in range")
    }

    fn bool(&self) -> Result<bool> {
        self.want(self.value.as_bool(), "true or false")
    }

    fn string(&self) -> Result<String> {
        Ok(self.want(self.value.as_str(), "a string")?.into())
    }
}

/// A [`CommPattern`] as its derive writes it: `"None"`, or one variant's
/// object such as `{"Pipelined": {"msg_elems": 33}}`.
fn comm(f: Field) -> Result<CommPattern> {
    let msg_elems = |variant| f.get(variant)?.get("msg_elems")?.uint();
    if f.value.as_str() == Some("None") {
        Ok(CommPattern::None)
    } else if f.value.get("NearestNeighbor").is_some() {
        msg_elems("NearestNeighbor").map(|msg_elems| CommPattern::NearestNeighbor { msg_elems })
    } else if f.value.get("Pipelined").is_some() {
        msg_elems("Pipelined").map(|msg_elems| CommPattern::Pipelined { msg_elems })
    } else if f.value.get("Reduction").is_some() {
        msg_elems("Reduction").map(|msg_elems| CommPattern::Reduction { msg_elems })
    } else {
        Err(f.expected("None, NearestNeighbor, Pipelined or Reduction"))
    }
}

/// A hash map from its `[key, value]` pairs.
fn pairs<K: Eq + Hash, V>(f: Field, key: Reader<K>, value: Reader<V>) -> Result<HashMap<K, V>> {
    f.list(|pair| {
        let kv = <[Field; 2]>::try_from(pair.list::<_, Vec<_>>(Ok)?);
        let [k, v] = kv.map_err(|_| pair.expected("a [key, value] pair"))?;
        Ok((key(k)?, value(v)?))
    })
}

fn scope(f: Field) -> Result<Scope> {
    Ok(Scope {
        section: f.get("section")?.uint()?,
        tile: f.get("tile")?.uint()?,
        stage: f.get("stage")?.uint()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> Mheta {
        let structure = ProgramStructure {
            name: "demo \"quoted\" # not a comment".into(),
            sections: vec![
                SectionSpec {
                    id: 0,
                    tiles: 4,
                    stages: vec![StageSpec::new(0, vec![1], vec![1], true).with_row_fraction(0.25)],
                    comm: CommPattern::Pipelined { msg_elems: 33 },
                },
                SectionSpec {
                    id: 1,
                    tiles: 1,
                    stages: vec![],
                    comm: CommPattern::None,
                },
            ],
            variables: vec![
                Variable::streamed(1, "DP matrix", 128, 0.1 + 0.2, false),
                Variable::replicated(2, "p", 512),
            ],
        };
        // Measured: every parameter a long, non-round `f64`.
        let arch = crate::measure_arch(&mheta_sim::ClusterSpec::homogeneous(2)).unwrap();
        let mut nodes = vec![NodeProfile::default(), NodeProfile::default()];
        nodes[1].rank = 1;
        for (tile, v) in [(2, 1e-7), (0, 0.1 + 0.2), (3, 123.456)] {
            let scope = Scope {
                tile,
                ..Scope::default()
            };
            nodes[0].compute_ns_per_row.insert(scope, v);
        }
        nodes[0].read_ns_per_elem.extend([(2, 0.333), (1, 7.0)]);
        nodes[1].write_ns_per_elem.insert(1, 0.444);
        nodes[1].section_send_bytes.insert(0, 1536);
        let profile = InstrumentedProfile {
            nodes,
            rows: vec![60, 68],
        };
        Mheta::new(structure, arch, profile).unwrap()
    }

    fn load_error(text: &str) -> String {
        match load_model(text) {
            Err(e @ ModelError::File(_)) => e.to_string(),
            Err(e) => panic!("not a file error: {e}"),
            Ok(_) => panic!("the file loaded"),
        }
    }

    /// The sample's file with the first `from` replaced by `to` is
    /// refused with an error containing `want`.
    fn assert_rejects(from: &str, to: &str, want: &str) {
        let text = save_model(&sample_model());
        assert!(text.contains(from), "{from}");
        let msg = load_error(&text.replacen(from, to, 1));
        assert!(msg.contains(want), "{from} -> {to}: {msg}");
    }

    #[test]
    fn structure_round_trips_exactly() {
        let model = sample_model();
        let text = save_model(&model);
        let back = load_model(&text).unwrap();
        assert_eq!(back.structure(), model.structure());
        // Including the non-representable-in-decimal f64 0.1+0.2.
        assert_eq!(back.structure().variables[0].elems_per_row, 0.1 + 0.2);
        assert_eq!(save_model(&back), text, "save ∘ load is a fixed point");
    }

    #[test]
    fn arch_round_trips_exactly() {
        let model = sample_model();
        let back = load_model(&save_model(&model)).unwrap();
        assert_eq!(back.arch(), model.arch());
    }

    #[test]
    fn profile_round_trips() {
        let model = sample_model();
        let back = load_model(&save_model(&model)).unwrap();
        assert_eq!(back.profile(), model.profile());
    }

    #[test]
    fn truncated_document_names_its_byte_offset() {
        let text = save_model(&sample_model());
        // Cut just before the "arch" member, as an interrupted write
        // would: the parser runs out of input at the cut.
        let cut = text.find("\"arch\"").unwrap();
        let msg = load_error(&text[..cut]);
        assert!(msg.contains(&format!("byte {cut}")), "{msg}");
    }

    #[test]
    fn foreign_or_missing_schema_is_rejected() {
        assert_rejects(SCHEMA, "mheta-model/v0", "$.schema: expected");
        assert_rejects("\"schema\"", "\"format\"", "$.schema: missing");
        assert!(load_error("[]").contains("$: expected an object"));
    }

    #[test]
    fn null_where_a_number_belongs_names_the_path() {
        // The model accepts non-finite inputs; its file carries them as
        // `null`, which no number field takes back.
        let model = sample_model();
        let mut profile = model.profile().clone();
        let scope = Scope::default();
        profile.nodes[1].compute_ns_per_row.insert(scope, f64::NAN);
        let (s, a) = (model.structure().clone(), model.arch().clone());
        let msg = load_error(&save_model(&Mheta::new(s, a, profile).unwrap()));
        let want = "$.profile.nodes[1].compute_ns_per_row[0][1]: expected a number";
        assert!(msg.contains(want), "{msg}");
    }

    #[test]
    fn wrong_types_and_missing_fields_name_the_path() {
        let s0 = "$.structure.sections[0]";
        let stage = format!("{s0}.stages[0]");
        assert_rejects("\"prefetch\": true", "\"prefetch\": 1", &stage);
        let id = format!("{stage}.reads[0]: expected an unsigned");
        assert_rejects("\"reads\": [", "\"reads\": [-1, ", &id);
        let tiles = format!("{s0}.tiles: missing");
        assert_rejects("\"tiles\": 4,", "", &tiles);
        let comm = format!("{s0}.comm: expected None");
        assert_rejects("\"Pipelined\"", "\"Streamed\"", &comm);
        let object = "$.structure.sections[1].stages[0]: expected an object";
        assert_rejects("\"stages\": [],", "\"stages\": [7],", object);
        let pair = "$.profile.nodes[0].read_ns_per_elem[0]: expected a [key, value] pair";
        assert_rejects("elem\": [", "elem\": [[1],", pair);
    }

    #[test]
    fn permuted_profile_ranks_are_rejected() {
        let want = "$.profile.nodes[0].rank: expected 0, the node's position";
        assert_rejects("\"rank\": 0", "\"rank\": 1", want);
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let model = sample_model();
        let text = save_model(&model);
        let extended = text
            .replacen('{', "{\n  \"future_extension\": [1, {\"x\": null}],", 1)
            .replacen("\"tiles\": 4", "\"note\": \"\", \"tiles\": 4", 1);
        let back = load_model(&extended).unwrap();
        assert_eq!(back.structure(), model.structure());
        assert_eq!(save_model(&back), text);
    }
}
