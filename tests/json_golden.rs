//! Golden JSON renderings of the serde shim's writer, and their decoding.
//!
//! The expected strings were captured from the earlier serializer, which
//! built a `serde::Value` tree and rendered it; the direct writer must
//! reproduce them byte for byte, in both the pretty and the compact form.
//! The cases are the ones where a streaming writer can drift from a tree
//! renderer: empty containers, skipped fields, every enum variant shape,
//! maps as `[key, value]` pairs, string escapes, float and integer edge
//! values, and a nested joint cluster node of the published forest.
//!
//! The same strings pin the pull decoder: each decodes back to its value
//! from both forms, every proper prefix of a publication is an "unexpected
//! end" error (never a panic, wherever the cut falls), and `from_slice` agrees with `from_str` on a real publication.

use datagen::{QuestConfig, QuestGenerator};
use disassociation::pipeline::{DatasetSource, JsonChunksSink, Pipeline};
use disassociation::{
    Cluster, ClusterNode, DisassociatedDataset, DisassociationConfig, Disassociator, JointCluster,
    RecordChunk, SharedChunk, TermChunk,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use transact::{Record, TermId};

#[derive(Debug, Serialize, Deserialize)]
struct WithSkip {
    kept: u32,
    #[serde(skip)]
    #[allow(dead_code)]
    skipped: Vec<u32>,
    tail: Vec<u32>,
}

#[derive(Debug, Serialize, Deserialize)]
struct OnlySkipped {
    #[serde(skip)]
    #[allow(dead_code)]
    hidden: u32,
}

#[derive(Debug, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Serialize, Deserialize)]
#[allow(dead_code)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(u32, String),
    Struct {
        x: i32,
        #[serde(skip)]
        hidden: u32,
        ys: Vec<u8>,
    },
    EmptyStruct {},
}

fn ids(ids: &[u32]) -> Vec<TermId> {
    ids.iter().map(|&i| TermId::new(i)).collect()
}

fn record(ids_: &[u32]) -> Record {
    Record::from_ids(ids(ids_))
}

fn simple(size: usize, domain: &[u32], subrecords: &[&[u32]], terms: &[u32]) -> ClusterNode {
    ClusterNode::Simple(Cluster {
        size,
        record_chunks: vec![RecordChunk::new(
            ids(domain),
            subrecords.iter().map(|r| record(r)).collect(),
        )],
        term_chunk: TermChunk::new(ids(terms)),
    })
}

fn joint_node() -> ClusterNode {
    let inner = ClusterNode::Joint(JointCluster {
        children: vec![
            simple(3, &[1, 2], &[&[1, 2], &[1]], &[9]),
            simple(3, &[4], &[&[4], &[4], &[4]], &[]),
        ],
        shared_chunks: vec![SharedChunk {
            chunk: RecordChunk::new(ids(&[7]), vec![record(&[7]), record(&[7]), record(&[7])]),
            requires_k_anonymity: true,
        }],
    });
    ClusterNode::Joint(JointCluster {
        children: vec![inner, simple(3, &[], &[], &[5, 6])],
        shared_chunks: vec![],
    })
}

/// `(name, pretty, compact)` renderings of every golden case.
fn cases() -> Vec<(&'static str, String, String)> {
    let mut out = Vec::new();
    macro_rules! case {
        ($name:expr, $value:expr) => {{
            let value = $value;
            out.push((
                $name,
                serde_json::to_string_pretty(&value).unwrap(),
                serde_json::to_string(&value).unwrap(),
            ));
        }};
    }
    case!("empty_array", Vec::<u32>::new());
    case!("empty_object", Value::Object(vec![]));
    case!("only_skipped_fields", OnlySkipped { hidden: 1 });
    case!(
        "skip_field",
        WithSkip {
            kept: 7,
            skipped: vec![1, 2],
            tail: vec![3, 4]
        }
    );
    case!("newtype_struct", Newtype(42));
    case!("tuple_struct", Pair(3, "three".to_string()));
    case!("unit_variant", Shape::Unit);
    case!("newtype_variant", Shape::Newtype(5));
    case!("tuple_variant", Shape::Tuple(6, "six".to_string()));
    case!(
        "struct_variant",
        Shape::Struct {
            x: -3,
            hidden: 9,
            ys: vec![]
        }
    );
    case!("empty_struct_variant", Shape::EmptyStruct {});
    case!(
        "btreemap_u32",
        BTreeMap::from([(3u32, "three".to_string()), (7, "seven".to_string())])
    );
    case!("empty_btreemap", BTreeMap::<u32, Vec<u32>>::new());
    case!(
        "escapes",
        "q\"b\\s/\n\r\t\u{1f}\u{8}\u{c}\u{0}\u{7f}é😀".to_string()
    );
    case!("char", 'é');
    case!(
        "floats",
        vec![
            1.0f64,
            1e300,
            f64::NAN,
            f64::INFINITY,
            -0.0,
            0.5,
            1e-7,
            -2.25
        ]
    );
    case!("f32", 0.1f32);
    case!("u64_max", u64::MAX);
    case!("i64_min", i64::MIN);
    case!("small_ints", (0usize, -1i8, 255u8, (i32::MAX, isize::MIN)));
    case!("option", vec![None, Some(1u16)]);
    case!("unit", ());
    case!("bool", (true, false));
    case!(
        "value_tree",
        Value::Array(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(u64::MAX as i128),
            Value::Int(-(1i128 << 100)),
            Value::Float(2.0),
            Value::Str("s".to_string()),
            Value::Object(vec![
                ("a".to_string(), Value::Array(vec![])),
                (
                    "b".to_string(),
                    Value::Object(vec![("c".to_string(), Value::Int(1))])
                ),
            ]),
        ])
    );
    case!("joint_cluster_node", joint_node());
    out
}

/// `(name, pretty, compact)` expected renderings.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("empty_array", r##"[]"##, r##"[]"##),
    ("empty_object", r##"{}"##, r##"{}"##),
    ("only_skipped_fields", r##"{}"##, r##"{}"##),
    (
        "skip_field",
        r##"{
  "kept": 7,
  "tail": [
    3,
    4
  ]
}"##,
        r##"{"kept":7,"tail":[3,4]}"##,
    ),
    ("newtype_struct", r##"42"##, r##"42"##),
    (
        "tuple_struct",
        r##"[
  3,
  "three"
]"##,
        r##"[3,"three"]"##,
    ),
    ("unit_variant", r##""Unit""##, r##""Unit""##),
    (
        "newtype_variant",
        r##"{
  "Newtype": 5
}"##,
        r##"{"Newtype":5}"##,
    ),
    (
        "tuple_variant",
        r##"{
  "Tuple": [
    6,
    "six"
  ]
}"##,
        r##"{"Tuple":[6,"six"]}"##,
    ),
    (
        "struct_variant",
        r##"{
  "Struct": {
    "x": -3,
    "ys": []
  }
}"##,
        r##"{"Struct":{"x":-3,"ys":[]}}"##,
    ),
    (
        "empty_struct_variant",
        r##"{
  "EmptyStruct": {}
}"##,
        r##"{"EmptyStruct":{}}"##,
    ),
    (
        "btreemap_u32",
        r##"[
  [
    3,
    "three"
  ],
  [
    7,
    "seven"
  ]
]"##,
        r##"[[3,"three"],[7,"seven"]]"##,
    ),
    ("empty_btreemap", r##"[]"##, r##"[]"##),
    (
        "escapes",
        "\"q\\\"b\\\\s/\\n\\r\\t\\u001f\\u0008\\u000c\\u0000\u{7f}é😀\"",
        "\"q\\\"b\\\\s/\\n\\r\\t\\u001f\\u0008\\u000c\\u0000\u{7f}é😀\"",
    ),
    ("char", r##""é""##, r##""é""##),
    (
        "floats",
        r##"[
  1.0,
  1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,
  null,
  null,
  -0.0,
  0.5,
  0.0000001,
  -2.25
]"##,
        r##"[1.0,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0,null,null,-0.0,0.5,0.0000001,-2.25]"##,
    ),
    (
        "f32",
        r##"0.10000000149011612"##,
        r##"0.10000000149011612"##,
    ),
    (
        "u64_max",
        r##"18446744073709551615"##,
        r##"18446744073709551615"##,
    ),
    (
        "i64_min",
        r##"-9223372036854775808"##,
        r##"-9223372036854775808"##,
    ),
    (
        "small_ints",
        r##"[
  0,
  -1,
  255,
  [
    2147483647,
    -9223372036854775808
  ]
]"##,
        r##"[0,-1,255,[2147483647,-9223372036854775808]]"##,
    ),
    (
        "option",
        r##"[
  null,
  1
]"##,
        r##"[null,1]"##,
    ),
    ("unit", r##"null"##, r##"null"##),
    (
        "bool",
        r##"[
  true,
  false
]"##,
        r##"[true,false]"##,
    ),
    (
        "value_tree",
        r##"[
  null,
  true,
  18446744073709551615,
  -1267650600228229401496703205376,
  2.0,
  "s",
  {
    "a": [],
    "b": {
      "c": 1
    }
  }
]"##,
        r##"[null,true,18446744073709551615,-1267650600228229401496703205376,2.0,"s",{"a":[],"b":{"c":1}}]"##,
    ),
    (
        "joint_cluster_node",
        r##"{
  "Joint": {
    "children": [
      {
        "Joint": {
          "children": [
            {
              "Simple": {
                "size": 3,
                "record_chunks": [
                  {
                    "domain": [
                      1,
                      2
                    ],
                    "subrecords": [
                      {
                        "terms": [
                          1,
                          2
                        ]
                      },
                      {
                        "terms": [
                          1
                        ]
                      }
                    ]
                  }
                ],
                "term_chunk": {
                  "terms": [
                    9
                  ]
                }
              }
            },
            {
              "Simple": {
                "size": 3,
                "record_chunks": [
                  {
                    "domain": [
                      4
                    ],
                    "subrecords": [
                      {
                        "terms": [
                          4
                        ]
                      },
                      {
                        "terms": [
                          4
                        ]
                      },
                      {
                        "terms": [
                          4
                        ]
                      }
                    ]
                  }
                ],
                "term_chunk": {
                  "terms": []
                }
              }
            }
          ],
          "shared_chunks": [
            {
              "chunk": {
                "domain": [
                  7
                ],
                "subrecords": [
                  {
                    "terms": [
                      7
                    ]
                  },
                  {
                    "terms": [
                      7
                    ]
                  },
                  {
                    "terms": [
                      7
                    ]
                  }
                ]
              },
              "requires_k_anonymity": true
            }
          ]
        }
      },
      {
        "Simple": {
          "size": 3,
          "record_chunks": [
            {
              "domain": [],
              "subrecords": []
            }
          ],
          "term_chunk": {
            "terms": [
              5,
              6
            ]
          }
        }
      }
    ],
    "shared_chunks": []
  }
}"##,
        r##"{"Joint":{"children":[{"Joint":{"children":[{"Simple":{"size":3,"record_chunks":[{"domain":[1,2],"subrecords":[{"terms":[1,2]},{"terms":[1]}]}],"term_chunk":{"terms":[9]}}},{"Simple":{"size":3,"record_chunks":[{"domain":[4],"subrecords":[{"terms":[4]},{"terms":[4]},{"terms":[4]}]}],"term_chunk":{"terms":[]}}}],"shared_chunks":[{"chunk":{"domain":[7],"subrecords":[{"terms":[7]},{"terms":[7]},{"terms":[7]}]},"requires_k_anonymity":true}]}},{"Simple":{"size":3,"record_chunks":[{"domain":[],"subrecords":[]}],"term_chunk":{"terms":[5,6]}}}],"shared_chunks":[]}}"##,
    ),
];

#[test]
fn writer_output_matches_the_golden_strings() {
    let actual = cases();
    assert_eq!(actual.len(), GOLDEN.len());
    for ((name, pretty, compact), &(golden_name, golden_pretty, golden_compact)) in
        actual.iter().zip(GOLDEN)
    {
        assert_eq!(*name, golden_name);
        assert_eq!(pretty, golden_pretty, "pretty rendering of `{name}`");
        assert_eq!(compact, golden_compact, "compact rendering of `{name}`");
    }
}

/// Decodes a golden text of case `name` as `T` and compares its `Debug`
/// rendering with `expected`'s (so a NaN matches a NaN).
fn assert_decodes<T: Deserialize + std::fmt::Debug>(name: &str, expected: T) {
    let (_, pretty, compact) = GOLDEN
        .iter()
        .find(|(golden, _, _)| *golden == name)
        .unwrap_or_else(|| panic!("no golden case `{name}`"));
    for text in [pretty, compact] {
        let back: T = serde_json::from_str(text).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{expected:?}"),
            "`{name}` from {text}"
        );
    }
}

#[test]
fn every_golden_case_decodes_back_to_its_value_from_both_forms() {
    let mut decoded = Vec::new();
    macro_rules! decodes {
        ($name:expr, $value:expr) => {{
            assert_decodes($name, $value);
            decoded.push($name);
        }};
    }
    decodes!("empty_array", Vec::<u32>::new());
    decodes!("empty_object", Value::Object(vec![]));
    // Skipped fields are not written, so they decode to their default.
    decodes!("only_skipped_fields", OnlySkipped { hidden: 0 });
    decodes!(
        "skip_field",
        WithSkip {
            kept: 7,
            skipped: vec![],
            tail: vec![3, 4]
        }
    );
    decodes!("newtype_struct", Newtype(42));
    decodes!("tuple_struct", Pair(3, "three".to_string()));
    decodes!("unit_variant", Shape::Unit);
    decodes!("newtype_variant", Shape::Newtype(5));
    decodes!("tuple_variant", Shape::Tuple(6, "six".to_string()));
    decodes!(
        "struct_variant",
        Shape::Struct {
            x: -3,
            hidden: 0,
            ys: vec![]
        }
    );
    decodes!("empty_struct_variant", Shape::EmptyStruct {});
    decodes!(
        "btreemap_u32",
        BTreeMap::from([(3u32, "three".to_string()), (7, "seven".to_string())])
    );
    decodes!("empty_btreemap", BTreeMap::<u32, Vec<u32>>::new());
    decodes!(
        "escapes",
        "q\"b\\s/\n\r\t\u{1f}\u{8}\u{c}\u{0}\u{7f}é😀".to_string()
    );
    decodes!("char", 'é');
    // Non-finite floats are written as `null`, which decodes to NaN.
    decodes!(
        "floats",
        vec![1.0f64, 1e300, f64::NAN, f64::NAN, -0.0, 0.5, 1e-7, -2.25]
    );
    decodes!("f32", 0.1f32);
    decodes!("u64_max", u64::MAX);
    decodes!("i64_min", i64::MIN);
    decodes!("small_ints", (0usize, -1i8, 255u8, (i32::MAX, isize::MIN)));
    decodes!("option", vec![None, Some(1u16)]);
    decodes!("unit", ());
    decodes!("bool", (true, false));
    decodes!(
        "value_tree",
        Value::Array(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(u64::MAX as i128),
            Value::Int(-(1i128 << 100)),
            Value::Float(2.0),
            Value::Str("s".to_string()),
            Value::Object(vec![
                ("a".to_string(), Value::Array(vec![])),
                (
                    "b".to_string(),
                    Value::Object(vec![("c".to_string(), Value::Int(1))])
                ),
            ]),
        ])
    );
    decodes!("joint_cluster_node", joint_node());
    let golden: Vec<&str> = GOLDEN.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(decoded, golden, "every golden case is decoded");
}

fn small_publication() -> DisassociatedDataset {
    let dataset = QuestGenerator::generate_with(QuestConfig {
        num_transactions: 40,
        domain_size: 30,
        avg_transaction_len: 4.0,
        seed: 3,
        ..QuestConfig::default()
    });
    let config = DisassociationConfig {
        k: 3,
        m: 2,
        ..Default::default()
    };
    Disassociator::try_new(config)
        .expect("valid disassociation configuration")
        .anonymize(&dataset)
        .dataset
}

#[test]
fn every_proper_prefix_of_a_publication_is_an_error() {
    let published = small_publication();
    assert!(!published.clusters.is_empty());
    for text in [
        serde_json::to_vec_pretty(&published).unwrap(),
        serde_json::to_vec(&published).unwrap(),
    ] {
        assert_eq!(
            serde_json::from_slice::<DisassociatedDataset>(&text).unwrap(),
            published
        );
        for end in 0..text.len() {
            let prefix = serde_json::from_slice::<DisassociatedDataset>(&text[..end]);
            let message = prefix.expect_err(&format!("a {end}-byte prefix decoded"));
            assert!(
                message
                    .to_string()
                    .ends_with(&format!("unexpected end of JSON input at byte {end}")),
                "a {end}-byte prefix: {message}"
            );
        }
    }
}

#[test]
fn from_slice_equals_from_str_on_a_published_file() {
    let dataset = QuestGenerator::generate_with(QuestConfig {
        num_transactions: 600,
        domain_size: 150,
        avg_transaction_len: 6.0,
        seed: 5,
        ..QuestConfig::default()
    });
    let config = DisassociationConfig {
        k: 4,
        m: 2,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!(
        "json_golden_publication_{}.chunks.json",
        std::process::id()
    ));
    let mut sink = JsonChunksSink::create(&path, &config).unwrap();
    Pipeline::new(config)
        .source(&mut DatasetSource::new(&dataset, 128))
        .sink(&mut sink)
        .run()
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let from_slice: DisassociatedDataset = serde_json::from_slice(&bytes).unwrap();
    let from_str: DisassociatedDataset =
        serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(from_slice, from_str);
    assert_eq!(from_slice.total_records(), dataset.len());
}
