//! Golden JSON renderings of the serde shim's writer.
//!
//! The expected strings were captured from the earlier serializer, which
//! built a `serde::Value` tree and rendered it; the direct writer must
//! reproduce them byte for byte, in both the pretty and the compact form.
//! The cases are the ones where a streaming writer can drift from a tree
//! renderer: empty containers, skipped fields, every enum variant shape,
//! maps as `[key, value]` pairs, string escapes, float and integer edge
//! values, and a nested joint cluster node of the published forest.

use disassociation::{Cluster, ClusterNode, JointCluster, RecordChunk, SharedChunk, TermChunk};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use transact::{Record, TermId};

#[derive(Serialize)]
struct WithSkip {
    kept: u32,
    #[serde(skip)]
    #[allow(dead_code)]
    skipped: Vec<u32>,
    tail: Vec<u32>,
}

#[derive(Serialize)]
struct OnlySkipped {
    #[serde(skip)]
    #[allow(dead_code)]
    hidden: u32,
}

#[derive(Serialize)]
struct Newtype(u64);

#[derive(Serialize)]
struct Pair(u8, String);

#[derive(Serialize)]
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

/// `write_pretty_at` at element depth 2 is what `JsonChunksSink` writes for
/// each top-level cluster node: the standalone rendering, re-indented by
/// four spaces.
#[test]
fn depth_two_rendering_is_the_reindented_pretty_form() {
    let (_, pretty, _) = GOLDEN
        .iter()
        .find(|(name, _, _)| *name == "joint_cluster_node")
        .expect("the joint node case exists");
    let mut out = Vec::new();
    serde_json::write_pretty_at(&mut out, &joint_node(), 2);
    assert_eq!(
        String::from_utf8(out).unwrap(),
        pretty.replace('\n', "\n    ")
    );
}
