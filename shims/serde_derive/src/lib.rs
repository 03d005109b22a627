//! Derive macros for the vendored `serde` shim.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the item
//! shapes used in this workspace — named-field structs, tuple structs and
//! enums (unit, newtype, tuple and struct variants) — without depending on
//! `syn`/`quote` (the build environment is offline). The only recognized
//! field attributes are `#[serde(skip)]`, `#[serde(default)]` and
//! `#[serde(deserialize_with = "path")]` (a `fn(&mut serde::JsonReader)
//! -> Result<T, serde::Error>`); anything else is a compile error so that
//! silent divergence from upstream serde semantics cannot creep in.
//!
//! `Serialize` impls write JSON text straight into the shim's
//! `serde::JsonWriter`; `Deserialize` impls pull each field straight out of
//! the shim's `serde::JsonReader`, so no `serde::Value` tree is built on any
//! decode. Serialized forms mirror upstream serde's JSON conventions:
//! structs become objects, newtype structs are transparent, unit enum
//! variants become strings, and data-carrying variants become externally
//! tagged single-field objects. A struct decode ignores unknown fields and
//! rejects a missing or repeated one.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field of a struct or struct variant.
struct Field {
    name: String,
    skip: bool,
    default: bool,
    deserialize_with: Option<String>,
}

/// One parsed enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

/// The parsed derive input.
struct Input {
    name: String,
    kind: InputKind,
}

enum InputKind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Attribute flags recognized on fields.
#[derive(Default)]
struct AttrFlags {
    skip: bool,
    default: bool,
    deserialize_with: Option<String>,
}

/// Consumes leading attributes (`#[...]`) from `tokens[*pos]`, returning the
/// accumulated `#[serde(...)]` flags.
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> AttrFlags {
    let mut flags = AttrFlags::default();
    while *pos + 1 < tokens.len() {
        let is_hash = matches!(&tokens[*pos], TokenTree::Punct(p) if p.as_char() == '#');
        if !is_hash {
            break;
        }
        let TokenTree::Group(group) = &tokens[*pos + 1] else {
            break;
        };
        if group.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if let Some(TokenTree::Ident(head)) = inner.first() {
            if head.to_string() == "serde" {
                let Some(TokenTree::Group(args)) = inner.get(1) else {
                    panic!("malformed #[serde] attribute");
                };
                let mut args = args.stream().into_iter();
                while let Some(arg) = args.next() {
                    match arg {
                        TokenTree::Ident(flag) => match flag.to_string().as_str() {
                            "skip" => flags.skip = true,
                            "default" => flags.default = true,
                            "deserialize_with" => {
                                let path = match (args.next(), args.next()) {
                                    (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                                        if eq.as_char() == '=' =>
                                    {
                                        lit.to_string()
                                    }
                                    _ => panic!("expected #[serde(deserialize_with = \"path\")]"),
                                };
                                flags.deserialize_with = Some(path.trim_matches('"').to_string());
                            }
                            other => panic!(
                                "unsupported #[serde({other})] attribute (the vendored serde \
                                 shim only understands `skip`, `default` and `deserialize_with`)"
                            ),
                        },
                        TokenTree::Punct(p) if p.as_char() == ',' => {}
                        other => panic!("unsupported #[serde] argument: {other}"),
                    }
                }
            }
        }
        *pos += 2;
    }
    flags
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...) if present.
fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(&tokens[*pos], TokenTree::Ident(i) if i.to_string() == "pub") {
        *pos += 1;
        if *pos < tokens.len() {
            if let TokenTree::Group(g) = &tokens[*pos] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

/// Splits a token list on top-level commas. Angle brackets are plain
/// punctuation in token streams, so generic arguments (`HashMap<K, V>`) are
/// tracked by `<`/`>` depth; `->` never appears in the field types of this
/// workspace.
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                _ => {}
            }
        }
        if angle_depth == 0 && matches!(&tt, TokenTree::Punct(p) if p.as_char() == ',') {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        } else {
            current.push(tt);
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parses the fields of a named-field body `{ ... }`.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    split_commas(body.into_iter().collect())
        .into_iter()
        .map(|chunk| {
            let mut pos = 0;
            let flags = take_attrs(&chunk, &mut pos);
            skip_visibility(&chunk, &mut pos);
            let TokenTree::Ident(name) = &chunk[pos] else {
                panic!("expected field name, found {:?}", chunk[pos].to_string());
            };
            Field {
                name: name.to_string(),
                skip: flags.skip,
                default: flags.default,
                deserialize_with: flags.deserialize_with,
            }
        })
        .collect()
}

/// Counts the fields of a tuple body `( ... )`; `#[serde]` attributes on
/// tuple fields are not supported.
fn parse_tuple_arity(body: TokenStream) -> usize {
    split_commas(body.into_iter().collect()).len()
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let _ = take_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    pos += 1;
    let TokenTree::Ident(name) = &tokens[pos] else {
        panic!("expected type name");
    };
    let name = name.to_string();
    pos += 1;

    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("the vendored serde shim cannot derive for generic type `{name}`");
    }

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                kind: InputKind::NamedStruct(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Input {
                name,
                kind: InputKind::TupleStruct(parse_tuple_arity(g.stream())),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Input {
                name,
                kind: InputKind::UnitStruct,
            },
            other => panic!("unsupported struct body: {other:?}"),
        },
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(pos) else {
                panic!("expected enum body");
            };
            let variants = split_commas(g.stream().into_iter().collect())
                .into_iter()
                .map(|chunk| {
                    let mut vpos = 0;
                    let _ = take_attrs(&chunk, &mut vpos);
                    let TokenTree::Ident(vname) = &chunk[vpos] else {
                        panic!("expected variant name");
                    };
                    let kind = match chunk.get(vpos + 1) {
                        None => VariantKind::Unit,
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            VariantKind::Tuple(parse_tuple_arity(g.stream()))
                        }
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                            VariantKind::Struct(parse_named_fields(g.stream()))
                        }
                        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                            // Discriminant (`Variant = 3`): treat as unit.
                            VariantKind::Unit
                        }
                        other => panic!("unsupported variant body: {other:?}"),
                    };
                    Variant {
                        name: vname.to_string(),
                        kind,
                    }
                })
                .collect();
            Input {
                name,
                kind: InputKind::Enum(variants),
            }
        }
        other => panic!("cannot derive serde impls for `{other}` items"),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        InputKind::NamedStruct(fields) => {
            let fields = gen_field_writes(fields, "&self.");
            format!("__w.begin_object();\n{fields}__w.end_object();")
        }
        InputKind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        InputKind::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("__w.element(&self.{i});\n"))
                .collect();
            format!("__w.begin_array();\n{items}__w.end_array();")
        }
        InputKind::UnitStruct => "__w.null();".to_string(),
        InputKind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    // Data-carrying variants: `{"Variant": payload}`.
                    let tagged = |pattern: String, payload: String| {
                        format!(
                            "{name}::{vn}{pattern} => {{\n\
                                 __w.begin_object();\n\
                                 __w.field_with(\"{vn}\", |__w| {{\n{payload}}});\n\
                                 __w.end_object();\n\
                             }}"
                        )
                    };
                    match &v.kind {
                        VariantKind::Unit => format!("{name}::{vn} => __w.str(\"{vn}\"),"),
                        VariantKind::Tuple(1) => tagged(
                            "(__x0)".to_string(),
                            "::serde::Serialize::serialize(__x0, __w);\n".to_string(),
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                            let items: String = binds
                                .iter()
                                .map(|b| format!("__w.element({b});\n"))
                                .collect();
                            tagged(
                                format!("({})", binds.join(", ")),
                                format!("__w.begin_array();\n{items}__w.end_array();\n"),
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds: String = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| format!("{}, ", f.name))
                                .collect();
                            let writes = gen_field_writes(fields, "");
                            tagged(
                                format!(" {{ {binds}.. }}"),
                                format!("__w.begin_object();\n{writes}__w.end_object();\n"),
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{\n{}\n}}", arms.join("\n"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __w: &mut ::serde::JsonWriter<'_>) {{\n{body}\n}}\n\
         }}"
    )
}

/// One `__w.field(..)` call per non-skipped field, reading each field
/// through `{access}{name}`.
fn gen_field_writes(fields: &[Field], access: &str) -> String {
    fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| format!("__w.field(\"{n}\", {access}{n});\n", n = f.name))
        .collect()
}

/// A block that reads a JSON object from `__r` into `{ctor} {{ .. }}`:
/// unknown keys are skipped, a repeated or missing (non-`default`) field is
/// an error naming `type_name`, and skipped fields take their default.
fn gen_object_decode(fields: &[Field], ctor: &str, type_name: &str) -> String {
    let read: Vec<(usize, &Field)> = fields.iter().enumerate().filter(|(_, f)| !f.skip).collect();
    let slots: String = read
        .iter()
        .map(|(i, _)| format!("let mut __f{i} = ::core::option::Option::None;\n"))
        .collect();
    let arms: String = read
        .iter()
        .map(|(i, f)| {
            let n = &f.name;
            let value = match &f.deserialize_with {
                Some(path) => format!("{path}(__r)?"),
                None => "::serde::Deserialize::deserialize(__r)?".to_string(),
            };
            format!(
                "\"{n}\" => {{\n\
                     if __f{i}.is_some() {{\n\
                         return ::core::result::Result::Err(__r.error(\"duplicate field `{n}` of `{type_name}`\"));\n\
                     }}\n\
                     __f{i} = ::core::option::Option::Some({value});\n\
                 }}\n"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let n = &f.name;
            if f.skip {
                format!("{n}: ::core::default::Default::default(),\n")
            } else if f.default {
                format!("{n}: __f{i}.unwrap_or_default(),\n")
            } else {
                format!(
                    "{n}: match __f{i} {{\n\
                         ::core::option::Option::Some(__x) => __x,\n\
                         ::core::option::Option::None => return ::core::result::Result::Err(\
                             __r.error(\"missing field `{n}` of `{type_name}`\")),\n\
                     }},\n"
                )
            }
        })
        .collect();
    format!(
        "{{\n{slots}\
         __r.begin_object()?;\n\
         while let ::core::option::Option::Some(__key) = __r.next_key()? {{\n\
             match &*__key {{\n{arms}_ => __r.skip_value()?,\n}}\n\
         }}\n\
         {ctor} {{\n{inits}}}\n\
         }}"
    )
}

/// A block that reads a JSON array of exactly `n` elements from `__r` into
/// `{ctor}(..)`.
fn gen_tuple_decode(n: usize, ctor: &str) -> String {
    let items: Vec<String> = (0..n)
        .map(|_| format!("__r.element(\"{ctor}\")?"))
        .collect();
    format!(
        "{{\n\
             __r.begin_array()?;\n\
             let __value = {ctor}({items});\n\
             __r.end_array(\"{ctor}\")?;\n\
             __value\n\
         }}",
        items = items.join(", ")
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        InputKind::NamedStruct(fields) => {
            format!("Ok({})", gen_object_decode(fields, name, name))
        }
        InputKind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::deserialize(__r)?))")
        }
        InputKind::TupleStruct(n) => format!("Ok({})", gen_tuple_decode(*n, name)),
        InputKind::UnitStruct => format!("__r.skip_value()?;\nOk({name})"),
        InputKind::Enum(variants) => {
            let unknown =
                format!("::core::result::Result::Err(__r.error(\"unknown variant of `{name}`\"))");
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| format!("\"{vn}\" => Ok({name}::{vn}),\n", vn = v.name))
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let value = match &v.kind {
                        VariantKind::Unit => return None,
                        VariantKind::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::deserialize(__r)?)")
                        }
                        VariantKind::Tuple(n) => gen_tuple_decode(*n, &path),
                        VariantKind::Struct(fields) => gen_object_decode(fields, &path, name),
                    };
                    Some(format!("\"{}\" => {value},\n", v.name))
                })
                .collect();
            // Unit variants are strings; data variants `{"Variant": payload}`.
            let string_arm = format!(
                "::core::option::Option::Some(b'\"') => {{\n\
                     let __tag = __r.string()?;\n\
                     match &*__tag {{\n{unit_arms}_ => {unknown},\n}}\n\
                 }}\n"
            );
            let object_arm = if tagged_arms.is_empty() {
                format!("_ => {unknown},\n")
            } else {
                format!(
                    "_ => {{\n\
                         __r.begin_object()?;\n\
                         let ::core::option::Option::Some(__tag) = __r.next_key()? else {{\n\
                             return {unknown};\n\
                         }};\n\
                         let __value = match &*__tag {{\n{tagged_arms}_ => return {unknown},\n}};\n\
                         if __r.next_key()?.is_some() {{\n\
                             return ::core::result::Result::Err(__r.error(\"expected a single-key object for `{name}`\"));\n\
                         }}\n\
                         Ok(__value)\n\
                     }}\n"
                )
            };
            format!("match __r.peek() {{\n{string_arm}{object_arm}}}")
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(__r: &mut ::serde::JsonReader<'_>) -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
