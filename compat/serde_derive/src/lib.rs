//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! data shapes this workspace actually uses, without depending on
//! `syn`/`quote` (unavailable offline). The derives target the vendored
//! `serde` shim's streaming model: `Serialize::serialize` writes JSON text
//! into a `serde::Writer` (each run of keys and punctuation as one literal)
//! and `Deserialize::deserialize` reads fields straight off a
//! `serde::Reader` (in any order, unknown keys skipped, a missing
//! non-`skip` field an error).
//!
//! Supported shapes:
//! - structs with named fields (`#[serde(skip)]` per field);
//! - tuple structs (1 field ⇒ newtype, serialized as the inner value;
//!   n ≥ 2 ⇒ array) and `#[serde(transparent)]`;
//! - unit structs;
//! - enums with unit, tuple, and struct variants (externally tagged, like
//!   upstream serde), including recursive ones.
//!
//! Generic types are intentionally unsupported — the workspace has none.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the vendored `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("derive(Serialize): generated code parses")
}

/// Derive the vendored `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().expect("derive(Deserialize): generated code parses")
}

// ---------------------------------------------------------------------------
// Item model + parser
// ---------------------------------------------------------------------------

struct NamedField {
    name: String,
    skip: bool,
}

/// The fields of a struct body or an enum variant.
enum Shape {
    Named(Vec<NamedField>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    transparent: bool,
    body: Body,
}

/// True if the attribute token stream is `serde(...)` containing the word.
fn serde_attr_contains(attr: &[TokenTree], word: &str) -> bool {
    let mut it = attr.iter();
    match (it.next(), it.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis =>
        {
            g.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(w) if w.to_string() == word))
        }
        _ => false,
    }
}

/// Consume leading `#[...]` attributes starting at `*i`; return their token
/// streams.
fn take_attrs(trees: &[TokenTree], i: &mut usize) -> Vec<Vec<TokenTree>> {
    let mut attrs = Vec::new();
    while matches!(trees.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        match trees.get(*i + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                attrs.push(g.stream().into_iter().collect());
                *i += 2;
            }
            _ => panic!("derive: malformed attribute"),
        }
    }
    attrs
}

/// Skip `pub`, `pub(crate)`, `pub(in ...)` visibility tokens.
fn skip_visibility(trees: &[TokenTree], i: &mut usize) {
    if matches!(trees.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(trees.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(trees: &[TokenTree], i: &mut usize, what: &str) -> String {
    match trees.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("derive: expected {what}, found {other:?}"),
    }
}

/// Skip tokens until a top-level `,` (angle-bracket aware, for types like
/// `BTreeMap<K, Vec<V>>`). Leaves `*i` past the comma (or at end).
fn skip_past_comma(trees: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(t) = trees.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(group_stream: TokenStream) -> Vec<NamedField> {
    let trees: Vec<TokenTree> = group_stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        let attrs = take_attrs(&trees, &mut i);
        skip_visibility(&trees, &mut i);
        if i >= trees.len() {
            break;
        }
        let name = expect_ident(&trees, &mut i, "field name");
        match trees.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("derive: expected `:` after field {name}, found {other:?}"),
        }
        skip_past_comma(&trees, &mut i);
        let skip = attrs.iter().any(|a| serde_attr_contains(a, "skip"));
        fields.push(NamedField { name, skip });
    }
    fields
}

/// Count top-level comma-separated entries of a tuple-struct/-variant body.
fn count_tuple_fields(group_stream: TokenStream) -> usize {
    let trees: Vec<TokenTree> = group_stream.into_iter().collect();
    let mut n = 0;
    let mut i = 0;
    while i < trees.len() {
        let _ = take_attrs(&trees, &mut i);
        skip_visibility(&trees, &mut i);
        if i >= trees.len() {
            break; // trailing comma
        }
        skip_past_comma(&trees, &mut i);
        n += 1;
    }
    n
}

fn parse_variants(group_stream: TokenStream) -> Vec<Variant> {
    let trees: Vec<TokenTree> = group_stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        let _attrs = take_attrs(&trees, &mut i);
        if i >= trees.len() {
            break;
        }
        let name = expect_ident(&trees, &mut i, "variant name");
        let shape = parse_shape(trees.get(i));
        i += usize::from(!matches!(shape, Shape::Unit));
        variants.push(Variant { name, shape });
        // Skip an optional discriminant and the separating comma.
        skip_past_comma(&trees, &mut i);
    }
    variants
}

/// The fields in a `{..}` or `(..)` group; anything else is a unit shape.
fn parse_shape(tree: Option<&TokenTree>) -> Shape {
    match tree {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(count_tuple_fields(g.stream()))
        }
        _ => Shape::Unit,
    }
}

fn parse_item(input: TokenStream) -> Item {
    let trees: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let container_attrs = take_attrs(&trees, &mut i);
    let transparent = container_attrs.iter().any(|a| serde_attr_contains(a, "transparent"));
    skip_visibility(&trees, &mut i);
    let kw = expect_ident(&trees, &mut i, "`struct` or `enum`");
    let name = expect_ident(&trees, &mut i, "item name");
    if matches!(trees.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive: generic type {name} is not supported by the vendored serde_derive");
    }
    let body = match kw.as_str() {
        "struct" => Body::Struct(parse_shape(trees.get(i))),
        "enum" => match trees.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("derive: malformed enum {name}: {other:?}"),
        },
        other => panic!("derive: expected struct or enum, found `{other}`"),
    };
    Item { name, transparent, body }
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// Statements writing a struct body or variant payload: named fields as an
/// object (declaration order, `skip` fields left out), one positional field
/// as its bare value, several as an array, none as `null`. `access` names
/// a field's value by its name or position.
fn ser_shape(shape: &Shape, access: impl Fn(&str) -> String) -> String {
    let val = |f: &str| format!("::serde::Serialize::serialize({}, w);\n", access(f));
    match shape {
        Shape::Unit => "w.raw(\"null\");\n".to_string(),
        Shape::Tuple(1) => val("0"),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n).map(|k| val(&k.to_string())).collect();
            format!("w.raw(\"[\");\n{}w.raw(\"]\");\n", items.join("w.raw(\",\");\n"))
        }
        Shape::Named(fields) => {
            // Each key is written together with the punctuation before it.
            let (mut code, mut open) = (String::new(), "{");
            for f in fields.iter().filter(|f| !f.skip) {
                let key = format!("{open}{:?}:", f.name);
                code.push_str(&format!("w.raw({key:?});\n{}", val(&f.name)));
                open = ",";
            }
            code + &format!("w.raw({:?});\n", if open == "{" { "{}" } else { "}" })
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) if item.transparent => {
            let only: Vec<&NamedField> = fields.iter().filter(|f| !f.skip).collect();
            assert!(only.len() == 1, "serde(transparent) needs exactly one field");
            format!("::serde::Serialize::serialize(&self.{}, w);", only[0].name)
        }
        Body::Struct(shape) => ser_shape(shape, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            // Externally tagged: a unit variant as its name, any other as
            // `{"Name":payload}`; the payload's fields are bound as `f_*`.
            let mut arms = String::new();
            for Variant { name: vn, shape } in variants {
                let (pat, code) = match shape {
                    Shape::Unit => (String::new(), format!("w.raw({:?});\n", format!("{vn:?}"))),
                    _ => (
                        bindings(shape),
                        format!(
                            "w.raw({:?});\n{}w.raw(\"}}\");\n",
                            format!("{{{vn:?}:"),
                            ser_shape(shape, |f| format!("f_{f}"))
                        ),
                    ),
                };
                arms.push_str(&format!("{name}::{vn}{pat} => {{\n{code}}}\n"));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, w: &mut ::serde::Writer) {{\n{body}\n}}\n\
         }}\n"
    )
}

/// The pattern binding a variant's written fields as `f_<name or index>`.
fn bindings(shape: &Shape) -> String {
    match shape {
        Shape::Named(fields) => {
            let binds: String = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| format!("{0}: f_{0}, ", f.name))
                .collect();
            format!(" {{ {binds}.. }}")
        }
        Shape::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("f_{k}")).collect();
            format!("({})", binds.join(", "))
        }
        Shape::Unit => String::new(),
    }
}

/// An expression reading a struct body or variant payload into `ctor`.
/// Named fields may come in any order (the first occurrence wins), unknown
/// keys are skipped, a missing non-`skip` field is an error and `skip`
/// fields take their `Default`; a unit shape accepts any value.
fn de_shape(ty: &str, ctor: &str, shape: &Shape) -> String {
    let read = "::serde::Deserialize::deserialize(r)?";
    match shape {
        Shape::Unit => format!("{{\nr.skip()?;\n{ctor}\n}}"),
        Shape::Tuple(1) => format!("{ctor}({read})"),
        Shape::Tuple(n) => {
            let lets: Vec<String> = (0..*n).map(|k| format!("let f{k} = {read};\n")).collect();
            let args: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
            format!(
                "r.tuple(|r| {{\n{}::std::result::Result::Ok({ctor}({}))\n}})?",
                lets.join("r.comma()?;\n"),
                args.join(", ")
            )
        }
        Shape::Named(fields) => {
            let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
            for NamedField { name: n, skip } in fields {
                if *skip {
                    inits.push_str(&format!("{n}: ::std::default::Default::default(),\n"));
                    continue;
                }
                slots.push_str(&format!("let mut f_{n} = ::std::option::Option::None;\n"));
                arms.push_str(&format!(
                    "{n:?} if f_{n}.is_none() => f_{n} = ::std::option::Option::Some(\
                     ::serde::Deserialize::deserialize(r).map_err(|e| e.within({ty:?}, {n:?}))?),\n"
                ));
                inits.push_str(&format!("{n}: r.required(f_{n}, {ty:?}, {n:?})?,\n"));
            }
            format!(
                "{{\n{slots}r.object(|r, key| {{\nmatch key {{\n{arms}_ => r.skip()?,\n}}\n\
                 ::std::result::Result::Ok(())\n}})?;\n{ctor} {{\n{inits}}}\n}}"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Named(fields)) if item.transparent => {
            let inits: String = fields
                .iter()
                .map(|f| match f.skip {
                    true => format!("{}: ::std::default::Default::default(),\n", f.name),
                    false => format!("{}: ::serde::Deserialize::deserialize(r)?,\n", f.name),
                })
                .collect();
            format!("::std::result::Result::Ok({name} {{\n{inits}}})")
        }
        Body::Struct(s) => format!("::std::result::Result::Ok({})", de_shape(name, name, s)),
        Body::Enum(variants) => de_enum(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}

/// Externally tagged: a unit variant is its name as a string, any other
/// variant a single-key object `{"Name": payload}`.
fn de_enum(name: &str, variants: &[Variant]) -> String {
    let (mut units, mut tagged) = (String::new(), String::new());
    for Variant { name: vn, shape } in variants {
        let ctor = format!("{name}::{vn}");
        let (arms, value) = match shape {
            Shape::Unit => (&mut units, ctor),
            _ => (&mut tagged, de_shape(name, &ctor, shape)),
        };
        arms.push_str(&format!("{vn:?} => ::std::result::Result::Ok({value}),\n"));
    }
    let or_unknown = |arms: &str| {
        format!(
            "{arms}other => ::std::result::Result::Err(\
             r.error(::std::format!(\"{name}: unknown variant {{other:?}}\"))),\n"
        )
    };
    let mut body = String::new();
    if !units.is_empty() {
        body.push_str(&format!(
            "if r.peek() == ::std::option::Option::Some(b'\"') {{\n\
             let tag = r.str()?;\n\
             return match &*tag {{\n{}}};\n\
             }}\n",
            or_unknown(&units)
        ));
    }
    if tagged.is_empty() {
        return body + "::std::result::Result::Err(r.expected(\"a variant name\"))";
    }
    let single = format!("r.error(\"{name}: expected a single-key variant object\")");
    body + &format!(
        "let mut out = ::std::option::Option::None;\n\
         r.object(|r, tag| {{\n\
         if out.is_some() {{\nreturn ::std::result::Result::Err({single});\n}}\n\
         out = ::std::option::Option::Some(match tag {{\n{}}}?);\n\
         ::std::result::Result::Ok(())\n\
         }})?;\n\
         out.ok_or_else(|| {single})",
        or_unknown(&tagged)
    )
}
