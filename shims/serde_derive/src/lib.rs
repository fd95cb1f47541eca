//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored
//! serde shim (`shims/serde`).
//!
//! The build environment has no access to crates.io, so this derive is
//! written against `proc_macro` alone — no `syn`, no `quote`. It parses
//! just the shapes this workspace uses: non-generic braced structs and
//! enums whose variants are unit, single-field tuple, or braced.
//!
//! A named field takes real serde's `#[serde(skip_serializing)]` (not
//! written), `#[serde(default)]` (`Default::default()` when the key is
//! missing) and `#[serde(getter = "path")]` (a struct field written as
//! what `path(&self)` returns; read as the field itself); any other
//! `serde` attribute is a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named field and its `#[serde(...)]` flags.
#[derive(Default)]
struct Field {
    name: String,
    skip_serializing: bool,
    default: bool,
    /// The function whose value, for the whole struct, is written for
    /// this field.
    getter: Option<String>,
}

enum Variant {
    Unit(String),
    /// Single unnamed field (e.g. `Scrambled(u64)`).
    Tuple(String),
    /// Named fields (e.g. `CrossSocket { hops: usize }`).
    Struct(String, Vec<Field>),
}

enum Shape {
    Struct(String, Vec<Field>),
    Enum(String, Vec<Variant>),
}

/// Skips attributes and visibility, returning the tokens from the
/// `struct`/`enum` keyword onward.
fn parse_shape(input: TokenStream) -> Shape {
    let mut iter = input.into_iter().peekable();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name, got {other:?}"),
    };
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(_) => continue, // no generics in this workspace
            None => panic!("missing braced body for {name}"),
        }
    };
    match kind.as_str() {
        "struct" => Shape::Struct(name, fields(body)),
        "enum" => Shape::Enum(name, variants(body)),
        other => panic!("cannot derive for {other}"),
    }
}

/// Splits a brace-group stream on top-level commas.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == ',' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(tt),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Field name = the identifier right before the first top-level `:`
/// (after attributes and visibility); its flags come from the
/// `#[serde(...)]` attributes in front of it.
fn fields(stream: TokenStream) -> Vec<Field> {
    split_commas(stream)
        .into_iter()
        .map(|field| {
            let mut out = Field::default();
            for (i, tt) in field.iter().enumerate() {
                match tt {
                    TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket => {
                        serde_flags(g.stream(), &mut out);
                    }
                    TokenTree::Punct(p) if p.as_char() == ':' => {
                        if let Some(TokenTree::Ident(id)) = field.get(i.wrapping_sub(1)) {
                            out.name = id.to_string();
                        }
                        break;
                    }
                    _ => {}
                }
            }
            assert!(!out.name.is_empty(), "named field");
            out
        })
        .collect()
}

/// Sets `field`'s flags from one attribute's bracketed tokens, if the
/// attribute is `serde(...)`.
fn serde_flags(attr: TokenStream, field: &mut Field) {
    let mut iter = attr.into_iter();
    match (iter.next(), iter.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            for arg in split_commas(args.stream()) {
                let arg: String = arg.iter().map(|tt| tt.to_string()).collect();
                match arg.as_str() {
                    "skip_serializing" => field.skip_serializing = true,
                    "default" => field.default = true,
                    other => match other.strip_prefix("getter=") {
                        Some(path) => field.getter = Some(path.trim_matches('"').to_string()),
                        None => panic!("unsupported serde attribute `{other}`"),
                    },
                }
            }
        }
        _ => {}
    }
}

fn variants(stream: TokenStream) -> Vec<Variant> {
    split_commas(stream)
        .into_iter()
        .map(|var| {
            let mut name = None;
            let mut payload = None;
            let mut iter = var.into_iter().peekable();
            while let Some(tt) = iter.next() {
                match tt {
                    TokenTree::Punct(p) if p.as_char() == '#' => {
                        iter.next();
                    }
                    TokenTree::Ident(id) => {
                        name = Some(id.to_string());
                        payload = iter.next();
                        break;
                    }
                    _ => {}
                }
            }
            let name = name.expect("variant name");
            match payload {
                None => Variant::Unit(name),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Variant::Struct(name, fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let n = split_commas(g.stream()).len();
                    assert_eq!(n, 1, "only single-field tuple variants are supported");
                    Variant::Tuple(name)
                }
                other => panic!("unsupported variant payload {other:?}"),
            }
        })
        .collect()
}

/// `__w.object(..)` writing `fields` but those marked
/// `skip_serializing`, each value expression produced by `access`
/// (already a reference). A key is an identifier, which needs no
/// escape, so it is written quoted here rather than scanned for escapes
/// on every write.
fn write_fields(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let entries: String = fields
        .iter()
        .filter(|f| !f.skip_serializing)
        .map(|f| format!("__w.ident_field(\"\\\"{}\\\"\", {});", f.name, access(f)))
        .collect();
    format!("__w.object(|__w| {{ {entries} }})")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_shape(input) {
        Shape::Struct(name, fields) => {
            let body = write_fields(&fields, |f| match &f.getter {
                Some(getter) => format!("&{getter}(self)"),
                None => format!("&self.{}", f.name),
            });
            (name, body)
        }
        Shape::Enum(name, vars) => {
            let arms: String = vars
                .iter()
                .map(|v| match v {
                    Variant::Unit(v) => {
                        format!("{name}::{v} => ::serde::Serialize::write_json(\"{v}\", __w),")
                    }
                    Variant::Tuple(v) => {
                        let tag = Field {
                            name: v.clone(),
                            ..Field::default()
                        };
                        let tagged = write_fields(&[tag], |_| "__f0".into());
                        format!("{name}::{v}(__f0) => {tagged},")
                    }
                    Variant::Struct(v, fields) => {
                        assert!(
                            fields.iter().all(|f| f.getter.is_none()),
                            "`getter` is for struct fields"
                        );
                        let bind: String = fields
                            .iter()
                            .filter(|f| !f.skip_serializing)
                            .map(|f| format!("{}, ", f.name))
                            .collect();
                        let inner = write_fields(fields, |f| f.name.clone());
                        format!(
                            "{name}::{v} {{ {bind}.. }} => __w.object(|__w| {{ __w.ident_key(\"\\\"{v}\\\"\"); {inner} }}),"
                        )
                    }
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __w: &mut ::serde::Writer) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// An expression reading the object at `__r`'s cursor into `ctor`'s
/// `fields`: one `Option` slot per field, filled in whatever order the
/// keys arrive; unknown keys are checked and dropped. A missing key is
/// an error, or its type's default for a `default` field.
fn read_fields(ctor: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .map(|Field { name: f, .. }| format!("let mut __f_{f} = ::std::option::Option::None;"))
        .collect();
    let arms: String = fields
        .iter()
        .map(|Field { name: f, .. }| format!("\"{f}\" => __r.field(\"{f}\", &mut __f_{f}),"))
        .collect();
    let inits: String = fields
        .iter()
        .map(
            |Field {
                 name: f, default, ..
             }| match default {
                true => format!("{f}: __f_{f}.unwrap_or_default(),"),
                false => format!(
                    "{f}: __f_{f}.ok_or_else(|| ::serde::DeError::new(\"missing field `{f}`\"))?,"
                ),
            },
        )
        .collect();
    format!(
        "{{ {slots}\n\
            __r.object(|__r, __k| match __k {{ {arms} _ => __r.skip().map(|_| ()) }})?;\n\
            {ctor} {{ {inits} }} }}"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_shape(input) {
        Shape::Struct(name, fields) => {
            let body = format!("::std::result::Result::Ok({})", read_fields(&name, &fields));
            (name, body)
        }
        Shape::Enum(name, vars) => {
            let arms: String = vars
                .iter()
                .map(|v| match v {
                    Variant::Unit(v) => format!("(\"{v}\", false) => {name}::{v},"),
                    Variant::Tuple(v) => format!(
                        "(\"{v}\", true) => {name}::{v}(::serde::Deserialize::read_json(__r)?),"
                    ),
                    Variant::Struct(v, fields) => format!(
                        "(\"{v}\", true) => {},",
                        read_fields(&format!("{name}::{v}"), fields)
                    ),
                })
                .collect();
            let body = format!(
                "__r.variant(\"{name}\", |__r, __tag, __tagged| {{\n\
                     ::std::result::Result::Ok(::std::option::Option::Some(match (__tag, __tagged) {{\n\
                         {arms}\n\
                         _ => return ::std::result::Result::Ok(::std::option::Option::None),\n\
                     }}))\n\
                 }})"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
