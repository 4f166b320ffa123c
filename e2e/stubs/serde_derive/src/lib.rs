//! Offline stand-in for `serde_derive` (see the `serde` stand-in next
//! to it). `#[derive(Serialize)]` on a non-generic struct or enum emits
//! an impl that serializes a unit; `#[serde(..)]` attributes are
//! accepted and ignored.

use proc_macro::{TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let mut tokens = input.into_iter();
    let mut name = None;
    while let Some(tt) = tokens.next() {
        if let TokenTree::Ident(id) = &tt {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" {
                if let Some(TokenTree::Ident(n)) = tokens.next() {
                    name = Some(n.to_string());
                }
                break;
            }
        }
    }
    let name = name.expect("derive(Serialize) stand-in: no struct or enum name found");
    if let Some(TokenTree::Punct(p)) = tokens.next() {
        assert!(
            p.as_char() != '<',
            "derive(Serialize) stand-in does not support generic type `{name}`"
        );
    }
    format!(
        "impl ::serde::Serialize for {name} {{\
            fn serialize<S: ::serde::Serializer>(&self, s: S) -> ::core::result::Result<S::Ok, S::Error> {{\
                s.serialize_unit()\
            }}\
        }}"
    )
    .parse()
    .expect("generated impl parses")
}
