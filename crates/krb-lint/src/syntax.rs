//! The syntax layer: a brace-matching pass over the lexer's token
//! stream that recovers the module/item tree and, for every function, a
//! structural skeleton — parameter list, `let` bindings, call
//! expressions — without type information and without `syn` (the
//! build takes no external crates).
//!
//! Like the lexer it is total: any token soup parses without panicking.
//! Items whose delimiters never balance are simply dropped, so the
//! worst a malformed file can do is hide itself from the flow rules
//! (the lexical rules still see every token). The `testkit` proptests
//! in `tests/syntax_props.rs` hold this layer to brace-tree totality
//! and item-span well-formedness on arbitrary inputs.
//!
//! All positions below are indices into the *significant* token list
//! (`sig`), which skips whitespace and comments; callers convert back
//! to source tokens via `tokens[sig[i]]`.

use crate::lexer::{is_keyword, TokKind, Token};

/// Hard bound on any single delimiter walk; past this the construct is
/// abandoned rather than scanned to EOF (defends parse time on
/// adversarial input, e.g. the fuzzer corpus accidentally linted).
const WALK_BOUND: usize = 100_000;

/// Indices of significant (non-whitespace, non-comment) tokens.
pub fn significant(tokens: &[Token<'_>]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(t.kind, TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment)
        })
        .map(|(i, _)| i)
        .collect()
}

/// What kind of named item a brace block belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// `mod name { .. }`
    Mod,
    /// `fn name(..) { .. }`
    Fn,
    /// `struct Name { .. }`
    Struct,
    /// `enum Name { .. }`
    Enum,
    /// `trait Name { .. }`
    Trait,
    /// `impl [Trait for] Type { .. }` (named by the type).
    Impl,
}

/// One named item with a brace-delimited body.
#[derive(Clone, Debug)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// Declared name (for `impl`, the implemented type's last segment).
    pub name: String,
    /// `sig` index of the opening `{`.
    pub open: usize,
    /// `sig` index of the matching `}`.
    pub close: usize,
}

/// One declared parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// The bound name (first lower-case identifier of the pattern).
    pub name: String,
    /// Identifiers appearing in the declared type (path segments,
    /// generic arguments), for secret-type seeding.
    pub type_idents: Vec<String>,
}

/// One `let` binding inside a function body.
#[derive(Clone, Debug)]
pub struct LetBinding {
    /// Names bound by the pattern (lower-case identifiers only, so
    /// `let Some(key) = ..` binds `key`, not `Some`).
    pub names: Vec<String>,
    /// `sig` range `[start, end)` of the initializer expression.
    pub rhs: (usize, usize),
    /// `sig` index of the `let` keyword.
    pub at: usize,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name (`seal_with`, `format`, ...).
    pub callee: String,
    /// Leading path segments (`s2k::derive` records `["s2k"]`).
    pub path: Vec<String>,
    /// Whether the call is `recv.callee(..)`.
    pub is_method: bool,
    /// Whether the call is `callee!(..)`.
    pub is_macro: bool,
    /// Identifiers of the receiver chain for method calls.
    pub receiver: Vec<String>,
    /// `sig` range `[start, end)` of each top-level comma argument.
    pub args: Vec<(usize, usize)>,
    /// `sig` index of the callee identifier.
    pub name_at: usize,
}

/// One function with a body.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Declared name.
    pub name: String,
    /// Parameters, receiver (`self`) excluded.
    pub params: Vec<Param>,
    /// Identifiers in the return type (empty when none declared).
    pub ret_idents: Vec<String>,
    /// `sig` indices of the body's `{` and matching `}`.
    pub body: (usize, usize),
    /// `sig` index of the name token.
    pub name_at: usize,
    /// Whether the function sits inside a `#[cfg(test)]` module or is
    /// itself `#[test]`-attributed.
    pub is_test: bool,
    /// `let` bindings, in source order.
    pub lets: Vec<LetBinding>,
    /// Call expressions, in source order.
    pub calls: Vec<CallSite>,
}

/// The parsed skeleton of one file. Holds only indices (no token
/// references), so it outlives the borrow of the source text.
pub struct FileSyntax {
    /// Significant-token indices (into the lexed token vector).
    pub sig: Vec<usize>,
    /// Every named braced item found, in source order.
    pub items: Vec<Item>,
    /// Every function with a body, in source order (nested functions
    /// appear in their own right).
    pub fns: Vec<FnInfo>,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` bodies.
    pub test_regions: Vec<(usize, usize)>,
}

/// Byte ranges of test-only code: `#[cfg(test)] mod ... { .. }` bodies
/// and `#[test] fn ... { .. }` bodies.
pub fn test_regions(toks: &[Token<'_>], sig: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 4 < sig.len() {
        let t = |k: usize| toks[sig[k]].text;
        if t(i) == "#" && t(i + 1) == "[" {
            let is_cfg_test = i + 5 < sig.len()
                && t(i + 2) == "cfg"
                && t(i + 3) == "("
                && t(i + 4) == "test"
                && t(i + 5) == ")";
            let is_test_attr = t(i + 2) == "test" && t(i + 3) == "]";
            if is_cfg_test || is_test_attr {
                if let Some((open, close)) = next_brace_block(toks, sig, i) {
                    regions.push((toks[sig[open]].start, toks[sig[close]].start));
                    i = open; // regions may nest; keep scanning inside
                }
            }
        }
        i += 1;
    }
    regions
}

/// From `from`, finds the next top-level `{` and its matching `}`
/// (indices into `sig`). Tolerates unbalanced files by returning `None`.
pub fn next_brace_block(toks: &[Token<'_>], sig: &[usize], from: usize) -> Option<(usize, usize)> {
    let mut open = None;
    for (k, &si) in sig.iter().enumerate().skip(from) {
        if toks[si].text == "{" {
            open = Some(k);
            break;
        }
        // A `;` before any `{` means the construct is body-less
        // (e.g. `#[test] fn x();` in a trait): no block.
        if toks[si].text == ";" {
            return None;
        }
    }
    let open = open?;
    let mut depth = 0i64;
    for (k, &si) in sig.iter().enumerate().skip(open).take(WALK_BOUND) {
        match toks[si].text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether a token starts inside any of the byte `regions`.
pub fn in_regions(regions: &[(usize, usize)], tok: &Token<'_>) -> bool {
    regions.iter().any(|&(s, e)| tok.start >= s && tok.start <= e)
}

/// Parses one lexed file into its item/function skeleton.
pub fn parse(toks: &[Token<'_>]) -> FileSyntax {
    let sig = significant(toks);
    let tests = test_regions(toks, &sig);
    let mut items = Vec::new();
    let mut fns = Vec::new();
    let t = |k: usize| toks[sig[k]].text;

    for i in 0..sig.len() {
        if toks[sig[i]].kind != TokKind::Ident {
            continue;
        }
        match t(i) {
            "mod" | "struct" | "enum" | "trait"
                if i + 1 < sig.len() && toks[sig[i + 1]].kind == TokKind::Ident =>
            {
                let kind = match t(i) {
                    "mod" => ItemKind::Mod,
                    "struct" => ItemKind::Struct,
                    "enum" => ItemKind::Enum,
                    _ => ItemKind::Trait,
                };
                if let Some((open, close)) = next_brace_block(toks, &sig, i) {
                    items.push(Item { kind, name: t(i + 1).to_string(), open, close });
                }
            }
            "impl" => {
                if let Some(name) = impl_type_name(toks, &sig, i) {
                    if let Some((open, close)) = next_brace_block(toks, &sig, i) {
                        items.push(Item { kind: ItemKind::Impl, name, open, close });
                    }
                }
            }
            "fn" => {
                if let Some(f) = parse_fn(toks, &sig, i, &tests) {
                    items.push(Item {
                        kind: ItemKind::Fn,
                        name: f.name.clone(),
                        open: f.body.0,
                        close: f.body.1,
                    });
                    fns.push(f);
                }
            }
            _ => {}
        }
    }
    FileSyntax { sig, items, fns, test_regions: tests }
}

/// The implemented type's name: the last path identifier before the
/// impl block opens (after `for`, when the impl is a trait impl).
fn impl_type_name(toks: &[Token<'_>], sig: &[usize], at: usize) -> Option<String> {
    let t = |k: usize| toks[sig[k]].text;
    let mut last = None;
    for k in at + 1..sig.len().min(at + 64) {
        match t(k) {
            "{" | "where" => break,
            _ if toks[sig[k]].kind == TokKind::Ident && !is_keyword(t(k)) => {
                last = Some(t(k).to_string());
            }
            _ => {}
        }
    }
    last
}

/// Parses the function whose `fn` keyword sits at `sig[at]`. Returns
/// `None` for body-less declarations (trait methods, externs) and for
/// anything too malformed to brace-match.
fn parse_fn(
    toks: &[Token<'_>],
    sig: &[usize],
    at: usize,
    tests: &[(usize, usize)],
) -> Option<FnInfo> {
    let t = |k: usize| toks[sig[k]].text;
    let name_at = at + 1;
    if name_at >= sig.len()
        || toks[sig[name_at]].kind != TokKind::Ident
        || is_keyword(t(name_at))
    {
        return None; // `fn(..)` pointer type, or truncated input
    }
    let name = t(name_at).to_string();

    // Skip generics `<..>` between the name and the parameter list.
    let mut j = name_at + 1;
    if j < sig.len() && t(j) == "<" {
        let mut depth = 0i64;
        let mut steps = 0;
        while j < sig.len() {
            depth += match t(j) {
                "<" => 1,
                "<<" => 2,
                ">" => -1,
                ">>" => -2,
                "(" | "{" | ";" => return None, // generics never contain these here
                _ => 0,
            };
            j += 1;
            steps += 1;
            if depth <= 0 || steps > 512 {
                break;
            }
        }
        if depth > 0 {
            return None;
        }
    }
    if j >= sig.len() || t(j) != "(" {
        return None;
    }

    // Parameter list: split the paren group at depth-1 commas.
    let params_open = j;
    let params_close = match_delim(toks, sig, params_open)?;
    let mut params = Vec::new();
    for (a, b) in split_args(toks, sig, params_open, params_close) {
        if let Some(p) = parse_param(toks, sig, a, b) {
            params.push(p);
        }
    }

    // Return type: idents between `->` and `{` / `;` / `where`.
    let mut ret_idents = Vec::new();
    let mut k = params_close + 1;
    if k < sig.len() && t(k) == "->" {
        k += 1;
        while k < sig.len() && !matches!(t(k), "{" | ";" | "where") {
            if toks[sig[k]].kind == TokKind::Ident && !is_keyword(t(k)) {
                ret_idents.push(t(k).to_string());
            }
            k += 1;
            if k > params_close + 256 {
                return None;
            }
        }
    }

    // Body (skipping any `where` clause): next `{..}`; `;` first means
    // a body-less declaration.
    let (open, close) = next_brace_block(toks, sig, params_close)?;
    let is_test = in_regions(tests, &toks[sig[name_at]]);
    let lets = parse_lets(toks, sig, open, close);
    let calls = parse_calls(toks, sig, open, close);
    Some(FnInfo {
        name,
        params,
        ret_idents,
        body: (open, close),
        name_at,
        is_test,
        lets,
        calls,
    })
}

/// Matches the delimiter at `sig[open]` (`(`, `[`, or `{`) to its
/// closing index, tracking all three bracket kinds.
fn match_delim(toks: &[Token<'_>], sig: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &si) in sig.iter().enumerate().skip(open).take(WALK_BOUND) {
        match toks[si].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
                if depth < 0 {
                    return None;
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits the group `sig[open..=close]` at depth-1 commas into
/// non-empty argument ranges (exclusive of the delimiters).
fn split_args(
    toks: &[Token<'_>],
    sig: &[usize],
    open: usize,
    close: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    for k in open..=close {
        match toks[sig[k]].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 && k > start {
                    out.push((start, k));
                }
            }
            "," if depth == 1 => {
                if k > start {
                    out.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
    }
    out
}

/// Parses one parameter slice `sig[a..b)`. Returns `None` for the
/// receiver (`self` in any of its spellings).
fn parse_param(toks: &[Token<'_>], sig: &[usize], a: usize, b: usize) -> Option<Param> {
    let t = |k: usize| toks[sig[k]].text;
    // Pattern part runs to the first `:` outside nested groups.
    let mut colon = None;
    let mut depth = 0i64;
    for k in a..b {
        match t(k) {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 0 => {
                colon = Some(k);
                break;
            }
            _ => {}
        }
    }
    let pat_end = colon.unwrap_or(b);
    let mut name = None;
    for k in a..pat_end {
        let tok = &toks[sig[k]];
        if tok.kind == TokKind::Ident {
            if tok.text == "self" {
                return None; // receiver
            }
            if !is_keyword(tok.text) && name.is_none() {
                name = Some(tok.text.to_string());
            }
        }
    }
    let mut type_idents = Vec::new();
    if let Some(c) = colon {
        for k in c + 1..b {
            let tok = &toks[sig[k]];
            if tok.kind == TokKind::Ident && !is_keyword(tok.text) {
                type_idents.push(tok.text.to_string());
            }
        }
    }
    Some(Param { name: name?, type_idents })
}

/// Extracts `let` bindings inside the body `sig[(open, close)]`.
fn parse_lets(toks: &[Token<'_>], sig: &[usize], open: usize, close: usize) -> Vec<LetBinding> {
    let t = |k: usize| toks[sig[k]].text;
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        if t(k) != "let" || toks[sig[k]].kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let at = k;
        // Bound names: lower-case identifiers of the pattern (skips
        // constructors like `Some`/`Ok` and type ascription).
        let mut names = Vec::new();
        let mut eq = None;
        let mut depth = 0i64;
        let mut m = k + 1;
        let mut in_type = false;
        while m < close {
            match t(m) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 0 => in_type = true,
                "=" if depth <= 0 => {
                    eq = Some(m);
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {
                    let tok = &toks[sig[m]];
                    if !in_type
                        && tok.kind == TokKind::Ident
                        && !is_keyword(tok.text)
                        && tok.text != "self"
                        && tok.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                    {
                        names.push(tok.text.to_string());
                    }
                }
            }
            m += 1;
        }
        let Some(eq) = eq else {
            k = m + 1;
            continue; // `let x;` — no initializer
        };
        // Initializer: to the `;` closing the statement (brackets of
        // all kinds tracked; `let .. else { .. }` blocks included).
        let mut depth = 0i64;
        let mut end = close;
        let mut n = eq + 1;
        while n < close {
            match t(n) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => {
                    end = n;
                    break;
                }
                _ => {}
            }
            n += 1;
        }
        if !names.is_empty() {
            out.push(LetBinding { names, rhs: (eq + 1, end), at });
        }
        k = eq + 1; // rescan the initializer: it may contain nested lets
    }
    out
}

/// Extracts call expressions inside the body `sig[(open, close)]`.
fn parse_calls(toks: &[Token<'_>], sig: &[usize], open: usize, close: usize) -> Vec<CallSite> {
    let t = |k: usize| toks[sig[k]].text;
    let mut out = Vec::new();
    for k in open + 1..close {
        let tok = &toks[sig[k]];
        if tok.kind != TokKind::Ident || is_keyword(tok.text) || tok.text == "self" {
            continue;
        }
        let is_macro = k + 2 < close && t(k + 1) == "!" && matches!(t(k + 2), "(" | "[" | "{");
        let is_call = k + 1 < close && t(k + 1) == "(";
        if !is_macro && !is_call {
            continue;
        }
        if k > 0 && t(k - 1) == "fn" {
            continue; // a nested declaration, not a call
        }
        let is_method = k > 0 && t(k - 1) == ".";
        // Leading path segments: `a::b::callee(..)` records ["a", "b"].
        let mut path = Vec::new();
        if !is_method {
            let mut p = k;
            while p >= 2 && t(p - 1) == "::" && toks[sig[p - 2]].kind == TokKind::Ident {
                path.push(t(p - 2).to_string());
                p -= 2;
            }
            path.reverse();
        }
        // Receiver chain for method calls: idents walking left through
        // `.`/`::`/`?` links and balanced groups, bounded.
        let mut receiver = Vec::new();
        if is_method {
            let mut depth = 0i64;
            let mut p = k - 1; // the `.`
            let mut steps = 0;
            while p > 0 && steps < 24 {
                p -= 1;
                steps += 1;
                let s = t(p);
                if matches!(s, ")" | "]") {
                    depth += 1;
                } else if matches!(s, "(" | "[") {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 {
                    match toks[sig[p]].kind {
                        TokKind::Ident if !is_keyword(s) => receiver.push(s.to_string()),
                        TokKind::Punct if matches!(s, "." | "::" | "?" | "&") => {}
                        _ => break,
                    }
                }
            }
            receiver.reverse();
        }
        let group_open = if is_macro { k + 2 } else { k + 1 };
        let Some(group_close) = match_delim(toks, sig, group_open) else {
            continue;
        };
        out.push(CallSite {
            callee: tok.text.to_string(),
            path,
            is_method,
            is_macro,
            receiver,
            args: split_args(toks, sig, group_open, group_close),
            name_at: k,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileSyntax {
        parse(&lex(src))
    }

    #[test]
    fn extracts_fn_skeleton() {
        let src = r#"
            fn seal(key: &DesKey, iv: u64, plaintext: &[u8]) -> Result<Vec<u8>, KrbError> {
                let mut buf = Vec::with_capacity(plaintext.len());
                let mac = checksum::compute(ChecksumType::Md4Des, Some(key), &buf)?;
                buf.extend_from_slice(&mac.value);
                Ok(buf)
            }
        "#;
        let fs = parse_src(src);
        assert_eq!(fs.fns.len(), 1);
        let f = &fs.fns[0];
        assert_eq!(f.name, "seal");
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["key", "iv", "plaintext"]);
        assert!(f.params[0].type_idents.iter().any(|t| t == "DesKey"));
        assert!(f.ret_idents.iter().any(|t| t == "KrbError"));
        assert_eq!(f.lets.len(), 2);
        assert_eq!(f.lets[0].names, ["buf"]);
        assert_eq!(f.lets[1].names, ["mac"]);
        let callees: Vec<&str> = f.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"with_capacity"));
        assert!(callees.contains(&"compute"));
        assert!(callees.contains(&"extend_from_slice"));
        let compute = f.calls.iter().find(|c| c.callee == "compute").unwrap();
        assert_eq!(compute.path, ["checksum"]);
        assert_eq!(compute.args.len(), 3);
    }

    #[test]
    fn receiver_and_method_calls() {
        let src = "fn f(tr: &Tracer) { tr.metrics.counter(\"kdc.issued\", scope, 1); }";
        let fs = parse_src(src);
        let c = fs.fns[0].calls.iter().find(|c| c.callee == "counter").unwrap();
        assert!(c.is_method);
        assert_eq!(c.receiver, ["tr", "metrics"]);
        assert_eq!(c.args.len(), 3);
    }

    #[test]
    fn macro_calls_and_captures() {
        let src = r#"fn f(x: u32) { println!("x = {x}"); format!("{}", x); }"#;
        let fs = parse_src(src);
        let macros: Vec<&str> = fs.fns[0]
            .calls
            .iter()
            .filter(|c| c.is_macro)
            .map(|c| c.callee.as_str())
            .collect();
        assert_eq!(macros, ["println", "format"]);
    }

    #[test]
    fn destructuring_let_binds_lowercase_names_only() {
        let src = "fn f() { let Some((a, b)) = pair() else { return; }; let _ = a; }";
        let fs = parse_src(src);
        assert_eq!(fs.fns[0].lets[0].names, ["a", "b"]);
    }

    #[test]
    fn bodyless_and_generic_fns() {
        let src = r#"
            trait T { fn no_body(&self); }
            fn generic<K: Ord, V>(map: &BTreeMap<K, V>) -> usize { map.len() }
        "#;
        let fs = parse_src(src);
        assert_eq!(fs.fns.len(), 1);
        assert_eq!(fs.fns[0].name, "generic");
        assert_eq!(fs.fns[0].params[0].name, "map");
    }

    #[test]
    fn item_tree_names_mods_impls_and_tests() {
        let src = r#"
            mod inner { struct S; }
            impl fmt::Debug for DesKey { fn fmt(&self) -> R { todo() } }
            #[cfg(test)]
            mod tests { #[test] fn t() { helper(); } }
        "#;
        let fs = parse_src(src);
        let kinds: Vec<(ItemKind, &str)> =
            fs.items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert!(kinds.contains(&(ItemKind::Mod, "inner")));
        assert!(kinds.contains(&(ItemKind::Impl, "DesKey")));
        assert!(kinds.contains(&(ItemKind::Mod, "tests")));
        let t = fs.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.is_test);
        let fmt = fs.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert!(!fmt.is_test);
    }

    #[test]
    fn malformed_input_is_total() {
        for src in [
            "fn",
            "fn (",
            "fn f(",
            "fn f() {",
            "fn f<T(x: T) {}",
            "}{)(",
            "fn f() { let = ; }",
            "impl { }",
            "fn f() { g(; }",
        ] {
            let fs = parse_src(src); // must not panic
            for item in &fs.items {
                assert!(item.open < item.close);
            }
        }
    }
}
