//! The item-level parser: token trees → functions, impls, types.
//!
//! This walks the token-tree stream the way `syn`'s `File` parse would,
//! but only deep enough for the audit passes: it recovers every
//! function definition (with its body as a token tree), every `impl`
//! block's trait and self type, every struct/enum's field types, and
//! the *structural* extent of `#[cfg(test)]` — an item is test code iff
//! it, or an enclosing module, carries a test attribute. Expression
//! grammar is never built; the [`super::scan`] walkers work on the raw
//! trees.

use super::lex::{lex, Delim, Group, Span, TokenKind, Tree};

/// One parsed source file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Every function with a body (free fns, methods, trait defaults),
    /// in source order, at any nesting depth.
    pub fns: Vec<FnDef>,
    /// Every struct/enum definition.
    pub types: Vec<TypeDef>,
    /// Every `impl` block header.
    pub impls: Vec<ImplDef>,
    /// Every `static` item.
    pub statics: Vec<StaticDef>,
    /// Item-position macro invocations (e.g. `thread_local! { ... }`).
    pub macro_uses: Vec<MacroUse>,
    /// Every name a `use` item binds (globs bind none).
    pub imports: Vec<Import>,
}

/// One name a `use` item binds: `use byc_sql::{analyze, parse as p};`
/// binds `analyze` to `byc_sql::analyze` and `p` to `byc_sql::parse`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Import {
    /// The name bound in scope (the last segment, or the `as` rename).
    pub name: String,
    /// The full path imported, first segment first.
    pub path: Vec<String>,
    /// Names of the enclosing inline modules, outermost first: the
    /// scope the binding is visible in.
    pub module_path: Vec<String>,
}

/// One function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Span of the name identifier.
    pub span: Span,
    /// The `impl` self type or trait this is a method of, if any.
    pub qualifier: Option<String>,
    /// The trait being implemented, when inside an `impl Trait for T`.
    pub trait_name: Option<String>,
    /// Names of enclosing inline modules, outermost first.
    pub module_path: Vec<String>,
    /// True when this function (or an enclosing module/item) is test
    /// code: `#[test]`, `#[cfg(test)]`, or inside such a module.
    pub is_test: bool,
    /// True when declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// Signature tokens between the name and the body: generics,
    /// parameters, return type, where clause.
    pub signature: Vec<Tree>,
    /// The body brace group. `None` for bodyless trait signatures.
    pub body: Option<Group>,
}

/// One struct or enum definition.
#[derive(Clone, Debug)]
pub struct TypeDef {
    /// The type name.
    pub name: String,
    /// Span of the name identifier.
    pub span: Span,
    /// `struct` or `enum`.
    pub kind: TypeKind,
    /// True when declared `pub`.
    pub is_pub: bool,
    /// True when test code (see [`FnDef::is_test`]).
    pub is_test: bool,
    /// Field (or variant-payload) types, rendered as normalized token
    /// text, with field name and span. Tuple fields are named `0`, `1`…
    pub fields: Vec<FieldDef>,
}

/// Struct vs enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TypeKind {
    /// A `struct`.
    Struct,
    /// An `enum` (fields are the union of all variant payloads).
    Enum,
}

/// One field of a [`TypeDef`].
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name (`0`, `1`… for tuple fields; variant payloads get the
    /// variant name).
    pub name: String,
    /// The type, as space-normalized token text (e.g. `Rc < RefCell <
    /// T > >` renders as `Rc<RefCell<T>>`).
    pub ty: String,
    /// Span of the field name (or of the type for tuple fields).
    pub span: Span,
}

/// One `impl` block header.
#[derive(Clone, Debug)]
pub struct ImplDef {
    /// Last path segment of the self type (`InlineCache` for
    /// `InlineCache<R>`).
    pub self_type: String,
    /// Last path segment of the implemented trait, if `impl Trait for`.
    pub trait_name: Option<String>,
    /// Span of the `impl` keyword.
    pub span: Span,
    /// True when test code.
    pub is_test: bool,
}

/// One `static` item.
#[derive(Clone, Debug)]
pub struct StaticDef {
    /// The static's name.
    pub name: String,
    /// Span of the name.
    pub span: Span,
    /// True for `static mut`.
    pub is_mut: bool,
    /// True when test code.
    pub is_test: bool,
}

/// One item-position macro invocation.
#[derive(Clone, Debug)]
pub struct MacroUse {
    /// Macro name (`thread_local`).
    pub name: String,
    /// Span of the name.
    pub span: Span,
    /// True when test code.
    pub is_test: bool,
}

/// Parse one file's source text.
///
/// # Errors
///
/// Lexer errors (unbalanced delimiters, unterminated literals).
pub fn parse_file(src: &str) -> Result<ParsedFile, String> {
    let trees = lex(src)?;
    let mut out = ParsedFile::default();
    let ctx = Ctx {
        module_path: Vec::new(),
        qualifier: None,
        trait_name: None,
        in_test: false,
    };
    parse_items(&trees, &ctx, &mut out);
    Ok(out)
}

#[derive(Clone)]
struct Ctx {
    module_path: Vec<String>,
    qualifier: Option<String>,
    trait_name: Option<String>,
    in_test: bool,
}

/// Attributes seen since the last item, normalized to compact text
/// (`cfg(test)`, `test`, `derive(Clone,Copy)`).
fn is_test_attr(attr: &str) -> bool {
    attr == "test"
        || (attr.starts_with("cfg(") && attr.contains("test"))
        || attr.starts_with("tokio::test")
}

/// Render an attribute group compactly: token texts joined without
/// spaces.
fn render_attr(group: &Group) -> String {
    let mut s = String::new();
    render_trees(&group.trees, &mut s);
    s
}

fn render_trees(trees: &[Tree], out: &mut String) {
    // A space between adjacent word-like tokens keeps `*mut u8` and
    // `dyn Trait` readable (and segmentable) in rendered types.
    let sep = |out: &mut String| {
        if out.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            out.push(' ');
        }
    };
    for t in trees {
        match t {
            Tree::Leaf(tok) => match &tok.kind {
                TokenKind::Ident(i) => {
                    sep(out);
                    out.push_str(i);
                }
                TokenKind::Lifetime(l) => {
                    out.push('\'');
                    out.push_str(l);
                }
                TokenKind::Int(n) | TokenKind::Float(n) => {
                    sep(out);
                    out.push_str(n);
                }
                TokenKind::Str => out.push_str("\"\""),
                TokenKind::Char => out.push_str("''"),
                TokenKind::Punct { ch, .. } => out.push(*ch),
            },
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    Delim::Paren => ('(', ')'),
                    Delim::Bracket => ('[', ']'),
                    Delim::Brace => ('{', '}'),
                };
                out.push(open);
                render_trees(&g.trees, out);
                out.push(close);
            }
        }
    }
}

/// Render trees to compact text (public for rule messages and tests).
pub fn render(trees: &[Tree]) -> String {
    let mut s = String::new();
    render_trees(trees, &mut s);
    s
}

/// Item-keyword modifiers that may precede `fn`/`struct`/… and carry no
/// structure we need.
const MODIFIERS: &[&str] = &["const", "unsafe", "async", "extern", "default"];

#[allow(clippy::too_many_lines)]
fn parse_items(trees: &[Tree], ctx: &Ctx, out: &mut ParsedFile) {
    let mut i = 0usize;
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut pending_pub = false;
    while i < trees.len() {
        let tree = &trees[i];
        // Attribute: `#` (maybe `!`) then a bracket group.
        if let Some(tok) = tree.leaf() {
            if tok.kind.is_punct('#') {
                let mut j = i + 1;
                if let Some(t) = trees.get(j).and_then(Tree::leaf) {
                    if t.kind.is_punct('!') {
                        j += 1;
                    }
                }
                if let Some(g) = trees.get(j).and_then(Tree::group) {
                    if g.delim == Delim::Bracket {
                        pending_attrs.push(render_attr(g));
                        i = j + 1;
                        continue;
                    }
                }
            }
        }
        let Some(tok) = tree.leaf() else {
            // A stray group at item position (e.g. a macro's braces
            // were already consumed with the macro). Skip.
            i += 1;
            continue;
        };
        let Some(word) = tok.kind.ident() else {
            i += 1;
            pending_attrs.clear();
            pending_pub = false;
            continue;
        };
        match word {
            "pub" => {
                pending_pub = true;
                i += 1;
                // Visibility scope `pub(crate)`.
                if let Some(g) = trees.get(i).and_then(Tree::group) {
                    if g.delim == Delim::Paren {
                        i += 1;
                    }
                }
                continue;
            }
            w if MODIFIERS.contains(&w) => {
                // `const` may start a const item rather than modify fn:
                // `const NAME: T = ...;` — next token is an ident that
                // is not `fn`/`unsafe`/`extern`. Either way nothing to
                // extract; the shared skip below handles both.
                if w == "const" {
                    let is_fn_modifier = matches!(
                        trees
                            .get(i + 1)
                            .and_then(Tree::leaf)
                            .and_then(|t| t.kind.ident()),
                        Some("fn") | Some("unsafe") | Some("extern") | Some("async")
                    );
                    if !is_fn_modifier {
                        i = skip_to_semi(trees, i);
                        pending_attrs.clear();
                        pending_pub = false;
                        continue;
                    }
                }
                if w == "extern" {
                    // `extern "C"` string follows; the loop naturally
                    // passes over it.
                    if let Some(t) = trees.get(i + 1).and_then(Tree::leaf) {
                        if t.kind == TokenKind::Str {
                            i += 1;
                        }
                    }
                }
                i += 1;
                continue;
            }
            "fn" => {
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                i += 1;
                let Some((name, span)) = ident_at(trees, i) else {
                    continue;
                };
                i += 1;
                let sig_start = i;
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Group(g) if g.delim == Delim::Brace => break,
                        Tree::Leaf(t) if t.kind.is_punct(';') => break,
                        _ => i += 1,
                    }
                }
                let signature: Vec<Tree> = trees[sig_start..i].to_vec();
                let body = trees.get(i).and_then(Tree::group).cloned();
                out.fns.push(FnDef {
                    name,
                    span,
                    qualifier: ctx.qualifier.clone(),
                    trait_name: ctx.trait_name.clone(),
                    module_path: ctx.module_path.clone(),
                    is_test,
                    is_pub: pending_pub,
                    signature,
                    body: body.clone(),
                });
                // Nested items inside the body (closures are scanned as
                // part of this body by the walkers; nested `fn`s are
                // *also* registered so calls to them resolve).
                if let Some(body) = &body {
                    let inner = Ctx {
                        module_path: ctx.module_path.clone(),
                        qualifier: ctx.qualifier.clone(),
                        trait_name: None,
                        in_test: ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a)),
                    };
                    parse_nested_fns(&body.trees, &inner, out);
                }
                i += 1;
                pending_attrs.clear();
                pending_pub = false;
            }
            "mod" => {
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                i += 1;
                let Some((name, _)) = ident_at(trees, i) else {
                    continue;
                };
                i += 1;
                if let Some(g) = trees.get(i).and_then(Tree::group) {
                    if g.delim == Delim::Brace {
                        let mut inner = ctx.clone();
                        inner.module_path.push(name);
                        inner.in_test = is_test;
                        parse_items(&g.trees, &inner, out);
                    }
                }
                i += 1; // past the body or the `;`
                pending_attrs.clear();
                pending_pub = false;
            }
            "impl" => {
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                let impl_span = tok.span;
                i += 1;
                // Collect header leaves up to the body brace group.
                let header_start = i;
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Group(g) if g.delim == Delim::Brace => break,
                        _ => i += 1,
                    }
                }
                let header = &trees[header_start..i];
                let (self_type, trait_name) = parse_impl_header(header);
                out.impls.push(ImplDef {
                    self_type: self_type.clone(),
                    trait_name: trait_name.clone(),
                    span: impl_span,
                    is_test,
                });
                if let Some(g) = trees.get(i).and_then(Tree::group) {
                    let inner = Ctx {
                        module_path: ctx.module_path.clone(),
                        qualifier: Some(self_type),
                        trait_name,
                        in_test: is_test,
                    };
                    parse_items(&g.trees, &inner, out);
                }
                i += 1;
                pending_attrs.clear();
                pending_pub = false;
            }
            "trait" => {
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                i += 1;
                let Some((name, _)) = ident_at(trees, i) else {
                    continue;
                };
                // Skip to the body brace group (past generics, bounds).
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Group(g) if g.delim == Delim::Brace => break,
                        Tree::Leaf(t) if t.kind.is_punct(';') => break,
                        _ => i += 1,
                    }
                }
                if let Some(g) = trees.get(i).and_then(Tree::group) {
                    let inner = Ctx {
                        module_path: ctx.module_path.clone(),
                        qualifier: Some(name),
                        trait_name: None,
                        in_test: is_test,
                    };
                    parse_items(&g.trees, &inner, out);
                }
                i += 1;
                pending_attrs.clear();
                pending_pub = false;
            }
            "struct" | "enum" => {
                let kind = if word == "struct" {
                    TypeKind::Struct
                } else {
                    TypeKind::Enum
                };
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                i += 1;
                let Some((name, span)) = ident_at(trees, i) else {
                    continue;
                };
                i += 1;
                // Skip generics and where clause to the payload group
                // or terminating `;`.
                let mut payload: Option<&Group> = None;
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Group(g) if g.delim != Delim::Bracket => {
                            payload = Some(g);
                            i += 1;
                            // Tuple struct: `struct S(T);` — the `;`
                            // follows; brace struct ends here. Either
                            // way this item is done.
                            break;
                        }
                        Tree::Leaf(t) if t.kind.is_punct(';') => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                let fields = match (kind, payload) {
                    (TypeKind::Struct, Some(g)) if g.delim == Delim::Brace => {
                        named_fields(&g.trees)
                    }
                    (TypeKind::Struct, Some(g)) => tuple_fields(&g.trees),
                    (TypeKind::Enum, Some(g)) => enum_fields(&g.trees),
                    _ => Vec::new(),
                };
                out.types.push(TypeDef {
                    name,
                    span,
                    kind,
                    is_pub: pending_pub,
                    is_test,
                    fields,
                });
                pending_attrs.clear();
                pending_pub = false;
            }
            "static" => {
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                i += 1;
                let mut is_mut = false;
                if let Some((w, _)) = ident_at(trees, i) {
                    if w == "mut" {
                        is_mut = true;
                        i += 1;
                    }
                }
                if let Some((name, span)) = ident_at(trees, i) {
                    out.statics.push(StaticDef {
                        name,
                        span,
                        is_mut,
                        is_test,
                    });
                }
                i = skip_to_semi(trees, i);
                pending_attrs.clear();
                pending_pub = false;
            }
            "use" => {
                let end = skip_to_semi(trees, i);
                let tree = trees.get(i + 1..end.saturating_sub(1)).unwrap_or_default();
                let mut bound = Vec::new();
                use_tree(tree, &[], &mut bound);
                out.imports
                    .extend(bound.into_iter().map(|(name, path)| Import {
                        name,
                        path,
                        module_path: ctx.module_path.clone(),
                    }));
                i = end;
                pending_attrs.clear();
                pending_pub = false;
            }
            "type" => {
                i = skip_to_semi(trees, i);
                pending_attrs.clear();
                pending_pub = false;
            }
            "macro_rules" => {
                // `macro_rules ! name { ... }` — rule *patterns*, not
                // code; skipped entirely so template fragments like
                // `$x.unwrap()` in a test helper never count.
                i += 1; // !
                i += 2; // name + body group
                i += 1;
                pending_attrs.clear();
                pending_pub = false;
            }
            name => {
                // Possibly an item-position macro call: `name ! (..)`
                // or `name ! { .. }`.
                let is_test = ctx.in_test || pending_attrs.iter().any(|a| is_test_attr(a));
                let bang = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .is_some_and(|t| t.kind.is_punct('!'));
                if bang {
                    out.macro_uses.push(MacroUse {
                        name: name.to_string(),
                        span: tok.span,
                        is_test,
                    });
                    i += 2; // name !
                            // Optional `path::` macro names never occur at item
                            // position here; consume the argument group.
                    if trees.get(i).and_then(Tree::group).is_some() {
                        i += 1;
                    }
                    // Paren/bracket macro items end with `;`.
                    if let Some(t) = trees.get(i).and_then(Tree::leaf) {
                        if t.kind.is_punct(';') {
                            i += 1;
                        }
                    }
                    pending_attrs.clear();
                    pending_pub = false;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Register nested `fn` items inside a function body (so calls to them
/// resolve), without re-walking groups that are plain expressions.
fn parse_nested_fns(trees: &[Tree], ctx: &Ctx, out: &mut ParsedFile) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) if t.kind.ident() == Some("fn") => {
                if let Some((name, span)) = ident_at(trees, i + 1) {
                    let mut j = i + 2;
                    while j < trees.len() {
                        match &trees[j] {
                            Tree::Group(g) if g.delim == Delim::Brace => break,
                            Tree::Leaf(t) if t.kind.is_punct(';') => break,
                            _ => j += 1,
                        }
                    }
                    let signature = trees[i + 2..j.min(trees.len())].to_vec();
                    let body = trees.get(j).and_then(Tree::group).cloned();
                    out.fns.push(FnDef {
                        name,
                        span,
                        qualifier: ctx.qualifier.clone(),
                        trait_name: None,
                        module_path: ctx.module_path.clone(),
                        is_test: ctx.in_test,
                        is_pub: false,
                        signature,
                        body,
                    });
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            Tree::Group(g) => {
                parse_nested_fns(&g.trees, ctx, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Collect the `(bound name, full path)` pairs of one `use` tree below
/// the path `prefix`: `a::b::{c, d::e as f, self, g::*}` binds `c`, `f`
/// and `b`; globs and `as _` bind nothing.
fn use_tree(trees: &[Tree], prefix: &[String], out: &mut Vec<(String, Vec<String>)>) {
    let mut path = prefix.to_vec();
    let mut alias = None;
    let mut rest = trees.iter();
    while let Some(tree) = rest.next() {
        match tree {
            Tree::Group(g) if g.delim == Delim::Brace => {
                let comma = |t: &Tree| t.leaf().is_some_and(|t| t.kind.is_punct(','));
                for item in g.trees.split(comma) {
                    use_tree(item, &path, out);
                }
                return;
            }
            Tree::Leaf(t) if t.kind.is_punct('*') => return,
            Tree::Leaf(t) => match t.kind.ident() {
                Some("as") => {
                    alias = rest
                        .next()
                        .and_then(Tree::leaf)
                        .and_then(|t| t.kind.ident())
                }
                Some(segment) => path.push(segment.to_string()),
                None => {} // the `::` separators
            },
            Tree::Group(_) => {}
        }
    }
    if path.len() == prefix.len() {
        return; // an empty item, e.g. after a trailing comma
    }
    if path.last().is_some_and(|s| s == "self") {
        path.pop();
    }
    let Some(name) = alias.or(path.last().map(String::as_str)) else {
        return;
    };
    if name != "_" {
        out.push((name.to_string(), path.clone()));
    }
}

fn ident_at(trees: &[Tree], i: usize) -> Option<(String, Span)> {
    let tok = trees.get(i)?.leaf()?;
    let name = tok.kind.ident()?;
    Some((name.to_string(), tok.span))
}

fn skip_to_semi(trees: &[Tree], mut i: usize) -> usize {
    while i < trees.len() {
        if let Some(t) = trees[i].leaf() {
            if t.kind.is_punct(';') {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Split an impl header into (self type, trait name). The header is
/// everything between `impl` and the body: optional generics, then
/// either `Type` or `Trait for Type`, then an optional where clause.
fn parse_impl_header(header: &[Tree]) -> (String, Option<String>) {
    let mut i = 0usize;
    // Leading generics `<...>`: match by angle depth. `->` inside
    // closure bounds must not close an angle; the lexer's `joint` flag
    // on `-` identifies the arrow.
    if let Some(t) = header.first().and_then(Tree::leaf) {
        if t.kind.is_punct('<') {
            let mut depth = 0i32;
            let mut prev_minus = false;
            while i < header.len() {
                if let Some(t) = header[i].leaf() {
                    match &t.kind {
                        TokenKind::Punct { ch: '<', .. } => depth += 1,
                        TokenKind::Punct { ch: '>', .. } if !prev_minus => depth -= 1,
                        _ => {}
                    }
                    prev_minus = matches!(
                        t.kind,
                        TokenKind::Punct {
                            ch: '-',
                            joint: true
                        }
                    );
                } else {
                    prev_minus = false;
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    // Find `for` at angle depth 0, cut at `where`.
    let rest = &header[i..];
    let mut depth = 0i32;
    let mut prev_minus = false;
    let mut for_pos: Option<usize> = None;
    let mut where_pos: Option<usize> = None;
    for (j, tree) in rest.iter().enumerate() {
        if let Some(t) = tree.leaf() {
            match &t.kind {
                TokenKind::Punct { ch: '<', .. } => depth += 1,
                TokenKind::Punct { ch: '>', .. } if !prev_minus => depth -= 1,
                TokenKind::Ident(w) if depth == 0 && w == "for" && for_pos.is_none() => {
                    for_pos = Some(j);
                }
                TokenKind::Ident(w) if depth == 0 && w == "where" => {
                    where_pos = Some(j);
                    break;
                }
                _ => {}
            }
            prev_minus = matches!(
                t.kind,
                TokenKind::Punct {
                    ch: '-',
                    joint: true
                }
            );
        } else {
            prev_minus = false;
        }
    }
    let end = where_pos.unwrap_or(rest.len());
    match for_pos {
        Some(f) if f < end => (type_head(&rest[f + 1..end]), Some(type_head(&rest[..f]))),
        _ => (type_head(&rest[..end]), None),
    }
}

/// The last depth-0 identifier of a type path's head: `InlineCache` for
/// `InlineCache<R>`, `CacheState` for `crate::cache::CacheState`,
/// `Foo` for `&'a mut Foo`.
fn type_head(trees: &[Tree]) -> String {
    let mut depth = 0i32;
    let mut prev_minus = false;
    let mut last = String::new();
    for tree in trees {
        if let Some(t) = tree.leaf() {
            match &t.kind {
                TokenKind::Punct { ch: '<', .. } => depth += 1,
                TokenKind::Punct { ch: '>', .. } if !prev_minus => depth -= 1,
                TokenKind::Ident(w) if depth == 0 && w != "dyn" && w != "mut" => {
                    last = w.clone();
                }
                _ => {}
            }
            prev_minus = matches!(
                t.kind,
                TokenKind::Punct {
                    ch: '-',
                    joint: true
                }
            );
        } else {
            prev_minus = false;
        }
    }
    last
}

/// Named fields: `vis? name : type ,` at top level of a brace group.
fn named_fields(trees: &[Tree]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        // Skip field attributes and visibility.
        if let Some(t) = trees[i].leaf() {
            if t.kind.is_punct('#') {
                i += 1;
                if trees.get(i).and_then(Tree::group).is_some() {
                    i += 1;
                }
                continue;
            }
            if t.kind.ident() == Some("pub") {
                i += 1;
                if let Some(g) = trees.get(i).and_then(Tree::group) {
                    if g.delim == Delim::Paren {
                        i += 1;
                    }
                }
                continue;
            }
        }
        let Some((name, span)) = ident_at(trees, i) else {
            i += 1;
            continue;
        };
        // Expect `:` next.
        let is_colon = trees
            .get(i + 1)
            .and_then(Tree::leaf)
            .is_some_and(|t| t.kind.is_punct(':'));
        if !is_colon {
            i += 1;
            continue;
        }
        let ty_start = i + 2;
        let mut j = ty_start;
        let mut depth = 0i32;
        let mut prev_minus = false;
        while j < trees.len() {
            if let Some(t) = trees[j].leaf() {
                match &t.kind {
                    TokenKind::Punct { ch: '<', .. } => depth += 1,
                    TokenKind::Punct { ch: '>', .. } if !prev_minus => depth -= 1,
                    TokenKind::Punct { ch: ',', .. } if depth <= 0 => break,
                    _ => {}
                }
                prev_minus = matches!(
                    t.kind,
                    TokenKind::Punct {
                        ch: '-',
                        joint: true
                    }
                );
            } else {
                prev_minus = false;
            }
            j += 1;
        }
        out.push(FieldDef {
            name,
            ty: render(&trees[ty_start..j]),
            span,
        });
        i = j + 1;
    }
    out
}

/// Tuple fields: types separated by top-level commas in a paren group.
fn tuple_fields(trees: &[Tree]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut depth = 0i32;
    let mut prev_minus = false;
    let mut index = 0u32;
    for (j, tree) in trees.iter().enumerate() {
        if let Some(t) = tree.leaf() {
            match &t.kind {
                TokenKind::Punct { ch: '<', .. } => depth += 1,
                TokenKind::Punct { ch: '>', .. } if !prev_minus => depth -= 1,
                TokenKind::Punct { ch: ',', .. } if depth <= 0 => {
                    push_tuple_field(&trees[start..j], index, &mut out);
                    index += 1;
                    start = j + 1;
                }
                _ => {}
            }
            prev_minus = matches!(
                t.kind,
                TokenKind::Punct {
                    ch: '-',
                    joint: true
                }
            );
        } else {
            prev_minus = false;
        }
    }
    push_tuple_field(&trees[start..], index, &mut out);
    out
}

fn push_tuple_field(trees: &[Tree], index: u32, out: &mut Vec<FieldDef>) {
    // Strip leading `pub` and attributes.
    let mut trees = trees;
    loop {
        match trees.first() {
            Some(Tree::Leaf(t)) if t.kind.ident() == Some("pub") => trees = &trees[1..],
            Some(Tree::Leaf(t)) if t.kind.is_punct('#') => trees = &trees[1..],
            Some(Tree::Group(g)) if g.delim == Delim::Bracket || g.delim == Delim::Paren => {
                // Attr body or `pub(crate)` scope — only strip when it
                // directly follows the stripped tokens.
                trees = &trees[1..];
            }
            _ => break,
        }
    }
    if trees.is_empty() {
        return;
    }
    out.push(FieldDef {
        name: index.to_string(),
        ty: render(trees),
        span: trees[0].span(),
    });
}

/// Enum variants: `Name`, `Name(types)`, or `Name { fields }` at top
/// level; payload types are flattened into the field list under the
/// variant's name.
fn enum_fields(trees: &[Tree]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut current: Option<(String, Span)> = None;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) if t.kind.is_punct('#') => {
                i += 1;
                if trees.get(i).and_then(Tree::group).is_some() {
                    i += 1;
                }
            }
            Tree::Leaf(t) => {
                if let Some(name) = t.kind.ident() {
                    if current.is_none() {
                        current = Some((name.to_string(), t.span));
                    }
                }
                if t.kind.is_punct(',') {
                    current = None;
                }
                i += 1;
            }
            Tree::Group(g) => {
                if let Some((name, _)) = &current {
                    let fields = if g.delim == Delim::Brace {
                        named_fields(&g.trees)
                    } else {
                        tuple_fields(&g.trees)
                    };
                    for f in fields {
                        out.push(FieldDef {
                            name: name.clone(),
                            ty: f.ty,
                            span: f.span,
                        });
                    }
                }
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_free_and_method_fns() {
        let f =
            parse_file("fn free() {}\nimpl Foo { pub fn method(&self) -> u32 { 1 } }\n").unwrap();
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "free");
        assert_eq!(f.fns[0].qualifier, None);
        assert_eq!(f.fns[1].name, "method");
        assert_eq!(f.fns[1].qualifier.as_deref(), Some("Foo"));
        assert!(f.fns[1].is_pub);
    }

    #[test]
    fn impl_trait_for_generic_type() {
        let f = parse_file(
            "impl<R: UtilityRule> CachePolicy for InlineCache<R> { fn on_access(&mut self) {} }",
        )
        .unwrap();
        assert_eq!(f.impls.len(), 1);
        assert_eq!(f.impls[0].self_type, "InlineCache");
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("CachePolicy"));
        assert_eq!(f.fns[0].qualifier.as_deref(), Some("InlineCache"));
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("CachePolicy"));
    }

    #[test]
    fn impl_with_closure_bound_arrow() {
        let f = parse_file("impl<F: Fn() -> u64> Holder<F> { fn get(&self) {} }").unwrap();
        assert_eq!(f.impls[0].self_type, "Holder");
        assert_eq!(f.impls[0].trait_name, None);
    }

    #[test]
    fn qualified_trait_and_self_paths() {
        let f = parse_file("impl core::fmt::Display for crate::cache::CacheState {}").unwrap();
        assert_eq!(f.impls[0].self_type, "CacheState");
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn cfg_test_module_marks_fns() {
        let f = parse_file(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n  fn helper() {}\n}\n",
        )
        .unwrap();
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
        assert!(
            f.fns[2].is_test,
            "helpers inside cfg(test) mod are test code"
        );
    }

    #[test]
    fn test_attr_on_fn() {
        let f = parse_file("#[test]\nfn t() {}\nfn lib() {}").unwrap();
        assert!(f.fns[0].is_test);
        assert!(!f.fns[1].is_test);
    }

    #[test]
    fn struct_fields_with_types() {
        let f = parse_file(
            "pub struct S { pub a: Rc<RefCell<u32>>, b: Vec<(u8, u8)>, }\nstruct T(pub Cell<u8>, u32);",
        )
        .unwrap();
        assert_eq!(f.types.len(), 2);
        assert_eq!(f.types[0].fields.len(), 2);
        assert_eq!(f.types[0].fields[0].ty, "Rc<RefCell<u32>>");
        assert_eq!(f.types[1].fields[0].ty, "Cell<u8>");
        assert_eq!(f.types[1].fields[1].name, "1");
    }

    #[test]
    fn enum_variant_payloads() {
        let f = parse_file("enum E { A, B(Rc<u8>), C { x: RefCell<u8> } }").unwrap();
        let tys: Vec<&str> = f.types[0].fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, vec!["Rc<u8>", "RefCell<u8>"]);
        assert_eq!(f.types[0].fields[0].name, "B");
        assert_eq!(f.types[0].fields[1].name, "C");
    }

    #[test]
    fn use_items_bind_names() {
        let p = parse_file(
            "use a::b::{c, d::e as f, self, g::*, h as _};\n\
             pub use std::mem::take;\n\
             use super::*;\n\
             mod inner { use byc_sql::{analyze, parse,}; }",
        )
        .unwrap();
        let bound: Vec<(&str, String, Vec<String>)> = p
            .imports
            .iter()
            .map(|i| (i.name.as_str(), i.path.join("::"), i.module_path.clone()))
            .collect();
        let top = Vec::<String>::new();
        let inner = vec!["inner".to_string()];
        assert_eq!(
            bound,
            vec![
                ("c", "a::b::c".to_string(), top.clone()),
                ("f", "a::b::d::e".to_string(), top.clone()),
                ("b", "a::b".to_string(), top.clone()),
                ("take", "std::mem::take".to_string(), top),
                ("analyze", "byc_sql::analyze".to_string(), inner.clone()),
                ("parse", "byc_sql::parse".to_string(), inner),
            ]
        );
    }

    #[test]
    fn statics_and_thread_local() {
        let f = parse_file(
            "static mut COUNTER: u32 = 0;\nstatic OK: u32 = 0;\nthread_local! { static TLS: u8 = 0; }",
        )
        .unwrap();
        assert_eq!(f.statics.len(), 2, "thread_local body is a macro arg");
        assert!(f.statics[0].is_mut);
        assert!(!f.statics[1].is_mut);
        assert_eq!(f.macro_uses.len(), 1);
        assert_eq!(f.macro_uses[0].name, "thread_local");
    }

    #[test]
    fn trait_default_bodies_are_fns() {
        let f =
            parse_file("pub trait Observer { fn on_access(&mut self) {} fn finish(&mut self); }")
                .unwrap();
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].qualifier.as_deref(), Some("Observer"));
        assert!(f.fns[0].body.is_some());
        assert!(f.fns[1].body.is_none());
    }

    #[test]
    fn nested_fns_are_registered() {
        let f = parse_file("fn outer() { fn inner() {} inner(); }").unwrap();
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let f = parse_file("macro_rules! m { ($x:expr) => { $x.unwrap() }; }\nfn f() {}").unwrap();
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn module_paths_accumulate() {
        let f = parse_file("mod a { mod b { fn deep() {} } }").unwrap();
        assert_eq!(f.fns[0].module_path, vec!["a", "b"]);
    }

    #[test]
    fn where_clause_does_not_leak_into_type_head() {
        let f = parse_file("impl<T> Foo<T> where T: Clone { fn f(&self) {} }").unwrap();
        assert_eq!(f.impls[0].self_type, "Foo");
    }
}
