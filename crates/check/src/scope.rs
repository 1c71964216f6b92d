//! Block-structured scope analysis on top of the scrub-and-scan lexer.
//!
//! The flat token scanners in [`crate::lexer`] can ban an identifier but
//! cannot see *lifetimes*: whether a lock guard bound on one line is
//! still live when a charged wait happens five lines later. This module
//! adds exactly enough structure for that class of rule without growing
//! a real parser:
//!
//! * **function spans** — every `fn name(...) { ... }` in a file, with
//!   its brace-matched body;
//! * **a block tree** — nested `{}` scopes inside each body (plain
//!   blocks, `match` arms, closure bodies), so a binding's live range
//!   ends at its enclosing block's close brace;
//! * **binding sites** — `let`-bindings whose initializer *ends in* a
//!   known guard/reservation constructor (`.lock()`, `.read()`,
//!   `.write()` with empty argument lists, `.reserve(...)`), with the
//!   binder name so an explicit `drop(name)` can end the range early.
//!   "Ends in" is the load-bearing part: `let n = m.lock().len();`
//!   drops its temporary guard at the end of the statement and is *not*
//!   a guard binding;
//! * **call sites** — every `leaf(...)` call in a body with its byte
//!   offset and argument span, so rules can ask "does a call to a
//!   charged-wait function fall inside this live range?" and, via a
//!   per-crate summary of which local functions themselves wait, reason
//!   one call level deep.
//!
//! Everything operates on scrubbed code (comments/literals blanked), so
//! offsets map 1:1 onto the original source for line reporting.
//!
//! Known limits, inherited from being a lexer-shaped analysis: struct
//! literals contribute phantom blocks (harmless — `let` statements
//! cannot appear directly inside them); guards bound by destructuring
//! patterns are tracked without a name (their range runs to the block
//! close, `drop` cannot end it early); waits inside a closure body are
//! attributed to the enclosing range even though the closure may run
//! later (conservative — allowlist the rare deliberate deferral).

/// What kind of guard a `let` binds. The names are used verbatim in
/// violation messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `.lock()` on a shim `Mutex` (or anything lock-shaped).
    MutexGuard,
    /// `.read()` with no arguments: shim `RwLock`/`Shared` read borrow.
    ReadGuard,
    /// `.write()` with no arguments: shim `RwLock`/`Shared` write borrow.
    WriteGuard,
    /// `.reserve(...)` / `.reserve_up_to(...)`: a DRAM reservation.
    Reservation,
}

impl GuardKind {
    pub fn describe(self) -> &'static str {
        match self {
            GuardKind::MutexGuard => "Mutex guard",
            GuardKind::ReadGuard => "read guard",
            GuardKind::WriteGuard => "write guard",
            GuardKind::Reservation => "DRAM reservation",
        }
    }
}

/// A `let` that binds a guard. Live from the end of its statement to
/// [`GuardBinding::live_end`].
#[derive(Debug, Clone)]
pub struct GuardBinding {
    /// Binder name; empty for destructuring patterns.
    pub name: String,
    pub kind: GuardKind,
    /// Offset of the `let` keyword (line reporting).
    pub offset: usize,
    /// Live range start: just past the binding statement's `;`.
    pub live_start: usize,
    /// Live range end: enclosing block close, or an explicit
    /// `drop(name)` site.
    pub live_end: usize,
    /// True when the range was ended early by an explicit `drop`.
    pub dropped_explicitly: bool,
}

/// One `leaf(...)` call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Offset of the callee identifier.
    pub offset: usize,
    /// Last path segment of the callee (`self.gate.admit_write` →
    /// `admit_write`).
    pub leaf: String,
    /// Whether the call was written as a method (`recv.leaf(...)`) or a
    /// bare/path call (`leaf(...)`, `a::leaf(...)`).
    pub method: bool,
    /// Byte span of the argument list, opening paren inclusive to the
    /// matching close paren exclusive.
    pub args: (usize, usize),
}

/// One function's scope analysis.
#[derive(Debug, Clone)]
pub struct FnScope {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// Offset of the `fn` keyword.
    pub offset: usize,
    /// Body span: `{` inclusive .. matching `}` inclusive.
    pub body: (usize, usize),
    /// Guard bindings in source order.
    pub guards: Vec<GuardBinding>,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnScope {
    /// Calls that fall inside `guard`'s live range.
    pub fn calls_in_range<'a>(
        &'a self,
        guard: &GuardBinding,
    ) -> impl Iterator<Item = &'a CallSite> {
        let (a, b) = (guard.live_start, guard.live_end);
        self.calls
            .iter()
            .filter(move |c| c.offset >= a && c.offset < b)
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn at(bytes: &[u8], ix: usize) -> u8 {
    bytes.get(ix).copied().unwrap_or(0)
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Brace/paren/bracket-matched end of a region opened at `open`
/// (returns the index of the matching closer, or `len` if unbalanced).
fn match_delim(bytes: &[u8], open: usize) -> usize {
    let (o, c) = match bytes[open] {
        b'{' => (b'{', b'}'),
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        let b = bytes[i];
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// All `fn` item offsets in scrubbed code (word-bounded, with a body).
fn fn_starts(code: &str) -> Vec<(usize, String, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(ix) = code[from..].find("fn ") {
        let start = from + ix;
        from = start + 3;
        if start > 0 && is_ident(bytes[start - 1]) {
            continue;
        }
        let name_start = skip_ws(bytes, start + 3);
        let mut j = name_start;
        while j < bytes.len() && is_ident(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue; // `fn` in `Fn(...)` bounds etc.
        }
        let name = code[name_start..j].to_string();
        // Scan to the body's `{`, skipping the argument list and any
        // return type; a `;` first means a bodyless trait declaration.
        // A where-clause could legally contain braces in general Rust,
        // but not in this workspace.
        let mut k = j;
        while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
            if bytes[k] == b'(' {
                k = match_delim(bytes, k);
            }
            k += 1;
        }
        if k < bytes.len() && bytes[k] == b'{' {
            out.push((start, name, k));
        }
    }
    out
}

/// Leaf path segment ending at `end` (exclusive): walks identifier and
/// `::` bytes backwards, returns the final segment.
fn leaf_ending_at(code: &str, end: usize) -> (usize, String, bool) {
    let bytes = code.as_bytes();
    let mut s = end;
    while s > 0 && (is_ident(bytes[s - 1]) || bytes[s - 1] == b':') {
        s -= 1;
    }
    let path = &code[s..end];
    let leaf = path.rsplit("::").next().unwrap_or(path);
    let leaf_start = end - leaf.len();
    // Method call if the path is preceded by a `.` receiver.
    let method = leaf_start == s && s > 0 && bytes[s - 1] == b'.';
    (leaf_start, leaf.to_string(), method)
}

/// Collect every call site in `code[span]`.
fn collect_calls(code: &str, span: (usize, usize)) -> Vec<CallSite> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = span.0;
    while i < span.1 {
        if bytes[i] == b'(' && i > 0 && is_ident(bytes[i - 1]) {
            let (leaf_start, leaf, method) = leaf_ending_at(code, i);
            let close = match_delim(bytes, i);
            // Keywords and declarations are not calls.
            if !matches!(
                leaf.as_str(),
                "fn" | "if" | "while" | "for" | "match" | "return"
            ) {
                out.push(CallSite {
                    offset: leaf_start,
                    leaf,
                    method,
                    args: (i, close.min(span.1)),
                });
            }
        }
        i += 1;
    }
    out
}

/// If the expression ending at `end` (exclusive, trailing whitespace
/// already trimmed) is a guard constructor call, return its kind.
/// `end` points just past the closing `)`.
pub(crate) fn guard_ctor_ending_at(code: &str, end: usize) -> Option<GuardKind> {
    let bytes = code.as_bytes();
    if end == 0 || at(bytes, end - 1) != b')' {
        return None;
    }
    // Find the matching open paren by walking backwards.
    let mut depth = 0i32;
    let mut open = end - 1;
    loop {
        match bytes[open] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if open == 0 {
            return None;
        }
        open -= 1;
    }
    let (_, leaf, method) = leaf_ending_at(code, open);
    if !method {
        return None; // bare `lock(...)` fn call, not a guard ctor
    }
    let args_empty = code[open + 1..end - 1].trim().is_empty();
    match leaf.as_str() {
        "lock" if args_empty => Some(GuardKind::MutexGuard),
        "read" if args_empty => Some(GuardKind::ReadGuard),
        "write" if args_empty => Some(GuardKind::WriteGuard),
        "reserve" | "reserve_up_to" => Some(GuardKind::Reservation),
        _ => None,
    }
}

/// Analyze every function in `code` (scrubbed). See the module docs.
pub fn analyze(code: &str) -> Vec<FnScope> {
    let bytes = code.as_bytes();
    let mut scopes = Vec::new();
    for (fn_off, name, body_open) in fn_starts(code) {
        let body_close = match_delim(bytes, body_open);
        let mut guards = Vec::new();

        // Walk statements: find `let` keywords, their `=`, and the `;`
        // terminating the initializer at delimiter depth 0 relative to
        // the initializer start.
        let mut i = body_open;
        while i < body_close {
            if bytes[i] == b'l'
                && code[i..].starts_with("let")
                && (i == 0 || !is_ident(bytes[i - 1]))
                && !is_ident(at(bytes, i + 3))
            {
                let let_off = i;
                // Pattern: up to `=` at depth 0 (skip `==`; `<=` etc.
                // cannot appear in a pattern position).
                let mut j = i + 3;
                let mut depth = 0i32;
                let mut eq = None;
                while j < body_close {
                    match bytes[j] {
                        b'(' | b'[' | b'<' => depth += 1,
                        b')' | b']' | b'>' => depth -= 1,
                        b'=' if depth <= 0 && at(bytes, j + 1) != b'=' => {
                            eq = Some(j);
                            break;
                        }
                        b';' | b'{' => break, // `let x;` or malformed
                        _ => {}
                    }
                    j += 1;
                }
                let Some(eq) = eq else {
                    i += 3;
                    continue;
                };
                // Binder name: `let [mut] ident` (destructuring → "").
                let mut p = skip_ws(bytes, let_off + 3);
                if code[p..].starts_with("mut") && !is_ident(at(bytes, p + 3)) {
                    p = skip_ws(bytes, p + 3);
                }
                let name_start = p;
                while p < eq && is_ident(bytes[p]) {
                    p += 1;
                }
                let binder = {
                    let cand = &code[name_start..p];
                    // A simple binder is followed by `:` (type) or the `=`.
                    let after = skip_ws(bytes, p);
                    if !cand.is_empty() && (after == eq || at(bytes, after) == b':') {
                        cand.to_string()
                    } else {
                        String::new()
                    }
                };
                // Initializer: from `=` to the `;` at depth 0.
                let mut k = eq + 1;
                let mut d = 0i32;
                while k < body_close {
                    match bytes[k] {
                        b'(' | b'[' | b'{' => d += 1,
                        b')' | b']' | b'}' => d -= 1,
                        b';' if d == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let stmt_end = k; // offset of `;` (or block close)
                                  // `let Some(r) = expr else { ... };` — the initializer
                                  // proper ends before a depth-0 `else`.
                let mut expr_end = stmt_end;
                {
                    let mut d = 0i32;
                    let mut m = eq + 1;
                    while m < stmt_end {
                        match bytes[m] {
                            b'(' | b'[' | b'{' => d += 1,
                            b')' | b']' | b'}' => d -= 1,
                            b'e' if d == 0
                                && code[m..].starts_with("else")
                                && !is_ident(at(bytes, m + 4))
                                && !is_ident(bytes[m - 1]) =>
                            {
                                expr_end = m;
                                break;
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                }
                let init_end = {
                    let mut e = expr_end;
                    while e > eq + 1 && bytes[e - 1].is_ascii_whitespace() {
                        e -= 1;
                    }
                    // `m.lock()?` never appears (guards aren't Results),
                    // but tolerate a trailing `?` anyway.
                    if e > eq + 1 && bytes[e - 1] == b'?' {
                        e - 1
                    } else {
                        e
                    }
                };
                if let Some(kind) = guard_ctor_ending_at(code, init_end) {
                    // Enclosing block: deepest `{` whose span contains
                    // the let. Walk from body_open tracking open braces.
                    let block_close = enclosing_block_close(bytes, body_open, body_close, let_off);
                    guards.push(GuardBinding {
                        name: binder,
                        kind,
                        offset: let_off,
                        live_start: stmt_end + 1,
                        live_end: block_close,
                        dropped_explicitly: false,
                    });
                }
                i = stmt_end + 1;
                continue;
            }
            i += 1;
        }

        let calls = collect_calls(code, (body_open, body_close));

        // Explicit drops end live ranges early: `drop(name)` /
        // `mem::drop(name)` with the bare binder as the sole argument.
        for c in &calls {
            if c.leaf != "drop" || c.method {
                continue;
            }
            let arg = code[c.args.0 + 1..c.args.1].trim();
            for g in guards.iter_mut() {
                if !g.name.is_empty()
                    && arg == g.name
                    && c.offset >= g.live_start
                    && c.offset < g.live_end
                {
                    g.live_end = c.offset;
                    g.dropped_explicitly = true;
                }
            }
        }

        scopes.push(FnScope {
            name,
            offset: fn_off,
            body: (body_open, body_close),
            guards,
            calls,
        });
    }
    scopes
}

/// Close offset of the deepest block containing `pos` within a function
/// body (`body_open..=body_close`).
fn enclosing_block_close(bytes: &[u8], body_open: usize, body_close: usize, pos: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut i = body_open;
    let mut best = body_close;
    while i <= body_close && i < bytes.len() {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(open) = stack.pop() {
                    if open <= pos && pos < i {
                        best = i;
                        // The first close after `pos` whose open precedes
                        // it is the innermost enclosing block.
                        return best;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    best
}

/// Per-crate one-level call summary: the names of functions whose body
/// *directly* calls one of `primitives` (by callee leaf name), mapped to
/// a short description for reports. Feed `analyze` output from every
/// file of a crate.
pub fn wait_summary(
    scopes: &[FnScope],
    rel_path: &str,
    primitives: &[&str],
    out: &mut std::collections::BTreeMap<String, String>,
) {
    for s in scopes {
        if primitives.contains(&s.name.as_str()) {
            continue; // the primitive itself, not a one-level wrapper
        }
        if let Some(c) = s
            .calls
            .iter()
            .find(|c| primitives.contains(&c.leaf.as_str()))
        {
            out.entry(s.name.clone())
                .or_insert_with(|| format!("{} ({rel_path} calls `{}`)", s.name, c.leaf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn fns(src: &str) -> Vec<FnScope> {
        analyze(&scrub(src).code)
    }

    #[test]
    fn finds_functions_and_bodies() {
        let s = fns("fn a() { x(); }\nimpl T { fn b(&self, k: u8) -> u8 { y() } }\ntrait Q { fn c(&self); }");
        let names: Vec<&str> = s.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"], "bodyless trait fn skipped");
    }

    #[test]
    fn guard_binding_requires_ctor_at_expression_end() {
        let s = fns("fn f(&self) {\n    let g = self.m.lock();\n    let n = self.m.lock().len();\n    let v = self.m.lock().clone();\n    let r = self.rw.read();\n    let w = self.rw.write();\n    let d = self.budget.reserve(bytes);\n}");
        let kinds: Vec<(String, GuardKind)> = s[0]
            .guards
            .iter()
            .map(|g| (g.name.clone(), g.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("g".to_string(), GuardKind::MutexGuard),
                ("r".to_string(), GuardKind::ReadGuard),
                ("w".to_string(), GuardKind::WriteGuard),
                ("d".to_string(), GuardKind::Reservation),
            ],
            "{:#?}",
            s[0].guards
        );
    }

    #[test]
    fn read_write_with_args_are_not_guards() {
        let s = fns(
            "fn f(&self) {\n    let page = self.nand.read(ppa);\n    let n = file.write(buf);\n}",
        );
        assert!(s[0].guards.is_empty(), "{:#?}", s[0].guards);
    }

    #[test]
    fn live_range_ends_at_enclosing_block_close() {
        let src = "fn f(&self) {\n    {\n        let g = self.m.lock();\n        inner();\n    }\n    outer();\n}";
        let s = fns(src);
        let g = &s[0].guards[0];
        let outer_off = src.find("outer").expect("present");
        let inner_off = src.find("inner").expect("present");
        assert!(g.live_start < inner_off && inner_off < g.live_end);
        assert!(outer_off > g.live_end, "outer() is past the block close");
    }

    #[test]
    fn explicit_drop_ends_the_range() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    use_it(&g);\n    drop(g);\n    later();\n}";
        let s = fns(src);
        let g = &s[0].guards[0];
        assert!(g.dropped_explicitly);
        let later = src.find("later").expect("present");
        assert!(later > g.live_end, "later() is past the drop");
        let use_it = src.find("use_it").expect("present");
        assert!(use_it < g.live_end);
    }

    #[test]
    fn match_arm_blocks_scope_their_bindings() {
        let src = "fn f(&self) {\n    match x {\n        A => {\n            let g = self.m.lock();\n            a();\n        }\n        B => {\n            b();\n        }\n    }\n    tail();\n}";
        let s = fns(src);
        let g = &s[0].guards[0];
        let a = src.find("a();").expect("present");
        let b = src.find("b();").expect("present");
        assert!(a >= g.live_start && a < g.live_end, "same arm is in range");
        assert!(b >= g.live_end, "sibling arm is out of range");
    }

    #[test]
    fn early_return_does_not_extend_the_range() {
        // The range is textual: code after an early return but inside
        // the block still counts (it is reachable on the other path).
        let src = "fn f(&self) -> u8 {\n    let g = self.m.lock();\n    if c {\n        return 0;\n    }\n    after();\n    1\n}";
        let s = fns(src);
        let g = &s[0].guards[0];
        let after = src.find("after").expect("present");
        assert!(after >= g.live_start && after < g.live_end);
    }

    #[test]
    fn closure_bodies_are_inside_the_enclosing_range() {
        let src =
            "fn f(&self) {\n    let g = self.m.lock();\n    jobs.push(move || deferred());\n}";
        let s = fns(src);
        let g = &s[0].guards[0];
        let call = s[0]
            .calls
            .iter()
            .find(|c| c.leaf == "deferred")
            .expect("closure call collected");
        assert!(call.offset >= g.live_start && call.offset < g.live_end);
    }

    #[test]
    fn call_sites_carry_leaf_method_and_args() {
        let s =
            fns("fn f(&self) { self.gate.admit_write(&sample); helper(); path::to::thing(1, 2); }");
        let calls: Vec<(&str, bool)> = s[0]
            .calls
            .iter()
            .map(|c| (c.leaf.as_str(), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![("admit_write", true), ("helper", false), ("thing", false)]
        );
    }

    #[test]
    fn wait_summary_is_one_level_deep() {
        let code = scrub(
            "fn charge_wait(&self, ns: u64) { self.clock.advance(ns); }\nfn wrapper(&self) { self.charge_wait(5); }\nfn clean(&self) { work(); }",
        )
        .code;
        let scopes = analyze(&code);
        let mut sum = std::collections::BTreeMap::new();
        wait_summary(&scopes, "demo.rs", &["advance"], &mut sum);
        assert!(sum.contains_key("charge_wait"), "{sum:?}");
        assert!(
            !sum.contains_key("wrapper"),
            "two levels from the primitive: {sum:?}"
        );
        assert!(!sum.contains_key("clean"), "{sum:?}");
    }

    #[test]
    fn destructuring_guards_run_to_block_end() {
        let src = "fn f(&self) {\n    let (a, b) = self.m.lock();\n    tail();\n}";
        let s = fns(src);
        // Initializer ends in .lock() so it is a guard, but unnamed.
        assert_eq!(s[0].guards.len(), 1);
        assert!(s[0].guards[0].name.is_empty());
    }
}
