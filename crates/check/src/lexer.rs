//! Scrub-and-scan lexing for the lint rules.
//!
//! [`scrub`] blanks comments and string/char literals out of Rust source
//! (preserving byte offsets and newlines), so the rule scanners can do
//! plain substring matching over real code without tripping on doc
//! comments, error messages or test fixtures embedded in strings. It is
//! a lexer, not a parser: good enough for the three rules, with the
//! known limits documented on each scanner.

/// Source with comments and literals blanked to spaces.
pub struct Scrubbed {
    /// Same length and line structure as the input; comments, string
    /// literals and char literals replaced by spaces.
    pub code: String,
    /// Line comments as `(1-based line, text after //)` — the carrier
    /// for `kvcsd-check: allow(...)` exemptions.
    pub comments: Vec<(usize, String)>,
    line_starts: Vec<usize>,
}

impl Scrubbed {
    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blank every non-newline byte of `bytes[range]`.
fn blank(bytes: &mut [u8], from: usize, to: usize) {
    for b in &mut bytes[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Strip comments and literals. See module docs.
pub fn scrub(source: &str) -> Scrubbed {
    let mut bytes = source.as_bytes().to_vec();
    let len = bytes.len();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            source
                .bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let line_of = |off: usize| line_starts.partition_point(|&s| s <= off);

    let mut comments = Vec::new();
    let mut i = 0;
    while i < len {
        let b = bytes[i];
        let next = |k: usize| bytes.get(i + k).copied().unwrap_or(0);
        let prev_ident = i > 0 && is_ident(bytes[i - 1]);
        if b == b'/' && next(1) == b'/' {
            let start = i;
            while i < len && bytes[i] != b'\n' {
                i += 1;
            }
            comments.push((
                line_of(start),
                String::from_utf8_lossy(&bytes[start + 2..i]).into_owned(),
            ));
            blank(&mut bytes, start, i);
        } else if b == b'/' && next(1) == b'*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < len && depth > 0 {
                if bytes[i] == b'/' && next_at(&bytes, i + 1) == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && next_at(&bytes, i + 1) == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut bytes, start, i);
        } else if !prev_ident && (b == b'r' || b == b'b') && raw_string_start(&bytes, i).is_some() {
            let (quote_ix, hashes) = match raw_string_start(&bytes, i) {
                Some(x) => x,
                None => unreachable!(),
            };
            let start = i;
            i = quote_ix + 1;
            // Scan for `"` followed by `hashes` hashes.
            'raw: while i < len {
                if bytes[i] == b'"' {
                    let mut j = i + 1;
                    let mut h = 0;
                    while h < hashes && j < len && bytes[j] == b'#' {
                        j += 1;
                        h += 1;
                    }
                    if h == hashes {
                        i = j;
                        break 'raw;
                    }
                }
                i += 1;
            }
            blank(&mut bytes, start, i);
        } else if b == b'"' || (!prev_ident && b == b'b' && next(1) == b'"') {
            let start = i;
            i += if b == b'"' { 1 } else { 2 };
            while i < len {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut bytes, start, i.min(len));
        } else if b == b'\'' || (!prev_ident && b == b'b' && next(1) == b'\'') {
            let q = if b == b'\'' { i } else { i + 1 };
            // Char literal vs lifetime. Three shapes close with a quote:
            //
            // * escaped:   `'\n'`, `'\''`, `'\u{1F600}'` — a `\` right
            //   after the tick; scan (bounded) for the closing quote;
            // * word-like: `'a'`, `'_'`, `'é'` — a run of identifier or
            //   non-ASCII bytes then a quote. The same run *not* followed
            //   by a quote is a lifetime (`'a`, `'static`) or a loop
            //   label (`'outer:`), including `<'a>('x')` where the old
            //   fixed-window scan used to eat the next literal's opener;
            // * punctuation: `'}'`, `' '` — any other single byte framed
            //   by quotes.
            let mut end = None;
            if next_at(&bytes, q + 1) == b'\\' {
                let mut j = q + 3; // at least one escaped byte
                while j < len && j <= q + 16 {
                    if bytes[j] == b'\'' {
                        end = Some(j);
                        break;
                    }
                    j += 1;
                }
            } else if is_ident(next_at(&bytes, q + 1)) || next_at(&bytes, q + 1) >= 0x80 {
                let mut j = q + 1;
                while j < len && (is_ident(bytes[j]) || bytes[j] >= 0x80) {
                    j += 1;
                }
                if next_at(&bytes, j) == b'\'' {
                    end = Some(j); // `'a'`-shaped literal
                } // else: lifetime or loop label — keep the tick
            } else if next_at(&bytes, q + 1) != b'\''
                && next_at(&bytes, q + 1) != b'\n'
                && next_at(&bytes, q + 1) != 0
                && next_at(&bytes, q + 2) == b'\''
            {
                end = Some(q + 2); // punctuation literal like `'}'`
            }
            if let Some(e) = end {
                blank(&mut bytes, i, e + 1);
                i = e + 1;
            } else {
                i += 1; // lifetime: keep the tick, scan on
            }
        } else {
            i += 1;
        }
    }

    Scrubbed {
        code: String::from_utf8_lossy(&bytes).into_owned(),
        comments,
        line_starts,
    }
}

fn next_at(bytes: &[u8], ix: usize) -> u8 {
    bytes.get(ix).copied().unwrap_or(0)
}

/// If `bytes[i..]` starts a raw (byte) string — `r"`, `r#"`, `br##"` … —
/// return `(index of the opening quote, number of hashes)`.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if next_at(bytes, j) == b'b' {
        j += 1;
    }
    if next_at(bytes, j) != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while next_at(bytes, j) == b'#' {
        j += 1;
        hashes += 1;
    }
    if next_at(bytes, j) == b'"' {
        Some((j, hashes))
    } else {
        None
    }
}

/// 1-based line ranges covered by `#[cfg(test)]` items (attribute through
/// the matching close brace, or the terminating `;`).
pub fn test_line_ranges(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|&(_, b)| *b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let line_of = |off: usize| line_starts.partition_point(|&s| s <= off);

    let mut ranges = Vec::new();
    for start in find_all(code, "#[cfg(test)]") {
        let mut i = start + "#[cfg(test)]".len();
        // Find the item's body: first `{` (brace-match it) or `;`.
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        let end = if i < bytes.len() && bytes[i] == b'{' {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                if j >= bytes.len() {
                    break j;
                }
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break j;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        } else {
            i
        };
        ranges.push((
            line_of(start),
            line_of(end.min(bytes.len().saturating_sub(1))),
        ));
    }
    ranges
}

/// One scanner match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Byte offset into the scrubbed code.
    pub offset: usize,
    /// Human description of what matched.
    pub what: String,
}

fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(ix) = hay[from..].find(needle) {
        out.push(from + ix);
        from += ix + needle.len();
    }
    out
}

/// Word-boundary check around `hay[ix..ix+len]`.
fn bounded(hay: &[u8], ix: usize, len: usize) -> bool {
    (ix == 0 || !is_ident(hay[ix - 1])) && !is_ident(next_at(hay, ix + len))
}

/// `.unwrap()` and `.expect(` method calls (the receiver must be a method
/// chain — a bare `unwrap(` function call is not flagged).
pub fn find_unwraps(code: &str) -> Vec<Hit> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    for name in ["unwrap", "expect"] {
        for ix in find_all(code, name) {
            if !bounded(bytes, ix, name.len()) {
                continue;
            }
            // Walk back over whitespace to require a `.` receiver.
            let mut back = ix;
            while back > 0 && bytes[back - 1].is_ascii_whitespace() {
                back -= 1;
            }
            if back == 0 || bytes[back - 1] != b'.' {
                continue;
            }
            // Forward over whitespace to require a call.
            let mut fwd = ix + name.len();
            while fwd < bytes.len() && bytes[fwd].is_ascii_whitespace() {
                fwd += 1;
            }
            if next_at(bytes, fwd) != b'(' {
                continue;
            }
            hits.push(Hit {
                offset: ix,
                what: format!("`.{name}(...)`"),
            });
        }
    }
    hits.sort_by_key(|h| h.offset);
    hits
}

/// Every word-bounded occurrence of each `(needle, what)` token, in
/// source order, described by its `what`. The `time`, `sleep`,
/// `shim-spawn` and `router-bypass` rules are this scan over the token
/// lists below.
pub fn find_tokens(code: &str, tokens: &[(&str, &str)]) -> Vec<Hit> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    for &(needle, what) in tokens {
        for ix in find_all(code, needle) {
            if bounded(bytes, ix, needle.len()) {
                hits.push(Hit {
                    offset: ix,
                    what: what.to_string(),
                });
            }
        }
    }
    hits.sort_by_key(|h| h.offset);
    hits
}

/// `Instant::now` / `SystemTime::now` wall-clock reads.
pub const WALL_CLOCK: &[(&str, &str)] = &[
    ("Instant::now", "`Instant::now()`"),
    ("SystemTime::now", "`SystemTime::now()`"),
];

/// `thread::sleep` calls (also matches the qualified `std::thread::sleep`
/// path, which ends in the same token pair). A local function merely
/// *named* `sleep` is not flagged — the `thread::` segment is required.
pub const THREAD_SLEEP: &[(&str, &str)] = &[("thread::sleep", "`thread::sleep(...)`")];

/// Raw thread creation for the `shim-spawn` rule: `thread::spawn` (also
/// matching the qualified `std::thread::spawn` path, which ends in the
/// same token pair) and `thread::Builder`, the named/stack-sized escape
/// hatch that reaches the same unmanaged spawn. A local function merely
/// *named* `spawn` — like `kvcsd_sim::sync::spawn` itself at a call
/// site — is not flagged; the `thread::` segment is required.
pub const THREAD_SPAWN: &[(&str, &str)] = &[
    ("thread::spawn", "`thread::spawn`"),
    ("thread::Builder", "`thread::Builder`"),
];

/// Direct `KvCsdDevice::new` / `KvCsdDevice::reopen` construction, or a
/// `DeviceStack::new` / `DeviceStack::with_ledger` stack built around
/// them — the `router-bypass` rule. A type merely *named* `KvCsdDevice`
/// or `DeviceStack` in a signature or field is fine; only the
/// constructor paths are flagged.
pub const DEVICE_CONSTRUCTION: &[(&str, &str)] = &[
    ("KvCsdDevice::new", "`KvCsdDevice::new(...)`"),
    ("KvCsdDevice::reopen", "`KvCsdDevice::reopen(...)`"),
    ("DeviceStack::new", "`DeviceStack::new(...)`"),
    (
        "DeviceStack::with_ledger",
        "`DeviceStack::with_ledger(...)`",
    ),
];

/// `std::sync::Mutex` / `std::sync::RwLock`, whether path-qualified at a
/// use site or pulled in through a `use std::sync::...` import. Limits:
/// renamed imports (`as M`) and `use std::{sync::Mutex}` nesting are not
/// recognized — neither appears in this workspace, and the plain-path
/// scan still catches the eventual qualified uses.
pub fn find_std_sync_locks(code: &str) -> Vec<Hit> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    let mut import_ranges: Vec<(usize, usize)> = Vec::new();
    for ix in find_all(code, "use std::sync::") {
        if ix > 0 && is_ident(bytes[ix - 1]) {
            continue;
        }
        let end = code[ix..].find(';').map(|e| ix + e).unwrap_or(code.len());
        import_ranges.push((ix, end));
        let body = &code[ix..end];
        for lock in ["Mutex", "RwLock"] {
            if find_all(body, lock)
                .iter()
                .any(|&o| bounded(body.as_bytes(), o, lock.len()))
            {
                hits.push(Hit {
                    offset: ix,
                    what: format!("imports std::sync::{lock}"),
                });
            }
        }
    }
    for lock in ["Mutex", "RwLock"] {
        let path = format!("std::sync::{lock}");
        for ix in find_all(code, &path) {
            if !bounded(bytes, ix, path.len()) {
                continue;
            }
            if import_ranges.iter().any(|&(a, b)| ix >= a && ix < b) {
                continue; // already reported as an import
            }
            hits.push(Hit {
                offset: ix,
                what: format!("uses std::sync::{lock}"),
            });
        }
    }
    hits.sort_by_key(|h| h.offset);
    hits
}

/// `std::sync::atomic` / `core::sync::atomic` paths (imports and use
/// sites), `static mut` items, and `UnsafeCell` mentions — the raw
/// shared-state escape hatches the happens-before detector cannot see.
pub fn find_atomics(code: &str) -> Vec<Hit> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    for path in ["std::sync::atomic", "core::sync::atomic"] {
        for ix in find_all(code, path) {
            // `core::` must not match inside `libcore::` etc.; the tail
            // may continue (`::AtomicU64`), so only the start is bounded.
            if ix == 0 || !is_ident(bytes[ix - 1]) {
                hits.push(Hit {
                    offset: ix,
                    what: format!("`{path}` path"),
                });
            }
        }
    }
    for ix in find_all(code, "static mut") {
        if bounded(bytes, ix, "static mut".len()) {
            hits.push(Hit {
                offset: ix,
                what: "`static mut` item".to_string(),
            });
        }
    }
    for ix in find_all(code, "UnsafeCell") {
        if bounded(bytes, ix, "UnsafeCell".len()) {
            hits.push(Hit {
                offset: ix,
                what: "`UnsafeCell`".to_string(),
            });
        }
    }
    hits.sort_by_key(|h| h.offset);
    hits.dedup_by_key(|h| h.offset);
    hits
}

/// Names of structs whose body declares an interior-mutable field
/// (`Atomic*`, `Cell<`, `RefCell<`, `UnsafeCell<`, `OnceCell<`), as
/// `(name, byte offset of the declaration)`. Feeds the cross-file
/// `shared-raw` taint set.
pub fn collect_interior_mutable_structs(code: &str) -> Vec<(String, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for ix in find_all(code, "struct ") {
        if ix > 0 && is_ident(bytes[ix - 1]) {
            continue;
        }
        let mut j = ix + "struct ".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && is_ident(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = code[name_start..j].to_string();
        // Find the body: `{` (brace-match) — tuple and unit structs are
        // covered too, their `(`/`;` terminates the scan harmlessly.
        while j < bytes.len() && !matches!(bytes[j], b'{' | b'(' | b';') {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] == b';' {
            continue;
        }
        let (open, close) = (bytes[j], if bytes[j] == b'{' { b'}' } else { b')' });
        let body_start = j;
        let mut depth = 0usize;
        while j < bytes.len() {
            if bytes[j] == open {
                depth += 1;
            } else if bytes[j] == close {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let body = &code[body_start..j.min(code.len())];
        if interior_mutable_type_in(body) {
            out.push((name, ix));
        }
    }
    out
}

/// Variant names of `enum <name>` in scrubbed code, in declaration
/// order. Lexical: finds the enum keyword, brace-matches the body, and
/// takes the leading identifier of every depth-1 segment (skipping
/// `#[...]` attributes; doc comments are already blanked). Feeds the
/// `status-map` rule's cross-file variant list.
pub fn collect_enum_variants(code: &str, name: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let needle = format!("enum {name}");
    let Some(ix) = find_all(code, &needle)
        .into_iter()
        .find(|&ix| bounded(bytes, ix, needle.len()))
    else {
        return Vec::new();
    };
    let mut j = ix + needle.len();
    while j < bytes.len() && bytes[j] != b'{' {
        j += 1;
    }
    if j >= bytes.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut expect_variant = false;
    while j < bytes.len() {
        let b = bytes[j];
        match b {
            b'{' | b'(' | b'[' => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
                j += 1;
            }
            b'}' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                j += 1;
            }
            b',' if depth == 1 => {
                expect_variant = true;
                j += 1;
            }
            b'#' if depth == 1 => {
                // Attribute: skip the bracketed group.
                while j < bytes.len() && bytes[j] != b'[' {
                    j += 1;
                }
                let mut d = 0i32;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ if depth == 1 && expect_variant && is_ident(b) => {
                let start = j;
                while j < bytes.len() && is_ident(bytes[j]) {
                    j += 1;
                }
                out.push(code[start..j].to_string());
                expect_variant = false;
            }
            _ => j += 1,
        }
    }
    out
}

/// Does `text` mention one of the std interior-mutable types, word-bounded?
fn interior_mutable_type_in(text: &str) -> bool {
    let bytes = text.as_bytes();
    for t in ["Cell", "RefCell", "UnsafeCell", "OnceCell"] {
        if find_all(text, t)
            .iter()
            .any(|&ix| bounded(bytes, ix, t.len()) && next_at(bytes, ix + t.len()) != 0)
        {
            return true;
        }
    }
    find_all(text, "Atomic")
        .iter()
        .any(|&ix| (ix == 0 || !is_ident(bytes[ix - 1])) && is_ident(next_at(bytes, ix + 6)))
}

/// `Arc<T>` where `T`'s head type is interior-mutable — either one of the
/// std types directly or a name in `tainted` (structs found by
/// [`collect_interior_mutable_structs`] outside the sync shims). Sharing
/// such a value bypasses both the lock-order and the race detector;
/// library code must wrap a shim lock or `Shared` instead.
pub fn find_arc_wraps(code: &str, tainted: &std::collections::BTreeSet<String>) -> Vec<Hit> {
    let bytes = code.as_bytes();
    let mut hits = Vec::new();
    for ix in find_all(code, "Arc<") {
        // Path-qualified `sync::Arc<` is fine (the `:` before it), but a
        // different type merely *ending* in `Arc` is not ours.
        if ix > 0 && is_ident(bytes[ix - 1]) {
            continue;
        }
        let mut j = ix + "Arc<".len();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        // Head type path: segments up to the next `<`, `>`, or `,`.
        let head_start = j;
        while j < bytes.len() && (is_ident(bytes[j]) || bytes[j] == b':') {
            j += 1;
        }
        let head = &code[head_start..j];
        let leaf = head.rsplit("::").next().unwrap_or(head);
        let is_std_im = matches!(leaf, "Cell" | "RefCell" | "UnsafeCell" | "OnceCell")
            || (leaf.starts_with("Atomic") && leaf.len() > "Atomic".len());
        if is_std_im || tainted.contains(leaf) {
            hits.push(Hit {
                offset: ix,
                what: format!("`Arc<{leaf}>` shares an interior-mutable type"),
            });
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let x = \"unwrap() inside\"; // .unwrap() in comment\nlet y = 1;\n";
        let s = scrub(src);
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let y = 1;"));
        assert_eq!(s.code.len(), src.len());
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].0, 1);
        assert!(s.comments[0].1.contains(".unwrap() in comment"));
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let src = r####"let a = r#"Mutex " inside"#; let b = 'x'; let c = '\''; let d: &'static str = r"ok";"####;
        let s = scrub(src);
        assert!(!s.code.contains("Mutex"));
        assert!(!s.code.contains("inside"));
        assert!(s.code.contains("&'static str"), "lifetime preserved");
        assert!(!s.code.contains('\u{27}') || s.code.contains("'static"));
    }

    #[test]
    fn scrub_handles_nested_block_comments() {
        let src = "/* outer /* Instant::now() */ still comment */ let x = 1;";
        let s = scrub(src);
        assert!(!s.code.contains("Instant"));
        assert!(!s.code.contains("still"));
        assert!(s.code.contains("let x = 1;"));
    }

    #[test]
    fn scrub_handles_hashed_raw_strings() {
        // A `"#` inside a `##`-fenced raw string must not close it, and
        // the `br#` byte-string prefix is recognized too.
        let src = r####"let a = r##"has "# and Mutex inside"##; let b = br#"unwrap() too"#; let ok = 1;"####;
        let s = scrub(src);
        assert!(!s.code.contains("Mutex"), "{}", s.code);
        assert!(!s.code.contains("unwrap"), "{}", s.code);
        assert!(s.code.contains("let ok = 1;"), "{}", s.code);
        // A raw *identifier* is not a raw string: nothing after it is eaten.
        let s = scrub("let r#fn = 1; let live = Instant::now();");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
    }

    #[test]
    fn scrub_handles_deeply_nested_block_comments() {
        let src = "/* 1 /* 2 /* SystemTime::now() */ 2 */ thread::sleep(d); */ let x = 1; /* a /* b */ c */ let y = 2;";
        let s = scrub(src);
        assert!(!s.code.contains("SystemTime"), "{}", s.code);
        assert!(!s.code.contains("sleep"), "depth tracking: {}", s.code);
        assert!(s.code.contains("let x = 1;"), "{}", s.code);
        assert!(s.code.contains("let y = 2;"), "{}", s.code);
    }

    #[test]
    fn lifetime_vs_char_literal_disambiguation() {
        // `<'a>('x')`: the lifetime must not swallow the literal's opener
        // (the old fixed-window scan blanked `'a>('` as a "literal").
        let s =
            scrub("fn f<'a>(c: char) -> &'a str { if c == 'x' { unreachable() } else { q() } }");
        assert!(s.code.contains("<'a>"), "lifetime kept: {}", s.code);
        assert!(s.code.contains("&'a str"), "{}", s.code);
        assert!(!s.code.contains("'x'"), "literal blanked: {}", s.code);
        assert!(s.code.contains("unreachable()"), "{}", s.code);

        // Loop labels and `'static` are lifetimes; `'_'` is a literal.
        let s = scrub("'outer: loop { break 'outer; }; let u = '_'; let l: &'static str;");
        assert!(s.code.contains("'outer: loop"), "{}", s.code);
        assert!(s.code.contains("break 'outer;"), "{}", s.code);
        assert!(!s.code.contains("'_'"), "{}", s.code);
        assert!(s.code.contains("&'static str"), "{}", s.code);

        // Long escapes, multi-byte chars, punctuation chars, byte chars.
        let s = scrub(
            r"let a = '\u{1F600}'; let b = 'é'; let c = '}'; let d = b'\n'; let e = ' '; done();",
        );
        for lit in ["1F600", "é", "'}'", "b'", "' '"] {
            assert!(!s.code.contains(lit), "{lit} blanked: {}", s.code);
        }
        assert!(s.code.contains("done();"), "{}", s.code);

        // An escaped quote literal does not derail the scan.
        let s = scrub(r"let q = '\''; let live = Instant::now();");
        assert!(s.code.contains("Instant::now"), "{}", s.code);
        assert!(!s.code.contains(r"'\''"), "{}", s.code);
    }

    #[test]
    fn line_of_is_one_based() {
        let s = scrub("a\nb\nc\n");
        assert_eq!(s.line_of(0), 1);
        assert_eq!(s.line_of(2), 2);
        assert_eq!(s.line_of(4), 3);
    }

    #[test]
    fn finds_method_unwraps_only() {
        let code = "x.unwrap(); y.expect(\"gone\"); unwrap(); my_unwrap(); z.unwrap_or(1); w.expect_err(\"e\");";
        let hits = find_unwraps(&scrub(code).code);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].what.contains("unwrap"));
        assert!(hits[1].what.contains("expect"));
    }

    #[test]
    fn finds_wall_clock_reads() {
        let code = "let t = std::time::Instant::now(); let s = SystemTime::now(); fn now() {}";
        let hits = find_tokens(code, WALL_CLOCK);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn finds_thread_sleeps() {
        let code =
            "thread::sleep(d); std::thread::sleep(d); sleep(d); my_thread::sleeper(); fn sleep() {}";
        let hits = find_tokens(code, THREAD_SLEEP);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.what.contains("thread::sleep")));
    }

    #[test]
    fn finds_std_sync_imports_and_paths() {
        let code = "use std::sync::{Arc, Mutex};\nlet l: std::sync::RwLock<u8>;\nuse std::sync::atomic::AtomicU64;\nlet a = Arc::new(1);";
        let hits = find_std_sync_locks(code);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].what.contains("Mutex"));
        assert!(hits[1].what.contains("RwLock"));
    }

    #[test]
    fn import_is_not_double_counted() {
        let code = "use std::sync::Mutex;";
        let hits = find_std_sync_locks(code);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn cfg_test_ranges_cover_the_block() {
        let code = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let ranges = test_line_ranges(code);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn finds_raw_thread_spawns() {
        let code = "std::thread::spawn(f);\nthread::Builder::new().spawn(g);\nkvcsd_sim::sync::spawn(h);\nlet spawner = my_thread::spawner();\n";
        let hits = find_tokens(code, THREAD_SPAWN);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].what, "`thread::spawn`");
        assert_eq!(hits[1].what, "`thread::Builder`");
    }

    #[test]
    fn finds_atomic_escape_hatches() {
        let code = "use std::sync::atomic::AtomicU64;\nstatic mut X: u64 = 0;\nlet c: UnsafeCell<u8>;\ncore::sync::atomic::fence(o);\nstatic muted: u8 = 0;\n";
        let hits = find_atomics(code);
        assert_eq!(hits.len(), 4, "{hits:?}");
    }

    #[test]
    fn interior_mutable_structs_are_collected() {
        let code = "struct A { n: u64 }\nstruct B { c: Cell<u8> }\nstruct C { a: AtomicUsize }\nstruct D(RefCell<u8>);\n";
        let names: Vec<String> = collect_interior_mutable_structs(code)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["B", "C", "D"]);
    }

    #[test]
    fn enum_variants_are_collected_in_order() {
        let code = "/// doc\npub enum KvStatus {\n    KeyNotFound,\n    #[allow(dead_code)]\n    BadKeyspaceState { state: &'static str, op: &'static str },\n    TransientDeviceError(String),\n    Busy,\n}\npub enum Other { X }";
        let v = collect_enum_variants(&scrub(code).code, "KvStatus");
        assert_eq!(
            v,
            vec![
                "KeyNotFound",
                "BadKeyspaceState",
                "TransientDeviceError",
                "Busy"
            ]
        );
        assert_eq!(collect_enum_variants(code, "Missing"), Vec::<String>::new());
    }

    #[test]
    fn arc_wraps_respect_the_taint_set() {
        let tainted: std::collections::BTreeSet<String> =
            ["Gauge".to_string()].into_iter().collect();
        let code = "Arc<Mutex<u8>>; Arc<AtomicU64>; Arc<std::cell::RefCell<u8>>; Arc<Gauge>; Arc<Clean>; MyArc<AtomicU64>;";
        let hits = find_arc_wraps(code, &tainted);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].what.contains("AtomicU64"));
        assert!(hits[1].what.contains("RefCell"));
        assert!(hits[2].what.contains("Gauge"));
    }
}
