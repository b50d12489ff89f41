//! Seeded malformed-HTTP generation — **test support**, the protocol-level
//! sibling of `bayonet_lang::testgen`.
//!
//! Produces raw request byte strings covering the classic ways clients go
//! wrong on the wire: non-numeric and conflicting `Content-Length`
//! headers, bodies declared beyond the size limit, heads blown past
//! [`crate::MAX_HEAD_BYTES`], pipelined trailing garbage, invalid UTF-8 in
//! JSON bodies, mangled request lines, colon-less headers, torn bodies,
//! plain binary noise, and well-framed JSON bodies aimed at the string
//! decoder (long runs, deep escapes, bad surrogates, raw control
//! characters, repeated object keys). The server's contract under all of them: a
//! well-formed HTTP error response or a clean close — never a panic, a
//! wedged event loop, or a leaked fd.
//!
//! The generator is the same tiny self-contained LCG as `testgen`, so a
//! seed fully determines the byte string and every failure reproduces
//! from the seed alone.

/// A deterministic generator of hostile HTTP request bytes.
///
/// # Examples
///
/// ```
/// use bayonet_serve::fuzz::RequestFuzzGen;
///
/// let bytes = RequestFuzzGen::new(7).generate();
/// // Same seed, same bytes:
/// assert_eq!(bytes, RequestFuzzGen::new(7).generate());
/// ```
pub struct RequestFuzzGen {
    state: u64,
}

/// How many request shapes [`RequestFuzzGen::generate`] rotates through.
const SHAPES: u64 = 11;

impl RequestFuzzGen {
    /// Creates a generator; the seed fully determines the output.
    pub fn new(seed: u64) -> RequestFuzzGen {
        // Splash the seed so small seeds don't produce correlated streams.
        RequestFuzzGen {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    /// Next raw 64-bit draw (an LCG with Knuth's MMIX constants, taking
    /// the high bits which have the longest period).
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    /// Uniform draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly drawn element of `options`.
    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    /// `len` bytes of unrestricted binary noise.
    fn noise(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next_u64() & 0xFF) as u8).collect()
    }

    /// A syntactically plausible request line.
    fn request_line(&mut self) -> String {
        const METHODS: [&str; 5] = ["GET", "POST", "PUT", "get", "P\u{0}ST"];
        const PATHS: [&str; 5] = ["/healthz", "/v1/run", "/v1/batch", "/", "/..//x"];
        format!("{} {} HTTP/1.1", self.pick(&METHODS), self.pick(&PATHS),)
    }

    /// A JSON document aimed at the string decoder: a request-shaped
    /// object (or a bare string) whose strings mix plain runs of up to
    /// `max_run` bytes, multi-byte UTF-8, every escape, runs of escapes,
    /// valid and broken surrogates, and raw control characters. Some
    /// objects repeat a key. Some documents are cut short mid-value. The
    /// text is always valid UTF-8, so it exercises the JSON layer, not the
    /// body's UTF-8 check.
    pub fn json_document(&mut self, max_run: usize) -> String {
        let mut doc = String::new();
        match self.below(5) {
            0 => {
                doc.push_str(r#"{"source":"#);
                self.json_string(&mut doc, max_run);
                doc.push('}');
            }
            1 => {
                doc.push_str(r#"{"items":["#);
                for i in 0..1 + self.below(3) {
                    if i > 0 {
                        doc.push(',');
                    }
                    doc.push_str(r#"{"source":"#);
                    self.json_string(&mut doc, max_run);
                    doc.push('}');
                }
                doc.push_str("]}");
            }
            // Strings as keys too, in a nested array.
            2 => {
                doc.push('{');
                self.json_string(&mut doc, max_run);
                doc.push_str(":[");
                self.json_string(&mut doc, max_run);
                doc.push_str(",null]}");
            }
            // One key twice, at the top level or in `bindings`.
            3 => {
                let nested = self.below(2) == 0;
                if nested {
                    doc.push_str(r#"{"source":"","bindings":"#);
                }
                self.duplicate_key_object(&mut doc, max_run);
                if nested {
                    doc.push('}');
                }
            }
            _ => self.json_string(&mut doc, max_run),
        }
        if self.below(8) == 0 {
            let mut cut = self.below(doc.len() as u64 + 1) as usize;
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc.truncate(cut);
        }
        doc
    }

    /// Appends an object that names one key twice, with up to two other
    /// keys in between. The repeat is sometimes spelled with a `\u`
    /// escape, which still decodes to the same key.
    fn duplicate_key_object(&mut self, out: &mut String, max_run: usize) {
        const KEYS: [&str; 4] = ["engine", "source", "P_LOSS", "K"];
        const FILLERS: [&str; 2] = [r#""seed":1,"#, r#""threads":2,"#];
        let key = self.pick(&KEYS);
        out.push_str(&format!("{{\"{key}\":"));
        self.json_string(out, max_run);
        out.push(',');
        for filler in &FILLERS[..self.below(3) as usize] {
            out.push_str(filler);
        }
        let (head, last) = key.split_at(key.len() - 1);
        match self.below(2) {
            0 => out.push_str(&format!("\"{key}\":")),
            _ => out.push_str(&format!("\"{head}\\u{:04x}\":", last.as_bytes()[0])),
        }
        self.json_string(out, max_run);
        out.push('}');
    }

    /// Appends one quoted JSON string built from random segments.
    fn json_string(&mut self, out: &mut String, max_run: usize) {
        // Multi-byte UTF-8 up to the last scalar, plus DEL, which JSON
        // leaves unescaped.
        const ODD_CHARS: [char; 6] = ['é', '中', '🦀', '\u{7f}', '\u{ffff}', '\u{10ffff}'];
        const ESCAPES: [&str; 8] = [r#"\""#, r"\\", r"\/", r"\b", r"\f", r"\n", r"\r", r"\t"];
        const BROKEN: [&str; 9] = [
            r"\ud83e",       // lone high surrogate
            r"\ud83e\u0041", // high surrogate, bad low
            r"\ud800\ud800", // two highs
            r"\udc00",       // lone low surrogate
            r"\u12",         // truncated
            r"\uzzzz",       // not hex
            r"\u12é",        // multi-byte char inside the hex digits
            r"\x",           // unknown escape
            "\\",            // bare backslash: escapes whatever follows
        ];
        out.push('"');
        for _ in 0..self.below(9) {
            match self.below(16) {
                // Plain runs, sometimes with multi-byte chars inside.
                0..=4 => {
                    let len = self.below(max_run as u64 + 1);
                    for _ in 0..len {
                        match self.below(32) {
                            0 => out.push(self.pick(&ODD_CHARS)),
                            // Printable ASCII minus the quote and backslash.
                            _ => out.push(match (b' ' + self.below(95) as u8) as char {
                                '"' | '\\' => '_',
                                c => c,
                            }),
                        }
                    }
                }
                5 => out.push(self.pick(&ODD_CHARS)),
                6 => out.push_str(self.pick(&ESCAPES)),
                // Deep escapes: a long run of consecutive escapes.
                7 => {
                    for _ in 0..self.below(max_run as u64 / 2 + 1) {
                        out.push_str(self.pick(&ESCAPES));
                    }
                }
                8 => {
                    // Any BMP scalar outside the surrogate block.
                    let code = match self.below(0xF800) as u32 {
                        c if c < 0xD800 => c,
                        c => c + 0x800,
                    };
                    out.push_str(&format!("\\u{code:04x}"));
                }
                9 => {
                    let hi = 0xD800 + self.below(0x400);
                    let lo = 0xDC00 + self.below(0x400);
                    out.push_str(&format!("\\u{hi:04X}\\u{lo:04x}"));
                }
                10 | 11 => out.push_str(self.pick(&BROKEN)),
                12 => out.push(char::from(self.below(0x20) as u8)),
                // Short plain text between the other segments.
                _ => out.push_str(" bay "),
            }
        }
        out.push('"');
    }

    /// Generates one request byte string. Shapes rotate through the
    /// malformed-input taxonomy; a few are only *suspicious* (pipelined
    /// trailers, odd methods) so the corpus also exercises the boundary
    /// between reject and accept.
    pub fn generate(&mut self) -> Vec<u8> {
        match self.below(SHAPES) {
            // Valid framing, invalid UTF-8 where JSON should be.
            0 => {
                let mut body = br#"{"source":""#.to_vec();
                body.extend((0..8).map(|_| 0xC0u8 | (self.below(64) as u8)));
                body.extend_from_slice(b"\"}");
                let mut req = format!(
                    "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                req.extend_from_slice(&body);
                req
            }
            // Content-Length that does not parse (or conflicts).
            1 => {
                const BAD: [&str; 4] = ["banana", "-1", "0x10", "99999999999999999999999999"];
                let value = if self.below(4) == 0 {
                    "5\r\nContent-Length: 7".to_string() // conflicting pair
                } else {
                    self.pick(&BAD).to_string()
                };
                format!(
                    "{}\r\nHost: fuzz\r\nContent-Length: {value}\r\n\r\nhello",
                    self.request_line()
                )
                .into_bytes()
            }
            // Body declared beyond MAX_BODY_BYTES — rejected from the
            // head alone, no body bytes needed.
            2 => format!(
                "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
                crate::MAX_BODY_BYTES as u64 + 1 + self.below(1 << 20)
            )
            .into_bytes(),
            // Oversized head: one header value blown past MAX_HEAD_BYTES.
            3 => {
                let pad = crate::MAX_HEAD_BYTES + 1 + self.below(16 * 1024) as usize;
                let mut req = format!("{}\r\nX-Pad: ", self.request_line()).into_bytes();
                req.extend(std::iter::repeat_n(b'a', pad));
                req.extend_from_slice(b"\r\n\r\n");
                req
            }
            // A well-formed request with pipelined trailing garbage.
            4 => {
                let mut req = b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_vec();
                let len = 1 + self.below(64) as usize;
                let trailer = self.noise(len);
                req.extend_from_slice(&trailer);
                req
            }
            // Unstructured binary noise.
            5 => {
                let len = 1 + self.below(256) as usize;
                self.noise(len)
            }
            // Mangled request line.
            6 => {
                const LINES: [&str; 5] = [
                    "GET",
                    "GET /healthz",
                    " / HTTP/1.1",
                    "GET\t/healthz\tHTTP/1.1",
                    "HTTP/1.1 200 OK", // a *response* line, rudely
                ];
                format!("{}\r\nHost: fuzz\r\n\r\n", self.pick(&LINES)).into_bytes()
            }
            // Header lines without a colon (or with an empty name).
            7 => {
                const HEADERS: [&str; 4] =
                    ["NoColonHere", ": empty-name", "Tab\tSeparated value", "="];
                format!(
                    "{}\r\n{}\r\nHost: fuzz\r\n\r\n",
                    self.request_line(),
                    self.pick(&HEADERS)
                )
                .into_bytes()
            }
            // Torn body: head promises more bytes than will ever arrive.
            8 => {
                let declared = 64 + self.below(512);
                let sent = self.below(32) as usize;
                let mut req = format!(
                    "POST /v1/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {declared}\r\n\r\n"
                )
                .into_bytes();
                req.extend(std::iter::repeat_n(b'{', sent));
                req
            }
            // Well-framed JSON body aimed at the string decoder; one in
            // eight carries runs long enough that per-character decoding
            // would be quadratic.
            9 => {
                const PATHS: [&str; 4] = ["/v1/run", "/v1/check", "/v1/batch", "/v1/sweep"];
                let path = self.pick(&PATHS);
                let max_run = if self.below(8) == 0 { 64 * 1024 } else { 1024 };
                let body = self.json_document(max_run);
                format!(
                    "POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
            // Huge request line (path far past any sane length).
            _ => {
                let mut req = b"GET /".to_vec();
                req.extend(std::iter::repeat_n(
                    b'z',
                    crate::MAX_HEAD_BYTES + self.below(8192) as usize,
                ));
                req.extend_from_slice(b" HTTP/1.1\r\nHost: fuzz\r\n\r\n");
                req
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0, 1, 7, 999, u64::MAX] {
            assert_eq!(
                RequestFuzzGen::new(seed).generate(),
                RequestFuzzGen::new(seed).generate()
            );
        }
    }

    #[test]
    fn corpus_covers_every_shape() {
        let mut shapes = std::collections::HashSet::new();
        for seed in 0..100 {
            let mut gen = RequestFuzzGen::new(seed);
            shapes.insert(gen.below(SHAPES));
        }
        assert_eq!(
            shapes.len(),
            SHAPES as usize,
            "seeds 0..100 miss shapes: {shapes:?}"
        );
    }
}
