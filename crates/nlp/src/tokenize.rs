//! Whitespace/punctuation tokenizer with byte-span tracking.

/// A token with its byte offsets into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text.
    pub text: String,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// Whether the token starts with an ASCII uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    }

    /// Whether every character is alphabetic.
    pub fn is_alphabetic(&self) -> bool {
        !self.text.is_empty() && self.text.chars().all(|c| c.is_alphabetic())
    }

    /// Word shape: `X` for upper, `x` for lower, `9` for digit, else the
    /// character itself (collapsed runs). E.g. `"McGee"` → `"XxXx"`,
    /// `"1984"` → `"9"`.
    pub fn shape(&self) -> String {
        let mut shape = String::new();
        let mut last = '\0';
        for c in self.text.chars() {
            let s = if c.is_ascii_uppercase() {
                'X'
            } else if c.is_lowercase() {
                'x'
            } else if c.is_ascii_digit() {
                '9'
            } else {
                c
            };
            if s != last {
                shape.push(s);
                last = s;
            }
        }
        shape
    }
}

/// Splits text into word and punctuation tokens.
///
/// Words are maximal runs of alphanumerics plus internal apostrophes and
/// hyphens (`O'Brien`, `vice-chair`); each punctuation character is its own
/// token. Whitespace separates but never appears in tokens.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let bytes = text.char_indices().collect::<Vec<_>>();
    let mut i = 0;
    while i < bytes.len() {
        let (offset, c) = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_alphanumeric() {
            let start = offset;
            let mut j = i;
            while j < bytes.len() {
                let (_, cj) = bytes[j];
                let is_word = cj.is_alphanumeric()
                    || ((cj == '\'' || cj == '-')
                        && j + 1 < bytes.len()
                        && bytes[j + 1].1.is_alphanumeric()
                        && j > i);
                if !is_word {
                    break;
                }
                j += 1;
            }
            let end = if j < bytes.len() {
                bytes[j].0
            } else {
                text.len()
            };
            tokens.push(Token {
                text: text[start..end].to_string(),
                start,
                end,
            });
            i = j;
        } else {
            let start = offset;
            let end = if i + 1 < bytes.len() {
                bytes[i + 1].0
            } else {
                text.len()
            };
            tokens.push(Token {
                text: text[start..end].to_string(),
                start,
                end,
            });
            i += 1;
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_words_and_punctuation() {
        let toks = tokenize("Hello, world!");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["Hello", ",", "world", "!"]);
    }

    #[test]
    fn spans_index_into_source() {
        let text = "Ann met Bob.";
        for tok in tokenize(text) {
            assert_eq!(&text[tok.start..tok.end], tok.text);
        }
    }

    #[test]
    fn keeps_internal_apostrophes_and_hyphens() {
        let texts: Vec<String> = tokenize("O'Brien co-chairs")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["O'Brien", "co-chairs"]);
    }

    #[test]
    fn trailing_apostrophe_is_separate() {
        let texts: Vec<String> = tokenize("dogs' bones")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["dogs", "'", "bones"]);
    }

    #[test]
    fn handles_unicode_words() {
        let toks = tokenize("Zoë naïve");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].text, "Zoë");
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n").is_empty());
    }

    #[test]
    fn capitalization_and_shape() {
        let toks = tokenize("McGee saw 1984");
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
        assert_eq!(toks[0].shape(), "XxXx");
        assert_eq!(toks[2].shape(), "9");
    }
}
