// Package textproc implements the text pre-processing pipeline of the
// paper (§VII-A): tokenization of record contents, normalization, and
// removal of very frequent terms that would dilute the effect of
// discriminative terms.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenizeOptions controls how raw record text is split into terms.
type TokenizeOptions struct {
	// Lowercase folds all tokens to lower case. The paper's datasets are
	// matched case-insensitively.
	Lowercase bool
	// MinLen drops tokens shorter than this many runes. Zero keeps all.
	MinLen int
	// KeepDigits keeps purely numeric tokens (phone numbers, years and
	// street numbers are discriminative in the benchmark domains).
	KeepDigits bool
}

// DefaultTokenizeOptions mirrors the common practice the paper refers to:
// lowercase, drop 1-character fragments, keep numeric tokens.
func DefaultTokenizeOptions() TokenizeOptions {
	return TokenizeOptions{Lowercase: true, MinLen: 2, KeepDigits: true}
}

// Tokenize splits text into terms on any rune that is not a letter or a
// digit. Alphanumeric model codes such as "pslx350h" survive as single
// tokens, which is essential for the discriminative-term analysis. The
// returned tokens are substrings of the (case-folded) text.
func Tokenize(text string, opts TokenizeOptions) []string {
	return AppendTokens(nil, text, opts)
}

// AppendTokens appends the tokens of text, as Tokenize splits them, to dst
// and returns the extended slice, so a caller tokenizing one text at a
// time can reuse one buffer.
func AppendTokens(dst []string, text string, opts TokenizeOptions) []string {
	s := newScanner(text, opts)
	for tok, ok := s.next(); ok; tok, ok = s.next() {
		dst = append(dst, tok)
	}
	return dst
}

// asciiClass classifies the ASCII bytes for the scanner's fast path.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for b := '0'; b <= '9'; b++ {
		t[b] = classDigit
	}
	for b := 'a'; b <= 'z'; b++ {
		t[b] = classLetter
		t[b-'a'+'A'] = classLetter
	}
	return t
}()

const (
	classSeparator = iota
	classDigit
	classLetter
)

// scanner walks the tokens of one text without allocating: ASCII bytes are
// classified by table, other runes are decoded in place, and a token's
// rune count (for MinLen) comes from utf8.RuneCountInString, needed only
// when the token left the ASCII range. It is the one tokenizer behind
// Tokenize, the corpus builder and the incremental index.
type scanner struct {
	text       string
	pos        int
	minLen     int
	keepDigits bool
}

// newScanner folds the text's case once (strings.ToLower returns an
// already-lowercase text unchanged, without allocating) and positions the
// scanner at its start.
func newScanner(text string, opts TokenizeOptions) scanner {
	if opts.Lowercase {
		text = strings.ToLower(text)
	}
	return scanner{text: text, minLen: opts.MinLen, keepDigits: opts.KeepDigits}
}

// next returns the next maximal run of letters and digits that passes the
// MinLen and KeepDigits filters, or false once the text is exhausted.
func (s *scanner) next() (string, bool) {
	text, i := s.text, s.pos
	//lint:ignore guardloop linear in one text; the corpus builder polls its checkpoint once per chunk of texts
	for i < len(text) {
		// Skip separators up to the first letter or digit.
		if b := text[i]; b < utf8.RuneSelf {
			if asciiClass[b] == classSeparator {
				i++
				continue
			}
		} else if r, w := utf8.DecodeRuneInString(text[i:]); !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			i += w
			continue
		}
		// Extend the token to the next separator.
		start, ascii, letter := i, true, false
		for i < len(text) {
			if b := text[i]; b < utf8.RuneSelf {
				c := asciiClass[b]
				if c == classSeparator {
					break
				}
				letter = letter || c == classLetter
				i++
				continue
			}
			r, w := utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) {
				letter = true
			} else if !unicode.IsDigit(r) {
				break
			}
			ascii = false
			i += w
		}
		tok := text[start:i]
		runes := len(tok)
		if !ascii {
			runes = utf8.RuneCountInString(tok)
		}
		if runes < s.minLen || (!s.keepDigits && !letter) {
			continue
		}
		s.pos = i
		return tok, true
	}
	s.pos = i
	return "", false
}

// UniqueTokens returns the distinct tokens of a record, preserving first
// occurrence order. The paper's graph models connect terms and records by
// containment, so duplicate occurrences inside one record are irrelevant.
func UniqueTokens(tokens []string) []string {
	seen := make(map[string]struct{}, len(tokens))
	out := tokens[:0:0]
	for _, t := range tokens {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
