// Package bif reads and writes discrete Bayesian networks in the textual
// Bayesian Interchange Format (BIF / Cozman's Interchange Format), the
// format used by the classic network repositories (asia.bif, alarm.bif,
// …). Supported constructs:
//
//	network <name> { <properties> }
//	variable <name> { type discrete [ n ] { s0, s1, … }; <properties> }
//	probability ( child | p1, p2 ) {
//	    table v, v, …;              // full table, child state fastest
//	    (s1, s2) v, v, …;           // one row per parent configuration
//	    default v, v, …;            // rows not listed explicitly
//	}
//
// `property` lines are parsed and ignored. Comments use // and /* */.
package bif

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // one of { } ( ) [ ] | , ;
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokPunct:
		return "punctuation"
	default:
		return "token"
	}
}

// token is one lexeme with its source line for error messages.
type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer splits BIF source into tokens, one per call to next. A token's text
// is a substring of the source, so reading one allocates nothing.
type lexer struct {
	src  string
	pos  int
	line int
}

// errorf decorates an error with the current line.
func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("bif: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// skipSpace consumes whitespace and comments.
func (l *lexer) skipSpace() error {
	src := l.src
	for l.pos < len(src) {
		c := src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '/':
			// Up to the newline, which the next round counts.
			if k := strings.IndexByte(src[l.pos:], '\n'); k >= 0 {
				l.pos += k
			} else {
				l.pos = len(src)
			}
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '*':
			k := strings.Index(src[l.pos+2:], "*/")
			end := len(src)
			if k >= 0 {
				end = l.pos + 2 + k + 2
			}
			l.line += strings.Count(src[l.pos:end], "\n")
			l.pos = end
			if k < 0 {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// isIdentRune reports whether r may appear inside a BIF identifier. BIF
// identifiers are liberal: repository files use letters, digits, '_', '-'
// and '.'.
func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.'
}

// isIdentByte reports whether byte c may appear inside a BIF identifier,
// read as isIdentRune reads it.
func isIdentByte(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-', c == '.':
		return true
	case c < 0x80:
		return false
	default:
		return isIdentRune(rune(c))
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	src, line := l.src, l.line
	if l.pos >= len(src) {
		return token{kind: tokEOF, line: line}, nil
	}
	start := l.pos
	switch c := src[start]; {
	case c == '{' || c == '}' || c == '(' || c == ')' || c == '[' || c == ']' || c == '|' || c == ',' || c == ';':
		l.pos++
		return token{kind: tokPunct, text: src[start:l.pos], line: line}, nil
	case c == '"':
		k := strings.IndexAny(src[start+1:], "\"\n")
		if k < 0 || src[start+1+k] == '\n' {
			return token{}, l.errorf("unterminated string")
		}
		l.pos = start + 1 + k + 1
		return token{kind: tokString, text: src[start+1 : start+1+k], line: line}, nil
	case c >= '0' && c <= '9' || c == '-' || c == '+':
		i := start + 1
		for ; i < len(src); i++ {
			c := src[i]
			if !(c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
				(c == '-' || c == '+') && (src[i-1] == 'e' || src[i-1] == 'E')) {
				break
			}
		}
		l.pos = i
		return token{kind: tokNumber, text: src[start:i], line: line}, nil
	case isIdentByte(c):
		i := start + 1
		for i < len(src) && isIdentByte(src[i]) {
			i++
		}
		l.pos = i
		return token{kind: tokIdent, text: src[start:i], line: line}, nil
	default:
		return token{}, l.errorf("unexpected character %q", c)
	}
}
